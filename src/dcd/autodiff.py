"""Dense float64 tensors with reverse-mode autodiff on an explicit tape.

Values are numpy arrays; every differentiable op appends a node to the
active tape (define-by-run, one fresh tape per training step).  A node
stores the op kind, the output/input tensor ids and a closure over the
saved forward values.  ``Tape.backward`` walks the node list in reverse
insertion order, which is a valid topological order by construction,
accumulating gradients per tensor id; afterwards only the leaves' remain.

A tape opened with ``leaves`` differentiates only those leaves: it tracks
them and the outputs of the nodes it records, records an op only when one
of its inputs is tracked, and gives no gradient to an untracked tensor.
``matmul``, ``conv2d`` and ``conv_block`` then skip the product that
would compute one.  A tape without ``leaves`` tracks every tensor.

Convolutions run over chunks of samples (about 4 MB of patch matrix
each).  ``conv_block`` is the ConvNet block, conv then 2x2 max-pool then
ReLU, as one node: it pools each chunk's conv output before the next
chunk runs, so neither the full-size conv output nor its gradient is
ever held.  It shares its chunk, patch, pool and scatter helpers with
``conv2d`` and ``maxpool2d``, so its bits equal the three-op composition.

Elementwise ops accept equal shapes or a scalar (size-1) operand; there
is no general broadcasting.  All math is 64-bit.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

from .errors import (
    DegenerateInputError,
    DomainError,
    IndexOutOfRangeError,
    ShapeMismatchError,
)

EPS = 1e-12

_ids = itertools.count()
_local = threading.local()


def _tape_stack() -> list:
    stack = getattr(_local, "tapes", None)
    if stack is None:
        stack = _local.tapes = []
    return stack


def active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tensor:
    """Dense float64 array with a tape-trackable identity.

    Tensors are immutable by convention; the one sanctioned exception is
    the in-place parameter update an optimizer performs between steps.
    """

    __slots__ = ("data", "id")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.id = next(_ids)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatchError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.data).all())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, id={self.id})"


def constant(data) -> Tensor:
    """Wrap an array-like as an untracked constant leaf."""
    return Tensor(data)


class _Node:
    __slots__ = ("op", "out_id", "input_ids", "backward")

    def __init__(self, op, out_id, input_ids, backward):
        self.op = op
        self.out_id = out_id
        self.input_ids = input_ids
        self.backward = backward


class Tape:
    """Append-only op record for one forward pass, used as a context manager.

    ``leaves``, when given, are the only leaves the tape differentiates
    (see the module docstring); None tracks every tensor.
    """

    def __init__(self, leaves: "list[Tensor] | None" = None):
        self.nodes: list[_Node] = []
        self.grads: dict[int, np.ndarray] = {}
        self.tracked: set[int] | None = None if leaves is None else {t.id for t in leaves}

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _tape_stack().pop()
        assert popped is self, "tapes must unwind in LIFO order"
        return False

    def tracks(self, t: Tensor) -> bool:
        """Whether ``t`` is a tracked leaf or the output of a recorded node."""
        return self.tracked is None or t.id in self.tracked

    def record(self, op: str, inputs: tuple[Tensor, ...], out: Tensor, backward) -> None:
        """Append the op's node, unless no input is tracked."""
        if self.tracked is not None:
            if not any(t.id in self.tracked for t in inputs):
                return
            self.tracked.add(out.id)
        self.nodes.append(_Node(op, out.id, tuple(t.id for t in inputs), backward))

    def backward(self, root: Tensor) -> dict[int, np.ndarray]:
        """Gradients of the scalar ``root`` wrt every reachable leaf id.

        A node's output gradient is dropped once the node has used it, so
        ``grads`` holds only leaves afterwards (tensors no node produced,
        such as parameters and inputs).  On a tape opened with ``leaves``
        only those leaves get gradients.  Deterministic: a second call on
        the same tape rebuilds the same gradient map bitwise.
        """
        if root.shape != ():
            raise ShapeMismatchError(f"backward root must be a scalar, got shape {root.shape}")
        if not any(node.out_id == root.id for node in self.nodes):
            raise ShapeMismatchError("backward root was not produced on this tape")
        self.grads = {root.id: np.ones((), dtype=np.float64)}
        for node in reversed(self.nodes):
            # every consumer of this output ran already: drop its gradient
            g_out = self.grads.pop(node.out_id, None)
            if g_out is None:
                continue
            input_grads = node.backward(g_out)
            for tid, g in zip(node.input_ids, input_grads):
                if g is None or (self.tracked is not None and tid not in self.tracked):
                    continue
                acc = self.grads.get(tid)
                self.grads[tid] = g if acc is None else acc + g
        return self.grads

    def grad(self, t: Tensor) -> np.ndarray | None:
        return self.grads.get(t.id)


class Parameter:
    """Trainable tensor with an optional clamp interval applied after updates."""

    def __init__(self, value, name: str = "", bounds: tuple[float, float] | None = None,
                 decay: bool = True):
        self.value = value if isinstance(value, Tensor) else Tensor(value)
        self.name = name
        self.bounds = bounds
        self.decay = decay
        self.grad: np.ndarray | None = None

    def clamp(self) -> None:
        if self.bounds is not None:
            lo, hi = self.bounds
            np.clip(self.value.data, lo, hi, out=self.value.data)

    def __repr__(self) -> str:
        return f"Parameter({self.name or '<anon>'}, shape={self.value.shape})"


def collect_grads(tape: Tape, params: list[Parameter]) -> None:
    """Pull each parameter's gradient (or None) out of a backward'd tape."""
    for p in params:
        p.grad = tape.grads.get(p.value.id)


def _differentiates(t: Tensor) -> bool:
    """Whether the active tape differentiates ``t``: the gradient an op's
    backward may skip when this is false."""
    tape = active_tape()
    return tape is not None and tape.tracks(t)


def _emit(op: str, inputs: tuple[Tensor, ...], out_data: np.ndarray, backward_fn) -> Tensor:
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None:
        tape.record(op, inputs, out, backward_fn)
    return out


def _check_elementwise(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape and a.size != 1 and b.size != 1:
        raise ShapeMismatchError(f"{op}: shapes {a.shape} and {b.shape} differ and neither is scalar")


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    return np.asarray(g.sum(), dtype=np.float64).reshape(shape)


# -- elementwise suite --------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("add", a, b)

    def bwd(g, sa=a.shape, sb=b.shape):
        return _reduce_to(g, sa), _reduce_to(g, sb)

    return _emit("add", (a, b), a.data + b.data, bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("sub", a, b)

    def bwd(g, sa=a.shape, sb=b.shape):
        return _reduce_to(g, sa), _reduce_to(-g, sb)

    return _emit("sub", (a, b), a.data - b.data, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("mul", a, b)

    def bwd(g, ad=a.data, bd=b.data, sa=a.shape, sb=b.shape):
        return _reduce_to(g * bd, sa), _reduce_to(g * ad, sb)

    return _emit("mul", (a, b), a.data * b.data, bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("div", a, b)
    if np.any(b.data == 0.0):
        raise DomainError("div: denominator contains zero")

    def bwd(g, ad=a.data, bd=b.data, sa=a.shape, sb=b.shape):
        return _reduce_to(g / bd, sa), _reduce_to(-g * ad / (bd * bd), sb)

    return _emit("div", (a, b), a.data / b.data, bwd)


def exp(x: Tensor) -> Tensor:
    y = np.exp(x.data)

    def bwd(g, yd=y):
        return (g * yd,)

    return _emit("exp", (x,), y, bwd)


def log(x: Tensor) -> Tensor:
    if np.any(x.data <= 0.0):
        raise DomainError("log: input must be strictly positive")

    def bwd(g, xd=x.data):
        return (g / xd,)

    return _emit("log", (x,), np.log(x.data), bwd)


def _relu_into(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``max(a, 0)`` into ``out``, with NaN -> 0 and -0.0 -> +0.0."""
    np.fmax(a, 0.0, out=out)
    # fmax's pick between -0.0 and +0.0 differs between numpy's vector and
    # scalar loops, so it depends on the array's length; adding +0.0 turns
    # any -0.0 into +0.0
    out += 0.0
    return out


def relu(x: Tensor) -> Tensor:
    """max(x, 0) with NaN -> 0 and -0.0 -> +0.0; saves only its output.

    The backward mask is ``y > 0`` on the saved output, which equals
    ``x > 0`` on the input.
    """
    y = _relu_into(x.data, np.empty(x.shape, dtype=np.float64))

    def bwd(g, yd=y):
        return (g * (yd > 0.0),)

    return _emit("relu", (x,), y, bwd)


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)

    def bwd(g, c=s):
        return (g * c,)

    return _emit("scale", (x,), x.data * s, bwd)


# -- reductions and reshaping --------------------------------------------------

def tsum(x: Tensor) -> Tensor:
    def bwd(g, shape=x.shape):
        return (np.broadcast_to(g, shape).copy(),)

    return _emit("sum", (x,), np.asarray(x.data.sum(), dtype=np.float64), bwd)


def tmean(x: Tensor) -> Tensor:
    n = x.size
    if n == 0:
        raise ShapeMismatchError("mean of an empty tensor")

    def bwd(g, shape=x.shape, count=n):
        return (np.broadcast_to(g / count, shape).copy(),)

    return _emit("mean", (x,), np.asarray(x.data.mean(), dtype=np.float64), bwd)


def gather_rows(x: Tensor, idx) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeMismatchError("gather_rows: index must be 1-D")
    if x.data.ndim < 1:
        raise ShapeMismatchError("gather_rows: input must have rows")
    n = x.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexOutOfRangeError(f"gather_rows: index outside [0, {n})")

    def bwd(g, shape=x.shape, ix=idx):
        buf = np.zeros(shape, dtype=np.float64)
        np.add.at(buf, ix, g)
        return (buf,)

    return _emit("gather_rows", (x,), x.data[idx], bwd)


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeMismatchError(f"transpose expects a matrix, got shape {x.shape}")

    def bwd(g):
        return (np.ascontiguousarray(g.T),)

    return _emit("transpose", (x,), np.ascontiguousarray(x.data.T), bwd)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != x.size:
        raise ShapeMismatchError(f"reshape: cannot view {x.shape} as {shape}")

    def bwd(g, orig=x.shape):
        return (g.reshape(orig),)

    return _emit("reshape", (x,), x.data.reshape(shape), bwd)


def add_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """Add a length-C vector to every row of an [N, C] matrix."""
    if x.data.ndim != 2 or v.data.ndim != 1 or x.shape[1] != v.shape[0]:
        raise ShapeMismatchError(f"add_rowvec: shapes {x.shape} and {v.shape} incompatible")

    def bwd(g):
        return g, g.sum(axis=0)

    return _emit("add_rowvec", (x, v), x.data + v.data[None, :], bwd)


# -- linear algebra ------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeMismatchError(f"matmul expects matrices, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")

    da, db = _differentiates(a), _differentiates(b)

    def bwd(g, ad=a.data, bd=b.data):
        return (g @ bd.T if da else None), (ad.T @ g if db else None)

    return _emit("matmul", (a, b), a.data @ b.data, bwd)


def unit_rows(x: np.ndarray, clamp: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``(x / max(norm, EPS), the divisors, the clamped-row mask or None)`` per
    row of a matrix.  A row whose norm is below ``EPS`` raises
    :class:`DegenerateInputError` unless ``clamp``, in which case it is divided
    by ``EPS``, as torch's ``F.normalize`` does; rows at or above ``EPS`` are
    divided by their own norm either way.  The error names no op: callers
    prefix what the rows are."""
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    small = norms < EPS
    if not small.any():
        return x / norms, norms, None
    if not clamp:
        raise DegenerateInputError("a row has (near-)zero norm")
    norms = np.maximum(norms, EPS)
    return x / norms, norms, small


def unit_rows_backward(g: np.ndarray, y: np.ndarray, norms: np.ndarray,
                       clamped: np.ndarray | None) -> np.ndarray:
    """The input gradient of :func:`unit_rows` from its output gradient ``g``;
    a clamped row is ``x / EPS``, a linear map with no radial term."""
    radial = (g * y).sum(axis=1, keepdims=True)
    if clamped is not None:
        radial[clamped] = 0.0
    return (g - y * radial) / norms


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Scale each row of an [N, D] matrix to unit Euclidean norm; a row of
    (near-)zero norm raises :class:`DegenerateInputError`."""
    if x.data.ndim != 2:
        raise ShapeMismatchError(f"l2_normalize_rows expects a matrix, got shape {x.shape}")
    try:
        y, norms, _ = unit_rows(x.data, clamp=False)
    except DegenerateInputError as exc:
        raise DegenerateInputError(f"l2_normalize_rows: {exc}") from exc

    def bwd(g, yd=y, nd=norms):
        return (unit_rows_backward(g, yd, nd, None),)

    return _emit("l2_normalize_rows", (x,), y, bwd)


def softmax_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A matrix's max-shifted row log-softmax and its exp: every loss term's softmax."""
    shifted = x - x.max(axis=1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return log_p, np.exp(log_p)


def log_softmax_rows(x: Tensor) -> Tensor:
    """Row-wise log-softmax (:func:`softmax_rows`) of a finite matrix."""
    if x.data.ndim != 2:
        raise ShapeMismatchError(f"log_softmax_rows expects a matrix, got shape {x.shape}")
    if not np.isfinite(x.data).all():
        raise DomainError("log_softmax_rows: input must be finite")
    y, p = softmax_rows(x.data)

    def bwd(g, pd=p):
        return (g - pd * g.sum(axis=1, keepdims=True),)

    return _emit("log_softmax_rows", (x,), y, bwd)


# -- convolution and pooling ---------------------------------------------------

def _pool_geometry(h: int, w: int, size, stride) -> tuple[int, int, int, int, int, int]:
    sh, sw = (size, size) if isinstance(size, int) else (int(size[0]), int(size[1]))
    if stride is None:
        th, tw = sh, sw
    else:
        th, tw = (stride, stride) if isinstance(stride, int) else (int(stride[0]), int(stride[1]))
    if sh < 1 or sw < 1 or th < 1 or tw < 1:
        raise ShapeMismatchError("pooling window and stride must be positive")
    if sh > h or sw > w:
        raise ShapeMismatchError(f"pooling window ({sh}x{sw}) exceeds input ({h}x{w})")
    return sh, sw, th, tw, (h - sh) // th + 1, (w - sw) // tw + 1


# conv2d and conv_block run over chunks of samples whose patch matrix holds
# at most this many elements (4 MB of float64), or over single samples when
# one holds more.
_CONV_CHUNK_ELEMS = 2 ** 19


def _tap_window(d: int, stride: int, pad: int, size: int, out: int) -> tuple[slice, slice] | None:
    """The output positions o whose input ``o * stride + d - pad`` lies in
    ``[0, size)``, and those inputs, as a pair of slices; None if none do."""
    lo = max(0, -((d - pad) // stride))
    hi = min(out, (size - 1 + pad - d) // stride + 1)
    if hi <= lo:
        return None
    start = lo * stride + d - pad
    return slice(lo, hi), slice(start, start + (hi - lo - 1) * stride + 1, stride)


class _ConvChunks:
    """One cross-correlation of an [N,C,H,W] input with an [F,C,kh,kw] kernel
    bank, worked one chunk of samples at a time: the geometry, patches and
    backward that ``conv2d`` and ``conv_block`` share.

    A chunk's patch matrix is built straight from the unpadded input, each
    kernel tap copying the part of the image it sees; the padding stays
    zero.  Every output element comes from its own sample's GEMM, and the
    kernel gradient adds the samples' terms in sample order, so the results
    do not depend on the chunk size.
    """

    def __init__(self, op: str, x: Tensor, k: Tensor, stride: int, pad: int):
        if x.data.ndim != 4 or k.data.ndim != 4:
            raise ShapeMismatchError(f"{op} expects 4-D input and kernel, got {x.shape}, {k.shape}")
        n, c, h, w = x.shape
        f, ck, kh, kw = k.shape
        if ck != c:
            raise ShapeMismatchError(f"{op}: input channels {c} != kernel channels {ck}")
        if stride < 1 or pad < 0:
            raise ShapeMismatchError(f"{op}: stride must be >= 1 and pad >= 0")
        if kh > h + 2 * pad or kw > w + 2 * pad:
            raise ShapeMismatchError(
                f"{op}: kernel {kh}x{kw} exceeds padded input {h + 2 * pad}x{w + 2 * pad}")
        self.ho = ho = (h + 2 * pad - kh) // stride + 1
        self.wo = wo = (w + 2 * pad - kw) // stride + 1
        self.x = x.data
        self.kshape = k.shape
        self.k2 = k.data.reshape(f, c * kh * kw)
        self.step = step = max(1, _CONV_CHUNK_ELEMS // (c * kh * kw * ho * wo))
        self.spans = [slice(s, min(s + step, n)) for s in range(0, n, step)]
        # each tap (di, dj) in scan order, with the output window whose
        # input lies inside the image and that input window
        self.taps = []
        for di in range(kh):
            rows = _tap_window(di, stride, pad, h, ho)
            for dj in range(kw):
                cols = _tap_window(dj, stride, pad, w, wo)
                if rows is not None and cols is not None:
                    self.taps.append((di, dj, (rows[0], cols[0]), (rows[1], cols[1])))

    def patches(self, span: slice) -> np.ndarray:
        """[m, C*kh*kw, ho*wo] patch matrix of a chunk, rows in (channel,
        kernel row, kernel column) order."""
        xc = self.x[span]
        m, c = xc.shape[:2]
        _, _, kh, kw = self.kshape
        cols = np.zeros((m, c, kh, kw, self.ho, self.wo), dtype=np.float64)
        for di, dj, (oi, oj), (ii, ij) in self.taps:
            cols[:, :, di, dj, oi, oj] = xc[:, :, ii, ij]
        return cols.reshape(m, c * kh * kw, self.ho * self.wo)

    def forward(self, span: slice, out: np.ndarray) -> None:
        """Write a chunk's [m, F, ho*wo] output into ``out``."""
        np.matmul(self.k2, self.patches(span), out=out)

    def backward(self, chunk_grads, need_x: bool, need_k: bool):
        """``(dx, dk)`` from each chunk's [m, F, ho*wo] output gradient,
        given as ``(span, g)`` pairs in chunk order; None for an operand
        that is not differentiated."""
        _, c, kh, kw = self.kshape
        dk = np.zeros(self.k2.shape, dtype=np.float64) if need_k else None
        dx = np.zeros(self.x.shape, dtype=np.float64) if need_x else None
        for span, gc in chunk_grads:
            if need_k:
                # add the samples' terms in sample order, as .sum(axis=0) over
                # the whole [N, F, C*kh*kw] stack does unless F*C*kh*kw == 1
                for term in np.matmul(gc, self.patches(span).transpose(0, 2, 1)):
                    dk += term
            if need_x:
                dcols = np.matmul(self.k2.T, gc).reshape(len(gc), c, kh, kw, self.ho, self.wo)
                dxc = dx[span]
                for di, dj, (oi, oj), (ii, ij) in self.taps:
                    dxc[:, :, ii, ij] += dcols[:, :, di, dj, oi, oj]
        return dx, (dk.reshape(self.kshape) if need_k else None)


def conv2d(x: Tensor, k: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation of [N,C,H,W] input with an [F,C,kh,kw] kernel bank.

    Works on chunks of samples (see :class:`_ConvChunks`), each turned into
    a patch matrix only while it is used, so no temporary spans the whole
    batch.  Saves only the input for backward, which rebuilds each chunk's
    patches.
    """
    conv = _ConvChunks("conv2d", x, k, stride, pad)
    n, f = x.shape[0], k.shape[0]
    out = np.empty((n, f, conv.ho * conv.wo), dtype=np.float64)
    for span in conv.spans:
        conv.forward(span, out[span])
    need_x, need_k = _differentiates(x), _differentiates(k)

    def bwd(g):
        g2 = g.reshape(out.shape)
        return conv.backward(((span, g2[span]) for span in conv.spans), need_x, need_k)

    return _emit("conv2d", (x, k), out.reshape(n, f, conv.ho, conv.wo), bwd)


def _max_regions(sh: int, sw: int, th: int, tw: int, ho: int, wo: int) -> list[tuple]:
    """Index of each window position's strided slice of an [N,C,H,W] input,
    in scan order."""
    return [(slice(None), slice(None), slice(di, di + ho * th, th), slice(dj, dj + wo * tw, tw))
            for di in range(sh) for dj in range(sw)]


def _max_windows(x: np.ndarray, regions: list[tuple], best: np.ndarray,
                 arg: np.ndarray | None) -> None:
    """Write each window's maximum of ``x`` into ``best`` and, unless ``arg``
    is None, the first position in scan order that holds it into ``arg``.

    NaN never wins; a window with nothing above -inf gets -inf and position
    0.  A zero maximum is always +0.0.
    """
    best.fill(-np.inf)
    if arg is not None:
        arg.fill(0)
        won = np.empty_like(arg)
    for pos, region in enumerate(regions):
        patch = x[region]
        if arg is not None and pos:
            # pos exceeds every earlier position, so arg keeps the latest strict
            # winner: the first position holding the maximum
            np.greater(patch, best, out=won)
            won *= pos
            np.maximum(arg, won, out=arg)
        np.fmax(patch, best, out=best)  # fmax returns best where the patch holds NaN
    best += 0.0  # as in relu: fmax's pick between -0.0 and +0.0 is not fixed


def _max_windows_backward(g: np.ndarray, arg: np.ndarray, regions: list[tuple],
                          dx: np.ndarray) -> None:
    """Add each window's gradient ``g`` at its winning position ``arg`` of
    ``dx``, a zeroed array of the pooled input's shape."""
    for pos, region in enumerate(regions):
        dx[region] += g * (arg == pos)


def maxpool2d(x: Tensor, size=2, stride=None) -> Tensor:
    """Max pooling that ignores NaN; ties resolve to the first window position
    in scan order.

    On a tape that differentiates ``x`` it saves only each window's winning
    position, one byte per output for windows of up to 256 positions (a
    wider integer beyond), and backward sends each window's gradient there.
    A window with nothing above -inf (all -inf or NaN) outputs -inf and
    sends its gradient to its first position.  A zero maximum is always
    +0.0.  Otherwise (evaluation, a frozen teacher) no positions are kept.
    """
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"maxpool2d expects 4-D input, got shape {x.shape}")
    n, c, h, w = x.shape
    sh, sw, th, tw, ho, wo = _pool_geometry(h, w, size, stride)
    regions = _max_regions(sh, sw, th, tw, ho, wo)
    best = np.empty((n, c, ho, wo), dtype=np.float64)
    arg = None
    if _differentiates(x):
        arg = np.empty((n, c, ho, wo), dtype=np.min_scalar_type(len(regions) - 1))
    _max_windows(x.data, regions, best, arg)

    def bwd(g, shape=x.shape, arg=arg, regions=regions):
        buf = np.zeros(shape, dtype=np.float64)
        _max_windows_backward(g, arg, regions, buf)
        return (buf,)

    return _emit("maxpool2d", (x,), best, bwd)


def conv_block(x: Tensor, k: Tensor) -> Tensor:
    """One ConvNet block as one op: ``relu(maxpool2d(conv2d(x, k, 1, 1), 2))``,
    with the same bits for the output and both gradients.

    Works on the chunks of samples ``conv2d`` uses: each chunk's conv
    output is pooled while it is fresh and only the pooled rows are kept,
    so the full-size conv output and its gradient exist one chunk at a
    time.  Saves the input, the pool's winning positions (only on a tape
    that differentiates ``x`` or ``k``) and the ReLU output.
    """
    conv = _ConvChunks("conv_block", x, k, 1, 1)
    n, f = x.shape[0], k.shape[0]
    ho, wo = conv.ho, conv.wo
    sh, sw, th, tw, po, qo = _pool_geometry(ho, wo, 2, None)
    regions = _max_regions(sh, sw, th, tw, po, qo)
    need_x, need_k = _differentiates(x), _differentiates(k)
    y = np.empty((n, f, po, qo), dtype=np.float64)
    arg = np.empty(y.shape, dtype=np.uint8) if need_x or need_k else None
    chunk = np.empty((conv.step, f, ho * wo), dtype=np.float64)
    for span in conv.spans:
        out = chunk[:span.stop - span.start]
        conv.forward(span, out)
        _max_windows(out.reshape(-1, f, ho, wo), regions, y[span],
                     None if arg is None else arg[span])
        _relu_into(y[span], y[span])

    def bwd(g):
        def chunk_grads():
            for span in conv.spans:
                gc = np.zeros((span.stop - span.start, f, ho, wo), dtype=np.float64)
                _max_windows_backward(g[span] * (y[span] > 0.0), arg[span], regions, gc)
                yield span, gc.reshape(-1, f, ho * wo)
        return conv.backward(chunk_grads(), need_x, need_k)

    return _emit("conv_block", (x, k), y, bwd)


def avgpool2d(x: Tensor, size=2, stride=None) -> Tensor:
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"avgpool2d expects 4-D input, got shape {x.shape}")
    n, c, h, w = x.shape
    sh, sw, th, tw, ho, wo = _pool_geometry(h, w, size, stride)
    acc = np.zeros((n, c, ho, wo), dtype=np.float64)
    for di in range(sh):
        for dj in range(sw):
            acc += x.data[:, :, di:di + ho * th:th, dj:dj + wo * tw:tw]
    inv = 1.0 / (sh * sw)

    def bwd(g, geom=(n, c, h, w, sh, sw, th, tw, ho, wo), scale_=inv):
        n_, c_, h_, w_, sh_, sw_, th_, tw_, ho_, wo_ = geom
        buf = np.zeros((n_, c_, h_, w_), dtype=np.float64)
        gs = g * scale_
        for di in range(sh_):
            for dj in range(sw_):
                buf[:, :, di:di + ho_ * th_:th_, dj:dj + wo_ * tw_:tw_] += gs
        return (buf,)

    return _emit("avgpool2d", (x,), acc * inv, bwd)

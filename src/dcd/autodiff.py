"""Dense float64 tensors with reverse-mode autodiff on an explicit tape.

Values are numpy arrays; every differentiable op appends a node to the
active tape (define-by-run, one fresh tape per training step).  A node
stores the op kind, the output/input tensor ids and a closure over the
saved forward values.  ``Tape.backward`` walks the node list in reverse
insertion order, which is a valid topological order by construction,
accumulating gradients per tensor id; afterwards only the leaves' remain.

Elementwise ops accept equal shapes or a scalar (size-1) operand; there
is no general broadcasting.  All math is 64-bit.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

    def detach(self) -> "Tensor":
        """Copy of the value as a fresh constant leaf (no tape history)."""
        return Tensor(self.data.copy())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, id={self.id})"

    # Thin operator sugar over the functional API below.
    def __add__(self, other):
        return add(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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
    """Append-only op record for one forward pass, used as a context manager."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.grads: dict[int, np.ndarray] = {}

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _tape_stack().pop()
        assert popped is self, "tapes must unwind in LIFO order"
        return False

    def record(self, op: str, inputs: tuple[Tensor, ...], out: Tensor, backward) -> None:
        self.nodes.append(_Node(op, out.id, tuple(t.id for t in inputs), backward))

    def backward(self, root: Tensor) -> dict[int, np.ndarray]:
        """Gradients of the scalar ``root`` wrt every reachable leaf id.

        A node's output gradient is dropped once the node has used it, so
        ``grads`` holds only leaves afterwards (tensors no node produced,
        such as parameters and inputs).  Deterministic: a second call on
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
                if g is None:
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


def relu(x: Tensor) -> Tensor:
    """max(x, 0) with NaN -> 0 and -0.0 -> +0.0; saves only its output.

    The backward mask is ``y > 0`` on the saved output, which equals
    ``x > 0`` on the input.
    """
    y = np.fmax(x.data, 0.0)
    # fmax's pick between -0.0 and +0.0 differs between numpy's vector and
    # scalar loops, so it depends on the array's length; adding +0.0 turns
    # any -0.0 into +0.0
    y += 0.0

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

    def bwd(g, ad=a.data, bd=b.data):
        return g @ bd.T, ad.T @ g

    return _emit("matmul", (a, b), a.data @ b.data, bwd)


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Scale each row of an [N, D] matrix to unit Euclidean norm."""
    if x.data.ndim != 2:
        raise ShapeMismatchError(f"l2_normalize_rows expects a matrix, got shape {x.shape}")
    norms = np.sqrt((x.data * x.data).sum(axis=1, keepdims=True))
    if np.any(norms < EPS):
        raise DegenerateInputError("l2_normalize_rows: a row has (near-)zero norm")
    y = x.data / norms

    def bwd(g, yd=y, nd=norms):
        return ((g - yd * (g * yd).sum(axis=1, keepdims=True)) / nd,)

    return _emit("l2_normalize_rows", (x,), y, bwd)


def log_softmax_rows(x: Tensor) -> Tensor:
    """Row-wise log-softmax with max subtraction for stability."""
    if x.data.ndim != 2:
        raise ShapeMismatchError(f"log_softmax_rows expects a matrix, got shape {x.shape}")
    if not np.isfinite(x.data).all():
        raise DomainError("log_softmax_rows: input must be finite")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    y = shifted - lse
    p = np.exp(y)

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


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """[N, C*kh*kw, ho*wo] patch matrix of a padded [N,C,H,W] input, rows in
    (channel, kernel row, kernel column) order."""
    n, c = xp.shape[:2]
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, ho * wo)


# conv2d runs over chunks of samples whose patch matrix holds at most this
# many elements (4 MB of float64), or over single samples when one holds more.
_CONV_CHUNK_ELEMS = 2 ** 19


def conv2d(x: Tensor, k: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation of [N,C,H,W] input with an [F,C,kh,kw] kernel bank.

    Works on chunks of samples, each padded and turned into a patch matrix
    only while it is used, so no temporary spans the whole batch.  Saves
    only the input for backward, which rebuilds each chunk's patches.
    Every output element comes from its own sample's GEMM and the kernel
    gradient adds the samples' terms in sample order, so the results do not
    depend on the chunk size.
    """
    if x.data.ndim != 4 or k.data.ndim != 4:
        raise ShapeMismatchError(f"conv2d expects 4-D input and kernel, got {x.shape}, {k.shape}")
    n, c, h, w = x.shape
    f, ck, kh, kw = k.shape
    if ck != c:
        raise ShapeMismatchError(f"conv2d: input channels {c} != kernel channels {ck}")
    if stride < 1 or pad < 0:
        raise ShapeMismatchError("conv2d: stride must be >= 1 and pad >= 0")
    hp, wp = h + 2 * pad, w + 2 * pad
    if kh > hp or kw > wp:
        raise ShapeMismatchError(f"conv2d: kernel {kh}x{kw} exceeds padded input {hp}x{wp}")
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    step = max(1, _CONV_CHUNK_ELEMS // (c * kh * kw * ho * wo))
    spans = [slice(s, s + step) for s in range(0, n, step)]

    def patches(span):
        xc = x.data[span]
        if pad:
            xc = np.pad(xc, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        return _im2col(xc, kh, kw, stride, ho, wo)

    k2 = k.data.reshape(f, c * kh * kw)
    out = np.empty((n, f, ho * wo), dtype=np.float64)
    for span in spans:
        np.matmul(k2, patches(span), out=out[span])

    def bwd(g):
        g2 = g.reshape(n, f, ho * wo)
        dk = np.zeros((f, c * kh * kw), dtype=np.float64)
        dx = np.empty((n, c, h, w), dtype=np.float64)
        for span in spans:
            gc = g2[span]
            # add the samples' terms in sample order, as .sum(axis=0) over
            # the whole [N, F, C*kh*kw] stack does unless F*C*kh*kw == 1
            for term in np.matmul(gc, patches(span).transpose(0, 2, 1)):
                dk += term
            m = len(gc)
            dcols = np.matmul(k2.T, gc).reshape(m, c, kh, kw, ho * wo)
            buf = np.zeros((m, c, hp, wp), dtype=np.float64)
            for di in range(kh):
                for dj in range(kw):
                    buf[:, :, di:di + ho * stride:stride, dj:dj + wo * stride:stride] += (
                        dcols[:, :, di, dj, :].reshape(m, c, ho, wo))
            dx[span] = buf[:, :, pad:pad + h, pad:pad + w]
        return dx, dk.reshape(f, c, kh, kw)

    return _emit("conv2d", (x, k), out.reshape(n, f, ho, wo), bwd)


def maxpool2d(x: Tensor, size=2, stride=None) -> Tensor:
    """Max pooling that ignores NaN; ties resolve to the first window position
    in scan order.

    Saves the input and the output for backward, which sends each window's
    gradient to the first position holding the window maximum.  A window
    with nothing above -inf (all -inf or NaN) outputs -inf and sends its
    gradient to its first position.  A zero maximum is always +0.0.
    """
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"maxpool2d expects 4-D input, got shape {x.shape}")
    n, c, h, w = x.shape
    sh, sw, th, tw, ho, wo = _pool_geometry(h, w, size, stride)
    best = np.full((n, c, ho, wo), -np.inf, dtype=np.float64)
    for di in range(sh):
        for dj in range(sw):
            # fmax returns best where the slice holds NaN
            np.fmax(x.data[:, :, di:di + ho * th:th, dj:dj + wo * tw:tw], best, out=best)
    best += 0.0  # as in relu: fmax's pick between -0.0 and +0.0 is not fixed

    def bwd(g, xd=x.data, bd=best, geom=(sh, sw, th, tw, ho, wo)):
        sh_, sw_, th_, tw_, ho_, wo_ = geom
        buf = np.zeros(xd.shape, dtype=np.float64)
        taken = bd == -np.inf  # nothing beat the -inf start: the first position wins
        buf[:, :, :ho_ * th_:th_, :wo_ * tw_:tw_] += g * taken
        for di in range(sh_):
            for dj in range(sw_):
                region = (slice(None), slice(None),
                          slice(di, di + ho_ * th_, th_), slice(dj, dj + wo_ * tw_, tw_))
                hit = (xd[region] == bd) & ~taken
                taken |= hit
                buf[region] += g * hit
        return (buf,)

    return _emit("maxpool2d", (x,), best, bwd)


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

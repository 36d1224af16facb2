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

Convolutions run over chunks of samples (about 2 MB of patch matrix
each).  ``conv_block`` is the ConvNet block, conv then 2x2 max-pool then
ReLU, as one node: it pools each chunk's conv output as soon as it is
made, so neither the full-size conv output nor its gradient is ever
held.  It shares its chunk, patch, pool and scatter helpers with
``conv2d`` and ``maxpool2d``, so its bits equal the three-op composition.

Each conv pass gives its chunks to lanes, one lane per thread that
numpy's OpenBLAS reported at first use (one lane when no OpenBLAS thread
control is found): the calling thread and the threads of a pool.  A pass
pins OpenBLAS to one thread (:func:`single_blas_thread`), so every conv
GEMM is single-threaded; each chunk writes only its own rows of the
output and the input gradient, and the kernel gradient adds the chunks'
terms in chunk order.  So the bits depend on neither the lane count nor
the BLAS thread count.  Training and inference of a ConvNet hold the pin
for the whole pass (``train._blas_pin``): after a multi-threaded GEMM,
OpenBLAS's idle threads spin for a while and would take the cores from
the lanes.  The outermost pin starts the pool's threads and ends them,
so no lane thread is alive outside a pin, and a process that forks
outside one (``dcd ablate --jobs``) forks with no thread of this module.

The ops take only the shapes the models send them.  Elementwise ops take
equal shapes, with no broadcasting.  Convolutions run a 3x3 kernel at
stride 1 over a one-pixel zero border, ``maxpool2d`` and ``conv_block``
pool 2x2 windows at stride 2, and ``avgpool2d`` is the global average
pool.  All math is 64-bit.
"""

from __future__ import annotations

import contextlib
import itertools
import os
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
    if a.shape != b.shape:
        raise ShapeMismatchError(f"{op}: shapes {a.shape} and {b.shape} differ")


# -- elementwise suite --------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("add", a, b)

    def bwd(g):
        return g, g

    return _emit("add", (a, b), a.data + b.data, bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("sub", a, b)

    def bwd(g):
        return g, -g

    return _emit("sub", (a, b), a.data - b.data, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("mul", a, b)

    def bwd(g, ad=a.data, bd=b.data):
        return g * bd, g * ad

    return _emit("mul", (a, b), a.data * b.data, bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("div", a, b)
    if np.any(b.data == 0.0):
        raise DomainError("div: denominator contains zero")

    def bwd(g, ad=a.data, bd=b.data):
        return g / bd, -g * ad / (bd * bd)

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

def _pool_regions(op: str, h: int, w: int) -> tuple[int, int, list[tuple]]:
    """The rows and columns of 2x2 windows at stride 2 over an H x W image,
    an odd last row or column dropped, and the index of each window
    position's strided slice of an [N,C,H,W] input, in scan order."""
    if h < 2 or w < 2:
        raise ShapeMismatchError(f"{op}: the 2x2 pooling window exceeds the {h}x{w} input")
    ho, wo = h // 2, w // 2
    return ho, wo, [(slice(None), slice(None), slice(di, di + 2 * ho, 2),
                     slice(dj, dj + 2 * wo, 2)) for di in range(2) for dj in range(2)]


# conv2d and conv_block run over chunks of samples whose patch matrix holds
# at most this many elements (2 MB of float64), or over single samples when
# one holds more; the chunks fix the kernel gradient's summation order.
_CONV_CHUNK_ELEMS = 2 ** 18

# numpy's OpenBLAS thread control, looked up at first use: its (get, set)
# thread-count functions, or () when none is found.  _LANES, the lanes a
# conv pass runs its chunks on, is the thread count it reported then.
_BLAS = None
_LANES = 1
_lane_lock = threading.Lock()
_lane_pool = None  # the threads of lanes 1 and up, alive only inside a pin
_pins = 0
_unpinned = 1  # the thread count the outermost pin restores


def _blas() -> tuple:
    global _BLAS, _LANES
    with _lane_lock:
        if _BLAS is None:
            import ctypes
            import glob
            libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                          "numpy.libs", "*openblas*"))
            _BLAS = ()
            for path in [*libs, None]:  # None: the libraries loaded globally
                try:
                    lib = ctypes.CDLL(path)
                except (OSError, TypeError):
                    continue
                for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                                       ("openblas", "")):
                    get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                    if get is not None and put is not None:
                        get.argtypes, get.restype = [], ctypes.c_int
                        put.argtypes, put.restype = [ctypes.c_int], None
                        _BLAS, _LANES = (get, put), max(1, get())
                        return _BLAS
    return _BLAS


def blas_threads() -> int | None:
    """The thread count numpy's OpenBLAS reports now; None without its thread control."""
    control = _blas()
    return control[0]() if control else None


def set_blas_threads(count: int) -> None:
    """Give numpy's OpenBLAS ``count`` threads and conv passes as many lanes,
    outside any :func:`single_blas_thread` pin; without OpenBLAS thread
    control it does nothing."""
    global _LANES
    control = _blas()
    if control:
        control[1](count)
        _LANES = count


@contextlib.contextmanager
def single_blas_thread():
    """Pin OpenBLAS to one thread inside the block, restoring the count it had
    when the outermost pin began on exit, also on error.  Pins nest and may
    overlap across threads; without OpenBLAS thread control nothing is pinned.

    The outermost pin also holds the lane pool: on more than one lane it
    starts the pool's ``_LANES - 1`` threads and on exit ends them, after
    any lane still running.  So no lane thread outlives a pin, and a
    process forked outside one forks with no thread of this module.
    """
    global _pins, _unpinned, _lane_pool
    control = _blas()
    with _lane_lock:
        if not _pins:
            if control:
                _unpinned = control[0]()
                control[1](1)
            if _LANES > 1:
                import concurrent.futures
                _lane_pool = concurrent.futures.ThreadPoolExecutor(
                    _LANES - 1, thread_name_prefix="dcd-lane")
        _pins += 1
    try:
        yield
    finally:
        pool = None
        with _lane_lock:
            _pins -= 1
            if not _pins:
                if control:
                    control[1](_unpinned)
                pool, _lane_pool = _lane_pool, None
        if pool is not None:
            pool.shutdown(wait=True)


def _in_lanes(task, count: int, lanes: int, in_order=None) -> None:
    """Run ``task(i, lane)`` for each i in ``range(count)`` on ``lanes`` lanes,
    a free lane taking the next i, and, if given, ``in_order(i, result)`` in
    order of i, on the lane that ran task i, right after it.

    Lane 0 is the calling thread, the others the threads of the pool that
    the :func:`single_blas_thread` pin around the call holds, each lane in
    a copy of the caller's context (numpy's ``errstate`` is a context
    variable).  Returns once every lane has stopped; the first error a lane
    raises stops the others and is raised here.
    """
    cond = threading.Condition()
    taken = ordered = 0  # items handed to a lane; items past in_order
    error = None

    def lane_loop(lane):
        nonlocal taken, ordered, error
        try:
            while True:
                with cond:
                    if taken == count or error is not None:
                        return
                    i, taken = taken, taken + 1
                result = task(i, lane)
                if in_order is not None:
                    with cond:
                        cond.wait_for(lambda: ordered == i or error is not None)
                        if error is not None:
                            return
                        in_order(i, result)
                        ordered += 1
                        cond.notify_all()
        except BaseException as exc:  # raised again below, on the calling thread
            with cond:
                error = error or exc
                cond.notify_all()

    futures = []
    if lanes > 1:
        import contextvars
        futures = [_lane_pool.submit(contextvars.copy_context().run, lane_loop, lane)
                   for lane in range(1, lanes)]
    lane_loop(0)
    for future in futures:
        future.result()
    if error is not None:
        raise error


class _ConvChunks:
    """One cross-correlation of an [N,C,H,W] input with an [F,C,3,3] kernel
    bank at stride 1 over a one-pixel zero border, so an [N,F,H,W] output,
    worked one chunk of samples at a time: the geometry, patches and
    backward that ``conv2d`` and ``conv_block`` share.  Any other kernel
    size, and an input with no channels or no pixels, raises
    :class:`ShapeMismatchError`.

    Each pass gives its chunks to ``lanes`` lanes (:func:`_in_lanes`) under
    :func:`single_blas_thread`.  The calling thread allocates every lane's
    buffers before the lanes start, so the pool's threads allocate no large
    arrays; the buffers are dropped when the pass ends.  A chunk runs one
    single-threaded GEMM for each product and writes only its own rows of
    the output and of the input gradient; the kernel gradient adds the
    chunks' terms in chunk order.  So the bits depend on the chunk spans,
    which ``_CONV_CHUNK_ELEMS`` and the shapes fix, and on neither the
    lanes nor the BLAS thread count.

    Each lane holds one zero-bordered buffer for its chunk's padded input.
    The patches copy each tap's window of it; the input gradient
    adds each tap's patch-gradient rows into that window, in tap order,
    and copies out the interior.
    """

    def __init__(self, op: str, x: Tensor, k: Tensor):
        if x.data.ndim != 4 or k.data.ndim != 4:
            raise ShapeMismatchError(f"{op} expects 4-D input and kernel, got {x.shape}, {k.shape}")
        n, c, h, w = x.shape
        f, ck, kh, kw = k.shape
        if ck != c:
            raise ShapeMismatchError(f"{op}: input channels {c} != kernel channels {ck}")
        if (kh, kw) != (3, 3):
            raise ShapeMismatchError(f"{op}: the kernel must be 3x3, got {kh}x{kw}")
        if 0 in (c, h, w):
            raise ShapeMismatchError(f"{op}: input {x.shape} has an empty channel or spatial axis")
        self.ho, self.wo = h, w
        self.x = x.data
        self.kshape = k.shape
        self.k2 = k.data.reshape(f, c * 9)
        step = max(1, _CONV_CHUNK_ELEMS // (c * 9 * h * w))
        self.spans = [slice(s, min(s + step, n)) for s in range(0, n, step)]
        _blas()
        self.lanes = min(_LANES, len(self.spans))

    def _lane_buffers(self, rows: int) -> list[np.ndarray]:
        """One uninitialized buffer per lane, with room for a matrix of
        ``rows`` rows and a whole chunk's ``m*ho*wo`` columns."""
        return [np.empty(rows * self.spans[0].stop * self.ho * self.wo)
                for _ in range(self.lanes)]

    def _padded_buffers(self) -> list[np.ndarray]:
        """One zeroed [C, m, H+2, W+2] buffer per lane, room for a whole
        chunk; its border is zero whenever a chunk starts."""
        _, c, h, w = self.x.shape
        return [np.zeros((c, self.spans[0].stop, h + 2, w + 2)) for _ in range(self.lanes)]

    def _taps(self, padded: np.ndarray) -> list[np.ndarray]:
        """Each tap's [C, m, H, W] window of a chunk's padded input, in
        (kernel row, kernel column) scan order."""
        return [padded[:, :, di:di + self.ho, dj:dj + self.wo]
                for di in range(3) for dj in range(3)]

    @staticmethod
    def _interior(padded: np.ndarray) -> np.ndarray:
        """The [C, m, H, W] images inside a padded buffer's border."""
        return padded[:, :, 1:-1, 1:-1]

    def _patches(self, span: slice, buf: np.ndarray, padded: np.ndarray) -> np.ndarray:
        """The chunk's contiguous [C*9, m*ho*wo] patch matrix, written into
        ``buf``: rows in (channel, kernel row, kernel column) order, columns
        sample-major.  The chunk is copied into the interior of ``padded``,
        whose zero border is its padding, and each tap copies its window."""
        m = span.stop - span.start
        cols = buf[:self.k2.shape[1] * m * self.ho * self.wo].reshape(
            self.kshape[1], -1, m, self.ho, self.wo)
        padded = padded[:, :m]
        np.copyto(self._interior(padded), self.x[span].transpose(1, 0, 2, 3))
        for t, window in enumerate(self._taps(padded)):
            cols[:, t] = window
        return cols.reshape(self.k2.shape[1], -1)

    def forward(self, take) -> None:
        """Hand each chunk's [m, F, ho, wo] output to ``take(span, out)`` in
        the chunk's lane; the lane's next chunk overwrites ``out``."""
        f = len(self.k2)
        bufs = list(zip(self._lane_buffers(self.k2.shape[1]), self._lane_buffers(f),
                        self._padded_buffers()))

        def run(i, lane):
            span = self.spans[i]
            patch_buf, out_buf, padded = bufs[lane]
            patches = self._patches(span, patch_buf, padded)
            out = np.matmul(self.k2, patches, out=out_buf[:f * patches.shape[1]].reshape(f, -1))
            take(span, out.reshape(f, -1, self.ho, self.wo).transpose(1, 0, 2, 3))

        with single_blas_thread():
            _in_lanes(run, len(self.spans), self.lanes)

    def backward(self, grad_into, need_x: bool, need_k: bool):
        """``(dx, dk)``, None for an operand that is not differentiated.
        ``grad_into(span, g2, lane)`` writes a chunk's output gradient, in
        the lane, into ``g2``, a [F, m*ho*wo] matrix (GEMM layout)."""
        f, ckk = self.k2.shape
        dk = np.zeros(self.k2.shape, dtype=np.float64) if need_k else None
        dx = np.empty(self.x.shape, dtype=np.float64) if need_x else None
        # per lane: the chunk's output gradient; its patch matrix, which its
        # input gradient's patch columns then overwrite; its kernel-gradient
        # term; its padded input, which its padded input gradient then overwrites
        bufs = list(zip(self._lane_buffers(f), self._lane_buffers(ckk),
                        [np.empty(self.k2.shape) for _ in range(self.lanes)],
                        self._padded_buffers()))

        def run(i, lane):
            span = self.spans[i]
            g_buf, cols_buf, term, padded = bufs[lane]
            m = span.stop - span.start
            g2 = g_buf[:f * m * self.ho * self.wo].reshape(f, -1)
            grad_into(span, g2, lane)
            if need_k:
                np.matmul(g2, self._patches(span, cols_buf, padded).T, out=term)
            if need_x:
                dcols = np.matmul(self.k2.T, g2, out=cols_buf[:ckk * g2.shape[1]].reshape(ckk, -1))
                dcols = dcols.reshape(self.kshape[1], -1, m, self.ho, self.wo)
                dpadded = padded[:, :m]
                dpadded.fill(0.0)  # the patches left the chunk's input here
                for t, window in enumerate(self._taps(dpadded)):
                    window += dcols[:, t]
                np.copyto(dx[span].transpose(1, 0, 2, 3), self._interior(dpadded))
                dpadded.fill(0.0)  # the next chunk's padding
            return term

        def add(_i, term):
            np.add(dk, term, out=dk)

        with single_blas_thread():
            _in_lanes(run, len(self.spans), self.lanes, add if need_k else None)
        return dx, (dk.reshape(self.kshape) if need_k else None)


def conv2d(x: Tensor, k: Tensor) -> Tensor:
    """Cross-correlation of [N,C,H,W] input with an [F,C,3,3] kernel bank
    at stride 1 over a one-pixel zero border: an [N,F,H,W] output.

    Works on chunks of samples (see :class:`_ConvChunks`), so no temporary
    spans the whole batch.  Saves only the input for backward, which
    rebuilds each chunk's patches.
    """
    conv = _ConvChunks("conv2d", x, k)
    f, ho, wo = k.shape[0], conv.ho, conv.wo
    out = np.empty((x.shape[0], f, ho, wo), dtype=np.float64)
    conv.forward(lambda span, chunk: np.copyto(out[span], chunk))
    need_x, need_k = _differentiates(x), _differentiates(k)

    def bwd(g):
        def grad_into(span, g2, _lane):
            np.copyto(g2.reshape(f, -1, ho, wo), g[span].transpose(1, 0, 2, 3))
        return conv.backward(grad_into, need_x, need_k)

    return _emit("conv2d", (x, k), out, bwd)


def _max_windows(x: np.ndarray, regions: list[tuple], best: np.ndarray,
                 arg: np.ndarray | None, floor: float = -np.inf) -> None:
    """Write each window's maximum of ``x`` and ``floor`` into ``best`` and,
    unless ``arg`` is None, a code into ``arg``: 1 + the first position in
    scan order holding a maximum above ``floor``, or 0 where no position
    beats it.

    NaN never wins.  A zero maximum is always +0.0.
    """
    best.fill(floor)
    if arg is not None:
        arg.fill(0)
        won = np.empty_like(arg)
    for code, region in enumerate(regions, 1):
        patch = x[region]
        if arg is not None:
            # the codes rise in scan order, so arg keeps the latest strict
            # winner: the first position holding the maximum
            np.greater(patch, best, out=won)
            won *= code
            np.maximum(arg, won, out=arg)
        np.fmax(patch, best, out=best)  # fmax returns best where the patch holds NaN
    best += 0.0  # as in relu: fmax's pick between -0.0 and +0.0 is not fixed


def _max_windows_backward(g: np.ndarray, arg: np.ndarray, regions: list[tuple],
                          dx: np.ndarray) -> None:
    """Add each window's gradient ``g`` at the position its code ``arg``
    names, the first position for code 0, into ``dx``, a zeroed array of the
    pooled input's shape."""
    arg = np.maximum(arg, 1)
    for code, region in enumerate(regions, 1):
        dx[region] += g * (arg == code)


def maxpool2d(x: Tensor) -> Tensor:
    """Max pooling over 2x2 windows at stride 2 (:func:`_pool_regions`) that
    ignores NaN; ties resolve to the first window position in scan order.

    On a tape that differentiates ``x`` it saves only each window's winner
    code (:func:`_max_windows`), one byte per output, and backward sends
    each window's gradient to the position the code names.  A window with
    nothing above -inf (all -inf or NaN) outputs -inf and sends its
    gradient to its first position.  A zero maximum is always +0.0.
    Otherwise (evaluation, a frozen teacher) no codes are kept.
    """
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"maxpool2d expects 4-D input, got shape {x.shape}")
    n, c, h, w = x.shape
    ho, wo, regions = _pool_regions("maxpool2d", h, w)
    best = np.empty((n, c, ho, wo), dtype=np.float64)
    arg = np.empty((n, c, ho, wo), dtype=np.uint8) if _differentiates(x) else None
    _max_windows(x.data, regions, best, arg)

    def bwd(g, shape=x.shape, arg=arg, regions=regions):
        buf = np.zeros(shape, dtype=np.float64)
        _max_windows_backward(g, arg, regions, buf)
        return (buf,)

    return _emit("maxpool2d", (x,), best, bwd)


def conv_block(x: Tensor, k: Tensor) -> Tensor:
    """One ConvNet block as one op: ``relu(maxpool2d(conv2d(x, k)))``,
    with the same bits for the output and both gradients.

    Works on the chunks of samples ``conv2d`` uses: each chunk's conv
    output is pooled while it is fresh and only the pooled rows are kept,
    so the full-size conv output and its gradient exist one chunk at a
    time.  The pool starts every window at zero, so it is the ReLU, and
    each window's winner code is 1 + its winning position, or 0 where the
    ReLU zeroed the window, so that the code alone masks the gradient.
    Backward writes each chunk's gradient at the winning positions
    straight into the conv backward's GEMM layout.  Saves the input and
    the winner codes (these only on a tape that differentiates ``x`` or
    ``k``).
    """
    conv = _ConvChunks("conv_block", x, k)
    n, f = x.shape[0], k.shape[0]
    ho, wo = conv.ho, conv.wo
    po, qo, regions = _pool_regions("conv_block", ho, wo)
    need_x, need_k = _differentiates(x), _differentiates(k)
    y = np.empty((n, f, po, qo), dtype=np.float64)
    arg = np.empty(y.shape, dtype=np.uint8) if need_x or need_k else None

    conv.forward(lambda span, conv_out: _max_windows(
        conv_out, regions, y[span], None if arg is None else arg[span], floor=0.0))

    def bwd(g):
        # each lane's winner mask, [F, m, po, qo] like the GEMM layout
        masks = [np.empty((f, conv.spans[0].stop, po, qo), dtype=bool)
                 for _ in range(conv.lanes)]

        def grad_into(span, g2, lane):
            m = span.stop - span.start
            mask = masks[lane][:, :m]
            out = g2.reshape(f, m, ho, wo)
            if (2 * po, 2 * qo) != (ho, wo):  # the windows leave a last row or column
                out.fill(0.0)
            gs, args = g[span].transpose(1, 0, 2, 3), arg[span].transpose(1, 0, 2, 3)
            # the windows do not overlap: each position is written once
            for code, region in enumerate(regions, 1):
                np.equal(args, code, out=mask)
                np.multiply(gs, mask, out=out[region])
        return conv.backward(grad_into, need_x, need_k)

    return _emit("conv_block", (x, k), y, bwd)


def avgpool2d(x: Tensor) -> Tensor:
    """The global average pool: the mean of each [H, W] image of an
    [N,C,H,W] input, as an [N, C] matrix; the positions are added in scan
    order."""
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"avgpool2d expects 4-D input, got shape {x.shape}")
    n, c, h, w = x.shape
    acc = np.zeros((n, c), dtype=np.float64)
    for plane in x.data.reshape(n, c, h * w).transpose(2, 0, 1):
        acc += plane
    inv = 1.0 / (h * w)

    def bwd(g, shape=x.shape):
        buf = np.zeros(shape, dtype=np.float64)
        buf += (g * inv)[:, :, None, None]
        return (buf,)

    return _emit("avgpool2d", (x,), acc * inv, bwd)

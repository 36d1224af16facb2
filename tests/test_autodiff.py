"""Op-level forward values, backward rules and tape invariants."""

import contextlib
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from conftest import central_difference, rel_err

import dcd
from dcd import autodiff as ad
from dcd import cli
from dcd.autodiff import Parameter, Tape, Tensor
from dcd.data import BatchPlan, Dataset
from dcd.errors import (DegenerateInputError, DomainError, IndexOutOfRangeError,
                        ShapeMismatchError)
from dcd.losses import DistillConfig, cross_entropy_loss
from dcd.models import ConvNet, ModelSpec, convnet_pair, init_weights
from dcd.train import (OptimSpec, distill, evaluate, restore_model, stats_from_metadata,
                       train_teacher)

STEP = 1e-5


def grad_of(build, arrays, wrt):
    """Analytic gradients of the scalar built by `build(tensors)` wrt `wrt`."""
    with Tape() as tape:
        tensors = [Tensor(a) for a in arrays]
        root = build(*tensors)
        tape.backward(root)
    return [tape.grads.get(tensors[i].id) for i in wrt]


def check_gradients(build, arrays, wrt=None, tol=1e-6):
    wrt = list(range(len(arrays))) if wrt is None else wrt
    analytic = grad_of(build, arrays, wrt)
    fd = central_difference(lambda: build(*[Tensor(a) for a in arrays]).item(),
                            [arrays[i] for i in wrt], step=STEP)
    for a, f in zip(analytic, fd):
        assert a is not None
        assert rel_err(a, f) < tol


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    out = ad.matmul(eye, Tensor(np.eye(2)))
    assert np.array_equal(out.data, np.eye(2))


def test_matmul_hand_case():
    out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    assert np.array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_error():
    with pytest.raises(ShapeMismatchError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_matmul_gradient(rng):
    a = rng.uniform(-2, 2, (4, 3))
    b = rng.uniform(-2, 2, (3, 5))
    check_gradients(lambda x, y: ad.tsum(ad.mul(ad.matmul(x, y), y2_const)), [a, b])


# weight the matmul output so its gradient is non-uniform
y2_const = Tensor(np.linspace(0.5, 2.0, 20).reshape(4, 5))


def test_l2_normalize_rows_345():
    out = ad.l2_normalize_rows(Tensor([[3.0, 4.0]]))
    assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-15)


def test_l2_normalize_rows_idempotent(rng):
    z = rng.uniform(-2, 2, (4, 6))
    once = ad.l2_normalize_rows(Tensor(z)).data
    twice = ad.l2_normalize_rows(Tensor(once)).data
    assert np.allclose(once, twice, atol=1e-15)


def test_l2_normalize_zero_row_rejected():
    with pytest.raises(DegenerateInputError, match="^l2_normalize_rows: a row has"):
        ad.l2_normalize_rows(Tensor(np.zeros((2, 3))))
    with pytest.raises(DegenerateInputError, match="^a row has"):  # no op named: callers add it
        ad.unit_rows(np.zeros((2, 3)), clamp=False)


def test_unit_rows_clamp_sends_zero_row_to_zero(rng):
    x = rng.uniform(-2, 2, (3, 4))
    x[1] = 0.0
    w = rng.uniform(0.5, 1.5, (3, 4))
    y, norms, clamped = ad.unit_rows(x, clamp=True)
    grad = ad.unit_rows_backward(w, y, norms, clamped)
    live = [0, 2]
    # rows at or above EPS: the values and gradients of the unclamped op, bitwise
    with Tape() as ref_tape:
        ref_t = Tensor(x[live])
        ref = ad.l2_normalize_rows(ref_t)
        ref_tape.backward(ad.tsum(ad.mul(ref, Tensor(w[live]))))
    assert np.array_equal(y[live], ref.data)
    assert np.array_equal(grad[live], ref_tape.grads[ref_t.id])
    # the dead row is x / EPS: zero out, gradient w / EPS
    assert not y[1].any()
    assert np.array_equal(grad[1], w[1] / ad.EPS)


def test_l2_normalize_gradient(rng):
    x = rng.uniform(-2, 2, (5, 8))
    x[np.abs(np.linalg.norm(x, axis=1)) < 1e-2] += 1.0
    w = Tensor(rng.uniform(0.5, 1.5, (5, 8)))
    check_gradients(lambda t: ad.tsum(ad.mul(ad.l2_normalize_rows(t), w)), [x])


def test_log_softmax_symmetry():
    out = ad.log_softmax_rows(Tensor([[0.0, 0.0]]))
    assert np.allclose(out.data, [[-np.log(2), -np.log(2)]], atol=1e-15)


def test_log_softmax_shift_invariance(rng):
    x = rng.uniform(-3, 3, (3, 7))
    shifted = x + 17.5
    a = ad.log_softmax_rows(Tensor(x)).data
    b = ad.log_softmax_rows(Tensor(shifted)).data
    assert np.allclose(a, b, atol=1e-12)


def test_log_softmax_vs_naive(rng):
    x = rng.uniform(-3, 3, (3, 7))
    naive = np.log(np.exp(x) / np.exp(x).sum(axis=1, keepdims=True))
    assert np.max(np.abs(ad.log_softmax_rows(Tensor(x)).data - naive)) < 1e-12


def test_log_softmax_rows_sum_to_one(rng):
    x = rng.uniform(-5, 5, (6, 9))
    p = np.exp(ad.log_softmax_rows(Tensor(x)).data)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12


def test_log_softmax_gradient(rng):
    x = rng.uniform(-2, 2, (3, 5))
    w = Tensor(rng.uniform(0.5, 1.5, (3, 5)))
    check_gradients(lambda t: ad.tsum(ad.mul(ad.log_softmax_rows(t), w)), [x])


def test_log_softmax_rejects_nonfinite():
    with pytest.raises(DomainError):
        ad.log_softmax_rows(Tensor([[np.inf, 0.0]]))


def test_elementwise_forward_values():
    assert ad.exp(Tensor(0.0)).item() == 1.0
    assert ad.relu(Tensor(-2.0)).item() == 0.0
    assert ad.relu(Tensor(3.0)).item() == 3.0
    assert ad.add(Tensor(2.0), Tensor(3.0)).item() == 5.0
    assert ad.sub(Tensor(2.0), Tensor(3.0)).item() == -1.0
    assert ad.mul(Tensor(2.0), Tensor(3.0)).item() == 6.0
    assert ad.div(Tensor(3.0), Tensor(2.0)).item() == 1.5
    assert ad.scale(Tensor(3.0), -2.0).item() == -6.0


def test_elementwise_domain_errors():
    with pytest.raises(DomainError):
        ad.log(Tensor([-1.0]))
    with pytest.raises(DomainError):
        ad.div(Tensor([1.0]), Tensor([0.0]))
    with pytest.raises(ShapeMismatchError):
        ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
    with pytest.raises(ShapeMismatchError):  # no broadcasting, not even of a scalar
        ad.mul(Tensor(np.ones(3)), Tensor(2.0))


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "exp", "log", "relu", "scale"])
def test_elementwise_gradients(op, rng):
    a = rng.uniform(-2, 2, (3, 4))
    b = rng.uniform(-2, 2, (3, 4))
    if op == "div":
        b = np.sign(b) * np.maximum(np.abs(b), 0.2)
    if op == "log":
        a = np.abs(a) + 0.1
    if op == "relu":
        a[np.abs(a) < 1e-2] += 0.5  # stay away from the kink
    w = Tensor(rng.uniform(0.5, 1.5, (3, 4)))
    two = {"add": lambda x, y: ad.add(x, y), "sub": lambda x, y: ad.sub(x, y),
           "mul": lambda x, y: ad.mul(x, y), "div": lambda x, y: ad.div(x, y)}
    one = {"exp": ad.exp, "log": ad.log, "relu": ad.relu,
           "scale": lambda x: ad.scale(x, 1.7)}
    if op in two:
        check_gradients(lambda x, y: ad.tsum(ad.mul(two[op](x, y), w)), [a, b])
    else:
        check_gradients(lambda x: ad.tsum(ad.mul(one[op](x), w)), [a])


def test_reductions_forward(rng):
    assert ad.tsum(Tensor([1.0, 2.0, 3.0])).item() == 6.0
    v = rng.uniform(-1, 1, 5)
    stacked = np.tile(v, (7, 1))
    assert np.allclose(ad.tmean(Tensor(stacked)).data, v.mean(), atol=1e-15)


def test_mean_gradient(rng):
    a = rng.uniform(-2, 2, (4, 3))
    w = Tensor(rng.uniform(0.5, 1.5, ()))
    check_gradients(lambda x: ad.mul(ad.tmean(x), w), [a])


def test_gather_rows_forward_and_bounds(rng):
    x = rng.uniform(-1, 1, (5, 3))
    idx = [4, 0, 0, 2]
    assert np.array_equal(ad.gather_rows(Tensor(x), idx).data, x[idx])
    with pytest.raises(IndexOutOfRangeError):
        ad.gather_rows(Tensor(x), [5])


def test_gather_rows_backward_scatters(rng):
    x = rng.uniform(-1, 1, (5, 3))
    idx = np.array([4, 0, 0, 2])
    w = Tensor(rng.uniform(0.5, 1.5, (4, 3)))
    check_gradients(lambda t: ad.tsum(ad.mul(ad.gather_rows(t, idx), w)), [x])


def test_transpose_gradient(rng):
    x = rng.uniform(-1, 1, (3, 5))
    w = Tensor(rng.uniform(0.5, 1.5, (5, 3)))
    check_gradients(lambda t: ad.tsum(ad.mul(ad.transpose(t), w)), [x])


def test_add_rowvec_gradient(rng):
    x = rng.uniform(-1, 1, (4, 3))
    v = rng.uniform(-1, 1, 3)
    w = Tensor(rng.uniform(0.5, 1.5, (4, 3)))
    check_gradients(lambda a, b: ad.tsum(ad.mul(ad.add_rowvec(a, b), w)), [x, v])


def test_conv2d_box_kernel_interior():
    x = np.full((1, 1, 6, 6), 2.5)
    k = np.ones((1, 1, 3, 3))
    out = ad.conv2d(Tensor(x), Tensor(k))
    assert np.allclose(out.data[:, :, 1:-1, 1:-1], 9 * 2.5, atol=1e-12)
    assert np.allclose(out.data[:, :, 0, 0], 4 * 2.5, atol=1e-12)  # a corner sees 4 pixels


def conv_loop_oracle(x, k, stride, pad):
    n, c, h, w = x.shape
    f, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((n, f, ho, wo))
    for ni in range(n):
        for fi in range(f):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for di in range(kh):
                            for dj in range(kw):
                                acc += xp[ni, ci, i * stride + di, j * stride + dj] \
                                    * k[fi, ci, di, dj]
                    out[ni, fi, i, j] = acc
    return out


def test_conv2d_vs_loop_oracle(rng):
    x = rng.uniform(-1, 1, (2, 3, 5, 6))
    k = rng.uniform(-1, 1, (4, 3, 3, 3))
    out = ad.conv2d(Tensor(x), Tensor(k))
    assert np.max(np.abs(out.data - conv_loop_oracle(x, k, 1, 1))) < 1e-10


def test_conv2d_gradient(rng):
    x = rng.uniform(-1, 1, (2, 2, 4, 5))
    k = rng.uniform(-1, 1, (3, 2, 3, 3))
    w = Tensor(rng.uniform(0.5, 1.5, (2, 3, 4, 5)))
    check_gradients(
        lambda a, b: ad.tsum(ad.mul(ad.conv2d(a, b), w)), [x, k], tol=1e-5)


def test_conv2d_geometry_error():
    for op in (ad.conv2d, ad.conv_block):  # the ConvNet's 3x3 kernel only
        for kshape in ((1, 1, 1, 1), (1, 1, 2, 3), (1, 1, 5, 5)):
            with pytest.raises(ShapeMismatchError, match="kernel must be 3x3"):
                op(Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones(kshape)))
    with pytest.raises(ShapeMismatchError):
        ad.conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 3, 3, 3))))


@pytest.mark.parametrize("op", [ad.conv2d, ad.conv_block])
@pytest.mark.parametrize("shape", [(2, 0, 8, 8), (2, 3, 0, 8), (2, 3, 8, 0)])
def test_conv_of_an_empty_channel_or_spatial_axis_names_op_and_shape(op, shape):
    with pytest.raises(ShapeMismatchError, match=rf"{op.__name__}: input \({shape[0]}, "
                                                 rf"{shape[1]}, {shape[2]}, {shape[3]}\)"):
        op(Tensor(np.ones(shape)), Tensor(np.ones((4, shape[1], 3, 3))))


@pytest.mark.parametrize("op", [ad.conv2d, ad.conv_block])
def test_conv_of_no_samples_gives_empty_output_and_gradients(op):
    x, k = Tensor(np.ones((0, 3, 8, 8))), Tensor(np.ones((4, 3, 3, 3)))
    with Tape() as tape:
        y = op(x, k)
        tape.backward(ad.tsum(y))
    assert y.shape == ((0, 4, 8, 8) if op is ad.conv2d else (0, 4, 4, 4))
    assert tape.grads[x.id].shape == (0, 3, 8, 8)
    assert np.array_equal(tape.grads[k.id], np.zeros((4, 3, 3, 3)))


def test_maxpool_forward_and_gradient(rng):
    x = rng.uniform(-1, 1, (2, 2, 4, 6))
    x += np.arange(x.size).reshape(x.shape) * 1e-3  # break ties
    out = ad.maxpool2d(Tensor(x))
    expect = x.reshape(2, 2, 2, 2, 3, 2).max(axis=(3, 5))
    assert np.allclose(out.data, expect, atol=1e-15)
    w = Tensor(rng.uniform(0.5, 1.5, out.shape))
    check_gradients(lambda t: ad.tsum(ad.mul(ad.maxpool2d(t), w)), [x], tol=1e-5)


def test_avgpool_forward_and_gradient(rng):
    x = rng.uniform(-1, 1, (2, 3, 4, 4))
    out = ad.avgpool2d(Tensor(x))
    assert np.allclose(out.data, x.mean(axis=(2, 3)), atol=1e-15)
    w = Tensor(rng.uniform(0.5, 1.5, out.shape))
    check_gradients(lambda t: ad.tsum(ad.mul(ad.avgpool2d(t), w)), [x])


def test_global_avgpool_matches_mean(rng):
    x = rng.uniform(-1, 1, (2, 3, 3, 5))
    out = ad.avgpool2d(Tensor(x))
    assert np.allclose(out.data, x.mean(axis=(2, 3)), atol=1e-15)
    acc = np.zeros((2, 3))
    for i in range(3):  # the positions in scan order: the features' bits depend on it
        for j in range(5):
            acc += x[:, :, i, j]
    assert_same_bits(out.data, acc * (1.0 / 15))


def test_backward_sum_gives_ones(rng):
    p = rng.uniform(-1, 1, (3, 4))
    with Tape() as tape:
        t = Tensor(p)
        tape.backward(ad.tsum(t))
    assert np.array_equal(tape.grads[t.id], np.ones((3, 4)))


def test_backward_quadratic(rng):
    p = rng.uniform(-1, 1, (3, 4))
    with Tape() as tape:
        t = Tensor(p)
        tape.backward(ad.tsum(ad.mul(t, t)))
    assert np.allclose(tape.grads[t.id], 2 * p, atol=1e-15)


def test_backward_requires_scalar_root(rng):
    with Tape() as tape:
        t = Tensor(rng.uniform(size=(2, 2)))
        y = ad.mul(t, t)
        with pytest.raises(ShapeMismatchError):
            tape.backward(y)


def test_backward_requires_root_on_tape():
    with Tape() as tape:
        leaf = Tensor(1.0)
        with pytest.raises(ShapeMismatchError):
            tape.backward(leaf)


def test_gradient_accumulation_two_paths():
    with Tape() as tape:
        x = Tensor([1.0, 2.0])
        tape.backward(ad.tsum(ad.add(x, x)))
    assert np.array_equal(tape.grads[x.id], [2.0, 2.0])


def test_backward_deterministic(rng):
    x = rng.uniform(-1, 1, (4, 4))
    with Tape() as tape:
        t = Tensor(x)
        y = ad.tsum(ad.mul(ad.log_softmax_rows(t), Tensor(rng.uniform(size=(4, 4)))))
        g1 = {k: v.copy() for k, v in tape.backward(y).items()}
        g2 = tape.backward(y)
    for k in g1:
        assert np.array_equal(g1[k], g2[k])


def test_ops_outside_tape_are_untracked():
    t = ad.mul(Tensor([2.0, 2.0]), Tensor([3.0, 3.0]))  # no active tape: nothing recorded
    assert np.array_equal(t.data, [6.0, 6.0])
    with Tape() as tape:
        u = Tensor([1.0, 2.0])
        root = ad.tsum(ad.mul(u, t))
        tape.backward(root)
    assert len(tape.nodes) == 2  # only the in-tape mul and sum
    assert np.array_equal(tape.grads[u.id], [6.0, 6.0])


def test_parameter_clamp():
    p = Parameter(np.asarray(12.0), name="tau", bounds=(0.0, 10.0))
    p.clamp()
    assert float(p.value.data) == 10.0


def test_tensor_validity_check():
    assert Tensor([1.0, 2.0]).is_finite()
    assert not Tensor([np.nan, 1.0]).is_finite()
    assert not Tensor([np.inf, 1.0]).is_finite()


# -- ConvNet kernels: exact tie, NaN and signed-zero rules ----------------------

def value_and_grads(fn, arrays, weight):
    """fn's output and the gradients of sum(weight * output) wrt each input."""
    with Tape() as tape, np.errstate(invalid="ignore"):  # the sum may be inf - inf
        tensors = [Tensor(a) for a in arrays]
        out = fn(*tensors)
        tape.backward(ad.tsum(ad.mul(out, Tensor(weight))))
    return out.data, [tape.grads[t.id] for t in tensors]


def test_maxpool_exact_ties_go_to_first_position(rng):
    x = np.zeros((2, 2, 4, 4))  # every window tied, as after a ReLU that zeroed it
    w = rng.uniform(0.5, 1.5, (2, 2, 2, 2))
    out, (gx,) = value_and_grads(ad.maxpool2d, [x], w)
    assert np.array_equal(out, np.zeros_like(w)) and not np.signbit(out).any()
    expect = np.zeros(x.shape)
    expect[:, :, ::2, ::2] = w
    assert np.array_equal(gx, expect)


def test_maxpool_ignores_nan_inside_a_window():
    x = np.array([[[[1.0, np.nan, np.nan, 3.0],
                    [0.5, -1.0, 2.0, np.nan]]]])
    out, (gx,) = value_and_grads(ad.maxpool2d, [x], np.array([[[[2.0, 5.0]]]]))
    assert np.array_equal(out, [[[[1.0, 3.0]]]])
    assert np.array_equal(gx, [[[[2.0, 0.0, 0.0, 5.0], [0.0, 0.0, 0.0, 0.0]]]])


def test_relu_nan_and_signed_zero():
    # runs of -0.0 at both ends: np.fmax's pick between -0.0 and +0.0
    # differs between numpy's vector and scalar loops
    zeros = np.full(9, -0.0)
    x = np.concatenate([zeros, [np.nan, 0.0, -1.0, 2.0], zeros])
    out, (gx,) = value_and_grads(ad.relu, [x], np.full(x.size, 3.0))
    assert np.array_equal(out, np.where(x == 2.0, 2.0, 0.0))
    assert not np.signbit(out).any()
    assert np.array_equal(gx, np.where(x == 2.0, 3.0, 0.0))


# The original loop kernels, kept as the reference the shipped ones must
# match bitwise: forward values, gradients and whole training runs.  The
# conv reference runs the shipped chunks' GEMMs, single-threaded, over a
# padded copy instead.  The shipped ones are checked at one lane and on two.

LANE_COUNTS = (1, 2)


@contextlib.contextmanager
def lanes_pinned(count):
    """Conv passes on ``count`` lanes with OpenBLAS pinned to one thread, as
    in a ConvNet fit; two lanes take the lane path on any machine."""
    ad._blas()
    saved = ad._LANES
    ad._LANES = count
    try:
        with ad.single_blas_thread():
            yield
    finally:
        ad._LANES = saved


def ref_relu(x):
    mask = x.data > 0.0

    def bwd(g, m=mask):
        return (g * m,)

    return ad._emit("relu", (x,), np.where(mask, x.data, 0.0), bwd)


def ref_conv2d(x, k, stride=1, pad=0):
    n, c, h, w = x.shape
    f, _, kh, kw = k.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    step = max(1, ad._CONV_CHUNK_ELEMS // (c * kh * kw * ho * wo))
    spans = [slice(s, min(s + step, n)) for s in range(0, n, step)]
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    k2 = k.data.reshape(f, c * kh * kw)

    def taps():  # each tap (di, dj) and the padded input it sees
        for di in range(kh):
            for dj in range(kw):
                yield (di, dj, slice(di, di + ho * stride, stride),
                       slice(dj, dj + wo * stride, stride))

    def patches(span):  # [C*kh*kw, m*ho*wo], columns sample-major
        xs = xp[span].transpose(1, 0, 2, 3)
        cols = np.empty((c, kh, kw, len(xs[0]), ho, wo), dtype=np.float64)
        for di, dj, ii, ij in taps():
            cols[:, di, dj] = xs[:, :, ii, ij]
        return cols.reshape(c * kh * kw, -1)

    with ad.single_blas_thread():  # the shipped GEMMs are single-threaded
        out = np.concatenate([(k2 @ patches(span)).reshape(f, -1, ho, wo).transpose(1, 0, 2, 3)
                              for span in spans])

    def bwd(g):
        dk = np.zeros(k2.shape, dtype=np.float64)
        buf = np.zeros(xp.shape, dtype=np.float64)
        for span in spans:
            g2 = g[span].transpose(1, 0, 2, 3).reshape(f, -1)
            with ad.single_blas_thread():
                dk += g2 @ patches(span).T
                dcols = (k2.T @ g2).reshape(c, kh, kw, -1, ho, wo)
            for di, dj, ii, ij in taps():
                buf[span, :, ii, ij] += dcols[:, di, dj].transpose(1, 0, 2, 3)
        dx = buf[:, :, pad:pad + h, pad:pad + w]
        return np.ascontiguousarray(dx), dk.reshape(f, c, kh, kw)

    return ad._emit("conv2d", (x, k), out, bwd)


def ref_maxpool2d(x):
    n, c, h, w = x.shape
    ho, wo = h // 2, w // 2
    best = np.full((n, c, ho, wo), -np.inf, dtype=np.float64)
    arg_i = np.zeros((n, c, ho, wo), dtype=np.int64)
    arg_j = np.zeros((n, c, ho, wo), dtype=np.int64)
    for di in range(2):
        for dj in range(2):
            patch = x.data[:, :, di:di + 2 * ho:2, dj:dj + 2 * wo:2]
            better = patch > best
            best = np.where(better, patch, best)
            arg_i = np.where(better, di, arg_i)
            arg_j = np.where(better, dj, arg_j)

    def bwd(g):
        buf = np.zeros((n, c, h, w), dtype=np.float64)
        for di in range(2):
            for dj in range(2):
                hit = (arg_i == di) & (arg_j == dj)
                buf[:, :, di:di + 2 * ho:2, dj:dj + 2 * wo:2] += g * hit
        return (buf,)

    return ad._emit("maxpool2d", (x,), best, bwd)


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def awkward_values(rng, shape):
    """Ties, signed zeros, NaN and -inf, with some all-NaN / all--inf windows."""
    x = rng.choice([-np.inf, np.nan, -0.0, 0.0, 1.0, 2.0], size=shape)
    x[0, 0, :3, :3] = np.nan
    x[0, 1, :3, :3] = -np.inf
    x[1, 0, :3, :3] = -np.inf
    x[1, 0, 0, 0] = np.nan
    return x


@pytest.mark.parametrize("shape", [(2, 3, 7, 7), (4, 16, 19, 20)])
def test_maxpool_matches_reference_bitwise(shape, rng):
    x = awkward_values(rng, shape)
    w = rng.uniform(-1.5, 1.5, shape[:2] + (shape[2] // 2, shape[3] // 2))
    out, grads = value_and_grads(ad.maxpool2d, [x], w)
    ref_out, ref_grads = value_and_grads(ref_maxpool2d, [x], w)
    # the loop kernel kept the first zero's sign; a zero maximum is now +0.0
    assert_same_bits(out, ref_out + 0.0)
    assert_same_bits(grads[0], ref_grads[0])


def test_relu_matches_reference_bitwise(rng):
    x = np.concatenate([awkward_values(rng, (2, 3, 4, 4)).ravel(), [np.inf],
                        rng.uniform(-1, 1, 50)])
    w = rng.uniform(-1.5, 1.5, x.shape)
    out, grads = value_and_grads(ad.relu, [x], w)
    ref_out, ref_grads = value_and_grads(ref_relu, [x], w)
    assert_same_bits(out, ref_out)
    assert_same_bits(grads[0], ref_grads[0])


@pytest.mark.parametrize("kshape", [(4, 3, 3, 3)])
def test_conv2d_matches_reference_bitwise(kshape, rng, monkeypatch):
    x = rng.uniform(-1, 1, (2, 3, 7, 6))
    k = rng.uniform(-1, 1, kshape)
    out = ad.conv2d(Tensor(x), Tensor(k))
    w = rng.uniform(-1.5, 1.5, out.shape)
    for lanes in LANE_COUNTS:
        if lanes > 1:  # a chunk per sample, so that each lane gets one
            monkeypatch.setattr(ad, "_CONV_CHUNK_ELEMS", math.prod(kshape[1:]) * out.size
                                // (out.shape[0] * out.shape[1]))
        ref, ref_grads = value_and_grads(lambda a, b: ref_conv2d(a, b, 1, 1), [x, k], w)
        with lanes_pinned(lanes):
            got, grads = value_and_grads(ad.conv2d, [x, k], w)
        assert_same_bits(got, ref)
        for g, r in zip(grads, ref_grads):
            assert_same_bits(g, r)


@pytest.mark.parametrize("hw", [12, 15, 20])
def test_conv2d_chunks_match_reference_bitwise(hw, rng):
    c, f, kh, kw = 16, 8, 3, 3
    step = max(1, ad._CONV_CHUNK_ELEMS // (c * kh * kw * hw * hw))
    n = 2 * step + step // 2  # two whole chunks and a short third one
    assert step > 1 and n % step
    x = rng.uniform(-1, 1, (n, c, hw, hw))
    k = rng.uniform(-1, 1, (f, c, kh, kw))
    w = rng.uniform(-1.5, 1.5, (n, f, hw, hw))
    ref, ref_grads = value_and_grads(lambda a, b: ref_conv2d(a, b, 1, 1), [x, k], w)
    for lanes in LANE_COUNTS:
        with lanes_pinned(lanes):
            got, grads = value_and_grads(ad.conv2d, [x, k], w)
        assert_same_bits(got, ref)
        for g, r in zip(grads, ref_grads):
            assert_same_bits(g, r)


def test_conv2d_peak_memory_below_one_batch_patch_matrix(rng):
    x = Tensor(rng.uniform(-1, 1, (64, 32, 16, 16)))
    k = Tensor(rng.uniform(-1, 1, (32, 32, 3, 3)))
    patch_matrix_bytes = 64 * 32 * 9 * 16 * 16 * 8  # 37.7 MB
    tracemalloc.start()
    try:
        with Tape() as tape:
            tape.backward(ad.tsum(ad.conv2d(x, k)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < patch_matrix_bytes, f"peak {peak / 1e6:.1f} MB"


def test_tape_with_leaves_records_and_differentiates_only_tracked_tensors(rng):
    w = Tensor(rng.uniform(-1, 1, (4, 2)))
    x = Tensor(rng.uniform(-1, 1, (3, 4)))
    c = Tensor(rng.uniform(-1, 1, (3, 2)))

    def build():
        xs = ad.scale(x, 2.0)  # constant inputs only
        return xs, ad.tsum(ad.mul(ad.matmul(xs, w), c))

    with Tape([w]) as tape:
        xs, root = build()
        tape.backward(root)
    assert not tape.tracks(xs)
    assert [node.op for node in tape.nodes] == ["matmul", "mul", "sum"]  # no scale
    assert set(tape.grads) == {w.id}  # mul's gradient for c is dropped
    with Tape() as full:
        xs, root = build()
        full.backward(root)
    assert {w.id, x.id, c.id} <= set(full.grads)
    assert_same_bits(tape.grads[w.id], full.grads[w.id])


@pytest.mark.parametrize("op,shapes", [
    (ad.matmul, [(5, 3), (3, 4)]),
    (lambda a, b: ad.conv2d(a, b), [(2, 3, 5, 5), (4, 3, 3, 3)])])
def test_matmul_and_conv2d_skip_the_gradient_of_an_untracked_operand(op, shapes, rng):
    inputs = [Tensor(rng.uniform(-1, 1, shape)) for shape in shapes]
    with Tape() as full:
        out = op(*inputs)
    g = rng.uniform(-1, 1, out.shape)
    full_grads = full.nodes[0].backward(g)
    for tracked in (0, 1):
        with Tape([inputs[tracked]]) as tape:
            op(*inputs)
        (node,) = tape.nodes
        grads = node.backward(g)
        assert grads[1 - tracked] is None
        assert_same_bits(grads[tracked], full_grads[tracked])


def test_convnet_backward_keeps_only_leaf_gradients(rng):
    model = init_weights(ModelSpec("convnet", (3, 4), 3, (2, 8, 8)), 5)
    params = model.parameters()
    with Tape() as tape:
        _, logits = model.forward(Tensor(rng.uniform(0, 1, (3, 2, 8, 8))))
        tape.backward(cross_entropy_loss(logits, rng.integers(0, 3, 3)))
    assert not set(tape.grads) & {node.out_id for node in tape.nodes}
    assert {p.value.id for p in params} <= set(tape.grads)


def tiny_convnet_run(train_rows=32, batch_size=16):
    rng = np.random.default_rng(5)
    images = rng.uniform(0, 1, (train_rows + 16, 3, 32, 32)).astype(np.float32)
    labels = np.arange(train_rows + 16, dtype=np.int64) % 10
    train = Dataset(images[:train_rows], labels[:train_rows], 10, "train")
    test = Dataset(images[train_rows:], labels[train_rows:], 10, "test")
    teacher_spec, student_spec = convnet_pair((3, 32, 32), 10)
    plan = BatchPlan(batch_size=batch_size, shuffle_seed=3, augment="flip+crop")
    optim = OptimSpec(lr=0.01, epochs=1, seed=3)
    t_ckpt, _ = train_teacher(teacher_spec, train, test, optim, plan)
    s_ckpt, _ = distill(t_ckpt, student_spec, train, test, DistillConfig(), optim, plan)
    return t_ckpt, s_ckpt


def ref_conv_block(x, k):
    return ref_relu(ref_maxpool2d(ref_conv2d(x, k, 1, 1)))


def assert_same_runs(shipped, reference):
    for new, ref in zip(shipped, reference):
        assert list(new.tensors) == list(ref.tensors)
        for name in new.tensors:
            assert_same_bits(new.tensors[name], ref.tensors[name])
        assert new.metadata == ref.metadata


def test_convnet_checkpoints_match_reference_kernels(monkeypatch):
    shipped = {}
    for lanes in LANE_COUNTS:
        with lanes_pinned(lanes):
            shipped[lanes] = tiny_convnet_run()
    for name, fn in (("relu", ref_relu), ("conv2d", ref_conv2d), ("maxpool2d", ref_maxpool2d),
                     ("conv_block", ref_conv_block)):
        monkeypatch.setattr(ad, name, fn)
    reference = tiny_convnet_run()
    for run in shipped.values():
        assert_same_runs(run, reference)


def narrow_convnet_run():
    """A teacher with a narrow second block: OpenBLAS splits its kernel-gradient
    GEMM (8 rows) across threads and rounds it differently."""
    rng = np.random.default_rng(3)
    images = rng.uniform(0, 1, (80, 3, 24, 24)).astype(np.float32)
    labels = np.arange(80, dtype=np.int64) % 10
    train = Dataset(images[:64], labels[:64], 10, "train")
    test = Dataset(images[64:], labels[64:], 10, "test")
    ckpt, _ = train_teacher(ModelSpec("convnet", (16, 8), 10, (3, 24, 24)), train, test,
                            OptimSpec(lr=0.01, epochs=1, seed=3), BatchPlan(64, 3))
    return (ckpt,)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_convnet_checkpoints_do_not_depend_on_blas_threads():
    """``ablate --jobs 2`` workers run with fewer BLAS threads, and a chunk's
    conv GEMMs are large enough for the BLAS to split across threads."""
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(dcd.__file__)))
    code = (f"import hashlib, sys; sys.path.insert(0, {tests!r}); "
            "from test_autodiff import narrow_convnet_run, tiny_convnet_run; "
            "[print(hashlib.sha256(b''.join(t.tobytes() for c in run for t in c.tensors.values()))"
            ".hexdigest()) for run in (tiny_convnet_run(128, 128), narrow_convnet_run())]")
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, **{var: threads for var in BLAS_THREAD_VARS},
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout)
    assert len(digests) == 1


def os_threads():
    """The threads of this process, as the kernel counts them."""
    with open("/proc/self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[17])


def lane_threads():
    return [t for t in threading.enumerate() if t.name.startswith("dcd-lane")]


def test_lane_threads_live_only_inside_a_pin(rng, monkeypatch):
    """Every conv pass runs its lanes inside a pin that holds the pool, and
    the pool's threads end with the pin: after a ConvNet fit, after an
    evaluation and after a pass one of whose lanes raised."""
    ad._blas()
    monkeypatch.setattr(ad, "_LANES", 2)
    monkeypatch.setattr(ad, "_CONV_CHUNK_ELEMS", 3 * 9 * 8 * 8)  # a chunk per sample
    passes, in_lanes = [], ad._in_lanes

    def spy(task, count, lanes, in_order=None):
        passes.append((lanes, ad._pins > 0, ad._lane_pool is not None))
        in_lanes(task, count, lanes, in_order)

    monkeypatch.setattr(ad, "_in_lanes", spy)
    images = rng.uniform(0, 1, (12, 3, 8, 8)).astype(np.float32)
    labels = np.arange(12) % 2
    train = Dataset(images[:8], labels[:8], 2, "train")
    test = Dataset(images[8:], labels[8:], 2, "test")
    assert ad._lane_pool is None
    ckpt, _ = train_teacher(ModelSpec("convnet", (4, 4), 2, (3, 8, 8)), train, test,
                            OptimSpec(lr=0.01, epochs=1, seed=3), BatchPlan(4, 3))
    assert passes and set(passes) == {(2, True, True)}
    assert ad._lane_pool is None and not lane_threads()
    passes.clear()
    evaluate(restore_model(ckpt), test, stats_from_metadata(ckpt.metadata))
    assert passes and set(passes) == {(2, True, True)}
    assert ad._lane_pool is None and not lane_threads()

    def failing_pool(*args):
        raise ValueError("pool failed")

    monkeypatch.setattr(ad, "_max_windows", failing_pool)
    with pytest.raises(ValueError, match="pool failed"):
        ad.conv_block(Tensor(images[:4]), Tensor(rng.uniform(-1, 1, (4, 3, 3, 3))))
    assert ad._lane_pool is None and not lane_threads()


def test_sweep_worker_forked_after_lanes_matches_in_process_runs(tmp_path, monkeypatch):
    """``ablate --jobs`` workers fork from a process that ran its teacher on
    lanes.  The lane threads ended with the BLAS pin of that run, so the
    process forks with no thread but its own (Python 3.12 warns on a fork
    with others alive; OpenBLAS ends its threads itself), and the next pin
    makes the pool again.  One worker gets every CPU, so on more than one
    it runs its conv passes on lanes too.  Each cell matches its run in
    this process bitwise."""
    rng = np.random.default_rng(7)
    images = rng.uniform(0, 1, (48, 3, 24, 24)).astype(np.float32)
    labels = np.arange(48, dtype=np.int64) % 4
    train = Dataset(images[:32], labels[:32], 4, "train")
    test = Dataset(images[32:], labels[32:], 4, "test")
    spec = ModelSpec("convnet", (4, 4), 4, (3, 24, 24))
    optim = OptimSpec(lr=0.01, epochs=1, seed=3)
    plan = BatchPlan(batch_size=32, shuffle_seed=3)  # two chunks per block-1 pass
    with lanes_pinned(2):
        teacher, _ = train_teacher(spec, train, test, optim, plan)
        assert ad._lane_pool is not None
    assert ad._lane_pool is None and not lane_threads()
    threads_at_fork = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            threads_at_fork.append(os_threads())
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    tasks = [(cell, 0, {"beta": beta}, DistillConfig(beta=beta, proj_dim=4), optim, plan)
             for cell, beta in enumerate((0.0, 1.0))]
    forked, inline = tmp_path / "forked", tmp_path / "inline"
    rows = cli._run_in_workers((teacher, spec, train, test, str(forked)), tasks, 1)
    assert threads_at_fork == [1]
    with lanes_pinned(2):
        assert rows == [cli._ablation_run((teacher, spec, train, test, str(inline)), task)
                        for task in tasks]
    for cell in range(len(tasks)):
        for name in ("student.ckpt", "epochs.csv", "config.txt"):
            run = f"cell{cell}-seed0"
            assert (forked / run / name).read_bytes() == (inline / run / name).read_bytes()


def old_order_forward(self, images):
    """ConvNet.forward with the reference kernels in the former block order,
    conv -> ReLU -> max-pool."""
    h = images
    for k in self.kernels:
        h = ref_maxpool2d(ref_relu(ref_conv2d(h, k.value, 1, 1)))
    features = ad.avgpool2d(h)
    logits = ad.add_rowvec(ad.matmul(features, self.cls_w.value), self.cls_b.value)
    return features, logits


def test_pool_before_relu_keeps_convnet_checkpoints_bitwise(monkeypatch):
    shipped = {}
    for lanes in LANE_COUNTS:
        with lanes_pinned(lanes):
            shipped[lanes] = tiny_convnet_run()
    monkeypatch.setattr(ConvNet, "forward", old_order_forward)
    reference = tiny_convnet_run()
    for run in shipped.values():
        assert_same_runs(run, reference)


@pytest.mark.parametrize("values", ["awkward", "ties"])
def test_pool_before_relu_block_matches_old_order(values, rng):
    shape = (4, 3, 8, 8)
    if values == "awkward":
        x = awkward_values(rng, shape)
    else:  # finite, with tied, zero and all-nonpositive windows after the conv
        x = rng.choice([-1.0, -0.0, 0.0, 1.0], size=shape)
    k = rng.choice([-1.0, 0.0, 1.0], size=(5, 3, 3, 3))
    w = rng.uniform(-1.5, 1.5, (4, 5, 4, 4))
    out, (gx, gk) = value_and_grads(
        lambda a, b: ad.relu(ad.maxpool2d(ad.conv2d(a, b))), [x, k], w)
    ref, (ref_gx, ref_gk) = value_and_grads(
        lambda a, b: ref_maxpool2d(ref_relu(ref_conv2d(a, b, 1, 1))), [x, k], w)
    assert_same_bits(out, ref)
    assert_same_bits(gk, ref_gk)
    # an all-nonpositive window sends -0.0 where g < 0 in the old order, +0.0 now
    assert np.array_equal(gx, ref_gx)


def _saved_arrays(fn):
    """The arrays a backward closure keeps, in its defaults and free variables
    and the conv geometry it holds."""
    found, todo = [], [*(fn.__defaults__ or ()),
                       *(cell.cell_contents for cell in fn.__closure__ or ())]
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, (tuple, list)):
            todo.extend(item)
        elif isinstance(item, ad._ConvChunks):
            todo.extend(vars(item).values())
    return found


def test_maxpool_saves_one_byte_per_output(rng):
    x = Tensor(rng.uniform(-1, 1, (4, 3, 8, 8)))
    with Tape() as tape:
        out = ad.maxpool2d(x)
    (node,) = tape.nodes
    saved = _saved_arrays(node.backward)
    assert not [a for a in saved if a.dtype.kind == "f" and a.size >= x.size]
    assert sum(a.nbytes for a in saved) == out.size


@pytest.mark.parametrize("op", ["conv2d", "conv_block"])
def test_conv_backward_keeps_no_patch_buffer(op, rng, monkeypatch):
    # chunks of 4 samples, whose patch matrix holds exactly _CONV_CHUNK_ELEMS
    monkeypatch.setattr(ad, "_CONV_CHUNK_ELEMS", 4 * 8 * 9 * 8 * 8)
    x = Tensor(rng.uniform(-1, 1, (10, 8, 8, 8)))
    k = Tensor(rng.uniform(-1, 1, (4, 8, 3, 3)))
    with Tape() as tape:
        out = getattr(ad, op)(x, k)
    (node,) = tape.nodes
    for _ in range(2):  # after the forward pass, then after a backward pass
        saved = _saved_arrays(node.backward)
        assert any(a is x.data for a in saved)
        assert not any(np.shares_memory(a, out.data) for a in saved)
        assert not [a for a in saved if a.dtype.kind == "f" and a.size >= ad._CONV_CHUNK_ELEMS]
        node.backward(np.ones(out.shape))


@pytest.mark.parametrize("shape", [(2, 3, 8, 8), (2, 3, 7, 9)])
def test_conv_block_winner_code_is_4_where_the_relu_zeroed(shape, rng):
    """The code is the pool's winning position, and 4 exactly where the
    ReLU zeroed the window: all-NaN and -inf windows (a positive kernel
    keeps -inf), negative maxima, and the odd size that drops a row and a
    column."""
    x = rng.uniform(-1, 1, shape)
    x[0, 0, :2, :2] = np.nan
    x[1, 0, :2, :2] = -np.inf
    x[1, :, 3:, 3:] = rng.uniform(-1, -0.5, (3, shape[2] - 3, shape[3] - 3))
    k = rng.uniform(0.5, 1.5, (4, 3, 3, 3))
    with Tape() as tape:
        y = ad.conv_block(Tensor(x), Tensor(k))
    (node,) = tape.nodes
    (code,) = [a for a in _saved_arrays(node.backward) if a.dtype == np.uint8]
    conv = ad.conv2d(Tensor(x), Tensor(k)).data
    _, _, regions = ad._pool_regions("ref", *conv.shape[2:])
    best, arg = np.empty(y.shape), np.empty(y.shape, dtype=np.uint8)
    ad._max_windows(conv, regions, best, arg)
    assert np.array_equal(code, np.where(y.data == 0.0, 4, arg))
    windows = np.stack([conv[region] for region in regions])
    zeroed = code == 4
    assert (zeroed & np.isnan(windows).all(axis=0)).any()
    assert (zeroed & (best == -np.inf) & ~np.isnan(windows).all(axis=0)).any()
    assert (zeroed & np.isfinite(best)).any() and (code < 4).any()


def test_lanes_keep_the_order_the_context_and_the_first_error():
    lanes_used, ordered = set(), []

    def task(i, lane):
        lanes_used.add(lane)
        time.sleep(0.005)  # so that the second lane takes items too
        return np.sqrt(np.array([-1.0]))  # invalid: a warning unless muted
    with lanes_pinned(2), np.errstate(invalid="ignore"):  # must reach the pool's thread
        ad._in_lanes(task, 8, 2, lambda i, result: ordered.append(i))
    assert ordered == list(range(8)) and lanes_used == {0, 1}

    def failing(i, lane):
        if i == 3:
            raise ValueError("item 3")
        time.sleep(0.001)
    with lanes_pinned(2), pytest.raises(ValueError, match="item 3"):
        ad._in_lanes(failing, 40, 2, lambda i, result: None)  # no lane waits for item 3
    assert ad._lane_pool is None and not lane_threads()


def test_lanes_and_pins_hold_under_stress():
    """More lanes than cores and a short switch interval: every item runs
    once and reaches ``in_order`` in order, and pins overlapping across
    threads keep OpenBLAS at one thread until the last one ends, and end
    the lane pool with it."""
    ad._blas()
    start = ad.blas_threads()
    runs, ordered, inside = [], [], []

    def pin_often():
        for _ in range(200):
            with ad.single_blas_thread(), ad.single_blas_thread():
                inside.append(ad.blas_threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with lanes_pinned(4):  # three pool threads for four lanes
            ad._in_lanes(lambda i, lane: runs.append(i) or i, 300, 4,
                         lambda i, result: ordered.append(result))
        threads = [threading.Thread(target=pin_often) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(runs) == ordered == list(range(300))
    assert len(inside) == 1200 and set(inside) <= {1, None}
    assert ad._pins == 0 and ad.blas_threads() == start
    assert ad._lane_pool is None and not lane_threads()


def test_convnet_step_peak_memory(rng):
    spec, _ = convnet_pair((3, 32, 32), 100)  # the shipped teacher
    model = init_weights(spec, 0)
    images = Tensor(rng.uniform(0, 1, (32, 3, 32, 32)))
    labels = rng.integers(0, 100, 32)
    for lanes in LANE_COUNTS:  # tracemalloc sees every thread
        with lanes_pinned(lanes):
            tracemalloc.start()
            try:
                with Tape() as tape:
                    _, logits = model.forward(images)
                    tape.backward(cross_entropy_loss(logits, labels))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # 12.4 and 17.1 MB on one and two lanes (13.5 and 18.8 MB when the
        # block kept its ReLU output for a mask); 31.1 MB with chunks of 4 MB of
        # patches, each pool gradient zeroed and copied (32.3 MB with
        # per-sample GEMMs, 33.6 MB as three ops); 47.9 MB when the tape kept
        # the full-size ReLU output
        assert peak < 40e6, f"{lanes} lanes: peak {peak / 1e6:.1f} MB"


def block_composition(x, k):
    return ad.relu(ad.maxpool2d(ad.conv2d(x, k)))


def block_value_and_grads(fn, x, k, w, track_x):
    """fn's output and the gradients of sum(w * output) wrt x and k (None
    when not given), on a tape that differentiates k and, if track_x, x."""
    xt, kt = Tensor(x), Tensor(k)
    with Tape([xt, kt] if track_x else [kt]) as tape, np.errstate(invalid="ignore"):
        out = fn(xt, kt)
        tape.backward(ad.tsum(ad.mul(out, Tensor(w))))
    return out.data, tape.grads.get(xt.id), tape.grads.get(kt.id)


@pytest.mark.parametrize("case", ["random", "awkward", "odd_size", "chunks", "untracked_x"])
def test_conv_block_matches_composition_bitwise(case, rng, monkeypatch):
    shape, kshape = (5, 3, 8, 8), (4, 3, 3, 3)
    if case == "odd_size":  # the pool drops the last row and column
        shape = (2, 3, 7, 9)
    x = rng.uniform(-1, 1, shape)
    k = rng.uniform(-1, 1, kshape)
    if case == "awkward":  # NaN, +-inf, exact ties and signed zeros
        x = awkward_values(rng, shape)
        x[2] = rng.choice([np.inf, -np.inf, -0.0, 0.0, 1.0], size=shape[1:])
        x[3] = rng.choice([-0.0, 0.0, 1.0], size=shape[1:])
        k = rng.choice([-1.0, -0.0, 0.0, 1.0], size=kshape)
    if case == "chunks":  # chunks of 2, 2 and 1 samples
        monkeypatch.setattr(ad, "_CONV_CHUNK_ELEMS", 2 * 3 * 9 * 8 * 8)
        assert len(ad._ConvChunks("conv_block", Tensor(x), Tensor(k)).spans) == 3
    w = rng.uniform(-1.5, 1.5, (shape[0], kshape[0], shape[2] // 2, shape[3] // 2))
    track_x = case != "untracked_x"
    for lanes in LANE_COUNTS:
        if lanes > 1 and case != "chunks":  # a chunk per sample, so that each lane gets one
            monkeypatch.setattr(ad, "_CONV_CHUNK_ELEMS", 3 * 9 * shape[2] * shape[3])
        with lanes_pinned(lanes):
            got = block_value_and_grads(ad.conv_block, x, k, w, track_x)
            ref = block_value_and_grads(block_composition, x, k, w, track_x)
        for a, b in zip(got, ref):
            if b is None:
                assert a is None
            else:
                assert_same_bits(a, b)
        assert (got[1] is None) == (not track_x)


def test_convnet_forward_records_one_node_per_block(rng):
    spec, _ = convnet_pair((3, 32, 32), 10)
    model = init_weights(spec, 0)
    with Tape() as tape:
        model.forward(Tensor(rng.uniform(0, 1, (2, 3, 32, 32))))
    # 13 nodes when each block was conv2d, maxpool2d and relu
    assert [node.op for node in tape.nodes] == [
        "conv_block", "conv_block", "conv_block", "avgpool2d", "matmul", "add_rowvec"]


def test_convnet_step_peak_memory_at_128_rows(rng):
    spec, _ = convnet_pair((3, 32, 32), 100)  # the shipped teacher
    model = init_weights(spec, 0)
    images = Tensor(rng.uniform(0, 1, (128, 3, 32, 32)))
    labels = rng.integers(0, 100, 128)
    params = [p.value for p in model.parameters()]
    for lanes in LANE_COUNTS:  # tracemalloc sees every thread
        with lanes_pinned(lanes):
            tracemalloc.start()
            try:
                model.forward(images)
                forward_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                with Tape(params) as tape:
                    _, logits = model.forward(images)
                    tape.backward(cross_entropy_loss(logits, labels))
                step_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # 31.2 and 15.1 MB on one lane, 33.9 and 17.7 MB on two (a 33.4 and
        # 37.1 MB step when the block kept its ReLU output); 47.0 and
        # 17.7 MB with chunks of 4 MB of patches, each pool gradient zeroed
        # and copied; 69.4 and 42.0 MB when the full-size conv output and its
        # pool gradient were held
        assert step_peak < 60e6, f"{lanes} lanes: step peak {step_peak / 1e6:.1f} MB"
        assert forward_peak < 30e6, f"{lanes} lanes: forward peak {forward_peak / 1e6:.1f} MB"

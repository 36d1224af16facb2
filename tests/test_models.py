"""Model forward semantics, initialization, projection heads, capacity gap."""

import math

import numpy as np
import pytest

from conftest import central_difference, rel_err

from dcd.autodiff import Tape, Tensor
from dcd.errors import ConfigError, ShapeMismatchError
from dcd.losses import cross_entropy_loss
from dcd.models import (ModelSpec, ProjectionHead, convnet_pair, init_weights, mlp_pair,
                        project)


def test_spec_validation():
    with pytest.raises(ConfigError):
        ModelSpec("transformer", (8,), 4, (1, 1, 6))
    with pytest.raises(ConfigError):
        ModelSpec("mlp", (), 4, (1, 1, 6))
    with pytest.raises(ConfigError):
        ModelSpec("mlp", (8,), 1, (1, 1, 6))
    with pytest.raises(ConfigError):
        ModelSpec("convnet", (8, 8, 8), 4, (3, 4, 4))  # too small to pool thrice


def test_zero_weights_give_log_c_loss(rng):
    spec = ModelSpec("mlp", (8,), 5, (1, 1, 6))
    model = init_weights(spec, 0)
    for p in model.parameters():
        p.value.data[...] = 0.0
    images = Tensor(rng.uniform(0, 1, (7, 1, 1, 6)))
    _, logits = model.forward(images)
    assert np.array_equal(logits.data, np.zeros((7, 5)))
    loss = cross_entropy_loss(logits, rng.integers(0, 5, 7))
    assert abs(loss.item() - math.log(5)) < 1e-12


@pytest.mark.parametrize("family,in_shape", [("mlp", (1, 1, 6)), ("convnet", (2, 8, 8))])
def test_duplicate_inputs_give_duplicate_outputs(family, in_shape, rng):
    widths = (8,) if family == "mlp" else (4, 6)
    spec = ModelSpec(family, widths, 3, in_shape)
    model = init_weights(spec, 3)
    one = rng.uniform(0, 1, (1, *in_shape))
    images = Tensor(np.concatenate([one, one, one]))
    feats, logits = model.forward(images)
    assert np.array_equal(feats.data[0], feats.data[1])
    assert np.array_equal(logits.data[0], logits.data[2])


def test_forward_shape_check(rng):
    spec = ModelSpec("convnet", (4,), 3, (2, 8, 8))
    model = init_weights(spec, 0)
    with pytest.raises(ShapeMismatchError):
        model.forward(Tensor(rng.uniform(size=(2, 3, 8, 8))))


def test_convnet_gradient_spot_check(rng):
    spec = ModelSpec("convnet", (3, 4), 3, (2, 8, 8))
    model = init_weights(spec, 5)
    images = rng.uniform(0, 1, (3, 2, 8, 8))
    labels = rng.integers(0, 3, 3)

    def value():
        _, logits = model.forward(Tensor(images))
        return cross_entropy_loss(logits, labels)

    params = model.parameters()
    with Tape() as tape:
        tape.backward(value())
        grads = {id(p): tape.grads[p.value.id] for p in params}
    # sample 8 random weights across all parameters
    picks = []
    for p in params:
        flat = p.value.data.reshape(-1)
        for i in rng.choice(flat.size, size=min(2, flat.size), replace=False):
            picks.append((p, int(i)))
    picks = picks[:8]
    step = 1e-5
    for p, i in picks:
        flat = p.value.data.reshape(-1)
        orig = flat[i]
        flat[i] = orig + step
        fp = value().item()
        flat[i] = orig - step
        fm = value().item()
        flat[i] = orig
        fd = (fp - fm) / (2 * step)
        analytic = grads[id(p)].reshape(-1)[i]
        assert rel_err(analytic, fd, floor=1e-3) < 1e-3


def test_init_reproducible_and_seed_sensitive():
    spec = ModelSpec("convnet", (4, 6), 3, (2, 8, 8))
    a = init_weights(spec, 11)
    b = init_weights(spec, 11)
    c = init_weights(spec, 12)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.value.data, pb.value.data)
    assert any(not np.array_equal(pa.value.data, pc.value.data)
               for pa, pc in zip(a.parameters(), c.parameters()))


def test_init_std_matches_uniform_fanin_law():
    # W ~ U[-sqrt(6/fan_in), +sqrt(6/fan_in)] has std sqrt(2/fan_in)
    spec = ModelSpec("mlp", (256, 256), 10, (1, 1, 256))
    model = init_weights(spec, 0)
    w = model.layers[1][0].value.data  # 256 x 256
    expected = math.sqrt(2.0 / 256.0)
    assert abs(w.std() - expected) / expected < 0.2


def test_projection_identity_weight_is_normalization(rng):
    feats = rng.uniform(-2, 2, (4, 6))
    head = ProjectionHead.create(6, 6, "student", 0)
    head.weight.value.data[...] = np.eye(6)
    out = project(head, Tensor(feats)).data
    want = feats / np.linalg.norm(feats, axis=1, keepdims=True)
    assert np.allclose(out, want, atol=1e-12)


def test_projection_scale_invariance(rng):
    feats = rng.uniform(0.5, 2, (5, 8))
    head = ProjectionHead.create(8, 4, "teacher", 1)
    a = project(head, Tensor(feats)).data
    b = project(head, Tensor(5.0 * feats)).data
    assert np.allclose(a, b, atol=1e-12)


def test_projection_rows_unit_norm(rng):
    head = ProjectionHead.create(10, 7, "student", 2)
    out = project(head, Tensor(rng.uniform(-1, 1, (6, 10)))).data
    assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) < 1e-9


def test_projection_dim_check(rng):
    head = ProjectionHead.create(10, 7, "student", 2)
    with pytest.raises(ShapeMismatchError):
        project(head, Tensor(rng.uniform(size=(3, 9))))


def test_forward_is_pure(rng):
    spec = ModelSpec("mlp", (8, 8), 3, (1, 1, 6))
    model = init_weights(spec, 0)
    images = Tensor(rng.uniform(0, 1, (4, 1, 1, 6)))
    before = [p.value.data.copy() for p in model.parameters()]
    _, first = model.forward(images)
    _, second = model.forward(images)
    assert np.array_equal(first.data, second.data)
    for p, orig in zip(model.parameters(), before):
        assert np.array_equal(p.value.data, orig)


def test_shipped_recipes_have_capacity_gap():
    for maker, in_shape in ((convnet_pair, (3, 32, 32)), (mlp_pair, (1, 1, 16))):
        teacher_spec, student_spec = maker(in_shape, 10)
        sizes = [sum(p.value.size for p in init_weights(spec, 0).parameters())
                 for spec in (student_spec, teacher_spec)]
        assert sizes[0] < sizes[1]

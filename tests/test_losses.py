"""Loss-term values vs loop oracles, closed forms, and structural invariants."""

import itertools
import math

import numpy as np
import pytest

from conftest import central_difference, loss_close, rel_err, unit_rows

from dcd import oracle
from dcd.autodiff import Tape, Tensor
from dcd.errors import (ConfigError, DegenerateInputError, DomainError, IndexOutOfRangeError,
                        ShapeMismatchError)
from dcd.losses import (DistillConfig, EmbeddingPair, _embedding_terms, consistency_loss,
                        contrastive_loss,
                        cross_entropy_loss, kd_kl_loss, similarity_logits,
                        student_distribution, teacher_distribution,
                        temperature_parameters, total_loss)

TAU_FIXED = math.log(1.0 / 0.07)


def make_pair(rng, n, d):
    return EmbeddingPair(Tensor(unit_rows(rng, n, d)), Tensor(unit_rows(rng, n, d)))


# -- similarity logits ---------------------------------------------------------

def test_similarity_orthonormal_identity():
    z = np.eye(3)
    pair = EmbeddingPair(Tensor(z), Tensor(z))
    out = similarity_logits(pair, 0.0, 0.0)
    assert np.allclose(out.data, np.eye(3), atol=1e-15)


def test_similarity_additive_bias(rng):
    pair = make_pair(rng, 4, 6)
    base = similarity_logits(pair, 1.3, 0.0).data
    biased = similarity_logits(pair, 1.3, 0.25).data
    assert np.allclose(biased - base, 0.25, atol=1e-12)


def test_similarity_vs_loop_oracle(rng):
    zs = unit_rows(rng, 3, 4)
    zt = unit_rows(rng, 3, 4)
    pair = EmbeddingPair(Tensor(zs), Tensor(zt))
    got = similarity_logits(pair, 2.6593, 0.1).data
    # the teacher-anchored matrix is the transpose of the student-anchored one
    for anchor, matrix in (("student", got), ("teacher", got.T)):
        want = np.asarray(oracle.oracle_similarity(zs, zt, 2.6593, 0.1, anchor))
        assert np.max(np.abs(matrix - want)) < 1e-12


def test_similarity_rejects_out_of_clamp_tau(rng):
    pair = make_pair(rng, 3, 4)
    tau = temperature_parameters(DistillConfig())
    tau.value.data[...] = 11.0
    with pytest.raises(ConfigError):
        similarity_logits(pair, tau, 0.0)


# -- contrastive ---------------------------------------------------------------

def test_contrastive_single_row_is_zero(rng):
    pair = make_pair(rng, 1, 5)
    assert contrastive_loss(pair, 1.0, 0.3).item() == 0.0


def test_contrastive_two_orthonormal_closed_form():
    z = np.eye(2)
    pair = EmbeddingPair(Tensor(z), Tensor(z))
    expect = -math.log(math.e / (math.e + 1.0))
    assert abs(contrastive_loss(pair, 0.0, 0.0).item() - expect) < 1e-12
    assert abs(expect - 0.31326) < 5e-6


def test_contrastive_vs_oracle(rng):
    zs = unit_rows(rng, 6, 8)
    zt = unit_rows(rng, 6, 8)
    pair = EmbeddingPair(Tensor(zs), Tensor(zt))
    got = contrastive_loss(pair, TAU_FIXED, 0.1).item()
    want = oracle.oracle_contrastive(zs, zt, TAU_FIXED, 0.1).value
    assert abs(got - want) < 1e-12


def test_contrastive_gradients_vs_finite_differences(rng):
    zs = unit_rows(rng, 4, 6)
    zt = unit_rows(rng, 4, 6)
    tau = np.asarray(1.2)
    b = np.asarray(0.1)

    def value():
        pair = EmbeddingPair(Tensor(zs), Tensor(zt))
        return contrastive_loss(pair, Tensor(tau), float(b))

    with Tape() as tape:
        zs_t, tau_t = Tensor(zs), Tensor(tau)
        pair = EmbeddingPair(zs_t, Tensor(zt))
        tape.backward(contrastive_loss(pair, tau_t, float(b)))
        # b shifts every logit of a row alike, so the loss does not depend on it
        analytic = [tape.grads[zs_t.id], tape.grads[tau_t.id], 0.0]
    fd = central_difference(lambda: value().item(), [zs, tau, b])
    for a, f in zip(analytic, fd):
        assert rel_err(a, f, floor=1e-4) < 1e-4


# -- distributions -------------------------------------------------------------

def test_student_distribution_uniform_for_identical_rows(rng):
    # every pairwise cosine is 1, so each row softmaxes to the uniform law
    row = unit_rows(rng, 1, 5)
    zs = np.tile(row, (4, 1))
    pair = EmbeddingPair(Tensor(zs), Tensor(zs.copy()))
    p = student_distribution(pair, 0.0, 0.0).data
    assert np.allclose(p, 0.25, atol=1e-12)


def test_distribution_bias_shift_invariance(rng):
    pair = make_pair(rng, 4, 5)
    for fn in (student_distribution, teacher_distribution):
        a = fn(pair, 1.1, 0.0).data
        bshift = fn(pair, 1.1, 0.8).data
        assert np.max(np.abs(a - bshift)) < 1e-12


def test_teacher_distribution_equals_student_when_embeddings_match(rng):
    z = unit_rows(rng, 4, 5)
    pair = EmbeddingPair(Tensor(z), Tensor(z.copy()))
    ps = student_distribution(pair, 0.9, 0.2).data
    pt = teacher_distribution(pair, 0.9, 0.2).data
    assert np.max(np.abs(ps - pt)) < 1e-12


def test_teacher_distribution_single_row():
    z = unit_rows(np.random.default_rng(0), 1, 4)
    pair = EmbeddingPair(Tensor(z), Tensor(unit_rows(np.random.default_rng(1), 1, 4)))
    assert np.allclose(teacher_distribution(pair, 1.0, 0.1).data, [[1.0]], atol=1e-15)


def test_distributions_vs_oracle(rng):
    zs = unit_rows(rng, 4, 6)
    zt = unit_rows(rng, 4, 6)
    pair = EmbeddingPair(Tensor(zs), Tensor(zt))
    ps = student_distribution(pair, TAU_FIXED, 0.1).data
    pt = teacher_distribution(pair, TAU_FIXED, 0.1).data
    assert np.max(np.abs(ps - np.asarray(
        oracle.oracle_student_distribution(zs, zt, TAU_FIXED, 0.1)))) < 1e-12
    assert np.max(np.abs(pt - np.asarray(
        oracle.oracle_teacher_distribution(zs, zt, TAU_FIXED, 0.1)))) < 1e-12


def test_distributions_row_stochastic_and_positive(rng):
    for _ in range(20):
        n = int(rng.integers(1, 9))
        pair = make_pair(rng, n, int(rng.integers(2, 17)))
        tau = float(rng.uniform(0, 4))
        b = float(rng.uniform(-1, 1))
        for fn in (student_distribution, teacher_distribution):
            p = fn(pair, tau, b).data
            assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12
            assert p.min() > 0.0


def test_student_distribution_of_dead_student_row_is_uniform(rng):
    """A zero student row is clamped, as in the embedding terms: its cosines
    are zero, so its row of the law is uniform."""
    zs = unit_rows(rng, 4, 6)
    zs[1] = 0.0
    p = student_distribution(EmbeddingPair(Tensor(zs), Tensor(unit_rows(rng, 4, 6))),
                             1.3, 0.2).data
    assert np.isfinite(p).all()
    assert np.allclose(p[1], 0.25, rtol=0, atol=1e-15)


def test_zero_teacher_row_raises_degenerate(rng):
    zt = unit_rows(rng, 3, 5)
    zt[2] = 0.0
    pair = EmbeddingPair(Tensor(unit_rows(rng, 3, 5)), Tensor(zt))
    for fn in (similarity_logits, teacher_distribution):
        with pytest.raises(DegenerateInputError):
            fn(pair, 1.0, 0.0)


def test_similarity_laws_record_no_tape_node(rng):
    pair = make_pair(rng, 4, 5)
    tau = temperature_parameters(DistillConfig())
    with Tape() as tape:
        for fn in (similarity_logits, student_distribution, teacher_distribution):
            fn(pair, tau, 0.0)
    assert tape.nodes == []


# -- consistency ---------------------------------------------------------------

def test_consistency_zero_when_embeddings_match(rng):
    z = unit_rows(rng, 5, 7)
    pair = EmbeddingPair(Tensor(z), Tensor(z.copy()))
    assert abs(consistency_loss(pair, 1.7, 0.4).item()) < 1e-12


def test_consistency_single_row_exactly_zero(rng):
    pair = make_pair(rng, 1, 5)
    assert consistency_loss(pair, 1.0, 0.0).item() == 0.0


def test_consistency_vs_oracle(rng):
    zs = unit_rows(rng, 5, 8)
    zt = unit_rows(rng, 5, 8)
    pair = EmbeddingPair(Tensor(zs), Tensor(zt))
    got = consistency_loss(pair, TAU_FIXED, -0.2).item()
    want = oracle.oracle_consistency(zs, zt, TAU_FIXED, -0.2).value
    assert abs(got - want) < 1e-12


def test_consistency_gradient_vs_finite_differences(rng):
    zs = unit_rows(rng, 4, 6)
    zt = unit_rows(rng, 4, 6)
    tau = np.asarray(1.0)
    b = np.asarray(-0.2)

    def value():
        return consistency_loss(EmbeddingPair(Tensor(zs), Tensor(zt)),
                                Tensor(tau), float(b)).item()

    with Tape() as tape:
        zs_t, tau_t = Tensor(zs), Tensor(tau)
        tape.backward(consistency_loss(EmbeddingPair(zs_t, Tensor(zt)), tau_t, float(b)))
        analytic = [tape.grads[zs_t.id], tape.grads[tau_t.id], 0.0]  # nothing depends on b
    fd = central_difference(value, [zs, tau, b])
    for a, f in zip(analytic, fd):
        assert rel_err(a, f, floor=1e-4) < 1e-4


def test_consistency_detach_target_matches_frozen_target_gradient(rng):
    # with the target detached, the analytic gradient must equal finite
    # differences of the objective with the teacher-anchored law frozen
    zs = unit_rows(rng, 4, 6)
    zt = unit_rows(rng, 4, 6)
    tau, b = 1.0, 0.2

    def np_lsm(m):
        s = m - m.max(axis=1, keepdims=True)
        return s - np.log(np.exp(s).sum(axis=1, keepdims=True))

    def np_unit(m):
        return m / np.linalg.norm(m, axis=1, keepdims=True)

    lt_frozen = np_lsm(np_unit(zt) @ np_unit(zs).T * math.exp(tau) + b)

    def frozen_value():
        ls = np_lsm(np_unit(zs) @ np_unit(zt).T * math.exp(tau) + b)
        return float((np.exp(ls) * (ls - lt_frozen)).sum() / 4)

    with Tape() as tape:
        zs_t = Tensor(zs)
        pair = EmbeddingPair(zs_t, Tensor(zt))
        tape.backward(consistency_loss(pair, tau, b, detach_target=True))
        analytic = tape.grads[zs_t.id]
    fd = central_difference(frozen_value, [zs])[0]
    assert rel_err(analytic, fd, floor=1e-4) < 1e-4


# -- the fused embedding-terms op ----------------------------------------------

def test_embedding_terms_match_oracles(rng):
    shapes = [(int(rng.integers(1, 9)), int(rng.integers(2, 17))) for _ in range(30)]
    for i, (n, d) in enumerate([(1, 5), (1, 1)] + shapes):
        zs = unit_rows(rng, n, d)
        zt = zs.copy() if i % 3 == 0 else unit_rows(rng, n, d)  # identical embeddings too
        tau, b = float(rng.uniform(0.0, 10.0)), float(rng.uniform(-1.0, 1.0))
        alpha = float(rng.uniform(0.0, 2.0))
        value, contrast, consist = _embedding_terms(EmbeddingPair(Tensor(zs), Tensor(zt)),
                                                    tau, b, (1.0, alpha))
        assert loss_close(contrast, oracle.oracle_contrastive(zs, zt, tau, b).value)
        assert loss_close(consist, oracle.oracle_consistency(zs, zt, tau, b).value)
        assert value.item() == contrast + alpha * consist


def _np_lsm(m):
    s = m - m.max(axis=1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=1, keepdims=True))


def _np_terms(zs, zt, tau, b, alpha, lt_frozen=None):
    """contrast + alpha * consist in plain numpy, with the teacher-anchored
    log-softmax optionally frozen (the detached target)."""
    us = zs / np.linalg.norm(zs, axis=1, keepdims=True)
    ut = zt / np.linalg.norm(zt, axis=1, keepdims=True)
    ls = _np_lsm(us @ ut.T * math.exp(tau) + b)
    lt = _np_lsm(ut @ us.T * math.exp(tau) + b) if lt_frozen is None else lt_frozen
    n = len(zs)
    return float(-np.trace(ls) / n + alpha * (np.exp(ls) * (ls - lt)).sum() / n)


@pytest.mark.parametrize("alpha,detach", [(0.0, False), (0.5, False), (0.0, True),
                                          (0.5, True)])
def test_embedding_terms_gradients_vs_finite_differences(alpha, detach, rng):
    # raw (non-unit) leaves, so the op's own normalization is differentiated too
    zs = rng.uniform(-2, 2, (4, 6))
    zt = rng.uniform(-2, 2, (4, 6))
    tau, b = np.asarray(1.1), np.asarray(-0.3)
    frozen = None
    if detach:  # the teacher-anchored law at the evaluation point, held fixed
        us = zs / np.linalg.norm(zs, axis=1, keepdims=True)
        ut = zt / np.linalg.norm(zt, axis=1, keepdims=True)
        frozen = _np_lsm(ut @ us.T * math.exp(tau) + b)
    with Tape() as tape:
        leaves = [Tensor(zs), Tensor(zt), Tensor(tau)]
        value, _, _ = _embedding_terms(EmbeddingPair(leaves[0], leaves[1]), leaves[2],
                                       float(b), (1.0, alpha), detach)
        tape.backward(value)
    assert abs(value.item() - _np_terms(zs, zt, tau, b, alpha, frozen)) < 1e-12
    fd = central_difference(lambda: _np_terms(zs, zt, tau, b, alpha, frozen), [zs, zt, tau, b])
    # b shifts every logit of a row alike, so the terms do not depend on it
    for grad, f in zip([tape.grads[leaf.id] for leaf in leaves] + [0.0], fd):
        assert rel_err(grad, f, floor=1e-4) < 1e-4


def test_embedding_terms_node_reads_zs_zt_and_tau_only(rng):
    pair = make_pair(rng, 3, 4)
    tau = Tensor(TAU_FIXED)
    with Tape() as tape:
        _embedding_terms(pair, tau, 0.3, (1.0, 0.5))
    (node,) = tape.nodes
    assert (node.op, node.input_ids) == ("embedding_terms", (pair.zs.id, pair.zt.id, tau.id))


def test_embedding_terms_zero_student_row_is_finite(rng):
    zs = unit_rows(rng, 5, 6)
    zs[2] = 0.0
    zt = unit_rows(rng, 5, 6)
    with Tape() as tape:
        leaves = [Tensor(zs), Tensor(zt), Tensor(1.3)]
        value, contrast, consist = _embedding_terms(EmbeddingPair(leaves[0], leaves[1]),
                                                    leaves[2], 0.2, (1.0, 0.5))
        tape.backward(value)
    assert math.isfinite(contrast) and math.isfinite(consist)
    for leaf in leaves:
        assert np.isfinite(tape.grads[leaf.id]).all()
    # the dead row's logits are all b, so its student-anchored law is uniform
    ls = _np_lsm(zs @ zt.T * math.exp(1.3) + 0.2)
    assert np.allclose(ls[2], -math.log(5), rtol=0, atol=1e-15)
    assert abs(contrast + np.trace(ls) / 5) < 1e-12


def test_embedding_terms_reject_zero_teacher_row_and_non_finite_logits(rng):
    zt = unit_rows(rng, 3, 4)
    zt[0] = 0.0
    with pytest.raises(DegenerateInputError):
        contrastive_loss(EmbeddingPair(Tensor(unit_rows(rng, 3, 4)), Tensor(zt)), 1.0, 0.0)
    pair = make_pair(rng, 3, 4)
    with pytest.raises(DomainError):
        consistency_loss(pair, 1.0, np.inf)
    tau = temperature_parameters(DistillConfig())
    tau.value.data[...] = -1.0
    with pytest.raises(ConfigError):
        contrastive_loss(pair, tau, 0.0)


# -- combined kd loss ----------------------------------------------------------

def dcd_term(pair, tau, cfg):
    """The embedding term contrast + alpha * consist, as total_loss computes it."""
    return _embedding_terms(pair, tau, 0.0, (1.0, cfg.alpha), cfg.detach_consistency)[0].item()


def test_dcd_loss_alpha_zero_is_contrastive(rng):
    pair = make_pair(rng, 5, 6)
    cfg = DistillConfig(alpha=0.0)
    assert dcd_term(pair, 1.0, cfg) == contrastive_loss(pair, 1.0, 0.0).item()


def test_dcd_loss_identical_embeddings_reduces_to_contrastive(rng):
    z = unit_rows(rng, 4, 6)
    pair = EmbeddingPair(Tensor(z), Tensor(z.copy()))
    cfg = DistillConfig(alpha=0.7)
    got = dcd_term(pair, 1.0, cfg)
    assert abs(got - contrastive_loss(pair, 1.0, 0.0).item()) < 1e-12


def test_dcd_loss_recomposition(rng):
    pair = make_pair(rng, 5, 7)
    cfg = DistillConfig(alpha=0.5)
    got = dcd_term(pair, 1.2, cfg)
    want = contrastive_loss(pair, 1.2, 0.0).item() \
        + 0.5 * consistency_loss(pair, 1.2, 0.0).item()
    assert abs(got - want) < 1e-12


def test_total_loss_without_pair_has_zero_embedding_terms(rng):
    s_logits, t_logits = Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(4, 3)))
    labels = np.array([0, 1, 2, 0])
    bd = total_loss(s_logits, t_logits, labels, None, 1.0,
                    DistillConfig(beta=0.0, lambda_kl=0.5))
    assert bd.contrast.item() == bd.consist.item() == 0.0
    assert bd.total.item() == bd.sup.item() + 0.5 * bd.distill_kl.item()
    with pytest.raises(ConfigError):
        total_loss(s_logits, t_logits, labels, None, 1.0, DistillConfig(beta=1.0))


# -- kd kl and cross entropy ---------------------------------------------------

def test_kd_kl_identical_logits_zero(rng):
    logits = rng.uniform(-3, 3, (4, 6))
    assert abs(kd_kl_loss(Tensor(logits), Tensor(logits.copy()), 4.0).item()) < 1e-12


def test_kd_kl_closed_form():
    student = np.array([[0.0, 0.0]])
    teacher = np.array([[math.log(3.0), 0.0]])
    got = kd_kl_loss(Tensor(student), Tensor(teacher), 1.0).item()
    want = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert abs(got - want) < 1e-12
    assert abs(want - 0.13081) < 5e-6


def test_kd_kl_vs_oracle(rng):
    s = rng.uniform(-4, 4, (4, 10))
    t = rng.uniform(-4, 4, (4, 10))
    got = kd_kl_loss(Tensor(s), Tensor(t), 4.0).item()
    assert abs(got - oracle.oracle_kd_kl(s, t, 4.0).value) < 1e-12


def test_kd_kl_teacher_side_constant(rng):
    s = rng.uniform(-2, 2, (3, 5))
    t = rng.uniform(-2, 2, (3, 5))
    with Tape() as tape:
        s_t, t_t = Tensor(s), Tensor(t)
        tape.backward(kd_kl_loss(s_t, t_t, 4.0))
        assert tape.grads.get(t_t.id) is None
        assert tape.grads.get(s_t.id) is not None


def test_kd_kl_shape_and_temperature_errors(rng):
    with pytest.raises(ShapeMismatchError):
        kd_kl_loss(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))), 4.0)
    with pytest.raises(ConfigError):
        kd_kl_loss(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), 0.0)


def test_cross_entropy_confident_correct():
    got = cross_entropy_loss(Tensor([[10.0, -10.0]]), [0]).item()
    assert abs(got - 2.061e-9) < 2e-11


def test_cross_entropy_uniform_logits(rng):
    for c in (2, 5, 9):
        logits = np.zeros((3, c))
        got = cross_entropy_loss(Tensor(logits), [0] * 3).item()
        assert abs(got - math.log(c)) < 1e-12


def test_cross_entropy_vs_oracle(rng):
    logits = rng.uniform(-4, 4, (6, 7))
    labels = rng.integers(0, 7, 6)
    got = cross_entropy_loss(Tensor(logits), labels).item()
    assert abs(got - oracle.oracle_cross_entropy(logits, labels).value) < 1e-12


def test_cross_entropy_label_range():
    with pytest.raises(IndexOutOfRangeError):
        cross_entropy_loss(Tensor(np.zeros((2, 3))), [0, 3])


# -- total objective -----------------------------------------------------------

def build_total(rng, cfg, n=5, c=4, d=6):
    pair = make_pair(rng, n, d)
    s_logits = Tensor(rng.uniform(-2, 2, (n, c)))
    t_logits = Tensor(rng.uniform(-2, 2, (n, c)))
    labels = rng.integers(0, c, n)
    tau = temperature_parameters(cfg)
    return total_loss(s_logits, t_logits, labels, pair, tau, cfg), pair


def test_total_reduces_to_supervised(rng):
    cfg = DistillConfig(lambda_kl=0.0, beta=0.0)
    bd, _ = build_total(rng, cfg)
    assert bd.total.item() == bd.sup.item()
    assert bd.total.id == bd.sup.id  # not merely equal: the same graph node


def test_total_recomposition_identity(rng):
    cfg = DistillConfig()  # alpha 0.5, beta 1, lambda 1
    for _ in range(10):
        bd, pair = build_total(rng, cfg)
        contrast, consist = bd.contrast.item(), bd.consist.item()
        recomposed = bd.sup.item() + cfg.lambda_kl * bd.distill_kl.item() \
            + cfg.beta * (contrast + cfg.alpha * consist)
        assert abs(bd.total.item() - recomposed) < 1e-10
        assert abs(dcd_term(pair, cfg.tau_init, cfg) - (contrast + cfg.alpha * consist)) < 1e-12
        assert contrast >= 0.0
        assert consist >= -1e-12


def test_total_default_config_matches_shipped_defaults():
    cfg = DistillConfig()
    assert (cfg.alpha, cfg.beta, cfg.lambda_kl) == (0.5, 1.0, 1.0)
    assert cfg.proj_dim == 128
    assert cfg.tau_max == 10.0
    assert abs(cfg.tau_init - 2.65926) < 1e-5


# -- structural invariants -----------------------------------------------------

def test_permutation_equivariance(rng):
    for _ in range(5):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(2, 10))
        c = 5
        zs = unit_rows(rng, n, d)
        zt = unit_rows(rng, n, d)
        s_logits = rng.uniform(-2, 2, (n, c))
        t_logits = rng.uniform(-2, 2, (n, c))
        labels = rng.integers(0, c, n)
        perm = rng.permutation(n)
        cfg = DistillConfig()
        tau = temperature_parameters(cfg)
        bd1 = total_loss(Tensor(s_logits), Tensor(t_logits), labels,
                         EmbeddingPair(Tensor(zs), Tensor(zt)), tau, cfg)
        bd2 = total_loss(Tensor(s_logits[perm]), Tensor(t_logits[perm]), labels[perm],
                         EmbeddingPair(Tensor(zs[perm]), Tensor(zt[perm])), tau, cfg)
        for key in ("sup", "distill_kl", "contrast", "consist", "total"):
            assert abs(getattr(bd1, key).item() - getattr(bd2, key).item()) < 1e-10


def test_contrastive_bias_shift_invariance(rng):
    pair = make_pair(rng, 5, 6)
    a = contrastive_loss(pair, 1.4, 0.0).item()
    bshift = contrastive_loss(pair, 1.4, 0.9).item()
    assert abs(a - bshift) < 1e-12


def test_identity_matching_beats_row_permutations(rng):
    # with zs == zt and distinct rows the diagonal pairing is the minimizer
    for n in (3, 4, 5):
        z = unit_rows(rng, n, 6)
        base = contrastive_loss(EmbeddingPair(Tensor(z), Tensor(z.copy())),
                                TAU_FIXED, 0.0).item()
        for perm in itertools.permutations(range(n)):
            if perm == tuple(range(n)):
                continue
            permuted = contrastive_loss(EmbeddingPair(Tensor(z), Tensor(z[list(perm)])),
                                        TAU_FIXED, 0.0).item()
            assert base < permuted


def test_embedding_pair_validation(rng):
    with pytest.raises(ShapeMismatchError):
        EmbeddingPair(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))))


def test_config_validation():
    with pytest.raises(ConfigError):
        DistillConfig(alpha=-0.1)
    with pytest.raises(ConfigError):
        DistillConfig(tau_init=11.0)
    with pytest.raises(ConfigError):
        DistillConfig(kd_temperature=0.0)
    with pytest.raises(ConfigError):
        DistillConfig(proj_dim=0)


# -- bulk oracle equivalence ---------------------------------------------------

def test_oracle_equivalence_bulk(rng):
    """100 random instances across the full clamp range for every loss."""
    for _ in range(100):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(2, 17))
        zs = unit_rows(rng, n, d)
        zt = unit_rows(rng, n, d)
        tau = float(rng.uniform(0.0, 10.0))
        b = float(rng.uniform(-1.0, 1.0))
        pair = EmbeddingPair(Tensor(zs), Tensor(zt))
        assert loss_close(contrastive_loss(pair, tau, b).item(),
                          oracle.oracle_contrastive(zs, zt, tau, b).value)
        assert loss_close(consistency_loss(pair, tau, b).item(),
                          oracle.oracle_consistency(zs, zt, tau, b).value)
        c = int(rng.integers(2, 11))
        s_logits = rng.uniform(-4, 4, (n, c))
        t_logits = rng.uniform(-4, 4, (n, c))
        labels = rng.integers(0, c, n)
        assert loss_close(kd_kl_loss(Tensor(s_logits), Tensor(t_logits), 4.0).item(),
                          oracle.oracle_kd_kl(s_logits, t_logits, 4.0).value)
        assert loss_close(cross_entropy_loss(Tensor(s_logits), labels).item(),
                          oracle.oracle_cross_entropy(s_logits, labels).value)


def test_oracle_consistency_non_negative_sweep(rng):
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(2, 9))
        zs = unit_rows(rng, n, d)
        zt = unit_rows(rng, n, d)
        res = oracle.oracle_consistency(zs, zt, float(rng.uniform(0, 4)),
                                        float(rng.uniform(-1, 1)))
        assert res.value >= -1e-12


def test_oracle_per_instance_mean_invariant(rng):
    zs = unit_rows(rng, 6, 5)
    zt = unit_rows(rng, 6, 5)
    res = oracle.oracle_contrastive(zs, zt, 1.0, 0.1)
    assert abs(np.mean(res.per_instance) - res.value) < 1e-14

"""Loss terms for discriminative-and-consistent distillation.

The logit map is ``cos(z_i, z_j) * exp(tau) + b`` over student and
teacher projections, with a learnable temperature ``tau`` (clamped to
``[0, tau_max]`` by the optimizer) and a bias ``b``, which shifts every
logit of a row alike and so leaves each softmax unchanged: its gradient
is only roundoff, and training leaves it at ``b_init`` to ~1e-16.  The
contrastive term is cross-entropy of the student-anchored similarity
rows against the diagonal; the consistency term is the mean KL
divergence between student-anchored and teacher-anchored similarity
distributions.  All functions return tape-tracked scalar tensors, so a
single backward pass reaches the student network, both projection heads
and the two scalars.

Both embedding terms come from one private op, :func:`_embedding_terms`,
recorded as one tape node: it normalizes each side once (the only
normalization a training step does, since training passes the heads'
unnormalized outputs), builds one student-anchored cosine matrix, takes
the teacher-anchored logits as its transpose, shares one log-softmax per
anchor between the two terms, and has a hand-written backward.  A
student row of zero norm (a dead row) is divided by ``EPS`` instead of
raising, as torch's ``F.normalize`` does; a zero teacher row raises
:class:`DegenerateInputError`.  Every softmax here comes from one numpy
kernel, :func:`dcd.autodiff.softmax_rows`.  :func:`similarity_logits`,
:func:`student_distribution` and :func:`teacher_distribution` stay
composed from autodiff ops, as an in-package reference beside
:mod:`dcd.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import ConfigError, DomainError, IndexOutOfRangeError, ShapeMismatchError

# Multiplicative parameterization exp(tau) matching a fixed divisor
# temperature of 0.07, the conventional contrastive default.
TAU_INIT_DEFAULT = math.log(1.0 / 0.07)


@dataclass(frozen=True)
class DistillConfig:
    """Scalar hyperparameters of the combined objective and its schedule."""

    alpha: float = 0.5
    beta: float = 1.0
    lambda_kl: float = 1.0
    tau_init: float = TAU_INIT_DEFAULT
    b_init: float = 0.0
    tau_max: float = 10.0
    kd_temperature: float = 4.0
    proj_dim: int = 128
    learn_temperature: bool = True
    detach_consistency_target: bool = False

    def __post_init__(self):
        for name in ("alpha", "beta", "lambda_kl"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")
        for name in ("tau_max", "kd_temperature"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        if not math.isfinite(self.b_init):
            raise ConfigError(f"b_init must be finite, got {self.b_init}")
        if self.proj_dim < 1:
            raise ConfigError("proj_dim must be at least 1")
        if not 0.0 <= self.tau_init <= self.tau_max:
            raise ConfigError(f"tau_init must lie in [0, {self.tau_max}]")


def temperature_parameters(cfg: DistillConfig) -> tuple[Parameter, Parameter]:
    """Fresh (tau, b) scalars; tau carries the clamp interval, neither decays."""
    tau = Parameter(np.float64(cfg.tau_init), name="temperature.tau",
                    bounds=(0.0, cfg.tau_max), decay=False)
    b = Parameter(np.float64(cfg.b_init), name="temperature.b", decay=False)
    return tau, b


class EmbeddingPair:
    """Student/teacher projection batches of identical [N, D] shape.

    The rows need not have unit norm: every function here normalizes
    each side once.  The embedding terms send a zero student row to zero
    and raise :class:`DegenerateInputError` on a zero teacher row.
    Training passes the heads' unnormalized outputs.
    """

    def __init__(self, zs: Tensor, zt: Tensor):
        if zs.data.ndim != 2 or zt.data.ndim != 2:
            raise ShapeMismatchError("embedding batches must be matrices")
        if zs.shape != zt.shape:
            raise ShapeMismatchError(f"student/teacher shapes differ: {zs.shape} vs {zt.shape}")
        if zs.shape[0] < 1:
            raise ShapeMismatchError("embedding batch must contain at least one row")
        self.zs = zs
        self.zt = zt

    @property
    def n(self) -> int:
        return self.zs.shape[0]


def _scalar(x) -> Tensor:
    if isinstance(x, Parameter):
        return x.value
    if isinstance(x, Tensor):
        return x
    return Tensor(np.float64(x))


def _check_tau(tau) -> Tensor:
    if isinstance(tau, Parameter) and tau.bounds is not None:
        lo, hi = tau.bounds
        val = float(tau.value.data)
        if not lo <= val <= hi:
            raise ConfigError(f"temperature {val} outside clamp interval [{lo}, {hi}]")
    return _scalar(tau)


def similarity_logits(pair: EmbeddingPair, tau, b, anchor: str = "student") -> Tensor:
    """[N, N] logit matrix cos(anchor_i, other_j) * exp(tau) + b."""
    if anchor not in ("student", "teacher"):
        raise ConfigError(f"anchor must be 'student' or 'teacher', got {anchor!r}")
    tau_t = _check_tau(tau)
    b_t = _scalar(b)
    zs_n = ad.l2_normalize_rows(pair.zs)
    zt_n = ad.l2_normalize_rows(pair.zt)
    if anchor == "student":
        cos = ad.matmul(zs_n, ad.transpose(zt_n))
    else:
        cos = ad.matmul(zt_n, ad.transpose(zs_n))
    return ad.add(ad.mul(cos, ad.exp(tau_t)), b_t)


def student_distribution(pair: EmbeddingPair, tau, b) -> Tensor:
    """Row-stochastic matrix: softmax over student-anchored similarity rows."""
    return ad.exp(ad.log_softmax_rows(similarity_logits(pair, tau, b, anchor="student")))


def teacher_distribution(pair: EmbeddingPair, tau, b) -> Tensor:
    """Row-stochastic matrix: softmax over teacher-anchored similarity rows."""
    return ad.exp(ad.log_softmax_rows(similarity_logits(pair, tau, b, anchor="teacher")))


def _embedding_terms(pair: EmbeddingPair, tau, b, weights: tuple[float, float],
                     detach_target: bool = False) -> tuple[Tensor, float, float]:
    """``(weights[0] * contrast + weights[1] * consist, contrast, consist)``,
    the first as one tape node over ``zs``, ``zt``, ``tau`` and ``b``.

    ``L = cos(zs, zt) * exp(tau) + b`` holds the student-anchored logits and
    ``L.T`` the teacher-anchored ones.  With ``ls``/``lt`` their row
    log-softmaxes and ``P = exp(ls)``, ``Q = exp(lt)``, the gradient wrt
    ``L`` is ``(P - I) / N`` for the contrast and
    ``(P * (D - rowsum(P * D)) + (Q - P).T) / N`` for the consistency, where
    ``D = ls - lt``; ``detach_target`` drops the ``(Q - P).T`` part, which
    comes through the teacher-anchored side.
    """
    tau_t, b_t = _check_tau(tau), _scalar(b)
    w_contrast, w_consist = weights
    zs, s_norms, s_clamped = ad.unit_rows(pair.zs.data, clamp=True)
    zt, t_norms, _ = ad.unit_rows(pair.zt.data, clamp=False)
    e = np.exp(tau_t.data)
    cos = zs @ zt.T
    logits = cos * e
    logits += b_t.data
    if not np.isfinite(logits).all():
        raise DomainError("embedding similarity logits must be finite")
    n = pair.n
    ls, p = ad.softmax_rows(logits)
    lt, q = ad.softmax_rows(logits.T)
    gap = ls - lt
    p_gap = p * gap
    contrast = float(-np.trace(ls) / n)
    consist = float(p_gap.sum() / n)

    def bwd(g):
        g_logits = p * w_contrast
        g_logits.flat[::n + 1] -= w_contrast
        if w_consist:
            g_consist = gap - p_gap.sum(axis=1, keepdims=True)
            g_consist *= p
            if not detach_target:
                g_consist += (q - p).T
            g_consist *= w_consist
            g_logits += g_consist
        g_logits *= g / n
        g_cos = g_logits * e
        return (ad.unit_rows_backward(g_cos @ zt, zs, s_norms, s_clamped),
                ad.unit_rows_backward(g_cos.T @ zs, zt, t_norms, None),
                np.asarray((g_cos * cos).sum()), np.asarray(g_logits.sum()))

    value = np.asarray(w_contrast * contrast + w_consist * consist)
    return ad._emit("embedding_terms", (pair.zs, pair.zt, tau_t, b_t), value, bwd), \
        contrast, consist


def contrastive_loss(pair: EmbeddingPair, tau, b) -> Tensor:
    """Each student row must select its own teacher row among the batch."""
    return _embedding_terms(pair, tau, b, (1.0, 0.0))[0]


def consistency_loss(pair: EmbeddingPair, tau, b, detach_target: bool = False) -> Tensor:
    """Mean KL between student-anchored and teacher-anchored distributions.

    With ``detach_target`` the teacher-anchored distribution is treated
    as a constant target; by default gradients flow through both sides.
    """
    return _embedding_terms(pair, tau, b, (0.0, 1.0), detach_target)[0]


def kd_kl_loss(student_logits: Tensor, teacher_logits, temperature: float) -> Tensor:
    """T^2-scaled mean KL(teacher_T || student_T); the teacher side is constant."""
    t = float(temperature)
    if t <= 0:
        raise ConfigError("kd temperature must be positive")
    t_data = teacher_logits.data if isinstance(teacher_logits, Tensor) else np.asarray(
        teacher_logits, dtype=np.float64)
    if student_logits.data.ndim != 2 or t_data.shape != student_logits.shape:
        raise ShapeMismatchError(
            f"logit shapes differ: {student_logits.shape} vs {t_data.shape}")
    n = student_logits.shape[0]
    t_log_p, t_p = ad.softmax_rows(t_data / t)
    s_lsm = ad.log_softmax_rows(ad.scale(student_logits, 1.0 / t))
    per = ad.mul(Tensor(t_p), ad.sub(Tensor(t_log_p), s_lsm))
    return ad.scale(ad.tsum(per), t * t / n)


def cross_entropy_loss(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax at the true label of each row."""
    if logits.data.ndim != 2:
        raise ShapeMismatchError(f"cross_entropy expects [N, C] logits, got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeMismatchError(f"expected {n} labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise IndexOutOfRangeError(f"label outside [0, {c})")
    picked = np.zeros((n, c))
    picked[np.arange(n), labels] = -1.0
    lsm = ad.log_softmax_rows(logits)
    return ad.scale(ad.tsum(ad.mul(lsm, Tensor(picked))), 1.0 / n)


@dataclass
class LossBreakdown:
    """Per-term scalar tensors of the combined objective."""

    sup: Tensor
    distill_kl: Tensor
    contrast: Tensor
    consist: Tensor
    kd: Tensor
    total: Tensor

    def as_floats(self) -> dict[str, float]:
        return {
            "sup": self.sup.item(),
            "distill_kl": self.distill_kl.item(),
            "contrast": self.contrast.item(),
            "consist": self.consist.item(),
            "kd": self.kd.item(),
            "total": self.total.item(),
        }


def total_loss(student_logits: Tensor, teacher_logits, labels, pair: EmbeddingPair | None,
               tau, b, cfg: DistillConfig) -> LossBreakdown:
    """Supervised CE + lambda * plain KD KL + beta * (contrast + alpha * consist).

    Zero-weighted terms are still evaluated for logging but excluded
    from the total's graph, so e.g. beta=0, lambda=0 optimizes exactly
    the supervised loss.  ``pair=None`` (allowed only at beta=0) skips
    the embedding terms, which then read zero.
    """
    sup = cross_entropy_loss(student_logits, labels)
    distill_kl = kd_kl_loss(student_logits, teacher_logits, cfg.kd_temperature)
    if pair is None:
        if cfg.beta != 0.0:
            raise ConfigError(f"beta={cfg.beta} needs an embedding pair")
        contrast = consist = kd = Tensor(0.0)
    else:
        kd, contrast, consist = _embedding_terms(pair, tau, b, (1.0, cfg.alpha),
                                                 cfg.detach_consistency_target)
        contrast, consist = Tensor(contrast), Tensor(consist)
    total = sup
    if cfg.lambda_kl != 0.0:
        total = ad.add(total, ad.scale(distill_kl, cfg.lambda_kl))
    if cfg.beta != 0.0:
        total = ad.add(total, ad.scale(kd, cfg.beta))
    return LossBreakdown(sup, distill_kl, contrast, consist, kd, total)

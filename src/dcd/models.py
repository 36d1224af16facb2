"""Compact teacher/student networks and the shared projection heads.

Two families: plain ReLU MLPs and small ConvNets (3x3 conv -> 2x2
max-pool -> ReLU per block, global average pooling, linear classifier).
Max is monotone and ReLU is ``fmax(., 0)``, so pooling first gives the
same values as conv -> ReLU -> pool, with the ReLU on a 4x smaller
tensor.  Each block is one op, :func:`autodiff.conv_block`, which pools
every chunk of samples right after its conv, so the full-size conv
output and its gradient exist one chunk at a time.  No batch
normalization anywhere, so forward passes are pure functions of the
weights and finite-difference checks stay exact.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import ConfigError, ShapeMismatchError


@dataclass(frozen=True)
class ModelSpec:
    family: str                # "mlp" | "convnet"
    widths: tuple[int, ...]    # hidden widths (mlp) or block channels (convnet)
    num_classes: int
    in_shape: tuple[int, ...]  # (C, H, W)

    def __post_init__(self):
        if self.family not in MODEL_CLASSES:
            raise ConfigError(f"unknown model family {self.family!r}")
        if not self.widths or any(w < 1 for w in self.widths):
            raise ConfigError("widths must be non-empty and positive")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be at least 2")
        if len(self.in_shape) != 3 or any(s < 1 for s in self.in_shape):
            raise ConfigError("in_shape must be (channels, height, width)")
        if self.family == "convnet" and min(self.in_shape[1:]) < 2 ** len(self.widths):
            raise ConfigError("input too small for the requested number of pooling stages")

    @property
    def feature_dim(self) -> int:
        return self.widths[-1]

    @property
    def in_dim(self) -> int:
        c, h, w = self.in_shape
        return c * h * w

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        """The spec that ``asdict`` gave; its counts must be integers."""
        return cls(d["family"], tuple(map(operator.index, d["widths"])),
                   operator.index(d["num_classes"]), tuple(map(operator.index, d["in_shape"])))


def _kaiming_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


ParamSource = Callable[[str, tuple[int, ...], int | None], Parameter]  # (name, shape, fan_in)


class Mlp:
    def __init__(self, spec: ModelSpec, param: ParamSource):
        self.spec = spec
        self.layers: list[tuple[Parameter, Parameter]] = []
        d = spec.in_dim
        for i, width in enumerate(spec.widths):
            self.layers.append((param(f"model.layer{i}.weight", (d, width), d),
                                param(f"model.layer{i}.bias", (width,), None)))
            d = width
        self.cls_w = param("model.classifier.weight", (d, spec.num_classes), d)
        self.cls_b = param("model.classifier.bias", (spec.num_classes,), None)

    def parameters(self) -> list[Parameter]:
        out = []
        for w, b in self.layers:
            out.extend((w, b))
        out.extend((self.cls_w, self.cls_b))
        return out

    def forward(self, images: Tensor) -> tuple[Tensor, Tensor]:
        if images.shape[1:] != self.spec.in_shape:
            raise ShapeMismatchError(
                f"expects inputs of shape {self.spec.in_shape}, got {images.shape[1:]}")
        h = ad.reshape(images, (images.shape[0], self.spec.in_dim))
        for w, b in self.layers:
            h = ad.relu(ad.add_rowvec(ad.matmul(h, w.value), b.value))
        logits = ad.add_rowvec(ad.matmul(h, self.cls_w.value), self.cls_b.value)
        return h, logits


class ConvNet:
    def __init__(self, spec: ModelSpec, param: ParamSource):
        self.spec = spec
        self.kernels: list[Parameter] = []
        c = spec.in_shape[0]
        for i, f in enumerate(spec.widths):
            self.kernels.append(param(f"model.block{i}.kernel", (f, c, 3, 3), c * 9))
            c = f
        self.cls_w = param("model.classifier.weight", (c, spec.num_classes), c)
        self.cls_b = param("model.classifier.bias", (spec.num_classes,), None)

    def parameters(self) -> list[Parameter]:
        return [*self.kernels, self.cls_w, self.cls_b]

    def forward(self, images: Tensor) -> tuple[Tensor, Tensor]:
        if images.shape[1:] != self.spec.in_shape:
            raise ShapeMismatchError(
                f"expects inputs of shape {self.spec.in_shape}, got {images.shape[1:]}")
        h = images
        for k in self.kernels:
            h = ad.conv_block(h, k.value)
        features = ad.avgpool2d(h)
        logits = ad.add_rowvec(ad.matmul(features, self.cls_w.value), self.cls_b.value)
        return features, logits


Model = Mlp | ConvNet
MODEL_CLASSES = {"mlp": Mlp, "convnet": ConvNet}  # ModelSpec.family -> class


def init_weights(spec: ModelSpec, seed: int) -> Model:
    """Build a model with Kaiming-uniform fan-in weights, reproducible per seed.

    Draw order is fixed (layer by layer, weights only; a bias has no
    ``fan_in`` and starts at zero), so equal seeds give bitwise-equal weights.
    """
    rng = np.random.default_rng(seed)

    def draw(name: str, shape: tuple[int, ...], fan_in: int | None) -> Parameter:
        value = np.zeros(shape) if fan_in is None else _kaiming_uniform(rng, shape, fan_in)
        return Parameter(value, name=name)
    return MODEL_CLASSES[spec.family](spec, draw)


@dataclass
class ProjectionHead:
    """Bias-free linear map onto the shared unit hypersphere."""

    weight: Parameter
    owner: str  # "student" | "teacher"

    @classmethod
    def create(cls, feature_dim: int, proj_dim: int, owner: str, seed) -> "ProjectionHead":
        rng = np.random.default_rng(seed)
        w = Parameter(_kaiming_uniform(rng, (feature_dim, proj_dim), feature_dim),
                      name=f"head.{owner}.weight")
        return cls(w, owner)

    def __call__(self, features: Tensor) -> Tensor:
        """The unnormalized projection ``features @ weight``, which training
        feeds to the embedding loss; the loss normalizes its rows."""
        if features.data.ndim != 2 or features.shape[1] != self.weight.value.shape[0]:
            raise ShapeMismatchError(
                f"features {features.shape} do not match head {self.weight.value.shape}")
        return ad.matmul(features, self.weight.value)


def project(head: ProjectionHead, features: Tensor) -> Tensor:
    """Row-normalized projection of penultimate features, as exported and
    verified; a row that projects to (near-)zero norm raises
    :class:`DegenerateInputError`."""
    return ad.l2_normalize_rows(head(features))


# Shipped capacity recipes: the student halves (convnet) or quarters (mlp)
# every width of its teacher.
def convnet_pair(in_shape: tuple[int, int, int], num_classes: int) -> tuple[ModelSpec, ModelSpec]:
    teacher = ModelSpec("convnet", (32, 64, 128), num_classes, in_shape)
    student = ModelSpec("convnet", (16, 32, 64), num_classes, in_shape)
    return teacher, student


def mlp_pair(in_shape: tuple[int, int, int], num_classes: int) -> tuple[ModelSpec, ModelSpec]:
    teacher = ModelSpec("mlp", (512, 512), num_classes, in_shape)
    student = ModelSpec("mlp", (128, 128), num_classes, in_shape)
    return teacher, student

"""Discriminative and consistent knowledge distillation at desk scale.

A self-contained framework: float64 tensors with reverse-mode autodiff,
in-batch contrastive alignment of student/teacher projections with a
relational-consistency KL regularizer and learnable temperature,
compact MLP/ConvNet model families, bit-exact dataset parsers, an SGD
trainer with checkpointing, and evaluation/verification tooling.
"""

from .autodiff import Parameter, Tape, Tensor
from .data import Batch, BatchPlan, Dataset, batches, parse_cifar10, parse_cifar100, \
    parse_mnist_idx, synth_blobs
from .losses import DistillConfig, EmbeddingPair, LossBreakdown, contrastive_loss, \
    consistency_loss, cross_entropy_loss, kd_kl_loss, similarity_logits, \
    student_distribution, teacher_distribution, temperature_parameters, total_loss
from .metrics import negative_buffer_bytes, relative_improvement, top1_accuracy
from .models import ModelSpec, ProjectionHead, init_weights, project
from .train import Checkpoint, OptimSpec, distill, load_checkpoint, save_checkpoint, \
    sgd_step, train_teacher

__all__ = [
    "Batch", "BatchPlan", "Checkpoint", "Dataset", "DistillConfig", "EmbeddingPair",
    "LossBreakdown", "ModelSpec", "OptimSpec", "Parameter", "ProjectionHead", "Tape",
    "Tensor", "batches", "consistency_loss", "contrastive_loss", "cross_entropy_loss",
    "distill", "init_weights", "kd_kl_loss", "load_checkpoint",
    "negative_buffer_bytes", "parse_cifar10", "parse_cifar100", "parse_mnist_idx",
    "project", "relative_improvement", "save_checkpoint", "sgd_step", "similarity_logits",
    "student_distribution", "synth_blobs", "teacher_distribution",
    "temperature_parameters", "top1_accuracy", "total_loss", "train_teacher",
]

__version__ = "0.1.0"

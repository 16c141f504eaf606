"""Desk-scale classifiers: a deployed source model and its pruned variant.

Both are plain MLPs split into a feature extractor (FE) and a single linear
classifier layer (FC). The pruned variant drops low-norm hidden units from
the FE, gets a fresh classifier, and is briefly finetuned on the source data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LabelError, NumericError, ShapeError
from .numerics import (
    F32,
    Activation,
    Adam,
    DenseLayer,
    FlatParams,
    LrSchedule,
    SgdMomentum,
    check_finite,
    derive_rng,
    set_stack_params,
    softmax_xent,
    stack_backward,
    stack_forward,
    stack_pairs,
    stack_params,
    stage_key,
)


@dataclass
class ActivationBatch:
    """Rows of feature-space activations, optionally labeled."""

    features: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ShapeError(f"features must be 2-D, got {self.features.shape}")
        check_finite("activation features", self.features)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.features.shape[0],):
                raise ShapeError(
                    f"labels shape {self.labels.shape} does not match "
                    f"{self.features.shape[0]} rows"
                )

    def __len__(self) -> int:
        return self.features.shape[0]


# ---------------------------------------------------------------------------
# Synthetic dataset
# ---------------------------------------------------------------------------


@dataclass
class DatasetSpec:
    num_classes: int = 20
    input_dim: int = 32
    train_per_class: int = 200
    val_per_class: int = 50
    class_mean_scale: float = 1.0
    within_class_sigma: float = 0.8
    seed: int = 0


@dataclass
class LabeledDataset:
    spec: DatasetSpec
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    class_means: np.ndarray


def class_means_for(spec: DatasetSpec) -> np.ndarray:
    """The seeded per-class means, recomputable without the samples."""
    means_rng = derive_rng(spec.seed, stage_key("class-means"))
    return (spec.class_mean_scale
            * means_rng.standard_normal((spec.num_classes, spec.input_dim))).astype(F32)


def synth_dataset(spec: DatasetSpec) -> LabeledDataset:
    """Gaussian-mixture inputs: one seeded mean per class, isotropic noise."""
    if spec.num_classes < 2 or spec.input_dim < 2:
        raise ShapeError("need at least 2 classes and 2 input dimensions")
    if spec.within_class_sigma <= 0:
        raise ValueError("within_class_sigma must be > 0")
    means = class_means_for(spec)
    train_parts, val_parts = [], []
    for c in range(spec.num_classes):
        rng = derive_rng(spec.seed, stage_key("class-samples"), c)
        n = spec.train_per_class + spec.val_per_class
        rows = means[c] + spec.within_class_sigma * rng.standard_normal((n, spec.input_dim))
        train_parts.append(rows[: spec.train_per_class].astype(F32))
        val_parts.append(rows[spec.train_per_class:].astype(F32))
    train_x = np.concatenate(train_parts)
    val_x = np.concatenate(val_parts)
    train_y = np.repeat(np.arange(spec.num_classes), spec.train_per_class)
    val_y = np.repeat(np.arange(spec.num_classes), spec.val_per_class)
    return LabeledDataset(spec, train_x, train_y, val_x, val_y, means)


# ---------------------------------------------------------------------------
# MLP model
# ---------------------------------------------------------------------------


@dataclass
class ModelMeta:
    prune_fraction: float
    num_classes: int
    activation_dim: int


class MlpModel:
    """Feature extractor plus one identity-activation linear classifier.

    feature_boundary indexes the first classifier layer; everything before it
    is the FE. The classifier is always exactly one layer of shape
    [num_classes x activation_dim].
    """

    def __init__(self, layers: list[DenseLayer], feature_boundary: int, meta: ModelMeta):
        if feature_boundary != len(layers) - 1:
            raise ShapeError("classifier must be exactly the final layer")
        fc = layers[-1]
        if fc.activation != Activation.IDENTITY:
            raise ShapeError("classifier layer must have identity activation")
        if fc.out_dim != meta.num_classes or fc.in_dim != meta.activation_dim:
            raise ShapeError(
                f"classifier shape [{fc.out_dim} x {fc.in_dim}] does not match "
                f"metadata [{meta.num_classes} x {meta.activation_dim}]"
            )
        for a, b in zip(layers, layers[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeError(f"layer widths do not chain: {a.out_dim} -> {b.in_dim}")
        self.layers = layers
        self.feature_boundary = feature_boundary
        self.meta = meta

    @property
    def fe_layers(self) -> list[DenseLayer]:
        return self.layers[: self.feature_boundary]

    @property
    def fc_layer(self) -> DenseLayer:
        return self.layers[-1]

    def features(self, x: np.ndarray) -> np.ndarray:
        return stack_forward(self.fe_layers, x, keep=False)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return stack_forward(self.layers, x, keep=False)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.forward(x), axis=1)

    def named_params(self) -> dict[str, np.ndarray]:
        return stack_params(self.layers)

    def set_params(self, params: dict[str, np.ndarray]) -> None:
        set_stack_params(self.layers, params)


def extract_activations(model: MlpModel, inputs: np.ndarray,
                        labels: np.ndarray | None = None) -> ActivationBatch:
    """Forward through the FE only."""
    feats = model.features(inputs)
    return ActivationBatch(feats, labels=labels)


def model_memory_bytes(model) -> int:
    """Exact f32 storage of every weight and bias: 4 bytes per parameter."""
    return 4 * sum(p.size for p in model.named_params().values())


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TrainHyper:
    epochs: int
    batch_size: int
    lr: float
    lr_step_epochs: int = 0
    lr_gamma: float = 1.0
    optimizer: str = "adam"
    momentum: float = 0.9


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_accuracy: float
    val_accuracy: float | None = None


def _make_optimizer(hyper: TrainHyper):
    schedule = LrSchedule(hyper.lr, hyper.lr_step_epochs, hyper.lr_gamma)
    if hyper.optimizer == "adam":
        return Adam(schedule)
    if hyper.optimizer == "sgd":
        return SgdMomentum(schedule, momentum=hyper.momentum)
    raise ValueError(f"unknown optimizer '{hyper.optimizer}'")


def train_softmax_stack(layers: list[DenseLayer], x: np.ndarray, y: np.ndarray,
                        hyper: TrainHyper, seed: int,
                        val: tuple[np.ndarray, np.ndarray] | None = None) -> list[EpochStats]:
    """Minibatch cross-entropy training of a layer stack, in place.

    Shuffles per epoch with a seed-derived stream, keeps the final partial
    batch, and skips all updates when lr == 0 so a zero rate is exactly a
    no-op.
    """
    y = np.asarray(y)
    n = x.shape[0]
    if y.shape != (n,):
        raise ShapeError(f"labels shape {y.shape} does not match {n} rows")
    if y.size and (y.min() < 0 or y.max() >= layers[-1].out_dim):
        raise LabelError(f"label out of range [0, {layers[-1].out_dim})")
    optimizer = _make_optimizer(hyper) if hyper.lr > 0 else None
    flat = FlatParams(stack_params(layers))
    set_stack_params(layers, flat.views)
    grads = stack_pairs(flat.grad_views, len(layers))
    rng = derive_rng(seed, stage_key("shuffle"))
    pred = np.empty(n, dtype=np.intp)
    log = []
    for epoch in range(hyper.epochs):
        perm = rng.permutation(n)
        losses = []
        for start in range(0, n, hyper.batch_size):
            end = start + hyper.batch_size
            idx = perm[start:end]
            by = y[idx]
            logits = stack_forward(layers, x[idx], keep=optimizer is not None)
            loss, grad = softmax_xent(logits, by)
            if not math.isfinite(loss):
                raise NumericError(f"non-finite loss at epoch {epoch}, batch {start // hyper.batch_size}")
            np.argmax(logits, axis=1, out=pred[start:end])
            losses.append(loss * len(by))
            if optimizer is not None:
                stack_backward(layers, grad, need_input_grad=False, out=grads)
                flat.step(optimizer, epoch)
        hits = int(np.count_nonzero(pred == y[perm]))
        val_acc = None
        if val is not None:
            val_logits = stack_forward(layers, val[0], keep=False)
            val_acc = float((np.argmax(val_logits, axis=1) == val[1]).mean())
        log.append(EpochStats(epoch, sum(losses) / n, hits / n, val_acc))
    return log


DEFAULT_FEATURE_WIDTHS = (64, 32, 16)
DEFAULT_SOURCE_HYPER = TrainHyper(epochs=15, batch_size=64, lr=1e-3)


def build_mlp(rng: np.random.Generator, input_dim: int, feature_widths: tuple[int, ...],
              num_classes: int, prune_fraction: float = 0.0) -> MlpModel:
    layers = []
    in_dim = input_dim
    for width in feature_widths:
        layers.append(DenseLayer.create(rng, in_dim, width, Activation.RELU))
        in_dim = width
    layers.append(DenseLayer.create(rng, in_dim, num_classes, Activation.IDENTITY))
    meta = ModelMeta(prune_fraction, num_classes, feature_widths[-1])
    return MlpModel(layers, len(layers) - 1, meta)


def train_source_model(dataset: LabeledDataset, feature_widths: tuple[int, ...] = DEFAULT_FEATURE_WIDTHS,
                       hyper: TrainHyper = DEFAULT_SOURCE_HYPER,
                       seed: int = 0) -> tuple[MlpModel, list[EpochStats]]:
    """Train the deployed model on the full source dataset."""
    rng = derive_rng(seed, stage_key("source-init"))
    model = build_mlp(rng, dataset.spec.input_dim, tuple(feature_widths),
                      dataset.spec.num_classes)
    log = train_softmax_stack(model.layers, dataset.train_x, dataset.train_y, hyper,
                              seed=seed, val=(dataset.val_x, dataset.val_y))
    return model, log


DEFAULT_FINETUNE_HYPER = TrainHyper(epochs=5, batch_size=64, lr=1e-3)


def prune_model(m0: MlpModel, fraction: float, dataset: LabeledDataset,
                finetune_hyper: TrainHyper = DEFAULT_FINETUNE_HYPER,
                seed: int = 0) -> MlpModel:
    """Magnitude-prune the FE, attach a fresh classifier, briefly finetune.

    Each FE layer before the activation layer loses its floor(fraction*width)
    lowest-L2-norm units, with the following layer rewired to match. The
    activation layer keeps its width so the downstream activation space stays
    fixed.
    """
    if not (0 <= fraction < 1):
        raise ValueError(f"prune fraction must lie in [0, 1), got {fraction}")
    rng = derive_rng(seed, stage_key("prune-init"))
    new_layers = []
    carry = None  # indices kept in the previous layer's output
    for li, layer in enumerate(m0.fe_layers):
        weight = layer.weight.copy()
        bias = layer.bias.copy()
        if carry is not None:
            weight = weight[:, carry]
        is_last_fe = li == len(m0.fe_layers) - 1
        if is_last_fe:
            carry = None
        else:
            width = layer.out_dim
            drop = int(fraction * width)
            remaining = width - drop
            if remaining < 2:
                raise ShapeError(
                    f"pruning {fraction} of width {width} leaves {remaining} units"
                )
            norms = np.linalg.norm(weight, axis=1)
            keep = np.sort(np.argsort(norms)[drop:])
            weight = weight[keep]
            bias = bias[keep]
            carry = keep
        new_layers.append(DenseLayer(weight, bias, layer.activation))
    act_dim = new_layers[-1].out_dim
    fc = DenseLayer.create(rng, act_dim, m0.meta.num_classes, Activation.IDENTITY)
    meta = ModelMeta(fraction, m0.meta.num_classes, act_dim)
    mp = MlpModel(new_layers + [fc], len(new_layers), meta)
    train_softmax_stack(mp.layers, dataset.train_x, dataset.train_y, finetune_hyper, seed=seed)
    return mp

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
    softmax_xent,
    stack_backward,
    stack_forward,
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
    return LabeledDataset(spec, train_x, train_y, val_x, val_y)


# ---------------------------------------------------------------------------
# MLP model
# ---------------------------------------------------------------------------


class MlpModel:
    """Feature extractor plus one identity-activation linear classifier: the
    final layer, whose shape [num_classes x activation_dim] is the model's."""

    def __init__(self, layers: list[DenseLayer], prune_fraction: float = 0.0):
        if layers[-1].activation != Activation.IDENTITY:
            raise ShapeError("classifier layer must have identity activation")
        for a, b in zip(layers, layers[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeError(f"layer widths do not chain: {a.out_dim} -> {b.in_dim}")
        self.layers = layers
        self.prune_fraction = prune_fraction

    @property
    def fe_layers(self) -> list[DenseLayer]:
        return self.layers[:-1]

    @property
    def fc_layer(self) -> DenseLayer:
        return self.layers[-1]

    @property
    def num_classes(self) -> int:
        return self.fc_layer.out_dim

    @property
    def activation_dim(self) -> int:
        return self.fc_layer.in_dim

    def features(self, x: np.ndarray) -> np.ndarray:
        return stack_forward(self.fe_layers, x, keep=False)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return stack_forward(self.layers, x, keep=False)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.forward(x), axis=-1)

    def named_params(self) -> dict[str, np.ndarray]:
        return stack_params(self.layers)


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
                        hyper: TrainHyper, seed,
                        val: tuple[np.ndarray, np.ndarray] | None = None):
    """Minibatch cross-entropy training of a layer stack, in place.

    Shuffles per epoch with a seed-derived stream, keeps the final partial
    batch, and skips all updates when lr == 0 so a zero rate is exactly a
    no-op. Returns one EpochStats per epoch.

    With a leading stack axis, K runs of one shape and one hyper train in
    lockstep: layers of stacked weights [K x out x in], x [K x n x d], y
    [K x n], one seed per run in seed, and one list of EpochStats per run
    returned. Each run rounds every float as it would alone. val's inputs
    are then either shared, [m x d], or one set per run, [K x m x d].
    """
    y = np.asarray(y)
    seeds = [seed] if x.ndim == 2 else list(seed)
    n = x.shape[-2]
    if n == 0:
        raise ValueError("no rows to train on")
    if not hyper.lr >= 0:
        # a nan rate would otherwise skip every update below yet log each epoch
        raise ValueError(f"learning rate {hyper.lr} is not >= 0")
    if y.shape != x.shape[:-1]:
        raise ShapeError(f"labels shape {y.shape} does not match {x.shape[:-1]} rows")
    if x.ndim == 3 and len(seeds) != x.shape[0]:
        raise ValueError(f"{len(seeds)} seeds for {x.shape[0]} stacked runs")
    if y.min() < 0 or y.max() >= layers[-1].out_dim:
        raise LabelError(f"label out of range [0, {layers[-1].out_dim})")
    optimizer = _make_optimizer(hyper) if hyper.lr > 0 else None
    flat = FlatParams(layers)
    rngs = [derive_rng(s, stage_key("shuffle")) for s in seeds]
    # the flat row index of each run's first row, so that one take per epoch
    # gathers every run's rows in its shuffled order
    first = np.arange(0, y.size, n).reshape(y.shape[:-1] + (1,))
    starts = range(0, n, hyper.batch_size)
    sizes = np.array([min(hyper.batch_size, n - start) for start in starts], dtype=np.float64)
    batch_loss = np.empty((len(starts), len(seeds)), dtype=F32)
    pred = np.empty(y.shape, dtype=np.intp)
    logs = [[] for _ in seeds]
    for epoch in range(hyper.epochs):
        rows = np.stack([rng.permutation(n) for rng in rngs]).reshape(y.shape) + first
        xs = x.reshape(-1, x.shape[-1]).take(rows, axis=0)
        ys = y.reshape(-1).take(rows)
        for i, start in enumerate(starts):
            end = start + hyper.batch_size
            logits = stack_forward(layers, xs[..., start:end, :], keep=optimizer is not None)
            batch_loss[i], grad, pred[..., start:end] = softmax_xent(logits, ys[..., start:end])
            # a float sum of float32 losses cannot overflow: it is finite
            # exactly when every run's loss is
            if not math.isfinite(sum(batch_loss[i].tolist())):
                raise NumericError(f"non-finite loss at epoch {epoch}, batch {i}")
            if optimizer is not None:
                stack_backward(layers, grad, need_input_grad=False, out=flat.grads)
                flat.step(optimizer, epoch)
        hits = np.count_nonzero(pred == ys, axis=-1).reshape(-1).tolist()
        # per run, the float sum of loss * batch rows, added in batch order
        weighted = (batch_loss * sizes[:, None]).T.tolist()
        val_acc = [None] * len(seeds)
        if val is not None:
            val_logits = stack_forward(layers, val[0], keep=False)
            hit_rate = (np.argmax(val_logits, axis=-1) == val[1]).mean(axis=-1)
            val_acc = hit_rate.reshape(-1).tolist()
        for log, loss_sum, hit, acc in zip(logs, weighted, hits, val_acc):
            log.append(EpochStats(epoch, sum(loss_sum) / n, hit / n, acc))
    return logs[0] if x.ndim == 2 else logs


DEFAULT_FEATURE_WIDTHS = (64, 32, 16)
DEFAULT_SOURCE_HYPER = TrainHyper(epochs=15, batch_size=64, lr=1e-3)


def build_mlp(rng: np.random.Generator, input_dim: int, feature_widths: tuple[int, ...],
              num_classes: int) -> MlpModel:
    layers = []
    in_dim = input_dim
    for width in feature_widths:
        layers.append(DenseLayer.create(rng, in_dim, width, Activation.RELU))
        in_dim = width
    layers.append(DenseLayer.create(rng, in_dim, num_classes, Activation.IDENTITY))
    return MlpModel(layers)


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
    fc = DenseLayer.create(rng, new_layers[-1].out_dim, m0.num_classes, Activation.IDENTITY)
    mp = MlpModel(new_layers + [fc], fraction)
    train_softmax_stack(mp.layers, dataset.train_x, dataset.train_y, finetune_hyper, seed=seed)
    return mp

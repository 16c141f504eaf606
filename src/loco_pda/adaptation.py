"""Deployment-time adaptation: estimate the observed label subspace from the
deployed model's predictions, generate a class-proportional activation pool,
and retrain the pruned model's classifier on it. Also the storage-budgeted
baseline that retrains on real stored feature rows, and the paired label-noise
experiment comparing how the two degrade.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .cvae import CvaeModel, UncondVaePack, generate_activations, generate_uncond
from .errors import ConfigError, LabelError
from .models import (
    ActivationBatch,
    LabeledDataset,
    MlpModel,
    TrainHyper,
    extract_activations,
    train_softmax_stack,
)
from .numerics import DenseLayer, derive_rng, stage_key


class LabelMode(Enum):
    GROUND_TRUTH = "ground-truth"
    ESTIMATED = "estimated"


@dataclass
class ClassDistribution:
    """Estimated probability of each class appearing in the observed stream."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 1:
            raise ValueError(f"probs must be 1-D, got shape {self.probs.shape}")
        if (self.probs < 0).any():
            raise ValueError("probabilities must be nonnegative")
        total = float(self.probs.sum())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"probabilities sum to {total}, expected 1")

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.probs > 0)

    @classmethod
    def from_labels(cls, labels: np.ndarray, num_classes: int) -> "ClassDistribution":
        labels = np.asarray(labels)
        if labels.size == 0:
            raise ValueError("empty observation stream")
        if labels.min() < 0 or labels.max() >= num_classes:
            raise LabelError(f"label out of range [0, {num_classes})")
        counts = np.bincount(labels, minlength=num_classes)
        return cls(counts / labels.size)

    @classmethod
    def point_mass(cls, cls_index: int, num_classes: int) -> "ClassDistribution":
        probs = np.zeros(num_classes)
        probs[cls_index] = 1.0
        return cls(probs)


def estimate_domain(m0: MlpModel, observed) -> ClassDistribution:
    """Frequency of each argmax prediction of the deployed model.

    observed may be one input matrix or an iterable of them (a stream);
    counting is identical either way.
    """
    if isinstance(observed, np.ndarray):
        observed = [observed]
    counts = np.zeros(m0.meta.num_classes, dtype=np.int64)
    total = 0
    for chunk in observed:
        if chunk.shape[0] == 0:
            continue
        preds = m0.predict(chunk)
        counts += np.bincount(preds, minlength=m0.meta.num_classes)
        total += chunk.shape[0]
    if total == 0:
        raise ValueError("empty observation stream")
    return ClassDistribution(counts / total)


def allocate_counts(dist: ClassDistribution, total: int) -> np.ndarray:
    """Apportion `total` rows across classes in proportion to dist.

    Deterministic largest-remainder rounding: floor(total * p) per class, then
    one extra each to the largest remainders (ties to the lowest class index)
    until the counts sum to total. Zero-probability classes never receive a
    row.
    """
    if total < 1:
        raise ValueError("total must be >= 1")
    probs = dist.probs
    exact = total * probs
    counts = np.floor(exact).astype(np.int64)
    remainder = exact - counts
    leftover = total - int(counts.sum())
    # only classes actually present may receive remainder promotions
    eligible = np.flatnonzero(probs > 0)
    order = eligible[np.lexsort((eligible, -remainder[eligible]))]
    for c in order[:leftover]:
        counts[c] += 1
    return counts


DEFAULT_R = 3000
DEFAULT_ADAPT_HYPER = TrainHyper(epochs=50, batch_size=32, lr=1e-6,
                                 lr_step_epochs=15, lr_gamma=0.1,
                                 optimizer="sgd", momentum=0.9)
DEFAULT_BASELINE_HYPER = TrainHyper(epochs=10, batch_size=32, lr=1e-3,
                                    lr_step_epochs=3, lr_gamma=0.1,
                                    optimizer="sgd", momentum=0.9)


@dataclass
class AdaptationConfig:
    total_generated: int = DEFAULT_R
    hyper: TrainHyper = field(default_factory=lambda: replace(DEFAULT_ADAPT_HYPER))
    label_mode: LabelMode = LabelMode.GROUND_TRUTH

    def __post_init__(self):
        if self.total_generated < 1:
            raise ValueError("total_generated must be >= 1")
        if self.hyper.epochs < 1 or self.hyper.batch_size < 1 or self.hyper.lr < 0:
            raise ValueError("retraining hyperparameters must be positive")


@dataclass
class AdaptationReport:
    method: str
    label_mode: LabelMode
    class_counts: list[int]
    rows_used: int
    epochs_run: int
    pre_accuracy: float | None = None
    post_accuracy: float | None = None
    ledger_name: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "label_mode": self.label_mode.value,
            "class_counts": [int(c) for c in self.class_counts],
            "rows_used": int(self.rows_used),
            "epochs_run": int(self.epochs_run),
            "pre_accuracy": self.pre_accuracy,
            "post_accuracy": self.post_accuracy,
            "ledger_name": self.ledger_name,
        }


def _with_classifier_copy(mp: MlpModel) -> MlpModel:
    """mp's feature extractor, shared and left untrained, and a copy of its classifier."""
    fc = mp.fc_layer
    fc_copy = DenseLayer(fc.weight.copy(), fc.bias.copy(), fc.activation)
    return MlpModel(mp.fe_layers + [fc_copy], mp.feature_boundary, replace(mp.meta))


def top1_accuracy(model: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of samples whose argmax logit, over the full class head,
    equals the label."""
    y = np.asarray(y)
    if y.shape[0] == 0:
        raise ValueError("no samples to score")
    return float((model.predict(x) == y).mean())


def adapt_classifier(mp: MlpModel, generator: CvaeModel | UncondVaePack,
                     dist: ClassDistribution, cfg: AdaptationConfig | None = None,
                     seed: int = 0, val=None) -> tuple[MlpModel, AdaptationReport]:
    """Retrain only the classifier layer on a fixed generated pool.

    The pool of cfg.total_generated rows is drawn once, apportioned by dist,
    and reused across all epochs. The feature extractor is untouched; the
    input model is not modified.
    """
    cfg = cfg or AdaptationConfig()
    a_dim = generator.vaes[0].a_dim if isinstance(generator, UncondVaePack) else generator.a_dim
    gen_classes = generator.num_classes
    if a_dim != mp.meta.activation_dim or gen_classes != mp.meta.num_classes:
        raise ConfigError(
            f"generator covers [{gen_classes} classes x {a_dim} dims], model expects "
            f"[{mp.meta.num_classes} x {mp.meta.activation_dim}]"
        )
    adapted = _with_classifier_copy(mp)
    pre = None if val is None else top1_accuracy(adapted, *val)
    counts = allocate_counts(dist, cfg.total_generated)
    if isinstance(generator, UncondVaePack):
        pool = generate_uncond(generator, counts, seed=seed)
    else:
        pool = generate_activations(generator, counts, seed=seed)
    log = train_softmax_stack([adapted.fc_layer], pool.features, pool.labels,
                              cfg.hyper, seed=seed)
    post = None if val is None else top1_accuracy(adapted, *val)
    report = AdaptationReport(
        method="loco", label_mode=cfg.label_mode,
        class_counts=[int(c) for c in counts], rows_used=int(counts.sum()),
        epochs_run=len(log), pre_accuracy=pre, post_accuracy=post,
    )
    return adapted, report


def stored_row_bytes(a_dim: int) -> int:
    """One stored sample: a_dim f32 features plus a u32 label."""
    return a_dim * 4 + 4


def retrain_baseline(mp: MlpModel, stored: ActivationBatch,
                     label_mode: LabelMode = LabelMode.GROUND_TRUTH,
                     budget_bytes: int | None = None,
                     hyper: TrainHyper | None = None,
                     predicted_labels: np.ndarray | None = None,
                     seed: int = 0, val=None) -> tuple[MlpModel, AdaptationReport]:
    """Classifier-only retraining on stored real feature rows under a budget.

    budget_bytes caps how many stored rows may be used (row cost is
    stored_row_bytes); None means unbounded. Rows are chosen by a seeded
    permutation so truncation does not bias toward any class ordering.
    """
    if stored.labels is None:
        raise LabelError("stored batch has no labels")
    hyper = hyper or replace(DEFAULT_BASELINE_HYPER)
    row_bytes = stored_row_bytes(stored.features.shape[1])
    n = len(stored)
    if budget_bytes is None:
        used = n
    else:
        if budget_bytes < row_bytes:
            raise ValueError(
                f"budget {budget_bytes} B is below one stored row ({row_bytes} B)"
            )
        used = min(n, budget_bytes // row_bytes)
    if label_mode == LabelMode.ESTIMATED:
        if predicted_labels is None:
            raise LabelError("estimated-label mode needs predicted labels")
        labels = np.asarray(predicted_labels, dtype=np.int64)
        if labels.shape != (n,):
            raise LabelError(f"predicted labels shape {labels.shape} != ({n},)")
    else:
        labels = stored.labels
    pick = derive_rng(seed, stage_key("baseline-rows")).permutation(n)[:used]
    feats, labs = stored.features[pick], labels[pick]
    adapted = _with_classifier_copy(mp)
    pre = None if val is None else top1_accuracy(adapted, *val)
    log = train_softmax_stack([adapted.fc_layer], feats, labs, hyper, seed=seed)
    post = None if val is None else top1_accuracy(adapted, *val)
    counts = np.bincount(labs, minlength=mp.meta.num_classes)
    report = AdaptationReport(
        method="baseline", label_mode=label_mode,
        class_counts=[int(c) for c in counts], rows_used=used,
        epochs_run=len(log), pre_accuracy=pre, post_accuracy=post,
    )
    return adapted, report


# ---------------------------------------------------------------------------
# Scenario plumbing and the label-noise experiment
# ---------------------------------------------------------------------------


def class_rows(x: np.ndarray, y: np.ndarray, classes) -> tuple[np.ndarray, np.ndarray]:
    """The rows of (x, y) whose label is one of classes."""
    mask = np.isin(y, classes)
    return x[mask], y[mask]


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass
class Scenario:
    """Everything one adaptation experiment needs: source data, both models,
    the trained generator, and which classes the target stream contains.

    target_stream (the train split's rows of those classes) and target_val
    (the val split's) are (inputs, labels) pairs. They and the values derived
    from the stream are computed once and shared: their arrays are read-only.
    """

    dataset: LabeledDataset
    m0: MlpModel
    mp: MlpModel
    cvae: CvaeModel
    target_classes: tuple[int, ...]
    seed: int = 0

    def __post_init__(self):
        ds, classes = self.dataset, self.target_classes
        if not classes:
            raise ValueError("target_classes is empty")
        if any(c < 0 or c >= ds.spec.num_classes for c in classes):
            raise LabelError(f"target class outside [0, {ds.spec.num_classes})")
        if len(set(classes)) != len(classes):
            raise ValueError(f"target_classes {classes} has duplicates")
        self.target_stream = _read_only(*class_rows(ds.train_x, ds.train_y, classes))
        self.target_val = _read_only(*class_rows(ds.val_x, ds.val_y, classes))

    @cached_property
    def stored(self) -> ActivationBatch:
        """The stream's pruned-model activations, with the stream's labels."""
        x, y = self.target_stream
        batch = extract_activations(self.mp, x, labels=y)
        _read_only(batch.features, batch.labels)
        return batch

    @cached_property
    def predictions(self) -> np.ndarray:
        """The deployed model's argmax label for each stream row."""
        return _read_only(self.m0.predict(self.target_stream[0]))[0]

    @cached_property
    def true_dist(self) -> ClassDistribution:
        dist = ClassDistribution.from_labels(self.target_stream[1],
                                             self.dataset.spec.num_classes)
        _read_only(dist.probs)
        return dist


@dataclass(frozen=True)
class ModelPredictions:
    """Label the stream with the deployed model's own argmax predictions."""


@dataclass(frozen=True)
class SyntheticFlip:
    """Flip a fixed fraction of stream labels to uniformly random other classes."""

    rate: float

    def __post_init__(self):
        if not (0 <= self.rate <= 1):
            raise ValueError(f"flip rate {self.rate} outside [0, 1]")


def flip_labels(labels: np.ndarray, rate: float, num_classes: int, seed: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    k = int(rate * n)
    if k == 0:
        return labels.copy()
    rng = derive_rng(seed, stage_key("flip"))
    where = rng.choice(n, size=k, replace=False)
    flipped = labels.copy()
    # shift by 1..num_classes-1 so the flipped label is always a different class
    offsets = rng.integers(1, num_classes, size=k)
    flipped[where] = (flipped[where] + offsets) % num_classes
    return flipped


@dataclass
class NoiseComparison:
    noise_kind: str
    unadapted_accuracy: float
    loco_certain: float
    loco_noisy: float
    baseline_certain: float
    baseline_noisy: float

    @property
    def loco_degradation(self) -> float:
        return self.loco_certain - self.loco_noisy

    @property
    def baseline_degradation(self) -> float:
        return self.baseline_certain - self.baseline_noisy

    def to_json_dict(self) -> dict:
        return {
            "noise_kind": self.noise_kind,
            "unadapted_accuracy": self.unadapted_accuracy,
            "loco_certain": self.loco_certain,
            "loco_noisy": self.loco_noisy,
            "baseline_certain": self.baseline_certain,
            "baseline_noisy": self.baseline_noisy,
            "loco_degradation": self.loco_degradation,
            "baseline_degradation": self.baseline_degradation,
        }


def label_noise_experiment(scenario: Scenario,
                           noise: ModelPredictions | SyntheticFlip,
                           cfg: AdaptationConfig | None = None,
                           baseline_hyper: TrainHyper | None = None) -> NoiseComparison:
    """Adapt and retrain under certain and noisy labels; report all four
    accuracies. Same seed and pool size on both sides of each pair, so the
    only difference is the labels."""
    cfg = cfg or AdaptationConfig()
    s = scenario.dataset.spec.num_classes
    val = scenario.target_val
    if isinstance(noise, SyntheticFlip):
        noisy_y = flip_labels(scenario.target_stream[1], noise.rate, s, scenario.seed)
        kind = f"synthetic-flip-{noise.rate}"
    else:
        noisy_y = scenario.predictions
        kind = "model-predictions"
    noisy_dist = ClassDistribution.from_labels(noisy_y, s)
    certain_cfg = replace(cfg, label_mode=LabelMode.GROUND_TRUTH)
    noisy_cfg = replace(cfg, label_mode=LabelMode.ESTIMATED)
    _, loco_cert = adapt_classifier(scenario.mp, scenario.cvae, scenario.true_dist,
                                    certain_cfg, seed=scenario.seed, val=val)
    _, loco_noisy = adapt_classifier(scenario.mp, scenario.cvae, noisy_dist,
                                     noisy_cfg, seed=scenario.seed, val=val)
    stored = scenario.stored
    _, base_cert = retrain_baseline(scenario.mp, stored, LabelMode.GROUND_TRUTH,
                                    hyper=baseline_hyper, seed=scenario.seed, val=val)
    _, base_noisy = retrain_baseline(scenario.mp, stored, LabelMode.ESTIMATED,
                                     hyper=baseline_hyper, predicted_labels=noisy_y,
                                     seed=scenario.seed, val=val)
    return NoiseComparison(
        noise_kind=kind,
        unadapted_accuracy=loco_cert.pre_accuracy,
        loco_certain=loco_cert.post_accuracy,
        loco_noisy=loco_noisy.post_accuracy,
        baseline_certain=base_cert.post_accuracy,
        baseline_noisy=base_noisy.post_accuracy,
    )

"""Deployment-time adaptation: estimate the observed label subspace from the
deployed model's predictions, generate a class-proportional activation pool,
and retrain the pruned model's classifier on it. Also the storage-budgeted
baseline that retrains on real stored feature rows, and the paired label-noise
experiment comparing how the two degrade.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, field, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .cvae import CvaeModel, UncondVaePack, generate_activations
from .errors import ConfigError, LabelError
from .models import (
    ActivationBatch,
    LabeledDataset,
    MlpModel,
    TrainHyper,
    extract_activations,
    train_softmax_stack,
)
from .numerics import F32, DenseLayer, derive_rng, stage_key


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
        bad = np.flatnonzero(~np.isfinite(self.probs))
        if bad.size:
            raise ValueError(f"probability of class {bad[0]} is {self.probs[bad[0]]}, not finite")
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


def domain_from_predictions(predictions, num_classes: int) -> ClassDistribution:
    """The domain estimate: the frequency of each class among the deployed
    model's argmax predictions, given as an iterable of label arrays."""
    counts = np.zeros(num_classes, dtype=np.int64)
    total = 0
    for preds in predictions:
        counts += np.bincount(preds, minlength=num_classes)
        total += preds.shape[0]
    if total == 0:
        raise ValueError("empty observation stream")
    return ClassDistribution(counts / total)


def estimate_domain(m0: MlpModel, observed) -> ClassDistribution:
    """The domain estimate of the stream observed, which may be one input
    matrix or an iterable of them; counting is identical either way."""
    if isinstance(observed, np.ndarray):
        observed = [observed]
    return domain_from_predictions(
        (m0.predict(chunk) for chunk in observed if chunk.shape[0]), m0.num_classes)


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
    counts = np.floor(total * probs).astype(np.int64)
    if not 0 <= total - counts.sum() <= np.count_nonzero(probs):
        # probs that sum to 1 only within ClassDistribution's tolerance can
        # miss total by more than one row per class; rescaled, they cannot
        probs = probs / probs.sum()
        counts = np.floor(total * probs).astype(np.int64)
    remainder = total * probs - counts
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
        # not lr >= 0, rather than lr < 0, so that a nan rate is refused too
        if self.hyper.epochs < 1 or self.hyper.batch_size < 1 or not self.hyper.lr >= 0:
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
        return {**asdict(self), "label_mode": self.label_mode.value}


def top1_accuracy(model: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of samples whose argmax logit, over the full class head,
    equals the label."""
    y = np.asarray(y)
    if y.shape[0] == 0:
        raise ValueError("no samples to score")
    return float((model.predict(x) == y).mean())


def _retrain(method: str, label_mode: LabelMode, mp: MlpModel, feats: np.ndarray,
             labels: np.ndarray, hyper: TrainHyper, seeds, val,
             pre_accuracy: float | None) -> list[tuple[MlpModel, AdaptationReport]]:
    """Train one copy of mp's classifier per seed, run k on (feats[k],
    labels[k]), all in lockstep, and report each, scored on val before
    (unless pre_accuracy already gives mp's score) and after. mp's feature
    extractor is shared, not trained."""
    fc = mp.fc_layer
    k = len(seeds)
    if pre_accuracy is None and val is not None:
        pre_accuracy = top1_accuracy(mp, *val)
    # a lone run trains unstacked: the same floats, fewer dimensions per numpy call
    lead = (k,) if k > 1 else ()
    fcs = DenseLayer(np.broadcast_to(fc.weight, lead + fc.weight.shape),
                     np.broadcast_to(fc.bias, lead + fc.bias.shape), fc.activation)
    train_softmax_stack([fcs], feats.reshape(lead + feats.shape[1:]),
                        labels.reshape(lead + labels.shape[1:]), hyper,
                        seed=seeds if lead else seeds[0], logs=False)
    post = [None] * k
    if val is not None:
        stacked = MlpModel(mp.fe_layers + [fcs])
        post = np.reshape((stacked.predict(val[0]) == val[1]).mean(axis=-1), -1).tolist()
    weights, biases = fcs.weight.reshape((k,) + fc.weight.shape), fcs.bias.reshape(k, -1)
    return [(MlpModel(mp.fe_layers + [DenseLayer(weights[j], biases[j], fc.activation)],
                      mp.prune_fraction),
             AdaptationReport(
                 method=method, label_mode=label_mode,
                 class_counts=np.bincount(labels[j], minlength=mp.num_classes).tolist(),
                 rows_used=labels.shape[1], epochs_run=hyper.epochs,
                 pre_accuracy=pre_accuracy, post_accuracy=post[j]))
            for j in range(k)]


def adapt_classifier_seeds(mp: MlpModel, generator: CvaeModel | UncondVaePack,
                           dist: ClassDistribution, cfg: AdaptationConfig | None = None,
                           seeds=(0,), val=None, pre_accuracy: float | None = None,
                           ) -> list[tuple[MlpModel, AdaptationReport]]:
    """adapt_classifier once per seed, the runs trained in lockstep; returns
    one (model, report) per seed, in seed order. The pools are decoded one
    seed at a time, so the decode transient is one pool's, not K pools'."""
    cfg = cfg or AdaptationConfig()
    if (generator.a_dim != mp.activation_dim
            or generator.num_classes != mp.num_classes):
        raise ConfigError(
            f"generator covers [{generator.num_classes} classes x {generator.a_dim} dims], "
            f"model expects [{mp.num_classes} x {mp.activation_dim}]"
        )
    counts = allocate_counts(dist, cfg.total_generated)
    pools = np.empty((len(seeds), cfg.total_generated, mp.activation_dim), dtype=F32)
    for j, seed in enumerate(seeds):
        pool = generate_activations(generator, counts, seed=seed)
        pools[j] = pool.features
    # the counts fix the labels: every seed's pool has the same ones
    labels = np.broadcast_to(pool.labels, pools.shape[:2])
    return _retrain("loco", cfg.label_mode, mp, pools, labels, cfg.hyper, seeds, val,
                    pre_accuracy)


def adapt_classifier(mp: MlpModel, generator: CvaeModel | UncondVaePack,
                     dist: ClassDistribution, cfg: AdaptationConfig | None = None,
                     seed: int = 0, val=None, pre_accuracy: float | None = None,
                     ) -> tuple[MlpModel, AdaptationReport]:
    """Retrain only the classifier layer on a fixed generated pool.

    The pool of cfg.total_generated rows is drawn once, apportioned by dist,
    and reused across all epochs. The feature extractor is untouched; the
    input model is not modified. The report scores mp on val before
    retraining, or takes that score from pre_accuracy when the caller has it.
    """
    return adapt_classifier_seeds(mp, generator, dist, cfg, seeds=(seed,), val=val,
                                  pre_accuracy=pre_accuracy)[0]


def stored_row_bytes(a_dim: int) -> int:
    """One stored sample: a_dim f32 features plus a u32 label."""
    return a_dim * 4 + 4


def _budget_rows(stored: ActivationBatch, budget_bytes: int | None) -> int:
    """How many of stored's rows budget_bytes pays for; None is unbounded."""
    row_bytes = stored_row_bytes(stored.features.shape[1])
    if budget_bytes is None:
        return len(stored)
    if budget_bytes < row_bytes:
        raise ValueError(f"budget {budget_bytes} B is below one stored row ({row_bytes} B)")
    return min(len(stored), budget_bytes // row_bytes)


def retrain_baseline_seeds(mp: MlpModel, stored: ActivationBatch,
                           budget_bytes: int | None = None,
                           hyper: TrainHyper | None = None,
                           labels: np.ndarray | None = None,
                           seeds=(0,), val=None, pre_accuracy: float | None = None,
                           ) -> list[tuple[MlpModel, AdaptationReport]]:
    """retrain_baseline once per seed, the runs trained in lockstep; returns
    one (model, report) per seed, in seed order."""
    n = len(stored)
    label_mode = LabelMode.GROUND_TRUTH if labels is None else LabelMode.ESTIMATED
    labels = stored.labels if labels is None else np.asarray(labels, dtype=np.int64)
    if labels is None:
        raise LabelError("stored batch has no labels")
    if labels.shape != (n,):
        raise LabelError(f"labels shape {labels.shape} != ({n},)")
    used = _budget_rows(stored, budget_bytes)
    picks = np.stack([derive_rng(seed, stage_key("baseline-rows")).permutation(n)[:used]
                      for seed in seeds])
    return _retrain("baseline", label_mode, mp, stored.features[picks], labels[picks],
                    hyper or replace(DEFAULT_BASELINE_HYPER), seeds, val, pre_accuracy)


def retrain_baseline(mp: MlpModel, stored: ActivationBatch,
                     budget_bytes: int | None = None,
                     hyper: TrainHyper | None = None,
                     labels: np.ndarray | None = None,
                     seed: int = 0, val=None, pre_accuracy: float | None = None,
                     ) -> tuple[MlpModel, AdaptationReport]:
    """Classifier-only retraining on stored real feature rows under a budget.

    budget_bytes caps how many stored rows may be used (row cost is
    stored_row_bytes); None means unbounded. Rows are chosen by a seeded
    permutation so truncation does not bias toward any class ordering.
    labels, one per stored row (e.g. the deployed model's predictions),
    replace the stored labels and tag the report estimated. val and
    pre_accuracy score the report as in adapt_classifier.
    """
    return retrain_baseline_seeds(mp, stored, budget_bytes, hyper, labels,
                                  seeds=(seed,), val=val, pre_accuracy=pre_accuracy)[0]


# ---------------------------------------------------------------------------
# Scenario plumbing and the label-noise experiment
# ---------------------------------------------------------------------------


def target_split(dataset: LabeledDataset, classes):
    """The target domain of a class subset: the stream the deployed network
    observes (the train split's rows of those classes) and the rows it is
    scored on (the val split's), each an (inputs, labels) pair."""
    if not classes:
        raise ValueError("target_classes is empty")
    if any(c < 0 or c >= dataset.spec.num_classes for c in classes):
        raise LabelError(f"target class outside [0, {dataset.spec.num_classes})")
    if len(set(classes)) != len(classes):
        raise ValueError(f"target_classes {classes} has duplicates")
    stream, val = np.isin(dataset.train_y, classes), np.isin(dataset.val_y, classes)
    return ((dataset.train_x[stream], dataset.train_y[stream]),
            (dataset.val_x[val], dataset.val_y[val]))


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass
class Scenario:
    """Everything one adaptation experiment needs: source data, both models,
    the trained generator, and which classes the target stream contains.

    target_stream and target_val are target_split's pairs. They and the
    values derived from the stream, the deployed model's predictions and the
    domain estimate among them, are computed once and shared: their arrays
    are read-only. Each retraining is run once per distinct set of inputs
    that determines it and its report shared, so the fields must not be
    reassigned after construction. A request for several seeds trains all
    the missing ones as one lockstep group.
    """

    dataset: LabeledDataset
    m0: MlpModel
    mp: MlpModel
    cvae: CvaeModel
    target_classes: tuple[int, ...]
    seed: int = 0

    def __post_init__(self):
        stream, val = target_split(self.dataset, self.target_classes)
        self.target_stream, self.target_val = _read_only(*stream), _read_only(*val)
        self._reports: dict[tuple, AdaptationReport] = {}

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

    @cached_property
    def estimated_dist(self) -> ClassDistribution:
        """The stream's domain estimate, as estimate_domain makes it, counted
        from predictions."""
        dist = domain_from_predictions([self.predictions], self.dataset.spec.num_classes)
        _read_only(dist.probs)
        return dist

    @cached_property
    def unadapted_accuracy(self) -> float:
        """The pruned model's accuracy on target_val, before any retraining."""
        return top1_accuracy(self.mp, *self.target_val)

    def _memo(self, keys, seeds, label_mode: LabelMode, one, group,
              **kwargs) -> list[AdaptationReport]:
        """The report of each (key, seed), in order, tagged label_mode. The
        missing seeds train as one lockstep call group(seeds=..., **kwargs),
        a lone one as one(seed=..., **kwargs), scored on target_val.

        A key holds the inputs that determine a run; the label mode only tags
        its report. Only reports are kept, never the adapted models, and a
        group that raises keeps nothing, so its next caller meets the error
        too."""
        missing = [(key, seed) for key, seed in zip(keys, seeds) if key not in self._reports]
        if missing:
            todo = [seed for _, seed in missing]
            kwargs.update(val=self.target_val, pre_accuracy=self.unadapted_accuracy)
            runs = ([one(seed=todo[0], **kwargs)] if len(todo) == 1
                    else group(seeds=todo, **kwargs))
            for (key, _), (_, report) in zip(missing, runs):
                self._reports[key] = report
        reports = [self._reports[key] for key in keys]
        return [r if r.label_mode is label_mode else replace(r, label_mode=label_mode)
                for r in reports]

    def adapt(self, dist: ClassDistribution, cfg: AdaptationConfig, seeds,
              generator: CvaeModel | UncondVaePack | None = None) -> list[AdaptationReport]:
        """adapt_classifier's report for each seed, with generator (the
        scenario's cvae by default). The pool depends only on the generator,
        the class counts and the seed, so two distributions that round to the
        same counts share a run."""
        generator = self.cvae if generator is None else generator
        counts = tuple(allocate_counts(dist, cfg.total_generated).tolist())
        # repr tells apart floats that == does not, such as -0.0 and 0.0
        hyper = repr(astuple(cfg.hyper))
        # the generator hashes by identity, and the key keeps it alive
        keys = [("loco", generator, counts, seed, hyper) for seed in seeds]
        return self._memo(keys, seeds, cfg.label_mode, adapt_classifier,
                          adapt_classifier_seeds, mp=self.mp, generator=generator,
                          dist=dist, cfg=cfg)

    def baseline(self, hyper: TrainHyper | None, seeds, labels: np.ndarray | None = None,
                 budget_bytes: int | None = None) -> list[AdaptationReport]:
        """retrain_baseline's report for each seed on the stored rows, with
        labels (their true labels by default) and under budget_bytes. The run
        depends only on the labels, the number of rows used, the seed and the
        hyperparameters."""
        hyper = hyper or replace(DEFAULT_BASELINE_HYPER)
        mode = LabelMode.GROUND_TRUTH if labels is None else LabelMode.ESTIMATED
        y = np.asarray(self.stored.labels if labels is None else labels, dtype=np.int64)
        rows = _budget_rows(self.stored, budget_bytes)
        keys = [("baseline", y.shape, y.tobytes(), rows, seed, repr(astuple(hyper)))
                for seed in seeds]
        return self._memo(keys, seeds, mode, retrain_baseline, retrain_baseline_seeds,
                          mp=self.mp, stored=self.stored, budget_bytes=budget_bytes,
                          hyper=hyper, labels=labels)


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
        return {**asdict(self), "loco_degradation": self.loco_degradation,
                "baseline_degradation": self.baseline_degradation}


def label_noise_experiment(scenario: Scenario, noise: SyntheticFlip,
                           cfg: AdaptationConfig | None = None,
                           baseline_hyper: TrainHyper | None = None) -> NoiseComparison:
    """Adapt and retrain under certain and flipped labels; report all four
    accuracies. Same seed and pool size on both sides of each pair, so the
    only difference is the labels."""
    cfg = cfg or AdaptationConfig()
    s = scenario.dataset.spec.num_classes
    noisy_y = flip_labels(scenario.target_stream[1], noise.rate, s, scenario.seed)
    seeds = (scenario.seed,)
    loco_cert, = scenario.adapt(scenario.true_dist, cfg, seeds)
    loco_noisy, = scenario.adapt(ClassDistribution.from_labels(noisy_y, s), cfg, seeds)
    base_cert, = scenario.baseline(baseline_hyper, seeds)
    base_noisy, = scenario.baseline(baseline_hyper, seeds, labels=noisy_y)
    return NoiseComparison(
        noise_kind=f"synthetic-flip-{noise.rate}",
        unadapted_accuracy=scenario.unadapted_accuracy,
        loco_certain=loco_cert.post_accuracy,
        loco_noisy=loco_noisy.post_accuracy,
        baseline_certain=base_cert.post_accuracy,
        baseline_noisy=base_noisy.post_accuracy,
    )

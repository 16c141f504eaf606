"""Pipeline configuration: a flat `key = value` format with [sections].

The parser is deliberately strict: unknown sections or keys, duplicate keys,
and malformed values are all errors that name the offending line. Rendering
is canonical (fixed section and key order, repr'd floats), so the sha256 of
the rendered text identifies a configuration regardless of comment or
whitespace differences in the source file.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace

from .adaptation import DEFAULT_ADAPT_HYPER, DEFAULT_BASELINE_HYPER, DEFAULT_R, AdaptationConfig
from .cvae import (
    DEFAULT_DEC_WIDTHS,
    DEFAULT_ENC_WIDTHS,
    DEFAULT_Z_DIM,
    UNCOND_DEC_WIDTHS,
    UNCOND_ENC_WIDTHS,
    UNCOND_Z_DIM,
    BetaSchedule,
    CvaeHyper,
)
from .errors import ConfigError, ShapeError
from .models import (
    DEFAULT_FEATURE_WIDTHS,
    DEFAULT_FINETUNE_HYPER,
    DEFAULT_SOURCE_HYPER,
    DatasetSpec,
    TrainHyper,
    pruned_width,
)


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _int_tuple(text: str) -> tuple:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ValueError("empty list")
    return tuple(int(part) for part in items)


def _subset_list(text: str) -> tuple:
    """Semicolon-separated class subsets, e.g. `5,6,7; 10,11`."""
    groups = [g.strip() for g in text.split(";") if g.strip()]
    return tuple(_int_tuple(g) for g in groups)


def _key(section: str, default, rule=None, parse=None):
    """A field keyed in `[section]` by its name less any `section_` prefix,
    parsed by parse, or else by the parser of its default's type. rule is a
    (test, message) pair that each value, or each entry of a list value, must
    pass; every test is false for NaN."""
    return field(default=default,
                 metadata={"section": section, "rule": rule, "parse": parse})


_AT_LEAST_1 = (lambda v: v >= 1, "must be >= 1")
_AT_LEAST_2 = (lambda v: v >= 2, "must be >= 2")
_NON_NEGATIVE = (lambda v: v >= 0, "must be >= 0")
_POSITIVE = (lambda v: v > 0, "must be > 0")
_FINITE = (math.isfinite, "must be finite")
_FRACTION = (lambda v: 0 <= v < 1, "must lie in [0, 1)")
_DECAY = (lambda v: 0 < v <= 1, "must lie in (0, 1]")


@dataclass
class PipelineConfig:
    # declaration order is the canonical render order
    classes: int = _key("dataset", DatasetSpec.num_classes, _AT_LEAST_2)
    input_dim: int = _key("dataset", DatasetSpec.input_dim, _AT_LEAST_2)
    train_per_class: int = _key("dataset", DatasetSpec.train_per_class, _AT_LEAST_1)
    val_per_class: int = _key("dataset", DatasetSpec.val_per_class, _AT_LEAST_1)
    class_mean_scale: float = _key("dataset", DatasetSpec.class_mean_scale, _FINITE)
    within_class_sigma: float = _key("dataset", DatasetSpec.within_class_sigma, _POSITIVE)
    feature_widths: tuple = _key("model", DEFAULT_FEATURE_WIDTHS, _AT_LEAST_2)
    source_epochs: int = _key("model", DEFAULT_SOURCE_HYPER.epochs, _AT_LEAST_1)
    source_batch: int = _key("model", DEFAULT_SOURCE_HYPER.batch_size, _AT_LEAST_1)
    source_lr: float = _key("model", DEFAULT_SOURCE_HYPER.lr, _NON_NEGATIVE)
    prune_fraction: float = _key("model", 0.3, _FRACTION)
    finetune_epochs: int = _key("model", DEFAULT_FINETUNE_HYPER.epochs, _AT_LEAST_1)
    finetune_lr: float = _key("model", DEFAULT_FINETUNE_HYPER.lr, _NON_NEGATIVE)
    cvae_z_dim: int = _key("cvae", DEFAULT_Z_DIM, _AT_LEAST_1)
    cvae_enc_widths: tuple = _key("cvae", DEFAULT_ENC_WIDTHS, _AT_LEAST_1)
    cvae_dec_widths: tuple = _key("cvae", DEFAULT_DEC_WIDTHS, _AT_LEAST_1)
    cvae_epochs: int = _key("cvae", CvaeHyper.epochs, _AT_LEAST_1)
    cvae_batch: int = _key("cvae", CvaeHyper.batch_size, _AT_LEAST_1)
    # the classifier trainers skip their updates at lr 0, but Adam's schedule needs a rate
    cvae_lr: float = _key("cvae", CvaeHyper.lr, _POSITIVE)
    cvae_lr_step_epochs: int = _key("cvae", CvaeHyper.lr_step_epochs, _NON_NEGATIVE)
    cvae_lr_gamma: float = _key("cvae", CvaeHyper.lr_gamma, _DECAY)
    beta_start: float = _key("cvae", BetaSchedule.start, _NON_NEGATIVE)
    beta_step: float = _key("cvae", BetaSchedule.step, _NON_NEGATIVE)
    beta_every: int = _key("cvae", BetaSchedule.every_epochs, _AT_LEAST_1)
    beta_max: float = _key("cvae", BetaSchedule.max_value, _NON_NEGATIVE)
    uncond_z_dim: int = _key("uncond", UNCOND_Z_DIM, _AT_LEAST_1)
    uncond_enc_widths: tuple = _key("uncond", UNCOND_ENC_WIDTHS, _AT_LEAST_1)
    uncond_dec_widths: tuple = _key("uncond", UNCOND_DEC_WIDTHS, _AT_LEAST_1)
    adapt_r: int = _key("adapt", DEFAULT_R, _AT_LEAST_1)
    adapt_epochs: int = _key("adapt", DEFAULT_ADAPT_HYPER.epochs, _AT_LEAST_1)
    adapt_batch: int = _key("adapt", DEFAULT_ADAPT_HYPER.batch_size, _AT_LEAST_1)
    adapt_lr: float = _key("adapt", DEFAULT_ADAPT_HYPER.lr, _NON_NEGATIVE)
    adapt_lr_step_epochs: int = _key("adapt", DEFAULT_ADAPT_HYPER.lr_step_epochs, _NON_NEGATIVE)
    adapt_lr_gamma: float = _key("adapt", DEFAULT_ADAPT_HYPER.lr_gamma, _DECAY)
    adapt_momentum: float = _key("adapt", DEFAULT_ADAPT_HYPER.momentum, _FRACTION)
    baseline_epochs: int = _key("baseline", DEFAULT_BASELINE_HYPER.epochs, _AT_LEAST_1)
    baseline_batch: int = _key("baseline", DEFAULT_BASELINE_HYPER.batch_size, _AT_LEAST_1)
    baseline_lr: float = _key("baseline", DEFAULT_BASELINE_HYPER.lr, _NON_NEGATIVE)
    baseline_lr_step_epochs: int = _key("baseline", DEFAULT_BASELINE_HYPER.lr_step_epochs,
                                        _NON_NEGATIVE)
    baseline_lr_gamma: float = _key("baseline", DEFAULT_BASELINE_HYPER.lr_gamma, _DECAY)
    baseline_momentum: float = _key("baseline", DEFAULT_BASELINE_HYPER.momentum, _FRACTION)
    # target_classes and extra_subsets are checked against classes in validate()
    target_classes: tuple = _key("scenario", (0, 1, 2, 3, 4))
    # additional D' class subsets for the matrix
    extra_subsets: tuple = _key("scenario", (), parse=_subset_list)
    seeds: tuple = _key("scenario", (0, 1, 2, 3, 4), _NON_NEGATIVE)
    sweep_budgets: tuple = _key("sweep", (136, 340, 680, 1700, 3400, 6800, 17000, 34000),
                                _POSITIVE)

    # --- derived builders ---

    def dataset_spec(self, seed: int) -> DatasetSpec:
        return DatasetSpec(
            num_classes=self.classes, input_dim=self.input_dim,
            train_per_class=self.train_per_class, val_per_class=self.val_per_class,
            class_mean_scale=self.class_mean_scale,
            within_class_sigma=self.within_class_sigma, seed=seed,
        )

    def source_hyper(self) -> TrainHyper:
        return TrainHyper(epochs=self.source_epochs, batch_size=self.source_batch,
                          lr=self.source_lr)

    def finetune_hyper(self) -> TrainHyper:
        return TrainHyper(epochs=self.finetune_epochs, batch_size=self.source_batch,
                          lr=self.finetune_lr)

    def beta_schedule(self) -> BetaSchedule:
        return BetaSchedule(start=self.beta_start, step=self.beta_step,
                            every_epochs=self.beta_every, max_value=self.beta_max)

    def cvae_hyper(self) -> CvaeHyper:
        return CvaeHyper(epochs=self.cvae_epochs, batch_size=self.cvae_batch,
                         lr=self.cvae_lr, lr_step_epochs=self.cvae_lr_step_epochs,
                         lr_gamma=self.cvae_lr_gamma, beta=self.beta_schedule())

    def adapt_config(self) -> AdaptationConfig:
        hyper = replace(DEFAULT_ADAPT_HYPER, epochs=self.adapt_epochs,
                        batch_size=self.adapt_batch, lr=self.adapt_lr,
                        lr_step_epochs=self.adapt_lr_step_epochs,
                        lr_gamma=self.adapt_lr_gamma, momentum=self.adapt_momentum)
        return AdaptationConfig(total_generated=self.adapt_r, hyper=hyper)

    def baseline_hyper(self) -> TrainHyper:
        return replace(DEFAULT_BASELINE_HYPER, epochs=self.baseline_epochs,
                       batch_size=self.baseline_batch, lr=self.baseline_lr,
                       lr_step_epochs=self.baseline_lr_step_epochs,
                       lr_gamma=self.baseline_lr_gamma,
                       momentum=self.baseline_momentum)

    def validate(self) -> None:
        for (section, key), f in _KEYS.items():
            if f.metadata["rule"] is not None:
                test, message = f.metadata["rule"]
                value = getattr(self, f.name)
                if not all(map(test, value if isinstance(value, tuple) else (value,))):
                    raise ConfigError(f"{section}.{key} {message}")
        # the checks below span keys, or the entries of one key
        if len(self.feature_widths) < 2:
            raise ConfigError("model.feature_widths needs at least two layers")
        for width in self.feature_widths[:-1]:  # the activation layer is kept whole
            try:
                pruned_width(width, self.prune_fraction)
            except ShapeError as exc:
                raise ConfigError(f"model.feature_widths with model.prune_fraction: {exc}")
        try:
            self.cvae_hyper()
        except ValueError as exc:
            raise ConfigError(f"[cvae] beta schedule: {exc}")
        seen_subsets = set()
        for key, subset in [("target_classes", self.target_classes),
                            *(("extra_subsets", s) for s in self.extra_subsets)]:
            if not subset or any(c < 0 or c >= self.classes for c in subset):
                raise ConfigError(
                    f"scenario.{key} must be nonempty and lie in [0, {self.classes})")
            if len(set(subset)) != len(subset):
                raise ConfigError(f"scenario.{key} has duplicates")
            # the matrix would hold two scenarios with the same rows
            if frozenset(subset) in seen_subsets:
                raise ConfigError(f"scenario.{key} repeats the class subset {subset}")
            seen_subsets.add(frozenset(subset))
        if not self.seeds:
            raise ConfigError("scenario.seeds is empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("scenario.seeds has duplicates")
        budgets = self.sweep_budgets
        if not budgets:
            raise ConfigError("sweep.budgets is empty")
        if any(a >= b for a, b in zip(budgets, budgets[1:])):
            raise ConfigError("sweep.budgets must be strictly ascending")


_PARSERS = {int: int, float: _float, tuple: _int_tuple}
# (section, key) -> field, in declaration order
_KEYS = {
    (f.metadata["section"], f.name.removeprefix(f.metadata["section"] + "_")): f
    for f in fields(PipelineConfig)
}
_SECTIONS = tuple(dict.fromkeys(section for section, _ in _KEYS))


def parse_config_text(text: str, source: str = "<config>") -> PipelineConfig:
    cfg = PipelineConfig()
    section = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"{source}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected `key = value`")
        if section is None:
            raise ConfigError(f"{source}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        f = _KEYS.get((section, key))
        if f is None:
            raise ConfigError(f"{source}:{lineno}: unknown key '{section}.{key}'")
        if (section, key) in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key '{section}.{key}'")
        seen.add((section, key))
        parse = f.metadata["parse"] or _PARSERS[type(f.default)]
        try:
            setattr(cfg, f.name, parse(value))
        except ValueError as exc:
            raise ConfigError(
                f"{source}:{lineno}: invalid value for '{section}.{key}': {exc}"
            ) from exc
    cfg.validate()
    return cfg


def load_config(path) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def _render_value(value) -> str:
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return ";".join(",".join(str(v) for v in g) for g in value)
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_config(cfg: PipelineConfig) -> str:
    """Canonical text form: fixed ordering, normalized values."""
    lines = []
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        for (sec, key), f in _KEYS.items():
            if sec == section:
                lines.append(f"{key} = {_render_value(getattr(cfg, f.name))}")
        lines.append("")
    return "\n".join(lines)


def config_hash(cfg: PipelineConfig) -> str:
    return hashlib.sha256(render_config(cfg).encode("utf-8")).hexdigest()

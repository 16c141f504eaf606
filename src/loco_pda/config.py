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
from dataclasses import dataclass, fields, replace

from .adaptation import AdaptationConfig, DEFAULT_ADAPT_HYPER, DEFAULT_BASELINE_HYPER
from .cvae import BetaSchedule, CvaeHyper
from .errors import ConfigError
from .models import DatasetSpec, TrainHyper


@dataclass
class PipelineConfig:
    # dataset
    classes: int = 20
    input_dim: int = 32
    train_per_class: int = 200
    val_per_class: int = 50
    class_mean_scale: float = 1.0
    within_class_sigma: float = 0.8
    # model
    feature_widths: tuple = (64, 32, 16)
    source_epochs: int = 15
    source_batch: int = 64
    source_lr: float = 1e-3
    prune_fraction: float = 0.3
    finetune_epochs: int = 5
    finetune_lr: float = 1e-3
    # cvae
    cvae_z_dim: int = 16
    cvae_enc_widths: tuple = (1024, 128, 64)
    cvae_dec_widths: tuple = (512,)
    cvae_epochs: int = 90
    cvae_batch: int = 128
    cvae_lr: float = 1e-3
    cvae_lr_step_epochs: int = 30
    cvae_lr_gamma: float = 0.1
    beta_start: float = 0.0
    beta_step: float = 0.1
    beta_every: int = 3
    beta_max: float = 1.0
    # uncond
    uncond_z_dim: int = 2
    uncond_enc_widths: tuple = (128, 64)
    uncond_dec_widths: tuple = (64,)
    # adapt
    adapt_r: int = 3000
    adapt_epochs: int = 50
    adapt_batch: int = 32
    adapt_lr: float = 1e-6
    adapt_lr_step_epochs: int = 15
    adapt_lr_gamma: float = 0.1
    adapt_momentum: float = 0.9
    # baseline
    baseline_epochs: int = 10
    baseline_batch: int = 32
    baseline_lr: float = 1e-3
    baseline_lr_step_epochs: int = 3
    baseline_lr_gamma: float = 0.1
    baseline_momentum: float = 0.9
    # scenario
    target_classes: tuple = (0, 1, 2, 3, 4)
    extra_subsets: tuple = ()        # additional D' class subsets for the matrix
    seeds: tuple = (0, 1, 2, 3, 4)
    # sweep
    sweep_budgets: tuple = (136, 340, 680, 1700, 3400, 6800, 17000, 34000)

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

    @property
    def activation_dim(self) -> int:
        return self.feature_widths[-1]

    def validate(self) -> None:
        def bad(msg):
            raise ConfigError(msg)

        if self.classes < 2:
            bad("dataset.classes must be >= 2")
        if self.input_dim < 2:
            bad("dataset.input_dim must be >= 2")
        if self.train_per_class < 1 or self.val_per_class < 1:
            bad("per-class sample counts must be >= 1")
        if self.within_class_sigma <= 0:
            bad("dataset.within_class_sigma must be > 0")
        if len(self.feature_widths) < 2:
            bad("model.feature_widths needs at least two layers")
        if any(w < 2 for w in self.feature_widths):
            bad("model.feature_widths entries must be >= 2")
        if not (0 <= self.prune_fraction < 1):
            bad("model.prune_fraction must lie in [0, 1)")
        if self.cvae_z_dim < 1 or self.uncond_z_dim < 1:
            bad("latent sizes must be >= 1")
        if self.adapt_r < 1:
            bad("adapt.r must be >= 1")
        for key, subset in [("target_classes", self.target_classes),
                            *(("extra_subsets", s) for s in self.extra_subsets)]:
            if not subset or any(c < 0 or c >= self.classes for c in subset):
                bad(f"scenario.{key} must be nonempty and lie in [0, {self.classes})")
            if len(set(subset)) != len(subset):
                bad(f"scenario.{key} has duplicates")
        if not self.seeds:
            bad("scenario.seeds is empty")
        if not self.sweep_budgets:
            bad("sweep.budgets is empty")
        if any(b <= 0 for b in self.sweep_budgets):
            bad("sweep.budgets must be positive")
        if list(self.sweep_budgets) != sorted(self.sweep_budgets):
            bad("sweep.budgets must be ascending")
        if self.beta_every < 1:
            bad("cvae.beta_every must be >= 1")
        for f in fields(self):
            v = getattr(self, f.name)
            # lr_step_epochs may be 0 (decay disabled); epoch/batch counts may not
            if f.name.endswith("lr_step_epochs"):
                if v < 0:
                    bad(f"{f.name} must be >= 0")
            elif f.name.endswith(("_epochs", "_batch")) and v < 1:
                bad(f"{f.name} must be >= 1")
            if f.name.endswith("_lr") and not v >= 0:
                bad(f"{f.name} must be >= 0")
            if f.name.endswith("lr_gamma") and not 0 < v <= 1:
                bad(f"{f.name} must lie in (0, 1]")
            if f.name.endswith("momentum") and not 0 <= v < 1:
                bad(f"{f.name} must lie in [0, 1)")
            if f.name.startswith("beta_") and not v >= 0:
                bad(f"{f.name} must be >= 0")


# (section, key) -> (attribute, value parser)
def _int(text: str) -> int:
    return int(text)


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


SCHEMA = {
    ("dataset", "classes"): ("classes", _int),
    ("dataset", "input_dim"): ("input_dim", _int),
    ("dataset", "train_per_class"): ("train_per_class", _int),
    ("dataset", "val_per_class"): ("val_per_class", _int),
    ("dataset", "class_mean_scale"): ("class_mean_scale", _float),
    ("dataset", "within_class_sigma"): ("within_class_sigma", _float),
    ("model", "feature_widths"): ("feature_widths", _int_tuple),
    ("model", "source_epochs"): ("source_epochs", _int),
    ("model", "source_batch"): ("source_batch", _int),
    ("model", "source_lr"): ("source_lr", _float),
    ("model", "prune_fraction"): ("prune_fraction", _float),
    ("model", "finetune_epochs"): ("finetune_epochs", _int),
    ("model", "finetune_lr"): ("finetune_lr", _float),
    ("cvae", "z_dim"): ("cvae_z_dim", _int),
    ("cvae", "enc_widths"): ("cvae_enc_widths", _int_tuple),
    ("cvae", "dec_widths"): ("cvae_dec_widths", _int_tuple),
    ("cvae", "epochs"): ("cvae_epochs", _int),
    ("cvae", "batch"): ("cvae_batch", _int),
    ("cvae", "lr"): ("cvae_lr", _float),
    ("cvae", "lr_step_epochs"): ("cvae_lr_step_epochs", _int),
    ("cvae", "lr_gamma"): ("cvae_lr_gamma", _float),
    ("cvae", "beta_start"): ("beta_start", _float),
    ("cvae", "beta_step"): ("beta_step", _float),
    ("cvae", "beta_every"): ("beta_every", _int),
    ("cvae", "beta_max"): ("beta_max", _float),
    ("uncond", "z_dim"): ("uncond_z_dim", _int),
    ("uncond", "enc_widths"): ("uncond_enc_widths", _int_tuple),
    ("uncond", "dec_widths"): ("uncond_dec_widths", _int_tuple),
    ("adapt", "r"): ("adapt_r", _int),
    ("adapt", "epochs"): ("adapt_epochs", _int),
    ("adapt", "batch"): ("adapt_batch", _int),
    ("adapt", "lr"): ("adapt_lr", _float),
    ("adapt", "lr_step_epochs"): ("adapt_lr_step_epochs", _int),
    ("adapt", "lr_gamma"): ("adapt_lr_gamma", _float),
    ("adapt", "momentum"): ("adapt_momentum", _float),
    ("baseline", "epochs"): ("baseline_epochs", _int),
    ("baseline", "batch"): ("baseline_batch", _int),
    ("baseline", "lr"): ("baseline_lr", _float),
    ("baseline", "lr_step_epochs"): ("baseline_lr_step_epochs", _int),
    ("baseline", "lr_gamma"): ("baseline_lr_gamma", _float),
    ("baseline", "momentum"): ("baseline_momentum", _float),
    ("scenario", "target_classes"): ("target_classes", _int_tuple),
    ("scenario", "extra_subsets"): ("extra_subsets", _subset_list),
    ("scenario", "seeds"): ("seeds", _int_tuple),
    ("sweep", "budgets"): ("sweep_budgets", _int_tuple),
}

_SECTION_ORDER = ("dataset", "model", "cvae", "uncond", "adapt", "baseline",
                  "scenario", "sweep")


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
            if section not in _SECTION_ORDER:
                raise ConfigError(f"{source}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected `key = value`")
        if section is None:
            raise ConfigError(f"{source}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        entry = SCHEMA.get((section, key))
        if entry is None:
            raise ConfigError(f"{source}:{lineno}: unknown key '{section}.{key}'")
        if (section, key) in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key '{section}.{key}'")
        seen.add((section, key))
        attr, parser = entry
        try:
            setattr(cfg, attr, parser(value))
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
    for section in _SECTION_ORDER:
        lines.append(f"[{section}]")
        for (sec, key), (attr, _) in SCHEMA.items():
            if sec == section:
                lines.append(f"{key} = {_render_value(getattr(cfg, attr))}")
        lines.append("")
    return "\n".join(lines)


def config_hash(cfg: PipelineConfig) -> str:
    return hashlib.sha256(render_config(cfg).encode("utf-8")).hexdigest()

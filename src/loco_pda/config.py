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
from .errors import ConfigError
from .models import DatasetSpec, TrainHyper


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


def _key(section: str, default, parse=None):
    """A field keyed in `[section]` by its name less any `section_` prefix, and
    parsed by parse, or else by the parser of its default's type."""
    return field(default=default, metadata={"section": section, "parse": parse})


@dataclass
class PipelineConfig:
    # declaration order is the canonical render order
    classes: int = _key("dataset", 20)
    input_dim: int = _key("dataset", 32)
    train_per_class: int = _key("dataset", 200)
    val_per_class: int = _key("dataset", 50)
    class_mean_scale: float = _key("dataset", 1.0)
    within_class_sigma: float = _key("dataset", 0.8)
    feature_widths: tuple = _key("model", (64, 32, 16))
    source_epochs: int = _key("model", 15)
    source_batch: int = _key("model", 64)
    source_lr: float = _key("model", 1e-3)
    prune_fraction: float = _key("model", 0.3)
    finetune_epochs: int = _key("model", 5)
    finetune_lr: float = _key("model", 1e-3)
    cvae_z_dim: int = _key("cvae", DEFAULT_Z_DIM)
    cvae_enc_widths: tuple = _key("cvae", DEFAULT_ENC_WIDTHS)
    cvae_dec_widths: tuple = _key("cvae", DEFAULT_DEC_WIDTHS)
    cvae_epochs: int = _key("cvae", 90)
    cvae_batch: int = _key("cvae", 128)
    cvae_lr: float = _key("cvae", 1e-3)
    cvae_lr_step_epochs: int = _key("cvae", 30)
    cvae_lr_gamma: float = _key("cvae", 0.1)
    beta_start: float = _key("cvae", 0.0)
    beta_step: float = _key("cvae", 0.1)
    beta_every: int = _key("cvae", 3)
    beta_max: float = _key("cvae", 1.0)
    uncond_z_dim: int = _key("uncond", UNCOND_Z_DIM)
    uncond_enc_widths: tuple = _key("uncond", UNCOND_ENC_WIDTHS)
    uncond_dec_widths: tuple = _key("uncond", UNCOND_DEC_WIDTHS)
    adapt_r: int = _key("adapt", DEFAULT_R)
    adapt_epochs: int = _key("adapt", DEFAULT_ADAPT_HYPER.epochs)
    adapt_batch: int = _key("adapt", DEFAULT_ADAPT_HYPER.batch_size)
    adapt_lr: float = _key("adapt", DEFAULT_ADAPT_HYPER.lr)
    adapt_lr_step_epochs: int = _key("adapt", DEFAULT_ADAPT_HYPER.lr_step_epochs)
    adapt_lr_gamma: float = _key("adapt", DEFAULT_ADAPT_HYPER.lr_gamma)
    adapt_momentum: float = _key("adapt", DEFAULT_ADAPT_HYPER.momentum)
    baseline_epochs: int = _key("baseline", DEFAULT_BASELINE_HYPER.epochs)
    baseline_batch: int = _key("baseline", DEFAULT_BASELINE_HYPER.batch_size)
    baseline_lr: float = _key("baseline", DEFAULT_BASELINE_HYPER.lr)
    baseline_lr_step_epochs: int = _key("baseline", DEFAULT_BASELINE_HYPER.lr_step_epochs)
    baseline_lr_gamma: float = _key("baseline", DEFAULT_BASELINE_HYPER.lr_gamma)
    baseline_momentum: float = _key("baseline", DEFAULT_BASELINE_HYPER.momentum)
    target_classes: tuple = _key("scenario", (0, 1, 2, 3, 4))
    # additional D' class subsets for the matrix
    extra_subsets: tuple = _key("scenario", (), _subset_list)
    seeds: tuple = _key("scenario", (0, 1, 2, 3, 4))
    sweep_budgets: tuple = _key("sweep", (136, 340, 680, 1700, 3400, 6800, 17000, 34000))

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
        seen_subsets = set()
        for key, subset in [("target_classes", self.target_classes),
                            *(("extra_subsets", s) for s in self.extra_subsets)]:
            if not subset or any(c < 0 or c >= self.classes for c in subset):
                bad(f"scenario.{key} must be nonempty and lie in [0, {self.classes})")
            if len(set(subset)) != len(subset):
                bad(f"scenario.{key} has duplicates")
            # the matrix would hold two scenarios with the same rows
            if frozenset(subset) in seen_subsets:
                bad(f"scenario.{key} repeats the class subset {subset}")
            seen_subsets.add(frozenset(subset))
        if not self.seeds:
            bad("scenario.seeds is empty")
        if any(s < 0 for s in self.seeds):
            bad("scenario.seeds must be >= 0")
        if len(set(self.seeds)) != len(self.seeds):
            bad("scenario.seeds has duplicates")
        budgets = self.sweep_budgets
        if not budgets:
            bad("sweep.budgets is empty")
        if any(b <= 0 for b in budgets):
            bad("sweep.budgets must be positive")
        if any(a >= b for a, b in zip(budgets, budgets[1:])):
            bad("sweep.budgets must be strictly ascending")
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


_PARSERS = {int: int, float: _float, tuple: _int_tuple}
# (section, key) -> (attribute, value parser), in declaration order
_KEYS = {
    (f.metadata["section"], f.name.removeprefix(f.metadata["section"] + "_")):
        (f.name, f.metadata["parse"] or _PARSERS[type(f.default)])
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
        entry = _KEYS.get((section, key))
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
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        for (sec, key), (attr, _) in _KEYS.items():
            if sec == section:
                lines.append(f"{key} = {_render_value(getattr(cfg, attr))}")
        lines.append("")
    return "\n".join(lines)


def config_hash(cfg: PipelineConfig) -> str:
    return hashlib.sha256(render_config(cfg).encode("utf-8")).hexdigest()

"""Config defaults, the key=value parser, canonical rendering, hashing."""

from __future__ import annotations

import math
import re
import sys
from dataclasses import fields

import pytest

from loco_pda.adaptation import DEFAULT_BASELINE_HYPER, AdaptationConfig
from loco_pda.config import (
    PipelineConfig,
    config_hash,
    load_config,
    parse_config_text,
    render_config,
)
from loco_pda.cvae import CvaeHyper
from loco_pda.errors import ConfigError
from loco_pda.models import (
    DEFAULT_FEATURE_WIDTHS,
    DEFAULT_FINETUNE_HYPER,
    DEFAULT_SOURCE_HYPER,
    DatasetSpec,
)


def test_defaults_pin_the_recipe():
    cfg = PipelineConfig()
    assert cfg.classes == 20
    assert cfg.input_dim == 32
    assert cfg.feature_widths == (64, 32, 16)
    assert cfg.feature_widths[-1] == 16
    assert cfg.prune_fraction == pytest.approx(0.3)
    assert cfg.within_class_sigma == pytest.approx(0.8)
    # generator recipe
    assert cfg.cvae_z_dim == 16
    assert cfg.cvae_enc_widths == (256, 64)
    assert cfg.cvae_dec_widths == (512,)
    assert cfg.cvae_epochs == 90
    assert cfg.cvae_batch == 128
    assert cfg.cvae_lr == pytest.approx(1e-3)
    assert cfg.cvae_lr_step_epochs == 30
    assert cfg.cvae_lr_gamma == pytest.approx(0.1)
    assert (cfg.beta_start, cfg.beta_step, cfg.beta_every, cfg.beta_max) == (0.0, 0.1, 3, 1.0)
    # retraining recipes
    assert cfg.adapt_r == 3000
    assert cfg.adapt_epochs == 50
    assert cfg.adapt_lr == pytest.approx(1e-6)
    assert cfg.baseline_epochs == 10
    assert cfg.baseline_lr == pytest.approx(1e-3)
    assert cfg.baseline_lr_step_epochs == 3
    # scenario
    assert cfg.target_classes == (0, 1, 2, 3, 4)
    assert cfg.seeds == (0, 1, 2, 3, 4)
    assert len(cfg.sweep_budgets) >= 6
    cfg.validate()


def test_derived_builders_carry_the_values():
    cfg = PipelineConfig()
    hyper = cfg.cvae_hyper()
    assert (hyper.epochs, hyper.batch_size) == (90, 128)
    assert hyper.beta.at(30) == 1.0
    adapt = cfg.adapt_config()
    assert adapt.total_generated == 3000
    assert adapt.hyper.lr == pytest.approx(1e-6)
    assert adapt.hyper.optimizer == "sgd"
    spec = cfg.dataset_spec(seed=7)
    assert spec.seed == 7
    assert spec.num_classes == 20


def test_render_parse_round_trip():
    cfg = PipelineConfig(classes=6, prune_fraction=0.4, target_classes=(1, 2),
                         extra_subsets=((3, 4), (5,)), seeds=(0, 1),
                         sweep_budgets=(100, 200))
    text = render_config(cfg)
    again = parse_config_text(text)
    assert again == cfg
    # canonical form is a fixed point
    assert render_config(again) == text


def _non_default(f):
    """A valid value other than field f's default, chosen by its type."""
    if f.name == "extra_subsets":
        return ((6, 7), (8,))
    if isinstance(f.default, tuple):  # still ascending, in range and distinct
        return f.default[1:] + (f.default[-1] + 1,)
    if isinstance(f.default, float):  # every float bound is kept by halving
        return f.default / 2 if f.default else 0.5
    return f.default + 1


def test_render_parse_round_trip_of_every_field():
    """Every field set away from its default survives rendering and parsing,
    so no field can be left out of the canonical text (and the hash)."""
    cfg = PipelineConfig(**{f.name: _non_default(f) for f in fields(PipelineConfig)})
    cfg.validate()
    default = PipelineConfig()
    assert all(getattr(cfg, f.name) != getattr(default, f.name)
               for f in fields(PipelineConfig))
    assert parse_config_text(render_config(cfg)) == cfg


def test_default_builders_equal_the_library_defaults():
    """A default config builds what the library's defaults, which the test
    fixtures use, build: each default is stated once."""
    cfg = PipelineConfig()
    assert cfg.adapt_config() == AdaptationConfig()
    assert cfg.baseline_hyper() == DEFAULT_BASELINE_HYPER
    assert cfg.cvae_hyper() == CvaeHyper()
    assert cfg.source_hyper() == DEFAULT_SOURCE_HYPER
    assert cfg.finetune_hyper() == DEFAULT_FINETUNE_HYPER
    assert cfg.dataset_spec(3) == DatasetSpec(seed=3)
    assert cfg.feature_widths == DEFAULT_FEATURE_WIDTHS


def test_default_config_hash_is_pinned():
    """The canonical rendering of the defaults (key names, section and key
    order, value forms) is the identity every manifest records."""
    assert config_hash(PipelineConfig()) == (
        "a5651a3d7b99cfea4c39a18d06f45cb769180ae422142c4c189b6ff15c033e31")


def test_parse_overrides_single_key():
    cfg = parse_config_text("[model]\nprune_fraction = 0.45\n")
    assert cfg.prune_fraction == pytest.approx(0.45)
    assert cfg.classes == 20  # everything else stays at the default


def test_parse_subset_lists():
    cfg = parse_config_text("[scenario]\nextra_subsets = 5,6,7; 10,11\n")
    assert cfg.extra_subsets == ((5, 6, 7), (10, 11))


def test_parse_comments_and_blanks_ignored():
    cfg = parse_config_text("# top comment\n\n[dataset]\n# another\nclasses = 8\n")
    assert cfg.classes == 8


@pytest.mark.parametrize("text,fragment", [
    ("[nope]\n", "unknown section"),
    ("classes = 8\n", "outside any"),
    ("[dataset]\nclasses 8\n", "expected `key = value`"),
    ("[dataset]\nbogus = 8\n", "unknown key"),
    ("[dataset]\nclasses = eight\n", "invalid value"),
    ("[dataset]\nclasses = 8\nclasses = 9\n", "duplicate key"),
])
def test_parse_errors_carry_source_and_line(text, fragment):
    with pytest.raises(ConfigError) as exc_info:
        parse_config_text(text, source="conf.ini")
    msg = str(exc_info.value)
    assert fragment in msg
    assert "conf.ini:" in msg


def test_parse_rejects_values_failing_validation():
    with pytest.raises(ConfigError):
        parse_config_text("[dataset]\nclasses = 1\n")
    with pytest.raises(ConfigError):
        parse_config_text("[sweep]\nbudgets = 200,100\n")
    with pytest.raises(ConfigError):
        parse_config_text("[scenario]\ntarget_classes = 0,0\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.ini")


def test_load_config_reads_file(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[dataset]\nclasses = 5\n", encoding="utf-8")
    assert load_config(p).classes == 5


def test_config_hash_stable_and_sensitive():
    a, b = PipelineConfig(), PipelineConfig()
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 64
    assert config_hash(PipelineConfig(classes=19)) != config_hash(a)


def test_validate_catches_structural_problems():
    with pytest.raises(ConfigError):
        PipelineConfig(target_classes=(0, 25)).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(feature_widths=(16,)).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(prune_fraction=1.0).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(adapt_epochs=0).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(seeds=()).validate()


@pytest.mark.parametrize("section,key,value", [
    ("adapt", "lr", "nan"),
    ("adapt", "momentum", "inf"),
    ("cvae", "beta_max", "nan"),
    ("dataset", "class_mean_scale", "-inf"),
])
def test_parse_rejects_non_finite_floats(section, key, value):
    with pytest.raises(ConfigError, match="finite") as exc_info:
        parse_config_text(f"[{section}]\n{key} = {value}\n", source="conf.ini")
    assert "conf.ini:2" in str(exc_info.value)


@pytest.mark.parametrize("section,key,value", [
    ("cvae", "lr_gamma", "0.0"),
    ("adapt", "lr_gamma", "-5"),
    ("baseline", "lr_gamma", "1.5"),
    ("adapt", "momentum", "1.0"),
    ("baseline", "momentum", "-0.1"),
    ("cvae", "beta_start", "-0.1"),
    ("cvae", "beta_step", "-1"),
])
def test_parse_rejects_out_of_range_optimizer_floats(section, key, value):
    with pytest.raises(ConfigError, match=key):
        parse_config_text(f"[{section}]\n{key} = {value}\n")


def test_range_edges_are_accepted():
    cfg = parse_config_text("[cvae]\nlr_gamma = 1.0\nbeta_start = 0.0\n"
                            "[adapt]\nmomentum = 0.0\n")
    assert (cfg.cvae_lr_gamma, cfg.beta_start, cfg.adapt_momentum) == (1.0, 0.0, 0.0)


def test_validate_rejects_nan_set_in_code():
    with pytest.raises(ConfigError):
        PipelineConfig(adapt_lr=float("nan")).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(beta_max=float("nan")).validate()


def _edges(message, kind):
    """(boundary, just past) value pairs of the rule with this message, for
    values of this type."""
    def up(x):  # the next int, or the next float
        return x + 1 if kind is int else math.nextafter(x, math.inf)

    def down(x):
        return x - 1 if kind is int else math.nextafter(x, -math.inf)

    return {
        "must be >= 1": [(1, down(1))],
        "must be >= 2": [(2, down(2))],
        "must be >= 0": [(0, down(0))],
        "must be > 0": [(up(0), 0)],
        "must be finite": [(sys.float_info.max, math.inf)],
        "must lie in [0, 1)": [(0.0, down(0.0)), (down(1.0), 1.0)],
        "must lie in (0, 1]": [(up(0.0), 0.0), (1.0, up(1.0))],
    }[message]


# the keys judged only by a cross-key check: (boundary, just past) values
_CROSS_KEY = {"target_classes": [((0, 19), (0, 20))],
              "extra_subsets": [(((19,),), ((4, 3, 2, 1, 0),))]}
# other keys set so that a boundary value also passes the cross-key checks
_ROOM = {"classes": {"target_classes": (0, 1)},
         # wide enough that keeping a 2**-53 share still keeps >= 2 units
         "prune_fraction": {"feature_widths": (2**60, 16)}}


@pytest.mark.parametrize("f", fields(PipelineConfig), ids=lambda f: f.name)
def test_every_key_declares_its_range(f):
    """Each key declares a rule, or a cross-key check judges it; a value just
    past the rule is refused with an error naming `section.key`, and the
    boundary value is accepted. A list key's rule applies to each entry."""
    section = f.metadata["section"]
    name = f"{section}.{f.name.removeprefix(section + '_')}"
    rule = f.metadata["rule"]
    if rule is None:
        edges = _CROSS_KEY[f.name]
    else:
        test, message = rule
        assert not test(math.nan)
        if isinstance(f.default, tuple):
            edges = [((b,) + f.default[1:], (p,) + f.default[1:])
                     for b, p in _edges(message, type(f.default[0]))]
        else:
            edges = _edges(message, type(f.default))
    room = _ROOM.get(f.name, {})
    for boundary, past in edges:
        PipelineConfig(**room, **{f.name: boundary}).validate()
        with pytest.raises(ConfigError, match=f"^{re.escape(name)} "):
            PipelineConfig(**room, **{f.name: past}).validate()


@pytest.mark.parametrize("refused,accepted,message", [
    (dict(beta_start=0.5, beta_max=0.2), dict(beta_start=0.5, beta_max=0.5),
     "[cvae] beta schedule: max_value below start"),
    (dict(feature_widths=(2, 2, 6), prune_fraction=0.5),
     dict(feature_widths=(2, 2, 6), prune_fraction=0.49),
     "model.feature_widths with model.prune_fraction: pruning 0.5 of width 2 leaves 1 units"),
])
def test_validate_refuses_what_the_library_would(refused, accepted, message):
    """Rules the library keeps (BetaSchedule's, prune_model's) are checked at
    load through the library's own code."""
    with pytest.raises(ConfigError) as exc_info:
        PipelineConfig(**refused).validate()
    assert str(exc_info.value) == message
    PipelineConfig(**accepted).validate()

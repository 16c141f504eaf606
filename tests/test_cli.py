"""End-to-end CLI plumbing on a deliberately tiny configuration.

Quality claims live in the acceptance suite; here the subject is exit codes,
artifact wiring, manifests, and determinism of the command surface.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
from pathlib import Path

import pytest

from loco_pda import cli, config, cvae, formats
from loco_pda.config import PipelineConfig, load_config
from loco_pda.cvae import CvaeModel
from loco_pda.errors import DivergenceError, LabelError
from loco_pda.models import ActivationBatch

from helpers import make_rng, mlp_v1_bytes

TINY_CONFIG = """\
[dataset]
classes = 4
input_dim = 8
train_per_class = 30
val_per_class = 10

[model]
feature_widths = 8,6,4
source_epochs = 10
source_batch = 32
prune_fraction = 0.25
finetune_epochs = 2

[cvae]
z_dim = 2
enc_widths = 16,8
dec_widths = 8
epochs = 4
batch = 32

[uncond]
z_dim = 2
enc_widths = 8
dec_widths = 8

[adapt]
r = 50
epochs = 2

[baseline]
epochs = 2

[scenario]
target_classes = 0,1
extra_subsets = 2,3
seeds = 0

[sweep]
budgets = 20,40
"""


@pytest.fixture()
def tiny(tmp_path):
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(TINY_CONFIG, encoding="utf-8")
    out = tmp_path / "out"
    return cfg, out


def run(cfg, out, *argv) -> int:
    return cli.main([*argv, "--config", str(cfg), "--out", str(out)])


# the stages of run-all, as separate commands
STAGE_CHAIN = [
    ("synth-data",), ("train-source",), ("prune",), ("dump-activations",),
    ("train-cvae",), ("train-uncond",), ("estimate-domain",),
    ("adapt", "--labels", "estimated"), ("baseline",), ("evaluate",),
    ("sweep-budget",), ("compare-uncond",), ("memory-report",),
]


def test_full_command_chain(tiny, capsys):
    cfg, out = tiny
    for argv in STAGE_CHAIN:
        assert run(cfg, out, *argv) == 0, f"{argv[0]} failed"
    assert "wrote" in capsys.readouterr().out
    for name in [cli.DATA_TRAIN, cli.DATA_VAL, cli.TARGET_STREAM, cli.MODEL_M0,
                 cli.MODEL_MP, cli.ACTS_TRAIN, cli.CVAE_ENC, cli.CVAE_DEC,
                 cli.DOMAIN, cli.ADAPTED, cli.ADAPT_REPORT, cli.BASELINE_MODEL,
                 cli.BASELINE_REPORT, cli.EVALUATION, cli.SWEEP_CSV,
                 cli.SWEEP_JSON, cli.UNCOND_COMPARE, cli.MEMORY,
                 cli.uncond_enc_name(0), cli.uncond_dec_name(3)]:
        assert (out / name).exists(), name
    results = json.loads((out / cli.EVALUATION).read_text())
    for key in ("deployed", "pruned_no_retrain", "adapted", "baseline"):
        assert 0.0 <= results[key] <= 1.0
    assert results["target_classes"] == [0, 1]
    domain = json.loads((out / cli.DOMAIN).read_text())
    assert len(domain["probs"]) == 4
    assert abs(sum(domain["probs"]) - 1.0) < 1e-9


def test_manifest_checksums_match_artifacts(tiny):
    cfg, out = tiny
    assert run(cfg, out, "synth-data") == 0
    manifest = json.loads((out / "manifest_synth-data.json").read_text())
    assert manifest["command"] == "synth-data"
    assert manifest["seed"] == 0
    assert len(manifest["config_hash"]) == 64
    for name, digest in manifest["artifacts"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_synth_data_rerun_is_byte_identical(tiny, tmp_path):
    cfg, _ = tiny
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(cfg, out_a, "synth-data") == 0
    assert run(cfg, out_b, "synth-data") == 0
    for name in (cli.DATA_TRAIN, cli.DATA_VAL, cli.TARGET_STREAM):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_missing_input_exit_code(tiny):
    cfg, out = tiny
    assert run(cfg, out, "prune") == cli.EXIT_MISSING


def test_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    for text in ("[dataset]\nclasses = one\n", "[scenario]\nextra_subsets = 3,3\n",
                 "[sweep]\nbudgets = 68,68\n", "[scenario]\nseeds = 0,0\n",
                 "[scenario]\nseeds = -1\n", "[scenario]\nextra_subsets = 5,6; 6,5\n",
                 "[scenario]\nextra_subsets = 4,3,2,1,0\n",
                 # a stage later would fail on each of these, or train a zero-width layer
                 "[cvae]\nlr = 0\n", "[cvae]\nenc_widths = -3\n",
                 "[cvae]\nbeta_start = 0.5\nbeta_max = 0.2\n",
                 "[model]\nfeature_widths = 2,2,6\nprune_fraction = 0.5\n",
                 "[cvae]\nenc_widths = 0\n"):
        bad.write_text(text, encoding="utf-8")
        code = cli.main(["synth-data", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG, text


def test_non_finite_config_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[adapt]\nlr = nan\n", encoding="utf-8")
    code = cli.main(["synth-data", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG


def test_format_error_exit_code(tiny):
    cfg, out = tiny
    assert run(cfg, out, "synth-data") == 0
    assert run(cfg, out, "train-source") == 0
    broken = bytearray((out / cli.MODEL_M0).read_bytes())
    broken[:4] = b"XXXX"
    (out / cli.MODEL_M0).write_bytes(bytes(broken))
    assert run(cfg, out, "prune") == cli.EXIT_FORMAT


def test_version_1_model_file_exit_code(tiny, capsys):
    """A model file an earlier release wrote is refused as malformed, with a
    message that names it and says to write it again."""
    cfg, out = tiny
    assert run(cfg, out, "synth-data") == 0
    assert run(cfg, out, "train-source") == 0
    m0 = out / cli.MODEL_M0
    m0.write_bytes(mlp_v1_bytes(formats.load_mlp(m0)))
    assert run(cfg, out, "prune") == cli.EXIT_FORMAT
    err = capsys.readouterr().err
    assert f"{m0}: format version 1, this build reads 2; re-run" in err
    assert not (out / cli.MODEL_MP).exists()


@pytest.mark.parametrize("rewrite", [
    lambda text: "[]",
    lambda text: '{"artifacts": 5}',
    lambda text: text[:len(text) // 2],
], ids=["list", "artifacts-not-a-map", "truncated"])
def test_malformed_manifest_exit_code(tiny, capsys, rewrite):
    """A manifest that does not parse, or is not an object mapping artifact
    names to digests, is a malformed artifact, named in the message."""
    cfg, out = tiny
    assert run(cfg, out, "synth-data") == 0
    assert run(cfg, out, "train-source") == 0
    manifest = out / "manifest_train-source.json"
    manifest.write_text(rewrite(manifest.read_text()), encoding="utf-8")
    assert run(cfg, out, "prune") == cli.EXIT_FORMAT
    assert "manifest_train-source.json" in capsys.readouterr().err


def test_a_read_checks_only_its_producers_manifest(tiny, capsys):
    """An artifact is checked against the manifest of the command that wrote
    it, and no other: a truncated manifest_train-cvae.json does not stop
    prune, which reads nothing train-cvae wrote, but adapt, which reads the
    CVAE, reports it as malformed."""
    cfg, out = tiny
    for argv in STAGE_CHAIN[:5]:  # synth-data through train-cvae
        assert run(cfg, out, *argv) == 0
    manifest = out / "manifest_train-cvae.json"
    manifest.write_text(manifest.read_text()[:40], encoding="utf-8")
    assert run(cfg, out, "prune") == 0
    capsys.readouterr()
    assert run(cfg, out, "adapt") == cli.EXIT_FORMAT
    assert "manifest_train-cvae.json" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"support": [0, 1]}', "[1, 2]",
    '{"probs": [0.25, 0.25, 0.5]}', '{"probs": [0.2, 0.2, 0.2, 0.2, 0.2]}',
    '{"probs": [0.5, 0.5, 0.5, 0.0]}', '{"probs": [1.25, -0.25, 0.0, 0.0]}',
], ids=["no-probs", "list", "3-classes", "5-classes", "sum-1.5", "negative"])
def test_malformed_domain_exit_code(tiny, capsys, text):
    """A domain.json without a list of probabilities, or whose probabilities
    are not a distribution over the config's 4 classes, is malformed, even
    when its manifest records its bytes."""
    cfg, out = tiny
    for argv in [("synth-data",), ("train-source",), ("prune",), ("dump-activations",),
                 ("train-cvae",), ("estimate-domain",)]:
        assert run(cfg, out, *argv) == 0
    (out / cli.DOMAIN).write_text(text, encoding="utf-8")
    manifest_path = out / "manifest_estimate-domain.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["artifacts"][cli.DOMAIN] = hashlib.sha256(text.encode()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    assert run(cfg, out, "adapt", "--labels", "estimated") == cli.EXIT_FORMAT
    assert cli.DOMAIN in capsys.readouterr().err
    assert not (out / cli.ADAPTED).exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_domain_exit_code(tiny, capsys, value):
    """Python's JSON parser reads NaN and Infinity; a domain.json holding one
    is a malformed artifact, named in the message, even when its manifest
    records its bytes."""
    cfg, out = tiny
    for argv in [("synth-data",), ("train-source",), ("prune",), ("dump-activations",),
                 ("train-cvae",), ("estimate-domain",)]:
        assert run(cfg, out, *argv) == 0
    text = '{"probs": [%s, 0.5, 0.5, 0.0]}' % value
    (out / cli.DOMAIN).write_text(text, encoding="utf-8")
    manifest_path = out / "manifest_estimate-domain.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["artifacts"][cli.DOMAIN] = hashlib.sha256(text.encode()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    assert run(cfg, out, "adapt", "--labels", "estimated") == cli.EXIT_FORMAT
    assert str(out / cli.DOMAIN) in capsys.readouterr().err
    assert not (out / cli.ADAPTED).exists()


@pytest.mark.parametrize("name", [cli.DATA_TRAIN, cli.DATA_VAL])
def test_unlabeled_dataset_file_exit_code(tiny, capsys, name):
    """A dataset file without labels is malformed, and the message names it,
    even when its manifest records its bytes."""
    cfg, out = tiny
    assert run(cfg, out, "synth-data") == 0
    path = out / name
    path.write_bytes(formats.activation_bytes(
        ActivationBatch(formats.load_activations(path).features)))
    manifest_path = out / "manifest_synth-data.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["artifacts"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    assert run(cfg, out, "train-source") == cli.EXIT_FORMAT
    assert str(path) in capsys.readouterr().err
    assert not (out / cli.MODEL_M0).exists()


def test_checksum_refusal_exit_code(tiny):
    """evaluate must refuse inputs whose bytes no longer match the manifest."""
    cfg, out = tiny
    for argv in [("synth-data",), ("train-source",), ("prune",)]:
        assert run(cfg, out, *argv) == 0
    data = bytearray((out / cli.DATA_VAL).read_bytes())
    data[20] ^= 0x01  # flips a payload mantissa bit; still parses fine
    (out / cli.DATA_VAL).write_bytes(bytes(data))
    assert run(cfg, out, "evaluate") == cli.EXIT_CHECKSUM


def test_tampered_input_is_refused_by_any_reader(tiny):
    """Every command checks the artifacts it reads, not only evaluate."""
    cfg, out = tiny
    for argv in [("synth-data",), ("train-source",)]:
        assert run(cfg, out, *argv) == 0
    data = bytearray((out / cli.MODEL_M0).read_bytes())
    data[40] ^= 0x01  # still parses: without the check prune exits 0
    (out / cli.MODEL_M0).write_bytes(bytes(data))
    assert run(cfg, out, "prune") == cli.EXIT_CHECKSUM
    assert not (out / cli.MODEL_MP).exists()


def test_numeric_divergence_exit_code(tiny, tmp_path):
    cfg, out = tiny
    hot = tmp_path / "hot.ini"
    hot.write_text(TINY_CONFIG.replace("[cvae]\nz_dim = 2",
                                       "[cvae]\nlr = 1000000.0\nz_dim = 2"),
                   encoding="utf-8")
    for argv in [("synth-data",), ("train-source",), ("prune",), ("dump-activations",)]:
        assert run(cfg, out, *argv) == 0
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(hot, out, "train-cvae") == cli.EXIT_NUMERIC


def test_invalid_argument_exit_code(tiny):
    cfg, out = tiny
    for argv in [("synth-data",), ("train-source",), ("prune",)]:
        assert run(cfg, out, *argv) == 0
    # budget below one stored row (4 dims -> 20 B) is a caller error
    assert run(cfg, out, "baseline", "--budget", "5") == cli.EXIT_INVALID


def test_negative_seed_is_a_usage_error(tiny, capsys):
    """--seed -1 is refused by the argument parser, before any stage runs,
    with a message that names the flag."""
    cfg, out = tiny
    with pytest.raises(SystemExit) as exc:
        run(cfg, out, "synth-data", "--seed", "-1")
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_non_positive_budget_is_a_usage_error(tiny, capsys):
    """--budget 0, -1, abc or 1.5 is refused by the argument parser, before any
    stage runs or loads an artifact, with a message that names the flag."""
    cfg, out = tiny
    for budget in ("0", "-1", "abc", "1.5"):
        with pytest.raises(SystemExit) as exc:
            run(cfg, out, "baseline", "--budget", budget)
        assert exc.value.code == 2, budget
        assert "--budget" in capsys.readouterr().err, budget
    assert not out.exists()


def test_empty_target_stream_is_invalid_for_adapt_and_baseline(tiny):
    """A zero-row target stream that its manifest records exits as invalid
    input from both retraining commands, not with a traceback."""
    cfg, out = tiny
    for argv in [("synth-data",), ("train-source",), ("prune",), ("dump-activations",),
                 ("train-cvae",)]:
        assert run(cfg, out, *argv) == 0
    stream = formats.load_activations(out / cli.TARGET_STREAM)
    formats.save_activations(out / cli.TARGET_STREAM,
                             ActivationBatch(stream.features[:0], labels=stream.labels[:0]))
    manifest_path = out / "manifest_synth-data.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["artifacts"][cli.TARGET_STREAM] = hashlib.sha256(
        (out / cli.TARGET_STREAM).read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    assert run(cfg, out, "adapt") == cli.EXIT_INVALID
    assert run(cfg, out, "baseline") == cli.EXIT_INVALID
    assert not (out / cli.BASELINE_MODEL).exists()


def test_estimate_domain_stream_flag(tiny):
    cfg, out = tiny
    for argv in [("synth-data",), ("train-source",)]:
        assert run(cfg, out, *argv) == 0
    code = run(cfg, out, "estimate-domain", "--stream", str(out / cli.DATA_VAL))
    assert code == 0
    domain = json.loads((out / cli.DOMAIN).read_text())
    assert domain["observed"] == 40  # 4 classes x 10 val rows
    missing = run(cfg, out, "estimate-domain", "--stream", str(out / "nope.lpac"))
    assert missing == cli.EXIT_MISSING


def _other_config(tmp_path, classes, input_dim):
    other = tmp_path / "other.ini"
    other.write_text(TINY_CONFIG.replace("classes = 4\ninput_dim = 8",
                                         f"classes = {classes}\ninput_dim = {input_dim}"),
                     encoding="utf-8")
    return other


@pytest.mark.parametrize("classes, input_dim, words", [
    (5, 12, ("rows 12 wide", "input_dim is 8")),
    (5, 8, ("label 4", "classes is 4")),
], ids=["width", "labels"])
def test_dataset_of_another_config_exit_code(tiny, tmp_path, capsys, classes, input_dim,
                                             words):
    """A dataset synthesized under another config, whose rows are not this
    config's input_dim wide or whose labels reach its class count, is
    malformed; the message names the file and both numbers."""
    cfg, out = tiny
    assert run(_other_config(tmp_path, classes, input_dim), out, "synth-data") == 0
    assert run(cfg, out, "train-source") == cli.EXIT_FORMAT
    err = capsys.readouterr().err
    assert str(out / cli.DATA_TRAIN) in err
    for word in words:
        assert word in err, word
    assert not (out / cli.MODEL_M0).exists()


def test_prune_under_another_config_exit_code(tiny, tmp_path, capsys):
    """prune under this config, on a dataset and m0 built under another, is
    refused before it writes an mp.lpmd pruned at this config's fraction."""
    cfg, out = tiny
    other = _other_config(tmp_path, 5, 12)
    for argv in [("synth-data",), ("train-source",)]:
        assert run(other, out, *argv) == 0
    assert run(cfg, out, "prune") == cli.EXIT_FORMAT
    assert str(out / cli.DATA_TRAIN) in capsys.readouterr().err
    assert not (out / cli.MODEL_MP).exists()


def test_stream_of_another_width_exit_code(tiny, tmp_path, capsys):
    """--stream naming a file of another width is malformed, and the message
    names the file and both widths."""
    cfg, out = tiny
    for argv in [("synth-data",), ("train-source",)]:
        assert run(cfg, out, *argv) == 0
    narrow = tmp_path / "narrow.lpac"
    formats.save_activations(narrow, ActivationBatch(
        formats.load_activations(out / cli.DATA_VAL).features[:4, :7]))
    assert run(cfg, out, "estimate-domain", "--stream", str(narrow)) == cli.EXIT_FORMAT
    err = capsys.readouterr().err
    assert str(narrow) in err and "rows 7 wide" in err and "input_dim is 8" in err
    assert not (out / cli.DOMAIN).exists()


def test_stream_that_is_a_directory_exit_code(tiny, tmp_path, capsys):
    """--stream naming a directory is a missing input file, named in the
    message."""
    cfg, out = tiny
    for argv in [("synth-data",), ("train-source",)]:
        assert run(cfg, out, *argv) == 0
    stream_dir = tmp_path / "stream-dir"
    stream_dir.mkdir()
    assert run(cfg, out, "estimate-domain", "--stream", str(stream_dir)) == cli.EXIT_MISSING
    assert str(stream_dir) in capsys.readouterr().err
    assert not (out / cli.DOMAIN).exists()


def test_out_that_is_a_file_exit_code(tiny, tmp_path, capsys):
    """--out naming an existing regular file is an invalid argument, named in
    the message, and the file is left as it was."""
    cfg, _ = tiny
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    assert run(cfg, taken, "synth-data") == cli.EXIT_INVALID
    assert "--out" in capsys.readouterr().err
    assert taken.read_text(encoding="utf-8") == "not a directory\n"


@pytest.mark.parametrize("before, name, command", [
    (0, cli.DATA_TRAIN, "synth-data"),  # an artifact the command writes
    (2, cli.MODEL_M0, "prune"),  # an input artifact
    (2, "manifest_train-source.json", "prune"),  # the input's manifest
])
def test_artifact_path_that_is_a_directory_exit_code(tiny, capsys, before, name, command):
    """A directory where a command reads or writes a file under --out is an
    invalid argument, named in the message."""
    cfg, out = tiny
    for argv in STAGE_CHAIN[:before]:
        assert run(cfg, out, *argv) == 0
    path = out / name
    path.unlink(missing_ok=True)
    path.mkdir(parents=True)
    assert run(cfg, out, command) == cli.EXIT_INVALID
    assert str(path) in capsys.readouterr().err


def test_out_dir_from_environment(tiny, tmp_path, monkeypatch):
    cfg, _ = tiny
    target = tmp_path / "env_out"
    monkeypatch.setenv("LOCO_PDA_OUT", str(target))
    assert cli.main(["synth-data", "--config", str(cfg)]) == 0
    assert (target / cli.DATA_TRAIN).exists()


def test_write_default_config_round_trips(tmp_path):
    p = tmp_path / "default.ini"
    cli.write_default_config(p)
    assert load_config(p) == PipelineConfig()


def test_run_all_tiny_produces_matrix(tiny):
    cfg, out = tiny
    assert run(cfg, out, "run-all") == 0
    matrix = json.loads((out / cli.MATRIX).read_text())
    # 2 scenarios (target + one extra subset) x 4 methods x 1 seed
    assert len(matrix["cells"]) == 8
    scenario_names = {c["scenario"] for c in matrix["cells"]}
    assert scenario_names == {"classes-0-1", "classes-2-3"}
    for cell in matrix["cells"]:
        assert cell["error"] is None
    assert (out / "manifest_run-all.json").exists()


def test_run_all_files_resave_to_the_same_bytes(tiny, tmp_path):
    """Every .lpac and .lpmd a run-all writes loads, through the loader its
    readers use, into an object that saves to the same bytes."""
    cfg, out = tiny
    assert run(cfg, out, "run-all") == 0
    again = tmp_path / "again"
    checked = set()
    for path in sorted(out.glob("*.lpac")):
        formats.save_activations(again, formats.load_activations(path))
        assert again.read_bytes() == path.read_bytes(), path.name
        checked.add(path.name)
    for path in sorted(out.glob("*.lpmd")):
        kind = formats.load_model_file(path)[0]
        if kind == formats.KIND_MLP:
            formats.save_mlp(again, formats.load_mlp(path))
            assert again.read_bytes() == path.read_bytes(), path.name
            checked.add(path.name)
        elif kind == formats.KIND_CVAE_ENCODER:
            dec = path.with_name(path.name.replace("enc", "dec"))
            formats.save_cvae(again, tmp_path / "again_dec", formats.load_cvae(path, dec))
            assert again.read_bytes() == path.read_bytes(), path.name
            assert (tmp_path / "again_dec").read_bytes() == dec.read_bytes(), dec.name
            checked |= {path.name, dec.name}
    written = {p.name for p in out.iterdir() if p.suffix in (".lpac", ".lpmd")}
    assert checked == written
    # the models and activations of every stage, one generator pair per class
    # for the unconditional pack
    assert {cli.MODEL_M0, cli.MODEL_MP, cli.ADAPTED, cli.BASELINE_MODEL, cli.CVAE_ENC,
            cli.CVAE_DEC, cli.DATA_TRAIN, cli.ACTS_TRAIN, cli.uncond_dec_name(0)} <= written


def test_run_all_writes_what_the_stage_commands_write(tiny, tmp_path):
    """run-all shares one Scenario across its stages; every file the stage
    commands write one by one, manifests included, must come out the same."""
    cfg, _ = tiny
    whole, staged = tmp_path / "whole", tmp_path / "staged"
    assert run(cfg, whole, "run-all") == 0
    for argv in STAGE_CHAIN:
        assert run(cfg, staged, *argv) == 0, f"{argv[0]} failed"
    staged_files = {p.name for p in staged.iterdir()}
    assert ({p.name for p in whole.iterdir()}
            == staged_files | {cli.MATRIX, "manifest_run-all.json"})
    for name in sorted(staged_files):
        assert (whole / name).read_bytes() == (staged / name).read_bytes(), name


def test_run_all_runs_each_ground_truth_retraining_once(tiny, training_calls):
    """One run-all: adapt 1, baseline 1, sweep 4 (loco line, two budgets, the
    unbounded point), compare-uncond 1 (the conditional line is the sweep's),
    matrix 2 + 4 (the target subset's ground-truth cells are the sweep's).
    Separate invocations share nothing, so each runs its own."""
    cfg, out = tiny
    calls = training_calls
    assert run(cfg, out, "run-all") == 0
    assert sum(calls) == 13
    calls.clear()
    assert run(cfg, out, "sweep-budget") == 0
    assert sum(calls) == 4
    calls.clear()
    assert run(cfg, out, "compare-uncond") == 0
    assert sum(calls) == 2


def test_run_all_trains_each_seed_group_in_one_call(tiny, tmp_path, training_calls):
    """With two scenario seeds, each multi-seed retraining of run-all trains
    both seeds in one lockstep call: 24 runs (the adapt and baseline stages'
    1 + 1, and 2 per seed group for the 11 groups counted above) in 13
    trainer calls, where one call per run would make 24."""
    cfg, out = tiny
    two = tmp_path / "two-seeds.ini"
    two.write_text(TINY_CONFIG.replace("seeds = 0\n", "seeds = 0,1\n"), encoding="utf-8")
    assert run(two, out, "run-all") == 0
    assert sum(training_calls) == 24
    assert len(training_calls) == 13


def test_run_all_parses_each_manifest_once_per_reader(tiny, monkeypatch):
    """The pack's files are read through one Context.read, so of run-all's
    stages only compare-uncond and memory-report parse its manifest, once each."""
    cfg, out = tiny
    parsed = []
    original = cli._read_json

    def counting(path, *args):
        parsed.append(path.name)
        return original(path, *args)

    monkeypatch.setattr(cli, "_read_json", counting)
    assert run(cfg, out, "run-all") == 0
    assert parsed.count("manifest_train-uncond.json") == 2


def test_pack_of_mixed_widths_exit_code(tiny, capsys):
    """A pack member file of another activation width is malformed input
    (exit 4), reported with the pack's files and the member's index."""
    cfg, out = tiny
    for argv in STAGE_CHAIN[:6]:  # synth-data through train-uncond
        assert run(cfg, out, *argv) == 0
    a_dim = formats.load_cvae(out / cli.uncond_enc_name(1),
                              out / cli.uncond_dec_name(1)).a_dim
    wider = CvaeModel.create(make_rng(0), a_dim + 1, 0, z_dim=2,
                             enc_widths=(8,), dec_widths=(8,))
    formats.save_cvae(out / cli.uncond_enc_name(1), out / cli.uncond_dec_name(1), wider)
    capsys.readouterr()
    assert run(cfg, out, "memory-report") == cli.EXIT_FORMAT
    err = capsys.readouterr().err
    assert cli.uncond_enc_name(0) in err and "member 1 has activation width" in err


def _fork_skip_reason() -> str | None:
    """Why run-all cannot fork here, or None where it does."""
    if sys.platform != "linux":
        return f"run-all forks only on Linux, not {sys.platform}"
    threads = len(os.listdir("/proc/self/task"))
    if threads > 1:
        return (f"the test process runs {threads} threads (an unpinned BLAS pool?); "
                "run-all forks only from a single-threaded process")
    if len(os.sched_getaffinity(0)) < 2:
        return "run-all forks only with a second CPU to run on"
    return None


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_same_tree(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def _record_pack_pid(monkeypatch, path):
    """Patch cvae.train_uncond_pack to write the pid it runs in to path."""
    original = cvae.train_uncond_pack

    def recording(*args, **kwargs):
        path.write_text(str(os.getpid()), encoding="utf-8")
        return original(*args, **kwargs)

    monkeypatch.setattr(cvae, "train_uncond_pack", recording)


def test_run_all_trains_the_pack_in_a_forked_child(tiny, tmp_path, monkeypatch):
    reason = _fork_skip_reason()
    if reason:
        pytest.skip(reason)
    cfg, out = tiny
    pid_file = tmp_path / "pack.pid"
    _record_pack_pid(monkeypatch, pid_file)
    assert run(cfg, out, "run-all") == 0
    assert int(pid_file.read_text()) != os.getpid()
    _assert_no_child_left()


def test_run_all_in_a_threaded_process_trains_in_order_to_the_same_bytes(
        tiny, tmp_path, monkeypatch):
    """A second thread makes the process unsafe to fork, so the pack trains in
    this process; every file under --out is what the forking run writes."""
    cfg, _ = tiny
    forking, ordered = tmp_path / "forking", tmp_path / "ordered"
    assert run(cfg, forking, "run-all") == 0
    pid_file = tmp_path / "pack.pid"
    _record_pack_pid(monkeypatch, pid_file)
    release = threading.Event()
    helper = threading.Thread(target=release.wait)
    helper.start()
    try:
        assert run(cfg, ordered, "run-all") == 0
    finally:
        release.set()
        helper.join(timeout=10)
    assert not helper.is_alive()
    assert int(pid_file.read_text()) == os.getpid()
    _assert_same_tree(forking, ordered)
    _assert_no_child_left()


def test_run_all_pack_divergence_exit_code(tiny, monkeypatch, capsys):
    cfg, out = tiny

    def diverging(*args, **kwargs):
        raise DivergenceError("pack loss went non-finite")

    monkeypatch.setattr(cvae, "train_uncond_pack", diverging)
    assert run(cfg, out, "run-all") == cli.EXIT_NUMERIC
    assert "pack loss went non-finite" in capsys.readouterr().err
    assert (out / "manifest_train-cvae.json").exists()
    assert not (out / "manifest_train-uncond.json").exists()
    _assert_no_child_left()


def test_run_all_reports_the_cvae_error_over_the_packs(tiny, monkeypatch, capsys):
    cfg, out = tiny

    def bad_labels(*args, **kwargs):
        raise LabelError("cvae batch labels out of range")

    def diverging(*args, **kwargs):
        raise DivergenceError("pack loss went non-finite")

    monkeypatch.setattr(cvae, "train_cvae", bad_labels)
    monkeypatch.setattr(cvae, "train_uncond_pack", diverging)
    assert run(cfg, out, "run-all") == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert "cvae batch labels out of range" in err and "pack loss" not in err
    _assert_no_child_left()


def _exit_3():
    os._exit(3)


def _diverge():
    raise DivergenceError("pack loss went non-finite")


@pytest.mark.parametrize("fail", [_exit_3, _diverge], ids=["exit-3", "divergence"])
def test_run_all_reruns_in_order_a_stage_whose_child_fails(tiny, tmp_path, monkeypatch,
                                                         fail):
    """A child that fails, by its exit status or by an exception, leaves its
    stage to run again in this process: run-all succeeds and writes the bytes
    a forking run writes."""
    reason = _fork_skip_reason()
    if reason:
        pytest.skip(reason)
    cfg, _ = tiny
    forking, rerun = tmp_path / "forking", tmp_path / "rerun"
    assert run(cfg, forking, "run-all") == 0
    child_tried, pid_file = tmp_path / "child-tried", tmp_path / "pack.pid"
    _record_pack_pid(monkeypatch, pid_file)
    parent, recording = os.getpid(), cvae.train_uncond_pack

    def failing_in_the_child(*args, **kwargs):
        if os.getpid() != parent:
            child_tried.touch()
            fail()
        return recording(*args, **kwargs)

    monkeypatch.setattr(cvae, "train_uncond_pack", failing_in_the_child)
    assert run(cfg, rerun, "run-all") == 0
    assert child_tried.exists()
    assert int(pid_file.read_text()) == parent
    _assert_same_tree(forking, rerun)
    _assert_no_child_left()


def test_run_all_fork_skip_reason_restates_can_fork():
    assert (_fork_skip_reason() is None) == cli._can_fork()


def test_readme_names_every_command_exit_code_and_section():
    """The README names every subcommand, lists every category exit code in
    its exit-code paragraph, and names every config section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for name in cli.COMMANDS:
        assert f"loco-pda {name} " in readme, name
    exit_codes = " ".join(readme.split("Exit codes:", 1)[1].split("\n\n", 1)[0].split())
    for _, code in cli._ERROR_CODES:
        assert f"`{code}` " in exit_codes, code
    for section in config._SECTIONS:
        assert f"[{section}]" in readme, section

"""Command-line frontend.

Every subcommand takes --config/--seed/--out, reads its inputs from the
output directory by well-known names, writes its artifacts plus a run
manifest (command, config hash, seed, artifact sha256 checksums), and exits
with a category-specific code on failure. Given the same config and seed,
every command writes byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import sys
from dataclasses import asdict
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from . import adaptation, cvae, evaluation, formats, models
from .adaptation import ClassDistribution, LabelMode, Scenario
from .config import PipelineConfig, config_hash, load_config, render_config
from .errors import (
    ChecksumError,
    ConfigError,
    FormatError,
    LabelError,
    LocoError,
    MissingInputError,
    NumericError,
    ShapeError,
)

# artifact names inside the output directory
DATA_TRAIN = "data_train.lpac"
DATA_VAL = "data_val.lpac"
TARGET_STREAM = "target_stream.lpac"
MODEL_M0 = "m0.lpmd"
MODEL_MP = "mp.lpmd"
ACTS_TRAIN = "acts_train.lpac"
CVAE_ENC = "cvae_enc.lpmd"
CVAE_DEC = "cvae_dec.lpmd"
SOURCE_LOG = "source_log.json"
CVAE_LOG = "cvae_log.json"
UNCOND_LOG = "uncond_log.json"
DOMAIN = "domain.json"
ADAPTED = "adapted.lpmd"
ADAPT_REPORT = "adapt_report.json"
BASELINE_MODEL = "baseline.lpmd"
BASELINE_REPORT = "baseline_report.json"
EVALUATION = "evaluation.json"
SWEEP_CSV = "budget_sweep.csv"
SWEEP_JSON = "budget_sweep.json"
UNCOND_COMPARE = "uncond_compare.json"
MEMORY = "memory.json"
MATRIX = "matrix.json"

EXIT_INTERNAL = 1
# argparse exits with 2 on usage errors; category codes start above it
EXIT_CONFIG = 3
EXIT_FORMAT = 4
EXIT_CHECKSUM = 5
EXIT_NUMERIC = 6
EXIT_MISSING = 7
EXIT_INVALID = 8


def uncond_enc_name(c: int) -> str:
    return f"uncond_enc_{c:03d}.lpmd"


def uncond_dec_name(c: int) -> str:
    return f"uncond_dec_{c:03d}.lpmd"


class Context:
    def __init__(self, cfg: PipelineConfig, seed: int, out: Path):
        self.cfg = cfg
        self.seed = seed
        self.out = out
        self.cfg_hash = config_hash(cfg)
        self._scenarios: dict[tuple[int, ...], Scenario] = {}

    def path(self, name: str) -> Path:
        return self.out / name

    def read(self, load, producer: str, *names: str):
        """load(*paths) of the named input artifacts. Each must exist and, once
        loaded (so a file that does not parse fails as malformed first), match
        the checksum that manifest_<producer>.json recorded. An artifact that
        manifest does not record, or a missing manifest, is not checked."""
        for name in names:
            if not self.path(name).exists():
                raise MissingInputError(
                    f"{name} not found in {self.out}; run `loco-pda {producer}` first"
                )
        result = load(*map(self.path, names))
        manifest = self.path(f"manifest_{producer}.json")
        recorded = (_read_json(manifest, "artifacts", _is_digest_map)["artifacts"]
                    if manifest.exists() else {})
        for name in [n for n in names if n in recorded]:
            want, got = recorded[name], _sha256(self.path(name))
            if got != want:
                raise ChecksumError(
                    f"{name} does not match its manifest checksum "
                    f"(recorded {want[:12]}…, file {got[:12]}…)"
                )
        return result

    def scenario(self, classes) -> Scenario:
        """The Scenario of this class subset, shared by every stage of this
        invocation that asks for it, so the ground-truth retrainings one stage
        ran are not run again by the next."""
        classes = tuple(classes)
        # built on first use: in run-all that is after every stage that writes
        # the dataset and models, and no later stage rewrites them
        if classes not in self._scenarios:
            self._scenarios[classes] = Scenario(**self._scenario_inputs,
                                                target_classes=classes, seed=self.seed)
        return self._scenarios[classes]

    @cached_property
    def _scenario_inputs(self) -> dict:
        """The dataset and the three models every Scenario shares, read once."""
        return {"dataset": _load_dataset(self), "m0": _load_m0(self),
                "mp": _load_mp(self), "cvae": _load_cvae(self)}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _read_json(path: Path, key: str, valid) -> dict:
    """The JSON object in path, whose value at key passes valid(); anything
    else is a malformed artifact."""
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # undecodable bytes or invalid JSON
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    if not (isinstance(obj, dict) and key in obj and valid(obj[key])):
        raise FormatError(f"{path} is not a JSON object with a valid {key!r}")
    return obj


def _is_digest_map(value) -> bool:
    return isinstance(value, dict) and all(isinstance(v, str) for v in value.values())


def _is_number_list(value) -> bool:
    # json gives int or float for every number, and bool for true and false;
    # Python's parser also reads NaN and Infinity as floats
    return isinstance(value, list) and all(
        type(v) is int or (type(v) is float and math.isfinite(v)) for v in value)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_manifest(ctx: Context, command: str, artifacts: list[str]) -> None:
    manifest = {
        "command": command,
        "config_hash": ctx.cfg_hash,
        "seed": ctx.seed,
        "artifacts": {name: _sha256(ctx.path(name)) for name in sorted(artifacts)},
    }
    _write_json(ctx.path(f"manifest_{command}.json"), manifest)


def _read_inputs(path: Path, cfg: PipelineConfig) -> models.ActivationBatch:
    """The input rows path holds, which must be [dataset] input_dim wide and
    carry no label at or above [dataset] classes."""
    batch = formats.load_activations(path)
    width = batch.features.shape[1]
    if width != cfg.input_dim:
        raise FormatError(f"{path} holds rows {width} wide; input_dim is {cfg.input_dim}")
    if batch.labels is not None and batch.labels.size and batch.labels.max() >= cfg.classes:
        raise FormatError(f"{path} holds label {batch.labels.max()}; "
                          f"classes is {cfg.classes}")
    return batch


def _load_dataset(ctx: Context) -> models.LabeledDataset:
    def load(*paths):
        return [_read_inputs(path, ctx.cfg) for path in paths]
    train, val = ctx.read(load, "synth-data", DATA_TRAIN, DATA_VAL)
    for name, split in ((DATA_TRAIN, train), (DATA_VAL, val)):
        if split.labels is None:
            raise FormatError(f"{ctx.path(name)}: dataset files must carry labels")
    spec = ctx.cfg.dataset_spec(ctx.seed)
    return models.LabeledDataset(spec, train.features, train.labels,
                                 val.features, val.labels)


def _load_m0(ctx: Context) -> models.MlpModel:
    return ctx.read(formats.load_mlp, "train-source", MODEL_M0)


def _load_mp(ctx: Context) -> models.MlpModel:
    return ctx.read(formats.load_mlp, "prune", MODEL_MP)


def _load_cvae(ctx: Context) -> cvae.CvaeModel:
    return ctx.read(formats.load_cvae, "train-cvae", CVAE_ENC, CVAE_DEC)


def _load_pack(ctx: Context) -> cvae.UncondVaePack:
    names = [name for c in range(ctx.cfg.classes)
             for name in (uncond_enc_name(c), uncond_dec_name(c))]
    return ctx.read(_read_pack, "train-uncond", *names)


def _read_pack(*paths: Path) -> cvae.UncondVaePack:
    """The pack whose members' encoder and decoder files paths lists in pairs."""
    members = [formats.load_cvae(enc, dec) for enc, dec in zip(paths[::2], paths[1::2])]
    try:
        return cvae.UncondVaePack(members)
    except ShapeError as exc:
        raise FormatError(f"{paths[0]} … {paths[-1]} do not form one pack: {exc}") from exc


def _load_stream(ctx: Context, stream_arg: str | None) -> models.ActivationBatch:
    if stream_arg is not None:
        p = Path(stream_arg)
        if not p.is_file():
            raise MissingInputError(f"stream file {p} does not exist or is not a file")
        return _read_inputs(p, ctx.cfg)
    return ctx.read(partial(_read_inputs, cfg=ctx.cfg), "synth-data", TARGET_STREAM)


def _val_subset(ctx: Context):
    ds = _load_dataset(ctx)
    return adaptation.class_rows(ds.val_x, ds.val_y, ctx.cfg.target_classes)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth_data(ctx: Context, args) -> list[str]:
    ds = models.synth_dataset(ctx.cfg.dataset_spec(ctx.seed))
    formats.save_activations(ctx.path(DATA_TRAIN),
                             models.ActivationBatch(ds.train_x, labels=ds.train_y))
    formats.save_activations(ctx.path(DATA_VAL),
                             models.ActivationBatch(ds.val_x, labels=ds.val_y))
    x, y = adaptation.class_rows(ds.train_x, ds.train_y, ctx.cfg.target_classes)
    formats.save_activations(ctx.path(TARGET_STREAM), models.ActivationBatch(x, labels=y))
    return [DATA_TRAIN, DATA_VAL, TARGET_STREAM]


def cmd_train_source(ctx: Context, args) -> list[str]:
    ds = _load_dataset(ctx)
    model, log = models.train_source_model(
        ds, feature_widths=tuple(ctx.cfg.feature_widths),
        hyper=ctx.cfg.source_hyper(), seed=ctx.seed)
    formats.save_mlp(ctx.path(MODEL_M0), model)
    _write_json(ctx.path(SOURCE_LOG), [asdict(e) for e in log])
    return [MODEL_M0, SOURCE_LOG]


def cmd_prune(ctx: Context, args) -> list[str]:
    ds = _load_dataset(ctx)
    m0 = _load_m0(ctx)
    mp = models.prune_model(m0, ctx.cfg.prune_fraction, ds,
                            finetune_hyper=ctx.cfg.finetune_hyper(), seed=ctx.seed)
    formats.save_mlp(ctx.path(MODEL_MP), mp)
    return [MODEL_MP]


def cmd_dump_activations(ctx: Context, args) -> list[str]:
    ds = _load_dataset(ctx)
    mp = _load_mp(ctx)
    batch = models.extract_activations(mp, ds.train_x, labels=ds.train_y)
    formats.save_activations(ctx.path(ACTS_TRAIN), batch)
    return [ACTS_TRAIN]


def cmd_train_cvae(ctx: Context, args) -> list[str]:
    batch = ctx.read(formats.load_activations, "dump-activations", ACTS_TRAIN)
    model, log = cvae.train_cvae(
        batch, ctx.cfg.classes, hyper=ctx.cfg.cvae_hyper(), seed=ctx.seed,
        z_dim=ctx.cfg.cvae_z_dim, enc_widths=tuple(ctx.cfg.cvae_enc_widths),
        dec_widths=tuple(ctx.cfg.cvae_dec_widths))
    formats.save_cvae(ctx.path(CVAE_ENC), ctx.path(CVAE_DEC), model)
    _write_json(ctx.path(CVAE_LOG), [asdict(e) for e in log])
    return [CVAE_ENC, CVAE_DEC, CVAE_LOG]


def cmd_train_uncond(ctx: Context, args) -> list[str]:
    batch = ctx.read(formats.load_activations, "dump-activations", ACTS_TRAIN)
    pack, logs = cvae.train_uncond_pack(
        batch, ctx.cfg.classes, hyper=ctx.cfg.cvae_hyper(), seed=ctx.seed,
        z_dim=ctx.cfg.uncond_z_dim, enc_widths=tuple(ctx.cfg.uncond_enc_widths),
        dec_widths=tuple(ctx.cfg.uncond_dec_widths))
    written = []
    for c, model in enumerate(pack.vaes):
        formats.save_cvae(ctx.path(uncond_enc_name(c)), ctx.path(uncond_dec_name(c)),
                          model)
        written += [uncond_enc_name(c), uncond_dec_name(c)]
    _write_json(ctx.path(UNCOND_LOG), [
        {"class": c, "final_loss": log[-1].loss, "final_recon": log[-1].recon,
         "final_kl": log[-1].kl}
        for c, log in enumerate(logs)
    ])
    return written + [UNCOND_LOG]


def cmd_estimate_domain(ctx: Context, args) -> list[str]:
    m0 = _load_m0(ctx)
    stream = _load_stream(ctx, args.stream)
    dist = adaptation.estimate_domain(m0, stream.features)
    _write_json(ctx.path(DOMAIN), {
        "probs": [float(p) for p in dist.probs],
        "support": [int(c) for c in dist.support],
        "observed": int(stream.features.shape[0]),
    })
    return [DOMAIN]


def _load_domain(ctx: Context) -> ClassDistribution:
    return ctx.read(partial(_read_domain, classes=ctx.cfg.classes), "estimate-domain", DOMAIN)


def _read_domain(path: Path, classes: int) -> ClassDistribution:
    """The distribution over the config's classes that path holds."""
    probs = _read_json(path, "probs", _is_number_list)["probs"]
    if len(probs) != classes:
        raise FormatError(f"{path} holds {len(probs)} probabilities for {classes} classes")
    try:
        return ClassDistribution(np.asarray(probs, dtype=np.float64))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def cmd_adapt(ctx: Context, args) -> list[str]:
    mp = _load_mp(ctx)
    generator = _load_cvae(ctx)
    stream = _load_stream(ctx, None)
    val = _val_subset(ctx)
    cfg = ctx.cfg.adapt_config()
    cfg.label_mode = LabelMode(args.labels)
    if cfg.label_mode is LabelMode.ESTIMATED:
        dist = _load_domain(ctx)
    else:
        if stream.labels is None:
            raise LabelError("target stream carries no labels; "
                             "use --labels estimated instead")
        dist = ClassDistribution.from_labels(stream.labels, ctx.cfg.classes)
    adapted, report = adaptation.adapt_classifier(mp, generator, dist, cfg,
                                                  seed=ctx.seed, val=val)
    formats.save_mlp(ctx.path(ADAPTED), adapted)
    _write_json(ctx.path(ADAPT_REPORT), report.to_json_dict())
    return [ADAPTED, ADAPT_REPORT]


def cmd_baseline(ctx: Context, args) -> list[str]:
    mp = _load_mp(ctx)
    stream = _load_stream(ctx, None)
    if stream.labels is None:
        raise LabelError("target stream carries no labels")
    val = _val_subset(ctx)
    stored = models.extract_activations(mp, stream.features, labels=stream.labels)
    model, report = adaptation.retrain_baseline(
        mp, stored, budget_bytes=args.budget,
        hyper=ctx.cfg.baseline_hyper(), seed=ctx.seed, val=val)
    formats.save_mlp(ctx.path(BASELINE_MODEL), model)
    _write_json(ctx.path(BASELINE_REPORT), report.to_json_dict())
    return [BASELINE_MODEL, BASELINE_REPORT]


def cmd_evaluate(ctx: Context, args) -> list[str]:
    m0 = _load_m0(ctx)
    mp = _load_mp(ctx)
    val = _val_subset(ctx)
    results = {
        "target_classes": [int(c) for c in ctx.cfg.target_classes],
        "deployed": evaluation.top1_accuracy(m0, *val),
        "pruned_no_retrain": evaluation.top1_accuracy(mp, *val),
    }
    for name, key, producer in ((ADAPTED, "adapted", "adapt"),
                                (BASELINE_MODEL, "baseline", "baseline")):
        if ctx.path(name).exists():
            model = ctx.read(formats.load_mlp, producer, name)
            results[key] = evaluation.top1_accuracy(model, *val)
    _write_json(ctx.path(EVALUATION), results)
    return [EVALUATION]


def cmd_sweep_budget(ctx: Context, args) -> list[str]:
    scenario = ctx.scenario(ctx.cfg.target_classes)
    result = evaluation.budget_sweep(
        scenario, list(ctx.cfg.sweep_budgets), seeds=ctx.cfg.seeds,
        cfg=ctx.cfg.adapt_config(), baseline_hyper=ctx.cfg.baseline_hyper())
    ctx.path(SWEEP_CSV).write_text(result.to_csv(), encoding="utf-8")
    _write_json(ctx.path(SWEEP_JSON), result.to_json_dict())
    return [SWEEP_CSV, SWEEP_JSON]


def cmd_compare_uncond(ctx: Context, args) -> list[str]:
    scenario = ctx.scenario(ctx.cfg.target_classes)
    pack = _load_pack(ctx)
    report = evaluation.cond_vs_uncond(scenario, pack, cfg=ctx.cfg.adapt_config(),
                                       seeds=ctx.cfg.seeds)
    _write_json(ctx.path(UNCOND_COMPARE), report.to_json_dict())
    return [UNCOND_COMPARE]


def cmd_memory_report(ctx: Context, args) -> list[str]:
    m0, mp = _load_m0(ctx), _load_mp(ctx)
    gen = _load_cvae(ctx)
    pack = _load_pack(ctx)
    stream = _load_stream(ctx, None)
    loco = evaluation.build_ledger(evaluation.LedgerSpec(
        "loco", m0, mp, generator=gen, pool_rows=ctx.cfg.adapt_r,
        batch_size=ctx.cfg.adapt_batch))
    base = evaluation.build_ledger(evaluation.LedgerSpec(
        "baseline", m0, mp, stored_rows=stream.features.shape[0],
        batch_size=ctx.cfg.baseline_batch))
    cvae_bytes = models.model_memory_bytes(gen)
    pack_bytes = models.model_memory_bytes(pack)
    _write_json(ctx.path(MEMORY), {
        "loco": loco.to_json_dict(),
        "baseline": base.to_json_dict(),
        "baseline_over_loco_total": base.total / loco.total,
        "cvae_bytes": cvae_bytes,
        "uncond_pack_bytes": pack_bytes,
        "uncond_pack_over_cvae": pack_bytes / cvae_bytes,
    })
    return [MEMORY]


def _can_fork() -> bool:
    """Whether a stage can run in a forked child beside the parent's and gain:
    on Linux, from a single-threaded process (a fork copies only the calling
    thread, so a lock that another thread holds, a BLAS pool's say, stays held
    in the child), with a second CPU for the child to run on."""
    if sys.platform != "linux":
        return False
    try:
        return (len(os.listdir("/proc/self/task")) == 1
                and len(os.sched_getaffinity(0)) >= 2)
    except OSError:  # no /proc mounted
        return False


def _run_stage(ctx: Context, name: str, args) -> list[str]:
    """Run the named command and write its manifest; the names it wrote."""
    written = COMMANDS[name](ctx, args)
    _write_manifest(ctx, name, written)
    return written


def cmd_run_all(ctx: Context, args) -> list[str]:
    # each stage as its own command would run with `--labels estimated`
    stage_args = argparse.Namespace(stream=None, labels="estimated", budget=None)
    # train-uncond and train-cvae read only dump-activations' output, so where
    # a second CPU is free the pack trains in a child beside the CVAE. The
    # child reports by its exit status only; a child that fails leaves the
    # stage to run again here, in order, so any error is the in-order run's.
    child = None
    try:
        for name in COMMANDS:
            if name == "run-all":
                continue
            if name == "train-cvae" and _can_fork():
                child = os.fork()
                if child == 0:
                    # os._exit: the child never returns into the parent's
                    # frames, nor runs its exit handlers or flushes its
                    # buffered output a second time
                    status = 1
                    try:
                        _run_stage(ctx, "train-uncond", stage_args)
                        status = 0
                    finally:
                        os._exit(status)
            if name == "train-uncond" and child is not None:
                _, status = os.waitpid(child, 0)
                child = None
                if status == 0:
                    continue
            _run_stage(ctx, name, stage_args)
    finally:
        if child is not None:
            os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)
    scenarios = [("classes-" + "-".join(str(c) for c in subset), ctx.scenario(subset))
                 for subset in [ctx.cfg.target_classes, *ctx.cfg.extra_subsets]]
    matrix = evaluation.run_experiment_matrix(
        scenarios, seeds=ctx.cfg.seeds, cfg=ctx.cfg.adapt_config(),
        baseline_hyper=ctx.cfg.baseline_hyper())
    _write_json(ctx.path(MATRIX), matrix.to_json_dict())
    return [MATRIX]


# in the order run-all runs them
COMMANDS = {
    "synth-data": cmd_synth_data,
    "train-source": cmd_train_source,
    "prune": cmd_prune,
    "dump-activations": cmd_dump_activations,
    "train-cvae": cmd_train_cvae,
    "train-uncond": cmd_train_uncond,
    "estimate-domain": cmd_estimate_domain,
    "adapt": cmd_adapt,
    "baseline": cmd_baseline,
    "evaluate": cmd_evaluate,
    "sweep-budget": cmd_sweep_budget,
    "compare-uncond": cmd_compare_uncond,
    "memory-report": cmd_memory_report,
    "run-all": cmd_run_all,
}


def _integer_from(minimum: int):
    """An argparse type for a decimal integer of at least minimum: the RNG
    seeds accept only non-negative integers, and a budget must buy a byte."""
    def parse(text: str) -> int:
        if not (text.isascii() and text.isdigit()) or int(text) < minimum:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {minimum}, got {text!r}")
        return int(text)
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loco-pda",
        description="Generate class-conditioned activations and retrain a "
                    "pruned classifier on them, end to end at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="config file (defaults built in)")
        p.add_argument("--seed", type=_integer_from(0), default=0)
        p.add_argument("--out", type=str, default=None,
                       help="output directory (default $LOCO_PDA_OUT or ./loco_out)")
        if name == "estimate-domain":
            p.add_argument("--stream", type=str, default=None,
                           help="activation file of observed inputs "
                                "(default: the synthesized target stream)")
        if name == "adapt":
            p.add_argument("--labels", choices=["ground-truth", "estimated"],
                           default="ground-truth")
        if name == "baseline":
            p.add_argument("--budget", type=_integer_from(1), default=None,
                           help="stored-sample budget in bytes (default unbounded)")
    return parser


def write_default_config(path) -> None:
    Path(path).write_text(render_config(PipelineConfig()), encoding="utf-8")


_ERROR_CODES = (
    (ConfigError, EXIT_CONFIG),
    (ChecksumError, EXIT_CHECKSUM),
    (FormatError, EXIT_FORMAT),
    (NumericError, EXIT_NUMERIC),
    (MissingInputError, EXIT_MISSING),
    (LocoError, EXIT_INVALID),
    (ValueError, EXIT_INVALID),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else PipelineConfig()
        cfg.validate()
        out = Path(args.out or os.environ.get("LOCO_PDA_OUT", "loco_out"))
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file in the way, or no permission
            raise LocoError(f"--out {out} cannot be made a directory: {exc}") from exc
        ctx = Context(cfg, args.seed, out)
        try:
            written = _run_stage(ctx, args.command, args)
        except OSError as exc:  # a directory in an artifact's place, say
            if exc.filename is None:  # not about a file: an internal fault
                raise
            raise LocoError(f"{exc.filename}: {exc.strerror}") from exc
        for name in written:
            print(f"wrote {ctx.path(name)}")
        return 0
    except tuple(e for e, _ in _ERROR_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for err_type, code in _ERROR_CODES if isinstance(exc, err_type))


if __name__ == "__main__":
    sys.exit(main())

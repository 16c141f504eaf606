"""The benchmark's workloads, each driving loco_pda through its public API.

A workload has a one-time `setup()` and an `op()` that does the measured work
on seeds no other op of the run uses, and a `check()` of that op's outputs.
`op()` returns what `check()` and `digest()` need; only `op()` is timed and
traced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from loco_pda import adaptation, cli, cvae, evaluation, models
from loco_pda.config import PipelineConfig, parse_config_text, render_config

# The compact configuration of acceptance criterion 11 (tests/test_acceptance.py):
# every stage runs, at a size that takes about a second.
COMPACT_CONFIG = """\
[dataset]
classes = 5
input_dim = 12
train_per_class = 40
val_per_class = 12

[model]
feature_widths = 16,8,6
source_epochs = 12
prune_fraction = 0.25
finetune_epochs = 2

[cvae]
z_dim = 3
enc_widths = 24,12
dec_widths = 16
epochs = 6
batch = 32

[uncond]
z_dim = 2
enc_widths = 12
dec_widths = 12

[adapt]
r = 120
epochs = 3

[baseline]
epochs = 3

[scenario]
target_classes = 0,1,2
extra_subsets = 3,4
seeds = 0,1

[sweep]
budgets = 30,60,120
"""

# Desk check (acceptance criterion 4): each class's generated mean lies within
# this share of the smallest gap between two real class means.
MEAN_GAP_SHARE = 0.15
# Field check (acceptance criterion 6): under 20% flipped labels, accuracy after
# adapting on the generated pool stays within this of the unadapted model.
NOISE_FLIP_RATE = 0.2
NOISE_TOLERANCE = 0.01


def load_config(size: str) -> PipelineConfig:
    cfg = PipelineConfig() if size == "default" else parse_config_text(COMPACT_CONFIG)
    cfg.validate()
    return cfg


class Seeds:
    """Seeds for one run: run seed n hands out n*100000 + 1, + 2, ... so that no
    two ops of a run share a seed and the same run seed repeats the sequence."""

    def __init__(self, seed: int):
        self._next = seed * 100_000

    def take(self) -> int:
        self._next += 1
        return self._next


def _train_desk(cfg: PipelineConfig, seed: int, with_pack: bool):
    """The desk side: synthesize, train, prune, extract, fit the generator(s)."""
    ds = models.synth_dataset(cfg.dataset_spec(seed))
    m0, _ = models.train_source_model(ds, feature_widths=tuple(cfg.feature_widths),
                                      hyper=cfg.source_hyper(), seed=seed)
    mp = models.prune_model(m0, cfg.prune_fraction, ds,
                            finetune_hyper=cfg.finetune_hyper(), seed=seed)
    acts = models.extract_activations(mp, ds.train_x, labels=ds.train_y)
    gen, _ = cvae.train_cvae(acts, cfg.classes, hyper=cfg.cvae_hyper(), seed=seed,
                             z_dim=cfg.cvae_z_dim, enc_widths=tuple(cfg.cvae_enc_widths),
                             dec_widths=tuple(cfg.cvae_dec_widths))
    pack = None
    if with_pack:
        pack, _ = cvae.train_uncond_pack(
            acts, cfg.classes, hyper=cfg.cvae_hyper(), seed=seed,
            z_dim=cfg.uncond_z_dim, enc_widths=tuple(cfg.uncond_enc_widths),
            dec_widths=tuple(cfg.uncond_dec_widths))
    return ds, m0, mp, acts, gen, pack


def _hash_layers(h, layers) -> None:
    for layer in layers:
        h.update(np.ascontiguousarray(layer.weight, dtype="<f4").tobytes())
        h.update(np.ascontiguousarray(layer.bias, dtype="<f4").tobytes())


class DeskTrain:
    """synth -> train_source_model -> prune_model -> extract_activations ->
    train_cvae -> train_uncond_pack, at the configured size."""

    name = "desk-train"

    def __init__(self, cfg: PipelineConfig, seeds: Seeds, workdir: Path):
        self.cfg, self.seeds = cfg, seeds

    def setup(self) -> None:
        pass

    def cleanup(self, out) -> None:
        pass

    def op(self):
        seed = self.seeds.take()
        ds, m0, mp, acts, gen, pack = _train_desk(self.cfg, seed, with_pack=True)
        return {"seed": seed, "m0": m0, "mp": mp, "acts": acts, "gen": gen,
                "pack": pack, "gen_seed": self.seeds.take()}

    def check(self, out) -> tuple[bool, str]:
        acts, gen, s = out["acts"], out["gen"], self.cfg.classes
        real = np.stack([acts.features[acts.labels == c].mean(axis=0) for c in range(s)])
        gaps = np.linalg.norm(real[:, None] - real[None, :], axis=2)
        min_gap = float(gaps[~np.eye(s, dtype=bool)].min())
        pool = cvae.generate_activations(gen, np.full(s, 100), seed=out["gen_seed"])
        fake = np.stack([pool.features[pool.labels == c].mean(axis=0) for c in range(s)])
        worst = float(np.linalg.norm(fake - real, axis=1).max())
        ok = worst < MEAN_GAP_SHARE * min_gap
        return ok, (f"generator mean gap {worst:.4f} vs "
                    f"{MEAN_GAP_SHARE} x min class gap {min_gap:.4f}")

    def digest(self, out) -> str:
        h = hashlib.sha256()
        for model in (out["m0"], out["mp"]):
            _hash_layers(h, model.layers)
        for vae in (out["gen"], *out["pack"].vaes):
            _hash_layers(h, vae.encoder)
            _hash_layers(h, vae.decoder)
        return h.hexdigest()


def _finite(x) -> bool:
    return x is not None and math.isfinite(x)


class FieldAdapt:
    """One field pass per op over a scenario trained once in set-up: the
    experiment matrix, the budget sweep and the 20% label-flip experiment, all
    on one fresh seed.

    One seed per op rather than the config's five keeps an op near 2 s, so a
    run holds about ten ops and their minimum is taken over short windows of a
    host whose speed changes every few seconds (see bench/README.md).
    """

    name = "field-adapt"

    def __init__(self, cfg: PipelineConfig, seeds: Seeds, workdir: Path):
        self.cfg, self.seeds = cfg, seeds
        self.subsets = [tuple(cfg.target_classes), *cfg.extra_subsets]

    def setup(self) -> None:
        self.ds, self.m0, self.mp, _, self.gen, _ = _train_desk(
            self.cfg, self.seeds.take(), with_pack=False)

    def cleanup(self, out) -> None:
        pass

    def op(self):
        cfg, seed = self.cfg, self.seeds.take()
        scenarios = [
            ("classes-" + "-".join(str(c) for c in subset),
             adaptation.Scenario(dataset=self.ds, m0=self.m0, mp=self.mp, cvae=self.gen,
                                 target_classes=subset, seed=seed))
            for subset in self.subsets
        ]
        matrix = evaluation.run_experiment_matrix(
            scenarios, seeds=(seed,), cfg=cfg.adapt_config(),
            baseline_hyper=cfg.baseline_hyper())
        sweep = evaluation.budget_sweep(
            scenarios[0][1], list(cfg.sweep_budgets), seeds=(seed,),
            cfg=cfg.adapt_config(), baseline_hyper=cfg.baseline_hyper())
        noise = adaptation.label_noise_experiment(
            scenarios[0][1], adaptation.SyntheticFlip(NOISE_FLIP_RATE),
            cfg=cfg.adapt_config(), baseline_hyper=cfg.baseline_hyper())
        return {"seed": seed, "matrix": matrix, "sweep": sweep, "noise": noise}

    def check(self, out) -> tuple[bool, str]:
        matrix, sweep, noise = out["matrix"], out["sweep"], out["noise"]
        expected = len(self.subsets) * len(evaluation.MATRIX_METHODS)
        missing = [c for c in matrix.cells if c.report is None]
        accs = [a for c in matrix.cells if c.report is not None
                for a in (c.report.pre_accuracy, c.report.post_accuracy)]
        accs += [a for p in sweep.points for a in p.per_seed]
        accs += [sweep.no_retrain_accuracy, sweep.loco_mean_accuracy]
        accs += [noise.unadapted_accuracy, noise.loco_certain, noise.loco_noisy,
                 noise.baseline_certain, noise.baseline_noisy]
        problems = []
        if len(matrix.cells) != expected or missing:
            problems.append(f"{len(missing)} of {len(matrix.cells)} matrix cells "
                            f"have no report (expected {expected} cells)")
        if not all(_finite(a) for a in accs):
            problems.append("non-finite accuracy")
        if not noise.loco_noisy >= noise.unadapted_accuracy - NOISE_TOLERANCE:
            problems.append(f"noisy-label accuracy {noise.loco_noisy:.4f} below "
                            f"unadapted {noise.unadapted_accuracy:.4f} - {NOISE_TOLERANCE}")
        detail = "; ".join(problems) or (
            f"{len(matrix.cells)} cells, {len(accs)} finite accuracies, noisy "
            f"{noise.loco_noisy:.4f} vs unadapted {noise.unadapted_accuracy:.4f}")
        return not problems, detail

    def digest(self, out) -> str:
        blob = json.dumps({"matrix": out["matrix"].to_json_dict(),
                           "sweep": out["sweep"].to_json_dict(),
                           "noise": out["noise"].to_json_dict()}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class RunAll:
    """`loco-pda run-all` through cli.main, into a fresh --out directory."""

    name = "run-all"

    def __init__(self, cfg: PipelineConfig, seeds: Seeds, workdir: Path):
        self.cfg, self.seeds, self.workdir = cfg, seeds, workdir

    def setup(self) -> None:
        self.config_path = self.workdir / "run-all.ini"
        self.config_path.write_text(render_config(self.cfg), encoding="utf-8")

    def op(self):
        seed = self.seeds.take()
        out = self.workdir / f"run-all-{seed}"
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run-all", "--config", str(self.config_path),
                             "--seed", str(seed), "--out", str(out)])
        return {"seed": seed, "code": code, "out": out}

    def check(self, out) -> tuple[bool, str]:
        root = out["out"]
        if out["code"] != 0:
            return False, f"run-all exited {out['code']}"
        manifests = sorted(root.glob("manifest_*.json"))
        bad, checked = [], 0
        for manifest in manifests:
            artifacts = json.loads(manifest.read_text(encoding="utf-8"))["artifacts"]
            for name, want in artifacts.items():
                checked += 1
                path = root / name
                if not path.is_file() or _file_sha256(path) != want:
                    bad.append(name)
        ok = bool(manifests) and not bad
        return ok, (f"{checked} artifacts in {len(manifests)} manifests, "
                    f"{len(bad)} mismatched" + (f": {bad[:5]}" if bad else ""))

    def digest(self, out) -> str:
        h = hashlib.sha256()
        root = out["out"]
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            h.update(path.relative_to(root).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
        return h.hexdigest()

    def cleanup(self, out) -> None:
        shutil.rmtree(out["out"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (DeskTrain, FieldAdapt, RunAll)}

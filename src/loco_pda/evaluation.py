"""Experiment surface: exact memory ledgers, the storage budget sweep, the
conditional-vs-unconditional comparison, and the experiment matrix that
drives the end-to-end run.

Every byte count here is integer arithmetic over shapes. Nothing is measured
or estimated at runtime; the runtime-memory model is a documented closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .adaptation import (
    AdaptationConfig,
    AdaptationReport,
    ClassDistribution,
    LabelMode,
    Scenario,
    adapt_classifier,
    retrain_baseline,
    stored_row_bytes,
    top1_accuracy,
)
from .cvae import CvaeModel, UncondVaePack
from .errors import LocoError
from .models import MlpModel, TrainHyper, model_memory_bytes


# ---------------------------------------------------------------------------
# Memory ledger
# ---------------------------------------------------------------------------


class MemoryCategory(Enum):
    STATIC_NETWORK = "static-network"
    STATIC_SAMPLES = "static-samples"
    RUNTIME = "runtime"


@dataclass(frozen=True)
class LedgerEntry:
    name: str
    category: MemoryCategory
    bytes: int


@dataclass
class MemoryLedger:
    method: str
    entries: list[LedgerEntry] = field(default_factory=list)

    def add(self, name: str, category: MemoryCategory, nbytes: int) -> None:
        self.entries.append(LedgerEntry(name, category, int(nbytes)))

    def category_total(self, category: MemoryCategory) -> int:
        return sum(e.bytes for e in self.entries if e.category == category)

    @property
    def total(self) -> int:
        return sum(e.bytes for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "entries": [
                {"name": e.name, "category": e.category.value, "bytes": e.bytes}
                for e in self.entries
            ],
            "totals": {c.value: self.category_total(c) for c in MemoryCategory},
            "total": self.total,
        }


def _optimizer_buffer_params(optimizer: str, param_count: int) -> int:
    # Adam keeps two moment buffers per parameter, SGD-momentum one velocity
    if optimizer == "adam":
        return 2 * param_count
    if optimizer == "sgd":
        return param_count
    raise ValueError(f"unknown optimizer '{optimizer}'")


def training_runtime_bytes(layers, batch_size: int, optimizer: str = "sgd") -> int:
    """Closed-form transient footprint of training a layer stack.

    Counts, at 4 bytes each: the parameters themselves, the optimizer's
    buffers, parameter gradients, and one batch of layer inputs/outputs twice
    (forward activations and their gradients).
    """
    param_count = sum(l.weight.size + l.bias.size for l in layers)
    act_units = layers[0].in_dim + sum(l.out_dim for l in layers)
    floats = (param_count                                    # parameters
              + _optimizer_buffer_params(optimizer, param_count)
              + param_count                                  # parameter gradients
              + 2 * batch_size * act_units)                  # activations + gradients
    return 4 * floats


@dataclass
class LedgerSpec:
    method: str                      # "loco" or "baseline"
    m0: MlpModel
    mp: MlpModel
    generator: CvaeModel | UncondVaePack | None = None
    pool_rows: int = 0               # generated rows held during retraining
    stored_rows: int = 0             # baseline stored sample rows
    batch_size: int = 32


def build_ledger(spec: LedgerSpec) -> MemoryLedger:
    """Exact per-component byte ledger for one method configuration."""
    ledger = MemoryLedger(spec.method)
    ledger.add("deployed-model", MemoryCategory.STATIC_NETWORK, model_memory_bytes(spec.m0))
    ledger.add("pruned-model", MemoryCategory.STATIC_NETWORK, model_memory_bytes(spec.mp))
    a_dim = spec.mp.meta.activation_dim
    row = stored_row_bytes(a_dim)
    fc_runtime = training_runtime_bytes([spec.mp.fc_layer], spec.batch_size, "sgd")
    if spec.method == "loco":
        if spec.generator is None:
            raise ValueError("loco ledger needs the generator model")
        ledger.add("generator", MemoryCategory.STATIC_NETWORK,
                   model_memory_bytes(spec.generator))
        ledger.add("stored-samples", MemoryCategory.STATIC_SAMPLES, 0)
        ledger.add("generated-pool", MemoryCategory.RUNTIME, spec.pool_rows * row)
        ledger.add("classifier-training", MemoryCategory.RUNTIME, fc_runtime)
    elif spec.method == "baseline":
        ledger.add("stored-samples", MemoryCategory.STATIC_SAMPLES, spec.stored_rows * row)
        ledger.add("classifier-training", MemoryCategory.RUNTIME, fc_runtime)
    else:
        raise ValueError(f"unknown ledger method '{spec.method}'")
    return ledger


# ---------------------------------------------------------------------------
# Rank correlation (for the budget-sweep monotonicity check)
# ---------------------------------------------------------------------------


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks, ties shared."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i: j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman_rho(xs, ys) -> float:
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
        raise ValueError("need two equal-length 1-D sequences of size >= 2")
    rx, ry = _ranks(xs), _ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = float(np.sqrt((rx * rx).sum() * (ry * ry).sum()))
    if denom == 0:
        return 0.0
    return float((rx * ry).sum() / denom)


# ---------------------------------------------------------------------------
# Budget sweep
# ---------------------------------------------------------------------------


@dataclass
class SweepPoint:
    budget_bytes: int | None         # None marks the unbounded point
    per_seed: list[float]
    mean_accuracy: float


@dataclass
class SweepResult:
    points: list[SweepPoint]
    no_retrain_accuracy: float
    loco_mean_accuracy: float
    crossover_budget: int | None
    cvae_bytes: int

    def to_json_dict(self) -> dict:
        return {
            "points": [
                {"budget_bytes": p.budget_bytes, "per_seed": p.per_seed,
                 "mean_accuracy": p.mean_accuracy}
                for p in self.points
            ],
            "no_retrain_accuracy": self.no_retrain_accuracy,
            "loco_mean_accuracy": self.loco_mean_accuracy,
            "crossover_budget": self.crossover_budget,
            "cvae_bytes": self.cvae_bytes,
            "crossover_vs_generator_memory":
                None if self.crossover_budget is None
                else self.crossover_budget / self.cvae_bytes,
        }

    def to_csv(self) -> str:
        lines = ["budget_bytes,mean_accuracy,no_retrain_accuracy,loco_accuracy"]
        for p in self.points:
            budget = "inf" if p.budget_bytes is None else str(p.budget_bytes)
            lines.append(f"{budget},{p.mean_accuracy:.6f},"
                         f"{self.no_retrain_accuracy:.6f},{self.loco_mean_accuracy:.6f}")
        return "\n".join(lines) + "\n"


def budget_sweep(scenario: Scenario, budgets: list[int], seeds=(0, 1, 2, 3, 4),
                 cfg: AdaptationConfig | None = None,
                 baseline_hyper: TrainHyper | None = None) -> SweepResult:
    """Baseline accuracy versus storage budget, with the no-retrain and
    generated-pool reference lines. Budgets must ascend; a final unbounded
    point is always appended. Budgets below one stored row short-circuit to
    the no-retrain accuracy (nothing can be stored)."""
    if any(b <= 0 for b in budgets):
        raise ValueError("budgets must be positive")
    if list(budgets) != sorted(budgets):
        raise ValueError("budgets must be ascending")
    cfg = cfg or AdaptationConfig()
    val, stored = scenario.target_val, scenario.stored
    row = stored_row_bytes(scenario.mp.meta.activation_dim)
    no_retrain = top1_accuracy(scenario.mp, *val)
    loco_accs = []
    for seed in seeds:
        _, rep = adapt_classifier(scenario.mp, scenario.cvae, scenario.true_dist, cfg,
                                  seed=seed, val=val)
        loco_accs.append(rep.post_accuracy)
    loco_mean = float(np.mean(loco_accs))
    points = []
    for budget in [*budgets, None]:
        if budget is not None and budget < row:
            per_seed = [no_retrain for _ in seeds]
        else:
            per_seed = []
            for seed in seeds:
                _, rep = retrain_baseline(scenario.mp, stored, LabelMode.GROUND_TRUTH,
                                          budget_bytes=budget, hyper=baseline_hyper,
                                          seed=seed, val=val)
                per_seed.append(rep.post_accuracy)
        points.append(SweepPoint(budget, per_seed, float(np.mean(per_seed))))
    crossover = None
    for p in points:
        if p.budget_bytes is not None and p.mean_accuracy >= loco_mean:
            crossover = p.budget_bytes
            break
    return SweepResult(points, no_retrain, loco_mean, crossover,
                       model_memory_bytes(scenario.cvae))


# ---------------------------------------------------------------------------
# Conditional vs per-class unconditional generators
# ---------------------------------------------------------------------------


@dataclass
class CondUncondReport:
    cond_per_seed: list[float]
    uncond_per_seed: list[float]
    cond_mean: float
    uncond_mean: float
    accuracy_delta: float            # cond - uncond
    cond_bytes: int
    uncond_bytes: int
    memory_ratio: float              # uncond pack / cond
    no_retrain_accuracy: float

    def to_json_dict(self) -> dict:
        return {
            "cond_per_seed": self.cond_per_seed,
            "uncond_per_seed": self.uncond_per_seed,
            "cond_mean": self.cond_mean,
            "uncond_mean": self.uncond_mean,
            "accuracy_delta": self.accuracy_delta,
            "cond_bytes": self.cond_bytes,
            "uncond_bytes": self.uncond_bytes,
            "memory_ratio": self.memory_ratio,
            "no_retrain_accuracy": self.no_retrain_accuracy,
        }


def cond_vs_uncond(scenario: Scenario, pack: UncondVaePack,
                   cfg: AdaptationConfig | None = None,
                   seeds=(0, 1, 2, 3, 4)) -> CondUncondReport:
    """Same adaptation run with the conditional generator and the per-class
    pack; reports the accuracy gap and the exact memory ratio."""
    cfg = cfg or AdaptationConfig()
    val, dist = scenario.target_val, scenario.true_dist
    cond_accs, uncond_accs = [], []
    for seed in seeds:
        _, rep_c = adapt_classifier(scenario.mp, scenario.cvae, dist, cfg,
                                    seed=seed, val=val)
        _, rep_u = adapt_classifier(scenario.mp, pack, dist, cfg,
                                    seed=seed, val=val)
        cond_accs.append(rep_c.post_accuracy)
        uncond_accs.append(rep_u.post_accuracy)
    cond_bytes = model_memory_bytes(scenario.cvae)
    uncond_bytes = model_memory_bytes(pack)
    return CondUncondReport(
        cond_per_seed=cond_accs, uncond_per_seed=uncond_accs,
        cond_mean=float(np.mean(cond_accs)), uncond_mean=float(np.mean(uncond_accs)),
        accuracy_delta=float(np.mean(cond_accs) - np.mean(uncond_accs)),
        cond_bytes=cond_bytes, uncond_bytes=uncond_bytes,
        memory_ratio=uncond_bytes / cond_bytes,
        no_retrain_accuracy=top1_accuracy(scenario.mp, *val),
    )


# ---------------------------------------------------------------------------
# Experiment matrix
# ---------------------------------------------------------------------------

MATRIX_METHODS = (
    "loco-ground-truth",
    "loco-estimated",
    "baseline-ground-truth",
    "baseline-estimated",
)


@dataclass
class MatrixCell:
    scenario_name: str
    method: str
    seed: int
    report: AdaptationReport | None = None
    error: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario_name,
            "method": self.method,
            "seed": self.seed,
            "report": None if self.report is None else self.report.to_json_dict(),
            "error": self.error,
        }


@dataclass
class ExperimentMatrix:
    cells: list[MatrixCell]

    def to_json_dict(self) -> dict:
        return {"cells": [c.to_json_dict() for c in sorted(
            self.cells, key=lambda c: (c.scenario_name, c.method, c.seed))]}


def _run_cell(scenario: Scenario, method: str, seed: int, cfg: AdaptationConfig,
              baseline_hyper: TrainHyper | None) -> AdaptationReport:
    val = scenario.target_val
    estimated = method.endswith("estimated")
    if method.startswith("loco"):
        if estimated:
            # the deployed model's argmax frequencies, as estimate_domain counts them
            dist = ClassDistribution.from_labels(scenario.predictions,
                                                 scenario.dataset.spec.num_classes)
            cell_cfg = replace(cfg, label_mode=LabelMode.ESTIMATED)
        else:
            dist = scenario.true_dist
            cell_cfg = replace(cfg, label_mode=LabelMode.GROUND_TRUTH)
        _, report = adapt_classifier(scenario.mp, scenario.cvae, dist, cell_cfg,
                                     seed=seed, val=val)
        return report
    if estimated:
        _, report = retrain_baseline(scenario.mp, scenario.stored, LabelMode.ESTIMATED,
                                     hyper=baseline_hyper,
                                     predicted_labels=scenario.predictions,
                                     seed=seed, val=val)
    else:
        _, report = retrain_baseline(scenario.mp, scenario.stored, LabelMode.GROUND_TRUTH,
                                     hyper=baseline_hyper, seed=seed, val=val)
    return report


def run_experiment_matrix(scenarios: list[tuple[str, Scenario]],
                          methods=MATRIX_METHODS, seeds=(0, 1, 2, 3, 4),
                          cfg: AdaptationConfig | None = None,
                          baseline_hyper: TrainHyper | None = None) -> ExperimentMatrix:
    """Every (scenario, method, seed) cell, each holding a report or the error
    that prevented it."""
    cfg = cfg or AdaptationConfig()
    cells = []
    for name, scenario in scenarios:
        for method in methods:
            if method not in MATRIX_METHODS:
                raise ValueError(f"unknown method '{method}'")
            for seed in seeds:
                cell = MatrixCell(name, method, seed)
                try:
                    cell.report = _run_cell(scenario, method, seed, cfg, baseline_hyper)
                except LocoError as exc:
                    cell.error = f"{type(exc).__name__}: {exc}"
                cells.append(cell)
    return ExperimentMatrix(cells)

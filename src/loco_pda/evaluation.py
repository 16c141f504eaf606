"""Experiment surface: exact memory ledgers, the storage budget sweep, the
conditional-vs-unconditional comparison, and the experiment matrix that
drives the end-to-end run.

Every byte count here is integer arithmetic over shapes. Nothing is measured
or estimated at runtime; the runtime-memory model is a documented closed form.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from enum import Enum

import numpy as np

from .adaptation import (
    AdaptationConfig,
    AdaptationReport,
    LabelMode,
    Scenario,
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
    a_dim = spec.mp.activation_dim
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
        ratio = None if self.crossover_budget is None else self.crossover_budget / self.cvae_bytes
        return {**asdict(self), "crossover_vs_generator_memory": ratio}

    def to_csv(self) -> str:
        lines = ["budget_bytes,mean_accuracy,no_retrain_accuracy,loco_accuracy"]
        for p in self.points:
            budget = "inf" if p.budget_bytes is None else str(p.budget_bytes)
            lines.append(f"{budget},{p.mean_accuracy:.6f},"
                         f"{self.no_retrain_accuracy:.6f},{self.loco_mean_accuracy:.6f}")
        return "\n".join(lines) + "\n"


def _check_seeds(seeds) -> None:
    """Each seed is one sample of every mean and one matrix cell per method,
    so none may be missing or counted twice."""
    if len(seeds) == 0:
        raise ValueError("no seeds to run")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds {tuple(seeds)} repeat a seed")


def budget_sweep(scenario: Scenario, budgets: list[int], seeds=(0, 1, 2, 3, 4),
                 cfg: AdaptationConfig | None = None,
                 baseline_hyper: TrainHyper | None = None) -> SweepResult:
    """Baseline accuracy versus storage budget, with the no-retrain and
    generated-pool reference lines. Budgets must strictly ascend; a final
    unbounded point is always appended. Budgets below one stored row
    short-circuit to the no-retrain accuracy (nothing can be stored)."""
    if any(b <= 0 for b in budgets):
        raise ValueError("budgets must be positive")
    if any(a >= b for a, b in zip(budgets, budgets[1:])):
        raise ValueError("budgets must be strictly ascending")
    _check_seeds(seeds)
    cfg = cfg or AdaptationConfig()
    row = stored_row_bytes(scenario.mp.activation_dim)
    no_retrain = scenario.unadapted_accuracy
    loco_mean = float(np.mean([r.post_accuracy
                               for r in scenario.adapt(scenario.true_dist, cfg, seeds)]))
    points = []
    for budget in [*budgets, None]:
        if budget is not None and budget < row:
            per_seed = [no_retrain for _ in seeds]
        else:
            per_seed = [r.post_accuracy for r in scenario.baseline(
                baseline_hyper, seeds, budget_bytes=budget)]
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
        return asdict(self)


def cond_vs_uncond(scenario: Scenario, pack: UncondVaePack,
                   cfg: AdaptationConfig | None = None,
                   seeds=(0, 1, 2, 3, 4)) -> CondUncondReport:
    """Same adaptation run with the conditional generator and the per-class
    pack; reports the accuracy gap and the exact memory ratio."""
    _check_seeds(seeds)
    cfg = cfg or AdaptationConfig()
    cond_accs = [r.post_accuracy for r in scenario.adapt(scenario.true_dist, cfg, seeds)]
    uncond_accs = [r.post_accuracy
                   for r in scenario.adapt(scenario.true_dist, cfg, seeds, generator=pack)]
    cond_bytes = model_memory_bytes(scenario.cvae)
    uncond_bytes = model_memory_bytes(pack)
    return CondUncondReport(
        cond_per_seed=cond_accs, uncond_per_seed=uncond_accs,
        cond_mean=float(np.mean(cond_accs)), uncond_mean=float(np.mean(uncond_accs)),
        accuracy_delta=float(np.mean(cond_accs) - np.mean(uncond_accs)),
        cond_bytes=cond_bytes, uncond_bytes=uncond_bytes,
        memory_ratio=uncond_bytes / cond_bytes,
        no_retrain_accuracy=scenario.unadapted_accuracy,
    )


# ---------------------------------------------------------------------------
# Experiment matrix
# ---------------------------------------------------------------------------

# each method's reports: (scenario, seeds, cfg, baseline_hyper) -> one per seed,
# trained as one lockstep group unless the Scenario already holds the runs
MATRIX_METHODS = {
    "loco-ground-truth": lambda s, seeds, cfg, hyper: s.adapt(
        s.true_dist, replace(cfg, label_mode=LabelMode.GROUND_TRUTH), seeds),
    "loco-estimated": lambda s, seeds, cfg, hyper: s.adapt(
        s.estimated_dist, replace(cfg, label_mode=LabelMode.ESTIMATED), seeds),
    "baseline-ground-truth": lambda s, seeds, cfg, hyper: s.baseline(hyper, seeds),
    "baseline-estimated": lambda s, seeds, cfg, hyper: s.baseline(
        hyper, seeds, labels=s.predictions),
}


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


def run_experiment_matrix(scenarios: list[tuple[str, Scenario]],
                          methods=tuple(MATRIX_METHODS), seeds=(0, 1, 2, 3, 4),
                          cfg: AdaptationConfig | None = None,
                          baseline_hyper: TrainHyper | None = None) -> ExperimentMatrix:
    """Every (scenario, method, seed) cell, each holding a report or the error
    that prevented it. A scenario's seeds train each method as one lockstep
    group, so an error in that group is recorded in every one of its cells."""
    _check_seeds(seeds)
    cfg = cfg or AdaptationConfig()
    cells = []
    for name, scenario in scenarios:
        for method in methods:
            if method not in MATRIX_METHODS:
                raise ValueError(f"unknown method '{method}'")
            group = [MatrixCell(name, method, seed) for seed in seeds]
            try:
                for cell, report in zip(group, MATRIX_METHODS[method](
                        scenario, seeds, cfg, baseline_hyper)):
                    cell.report = report
            except LocoError as exc:
                for cell in group:
                    cell.error = f"{type(exc).__name__}: {exc}"
            cells += group
    return ExperimentMatrix(cells)

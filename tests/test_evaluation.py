"""Accuracy metric, memory ledger arithmetic, rank correlation, budget sweep,
and the experiment matrix."""

from __future__ import annotations

import numpy as np
import pytest

from loco_pda.adaptation import (
    AdaptationConfig,
    ModelPredictions,
    label_noise_experiment,
    retrain_baseline,
)
from loco_pda.evaluation import (
    LedgerSpec,
    MemoryCategory,
    build_ledger,
    budget_sweep,
    cond_vs_uncond,
    run_experiment_matrix,
    spearman_rho,
    top1_accuracy,
    training_runtime_bytes,
)
from loco_pda.models import (
    MlpModel,
    TrainHyper,
    build_mlp,
    extract_activations,
    model_memory_bytes,
)
from loco_pda.numerics import make_rng


QUICK_ADAPT = AdaptationConfig(
    total_generated=300,
    hyper=TrainHyper(epochs=3, batch_size=32, lr=1e-6, optimizer="sgd", momentum=0.9),
)
QUICK_BASELINE = TrainHyper(epochs=3, batch_size=32, lr=1e-3,
                            optimizer="sgd", momentum=0.9)


# --- top-1 accuracy ---


def test_top1_matches_manual_count(pipe0):
    ds = pipe0.dataset
    acc = top1_accuracy(pipe0.m0, ds.val_x, ds.val_y)
    manual = float((pipe0.m0.predict(ds.val_x) == ds.val_y).mean())
    assert acc == manual


def test_top1_empty_subset_rejected(pipe0):
    ds = pipe0.dataset
    with pytest.raises(ValueError):
        top1_accuracy(pipe0.m0, ds.val_x[:0], ds.val_y[:0])


# --- rank correlation ---


def test_spearman_perfect_orders():
    assert spearman_rho([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman_rho([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)


def test_spearman_textbook_example():
    # d^2 = (0, 1, 1, 0): rho = 1 - 6*2 / (4*15) = 0.8
    assert spearman_rho([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)


def test_spearman_shared_ranks_on_ties():
    # xs ranks (1.5, 1.5, 3); worked by hand: 1.5 / sqrt(1.5 * 2)
    assert spearman_rho([1, 1, 2], [1, 2, 3]) == pytest.approx(1.5 / np.sqrt(3.0))


def test_spearman_constant_input_is_zero():
    assert spearman_rho([2, 2, 2], [1, 2, 3]) == 0.0


def test_spearman_input_validation():
    with pytest.raises(ValueError):
        spearman_rho([1], [1])
    with pytest.raises(ValueError):
        spearman_rho([1, 2], [1, 2, 3])


# --- memory accounting ---


def test_training_runtime_bytes_by_hand():
    model = build_mlp(make_rng(0), 4, (6,), 3)
    fc = model.fc_layer  # 6 -> 3: 21 parameters
    # params + sgd velocity + grads + 2 * batch * (in + out) floats, 4 B each
    want = 4 * (21 + 21 + 21 + 2 * 8 * (6 + 3))
    assert training_runtime_bytes([fc], batch_size=8, optimizer="sgd") == want
    want_adam = 4 * (21 + 42 + 21 + 2 * 8 * 9)
    assert training_runtime_bytes([fc], batch_size=8, optimizer="adam") == want_adam
    with pytest.raises(ValueError):
        training_runtime_bytes([fc], batch_size=8, optimizer="rmsprop")


def test_loco_ledger_stores_zero_samples(pipe0):
    ledger = build_ledger(LedgerSpec("loco", pipe0.m0, pipe0.mp,
                                     generator=pipe0.generator, pool_rows=3000))
    assert ledger.category_total(MemoryCategory.STATIC_SAMPLES) == 0
    by_name = {e.name: e for e in ledger.entries}
    assert by_name["stored-samples"].bytes == 0
    assert by_name["generator"].bytes == model_memory_bytes(pipe0.generator)
    assert by_name["generated-pool"].bytes == 3000 * 68
    assert ledger.total == sum(e.bytes for e in ledger.entries)


def test_baseline_ledger_charges_stored_rows(pipe0):
    ledger = build_ledger(LedgerSpec("baseline", pipe0.m0, pipe0.mp,
                                     stored_rows=500))
    assert ledger.category_total(MemoryCategory.STATIC_SAMPLES) == 500 * 68
    # closed-form total: both networks + samples + fc training transient
    fc_transient = training_runtime_bytes([pipe0.mp.fc_layer], 32, "sgd")
    want = (model_memory_bytes(pipe0.m0) + model_memory_bytes(pipe0.mp)
            + 500 * 68 + fc_transient)
    assert ledger.total == want


def test_ledger_rejects_bad_specs(pipe0):
    with pytest.raises(ValueError):
        build_ledger(LedgerSpec("loco", pipe0.m0, pipe0.mp))  # no generator
    with pytest.raises(ValueError):
        build_ledger(LedgerSpec("replay", pipe0.m0, pipe0.mp))


def test_ledger_json_dict_totals(pipe0):
    ledger = build_ledger(LedgerSpec("baseline", pipe0.m0, pipe0.mp, stored_rows=10))
    d = ledger.to_json_dict()
    assert d["total"] == ledger.total
    assert sum(d["totals"].values()) == d["total"]


# --- budget sweep ---


def test_budget_sweep_structure_and_unbounded_point(pipe0):
    scenario = pipe0.scenario()
    budgets = [50, 68, 680]  # below one row, one row, ten rows
    result = budget_sweep(scenario, budgets, seeds=(0, 1), cfg=QUICK_ADAPT,
                          baseline_hyper=QUICK_BASELINE)
    assert [p.budget_bytes for p in result.points] == [50, 68, 680, None]
    # a budget below one stored row short-circuits to the no-retrain accuracy
    assert result.points[0].mean_accuracy == result.no_retrain_accuracy
    # the unbounded point must equal a direct unbounded retrain, same seeds
    stream_x, stream_y = scenario.target_stream
    stored = extract_activations(pipe0.mp, stream_x, labels=stream_y)
    direct = []
    for seed in (0, 1):
        _, rep = retrain_baseline(pipe0.mp, stored, hyper=QUICK_BASELINE, seed=seed,
                                  val=scenario.target_val)
        direct.append(rep.post_accuracy)
    assert result.points[-1].per_seed == direct
    if result.crossover_budget is not None:
        assert result.crossover_budget in budgets


def test_budget_sweep_rejects_bad_budgets(pipe0):
    scenario = pipe0.scenario()
    with pytest.raises(ValueError):
        budget_sweep(scenario, [100, 50], seeds=(0,))
    with pytest.raises(ValueError):
        budget_sweep(scenario, [0, 100], seeds=(0,))


def test_budget_sweep_csv_shape(pipe0):
    scenario = pipe0.scenario()
    result = budget_sweep(scenario, [68], seeds=(0,), cfg=QUICK_ADAPT,
                          baseline_hyper=QUICK_BASELINE)
    lines = result.to_csv().strip().split("\n")
    assert lines[0] == "budget_bytes,mean_accuracy,no_retrain_accuracy,loco_accuracy"
    assert len(lines) == 3  # header + one budget + unbounded
    assert lines[-1].startswith("inf,")


# --- conditional vs per-class pack ---


def test_cond_vs_uncond_report_fields(pipe0, uncond_pack_for):
    pack = uncond_pack_for(0)
    report = cond_vs_uncond(pipe0.scenario(), pack, cfg=QUICK_ADAPT, seeds=(0, 1))
    assert len(report.cond_per_seed) == len(report.uncond_per_seed) == 2
    assert report.accuracy_delta == pytest.approx(
        report.cond_mean - report.uncond_mean)
    assert report.cond_bytes == model_memory_bytes(pipe0.generator)
    assert report.uncond_bytes == model_memory_bytes(pack)
    assert report.memory_ratio == report.uncond_bytes / report.cond_bytes


# --- experiment matrix ---


def test_matrix_covers_every_cell(pipe0):
    scenario = pipe0.scenario()
    matrix = run_experiment_matrix([("main", scenario)], seeds=(0,),
                                   cfg=QUICK_ADAPT, baseline_hyper=QUICK_BASELINE)
    methods = {c.method for c in matrix.cells}
    assert methods == {"loco-ground-truth", "loco-estimated",
                       "baseline-ground-truth", "baseline-estimated"}
    assert len(matrix.cells) == 4
    for cell in matrix.cells:
        assert cell.error is None
        assert cell.report.post_accuracy is not None
    d = matrix.to_json_dict()
    assert len(d["cells"]) == 4


def test_matrix_rejects_unknown_method(pipe0):
    scenario = pipe0.scenario()
    with pytest.raises(ValueError):
        run_experiment_matrix([("main", scenario)], methods=("replay",), seeds=(0,))


def test_drivers_reject_empty_seeds(pipe0, uncond_pack_for):
    """No seeds is a caller error, not a nan mean or an empty matrix."""
    scenario = pipe0.scenario()
    with pytest.raises(ValueError, match="no seeds"):
        budget_sweep(scenario, [68], seeds=())
    with pytest.raises(ValueError, match="no seeds"):
        cond_vs_uncond(scenario, uncond_pack_for(0), seeds=())
    with pytest.raises(ValueError, match="no seeds"):
        run_experiment_matrix([("main", scenario)], seeds=())


# --- scenario cache ---


def test_scenario_stream_values_computed_once_and_read_only(pipe0, monkeypatch):
    """One scenario through the matrix, the sweep and the label-noise
    experiment extracts the stream's activations once and runs the deployed
    model over the stream once; every cached array refuses writes."""
    classes = (0, 1, 2)
    mask = np.isin(pipe0.dataset.train_y, classes)
    stream_x = pipe0.dataset.train_x[mask]
    seen = []

    def counting(name, original):
        def wrapper(model, x):
            if x.shape == stream_x.shape and np.array_equal(x, stream_x):
                seen.append((name, model))
            return original(model, x)
        return wrapper

    monkeypatch.setattr(MlpModel, "features", counting("features", MlpModel.features))
    monkeypatch.setattr(MlpModel, "predict", counting("predict", MlpModel.predict))
    scenario = pipe0.scenario(classes)
    cfg = AdaptationConfig(total_generated=100, hyper=QUICK_ADAPT.hyper)
    run_experiment_matrix([("main", scenario)], seeds=(0, 1), cfg=cfg,
                          baseline_hyper=QUICK_BASELINE)
    budget_sweep(scenario, [680], seeds=(0,), cfg=cfg, baseline_hyper=QUICK_BASELINE)
    label_noise_experiment(scenario, ModelPredictions(), cfg=cfg,
                           baseline_hyper=QUICK_BASELINE)
    assert seen.count(("features", pipe0.mp)) == 1
    assert seen.count(("predict", pipe0.m0)) == 1

    cached = [*scenario.target_stream, *scenario.target_val, scenario.stored.features,
              scenario.stored.labels, scenario.predictions, scenario.true_dist.probs]
    for array in cached:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0

"""Accuracy metric, memory ledger arithmetic, rank correlation, budget sweep,
and the experiment matrix."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from loco_pda import adaptation
from loco_pda.adaptation import (
    AdaptationConfig,
    ClassDistribution,
    LabelMode,
    NoiseComparison,
    SyntheticFlip,
    adapt_classifier,
    flip_labels,
    label_noise_experiment,
    retrain_baseline,
    stored_row_bytes,
)
from loco_pda.errors import NumericError
from loco_pda.evaluation import (
    ExperimentMatrix,
    LedgerSpec,
    MatrixCell,
    MemoryCategory,
    SweepPoint,
    SweepResult,
    build_ledger,
    budget_sweep,
    cond_vs_uncond,
    run_experiment_matrix,
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

from helpers import make_rng, spearman_rho


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
    with pytest.raises(ValueError, match="strictly ascending"):
        budget_sweep(scenario, [68, 68], seeds=(0,))


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
    """No seeds is a caller error, not a nan mean or an empty matrix; so is a
    repeated seed, which would count one sample twice in every mean and write
    duplicate matrix cells."""
    scenario = pipe0.scenario()
    for seeds, match in (((), "no seeds"), ((0, 1, 0), "repeat")):
        with pytest.raises(ValueError, match=match):
            budget_sweep(scenario, [68], seeds=seeds)
        with pytest.raises(ValueError, match=match):
            cond_vs_uncond(scenario, uncond_pack_for(0), seeds=seeds)
        with pytest.raises(ValueError, match=match):
            run_experiment_matrix([("main", scenario)], seeds=seeds)


# --- scenario cache ---


def test_scenario_stream_values_computed_once_and_read_only(pipe0, monkeypatch):
    """One scenario through the matrix, the sweep, the label-noise experiment
    and the matrix's estimated cells again, on a new seed, extracts the
    stream's activations once and runs the deployed model over the stream
    once; every cached array refuses writes."""
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
    label_noise_experiment(scenario, SyntheticFlip(0.2), cfg=cfg,
                           baseline_hyper=QUICK_BASELINE)
    run_experiment_matrix([("main", scenario)], seeds=(2,), cfg=cfg,
                          methods=("loco-estimated", "baseline-estimated"),
                          baseline_hyper=QUICK_BASELINE)
    assert seen.count(("features", pipe0.mp)) == 1
    assert seen.count(("predict", pipe0.m0)) == 1

    cached = [*scenario.target_stream, *scenario.target_val, scenario.stored.features,
              scenario.stored.labels, scenario.predictions, scenario.true_dist.probs,
              scenario.estimated_dist.probs]
    for array in cached:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


# --- per-scenario reuse of ground-truth retrainings ---


def test_scenario_runs_each_ground_truth_retraining_once(pipe0, training_calls):
    """The matrix, the sweep and the estimated-label runs on one scenario and
    seed share the ground-truth LoCO-PDA run and the unbounded ground-truth
    baseline; any argument that changes a report misses the memo, and the
    label mode, which only tags the report, does not."""
    calls = training_calls
    scenario = pipe0.scenario((0, 1, 2))
    # the deployed model labels this stream exactly, so the estimated-label
    # runs train on the ground-truth runs' inputs
    assert (scenario.predictions == scenario.target_stream[1]).all()
    cfg = AdaptationConfig(total_generated=100, hyper=QUICK_ADAPT.hyper)
    run_experiment_matrix([("main", scenario)], seeds=(0,), cfg=cfg,
                          baseline_hyper=QUICK_BASELINE)
    assert sum(calls) == 2
    budget_sweep(scenario, [680], seeds=(0,), cfg=cfg, baseline_hyper=QUICK_BASELINE)
    assert sum(calls) == 3          # only the 680-byte point is new
    _estimated_runs(scenario, cfg)
    assert sum(calls) == 3          # the predicted labels are the true ones here

    first, = scenario.adapt(scenario.true_dist, cfg, (0,))
    assert scenario.adapt(scenario.true_dist, replace(cfg), (0,))[0] is first
    estimated, = scenario.adapt(
        scenario.true_dist, replace(cfg, label_mode=LabelMode.ESTIMATED), (0,))
    assert estimated.label_mode is LabelMode.ESTIMATED
    assert estimated == replace(first, label_mode=LabelMode.ESTIMATED)
    assert sum(calls) == 3
    misses = [
        lambda: pipe0.scenario((0, 1, 2)).adapt(scenario.true_dist, cfg, (0,)),
        lambda: scenario.adapt(scenario.true_dist, cfg, (1,)),
        lambda: scenario.adapt(
            scenario.true_dist, replace(cfg, hyper=replace(cfg.hyper, lr=2e-6)), (0,)),
        lambda: scenario.adapt(scenario.true_dist, replace(cfg, total_generated=101), (0,)),
        lambda: pipe0.scenario((0, 1, 2)).baseline(QUICK_BASELINE, (0,)),
        lambda: scenario.baseline(QUICK_BASELINE, (1,)),
        lambda: scenario.baseline(replace(QUICK_BASELINE, lr=2e-3), (0,)),
    ]
    for i, miss in enumerate(misses):
        miss()
        assert sum(calls) == 4 + i, i


def _estimated_runs(scenario, cfg):
    """The LoCO-PDA and baseline reports on the deployed model's predicted
    labels for seed 0, asked of the Scenario directly rather than through the
    matrix's estimated cells."""
    preds = scenario.predictions
    loco, = scenario.adapt(ClassDistribution.from_labels(preds, 20),
                           replace(cfg, label_mode=LabelMode.ESTIMATED), (0,))
    base, = scenario.baseline(QUICK_BASELINE, (0,), labels=preds)
    return loco, base


def _matrix_with_predictions(pipe, preds, cfg, training_calls):
    """The matrix and the direct estimated-label runs of a scenario whose
    deployed model predicts preds on the stream, the trainings they ran, and
    the matrix rebuilt from direct adapt_classifier and retrain_baseline
    calls."""
    scenario = pipe.scenario((0, 1, 2))
    preds.flags.writeable = False
    scenario.predictions = preds        # set before first use, as if m0 said so
    matrix = run_experiment_matrix([("main", scenario)], seeds=(0,), cfg=cfg,
                                   baseline_hyper=QUICK_BASELINE)
    loco_estimated, baseline_estimated = _estimated_runs(scenario, cfg)
    runs = sum(training_calls)

    mp, val = pipe.mp, scenario.target_val
    stream_y = scenario.target_stream[1]
    stored = extract_activations(mp, scenario.target_stream[0], labels=stream_y)

    def loco(labels, mode):
        dist = ClassDistribution.from_labels(labels, 20)
        return adapt_classifier(mp, pipe.generator, dist, replace(cfg, label_mode=mode),
                                seed=0, val=val)[1]

    def base(labels=None):
        return retrain_baseline(mp, stored, hyper=QUICK_BASELINE, labels=labels,
                                seed=0, val=val)[1]

    direct = ExperimentMatrix([
        MatrixCell("main", "loco-ground-truth", 0, loco(stream_y, LabelMode.GROUND_TRUTH)),
        MatrixCell("main", "loco-estimated", 0, loco(preds, LabelMode.ESTIMATED)),
        MatrixCell("main", "baseline-ground-truth", 0, base()),
        MatrixCell("main", "baseline-estimated", 0, base(preds)),
    ])
    cells = {c.method: c.report for c in matrix.cells}
    assert loco_estimated.post_accuracy == cells["loco-estimated"].post_accuracy
    assert baseline_estimated.post_accuracy == cells["baseline-estimated"].post_accuracy
    return matrix, runs, direct


def test_swapped_predictions_reuse_the_pool_but_not_the_rows(pipe0, training_calls):
    """Swapping the predictions of two stream rows of different classes keeps
    the class counts, so loco-estimated reuses the ground-truth run (same
    pool), and changes the labels, so baseline-estimated trains its own run;
    the direct estimated-label runs are the estimated cells'."""
    cfg = AdaptationConfig(total_generated=100, hyper=QUICK_ADAPT.hyper)
    preds = pipe0.scenario((0, 1, 2)).target_stream[1].copy()
    i, j = 0, int(np.flatnonzero(preds != preds[0])[0])
    preds[[i, j]] = preds[[j, i]]
    matrix, runs, direct = _matrix_with_predictions(pipe0, preds, cfg, training_calls)
    assert runs == 3
    assert matrix.to_json_dict() == direct.to_json_dict()
    cells = {c.method: c.report for c in matrix.cells}
    assert cells["loco-estimated"] == replace(cells["loco-ground-truth"],
                                              label_mode=LabelMode.ESTIMATED)


def test_relabelled_prediction_trains_both_estimated_cells(pipe0, training_calls):
    """Relabelling one prediction changes the class counts, so both estimated
    cells train their own runs; the direct estimated-label runs are theirs."""
    cfg = AdaptationConfig(total_generated=100, hyper=QUICK_ADAPT.hyper)
    stream_y = pipe0.scenario((0, 1, 2)).target_stream[1]
    preds = stream_y.copy()
    preds[0] = 5                        # a class outside the target subset
    assert (adaptation.allocate_counts(ClassDistribution.from_labels(preds, 20), 100)
            != adaptation.allocate_counts(ClassDistribution.from_labels(stream_y, 20),
                                          100)).any()
    matrix, runs, direct = _matrix_with_predictions(pipe0, preds, cfg, training_calls)
    assert runs == 4
    assert matrix.to_json_dict() == direct.to_json_dict()


def test_baseline_budget_keys_on_the_rows_it_buys(pipe0, training_calls):
    """A budget that buys every stored row is the unbounded run, and two
    budgets that buy the same number of rows share one run."""
    scenario = pipe0.scenario((0, 1, 2))
    row = stored_row_bytes(pipe0.mp.activation_dim)
    unbounded, = scenario.baseline(QUICK_BASELINE, (0,))
    assert scenario.baseline(QUICK_BASELINE, (0,), budget_bytes=10**9)[0] is unbounded
    ten, = scenario.baseline(QUICK_BASELINE, (0,), budget_bytes=10 * row)
    assert scenario.baseline(QUICK_BASELINE, (0,), budget_bytes=11 * row - 1)[0] is ten
    assert sum(training_calls) == 2
    assert ten == retrain_baseline(pipe0.mp, scenario.stored, budget_bytes=11 * row - 1,
                                   hyper=QUICK_BASELINE, seed=0,
                                   val=scenario.target_val)[1]


def test_scenario_trains_the_missing_seeds_as_one_group(pipe0, training_calls):
    """A request for several seeds trains only those without a report, in one
    lockstep call, and returns every report in the order of its seeds."""
    scenario = pipe0.scenario((0, 1, 2))
    cfg = AdaptationConfig(total_generated=100, hyper=QUICK_ADAPT.hyper)
    one, = scenario.adapt(scenario.true_dist, cfg, (1,))
    reports = scenario.adapt(scenario.true_dist, cfg, (0, 1, 2))
    assert training_calls == [1, 2]
    assert reports[1] is one
    assert scenario.adapt(scenario.true_dist, cfg, (2, 0)) == [reports[2], reports[0]]
    base = scenario.baseline(QUICK_BASELINE, (3, 4))
    assert scenario.baseline(QUICK_BASELINE, (4, 5))[0] is base[1]
    assert training_calls == [1, 2, 2, 1]


def test_scenario_does_not_keep_a_failed_retraining(pipe0, monkeypatch):
    """A run that raises leaves nothing behind: every matrix cell records the
    error, and each call runs again."""
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        raise NumericError("diverged")

    monkeypatch.setattr(adaptation, "train_softmax_stack", failing)
    scenario = pipe0.scenario((0, 1, 2))
    cfg = AdaptationConfig(total_generated=100, hyper=QUICK_ADAPT.hyper)
    for _ in range(2):
        matrix = run_experiment_matrix([("main", scenario)], seeds=(0,), cfg=cfg,
                                       methods=("loco-ground-truth",
                                                "baseline-ground-truth"),
                                       baseline_hyper=QUICK_BASELINE)
        assert [c.error for c in matrix.cells] == ["NumericError: diverged"] * 2
    assert len(calls) == 4


def test_matrix_records_a_group_error_in_every_cell_of_the_group(pipe0, monkeypatch):
    """A scenario's seeds train each method as one group: when the LoCO-PDA
    group raises, both of its cells carry the error, and the baseline group
    still reports."""
    original = adaptation.train_softmax_stack

    def failing_on_pools(layers, x, *args, **kwargs):
        if x.shape[-2] == 100:          # the generated pool, not the stored rows
            raise NumericError("diverged")
        return original(layers, x, *args, **kwargs)

    monkeypatch.setattr(adaptation, "train_softmax_stack", failing_on_pools)
    cfg = AdaptationConfig(total_generated=100, hyper=QUICK_ADAPT.hyper)
    matrix = run_experiment_matrix([("main", pipe0.scenario((0, 1, 2)))], seeds=(0, 1),
                                   cfg=cfg, methods=("loco-estimated", "baseline-estimated"),
                                   baseline_hyper=QUICK_BASELINE)
    cells = {(c.method, c.seed): c for c in matrix.cells}
    for seed in (0, 1):
        assert cells["loco-estimated", seed].error == "NumericError: diverged"
        assert cells["loco-estimated", seed].report is None
        assert cells["baseline-estimated", seed].error is None
        assert cells["baseline-estimated", seed].report.rows_used == 600


def test_reused_reports_match_direct_runs_bit_for_bit(pipe0):
    """The matrix, sweep and noise reports equal ones rebuilt from direct
    adapt_classifier and retrain_baseline calls, as the drivers made them
    before they shared runs."""
    classes, seeds, budgets = (0, 1, 2), (0, 1), [50, 680]
    cfg = AdaptationConfig(total_generated=100, hyper=QUICK_ADAPT.hyper)
    scenario = pipe0.scenario(classes)
    matrix = run_experiment_matrix([("main", scenario)], seeds=seeds, cfg=cfg,
                                   baseline_hyper=QUICK_BASELINE)
    sweep = budget_sweep(scenario, budgets, seeds=seeds, cfg=cfg,
                         baseline_hyper=QUICK_BASELINE)
    noise = label_noise_experiment(scenario, SyntheticFlip(0.2), cfg=cfg,
                                   baseline_hyper=QUICK_BASELINE)

    ds, mp = pipe0.dataset, pipe0.mp
    train, val_mask = np.isin(ds.train_y, classes), np.isin(ds.val_y, classes)
    val = (ds.val_x[val_mask], ds.val_y[val_mask])
    stream_y = ds.train_y[train]
    stored = extract_activations(mp, ds.train_x[train], labels=stream_y)
    preds = pipe0.m0.predict(ds.train_x[train])
    true_dist = ClassDistribution.from_labels(stream_y, 20)
    gt_cfg = replace(cfg, label_mode=LabelMode.GROUND_TRUTH)
    est_cfg = replace(cfg, label_mode=LabelMode.ESTIMATED)

    def loco(dist, c, seed):
        return adapt_classifier(mp, pipe0.generator, dist, c, seed=seed, val=val)[1]

    def base(seed, budget=None, labels=None):
        return retrain_baseline(mp, stored, budget_bytes=budget, hyper=QUICK_BASELINE,
                                labels=labels, seed=seed, val=val)[1]

    cells = []
    for seed in seeds:
        cells += [
            MatrixCell("main", "loco-ground-truth", seed, loco(true_dist, gt_cfg, seed)),
            MatrixCell("main", "loco-estimated", seed,
                       loco(ClassDistribution.from_labels(preds, 20), est_cfg, seed)),
            MatrixCell("main", "baseline-ground-truth", seed, base(seed)),
            MatrixCell("main", "baseline-estimated", seed, base(seed, labels=preds)),
        ]
    assert matrix.to_json_dict() == ExperimentMatrix(cells).to_json_dict()

    no_retrain = top1_accuracy(mp, *val)
    loco_mean = float(np.mean([loco(true_dist, cfg, s).post_accuracy for s in seeds]))
    points = []
    for budget in [*budgets, None]:
        if budget is not None and budget < stored_row_bytes(mp.activation_dim):
            per_seed = [no_retrain] * len(seeds)
        else:
            per_seed = [base(s, budget).post_accuracy for s in seeds]
        points.append(SweepPoint(budget, per_seed, float(np.mean(per_seed))))
    crossover = next((p.budget_bytes for p in points[:-1]
                      if p.mean_accuracy >= loco_mean), None)
    want = SweepResult(points, no_retrain, loco_mean, crossover,
                       model_memory_bytes(pipe0.generator))
    assert sweep.to_json_dict() == want.to_json_dict()

    noisy_y = flip_labels(stream_y, 0.2, 20, pipe0.seed)
    cert = loco(true_dist, gt_cfg, pipe0.seed)
    want = NoiseComparison(
        "synthetic-flip-0.2", cert.pre_accuracy, cert.post_accuracy,
        loco(ClassDistribution.from_labels(noisy_y, 20), est_cfg, pipe0.seed).post_accuracy,
        base(pipe0.seed).post_accuracy, base(pipe0.seed, labels=noisy_y).post_accuracy)
    assert noise.to_json_dict() == want.to_json_dict()

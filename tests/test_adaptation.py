"""Domain estimation, row allocation, and the two retraining paths."""

from __future__ import annotations

import numpy as np
import pytest

from loco_pda.adaptation import (
    AdaptationConfig,
    ClassDistribution,
    LabelMode,
    SyntheticFlip,
    adapt_classifier,
    adapt_classifier_seeds,
    allocate_counts,
    estimate_domain,
    flip_labels,
    label_noise_experiment,
    retrain_baseline,
    stored_row_bytes,
)
from loco_pda.errors import ConfigError, LabelError
from loco_pda.evaluation import run_experiment_matrix
from loco_pda.models import ActivationBatch, TrainHyper, extract_activations

from helpers import make_rng, point_mass


QUICK_ADAPT = AdaptationConfig(
    total_generated=500,
    hyper=TrainHyper(epochs=5, batch_size=32, lr=1e-6, optimizer="sgd", momentum=0.9),
)
QUICK_BASELINE = TrainHyper(epochs=3, batch_size=32, lr=1e-3,
                            optimizer="sgd", momentum=0.9)


# --- class distributions ---


def test_distribution_validation():
    with pytest.raises(ValueError):
        ClassDistribution(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        ClassDistribution(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        ClassDistribution(np.array([[0.5, 0.5]]))


@pytest.mark.parametrize("probs, named", [
    ([np.nan, 1.0], "class 0 is nan"),
    ([0.5, 0.5, np.inf], "class 2 is inf"),
    ([-np.inf, 1.0], "class 0 is -inf"),
], ids=["nan", "inf", "minus-inf"])
def test_distribution_rejects_non_finite(probs, named):
    """A non-finite probability is refused up front and named, not left to
    pass the sum check (nan) or to fail later in allocate_counts."""
    with pytest.raises(ValueError, match=f"{named}, not finite"):
        ClassDistribution(np.array(probs))


def test_distribution_from_labels_and_support():
    dist = ClassDistribution.from_labels(np.array([0, 0, 2, 2, 2, 3]), 5)
    np.testing.assert_allclose(dist.probs, [2 / 6, 0, 3 / 6, 1 / 6, 0])
    np.testing.assert_array_equal(dist.support, [0, 2, 3])
    with pytest.raises(ValueError):
        ClassDistribution.from_labels(np.array([], dtype=np.int64), 5)
    with pytest.raises(LabelError):
        ClassDistribution.from_labels(np.array([5]), 5)


def test_point_mass():
    dist = point_mass(3, 6)
    assert dist.probs[3] == 1.0
    np.testing.assert_array_equal(dist.support, [3])


def test_scenario_rejects_duplicate_target_classes(pipe0):
    with pytest.raises(ValueError, match="duplicates"):
        pipe0.scenario((3, 3))


# --- domain estimation ---


def test_estimate_domain_on_target_stream(pipe0):
    """The deployed model is near-perfect on its own data, so the estimated
    distribution must recover the stream's true support exactly and its
    frequencies closely."""
    scenario = pipe0.scenario()
    stream_x, stream_y = scenario.target_stream
    dist = estimate_domain(pipe0.m0, stream_x)
    np.testing.assert_array_equal(dist.support, [0, 1, 2, 3, 4])
    true_probs = np.bincount(stream_y, minlength=20) / len(stream_y)
    assert np.abs(dist.probs - true_probs).sum() < 0.05


def test_estimate_domain_chunked_stream_equivalent(pipe0):
    scenario = pipe0.scenario()
    stream_x, _ = scenario.target_stream
    whole = estimate_domain(pipe0.m0, stream_x)
    chunked = estimate_domain(pipe0.m0, [stream_x[:300], stream_x[300:]])
    np.testing.assert_array_equal(whole.probs, chunked.probs)


def test_scenario_domain_estimate_is_estimate_domains(pipe0):
    """The Scenario's estimate, counted from its one pass of the deployed
    model over the stream, is the one estimate_domain makes."""
    for classes in ((0, 1, 2, 3, 4), tuple(range(20))):
        scenario = pipe0.scenario(classes)
        expected = estimate_domain(pipe0.m0, scenario.target_stream[0])
        np.testing.assert_array_equal(scenario.estimated_dist.probs, expected.probs)


# --- allocation ---


def test_allocate_worked_example():
    dist = ClassDistribution(np.array([0.5, 0.3, 0.2]))
    np.testing.assert_array_equal(allocate_counts(dist, 10), [5, 3, 2])


def test_allocate_remainder_tie_goes_to_lowest_index():
    dist = ClassDistribution(np.array([1 / 3, 1 / 3, 1 / 3]))
    np.testing.assert_array_equal(allocate_counts(dist, 10), [4, 3, 3])


def test_allocate_zero_probability_gets_nothing():
    dist = ClassDistribution(np.array([0.7, 0.0, 0.3]))
    counts = allocate_counts(dist, 9)
    assert counts[1] == 0
    assert counts.sum() == 9


def test_allocate_is_deterministic():
    dist = ClassDistribution(np.array([0.41, 0.29, 0.17, 0.13]))
    a = allocate_counts(dist, 137)
    b = allocate_counts(dist, 137)
    np.testing.assert_array_equal(a, b)


def test_allocate_rejects_bad_arguments():
    dist = ClassDistribution(np.array([1.0]))
    with pytest.raises(ValueError):
        allocate_counts(dist, 0)


def test_allocate_sums_to_total_for_probs_within_tolerance():
    """ClassDistribution accepts probs that sum to 1 within 1e-6; their floors
    can overshoot total, or fall short by more than one row per class."""
    over = ClassDistribution(np.array([0.5000004, 0.5000004, 0.0]))
    under = ClassDistribution(np.array([0.4999996, 0.4999996, 0.0]))
    for dist, total, want in ((over, 10**7, [5_000_000, 5_000_000, 0]),
                              (over, 2_000_001, [1_000_001, 1_000_000, 0]),
                              (under, 10**7, [5_000_000, 5_000_000, 0])):
        np.testing.assert_array_equal(allocate_counts(dist, total), want)


def test_allocate_error_bound_spot_checks():
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = int(rng.integers(2, 12))
        raw = rng.random(s) * (rng.random(s) < 0.8)
        if raw.sum() == 0:
            raw[0] = 1.0
        dist = ClassDistribution(raw / raw.sum())
        total = int(rng.integers(1, 2000))
        counts = allocate_counts(dist, total)
        assert counts.sum() == total
        assert np.all(np.abs(counts - total * dist.probs) <= 1.0 + 1e-9)


# --- generated-pool adaptation ---


def test_adapt_leaves_feature_extractor_untouched(pipe0):
    scenario = pipe0.scenario()
    _, stream_y = scenario.target_stream
    dist = ClassDistribution.from_labels(stream_y, 20)
    before = [l.weight.copy() for l in pipe0.mp.layers]
    adapted, report = adapt_classifier(pipe0.mp, pipe0.generator, dist,
                                       QUICK_ADAPT, seed=0, val=scenario.target_val)
    # input model completely untouched, adapted FE bit-identical to it
    for layer, w in zip(pipe0.mp.layers, before):
        np.testing.assert_array_equal(layer.weight, w)
    for got, want in zip(adapted.fe_layers, pipe0.mp.fe_layers):
        np.testing.assert_array_equal(got.weight, want.weight)
        np.testing.assert_array_equal(got.bias, want.bias)
    assert report.rows_used == 500
    assert sum(report.class_counts) == 500
    assert report.pre_accuracy is not None and report.post_accuracy is not None


def test_adapt_lr_zero_keeps_classifier_bit_identical(pipe0):
    scenario = pipe0.scenario()
    _, stream_y = scenario.target_stream
    dist = ClassDistribution.from_labels(stream_y, 20)
    cfg = AdaptationConfig(total_generated=100,
                           hyper=TrainHyper(epochs=2, batch_size=32, lr=0.0,
                                            optimizer="sgd"))
    adapted, report = adapt_classifier(pipe0.mp, pipe0.generator, dist, cfg,
                                       seed=0, val=scenario.target_val)
    np.testing.assert_array_equal(adapted.fc_layer.weight, pipe0.mp.fc_layer.weight)
    np.testing.assert_array_equal(adapted.fc_layer.bias, pipe0.mp.fc_layer.bias)
    assert report.post_accuracy == report.pre_accuracy


@pytest.mark.parametrize("seed", range(5))
def test_shipped_adaptation_moves_the_classifier(pipeline_for, seed):
    """At the shipped config both entry points change most of mp's classifier
    bits: 278-303 of 320 weights and 19 of 20 biases on seeds 0-4. A LoCO
    route that never trains (lr 0 in adapt_classifier_seeds) changes none."""
    pipe = pipeline_for(seed)
    scenario = pipe.scenario()
    fc = pipe.mp.fc_layer
    lone, _ = adapt_classifier(pipe.mp, pipe.generator, scenario.true_dist, seed=seed)
    runs = adapt_classifier_seeds(pipe.mp, pipe.generator, scenario.true_dist,
                                  seeds=(seed, seed + 1))
    for model in [lone] + [model for model, _ in runs]:
        changed_w = np.count_nonzero(model.fc_layer.weight != fc.weight)
        changed_b = np.count_nonzero(model.fc_layer.bias != fc.bias)
        print(f"seed {seed}: {changed_w} of {fc.weight.size} weights, "
              f"{changed_b} of {fc.bias.size} biases changed")
        assert changed_w > fc.weight.size // 2 and changed_b > fc.bias.size // 2


def test_adaptation_config_rejects_nan_learning_rate():
    for lr in (float("nan"), -1e-6):
        with pytest.raises(ValueError):
            AdaptationConfig(hyper=TrainHyper(epochs=3, batch_size=32, lr=lr,
                                              optimizer="sgd"))
    assert AdaptationConfig(hyper=TrainHyper(epochs=3, batch_size=32, lr=0.0)).hyper.lr == 0


def test_adapt_rejects_mismatched_generator(pipe0):
    from loco_pda.cvae import CvaeModel
    wrong = CvaeModel.create(make_rng(0), a_dim=8, num_classes=20, z_dim=2,
                             enc_widths=(8,), dec_widths=(8,))
    dist = point_mass(0, 20)
    with pytest.raises(ConfigError):
        adapt_classifier(pipe0.mp, wrong, dist, QUICK_ADAPT, seed=0)


def test_empty_val_split_is_rejected(pipe0):
    """An empty validation split raises instead of scoring nan, on both paths."""
    ds = pipe0.dataset
    empty = (ds.val_x[:0], ds.val_y[:0])
    dist = point_mass(0, 20)
    with pytest.raises(ValueError):
        adapt_classifier(pipe0.mp, pipe0.generator, dist, QUICK_ADAPT, seed=0, val=empty)
    stored = extract_activations(pipe0.mp, ds.train_x[:50], labels=ds.train_y[:50])
    with pytest.raises(ValueError):
        retrain_baseline(pipe0.mp, stored, hyper=QUICK_BASELINE, seed=0, val=empty)


def test_adapt_deterministic_per_seed(pipe0):
    scenario = pipe0.scenario()
    _, stream_y = scenario.target_stream
    dist = ClassDistribution.from_labels(stream_y, 20)
    a, _ = adapt_classifier(pipe0.mp, pipe0.generator, dist, QUICK_ADAPT, seed=4)
    b, _ = adapt_classifier(pipe0.mp, pipe0.generator, dist, QUICK_ADAPT, seed=4)
    np.testing.assert_array_equal(a.fc_layer.weight, b.fc_layer.weight)


# --- stored-sample baseline ---


def _stored(pipe):
    scenario = pipe.scenario()
    stream_x, stream_y = scenario.target_stream
    return extract_activations(pipe.mp, stream_x, labels=stream_y), scenario


def test_baseline_budget_caps_rows(pipe0):
    stored, scenario = _stored(pipe0)
    row = stored_row_bytes(16)
    assert row == 68
    _, unbounded = retrain_baseline(pipe0.mp, stored, hyper=QUICK_BASELINE,
                                    seed=0, val=scenario.target_val)
    assert unbounded.rows_used == len(stored.features)
    _, capped = retrain_baseline(pipe0.mp, stored, budget_bytes=100 * row,
                                 hyper=QUICK_BASELINE, seed=0)
    assert capped.rows_used == 100
    _, halved = retrain_baseline(pipe0.mp, stored, budget_bytes=50 * row,
                                 hyper=QUICK_BASELINE, seed=0)
    assert halved.rows_used == 50


def test_baseline_rejects_budget_below_one_row(pipe0):
    stored, _ = _stored(pipe0)
    with pytest.raises(ValueError):
        retrain_baseline(pipe0.mp, stored, budget_bytes=10, hyper=QUICK_BASELINE)


def test_baseline_trains_on_given_labels_and_tags_them_estimated(pipe0):
    """Given labels replace the stored ones: the classifier equals one trained
    on a batch that carries those labels itself, and only the tag differs."""
    stored, scenario = _stored(pipe0)
    shifted = (stored.labels + 1) % 20
    relabeled = ActivationBatch(stored.features, labels=shifted)
    budget = 300 * stored_row_bytes(16)
    given, rep = retrain_baseline(pipe0.mp, stored, budget_bytes=budget,
                                  hyper=QUICK_BASELINE, labels=shifted, seed=3,
                                  val=scenario.target_val)
    own, own_rep = retrain_baseline(pipe0.mp, relabeled, budget_bytes=budget,
                                    hyper=QUICK_BASELINE, seed=3,
                                    val=scenario.target_val)
    np.testing.assert_array_equal(given.fc_layer.weight, own.fc_layer.weight)
    np.testing.assert_array_equal(given.fc_layer.bias, own.fc_layer.bias)
    assert rep.label_mode is LabelMode.ESTIMATED
    assert own_rep.label_mode is LabelMode.GROUND_TRUTH
    assert rep.class_counts == own_rep.class_counts
    assert rep.class_counts != retrain_baseline(
        pipe0.mp, stored, budget_bytes=budget, hyper=QUICK_BASELINE, seed=3)[1].class_counts
    assert (rep.rows_used, rep.post_accuracy) == (own_rep.rows_used, own_rep.post_accuracy)


def test_baseline_rejects_labels_of_the_wrong_length(pipe0):
    stored, _ = _stored(pipe0)
    for labels in (stored.labels[:-1], np.zeros((len(stored), 1), dtype=np.int64)):
        with pytest.raises(LabelError, match="labels shape"):
            retrain_baseline(pipe0.mp, stored, hyper=QUICK_BASELINE, labels=labels)


def test_baseline_improves_on_unadapted(pipe0):
    stored, scenario = _stored(pipe0)
    _, report = retrain_baseline(pipe0.mp, stored, seed=0,
                                 val=scenario.target_val)
    assert report.post_accuracy >= report.pre_accuracy
    assert report.method == "baseline"


# --- label noise ---


def test_flip_labels_rate_zero_is_identity():
    labels = np.array([0, 1, 2, 3, 4])
    out = flip_labels(labels, 0.0, 5, seed=0)
    np.testing.assert_array_equal(out, labels)
    assert out is not labels


def test_flip_labels_changes_exactly_the_requested_fraction():
    labels = np.zeros(100, dtype=np.int64)
    out = flip_labels(labels, 0.2, 5, seed=1)
    assert (out != labels).sum() == 20
    assert ((out >= 0) & (out < 5)).all()


def test_flip_labels_never_flips_to_self():
    labels = np.arange(50) % 4
    out = flip_labels(labels, 1.0, 4, seed=2)
    assert (out != labels).all()


def test_flip_labels_deterministic():
    labels = np.arange(60) % 6
    np.testing.assert_array_equal(flip_labels(labels, 0.5, 6, 9),
                                  flip_labels(labels, 0.5, 6, 9))


def test_synthetic_flip_validates_rate():
    with pytest.raises(ValueError):
        SyntheticFlip(rate=1.5)


def test_noise_experiment_zero_flip_degrades_nothing(pipe0):
    """With a 0% flip the noisy runs see identical labels, so both
    degradations must be exactly zero."""
    scenario = pipe0.scenario()
    result = label_noise_experiment(scenario, SyntheticFlip(0.0),
                                    cfg=QUICK_ADAPT, baseline_hyper=QUICK_BASELINE)
    assert result.loco_degradation == 0.0
    assert result.baseline_degradation == 0.0
    assert result.noise_kind == "synthetic-flip-0.0"


def test_estimated_cells_train_on_model_predictions(pipe0):
    """The matrix's estimated cells label the stream with the deployed model's
    predictions, and their reports say so."""
    scenario = pipe0.scenario()
    matrix = run_experiment_matrix([("main", scenario)],
                                   methods=("loco-estimated", "baseline-estimated"),
                                   seeds=(0,), cfg=QUICK_ADAPT,
                                   baseline_hyper=QUICK_BASELINE)
    cells = {c.method: c.report for c in matrix.cells}
    for report in cells.values():
        assert report.label_mode is LabelMode.ESTIMATED
    assert 0.0 <= cells["baseline-estimated"].post_accuracy <= 1.0

"""Dataset synthesis, the deployed/pruned models, and their training loop."""

from __future__ import annotations

import numpy as np
import pytest

from loco_pda.errors import LabelError, NumericError, ShapeError
from loco_pda.models import (
    DatasetSpec,
    EpochStats,
    MlpModel,
    TrainHyper,
    build_mlp,
    class_means_for,
    extract_activations,
    model_memory_bytes,
    prune_model,
    synth_dataset,
    train_softmax_stack,
    train_source_model,
)
from loco_pda.numerics import (
    Activation,
    Adam,
    DenseLayer,
    LrSchedule,
    SgdMomentum,
    derive_rng,
    stack_backward,
    stack_forward,
    stage_key,
)

from helpers import make_rng


SMALL = DatasetSpec(num_classes=4, input_dim=8, train_per_class=50,
                    val_per_class=20, seed=1)


def test_synth_dataset_shapes_and_label_balance():
    ds = synth_dataset(SMALL)
    assert ds.train_x.shape == (200, 8)
    assert ds.val_x.shape == (80, 8)
    assert ds.train_x.dtype == np.float32
    np.testing.assert_array_equal(np.bincount(ds.train_y), [50] * 4)
    np.testing.assert_array_equal(np.bincount(ds.val_y), [20] * 4)


def test_synth_dataset_deterministic():
    a, b = synth_dataset(SMALL), synth_dataset(SMALL)
    np.testing.assert_array_equal(a.train_x, b.train_x)
    np.testing.assert_array_equal(a.val_x, b.val_x)
    c = synth_dataset(DatasetSpec(num_classes=4, input_dim=8, train_per_class=50,
                                  val_per_class=20, seed=2))
    assert not np.array_equal(a.train_x, c.train_x)


def test_synth_dataset_collapses_to_means_as_sigma_shrinks():
    spec = DatasetSpec(num_classes=3, input_dim=6, train_per_class=10,
                       val_per_class=5, within_class_sigma=1e-6, seed=0)
    ds = synth_dataset(spec)
    means = class_means_for(spec)
    for c in range(3):
        rows = ds.train_x[ds.train_y == c]
        np.testing.assert_allclose(rows, np.broadcast_to(means[c], rows.shape),
                                   atol=1e-4)


def test_class_mean_scale_is_a_pure_scaling():
    base = DatasetSpec(num_classes=3, input_dim=6, train_per_class=5,
                       val_per_class=5, seed=4)
    doubled = DatasetSpec(num_classes=3, input_dim=6, train_per_class=5,
                          val_per_class=5, class_mean_scale=2.0, seed=4)
    np.testing.assert_allclose(class_means_for(doubled), 2 * class_means_for(base),
                               rtol=1e-6)


def test_synth_dataset_rejects_bad_specs():
    with pytest.raises(ShapeError):
        synth_dataset(DatasetSpec(num_classes=1))
    with pytest.raises(ValueError):
        synth_dataset(DatasetSpec(within_class_sigma=0.0))


def test_forward_is_fc_of_features():
    model = build_mlp(make_rng(0), 8, (6, 5), 4)
    x = np.random.default_rng(3).standard_normal((10, 8)).astype(np.float32)
    feats = model.features(x)
    assert feats.shape == (10, 5)
    np.testing.assert_array_equal(model.forward(x), model.fc_layer.forward(feats))


def test_mlp_shape_comes_from_its_classifier_layer():
    model = build_mlp(make_rng(0), 8, (6, 5), 4)
    assert (model.num_classes, model.activation_dim) == (4, 5)
    assert model.fe_layers == model.layers[:-1]
    assert model.prune_fraction == 0.0


def test_mlp_rejects_relu_classifier_and_unchained_widths():
    rng = make_rng(0)
    relu_head = [DenseLayer.create(rng, 8, 6, Activation.RELU),
                 DenseLayer.create(rng, 6, 4, Activation.RELU)]
    with pytest.raises(ShapeError, match="identity"):
        MlpModel(relu_head)
    unchained = [DenseLayer.create(rng, 8, 6, Activation.RELU),
                 DenseLayer.create(rng, 5, 4, Activation.IDENTITY)]
    with pytest.raises(ShapeError, match="chain"):
        MlpModel(unchained)


def test_extract_activations_labels_and_provenance():
    ds = synth_dataset(SMALL)
    model = build_mlp(make_rng(0), 8, (6, 5), 4)
    batch = extract_activations(model, ds.train_x, labels=ds.train_y)
    assert batch.features.shape == (200, 5)
    np.testing.assert_array_equal(batch.labels, ds.train_y)
    np.testing.assert_array_equal(batch.features, model.features(ds.train_x))


def test_model_memory_bytes_counts_every_parameter():
    model = build_mlp(make_rng(0), 4, (6, 5), 3)
    # (6*4+6) + (5*6+5) + (3*5+3) parameters, 4 bytes each
    assert model_memory_bytes(model) == 4 * (30 + 35 + 18)


def test_train_lr_zero_is_exact_noop():
    ds = synth_dataset(SMALL)
    model = build_mlp(make_rng(0), 8, (6, 5), 4)
    before = [(l.weight.copy(), l.bias.copy()) for l in model.layers]
    for logs in (True, False):
        train_softmax_stack(model.layers, ds.train_x, ds.train_y,
                            TrainHyper(epochs=3, batch_size=32, lr=0.0), seed=0, logs=logs)
        for layer, (w, b) in zip(model.layers, before):
            np.testing.assert_array_equal(layer.weight, w)
            np.testing.assert_array_equal(layer.bias, b)


def test_train_rejects_nan_learning_rate():
    """A nan rate would fail `lr > 0` and skip every update while still
    logging each epoch, so it must be refused up front."""
    ds = synth_dataset(SMALL)
    model = build_mlp(make_rng(0), 8, (6,), 4)
    with pytest.raises(ValueError, match="learning rate"):
        train_softmax_stack(model.layers, ds.train_x, ds.train_y,
                            TrainHyper(epochs=3, batch_size=32, lr=float("nan")), seed=0)


def test_train_rejects_out_of_range_labels():
    ds = synth_dataset(SMALL)
    model = build_mlp(make_rng(0), 8, (6,), 4)
    bad = ds.train_y.copy()
    bad[0] = 4
    with pytest.raises(LabelError):
        train_softmax_stack(model.layers, ds.train_x, bad,
                            TrainHyper(epochs=1, batch_size=32, lr=1e-3), seed=0)


def _textbook_train(layers, x, y, hyper, seed, val):
    """train_softmax_stack written plainly: a fancy-indexed batch, the loss and
    the softmax each from their own shift and exp, a full stack_backward and
    one optimizer per weight and per bias."""
    sched = LrSchedule(hyper.lr, hyper.lr_step_epochs, hyper.lr_gamma)
    params = [p for layer in layers for p in (layer.weight, layer.bias)]
    opts = [Adam(sched) if hyper.optimizer == "adam" else SgdMomentum(sched, hyper.momentum)
            for _ in params]
    rng = derive_rng(seed, stage_key("shuffle"))
    n = x.shape[0]
    log = []
    for epoch in range(hyper.epochs):
        perm = rng.permutation(n)
        losses, hits = [], 0
        for start in range(0, n, hyper.batch_size):
            idx = perm[start: start + hyper.batch_size]
            bx, by = x[idx], y[idx]
            logits = stack_forward(layers, bx)
            rows = np.arange(len(by))
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_z = np.log(np.exp(shifted).sum(axis=1))
            loss = float(np.mean(log_z - shifted[rows, by]))
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            grad = e / e.sum(axis=1, keepdims=True)
            grad[rows, by] -= 1
            grad /= len(by)
            hits += int((np.argmax(logits, axis=1) == by).sum())
            losses.append(loss * len(by))
            _, per_layer = stack_backward(layers, grad)
            for opt, param, g in zip(opts, params, (g for pair in per_layer for g in pair)):
                opt.step(param, g, epoch)
        val_logits = stack_forward(layers, val[0], keep=False)
        val_acc = float((np.argmax(val_logits, axis=1) == val[1]).mean())
        log.append(EpochStats(epoch, sum(losses) / n, hits / n, val_acc))
    return log


def _copies(layers):
    return [DenseLayer(l.weight.copy(), l.bias.copy(), l.activation) for l in layers]


@pytest.mark.parametrize("depth", [1, 3])
@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_train_softmax_stack_is_bitwise_textbook(optimizer, depth):
    """With logs and without: without them the call returns None."""
    ds = synth_dataset(SMALL)   # 200 rows: the last batch of 30 holds 20
    hyper = TrainHyper(epochs=4, batch_size=30, lr=1e-2, lr_step_epochs=2,
                       lr_gamma=0.5, optimizer=optimizer)
    model = build_mlp(make_rng(3), 8, (6, 5), 4)
    if depth == 3:
        layers, x, vx = model.layers, ds.train_x, ds.val_x
    else:  # the classifier alone, on the extractor's features
        layers, x, vx = [model.fc_layer], model.features(ds.train_x), model.features(ds.val_x)
    want_layers = _copies(layers)
    want = _textbook_train(want_layers, x, ds.train_y, hyper, seed=2, val=(vx, ds.val_y))
    for logs in (True, False):
        got_layers = _copies(layers)
        got = train_softmax_stack(got_layers, x, ds.train_y, hyper, seed=2,
                                  val=(vx, ds.val_y), logs=logs)
        assert got == (want if logs else None)
        for a, b, before in zip(got_layers, want_layers, layers):
            assert a.weight.tobytes() == b.weight.tobytes() != before.weight.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()


@pytest.mark.parametrize("depth", [1, 3])
@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_stacked_runs_are_bitwise_textbook_runs(optimizer, depth):
    """K runs in one lockstep call, each with its own starting weights, rows,
    labels and seed, equal K textbook runs bit for bit: weights and logs.
    Depth 3 scores every run on one shared val input, depth 1 each run on its
    own extractor's val features. Without logs the weights are the same bits
    and the call returns None."""
    ds = synth_dataset(SMALL)   # 200 rows: the last batch of 30 holds 20
    hyper = TrainHyper(epochs=4, batch_size=30, lr=1e-2, lr_step_epochs=2,
                       lr_gamma=0.5, optimizer=optimizer)
    seeds = [2, 5, 9]
    runs = []
    for k in range(len(seeds)):
        model = build_mlp(make_rng(3 + k), 8, (6, 5), 4)
        rows = derive_rng(k, stage_key("test-rows")).permutation(200)
        x, y = ds.train_x[rows], ds.train_y[rows]
        if depth == 3:
            runs.append((model.layers, x, y, ds.val_x))
        else:
            runs.append(([model.fc_layer], model.features(x), y, model.features(ds.val_x)))
    val_x = ds.val_x if depth == 3 else np.stack([run[3] for run in runs])
    wants = []
    for k, (layers, x, y, vx) in enumerate(runs):
        want_layers = _copies(layers)
        wants.append((want_layers,
                      _textbook_train(want_layers, x, y, hyper, seeds[k], (vx, ds.val_y))))
    for logs in (True, False):
        stacked = [DenseLayer(np.stack([run[0][i].weight for run in runs]),
                              np.stack([run[0][i].bias for run in runs]),
                              runs[0][0][i].activation) for i in range(depth)]
        got = train_softmax_stack(stacked, np.stack([run[1] for run in runs]),
                                  np.stack([run[2] for run in runs]), hyper, seed=seeds,
                                  val=(val_x, ds.val_y), logs=logs)
        assert got == ([want for _, want in wants] if logs else None)
        for k, (want_layers, _) in enumerate(wants):
            for a, b in zip(stacked, want_layers):
                assert a.weight[k].tobytes() == b.weight.tobytes()
                assert a.bias[k].tobytes() == b.bias.tobytes()


def test_train_names_epoch_and_batch_of_an_inf_row():
    """With logs the loss is the first non-finite value seen; without them,
    the first layer's weight gradient, which the optimizer refuses."""
    ds = synth_dataset(SMALL)
    x = ds.train_x.copy()
    x[57, 3] = np.inf
    # the row's place in epoch 0's shuffle gives its batch
    perm = derive_rng(4, stage_key("shuffle")).permutation(len(x))
    batch = int(np.flatnonzero(perm == 57)[0]) // 32
    for logs, seen in ((True, "loss"), (False, "gradient in layer 0 weight")):
        model = build_mlp(make_rng(0), 8, (6, 5), 4)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NumericError,
                               match=f"non-finite {seen} at epoch 0, batch {batch}$"):
                train_softmax_stack(model.layers, x, ds.train_y,
                                    TrainHyper(epochs=2, batch_size=32, lr=1e-3), seed=4,
                                    logs=logs)


def test_training_is_deterministic_per_seed():
    ds = synth_dataset(SMALL)
    runs = []
    for _ in range(2):
        model, _ = train_source_model(ds, feature_widths=(8, 6),
                                      hyper=TrainHyper(epochs=3, batch_size=32, lr=1e-3),
                                      seed=5)
        runs.append(model)
    for a, b in zip(runs[0].layers, runs[1].layers):
        np.testing.assert_array_equal(a.weight, b.weight)
        np.testing.assert_array_equal(a.bias, b.bias)


def test_source_training_learns_small_task():
    ds = synth_dataset(SMALL)
    model, log = train_source_model(ds, feature_widths=(16, 8),
                                    hyper=TrainHyper(epochs=60, batch_size=32, lr=1e-3),
                                    seed=1)
    assert log[-1].val_accuracy is not None
    assert log[-1].val_accuracy > 0.8
    assert log[-1].train_loss < log[0].train_loss


# --- pruning ---


def test_prune_widths_and_activation_dim_preserved():
    ds = synth_dataset(DatasetSpec(seed=0, train_per_class=20, val_per_class=5))
    m0, _ = train_source_model(ds, hyper=TrainHyper(epochs=1, batch_size=64, lr=1e-3))
    mp = prune_model(m0, 0.3, ds, finetune_hyper=TrainHyper(epochs=1, batch_size=64, lr=1e-3))
    widths = [l.out_dim for l in mp.fe_layers]
    # floor(0.3*64)=19 and floor(0.3*32)=9 units dropped; final layer untouched
    assert widths == [45, 23, 16]
    assert mp.activation_dim == 16
    assert mp.prune_fraction == pytest.approx(0.3)
    assert model_memory_bytes(mp) < model_memory_bytes(m0)


def test_prune_keeps_highest_norm_units():
    ds = synth_dataset(DatasetSpec(seed=0, train_per_class=20, val_per_class=5))
    m0, _ = train_source_model(ds, hyper=TrainHyper(epochs=1, batch_size=64, lr=1e-3))
    mp = prune_model(m0, 0.5, ds, finetune_hyper=TrainHyper(epochs=1, batch_size=64, lr=0.0))
    # with lr=0 finetuning, layer-0 rows must be an exact subset of the original
    orig = m0.fe_layers[0].weight
    kept = mp.fe_layers[0].weight
    norms = np.linalg.norm(orig, axis=1)
    expected = np.sort(np.argsort(norms)[orig.shape[0] // 2:])
    np.testing.assert_array_equal(kept, orig[expected])
    dropped_max = np.sort(norms)[: orig.shape[0] // 2].max()
    assert np.linalg.norm(kept, axis=1).min() >= dropped_max


def test_prune_rejects_bad_fractions():
    ds = synth_dataset(SMALL)
    m0, _ = train_source_model(ds, feature_widths=(8, 6),
                               hyper=TrainHyper(epochs=1, batch_size=32, lr=1e-3))
    with pytest.raises(ValueError):
        prune_model(m0, 1.0, ds)
    with pytest.raises(ValueError):
        prune_model(m0, -0.1, ds)


def test_prune_refuses_to_hollow_out_a_layer():
    ds = synth_dataset(SMALL)
    m0, _ = train_source_model(ds, feature_widths=(4, 6),
                               hyper=TrainHyper(epochs=1, batch_size=32, lr=1e-3))
    with pytest.raises(ShapeError):
        prune_model(m0, 0.75, ds)  # 4-wide layer would keep a single unit


# --- frozen full-default fixtures (the desk-scale pipeline itself) ---


def test_deployed_model_fixture_accuracy(pipe0):
    acc = float((pipe0.m0.predict(pipe0.dataset.val_x) == pipe0.dataset.val_y).mean())
    assert acc == pytest.approx(0.992, abs=0.02)
    assert acc >= 0.97


def test_pruned_model_loses_accuracy_but_beats_chance(pipe0):
    ds = pipe0.dataset
    m0_acc = float((pipe0.m0.predict(ds.val_x) == ds.val_y).mean())
    mp5 = prune_model(pipe0.m0, 0.5, ds, seed=0)
    mp5_acc = float((mp5.predict(ds.val_x) == ds.val_y).mean())
    assert mp5_acc == pytest.approx(0.94, abs=0.03)
    assert mp5_acc < m0_acc
    assert mp5_acc > 5 * (1.0 / ds.spec.num_classes)

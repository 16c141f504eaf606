"""The conditional generator: KL term, annealing, training, generation.

The distribution-matching tests train small 2-class instances from scratch so
they stay fast; the full 20-class checks live in the acceptance suite.
"""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest

from loco_pda.cvae import (
    BetaSchedule,
    CvaeHyper,
    CvaeModel,
    UncondVaePack,
    align_latent,
    fit_vae,
    generate_activations,
    kl_diag_gauss,
    train_cvae,
    train_uncond_pack,
)
from loco_pda.errors import DivergenceError, LabelError, ShapeError
from loco_pda.models import (
    ActivationBatch,
    DatasetSpec,
    TrainHyper,
    build_mlp,
    extract_activations,
    model_memory_bytes,
    prune_model,
    synth_dataset,
    train_source_model,
)
from loco_pda.numerics import Activation, DenseLayer, derive_rng, one_hot, stage_key

from helpers import gradcheck, layer_params, make_rng, named_grads, set_cvae_params


# --- KL divergence ---


def test_kl_standard_normal_is_exactly_zero():
    kl, gmu, glv = kl_diag_gauss(np.zeros((3, 4)), np.zeros((3, 4)))
    assert kl == 0.0
    np.testing.assert_array_equal(gmu, 0.0)
    np.testing.assert_array_equal(glv, 0.0)


def test_kl_unit_mean_shift_is_half():
    # mu = [1, 0], sigma = [1, 1]: only the mean term contributes, 0.5 * 1^2
    kl, _, _ = kl_diag_gauss(np.array([[1.0, 0.0]]), np.zeros((1, 2)))
    assert kl == pytest.approx(0.5, rel=1e-12)


def test_kl_is_additive_over_dimensions(rng):
    mu = rng.standard_normal((1, 6))
    lv = rng.standard_normal((1, 6)) * 0.5
    whole, _, _ = kl_diag_gauss(mu, lv)
    left, _, _ = kl_diag_gauss(mu[:, :2], lv[:, :2])
    right, _, _ = kl_diag_gauss(mu[:, 2:], lv[:, 2:])
    assert whole == pytest.approx(left + right, rel=1e-9)


def test_kl_nonnegative_on_random_inputs(rng):
    mu = rng.standard_normal((50, 8)) * 3
    lv = rng.standard_normal((50, 8)) * 2
    kl, _, _ = kl_diag_gauss(mu, lv)
    assert kl >= 0.0


def test_kl_gradients_finite_difference(rng):
    mu0 = rng.standard_normal((4, 3))
    lv0 = rng.standard_normal((4, 3)) * 0.3

    def fn(params):
        kl, gmu, glv = kl_diag_gauss(params["mu"], params["lv"])
        return kl, {"mu": gmu, "lv": glv}

    assert gradcheck(fn, {"mu": mu0, "lv": lv0}) < 1e-4


def test_kl_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        kl_diag_gauss(np.zeros((2, 3)), np.zeros((2, 4)))


# --- beta annealing ---


def test_beta_schedule_staircase():
    sched = BetaSchedule()
    assert sched.at(0) == 0.0
    assert sched.at(2) == 0.0
    assert sched.at(3) == pytest.approx(0.1)
    assert sched.at(29) == pytest.approx(0.9)
    assert sched.at(30) == 1.0
    assert sched.at(89) == 1.0


def test_beta_schedule_monotone_and_clamped():
    sched = BetaSchedule()
    values = [sched.at(e) for e in range(90)]
    assert all(values[i] <= values[i + 1] for i in range(len(values) - 1))
    assert max(values) == 1.0


def test_beta_schedule_validation():
    with pytest.raises(ValueError):
        BetaSchedule(every_epochs=0)
    with pytest.raises(ValueError):
        BetaSchedule(start=2.0, max_value=1.0)
    nan, inf = float("nan"), float("inf")
    for bad in ({"start": nan}, {"step": nan}, {"max_value": nan}, {"max_value": inf}):
        with pytest.raises(ValueError):
            BetaSchedule(**bad)


# --- model mechanics ---


def _tiny_model(num_classes=3) -> CvaeModel:
    return CvaeModel.create(make_rng(0), a_dim=4, num_classes=num_classes,
                            z_dim=2, enc_widths=(8,), dec_widths=(6,))


def test_create_shapes_conditional():
    m = _tiny_model()
    assert m.encoder[0].in_dim == 4 + 3
    assert m.encoder[-1].out_dim == 4  # mu and logvar
    assert m.decoder[0].in_dim == 2 + 3
    assert m.decoder[-1].out_dim == 4


def test_create_shapes_unconditional():
    m = _tiny_model(num_classes=0)
    assert m.encoder[0].in_dim == 4
    assert m.decoder[0].in_dim == 2
    assert m.onehot(np.zeros(5, dtype=np.int64)) is None
    mu, lv = m.encode(np.zeros((5, 4), dtype=np.float32), None)
    assert mu.shape == lv.shape == (5, 2)


@pytest.mark.parametrize("num_classes", [3, 0])
def test_dims_come_from_the_layers(num_classes):
    m = _tiny_model(num_classes)
    assert (m.a_dim, m.num_classes, m.z_dim) == (4, num_classes, 2)
    rebuilt = CvaeModel(m.encoder, m.decoder)
    assert (rebuilt.a_dim, rebuilt.num_classes, rebuilt.z_dim) == (4, num_classes, 2)


def test_constructor_rejects_inconsistent_layers():
    rng = make_rng(1)
    m = _tiny_model()

    def dense(i, o, act=Activation.IDENTITY):
        return DenseLayer.create(rng, i, o, act)

    # encoder output 5 cannot split into a mean and a log-variance per latent
    odd_head = [m.encoder[0], dense(8, 5)]
    with pytest.raises(ShapeError, match="encoder output"):
        CvaeModel(odd_head, m.decoder)
    # decoder input 5 = z 2 + 3 classes, so the encoder must take 4 + 3, not 4 + 2
    narrow_in = [dense(6, 8, Activation.RELU), m.encoder[1]]
    with pytest.raises(ShapeError, match="encoder input"):
        CvaeModel(narrow_in, m.decoder)
    # a decoder input narrower than the latent leaves a negative class count
    short_dec = [dense(1, 6, Activation.RELU), m.decoder[1]]
    with pytest.raises(ShapeError, match="decoder input"):
        CvaeModel(m.encoder, short_dec)


def test_pack_refuses_an_empty_member_list():
    with pytest.raises(ShapeError, match="at least one member"):
        UncondVaePack([])


def test_pack_refuses_a_conditional_member():
    members = [_tiny_model(num_classes=0), _tiny_model(num_classes=3)]
    with pytest.raises(ShapeError, match="member 1 is conditional"):
        UncondVaePack(members)


def test_pack_refuses_members_of_another_activation_width():
    wider = CvaeModel.create(make_rng(0), a_dim=5, num_classes=0, z_dim=2,
                             enc_widths=(8,), dec_widths=(6,))
    members = [_tiny_model(num_classes=0), _tiny_model(num_classes=0), wider]
    with pytest.raises(ShapeError, match="member 2 has activation width 5, member 0 has 4"):
        UncondVaePack(members)


@pytest.mark.parametrize("stack", ["encoder", "decoder"])
def test_constructor_rejects_a_stack_whose_widths_do_not_chain(stack):
    """A width break inside a stack is refused when the model is built, not
    at its first encode or decode."""
    m = _tiny_model()
    stacks = {"encoder": m.encoder, "decoder": m.decoder}
    head = stacks[stack][-1]
    # the head takes one input fewer than the layer before it gives
    stacks[stack] = [stacks[stack][0],
                     DenseLayer.create(make_rng(1), head.in_dim - 1, head.out_dim,
                                       Activation.IDENTITY)]
    with pytest.raises(ShapeError, match=f"{stack} widths do not chain"):
        CvaeModel(**stacks)


def _parameter_arrays(layers):
    return [p for layer in layers for p in (layer.weight, layer.bias)]


@pytest.mark.parametrize("kind, count", [
    # (4*6+6) + (6*5+5) + (5*3+3)
    ("mlp", 83),
    # encoder (7*8+8) + (8*4+4), decoder (5*6+6) + (6*4+4)
    ("cvae", 164),
    # 3 members: encoder (4*8+8) + (8*4+4), decoder (2*6+6) + (6*4+4)
    ("pack", 3 * 122),
])
def test_layers_hold_every_parameter_once(kind, count):
    """model.layers is the one list of a model's parameters: it holds each
    weight and bias array once, and model_memory_bytes counts from it."""
    if kind == "mlp":
        model = build_mlp(make_rng(0), 4, (6, 5), 3)
        stacks = [model.fe_layers, [model.fc_layer]]
    elif kind == "cvae":
        model = _tiny_model()
        stacks = [model.encoder, model.decoder]
    else:
        model = UncondVaePack([_tiny_model(num_classes=0) for _ in range(3)])
        stacks = [s for vae in model.vaes for s in (vae.encoder, vae.decoder)]
    arrays = _parameter_arrays(model.layers)
    assert [id(a) for a in arrays] == [id(a) for s in stacks for a in _parameter_arrays(s)]
    assert len({id(a) for a in arrays}) == len(arrays)
    assert sum(a.size for a in arrays) == count
    assert model_memory_bytes(model) == 4 * count


def test_composed_loss_gradients_with_frozen_noise(rng):
    """Everything through one loss call: encoder, reparameterized latent,
    decoder, MSE plus KL, at a beta between the schedule's endpoints."""
    model = _tiny_model()
    acts = rng.standard_normal((6, 4)).astype(np.float32)
    onehot = one_hot(np.array([0, 1, 2, 0, 1, 2]), 3)
    noise = rng.standard_normal((6, 2)).astype(np.float32)

    def fn(params):
        m = _tiny_model()
        set_cvae_params(m, params)
        loss, grads, _, _ = m.loss_and_grads(acts, onehot, noise, beta=0.7)
        return loss, named_grads(m, grads)

    assert gradcheck(fn, layer_params(model)) < 1e-3


def test_loss_beta_zero_is_pure_reconstruction(rng):
    model = _tiny_model()
    acts = rng.standard_normal((6, 4)).astype(np.float32)
    onehot = one_hot(np.array([0, 1, 2, 0, 1, 2]), 3)
    noise = rng.standard_normal((6, 2)).astype(np.float32)
    loss, _, recon, kl = model.loss_and_grads(acts, onehot, noise, beta=0.0)
    assert loss == pytest.approx(recon)
    assert kl >= 0.0


# --- training ---


@functools.lru_cache(maxsize=None)
def _two_class_acts(seed=0):
    """Real feature rows for two classes, from a quickly trained extractor.

    Cached: several tests read the same batch and never mutate it.
    """
    ds = synth_dataset(DatasetSpec(num_classes=2, input_dim=12, train_per_class=150,
                                   val_per_class=20, seed=seed))
    model, _ = train_source_model(ds, feature_widths=(24, 8),
                                  hyper=TrainHyper(epochs=20, batch_size=32, lr=1e-3),
                                  seed=seed)
    return extract_activations(model, ds.train_x, labels=ds.train_y)


@functools.lru_cache(maxsize=None)
def _trained_two_class() -> CvaeModel:
    """Stock-recipe conditional model on the 2-class batch, shared read-only.

    Distribution matching needs the full architecture: narrow encoders at this
    tiny step count never anneal the KL down, and the prior samples stay off.
    """
    model, _ = train_cvae(_two_class_acts(), 2, seed=0)
    return model


SMALL_HYPER = CvaeHyper(epochs=45, batch_size=64)


def test_fit_is_deterministic_per_seed():
    acts = ActivationBatch(
        np.random.default_rng(0).standard_normal((80, 4)).astype(np.float32) + 3.0,
        labels=np.repeat([0, 1], 40))
    results = []
    for _ in range(2):
        model, _ = train_cvae(acts, 2, hyper=CvaeHyper(epochs=5), seed=9,
                              z_dim=2, enc_widths=(8,), dec_widths=(6,))
        results.append(layer_params(model))
    for key in results[0]:
        np.testing.assert_array_equal(results[0][key], results[1][key])


def test_train_cvae_requires_labels():
    acts = ActivationBatch(np.zeros((4, 3), dtype=np.float32))
    with pytest.raises(LabelError):
        train_cvae(acts, 2)


def test_divergence_carries_last_finite_checkpoint():
    acts = ActivationBatch(
        np.random.default_rng(1).standard_normal((64, 4)).astype(np.float32),
        labels=np.repeat([0, 1], 32))
    hyper = CvaeHyper(epochs=10, lr=1e6)  # guaranteed blow-up
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as exc_info:
        train_cvae(acts, 2, hyper=hyper, z_dim=2, enc_widths=(8,), dec_widths=(6,))
    err = exc_info.value
    assert err.checkpoint is not None
    assert len(err.checkpoint) == 4  # (weight, bias) of 2 encoder and 2 decoder layers
    assert all(np.all(np.isfinite(a)) for pair in err.checkpoint for a in pair)
    assert err.epoch is not None


def test_training_reduces_reconstruction_loss():
    acts = _two_class_acts()
    _, log = train_cvae(acts, 2, hyper=SMALL_HYPER, seed=0,
                        z_dim=4, enc_widths=(64, 16), dec_widths=(32,))
    assert log[-1].recon < log[0].recon
    assert log[0].beta == 0.0
    assert log[-1].beta == 1.0


# --- latent alignment ---


def test_align_latent_preserves_posterior_reconstructions():
    acts = _two_class_acts()
    model, _ = train_cvae(acts, 2, hyper=SMALL_HYPER, seed=3,
                          z_dim=4, enc_widths=(64, 16), dec_widths=(32,))
    onehot = one_hot(acts.labels, 2)
    mu, lv = model.encode(acts.features, onehot)
    noise = np.random.default_rng(7).standard_normal(mu.shape).astype(np.float32)
    before = model.decode(mu + np.exp(0.5 * lv) * noise, onehot)
    align_latent(model, acts.features, acts.labels)  # idempotent-ish second call
    mu2, lv2 = model.encode(acts.features, onehot)
    after = model.decode(mu2 + np.exp(0.5 * lv2) * noise, onehot)
    scale = np.abs(before).mean()
    np.testing.assert_allclose(after, before, atol=1e-3 * scale)


def test_align_latent_centers_the_aggregated_posterior():
    acts = _two_class_acts()
    model, _ = train_cvae(acts, 2, hyper=SMALL_HYPER, seed=3,
                          z_dim=4, enc_widths=(64, 16), dec_widths=(32,))
    # train_cvae already aligned once; the moments must sit at the prior
    mu, lv = model.encode(acts.features, one_hot(acts.labels, 2))
    total_var = mu.var(axis=0) + np.exp(lv).mean(axis=0)
    np.testing.assert_allclose(mu.mean(axis=0), 0.0, atol=1e-3)
    np.testing.assert_allclose(total_var, 1.0, atol=1e-2)


def test_aligned_pack_matches_the_class_means(pipe0, uncond_pack_for):
    """The seed-0 pack's 2,000-row-per-class pools sit near the real class
    means: the worst class-mean gap is .10-.11 of the smallest real gap
    between classes with the latent alignment and about .20 without it, so
    the bound .15 fails when the pack skips align_latent."""
    acts, s = pipe0.acts, pipe0.dataset.spec.num_classes
    real = np.stack([acts.features[acts.labels == c].mean(axis=0) for c in range(s)])
    gaps = np.linalg.norm(real[:, None] - real[None, :], axis=2)
    gen = generate_activations(uncond_pack_for(0), np.full(s, 2000), seed=1)
    generated = np.stack([gen.features[gen.labels == c].mean(axis=0) for c in range(s)])
    worst = np.linalg.norm(generated - real, axis=1).max()
    assert worst < 0.15 * gaps[~np.eye(s, dtype=bool)].min()


def test_align_latent_conditional_requires_labels():
    model = _tiny_model()
    with pytest.raises(LabelError):
        align_latent(model, np.zeros((4, 4), dtype=np.float32), None)


# --- generation ---


def test_generate_labels_in_class_order():
    model = _tiny_model()
    batch = generate_activations(model, np.array([2, 0, 3]), seed=0)
    np.testing.assert_array_equal(batch.labels, [0, 0, 2, 2, 2])
    assert batch.features.shape == (5, 4)


def test_generate_deterministic_per_seed():
    model = _tiny_model()
    a = generate_activations(model, np.array([4, 4, 4]), seed=5)
    b = generate_activations(model, np.array([4, 4, 4]), seed=5)
    c = generate_activations(model, np.array([4, 4, 4]), seed=6)
    np.testing.assert_array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


def test_generate_argument_errors():
    model = _tiny_model()
    with pytest.raises(ShapeError):
        generate_activations(model, np.array([1, 2]))
    with pytest.raises(ValueError):
        generate_activations(model, np.array([1, -1, 2]))
    with pytest.raises(LabelError):
        generate_activations(_tiny_model(num_classes=0), np.array([1]))


def test_generated_class_means_track_real_means():
    """2-class distribution matching: every generated class mean within
    0.15x the inter-class distance of its real counterpart."""
    acts = _two_class_acts()
    model = _trained_two_class()
    gen = generate_activations(model, np.array([300, 300]), seed=1)
    real_means = np.stack([acts.features[acts.labels == c].mean(axis=0)
                           for c in range(2)])
    gen_means = np.stack([gen.features[gen.labels == c].mean(axis=0)
                          for c in range(2)])
    inter = np.linalg.norm(real_means[0] - real_means[1])
    worst = np.linalg.norm(gen_means - real_means, axis=1).max()
    assert worst < 0.15 * inter


def test_generated_variance_within_band_of_real():
    """Pooled per-dimension variance ratio in [0.25, 4]; dims the extractor
    left dead (zero real variance) are excluded."""
    acts = _two_class_acts()
    model = _trained_two_class()
    gen = generate_activations(model, np.array([300, 300]), seed=1)
    rv = acts.features.var(axis=0)
    gv = gen.features.var(axis=0)
    live = rv > 0
    assert live.any()
    ratio = gv[live] / rv[live]
    assert ratio.min() > 0.25
    assert ratio.max() < 4.0


def test_conditioning_input_changes_the_output():
    """Same latent, different class vector: the decoder must move the row by
    a distance commensurate with the class separation, or the conditioning
    channel is dead."""
    acts = _two_class_acts()
    model = _trained_two_class()
    z = np.random.default_rng(2).standard_normal((200, model.z_dim)).astype(np.float32)
    out0 = model.decode(z, one_hot(np.zeros(200, dtype=np.int64), 2))
    out1 = model.decode(z, one_hot(np.ones(200, dtype=np.int64), 2))
    moved = np.linalg.norm(out0 - out1, axis=1).mean()
    real_means = np.stack([acts.features[acts.labels == c].mean(axis=0)
                           for c in range(2)])
    inter = np.linalg.norm(real_means[0] - real_means[1])
    assert moved > 0.1 * inter


# --- per-class unconditional pack ---


def test_uncond_pack_members_are_truly_unconditional():
    acts = _two_class_acts()
    pack, logs = train_uncond_pack(acts, 2, hyper=CvaeHyper(epochs=30), seed=0)
    assert pack.num_classes == 2
    assert len(logs) == 2
    for vae in pack.vaes:
        assert vae.num_classes == 0
        assert vae.encoder[0].in_dim == acts.features.shape[1]


def test_uncond_generation_separates_classes():
    acts = _two_class_acts()
    pack, _ = train_uncond_pack(acts, 2, seed=0)
    gen = generate_activations(pack, np.array([250, 250]), seed=1)
    np.testing.assert_array_equal(np.bincount(gen.labels), [250, 250])
    real_means = np.stack([acts.features[acts.labels == c].mean(axis=0)
                           for c in range(2)])
    gen_means = np.stack([gen.features[gen.labels == c].mean(axis=0)
                          for c in range(2)])
    inter = np.linalg.norm(real_means[0] - real_means[1])
    worst = np.linalg.norm(gen_means - real_means, axis=1).max()
    assert worst < 0.15 * inter


def test_uncond_pack_rejects_missing_class():
    acts = ActivationBatch(np.zeros((4, 3), dtype=np.float32) + 1.0,
                           labels=np.array([0, 0, 0, 0]))
    with pytest.raises(LabelError):
        train_uncond_pack(acts, 2, hyper=CvaeHyper(epochs=1))


def test_generate_uncond_count_shape_checked():
    acts = _two_class_acts()
    pack, _ = train_uncond_pack(acts, 2, hyper=CvaeHyper(epochs=2), seed=0)
    with pytest.raises(ShapeError):
        generate_activations(pack, np.array([1, 2, 3]))
    empty = generate_activations(pack, np.array([0, 0]))
    assert empty.features.shape[0] == 0


def test_pack_generation_is_bitwise_a_per_member_decode():
    """Class c decodes with member c from its own draw, keyed by (seed,
    "generate", c), whatever the other classes' counts."""
    acts = _two_class_acts()
    pack, _ = train_uncond_pack(acts, 2, hyper=CvaeHyper(epochs=2), seed=0)
    assert pack.a_dim == acts.features.shape[1]
    for counts in ([7, 5], [0, 4], [3, 0]):
        got = generate_activations(pack, np.array(counts), seed=9)
        feats = []
        for c, vae in enumerate(pack.vaes):
            rng = derive_rng(9, stage_key("generate"), c)
            z = rng.standard_normal((counts[c], vae.z_dim)).astype(np.float32)
            feats.append(vae.decode(z, None))
        want = np.concatenate(feats)
        assert got.features.dtype == want.dtype
        assert got.features.tobytes() == want.tobytes()
        np.testing.assert_array_equal(got.labels, np.repeat([0, 1], counts))


# --- forward caches ---


def _cached_batches(layers):
    """Array attributes of the layers other than their parameters."""
    return [(i, key) for i, layer in enumerate(layers) for key, value in vars(layer).items()
            if isinstance(value, np.ndarray) and key not in ("weight", "bias")]


def test_no_layer_keeps_a_batch_after_training_or_generation():
    ds = synth_dataset(DatasetSpec(num_classes=2, input_dim=6, train_per_class=40,
                                   val_per_class=10, seed=2))
    hyper = TrainHyper(epochs=2, batch_size=16, lr=1e-3)
    m0, _ = train_source_model(ds, feature_widths=(8, 4), hyper=hyper, seed=2)
    mp = prune_model(m0, 0.25, ds, finetune_hyper=hyper, seed=2)
    mp.predict(ds.val_x)
    acts = extract_activations(mp, ds.train_x, labels=ds.train_y)
    small = CvaeHyper(epochs=2, batch_size=16)
    gen, _ = train_cvae(acts, 2, hyper=small, seed=2, z_dim=2, enc_widths=(8,),
                        dec_widths=(6,))
    generate_activations(gen, np.array([5, 5]), seed=2)
    pack, _ = train_uncond_pack(acts, 2, hyper=small, seed=2)
    generate_activations(pack, np.array([5, 5]), seed=2)
    stacks = [m0.layers, mp.layers, gen.encoder, gen.decoder]
    stacks += [vae.encoder for vae in pack.vaes] + [vae.decoder for vae in pack.vaes]
    assert [_cached_batches(layers) for layers in stacks] == [[]] * len(stacks)


# --- inference memory ---


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_inference_transients_stay_within_a_block():
    """Latent alignment over 4,000 training rows and a 3,000-row generated
    pool, at the default widths, never hold a batch-sized hidden layer. The
    largest row block has under 1.5 blocks' rows, so its widest output stays
    under 1.5 x numerics.BLOCK_BYTES = 1.5 MiB; the rest of the ceiling covers
    the next layer's block output and the call's own full-length arrays
    (conditioned input, one-hot, output). A one-shot forward held a 16.4 MB
    layer of the earlier 1024-wide encoder and a 6.1 MB decoder layer here,
    and the 256-wide encoder under 2 MiB blocks ran the 4,000 rows one-shot
    and peaked at 6.5 MB."""
    ceiling = 5 << 20
    rng = derive_rng(14, 4)
    model = CvaeModel.create(rng, 16, 20)
    feats = rng.standard_normal((4000, 16)).astype(np.float32)
    labels = np.arange(4000) % 20
    assert _traced_peak(align_latent, model, feats, labels) < ceiling
    assert _traced_peak(generate_activations, model, np.full(20, 150), 3) < ceiling

"""Acceptance gate: one test per numbered release criterion.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion. These drive the full desk-scale recipe (20 classes, 16 feature
dims), so the file takes a few minutes end to end; the per-module suites are
the fast place to debug a failure. Expensive pipelines are session-cached in
conftest and shared across criteria.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from loco_pda import cli, formats, models
from loco_pda.adaptation import (
    AdaptationConfig,
    ClassDistribution,
    SyntheticFlip,
    adapt_classifier,
    allocate_counts,
    label_noise_experiment,
    retrain_baseline,
    stored_row_bytes,
)
from loco_pda.config import PipelineConfig
from loco_pda.cvae import (
    BetaSchedule,
    CvaeModel,
    generate_activations,
    kl_diag_gauss,
)
from loco_pda.errors import LocoError
from loco_pda.evaluation import (
    LedgerSpec,
    build_ledger,
    budget_sweep,
    cond_vs_uncond,
    training_runtime_bytes,
)
from loco_pda.models import extract_activations, model_memory_bytes
from loco_pda.numerics import (
    Activation,
    DenseLayer,
    mse_loss,
    one_hot,
    stack_backward,
    stack_forward,
)

from helpers import (
    gradcheck,
    layer_params,
    make_rng,
    named_grads,
    set_cvae_params,
    softmax_xent_loss,
    spearman_rho,
)

SEEDS = (0, 1, 2, 3, 4)


# --- 1: every gradient matches central finite differences ---


def test_criterion_01_gradient_suite(rng):
    started = time.monotonic()
    x = rng.standard_normal((5, 4)).astype(np.float32)
    target = rng.standard_normal((5, 3)).astype(np.float32)
    labels = np.array([0, 1, 2, 0, 2])

    for activation in (Activation.IDENTITY, Activation.RELU):
        ref = DenseLayer.create(make_rng(3), 4, 3, activation)

        def dense_fn(params):
            layer = DenseLayer(params["w"], params["b"], activation)
            loss, grad_out = mse_loss(layer.forward(x), target)
            _, grad_w, grad_b = layer.backward(grad_out)
            return loss, {"w": grad_w, "b": grad_b}

        assert gradcheck(dense_fn, {"w": ref.weight, "b": ref.bias}) < 1e-4

    def xent_fn(params):
        layer = DenseLayer(params["w"], params["b"], Activation.IDENTITY)
        loss, grad_logits = softmax_xent_loss(layer.forward(x), labels)
        _, grad_w, grad_b = layer.backward(grad_logits)
        return loss, {"w": grad_w, "b": grad_b}

    head = DenseLayer.create(make_rng(4), 4, 3, Activation.IDENTITY)
    assert gradcheck(xent_fn, {"w": head.weight, "b": head.bias}) < 1e-4

    def stack_fn(params):
        layers = [DenseLayer(params["w0"], params["b0"], Activation.RELU),
                  DenseLayer(params["w1"], params["b1"], Activation.IDENTITY)]
        loss, grad_out = mse_loss(stack_forward(layers, x), target)
        _, per_layer = stack_backward(layers, grad_out)
        return loss, {"w0": per_layer[0][0], "b0": per_layer[0][1],
                      "w1": per_layer[1][0], "b1": per_layer[1][1]}

    l0 = DenseLayer.create(make_rng(5), 4, 6, Activation.RELU)
    l1 = DenseLayer.create(make_rng(6), 6, 3, Activation.IDENTITY)
    assert gradcheck(stack_fn, {"w0": l0.weight, "b0": l0.bias,
                                "w1": l1.weight, "b1": l1.bias}) < 1e-4

    def kl_fn(params):
        kl, gmu, glv = kl_diag_gauss(params["mu"], params["logvar"])
        return kl, {"mu": gmu, "logvar": glv}

    mu0 = rng.standard_normal((4, 3))
    lv0 = rng.standard_normal((4, 3)) * 0.5
    assert gradcheck(kl_fn, {"mu": mu0, "logvar": lv0}) < 1e-4

    # the whole generator loss as one function of every parameter, with the
    # reparameterization noise frozen so the objective is deterministic
    model = CvaeModel.create(make_rng(0), a_dim=4, num_classes=3, z_dim=2,
                             enc_widths=(8,), dec_widths=(6,))
    acts = rng.standard_normal((6, 4)).astype(np.float32)
    onehot = one_hot(np.array([0, 1, 2, 0, 1, 2]), 3)
    noise = rng.standard_normal((6, 2)).astype(np.float32)

    def composed_fn(params):
        m = CvaeModel.create(make_rng(0), a_dim=4, num_classes=3, z_dim=2,
                             enc_widths=(8,), dec_widths=(6,))
        set_cvae_params(m, params)
        loss, grads, _, _ = m.loss_and_grads(acts, onehot, noise, beta=0.7)
        return loss, named_grads(m, grads)

    assert gradcheck(composed_fn, layer_params(model)) < 1e-3
    assert time.monotonic() - started < 30.0


# --- 2: closed-form KL against brute-force Monte Carlo ---


def test_criterion_02_kl_matches_monte_carlo():
    started = time.monotonic()
    exact_zero, _, _ = kl_diag_gauss(np.zeros((1, 3)), np.zeros((1, 3)))
    assert exact_zero == 0.0

    log_2pi = np.log(2.0 * np.pi)
    for i in range(20):
        pair_rng = make_rng(5000 + i)
        mu = pair_rng.uniform(-2.0, 2.0, size=4)
        logvar = pair_rng.uniform(-1.0, 1.0, size=4)
        closed, _, _ = kl_diag_gauss(mu[None, :], logvar[None, :])
        sigma = np.exp(0.5 * logvar)
        z = mu + sigma * pair_rng.standard_normal((1_000_000, 4))
        log_q = -0.5 * (((z - mu) / sigma) ** 2 + logvar + log_2pi).sum(axis=1)
        log_p = -0.5 * (z ** 2 + log_2pi).sum(axis=1)
        mc = float(np.mean(log_q - log_p))
        assert abs(mc - closed) / closed < 0.01, (i, closed, mc)
    assert time.monotonic() - started < 60.0


# --- 3: annealing staircase under the shipped defaults ---


def test_criterion_03_beta_schedule():
    sched = BetaSchedule()
    values = [sched.at(e) for e in range(90)]
    assert values[0] == 0.0
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[30] == 1.0
    assert all(v == 1.0 for v in values[30:])
    # the default lr decay fires only once the weight is already saturated
    cfg = PipelineConfig()
    assert cfg.cvae_lr_step_epochs >= 30


# --- 4: generated class means track the real ones ---


def test_criterion_04_distribution_matching(pipeline_for):
    started = time.monotonic()
    for seed in SEEDS:
        pipe = pipeline_for(seed)
        s = pipe.dataset.spec.num_classes
        assert s == 20
        assert pipe.acts.features.shape[1] == 16
        real_means = np.stack([pipe.acts.features[pipe.acts.labels == c].mean(axis=0)
                               for c in range(s)])
        gaps = np.linalg.norm(real_means[:, None] - real_means[None, :], axis=2)
        min_inter = gaps[~np.eye(s, dtype=bool)].min()
        gen = generate_activations(pipe.generator, np.full(s, 100), seed=seed + 1)
        gen_means = np.stack([gen.features[gen.labels == c].mean(axis=0)
                              for c in range(s)])
        worst = np.linalg.norm(gen_means - real_means, axis=1).max()
        print(f"seed {seed}: worst mean error {worst:.3f} vs "
              f"threshold {0.15 * min_inter:.3f}")
        assert worst < 0.15 * min_inter, (seed, worst, min_inter)
    assert time.monotonic() - started < 300.0


# --- 5: generated-data retraining keeps pace with the real-data oracle ---


def test_criterion_05_adaptation_parity(pipeline_for):
    gaps = []
    for seed in SEEDS:
        pipe = pipeline_for(seed)
        scenario = pipe.scenario()
        stream_x, stream_y = scenario.target_stream
        val = scenario.target_val
        dist = ClassDistribution.from_labels(stream_y, pipe.dataset.spec.num_classes)
        _, adapted = adapt_classifier(scenario.mp, scenario.cvae, dist,
                                      AdaptationConfig(), seed=seed, val=val)
        stored = extract_activations(scenario.mp, stream_x, labels=stream_y)
        _, oracle = retrain_baseline(scenario.mp, stored, seed=seed, val=val)
        assert adapted.post_accuracy >= adapted.pre_accuracy, seed
        gaps.append(oracle.post_accuracy - adapted.post_accuracy)
    print(f"oracle-minus-adapted gaps: {[round(g, 4) for g in gaps]}")
    assert max(abs(g) for g in gaps) <= 0.03, gaps


# --- 6: the core robustness claim under 20% label noise ---


def test_criterion_06_noisy_label_robustness(pipeline_for):
    loco_deg, base_deg = [], []
    for seed in SEEDS:
        scenario = pipeline_for(seed).scenario()
        rep = label_noise_experiment(scenario, SyntheticFlip(0.2))
        loco_deg.append(rep.loco_degradation)
        base_deg.append(rep.baseline_degradation)
        # noisy labels only reshape the generation mix, so accuracy must stay
        # within a point of the untouched pruned model
        assert rep.loco_noisy >= rep.unadapted_accuracy - 0.01, (seed, rep)
    print(f"mean degradation: generated {np.mean(loco_deg):.4f}, "
          f"stored-samples {np.mean(base_deg):.4f}")
    assert float(np.mean(loco_deg)) < float(np.mean(base_deg)), (loco_deg, base_deg)


# --- 7: sample allocation is exact for any distribution ---


def test_criterion_07_allocation_exactness():
    alloc_rng = make_rng(777)
    for _ in range(1000):
        s = int(alloc_rng.integers(2, 12))
        raw = alloc_rng.random(s) ** 2 + 1e-9
        probs = raw / raw.sum()
        total = int(alloc_rng.integers(1, 500))
        counts = allocate_counts(ClassDistribution(probs), total)
        assert counts.sum() == total
        assert np.all(np.abs(counts - total * probs) <= 1.0 + 1e-9)


# --- 8: memory ledgers are closed-form shape arithmetic ---


def test_criterion_08_memory_ledger_arithmetic(pipe0, uncond_pack_for):
    cfg = AdaptationConfig()
    generator_bytes = model_memory_bytes(pipe0.generator)
    hand = 4 * sum(l.weight.size + l.bias.size
                   for l in [*pipe0.generator.encoder, *pipe0.generator.decoder])
    assert generator_bytes == hand

    loco = build_ledger(LedgerSpec("loco", pipe0.m0, pipe0.mp,
                                   generator=pipe0.generator,
                                   pool_rows=cfg.total_generated,
                                   batch_size=cfg.hyper.batch_size))
    by_name = {e.name: e.bytes for e in loco.entries}
    row = stored_row_bytes(pipe0.mp.activation_dim)
    transient = training_runtime_bytes([pipe0.mp.fc_layer], cfg.hyper.batch_size)
    assert by_name["stored-samples"] == 0
    assert by_name["deployed-model"] == model_memory_bytes(pipe0.m0)
    assert by_name["pruned-model"] == model_memory_bytes(pipe0.mp)
    assert by_name["generator"] == generator_bytes
    assert by_name["generated-pool"] == cfg.total_generated * row
    assert by_name["classifier-training"] == transient
    assert loco.total == sum(by_name.values())

    stored_rows = 500
    base = build_ledger(LedgerSpec("baseline", pipe0.m0, pipe0.mp,
                                   stored_rows=stored_rows,
                                   batch_size=cfg.hyper.batch_size))
    assert base.total == (model_memory_bytes(pipe0.m0) + model_memory_bytes(pipe0.mp)
                          + stored_rows * row + transient)

    pack = uncond_pack_for(0)
    per_vae = model_memory_bytes(pack.vaes[0])
    assert all(model_memory_bytes(v) == per_vae for v in pack.vaes)
    pack_bytes = model_memory_bytes(pack)
    assert pack_bytes == pipe0.dataset.spec.num_classes * per_vae
    # reported, not asserted: how much bigger one-model-per-class is
    print(f"per-class pack / conditional generator memory: "
          f"{pack_bytes / generator_bytes:.6f} "
          f"({pack_bytes} B / {generator_bytes} B)")


# --- 9: stored-sample accuracy climbs with budget; crossover reported ---


def test_criterion_09_budget_sweep(pipe0):
    scenario = pipe0.scenario()
    budgets = list(PipelineConfig().sweep_budgets)
    assert len(budgets) >= 6
    result = budget_sweep(scenario, budgets, seeds=SEEDS)

    finite = [p for p in result.points if p.budget_bytes is not None]
    assert [p.budget_bytes for p in finite] == budgets
    rho = spearman_rho([p.budget_bytes for p in finite],
                       [p.mean_accuracy for p in finite])
    print(f"budget vs accuracy Spearman rho: {rho:.3f}")
    assert rho > 0.0, [(p.budget_bytes, p.mean_accuracy) for p in finite]

    unbounded = result.points[-1]
    assert unbounded.budget_bytes is None
    stream_x, stream_y = scenario.target_stream
    stored = extract_activations(scenario.mp, stream_x, labels=stream_y)
    val = scenario.target_val
    for seed, acc in zip(SEEDS, unbounded.per_seed):
        _, rep = retrain_baseline(scenario.mp, stored, seed=seed, val=val)
        assert acc == rep.post_accuracy, seed

    print(f"crossover budget: {result.crossover_budget} B against generated-data "
          f"mean {result.loco_mean_accuracy:.4f} "
          f"(generator itself: {result.cvae_bytes} B)")
    assert result.crossover_budget is not None
    assert result.crossover_budget in budgets


# --- 10: class conditioning costs nothing against a per-class pack ---


def test_criterion_10_conditional_unconditional_parity(pipe0, uncond_pack_for):
    report = cond_vs_uncond(pipe0.scenario(), uncond_pack_for(0), seeds=SEEDS)
    print(f"conditional {report.cond_mean:.4f} vs pack {report.uncond_mean:.4f} "
          f"(delta {report.accuracy_delta:+.4f}, "
          f"memory ratio {report.memory_ratio:.4f})")
    assert abs(report.accuracy_delta) < 0.02, report.accuracy_delta
    assert report.uncond_bytes > report.cond_bytes


# --- 11: the whole pipeline is reproducible byte for byte ---

# Determinism does not depend on scale, so this runs a compact configuration
# that still exercises every stage: multi-seed sweep and matrix, an extra
# scenario subset, the per-class pack, and every report writer.
RUN_ALL_CONFIG = """\
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


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_criterion_11_run_all_deterministic(tmp_path):
    cfg = tmp_path / "conf.ini"
    cfg.write_text(RUN_ALL_CONFIG, encoding="utf-8")
    trees = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli.main(["run-all", "--config", str(cfg), "--seed", "3",
                         "--out", str(out)])
        assert code == 0
        trees.append(_tree_bytes(out))
    assert trees[0].keys() == trees[1].keys()
    for name in trees[0]:
        assert trees[0][name] == trees[1][name], \
            f"{name} differs between identical runs"


# --- 12: serialization round-trips exactly and fails only with typed errors ---


def _tiny_mlp() -> models.MlpModel:
    ds = models.synth_dataset(models.DatasetSpec(num_classes=3, input_dim=6,
                                                 train_per_class=25,
                                                 val_per_class=5, seed=9))
    model, _ = models.train_source_model(
        ds, feature_widths=(10, 4),
        hyper=models.TrainHyper(epochs=2, batch_size=16, lr=1e-3), seed=9)
    return model


def test_criterion_12_serialization_round_trip_and_fuzz(tmp_path, rng):
    batch = models.ActivationBatch(
        rng.standard_normal((7, 3)).astype(np.float32),
        labels=np.array([0, 1, 2, 0, 1, 2, 0]))
    act_path = tmp_path / "batch.lpac"
    formats.save_activations(act_path, batch)
    loaded = formats.load_activations(act_path)
    assert formats.activation_bytes(loaded) == act_path.read_bytes()

    model = _tiny_mlp()
    mlp_path, mlp_again = tmp_path / "m.lpmd", tmp_path / "m2.lpmd"
    formats.save_mlp(mlp_path, model)
    formats.save_mlp(mlp_again, formats.load_mlp(mlp_path))
    assert mlp_path.read_bytes() == mlp_again.read_bytes()

    generator = CvaeModel.create(make_rng(2), a_dim=3, num_classes=3, z_dim=2,
                                 enc_widths=(6,), dec_widths=(5,))
    enc_a, dec_a = tmp_path / "ea.lpmd", tmp_path / "da.lpmd"
    enc_b, dec_b = tmp_path / "eb.lpmd", tmp_path / "db.lpmd"
    formats.save_cvae(enc_a, dec_a, generator)
    formats.save_cvae(enc_b, dec_b, formats.load_cvae(enc_a, dec_a))
    assert enc_a.read_bytes() == enc_b.read_bytes()
    assert dec_a.read_bytes() == dec_b.read_bytes()

    fuzz_rng = make_rng(2026)
    target = tmp_path / "fuzz.bin"
    _fuzz([(act_path.read_bytes(), formats.load_activations),
           (mlp_path.read_bytes(), formats.load_mlp)], fuzz_rng, target)
    # the encoder and the decoder each fuzzed beside an intact partner, since
    # CvaeModel checks that the two fit together
    _fuzz([(enc_a.read_bytes(), lambda p: formats.load_cvae(p, dec_a)),
           (dec_a.read_bytes(), lambda p: formats.load_cvae(enc_a, p))], fuzz_rng, target)


def _fuzz(corpus, fuzz_rng, target, cases=1000):
    """Half the cases truncate a file and half flip one bit in it, cycling
    through corpus, a list of (file bytes, loader of a path)."""
    flips_survived = flips_rejected = 0
    for case in range(cases):
        data, loader = corpus[case % len(corpus)]
        if case < cases // 2:
            cut = int(fuzz_rng.integers(0, len(data)))
            target.write_bytes(data[:cut])
            with pytest.raises(LocoError):
                loader(target)
        else:
            buf = bytearray(data)
            pos = int(fuzz_rng.integers(0, len(buf)))
            buf[pos] ^= 1 << int(fuzz_rng.integers(0, 8))
            target.write_bytes(bytes(buf))
            try:
                loader(target)
            except LocoError:
                flips_rejected += 1
            else:
                flips_survived += 1
    # every outcome was either a clean parse or a typed refusal
    assert flips_survived + flips_rejected == cases - cases // 2
    print(f"bit flips: {flips_rejected} rejected with typed errors, "
          f"{flips_survived} parsed")

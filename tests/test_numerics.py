"""Layer math against independent oracles: hand-worked forward/optimizer
steps, textbook formulas matched bit for bit, and central-difference
gradients."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import loco_pda
from loco_pda.errors import (
    LabelError,
    NumericError,
    ShapeError,
    StateError,
)
from loco_pda.cvae import DEFAULT_DEC_WIDTHS, DEFAULT_ENC_WIDTHS, CvaeModel
from loco_pda.models import DEFAULT_FEATURE_WIDTHS, build_mlp
from loco_pda.numerics import (
    BLOCK_BYTES,
    Activation,
    Adam,
    DenseLayer,
    FlatParams,
    LrSchedule,
    SgdMomentum,
    derive_rng,
    mse_loss,
    one_hot,
    stack_backward,
    stack_forward,
    stage_key,
)

from helpers import gradcheck, make_rng, softmax_xent_loss


def test_one_hot_rows():
    oh = one_hot(np.array([2, 0, 1]), 3)
    np.testing.assert_array_equal(oh, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert oh.dtype == np.float32


def test_one_hot_rejects_out_of_range():
    with pytest.raises(LabelError):
        one_hot(np.array([0, 3]), 3)
    with pytest.raises(LabelError):
        one_hot(np.array([-1]), 3)


def test_dense_forward_by_hand():
    # out = x @ W.T + b, worked on paper for a 2x2 case
    layer = DenseLayer(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32),
                       np.array([0.5, -0.5], dtype=np.float32),
                       Activation.IDENTITY)
    out = layer.forward(np.array([[1.0, 1.0], [2.0, -1.0]], dtype=np.float32))
    np.testing.assert_allclose(out, [[3.5, 6.5], [0.5, 1.5]])


def test_dense_relu_clamps_and_masks_gradient():
    layer = DenseLayer(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32),
                       np.array([0.0, 0.0], dtype=np.float32),
                       Activation.RELU)
    out = layer.forward(np.array([[2.0, -3.0]], dtype=np.float32))
    np.testing.assert_allclose(out, [[2.0, 0.0]])
    grad_in, grad_w, grad_b = layer.backward(np.array([[1.0, 1.0]], dtype=np.float32))
    # the negative pre-activation unit passes no gradient anywhere
    np.testing.assert_allclose(grad_in, [[1.0, 0.0]])
    np.testing.assert_allclose(grad_b, [1.0, 0.0])
    np.testing.assert_allclose(grad_w, [[2.0, -3.0], [0.0, 0.0]])


def test_backward_before_forward_raises():
    layer = DenseLayer.create(make_rng(0), 3, 2, Activation.RELU)
    with pytest.raises(StateError):
        layer.backward(np.zeros((1, 2), dtype=np.float32))


def test_mse_loss_by_hand():
    pred = np.array([[1.0, 2.0], [3.0, 4.0]])
    target = np.array([[0.0, 0.0], [3.0, 2.0]])
    loss, grad = mse_loss(pred, target)
    # per-row sums (1+4) and (0+4), mean over the two rows
    assert loss == pytest.approx(4.5)
    np.testing.assert_allclose(grad, [[1.0, 2.0], [0.0, 2.0]])


def test_softmax_xent_uniform_logits():
    logits = np.zeros((4, 10))
    labels = np.arange(4)
    loss, grad = softmax_xent_loss(logits, labels)
    assert loss == pytest.approx(np.log(10.0), rel=1e-12)
    # each gradient row sums to zero by construction
    np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)


def _two_pass_softmax_xent(logits, labels):
    """The loss and the softmax each computed from their own shift and exp."""
    batch = logits.shape[0]
    rows = np.arange(batch)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(log_z - shifted[rows, labels]))
    shifted2 = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted2)
    grad = e / e.sum(axis=1, keepdims=True)
    grad[rows, labels] -= 1
    grad /= batch
    return loss, grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_softmax_xent_is_bitwise_two_pass(dtype):
    rng = make_rng(11)
    for batch, classes in [(1, 2), (7, 5), (64, 20), (37, 20), (128, 3)]:
        logits = (4.0 * rng.standard_normal((batch, classes))).astype(dtype)
        labels = rng.integers(0, classes, size=batch)
        loss, grad = softmax_xent_loss(logits, labels)
        want_loss, want_grad = _two_pass_softmax_xent(logits, labels)
        assert loss == want_loss
        assert _bits_equal(grad, want_grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sum_over_batch_rounds_like_mean(dtype):
    """The loss divides its sum by the batch size instead of calling np.mean,
    which divides in float64 and rounds back; both give the same bits."""
    rng = make_rng(12)
    for batch in list(range(1, 130)) + [1000, 3000]:
        for scale in (1e-3, 1.0, 3e2):
            v = (scale * rng.random(batch)).astype(dtype)
            assert float(v.sum() / batch) == float(np.mean(v))


def test_softmax_xent_label_range():
    with pytest.raises(LabelError):
        softmax_xent_loss(np.zeros((2, 3)), np.array([0, 3]))


def _layer_loss_fn(activation, x, target):
    """Adapter: params dict -> (loss, grads) through one dense layer + MSE."""

    def fn(params):
        layer = DenseLayer(params["w"], params["b"], activation)
        out = layer.forward(x)
        loss, grad_out = mse_loss(out, target)
        _, grad_w, grad_b = layer.backward(grad_out)
        return loss, {"w": grad_w, "b": grad_b}

    return fn


@pytest.mark.parametrize("activation", [Activation.IDENTITY, Activation.RELU])
def test_dense_gradients_finite_difference(activation, rng):
    x = rng.standard_normal((5, 4)).astype(np.float32)
    target = rng.standard_normal((5, 3)).astype(np.float32)
    layer = DenseLayer.create(make_rng(7), 4, 3, activation)
    params = {"w": layer.weight, "b": layer.bias}
    err = gradcheck(_layer_loss_fn(activation, x, target), params)
    assert err < 1e-4


def test_softmax_xent_gradients_finite_difference(rng):
    x = rng.standard_normal((6, 4)).astype(np.float32)
    labels = np.array([0, 1, 2, 0, 1, 2])

    def fn(params):
        layer = DenseLayer(params["w"], params["b"], Activation.IDENTITY)
        logits = layer.forward(x)
        loss, grad_logits = softmax_xent_loss(logits, labels)
        _, grad_w, grad_b = layer.backward(grad_logits)
        return loss, {"w": grad_w, "b": grad_b}

    layer = DenseLayer.create(make_rng(9), 4, 3, Activation.IDENTITY)
    err = gradcheck(fn, {"w": layer.weight, "b": layer.bias})
    assert err < 1e-4


def test_stack_backward_matches_finite_difference(rng):
    """Two chained layers checked as a unit, so the grad_in hand-off is covered."""
    x = rng.standard_normal((4, 3)).astype(np.float32)
    target = rng.standard_normal((4, 2)).astype(np.float32)
    l0 = DenseLayer.create(make_rng(1), 3, 5, Activation.RELU)
    l1 = DenseLayer.create(make_rng(2), 5, 2, Activation.IDENTITY)

    def fn(params):
        layers = [DenseLayer(params["w0"], params["b0"], Activation.RELU),
                  DenseLayer(params["w1"], params["b1"], Activation.IDENTITY)]
        out = stack_forward(layers, x)
        loss, grad_out = mse_loss(out, target)
        _, per_layer = stack_backward(layers, grad_out)
        return loss, {"w0": per_layer[0][0], "b0": per_layer[0][1],
                      "w1": per_layer[1][0], "b1": per_layer[1][1]}

    err = gradcheck(fn, {"w0": l0.weight, "b0": l0.bias,
                         "w1": l1.weight, "b1": l1.bias})
    assert err < 1e-3


def test_lr_schedule_step_decay():
    sched = LrSchedule(1e-3, step_epochs=30, gamma=0.1)
    assert sched.lr_at(0) == pytest.approx(1e-3)
    assert sched.lr_at(29) == pytest.approx(1e-3)
    assert sched.lr_at(30) == pytest.approx(1e-4)
    assert sched.lr_at(60) == pytest.approx(1e-5)


def test_lr_schedule_no_decay_when_disabled():
    sched = LrSchedule(0.5)
    assert sched.lr_at(0) == sched.lr_at(1000) == 0.5


def test_lr_schedule_rejects_nonpositive():
    for bad in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            LrSchedule(bad)


def test_adam_single_step_by_hand():
    # t=1: m-hat = g, v-hat = g^2, so the update is lr * g/(|g| + eps)
    param = np.array([1.0, -2.0])
    opt = Adam(LrSchedule(0.1))
    opt.step(param, np.array([0.5, -0.25]), epoch=0)
    np.testing.assert_allclose(param, [0.9, -1.9], atol=1e-7)


def test_sgd_momentum_two_steps_by_hand():
    param = np.array([1.0])
    opt = SgdMomentum(LrSchedule(0.1), momentum=0.9)
    opt.step(param, np.array([0.5]), epoch=0)
    np.testing.assert_allclose(param, [0.95])
    # velocity 0.5*0.9 + 0.5 = 0.95, step 0.095
    opt.step(param, np.array([0.5]), epoch=0)
    np.testing.assert_allclose(param, [0.855])


def test_optimizer_rejects_nonfinite_gradient():
    opt = SgdMomentum(LrSchedule(0.1))
    with pytest.raises(NumericError):
        opt.step(np.zeros(2), np.array([1.0, np.nan]), epoch=0)


def test_optimizer_rejects_shape_mismatch():
    opt = Adam(LrSchedule(0.1))
    with pytest.raises(ShapeError):
        opt.step(np.zeros(2), np.zeros(3), epoch=0)


def test_optimizer_rejects_backwards_epoch():
    opt = SgdMomentum(LrSchedule(0.1))
    opt.step(np.zeros(1), np.zeros(1), epoch=3)
    with pytest.raises(StateError):
        opt.step(np.zeros(1), np.zeros(1), epoch=2)


# --- in-place optimizers against the textbook out-of-place formulas ---


def _textbook_adam(param, grads, lrs, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as written before the in-place rewrite: no scratch, no flush.
    Returns the final parameter and first moment."""
    p, m, v = param.copy(), np.zeros_like(param), np.zeros_like(param)
    for t, (g, lr) in enumerate(zip(grads, lrs), start=1):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        b1c = 1.0 - beta1 ** t
        b2c = 1.0 - beta2 ** t
        update = lr * (m / b1c) / (np.sqrt(v / b2c) + eps)
        p -= update.astype(p.dtype, copy=False)
    return p, m


def _textbook_sgd(param, grads, lrs, momentum=0.9):
    p, vel = param.copy(), np.zeros_like(param)
    for g, lr in zip(grads, lrs):
        vel *= momentum
        vel += g
        p -= (lr * vel).astype(p.dtype, copy=False)
    return p


def _grad_stream(dtype, steps, shape=(16, 12), dead_after=None, seed=3):
    """Seeded gradients; with dead_after, the first two rows read 0 from that
    step on, like the weights of a ReLU unit that stopped firing."""
    rng = make_rng(seed)
    grads = [rng.standard_normal(shape).astype(dtype) for _ in range(steps)]
    if dead_after is not None:
        for g in grads[dead_after:]:
            g[:2] = 0
    return grads


def _run(opt, param, grads, epochs):
    param = param.copy()
    for g, epoch in zip(grads, epochs):
        opt.step(param, g, epoch)
    return param


def _bits_equal(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["adam", "sgd"])
def test_inplace_optimizer_is_bitwise_textbook(kind, dtype):
    sched = LrSchedule(1e-2, step_epochs=4, gamma=0.1)
    grads = _grad_stream(dtype, 24, dead_after=6)
    epochs = [i // 2 for i in range(24)]
    lrs = [sched.lr_at(e) for e in epochs]
    # small weights, so that one ulp of an update shows in the result
    param = (0.01 * make_rng(4).standard_normal((16, 12))).astype(dtype)
    if kind == "adam":
        got = _run(Adam(sched), param, grads, epochs)
        want, _ = _textbook_adam(param, grads, lrs)
    else:
        got = _run(SgdMomentum(sched, momentum=0.9), param, grads, epochs)
        want = _textbook_sgd(param, grads, lrs)
    assert _bits_equal(got, want)
    assert not np.array_equal(got, param)


def test_adam_subnormal_flush_keeps_parameters_bitwise():
    """900 steps with zero gradient on two rows drive their first moment deep
    into the float32 subnormal range in the textbook formula; the in-place
    Adam zeroes those entries and must still land on the same bits."""
    steps = 900
    grads = _grad_stream(np.float32, steps, dead_after=1)
    param = (0.01 * make_rng(5).standard_normal((16, 12))).astype(np.float32)
    got = _run(Adam(LrSchedule(1e-3)), param, grads, [0] * steps)
    want, textbook_m = _textbook_adam(param, grads, [1e-3] * steps)
    tiny = np.finfo(np.float32).tiny
    dead_m = np.abs(textbook_m[:2])
    assert ((dead_m > 0) & (dead_m < tiny)).all()   # the case under test
    assert _bits_equal(got, want)


def test_flat_params_step_matches_per_array_step():
    """One optimizer over the flat vector lands on the same bits as one
    optimizer per weight and bias, and each layer is rebound to its views."""
    rng = make_rng(6)
    layers = [DenseLayer(rng.standard_normal((3, 4)).astype(np.float32),
                         rng.standard_normal(3).astype(np.float32), Activation.RELU),
              DenseLayer(rng.standard_normal((2, 3)).astype(np.float32),
                         rng.standard_normal(2).astype(np.float32), Activation.IDENTITY)]
    arrays = [p.copy() for layer in layers for p in (layer.weight, layer.bias)]
    grads = [[rng.standard_normal(p.shape).astype(np.float32) for p in arrays]
             for _ in range(5)]
    opts = [Adam(LrSchedule(1e-2)) for _ in arrays]
    for g in grads:
        for opt, p, gp in zip(opts, arrays, g):
            opt.step(p, gp, epoch=0)
    flat = FlatParams(layers)
    opt = Adam(LrSchedule(1e-2))
    for g in grads:
        for view, gp in zip((v for pair in flat.grads for v in pair), g):
            view[...] = gp
        flat.step(opt, epoch=0)
    copies = flat.unflatten(flat.value.copy())
    for i, layer in enumerate(layers):
        for part, (got, want) in enumerate(zip((layer.weight, layer.bias), arrays[2 * i:])):
            assert np.shares_memory(got, flat.value)
            assert _bits_equal(got, want)
            assert _bits_equal(copies[i][part], want)


def test_flat_params_names_the_nonfinite_parameter():
    layers = [DenseLayer(np.zeros((2, 2), dtype=np.float32), np.zeros(2, dtype=np.float32),
                         Activation.RELU) for _ in range(2)]
    flat = FlatParams(layers)
    flat.grad[...] = 0
    flat.grads[1][1][...] = [0.0, np.inf]
    with pytest.raises(NumericError, match="layer 1 bias"):
        flat.step(SgdMomentum(LrSchedule(0.1)), epoch=0)
    flat.grads[0][0][0, 1] = np.nan
    with pytest.raises(NumericError, match="layer 0 weight"):
        flat.step(SgdMomentum(LrSchedule(0.1)), epoch=0)


# --- skipped input gradients ---


@pytest.mark.parametrize("activation", [Activation.IDENTITY, Activation.RELU])
def test_backward_without_input_grad(activation, rng):
    layer = DenseLayer.create(make_rng(8), 4, 3, activation)
    x = rng.standard_normal((5, 4)).astype(np.float32)
    grad_out = rng.standard_normal((5, 3)).astype(np.float32)
    layer.forward(x)
    full = layer.backward(grad_out)
    layer.forward(x)
    grad_in, grad_w, grad_b = layer.backward(grad_out, need_input_grad=False)
    assert grad_in is None and full[0] is not None
    assert _bits_equal(grad_w, full[1])
    assert _bits_equal(grad_b, full[2])


@pytest.mark.parametrize("activation", [Activation.IDENTITY, Activation.RELU])
def test_backward_into_caller_views_writes_the_same_bits(activation, rng):
    layer = DenseLayer.create(make_rng(8), 6, 5, activation)
    x = rng.standard_normal((9, 6)).astype(np.float32)
    grad_out = rng.standard_normal((9, 5)).astype(np.float32)
    layer.forward(x)
    want = layer.backward(grad_out)
    flat = FlatParams([layer])
    views = flat.grads[0]
    layer.forward(x)
    got = layer.backward(grad_out, out=views)
    assert got[1] is views[0] and got[2] is views[1]
    for g, w in zip(got, want):
        assert _bits_equal(g, w)


def test_stack_backward_skips_only_the_first_input_grad(rng):
    layers = [DenseLayer.create(make_rng(i), d_in, d_out, act)
              for i, (d_in, d_out, act) in enumerate(
                  [(4, 6, Activation.RELU), (6, 5, Activation.RELU),
                   (5, 2, Activation.IDENTITY)])]
    x = rng.standard_normal((7, 4)).astype(np.float32)
    grad_out = rng.standard_normal((7, 2)).astype(np.float32)
    stack_forward(layers, x)
    full_in, full = stack_backward(layers, grad_out)
    asked = []
    for i, layer in enumerate(layers):
        def spy(grad, need_input_grad=True, out=None, i=i, inner=layer.backward):
            asked.append((i, need_input_grad))
            return inner(grad, need_input_grad, out)
        layer.backward = spy
    stack_forward(layers, x)
    grad_in, per_layer = stack_backward(layers, grad_out, need_input_grad=False)
    assert grad_in is None and full_in.shape == x.shape
    assert sorted(asked) == [(0, False), (1, True), (2, True)]
    for (gw, gb), (fw, fb) in zip(per_layer, full):
        assert _bits_equal(gw, fw) and _bits_equal(gb, fb)


def test_forward_without_keep_leaves_nothing_for_backward(rng):
    layer = DenseLayer.create(make_rng(0), 3, 2, Activation.RELU)
    x = rng.standard_normal((4, 3)).astype(np.float32)
    out = layer.forward(x, keep=False)
    np.testing.assert_array_equal(out, np.maximum(x @ layer.weight.T + layer.bias, 0))
    with pytest.raises(StateError):
        layer.backward(np.zeros((4, 2), dtype=np.float32))
    layer.forward(x)
    layer.backward(np.zeros((4, 2), dtype=np.float32))
    with pytest.raises(StateError):  # the cache went with the first backward
        layer.backward(np.zeros((4, 2), dtype=np.float32))


def _one_shot_forward(layers, x):
    for layer in layers:
        x = layer.forward(x, keep=False)
    return x


# CVAE widths over 16-wide activations and 20 classes: the defaults (encoder
# 36->256->128->64->32, decoder 36->512->16), and the wider encoder they
# replaced (36->1024->128->64->32), so both shapes stay covered
CVAE_WIDTHS = {"default": (DEFAULT_ENC_WIDTHS, DEFAULT_DEC_WIDTHS),
               "wide": ((1024, 128, 64), (512,))}


def _cvae_stacks(widths="default"):
    """Encoder and decoder of a CVAE at CVAE_WIDTHS[widths], with nonzero biases."""
    rng = derive_rng(14, 1)
    enc_widths, dec_widths = CVAE_WIDTHS[widths]
    model = CvaeModel.create(rng, 16, 20, enc_widths=enc_widths, dec_widths=dec_widths)
    for layer in model.encoder + model.decoder:
        layer.bias[:] = rng.standard_normal(layer.bias.shape).astype(np.float32)
    return {"encoder": model.encoder, "decoder": model.decoder}


@pytest.mark.parametrize("widths, stack, block", [
    ("default", "encoder", 1024), ("default", "decoder", 512),
    ("wide", "encoder", 256), ("wide", "decoder", 512),
])
def test_blocked_inference_forward_is_bitwise_one_shot(widths, stack, block):
    """An inference forward of at least two blocks runs in near-equal row
    blocks, none shorter than a block; every row count here gives the bits
    of a one-shot forward. A BLAS build that rounds a product differently by
    its row count fails this test."""
    layers = _cvae_stacks(widths)[stack]
    widest = max(layer.out_dim for layer in layers)
    assert BLOCK_BYTES // (4 * widest) == block
    rng = derive_rng(14, 2)
    for rows in (block - 1, block, block + 1, 2 * block - 1, 2 * block, 3 * block - 1,
                 3000, 3400, 4000, 5000):
        x = rng.standard_normal((rows, layers[0].in_dim)).astype(np.float32)
        got = stack_forward(layers, x, keep=False)
        want = _one_shot_forward(layers, x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), f"{widths} {stack}, {rows} rows"


def test_blocked_forward_counts_one_call_per_layer_and_block(monkeypatch):
    calls = []
    forward = DenseLayer.forward

    def counted(self, x, keep=True):
        calls.append(x.shape[0])
        return forward(self, x, keep)

    monkeypatch.setattr(DenseLayer, "forward", counted)
    encoder = _cvae_stacks()["encoder"]
    x = np.zeros((4000, 36), dtype=np.float32)
    stack_forward(encoder, x, keep=False)
    # 4,000 rows over 4000 // 1024 = 3 near-equal blocks
    blocks = [1333, 1333, 1334]
    assert sum(blocks) == 4000
    assert calls == [rows for rows in blocks for _ in encoder]
    calls.clear()
    # a default classifier's widest layer is 64 wide, so 4,000 rows are far
    # below two blocks and run one-shot: one forward call per layer
    mlp = build_mlp(derive_rng(14, 3), 32, DEFAULT_FEATURE_WIDTHS, 20)
    mlp.forward(np.zeros((4000, 32), dtype=np.float32))
    assert calls == [4000] * len(mlp.layers)


def test_derive_rng_streams_are_stable_and_distinct():
    a = derive_rng(0, 1).standard_normal(4)
    b = derive_rng(0, 1).standard_normal(4)
    c = derive_rng(0, 2).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stage_keys_of_the_source_are_distinct():
    """stage_key reads only a tag's first 8 bytes, so two tags that share
    them share a stream: stage_key("baseline-rows") == stage_key("baseline-xyz").
    Every tag the package uses must map to its own key."""
    src = Path(loco_pda.__file__).parent
    tags = set()
    for path in sorted(src.glob("*.py")):
        tags |= set(re.findall(r'stage_key\("([^"]*)"\)', path.read_text(encoding="utf-8")))
    assert len(tags) >= 13
    keys = {stage_key(tag): tag for tag in tags}
    assert len(keys) == len(tags), sorted(tags - set(keys.values()))


def test_the_package_imports_only_the_stdlib_and_numpy():
    """No runtime dependency beyond numpy: every top-level module that a
    package module imports is in the standard library, numpy, or the package."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "loco_pda"}
    imported = set()
    for path in sorted(Path(loco_pda.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "numpy" in imported
    assert imported <= allowed, sorted(imported - allowed)

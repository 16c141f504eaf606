"""Helpers that only the tests use: a seeded RNG, a checked softmax
cross-entropy, a finite-difference gradient checker and the layer-keyed
parameters it reads, Spearman rank correlation, a one-class distribution and
a version-1 model file."""

from __future__ import annotations

import struct

import numpy as np

from loco_pda import formats
from loco_pda.adaptation import ClassDistribution
from loco_pda.errors import LabelError, ShapeError
from loco_pda.numerics import softmax_xent


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def softmax_xent_loss(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log-softmax of the true class. Returns (loss, grad_logits)."""
    labels = np.asarray(labels)
    batch, num_classes = logits.shape
    if labels.shape != (batch,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {batch}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise LabelError(f"label out of range [0, {num_classes})")
    loss, grad, _ = softmax_xent(logits, labels)
    return float(loss), grad


def gradcheck(loss_fn, params: dict[str, np.ndarray], h: float = 1e-3,
              max_entries: int = 64, seed: int = 0) -> float:
    """Worst relative error between analytic and central-difference gradients.

    loss_fn(params) must return (loss, grads) for float64 parameter dicts; the
    float32 inputs are upcast here so finite-difference noise stays far below
    the tolerances being checked. Parameters larger than max_entries are
    spot-checked on a seeded sample of coordinates.
    """
    params64 = {k: np.asarray(v, dtype=np.float64).copy() for k, v in params.items()}
    _, analytic = loss_fn(params64)
    rng = make_rng(seed)
    worst = 0.0
    for name, base in params64.items():
        flat = base.reshape(-1)
        n = flat.size
        if n <= max_entries:
            idx = np.arange(n)
        else:
            idx = rng.choice(n, size=max_entries, replace=False)
        grad_flat = np.asarray(analytic[name], dtype=np.float64).reshape(-1)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            up, _ = loss_fn(params64)
            flat[i] = orig - h
            down, _ = loss_fn(params64)
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            a = grad_flat[i]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst


def layer_params(model) -> dict[str, np.ndarray]:
    """A model's weights and biases keyed by their index in model.layers:
    "0.w", "0.b", "1.w", ..."""
    return {f"{i}.{part}": p for i, layer in enumerate(model.layers)
            for part, p in (("w", layer.weight), ("b", layer.bias))}


def set_cvae_params(model, params: dict[str, np.ndarray]) -> None:
    """Rebind a CVAE's layers to the arrays of a dict keyed like
    layer_params, e.g. gradcheck's float64 copies."""
    for i, layer in enumerate(model.layers):
        layer.weight, layer.bias = params[f"{i}.w"], params[f"{i}.b"]


def named_grads(model, grads) -> dict[str, np.ndarray]:
    """loss_and_grads' per-layer (grad_w, grad_b) pairs, encoder first, keyed
    like layer_params."""
    return dict(zip(layer_params(model), (g for pair in grads for g in pair)))


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


def point_mass(cls_index: int, num_classes: int) -> ClassDistribution:
    probs = np.zeros(num_classes)
    probs[cls_index] = 1.0
    return ClassDistribution(probs)


def mlp_v1_bytes(model) -> bytes:
    """The version-1 file an earlier release wrote for an MLP: the layers, then
    a footer repeating their shapes (classes, activation dim, a zero latent dim,
    the prune fraction, the classifier's index)."""
    v2 = formats.model_bytes(formats.KIND_MLP, model.layers, model.prune_fraction)
    footer = struct.pack("<IIIfI", model.num_classes, model.activation_dim, 0,
                         model.prune_fraction, len(model.layers) - 1)
    return v2[:4] + struct.pack("<I", 1) + v2[8:-4] + footer

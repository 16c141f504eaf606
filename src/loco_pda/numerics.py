"""Dense neural-network substrate: matrices, layers, losses, optimizers.

Everything trains in float32 with hand-derived gradients; there is no autodiff
graph. A training forward caches each layer's input and output until the
following backward call.
"""

from __future__ import annotations

import math
from enum import IntEnum

import numpy as np

from .errors import LabelError, NumericError, ShapeError, StateError

F32 = np.float32

# ---------------------------------------------------------------------------
# RNG
# ---------------------------------------------------------------------------
# PCG64 is the one generator used across the repo: documented, counter-style
# jumps, identical stream for a given seed on every platform numpy supports.


def derive_rng(seed: int, *keys: int) -> np.random.Generator:
    """Independent stream for (seed, keys). Same tuple, same stream."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *keys])))


_STAGE_TAGS = {}


def stage_key(tag: str) -> int:
    """Stable integer key for a named pipeline stage, usable with derive_rng."""
    if tag not in _STAGE_TAGS:
        _STAGE_TAGS[tag] = int.from_bytes(tag.encode("utf-8")[:8].ljust(8, b"\0"), "little")
    return _STAGE_TAGS[tag]


# ---------------------------------------------------------------------------
# Matrix helpers
# ---------------------------------------------------------------------------
# A "matrix" is a dense 2-D array, float32 in production paths. Ops preserve
# the input dtype so the gradient checker can push float64 through the same
# code.


def check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {name}")
    return arr


def one_hot(labels: np.ndarray, num_classes: int, dtype=F32) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise LabelError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    out = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1
    return out


# ---------------------------------------------------------------------------
# Dense layer
# ---------------------------------------------------------------------------


class Activation(IntEnum):
    IDENTITY = 0
    RELU = 1


class DenseLayer:
    """Fully connected layer: out = act(x @ W.T + b).

    weight is [out_dim x in_dim], bias is [out_dim]. An optional leading stack
    axis, weight [K x out_dim x in_dim] and bias [K x out_dim], holds K layers
    of one shape that train in lockstep: each maps its own slice of a
    [K x batch x in_dim] input, or all map one shared [batch x in_dim] input.
    forward can cache its input and output for one following backward call,
    which consumes them.
    """

    def __init__(self, weight: np.ndarray, bias: np.ndarray, activation: Activation):
        weight = np.asarray(weight)
        bias = np.asarray(bias)
        if weight.ndim not in (2, 3) or bias.shape != weight.shape[:-1]:
            raise ShapeError(
                f"inconsistent layer shapes: weight {weight.shape}, bias {bias.shape}"
            )
        self.weight = weight
        self.bias = bias
        self.activation = Activation(activation)
        self._x = self._out = None

    @classmethod
    def create(cls, rng: np.random.Generator, in_dim: int, out_dim: int,
               activation: Activation) -> "DenseLayer":
        # Kaiming-uniform (fan-in) for ReLU, Xavier-uniform for identity output
        # layers; biases start at zero.
        if activation == Activation.RELU:
            limit = math.sqrt(6.0 / in_dim)
        else:
            limit = math.sqrt(6.0 / (in_dim + out_dim))
        weight = rng.uniform(-limit, limit, size=(out_dim, in_dim)).astype(F32)
        bias = np.zeros(out_dim, dtype=F32)
        return cls(weight, bias, activation)

    @property
    def in_dim(self) -> int:
        return self.weight.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[-2]

    def forward(self, x: np.ndarray, keep: bool = True) -> np.ndarray:
        """keep caches x and the output for backward: modify neither until then."""
        if x.ndim < 2 or x.shape[-1] != self.in_dim or x.shape[:-2] not in (
                (), self.weight.shape[:-2]):
            raise ShapeError(f"layer expects [batch x {self.in_dim}], got {x.shape}")
        out = x @ self.weight.mT  # bias and ReLU go in place: one batch-sized array
        out += self.bias[..., None, :]
        if self.activation == Activation.RELU:
            np.maximum(out, 0, out=out)
        if keep:
            self._x, self._out = x, out
        return out

    def backward(self, grad_out: np.ndarray, need_input_grad: bool = True, out=None):
        """Gradients of the cached forward, whose cache this call releases.
        Returns (grad_in, grad_w, grad_b); grad_in is None unless
        need_input_grad. out, a caller-owned (grad_w, grad_b) pair such as
        views into a FlatParams gradient buffer, receives those two."""
        x, y = self._x, self._out
        if x is None:
            raise StateError("backward called before forward")
        if grad_out.shape != y.shape:
            raise ShapeError(
                f"grad_out shape {grad_out.shape} does not match cached forward {y.shape}"
            )
        self._x = self._out = None
        if self.activation == Activation.RELU:
            # y > 0 exactly where the pre-activation is; subgradient at 0 is 0
            grad_out = grad_out * (y > 0)
        gw, gb = (None, None) if out is None else out
        grad_w = np.matmul(grad_out.mT, x, out=gw)
        grad_b = grad_out.sum(axis=-2, out=gb)
        grad_in = grad_out @ self.weight if need_input_grad else None
        return grad_in, grad_w, grad_b


# An inference forward runs its rows in blocks, each block's widest layer
# output within this many bytes, so no batch-sized hidden activation is held.
BLOCK_BYTES = 1 << 20


def stack_forward(layers: list[DenseLayer], x: np.ndarray, keep: bool = True) -> np.ndarray:
    """Forward through a layer stack; keep caches every layer for backward.

    Without keep, an input of at least two blocks runs block by block into one
    output: n rows split into n // block near-equal blocks. None is shorter
    than a block, because a short block can take another BLAS kernel and
    round differently; with every block at least a block's rows, the output
    has the bits of a one-shot forward (a test checks this against the BLAS
    in use). None is longer than 1.5 blocks."""
    if not keep and layers:
        n = x.shape[-2]
        block = BLOCK_BYTES // (x.itemsize * max(layer.out_dim for layer in layers))
        if n >= 2 * block:
            return _blocked_forward(layers, x, block)
    for layer in layers:
        x = layer.forward(x, keep)
    return x


def _blocked_forward(layers: list[DenseLayer], x: np.ndarray, block: int) -> np.ndarray:
    n = x.shape[-2]
    count = n // block
    bounds = [n * i // count for i in range(count + 1)]
    out = None
    for start, end in zip(bounds, bounds[1:]):
        y = x[..., start:end, :]
        for layer in layers:
            y = layer.forward(y, keep=False)
        if out is None:
            out = np.empty(y.shape[:-2] + (n, y.shape[-1]), dtype=y.dtype)
        out[..., start:end, :] = y
    return out


def stack_backward(layers: list[DenseLayer], grad_out: np.ndarray,
                   need_input_grad: bool = True, out=None):
    """Backprop through a layer stack. Returns (grad_in, [(grad_w, grad_b), ...]);
    without need_input_grad, grad_in is None and layer 0 skips that product.
    out, a list of per-layer (grad_w, grad_b) pairs, receives the gradients."""
    per_layer = [None] * len(layers)
    grad = grad_out
    for i in reversed(range(len(layers))):
        grad, gw, gb = layers[i].backward(grad, need_input_grad or i > 0,
                                          out=None if out is None else out[i])
        per_layer[i] = (gw, gb)
    return grad, per_layer


def stack_params(layers: list[DenseLayer], prefix: str = "layer") -> dict[str, np.ndarray]:
    out = {}
    for i, layer in enumerate(layers):
        out[f"{prefix}{i}.w"] = layer.weight
        out[f"{prefix}{i}.b"] = layer.bias
    return out


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def mse_loss(pred: np.ndarray, target: np.ndarray):
    """Sum over dimensions, mean over batch. Returns (loss, grad_pred)."""
    if pred.shape != target.shape:
        raise ShapeError(f"mse shapes differ: {pred.shape} vs {target.shape}")
    diff = pred - target
    batch = pred.shape[0]
    loss = float(np.sum(diff * diff) / batch)
    grad = (2.0 / batch) * diff
    return loss, grad


def softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log-softmax of the true class, on labels the caller has
    checked, plus each row's argmax. Returns (loss, grad_logits, argmax).

    The argmax also gives the row maximum that the exp is shifted by (a
    maximum is exact however it is found), and one exp and one row sum serve
    both the loss and the gradient. logits may carry a leading stack axis,
    [K x batch x classes] with labels [K x batch]; the loss, a float32 array,
    then holds one mean per run."""
    batch, classes = logits.shape[-2:]
    # flat offsets of each row's first entry: entries are read and written
    # by 1-D take and put, not by a [rows, labels] fancy index
    rows = np.arange(0, logits.size, classes).reshape(labels.shape)
    top = logits.argmax(axis=-1)
    shifted = logits - logits.take(rows + top)[..., None]
    e = np.exp(shifted)
    z = e.sum(axis=-1, keepdims=True)
    rows += labels
    # a float sum / batch rounds like np.mean, which divides in float64
    loss = (np.log(z[..., 0]) - shifted.take(rows)).sum(axis=-1) / batch
    e /= z  # the softmax, turned in place into the gradient
    e.put(rows, e.take(rows) - 1)
    e /= batch
    return loss, e, top


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


class LrSchedule:
    """Step decay: lr(epoch) = base * gamma^(epoch // step_epochs).

    step_epochs == 0 disables the decay.
    """

    def __init__(self, base_lr: float, step_epochs: int = 0, gamma: float = 1.0):
        if not 0 < base_lr < math.inf:
            raise ValueError(f"learning rate must be positive and finite, got {base_lr}")
        self.base_lr = float(base_lr)
        self.step_epochs = int(step_epochs)
        self.gamma = float(gamma)

    def lr_at(self, epoch: int) -> float:
        if self.step_epochs <= 0:
            return self.base_lr
        return self.base_lr * self.gamma ** (epoch // self.step_epochs)


class FlatParams:
    """The weights and biases of a layer list copied into one vector, value,
    with each layer rebound to its views of it, plus a gradient buffer of the
    same layout whose per-layer (grad_w, grad_b) views are grads, so that an
    optimizer steps every parameter in one pass."""

    def __init__(self, layers: list[DenseLayer]):
        params = [p for layer in layers for p in (layer.weight, layer.bias)]
        self._shapes = [p.shape for p in params]
        self.value = np.concatenate([p.reshape(-1) for p in params])
        self.grad = np.empty_like(self.value)
        for layer, (w, b) in zip(layers, self.unflatten(self.value)):
            layer.weight, layer.bias = w, b
        self.grads = self.unflatten(self.grad)

    def unflatten(self, vector: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (weight, bias) views of a vector laid out like value, e.g.
        a copy of it."""
        ends = np.cumsum([math.prod(shape) for shape in self._shapes])
        views = [part.reshape(shape)
                 for part, shape in zip(np.split(vector, ends[:-1]), self._shapes)]
        return list(zip(views[::2], views[1::2]))

    def step(self, optimizer: "_Optimizer", epoch: int) -> None:
        """Step value by grad, which the caller filled through grads."""
        try:
            optimizer.step(self.value, self.grad, epoch)
        except NumericError:  # the optimizer saw a non-finite gradient; name it
            i, part = next((i, part) for i, pair in enumerate(self.grads)
                           for part, g in zip(("weight", "bias"), pair)
                           if not np.all(np.isfinite(g)))
            raise NumericError(f"non-finite gradient in layer {i} {part}") from None


class _Optimizer:
    """Updates one parameter array in place, with state and scratch buffers
    made on the first step; every float rounds as in the textbook out-of-place
    formula."""

    def __init__(self, schedule: LrSchedule):
        self.schedule = schedule
        self._last_epoch = -1
        self._buffers = None

    def _prepare(self, param, grad, epoch, zeroed: int, scratch: int) -> list[np.ndarray]:
        """Validate one step's arguments; returns the state and scratch buffers."""
        if epoch < self._last_epoch:
            raise StateError(f"epoch went backwards: {epoch} < {self._last_epoch}")
        self._last_epoch = epoch
        if param.shape != grad.shape:
            raise ShapeError(f"gradient shape {grad.shape} does not match parameter "
                             f"{param.shape}")
        if not np.isfinite(grad).all():
            raise NumericError("non-finite gradient")
        if self._buffers is None:
            self._buffers = ([np.zeros_like(param) for _ in range(zeroed)]
                             + [np.empty_like(param) for _ in range(scratch)])
        return self._buffers


class SgdMomentum(_Optimizer):
    def __init__(self, schedule: LrSchedule, momentum: float = 0.9):
        super().__init__(schedule)
        self.momentum = float(momentum)

    def step(self, param: np.ndarray, grad: np.ndarray, epoch: int) -> None:
        vel, update = self._prepare(param, grad, epoch, zeroed=1, scratch=1)
        lr = self.schedule.lr_at(epoch)
        vel *= self.momentum
        vel += grad
        param -= np.multiply(vel, lr, out=update)


class Adam(_Optimizer):
    def __init__(self, schedule: LrSchedule, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        super().__init__(schedule)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._t = 0

    def step(self, param: np.ndarray, grad: np.ndarray, epoch: int) -> None:
        m, v, s, u = self._prepare(param, grad, epoch, zeroed=2, scratch=2)
        lr = self.schedule.lr_at(epoch)
        self._t += 1
        b1c = 1.0 - self.beta1 ** self._t
        b2c = 1.0 - self.beta2 ** self._t
        m *= self.beta1
        # m of a parameter whose gradient stays 0 (a dead ReLU unit) decays
        # into subnormals, which x86 handles several times slower; zero it
        # there. Its update was already far below one ulp of the parameter.
        m *= np.greater_equal(np.abs(m, out=s), np.finfo(m.dtype).tiny, out=u)
        m += np.multiply(grad, 1.0 - self.beta1, out=s)
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=s)
        v += np.multiply(s, grad, out=s)
        # update = lr * (m / b1c) / (sqrt(v / b2c) + eps)
        np.multiply(np.divide(m, b1c, out=s), lr, out=s)
        np.sqrt(np.divide(v, b2c, out=u), out=u)
        u += self.eps
        s /= u
        param -= s

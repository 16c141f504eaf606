"""Class-conditional variational autoencoder over activation rows.

The encoder maps (activation, one-hot label) to the mean and log-variance of
a diagonal Gaussian over latents; the decoder maps (latent, one-hot label)
back to an activation row. Training minimizes reconstruction MSE plus an
annealed beta times the closed-form KL to a standard normal. Setting
num_classes to 0 removes the conditioning entirely, which is how the
per-class baseline packs are built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, LabelError, ShapeError
from .models import ActivationBatch
from .numerics import (
    F32,
    Activation,
    Adam,
    DenseLayer,
    FlatParams,
    LrSchedule,
    check_finite,
    derive_rng,
    mse_loss,
    one_hot,
    set_stack_params,
    stack_backward,
    stack_forward,
    stack_pairs,
    stack_params,
    stage_key,
)


def kl_diag_gauss(mu: np.ndarray, logvar: np.ndarray):
    """KL(N(mu, e^logvar) || N(0, I)), summed over dims, mean over batch.

    Closed form per dimension: 0.5 * (mu^2 + sigma^2 - log sigma^2 - 1).
    Returns (kl, grad_mu, grad_logvar).
    """
    if mu.shape != logvar.shape or mu.ndim != 2:
        raise ShapeError(f"mu/logvar shapes differ or not 2-D: {mu.shape} vs {logvar.shape}")
    check_finite("kl inputs", mu)
    check_finite("kl inputs", logvar)
    batch = mu.shape[0]
    var = np.exp(logvar)
    kl = float(0.5 * np.sum(mu * mu + var - logvar - 1.0) / batch)
    grad_mu = mu / batch
    grad_logvar = 0.5 * (var - 1.0) / batch
    return kl, grad_mu, grad_logvar


def reparameterize(mu: np.ndarray, logvar: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """z = mu + exp(logvar / 2) * noise, with noise supplied by the caller."""
    if noise.shape != mu.shape:
        raise ShapeError(f"noise shape {noise.shape} does not match {mu.shape}")
    return mu + np.exp(0.5 * logvar) * noise


@dataclass(frozen=True)
class BetaSchedule:
    """Staircase annealing: start + step per every_epochs, clipped at max_value."""

    start: float = 0.0
    step: float = 0.1
    every_epochs: int = 3
    max_value: float = 1.0

    def __post_init__(self):
        if self.every_epochs <= 0:
            raise ValueError("every_epochs must be >= 1")
        if self.max_value < self.start:
            raise ValueError("max_value below start")

    def at(self, epoch: int) -> float:
        return min(self.max_value, self.start + self.step * (epoch // self.every_epochs))


DEFAULT_ENC_WIDTHS = (1024, 128, 64)
DEFAULT_DEC_WIDTHS = (512,)
DEFAULT_Z_DIM = 16
UNCOND_ENC_WIDTHS = (128, 64)
UNCOND_DEC_WIDTHS = (64,)
UNCOND_Z_DIM = 2

# Init gain on the one-hot input columns of encoder and decoder. The class
# input has unit scale while activation rows are an order of magnitude wider,
# so at standard init the class channel is nearly silent and training routes
# class identity through the latent instead; prior samples then miss the class
# structure entirely. Boosting the class columns makes conditioning the path
# of least resistance from the first step. Gains 20-50 behave the same; 10 is
# too weak.
CLASS_INPUT_GAIN = 30.0


class CvaeModel:
    """Encoder/decoder pair; num_classes == 0 means no conditioning input."""

    def __init__(self, encoder: list[DenseLayer], decoder: list[DenseLayer],
                 a_dim: int, num_classes: int, z_dim: int):
        if encoder[0].in_dim != a_dim + num_classes:
            raise ShapeError(
                f"encoder input {encoder[0].in_dim} != activation {a_dim} + classes {num_classes}"
            )
        if encoder[-1].out_dim != 2 * z_dim:
            raise ShapeError(f"encoder output {encoder[-1].out_dim} != 2 * z_dim {z_dim}")
        if decoder[0].in_dim != z_dim + num_classes:
            raise ShapeError(
                f"decoder input {decoder[0].in_dim} != z_dim {z_dim} + classes {num_classes}"
            )
        if decoder[-1].out_dim != a_dim:
            raise ShapeError(f"decoder output {decoder[-1].out_dim} != activation dim {a_dim}")
        self.encoder = encoder
        self.decoder = decoder
        self.a_dim = a_dim
        self.num_classes = num_classes
        self.z_dim = z_dim

    @classmethod
    def create(cls, rng: np.random.Generator, a_dim: int, num_classes: int,
               z_dim: int = DEFAULT_Z_DIM,
               enc_widths: tuple[int, ...] = DEFAULT_ENC_WIDTHS,
               dec_widths: tuple[int, ...] = DEFAULT_DEC_WIDTHS) -> "CvaeModel":
        encoder = []
        in_dim = a_dim + num_classes
        for w in enc_widths:
            encoder.append(DenseLayer.create(rng, in_dim, w, Activation.RELU))
            in_dim = w
        head = DenseLayer.create(rng, in_dim, 2 * z_dim, Activation.IDENTITY)
        # Start the latent head near zero: mu ~ 0 and log-variance ~ 0 make early
        # z draws pure N(0, I) noise, so the decoder has to lean on the class
        # input before the latent channel gains signal. Required together with
        # CLASS_INPUT_GAIN; with a full-scale head the boosted columns blow up
        # the early latents instead.
        head.weight *= F32(0.01)
        encoder.append(head)
        if num_classes > 0:
            encoder[0].weight[:, a_dim:] *= F32(CLASS_INPUT_GAIN)
        decoder = []
        in_dim = z_dim + num_classes
        for w in dec_widths:
            decoder.append(DenseLayer.create(rng, in_dim, w, Activation.RELU))
            in_dim = w
        decoder.append(DenseLayer.create(rng, in_dim, a_dim, Activation.IDENTITY))
        if num_classes > 0:
            decoder[0].weight[:, z_dim:] *= F32(CLASS_INPUT_GAIN)
        return cls(encoder, decoder, a_dim, num_classes, z_dim)

    def named_params(self) -> dict[str, np.ndarray]:
        params = stack_params(self.encoder, prefix="enc")
        params.update(stack_params(self.decoder, prefix="dec"))
        return params

    def set_params(self, params: dict[str, np.ndarray]) -> None:
        set_stack_params(self.encoder, params, prefix="enc")
        set_stack_params(self.decoder, params, prefix="dec")

    def _condition(self, rows: np.ndarray, onehot: np.ndarray) -> np.ndarray:
        if self.num_classes == 0:
            return rows
        return np.concatenate([rows, onehot], axis=1)

    def encode(self, acts: np.ndarray, onehot: np.ndarray, keep: bool = False):
        enc_out = stack_forward(self.encoder, self._condition(acts, onehot), keep)
        return enc_out[:, : self.z_dim], enc_out[:, self.z_dim:]

    def decode(self, z: np.ndarray, onehot: np.ndarray, keep: bool = False) -> np.ndarray:
        return stack_forward(self.decoder, self._condition(z, onehot), keep)

    def loss_and_grads(self, acts: np.ndarray, onehot: np.ndarray,
                       noise: np.ndarray, beta: float, grads=None):
        """One full forward/backward pass.

        Returns (loss, grads, recon_loss, kl), with the gradients written into
        grads (keyed like named_params, e.g. FlatParams.grad_views) or into new
        arrays. The latent path carries both the reconstruction gradient
        (through z = mu + sigma * noise, so the log-variance picks up
        0.5 * sigma * noise) and beta times the KL gradient.
        """
        if grads is None:
            grads = {name: np.empty_like(p) for name, p in self.named_params().items()}
        mu, logvar = self.encode(acts, onehot, keep=True)
        sigma = np.exp(0.5 * logvar)
        z = mu + sigma * noise
        recon = self.decode(z, onehot, keep=True)
        recon_loss, grad_recon = mse_loss(recon, acts)
        kl, gmu_kl, glv_kl = kl_diag_gauss(mu, logvar)
        loss = recon_loss + beta * kl
        grad_dec_in, _ = stack_backward(self.decoder, grad_recon,
                                        out=stack_pairs(grads, len(self.decoder), "dec"))
        grad_z = grad_dec_in[:, : self.z_dim]
        grad_mu = grad_z + beta * gmu_kl
        grad_logvar = grad_z * (0.5 * sigma * noise) + beta * glv_kl
        grad_enc_out = np.concatenate([grad_mu, grad_logvar], axis=1)
        stack_backward(self.encoder, grad_enc_out, need_input_grad=False,
                       out=stack_pairs(grads, len(self.encoder), "enc"))
        return loss, grads, recon_loss, kl


@dataclass
class CvaeHyper:
    epochs: int = 90
    batch_size: int = 128
    lr: float = 1e-3
    lr_step_epochs: int = 30
    lr_gamma: float = 0.1
    beta: BetaSchedule = field(default_factory=BetaSchedule)


@dataclass
class VaeEpochStats:
    epoch: int
    loss: float
    recon: float
    kl: float
    beta: float


def fit_vae(model: CvaeModel, feats: np.ndarray, labels: np.ndarray | None,
            hyper: CvaeHyper, seed: int, stream: tuple[int, ...] = ()) -> list[VaeEpochStats]:
    """Train in place. Raises DivergenceError carrying the last finite epoch
    snapshot if the loss ever goes non-finite.

    stream keys separate the shuffle/noise draws of models that share a seed,
    e.g. the per-class pack members.
    """
    n = feats.shape[0]
    if model.num_classes > 0:
        if labels is None:
            raise LabelError("conditional training requires labels")
        onehot_all = one_hot(labels, model.num_classes)
    else:
        onehot_all = np.zeros((n, 0), dtype=F32)
    flat = FlatParams(model.named_params())
    model.set_params(flat.views)
    optimizer = Adam(LrSchedule(hyper.lr, hyper.lr_step_epochs, hyper.lr_gamma))
    shuffle_rng = derive_rng(seed, *stream, stage_key("vae-shuffle"))
    noise_rng = derive_rng(seed, *stream, stage_key("vae-noise"))
    checkpoint = flat.value.copy()
    checkpoint_epoch = -1
    log = []
    for epoch in range(hyper.epochs):
        beta = hyper.beta.at(epoch)
        perm = shuffle_rng.permutation(n)
        loss_sum = recon_sum = kl_sum = 0.0
        for start in range(0, n, hyper.batch_size):
            idx = perm[start: start + hyper.batch_size]
            bx, bo = feats[idx], onehot_all[idx]
            noise = noise_rng.standard_normal((len(idx), model.z_dim)).astype(F32)
            loss, _, recon, kl = model.loss_and_grads(bx, bo, noise, beta, flat.grad_views)
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}; last finite snapshot is "
                    f"from epoch {checkpoint_epoch}",
                    checkpoint=flat.unflatten(checkpoint), epoch=epoch,
                )
            flat.step(optimizer, epoch)
            loss_sum += loss * len(idx)
            recon_sum += recon * len(idx)
            kl_sum += kl * len(idx)
        checkpoint = flat.value.copy()
        checkpoint_epoch = epoch
        log.append(VaeEpochStats(epoch, loss_sum / n, recon_sum / n, kl_sum / n, beta))
    return log


def align_latent(model: CvaeModel, feats: np.ndarray,
                 labels: np.ndarray | None) -> None:
    """Moment-match the latent frame to the standard-normal prior.

    Encoding feats gives an aggregated posterior with some per-dim mean m and
    total standard deviation s (spread of mu plus average sigma). Absorbing the
    affine map z -> (z - m) / s into the encoder head, and its inverse into the
    decoder's first layer, preserves every posterior-path reconstruction (up to
    float rounding) while prior draws now land in the region the decoder was
    trained on. Without this, leftover drift in the aggregated posterior shows
    up as a bias on everything generated.
    """
    if model.num_classes > 0:
        if labels is None:
            raise LabelError("aligning a conditional model needs labels")
        onehot = one_hot(labels, model.num_classes)
    else:
        onehot = np.zeros((feats.shape[0], 0), dtype=F32)
    mu, logvar = model.encode(feats, onehot)
    m = mu.mean(axis=0)
    total_var = mu.var(axis=0) + np.exp(logvar).mean(axis=0)
    s = np.sqrt(np.maximum(total_var, 1e-6))
    head = model.encoder[-1]
    z = model.z_dim
    dec0 = model.decoder[0]
    dec0.bias += (dec0.weight[:, :z] @ m).astype(F32)
    dec0.weight[:, :z] *= s[np.newaxis, :].astype(F32)
    head.weight[:z] /= s[:, np.newaxis].astype(F32)
    head.bias[:z] = ((head.bias[:z] - m) / s).astype(F32)
    head.bias[z:] -= (2.0 * np.log(s)).astype(F32)


def train_cvae(batch: ActivationBatch, num_classes: int,
               hyper: CvaeHyper | None = None, seed: int = 0,
               z_dim: int = DEFAULT_Z_DIM,
               enc_widths: tuple[int, ...] = DEFAULT_ENC_WIDTHS,
               dec_widths: tuple[int, ...] = DEFAULT_DEC_WIDTHS):
    """Conditional model over labeled activations. Returns (model, log)."""
    if batch.labels is None:
        raise LabelError("training batch has no labels")
    if num_classes < 1:
        raise ValueError("num_classes must be >= 1")
    hyper = hyper or CvaeHyper()
    rng = derive_rng(seed, stage_key("cvae-init"))
    model = CvaeModel.create(rng, batch.features.shape[1], num_classes, z_dim,
                             enc_widths, dec_widths)
    # Output bias starts at the training mean so the net only has to model
    # deviations; at these step counts the bias cannot crawl there on its own.
    model.decoder[-1].bias[:] = batch.features.mean(axis=0).astype(F32)
    log = fit_vae(model, batch.features, batch.labels, hyper, seed)
    align_latent(model, batch.features, batch.labels)
    return model, log


def generate_activations(model: CvaeModel, counts: np.ndarray, seed: int = 0) -> ActivationBatch:
    """Decode standard-normal latents under one-hot conditioning.

    counts[c] rows are produced for class c, in class order, labeled.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if model.num_classes == 0:
        raise LabelError("model is unconditional; use a per-class pack instead")
    if counts.shape != (model.num_classes,):
        raise ShapeError(f"counts shape {counts.shape} != ({model.num_classes},)")
    if (counts < 0).any():
        raise ValueError("counts must be nonnegative")
    labels = np.repeat(np.arange(model.num_classes), counts)
    rng = derive_rng(seed, stage_key("generate"))
    z = rng.standard_normal((labels.shape[0], model.z_dim)).astype(F32)
    feats = model.decode(z, one_hot(labels, model.num_classes))
    return ActivationBatch(feats, labels=labels)


# ---------------------------------------------------------------------------
# Per-class unconditional baseline
# ---------------------------------------------------------------------------


@dataclass
class UncondVaePack:
    """One small unconditional model per class, trained on that class only."""

    vaes: list[CvaeModel]

    @property
    def num_classes(self) -> int:
        return len(self.vaes)

    def named_params(self) -> dict[str, np.ndarray]:
        return {f"vae{c}.{name}": p for c, vae in enumerate(self.vaes)
                for name, p in vae.named_params().items()}


def train_uncond_pack(batch: ActivationBatch, num_classes: int,
                      hyper: CvaeHyper | None = None, seed: int = 0,
                      z_dim: int = UNCOND_Z_DIM,
                      enc_widths: tuple[int, ...] = UNCOND_ENC_WIDTHS,
                      dec_widths: tuple[int, ...] = UNCOND_DEC_WIDTHS):
    """Split the batch by label and train one unconditional model per class."""
    if batch.labels is None:
        raise LabelError("training batch has no labels")
    hyper = hyper or CvaeHyper()
    a_dim = batch.features.shape[1]
    vaes, logs = [], []
    for c in range(num_classes):
        rows = batch.features[batch.labels == c]
        if rows.shape[0] == 0:
            raise LabelError(f"no training rows for class {c}")
        rng = derive_rng(seed, stage_key("uncond-init"), c)
        model = CvaeModel.create(rng, a_dim, 0, z_dim, enc_widths, dec_widths)
        # Same output-bias seeding as the conditional path, per class here.
        model.decoder[-1].bias[:] = rows.mean(axis=0).astype(F32)
        logs.append(fit_vae(model, rows, None, hyper, seed,
                            stream=(stage_key("uncond-fit"), c)))
        align_latent(model, rows, None)
        vaes.append(model)
    return UncondVaePack(vaes), logs


def generate_uncond(pack: UncondVaePack, counts: np.ndarray, seed: int = 0) -> ActivationBatch:
    """Per-class decoding from standard-normal latents, concatenated in class order."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (pack.num_classes,):
        raise ShapeError(f"counts shape {counts.shape} != ({pack.num_classes},)")
    if (counts < 0).any():
        raise ValueError("counts must be nonnegative")
    parts, labels = [], []
    empty = np.zeros((0, 0), dtype=F32)
    for c, model in enumerate(pack.vaes):
        n = int(counts[c])
        if n == 0:
            continue
        rng = derive_rng(seed, stage_key("generate"), c)
        z = rng.standard_normal((n, model.z_dim)).astype(F32)
        parts.append(model.decode(z, empty))
        labels.append(np.full(n, c, dtype=np.int64))
    a_dim = pack.vaes[0].a_dim
    feats = np.concatenate(parts) if parts else np.zeros((0, a_dim), dtype=F32)
    lab = np.concatenate(labels) if labels else np.zeros(0, dtype=np.int64)
    return ActivationBatch(feats, labels=lab)

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
    stack_backward,
    stack_forward,
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
        if not np.isfinite([self.start, self.step, self.max_value]).all():
            raise ValueError("start, step and max_value must be finite")
        if self.max_value < self.start:
            raise ValueError("max_value below start")

    def at(self, epoch: int) -> float:
        return min(self.max_value, self.start + self.step * (epoch // self.every_epochs))


DEFAULT_ENC_WIDTHS = (256, 128, 64)
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
    """Encoder/decoder pair; num_classes == 0 means no conditioning input.
    Its dimensions are read from the layer widths, which never change."""

    def __init__(self, encoder: list[DenseLayer], decoder: list[DenseLayer]):
        self.z_dim, odd = divmod(encoder[-1].out_dim, 2)
        self.num_classes = decoder[0].in_dim - self.z_dim
        self.a_dim = decoder[-1].out_dim
        if odd:
            raise ShapeError(f"encoder output {encoder[-1].out_dim} is odd, not 2 * z_dim")
        if self.num_classes < 0:
            raise ShapeError(f"decoder input {decoder[0].in_dim} < z_dim {self.z_dim}")
        if encoder[0].in_dim != self.a_dim + self.num_classes:
            raise ShapeError(f"encoder input {encoder[0].in_dim} != activation "
                             f"{self.a_dim} + classes {self.num_classes}")
        self.encoder = encoder
        self.decoder = decoder

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
        return cls(encoder, decoder)

    def named_params(self) -> dict[str, np.ndarray]:
        params = stack_params(self.encoder, prefix="enc")
        params.update(stack_params(self.decoder, prefix="dec"))
        return params

    def onehot(self, labels: np.ndarray | None) -> np.ndarray | None:
        """The conditioning input for labels: None for an unconditional model,
        which ignores labels; a conditional model refuses None."""
        if self.num_classes == 0:
            return None
        if labels is None:
            raise LabelError("a conditional model needs labels")
        return one_hot(labels, self.num_classes)

    def _condition(self, rows: np.ndarray, onehot: np.ndarray | None) -> np.ndarray:
        return rows if onehot is None else np.concatenate([rows, onehot], axis=1)

    def encode(self, acts: np.ndarray, onehot: np.ndarray | None, keep: bool = False):
        enc_out = stack_forward(self.encoder, self._condition(acts, onehot), keep)
        return enc_out[:, : self.z_dim], enc_out[:, self.z_dim:]

    def decode(self, z: np.ndarray, onehot: np.ndarray | None,
               keep: bool = False) -> np.ndarray:
        return stack_forward(self.decoder, self._condition(z, onehot), keep)

    def loss_and_grads(self, acts: np.ndarray, onehot: np.ndarray | None,
                       noise: np.ndarray, beta: float, grads=None):
        """One full forward/backward pass.

        Returns (loss, grads, recon_loss, kl): grads holds one (grad_w, grad_b)
        pair per layer, encoder layers first, written into the given pairs
        (e.g. FlatParams.grads) or into new arrays. The latent path carries
        both the reconstruction gradient (through z = mu + sigma * noise, so
        the log-variance picks up 0.5 * sigma * noise) and beta times the KL
        gradient.
        """
        n = len(self.encoder)
        if grads is None:
            grads = [None] * (n + len(self.decoder))
        mu, logvar = self.encode(acts, onehot, keep=True)
        sigma = np.exp(0.5 * logvar)
        z = mu + sigma * noise
        recon = self.decode(z, onehot, keep=True)
        recon_loss, grad_recon = mse_loss(recon, acts)
        kl, gmu_kl, glv_kl = kl_diag_gauss(mu, logvar)
        loss = recon_loss + beta * kl
        grad_dec_in, dec_grads = stack_backward(self.decoder, grad_recon, out=grads[n:])
        grad_z = grad_dec_in[:, : self.z_dim]
        grad_mu = grad_z + beta * gmu_kl
        grad_logvar = grad_z * (0.5 * sigma * noise) + beta * glv_kl
        grad_enc_out = np.concatenate([grad_mu, grad_logvar], axis=1)
        _, enc_grads = stack_backward(self.encoder, grad_enc_out, need_input_grad=False,
                                      out=grads[:n])
        return loss, enc_grads + dec_grads, recon_loss, kl


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
    onehot = model.onehot(labels)
    flat = FlatParams(model.encoder + model.decoder)
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
            bx, bo = feats[idx], None if onehot is None else onehot[idx]
            noise = noise_rng.standard_normal((len(idx), model.z_dim)).astype(F32)
            loss, _, recon, kl = model.loss_and_grads(bx, bo, noise, beta, flat.grads)
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
    mu, logvar = model.encode(feats, model.onehot(labels))
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


# ---------------------------------------------------------------------------
# Per-class unconditional baseline
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class UncondVaePack:
    """One small unconditional model per class, trained on that class only.
    Hashed by identity, like CvaeModel, so that it can key the Scenario memo."""

    vaes: list[CvaeModel]

    @property
    def num_classes(self) -> int:
        return len(self.vaes)

    @property
    def a_dim(self) -> int:
        return self.vaes[0].a_dim

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


def generate_activations(generator: CvaeModel | UncondVaePack, counts: np.ndarray,
                         seed: int = 0) -> ActivationBatch:
    """Decode standard-normal latents into counts[c] rows of class c, labeled,
    in class order.

    A conditional model decodes one draw under one-hot conditioning; a
    per-class pack decodes each class with its own member from its own draw.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if generator.num_classes == 0:
        raise LabelError("model is unconditional; use a per-class pack instead")
    if counts.shape != (generator.num_classes,):
        raise ShapeError(f"counts shape {counts.shape} != ({generator.num_classes},)")
    if (counts < 0).any():
        raise ValueError("counts must be nonnegative")
    labels = np.repeat(np.arange(generator.num_classes), counts)
    if isinstance(generator, CvaeModel):
        rng = derive_rng(seed, stage_key("generate"))
        z = rng.standard_normal((labels.shape[0], generator.z_dim)).astype(F32)
        feats = generator.decode(z, generator.onehot(labels))
        return ActivationBatch(feats, labels=labels)
    parts = [np.zeros((0, generator.a_dim), dtype=F32)]
    for c, model in enumerate(generator.vaes):
        if counts[c] > 0:
            rng = derive_rng(seed, stage_key("generate"), c)
            z = rng.standard_normal((int(counts[c]), model.z_dim)).astype(F32)
            parts.append(model.decode(z, None))
    return ActivationBatch(np.concatenate(parts), labels=labels)

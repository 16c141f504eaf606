"""Binary file formats for activations and models.

Both formats are little-endian with a 4-byte magic and a u32 version, and
their total byte length is exactly computable from the header, so loads can
distinguish truncation from structural corruption. Round trips are bit-exact:
save(load(f)) reproduces f byte for byte.

Activation file ("LPAC"):
    magic | version u32 | rows u32 | cols u32 | has_labels u8 | 3 zero bytes
    | rows*cols f32 payload, row-major | rows u32 labels when flagged

Model file ("LPMD"):
    magic | version u32 | kind u8 | layer_count u32
    | per layer: in u32, out u32, act u8, out*in f32 weights, out f32 bias
    | metadata, all but prune_fraction computed from the layers on save and
      checked against them on load: classes u32, act_dim u32, z_dim u32,
      prune_fraction f32, feature_boundary u32; a field the kind does not use
      (an MLP's z_dim, a CVAE file's prune_fraction and feature_boundary) is 0
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .cvae import CvaeModel
from .errors import FormatError, TruncationError, UnsupportedVersionError
from .models import ActivationBatch, MlpModel
from .numerics import Activation, DenseLayer

ACTIVATION_MAGIC = b"LPAC"
MODEL_MAGIC = b"LPMD"
FORMAT_VERSION = 1

KIND_MLP = 0
KIND_CVAE_ENCODER = 1
KIND_CVAE_DECODER = 2


class _Cursor:
    """Sequential reader over a byte string with typed failure modes."""

    def __init__(self, buf: bytes, path: str):
        self.buf = buf
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.buf):
            raise TruncationError(
                f"{self.path}: expected {n} bytes at offset {self.off}, "
                f"only {len(self.buf) - self.off} remain"
            )
        chunk = self.buf[self.off: self.off + n]
        self.off += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u8(self) -> int:
        return self.take(1)[0]

    def f32(self) -> float:
        return struct.unpack("<f", self.take(4))[0]

    def f32_array(self, count: int, what: str) -> np.ndarray:
        arr = np.frombuffer(self.take(4 * count), dtype="<f4").copy()
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"{self.path}: non-finite values in {what}")
        return arr

    def u32_array(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(4 * count), dtype="<u4").copy()

    def expect_end(self) -> None:
        if self.off != len(self.buf):
            raise FormatError(
                f"{self.path}: {len(self.buf) - self.off} trailing bytes after payload"
            )


def _check_header(cur: _Cursor, magic: bytes) -> None:
    got = cur.take(4)
    if got != magic:
        raise FormatError(
            f"{cur.path}: bad magic {got!r}, expected {magic.decode('ascii')!r}"
        )
    version = cur.u32()
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"{cur.path}: format version {version}, this build reads {FORMAT_VERSION}"
        )


# ---------------------------------------------------------------------------
# Activation files
# ---------------------------------------------------------------------------


def activation_bytes(batch: ActivationBatch) -> bytes:
    rows, cols = batch.features.shape
    has_labels = batch.labels is not None
    parts = [
        ACTIVATION_MAGIC,
        struct.pack("<IIIB3x", FORMAT_VERSION, rows, cols, int(has_labels)),
        np.ascontiguousarray(batch.features, dtype="<f4").tobytes(),
    ]
    if has_labels:
        labels = batch.labels
        if labels.size and (labels.min() < 0 or labels.max() >= 2**32):
            raise ValueError("labels do not fit in u32")
        parts.append(labels.astype("<u4").tobytes())
    return b"".join(parts)


def save_activations(path, batch: ActivationBatch) -> None:
    with open(path, "wb") as fh:
        fh.write(activation_bytes(batch))


def parse_activations(buf: bytes, path: str = "<bytes>") -> ActivationBatch:
    cur = _Cursor(buf, path)
    _check_header(cur, ACTIVATION_MAGIC)
    rows, cols = cur.u32(), cur.u32()
    flag = cur.u8()
    if flag not in (0, 1):
        raise FormatError(f"{path}: has-labels byte must be 0 or 1, got {flag}")
    if cur.take(3) != b"\0\0\0":
        raise FormatError(f"{path}: nonzero header padding")
    feats = cur.f32_array(rows * cols, "activation payload").reshape(rows, cols)
    labels = cur.u32_array(rows).astype(np.int64) if flag else None
    cur.expect_end()
    return ActivationBatch(feats, labels=labels)


def load_activations(path) -> ActivationBatch:
    with open(path, "rb") as fh:
        return parse_activations(fh.read(), str(path))


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------


def model_bytes(kind: int, layers: list[DenseLayer], *, classes: int, act_dim: int,
                z_dim: int, prune_fraction: float, feature_boundary: int) -> bytes:
    parts = [
        MODEL_MAGIC,
        struct.pack("<IBI", FORMAT_VERSION, kind, len(layers)),
    ]
    for layer in layers:
        parts.append(struct.pack("<IIB", layer.in_dim, layer.out_dim, int(layer.activation)))
        parts.append(np.ascontiguousarray(layer.weight, dtype="<f4").tobytes())
        parts.append(np.ascontiguousarray(layer.bias, dtype="<f4").tobytes())
    parts.append(struct.pack("<IIIfI", classes, act_dim, z_dim, prune_fraction,
                             feature_boundary))
    return b"".join(parts)


def parse_model(buf: bytes, path: str = "<bytes>"):
    """Returns (kind, layers, meta dict). Every shape chain is validated here."""
    cur = _Cursor(buf, path)
    _check_header(cur, MODEL_MAGIC)
    kind = cur.u8()
    if kind not in (KIND_MLP, KIND_CVAE_ENCODER, KIND_CVAE_DECODER):
        raise FormatError(f"{path}: unknown model kind {kind}")
    layer_count = cur.u32()
    if layer_count == 0:
        raise FormatError(f"{path}: zero layers")
    layers = []
    for i in range(layer_count):
        in_dim, out_dim = cur.u32(), cur.u32()
        act = cur.u8()
        if act not in (int(Activation.IDENTITY), int(Activation.RELU)):
            raise FormatError(f"{path}: layer {i} has unknown activation {act}")
        weight = cur.f32_array(out_dim * in_dim, f"layer {i} weights").reshape(out_dim, in_dim)
        bias = cur.f32_array(out_dim, f"layer {i} bias")
        if layers and layers[-1].out_dim != in_dim:
            raise FormatError(
                f"{path}: layer {i} input {in_dim} does not chain from "
                f"{layers[-1].out_dim}"
            )
        layers.append(DenseLayer(weight, bias, Activation(act)))
    meta = dict(zip(
        ("classes", "act_dim", "z_dim", "prune_fraction", "feature_boundary"),
        struct.unpack("<IIIfI", cur.take(20)),
    ))
    cur.expect_end()
    _validate_kind(kind, layers, meta, path)
    return kind, layers, meta


def _validate_kind(kind: int, layers: list[DenseLayer], meta: dict, path: str) -> None:
    s, a_dim, z_dim = meta["classes"], meta["act_dim"], meta["z_dim"]
    # saving writes 0 (not -0.0) to each field its kind does not use, so a file
    # holding anything else there would not survive save(load(f)) byte for byte
    unused = ("z_dim",) if kind == KIND_MLP else ("prune_fraction", "feature_boundary")
    for name in unused:
        if meta[name] != 0 or math.copysign(1, meta[name]) < 0:
            raise FormatError(f"{path}: unused field {name} is {meta[name]}, not 0")
    if kind == KIND_MLP:
        if meta["feature_boundary"] != len(layers) - 1:
            raise FormatError(f"{path}: feature boundary must index the final layer")
        fc = layers[-1]
        if fc.activation != Activation.IDENTITY or fc.out_dim != s or fc.in_dim != a_dim:
            raise FormatError(
                f"{path}: classifier layer [{fc.out_dim} x {fc.in_dim}] (act {int(fc.activation)}) "
                f"inconsistent with metadata [{s} x {a_dim}]"
            )
        if not (0 <= meta["prune_fraction"] < 1):
            raise FormatError(f"{path}: prune fraction {meta['prune_fraction']} outside [0, 1)")
    elif kind == KIND_CVAE_ENCODER:
        if layers[0].in_dim != a_dim + s:
            raise FormatError(
                f"{path}: encoder input {layers[0].in_dim} != act_dim {a_dim} + classes {s}"
            )
        if layers[-1].out_dim != 2 * z_dim:
            raise FormatError(
                f"{path}: encoder output {layers[-1].out_dim} != 2 * z_dim {z_dim}"
            )
    else:
        if layers[0].in_dim != z_dim + s:
            raise FormatError(
                f"{path}: decoder input {layers[0].in_dim} != z_dim {z_dim} + classes {s}"
            )
        if layers[-1].out_dim != a_dim:
            raise FormatError(
                f"{path}: decoder output {layers[-1].out_dim} != act_dim {a_dim}"
            )


def load_model_file(path):
    with open(path, "rb") as fh:
        return parse_model(fh.read(), str(path))


# --- MLP convenience wrappers ---


def save_mlp(path, model: MlpModel) -> None:
    with open(path, "wb") as fh:
        fh.write(model_bytes(
            KIND_MLP, model.layers,
            classes=model.num_classes, act_dim=model.activation_dim,
            z_dim=0, prune_fraction=model.prune_fraction,
            feature_boundary=len(model.layers) - 1,
        ))


def load_mlp(path) -> MlpModel:
    kind, layers, meta = load_model_file(path)
    if kind != KIND_MLP:
        raise FormatError(f"{path}: expected an MLP model file, got kind {kind}")
    return MlpModel(layers, meta["prune_fraction"])


# --- CVAE convenience wrappers (encoder and decoder are separate files) ---


def save_cvae(enc_path, dec_path, model) -> None:
    common = dict(classes=model.num_classes, act_dim=model.a_dim, z_dim=model.z_dim,
                  prune_fraction=0.0, feature_boundary=0)
    with open(enc_path, "wb") as fh:
        fh.write(model_bytes(KIND_CVAE_ENCODER, model.encoder, **common))
    with open(dec_path, "wb") as fh:
        fh.write(model_bytes(KIND_CVAE_DECODER, model.decoder, **common))


def load_cvae(enc_path, dec_path) -> CvaeModel:
    enc_kind, encoder, enc_meta = load_model_file(enc_path)
    dec_kind, decoder, dec_meta = load_model_file(dec_path)
    if enc_kind != KIND_CVAE_ENCODER:
        raise FormatError(f"{enc_path}: expected an encoder file, got kind {enc_kind}")
    if dec_kind != KIND_CVAE_DECODER:
        raise FormatError(f"{dec_path}: expected a decoder file, got kind {dec_kind}")
    keys = ("classes", "act_dim", "z_dim")
    if tuple(enc_meta[k] for k in keys) != tuple(dec_meta[k] for k in keys):
        raise FormatError(
            f"{enc_path} / {dec_path}: encoder and decoder metadata disagree"
        )
    return CvaeModel(encoder, decoder)

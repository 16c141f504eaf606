"""Binary file formats for activations and models.

Both formats are little-endian with a 4-byte magic and a u32 version, and
their total byte length is exactly computable from the header, so loads can
distinguish truncation from structural corruption. Round trips are bit-exact:
save(load(f)) reproduces f byte for byte.

Activation file ("LPAC", version 1):
    magic | version u32 | rows u32 | cols u32 | has_labels u8 | 3 zero bytes
    | rows*cols f32 payload, row-major | rows u32 labels when flagged

Model file ("LPMD", version 2):
    magic | version u32 | kind u8 | layer_count u32
    | per layer: in u32, out u32, act u8, out*in f32 weights, out f32 bias
    | prune_fraction f32, in an MLP file only
Every shape is stated once, by the layers; the model a file loads into checks
them. A version-1 file, which ended in a footer repeating the shapes, is
refused: re-running the stage that wrote it writes version 2.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .cvae import CvaeModel
from .errors import FormatError, ShapeError, TruncationError, UnsupportedVersionError
from .models import ActivationBatch, MlpModel
from .numerics import Activation, DenseLayer

ACTIVATION_MAGIC = b"LPAC"
MODEL_MAGIC = b"LPMD"
ACTIVATION_VERSION = 1
MODEL_VERSION = 2

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


def _check_header(cur: _Cursor, magic: bytes, expected_version: int) -> None:
    got = cur.take(4)
    if got != magic:
        raise FormatError(
            f"{cur.path}: bad magic {got!r}, expected {magic.decode('ascii')!r}"
        )
    version = cur.u32()
    if version != expected_version:
        raise UnsupportedVersionError(
            f"{cur.path}: format version {version}, this build reads "
            f"{expected_version}; re-run the stage that wrote this file"
        )


# ---------------------------------------------------------------------------
# Activation files
# ---------------------------------------------------------------------------


def activation_bytes(batch: ActivationBatch) -> bytes:
    rows, cols = batch.features.shape
    has_labels = batch.labels is not None
    parts = [
        ACTIVATION_MAGIC,
        struct.pack("<IIIB3x", ACTIVATION_VERSION, rows, cols, int(has_labels)),
        np.ascontiguousarray(batch.features, dtype="<f4").tobytes(),
    ]
    if has_labels:
        labels = batch.labels
        if labels.size and (labels.min() < 0 or labels.max() >= 2**32):
            raise ValueError("labels do not fit in u32")
        parts.append(labels.astype("<u4").tobytes())
    return b"".join(parts)


def save_activations(path, batch: ActivationBatch) -> None:
    Path(path).write_bytes(activation_bytes(batch))


def parse_activations(buf: bytes, path: str = "<bytes>") -> ActivationBatch:
    cur = _Cursor(buf, path)
    _check_header(cur, ACTIVATION_MAGIC, ACTIVATION_VERSION)
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
    return parse_activations(Path(path).read_bytes(), str(path))


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------


def model_bytes(kind: int, layers: list[DenseLayer], prune_fraction: float = 0.0) -> bytes:
    parts = [
        MODEL_MAGIC,
        struct.pack("<IBI", MODEL_VERSION, kind, len(layers)),
    ]
    for layer in layers:
        parts.append(struct.pack("<IIB", layer.in_dim, layer.out_dim, int(layer.activation)))
        parts.append(np.ascontiguousarray(layer.weight, dtype="<f4").tobytes())
        parts.append(np.ascontiguousarray(layer.bias, dtype="<f4").tobytes())
    if kind == KIND_MLP:
        parts.append(struct.pack("<f", prune_fraction))
    return b"".join(parts)


def parse_model(buf: bytes, path: str = "<bytes>"):
    """Returns (kind, layers, prune_fraction), the last 0.0 unless an MLP.
    Each layer's input must chain from the previous layer's output; what the
    shapes must be beyond that is checked by the model they build."""
    cur = _Cursor(buf, path)
    _check_header(cur, MODEL_MAGIC, MODEL_VERSION)
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
    prune_fraction = cur.f32() if kind == KIND_MLP else 0.0
    cur.expect_end()
    if not 0 <= prune_fraction < 1:
        raise FormatError(f"{path}: prune fraction {prune_fraction} outside [0, 1)")
    return kind, layers, prune_fraction


def load_model_file(path):
    return parse_model(Path(path).read_bytes(), str(path))


# --- MLP convenience wrappers ---


def save_mlp(path, model: MlpModel) -> None:
    Path(path).write_bytes(model_bytes(KIND_MLP, model.layers, model.prune_fraction))


def load_mlp(path) -> MlpModel:
    kind, layers, prune_fraction = load_model_file(path)
    if kind != KIND_MLP:
        raise FormatError(f"{path}: expected an MLP model file, got kind {kind}")
    try:
        return MlpModel(layers, prune_fraction)
    except ShapeError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# --- CVAE convenience wrappers (encoder and decoder are separate files) ---


def save_cvae(enc_path, dec_path, model: CvaeModel) -> None:
    Path(enc_path).write_bytes(model_bytes(KIND_CVAE_ENCODER, model.encoder))
    Path(dec_path).write_bytes(model_bytes(KIND_CVAE_DECODER, model.decoder))


def load_cvae(enc_path, dec_path) -> CvaeModel:
    enc_kind, encoder, _ = load_model_file(enc_path)
    dec_kind, decoder, _ = load_model_file(dec_path)
    if enc_kind != KIND_CVAE_ENCODER:
        raise FormatError(f"{enc_path}: expected an encoder file, got kind {enc_kind}")
    if dec_kind != KIND_CVAE_DECODER:
        raise FormatError(f"{dec_path}: expected a decoder file, got kind {dec_kind}")
    try:
        return CvaeModel(encoder, decoder)
    except ShapeError as exc:
        raise FormatError(f"{enc_path} / {dec_path}: encoder and decoder do not "
                          f"fit together: {exc}") from exc

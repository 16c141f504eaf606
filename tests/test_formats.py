"""Binary format round-trips and corruption handling.

Every failure mode must surface as a typed error (FormatError family), never
as a raw struct/index/unicode exception.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

from loco_pda import formats
from loco_pda.errors import (
    FormatError,
    TruncationError,
    UnsupportedVersionError,
)
from loco_pda.models import ActivationBatch, DatasetSpec, synth_dataset, build_mlp
from loco_pda.numerics import Activation, DenseLayer
from loco_pda.cvae import CvaeModel

from helpers import make_rng, mlp_v1_bytes

# header: magic(4) version(4) rows(4) cols(4) flag(1) pad(3)
ACT_HEADER_LEN = 20


def _small_batch(with_labels=True) -> ActivationBatch:
    feats = np.array([[1.5, -2.25, 0.0], [8.0, 0.125, -1.0]], dtype=np.float32)
    labels = np.array([1, 0]) if with_labels else None
    return ActivationBatch(feats, labels=labels)


def _small_mlp():
    model = build_mlp(make_rng(3), input_dim=4, feature_widths=(6, 5), num_classes=3)
    model.prune_fraction = 0.25
    return model


def _small_cvae() -> CvaeModel:
    return CvaeModel.create(make_rng(5), a_dim=4, num_classes=3, z_dim=2,
                            enc_widths=(8,), dec_widths=(6,))


# --- activation files ---


def test_activation_round_trip_bit_exact(tmp_path):
    batch = _small_batch()
    p = tmp_path / "a.lpac"
    formats.save_activations(p, batch)
    loaded = formats.load_activations(p)
    np.testing.assert_array_equal(loaded.features, batch.features)
    assert loaded.features.dtype == np.float32
    np.testing.assert_array_equal(loaded.labels, batch.labels)
    # serialize-of-load reproduces the file byte for byte
    assert formats.activation_bytes(loaded) == p.read_bytes()


def test_activation_round_trip_unlabeled():
    batch = _small_batch(with_labels=False)
    loaded = formats.parse_activations(formats.activation_bytes(batch))
    assert loaded.labels is None
    np.testing.assert_array_equal(loaded.features, batch.features)


def test_activation_zero_rows():
    batch = ActivationBatch(np.zeros((0, 7), dtype=np.float32),
                            labels=np.zeros(0, dtype=np.int64))
    loaded = formats.parse_activations(formats.activation_bytes(batch))
    assert loaded.features.shape == (0, 7)
    assert loaded.labels.shape == (0,)


def test_activation_bad_magic():
    buf = b"XXXX" + formats.activation_bytes(_small_batch())[4:]
    with pytest.raises(FormatError):
        formats.parse_activations(buf)


def test_activation_unsupported_version():
    buf = bytearray(formats.activation_bytes(_small_batch()))
    buf[4:8] = struct.pack("<I", 99)
    with pytest.raises(UnsupportedVersionError):
        formats.parse_activations(bytes(buf))


@pytest.mark.parametrize("cut", [2, 10, ACT_HEADER_LEN + 5, -3])
def test_activation_truncation(cut):
    buf = formats.activation_bytes(_small_batch())
    with pytest.raises(TruncationError):
        formats.parse_activations(buf[:cut])


def test_activation_trailing_bytes():
    buf = formats.activation_bytes(_small_batch()) + b"\0"
    with pytest.raises(FormatError):
        formats.parse_activations(buf)


def test_activation_bad_label_flag():
    buf = bytearray(formats.activation_bytes(_small_batch()))
    buf[16] = 2
    with pytest.raises(FormatError):
        formats.parse_activations(bytes(buf))


def test_activation_nonzero_padding():
    buf = bytearray(formats.activation_bytes(_small_batch()))
    buf[17] = 1
    with pytest.raises(FormatError):
        formats.parse_activations(bytes(buf))


def test_activation_nan_payload_rejected():
    buf = bytearray(formats.activation_bytes(_small_batch()))
    buf[ACT_HEADER_LEN:ACT_HEADER_LEN + 4] = struct.pack("<f", np.nan)
    with pytest.raises(FormatError):
        formats.parse_activations(bytes(buf))


def test_activation_payload_bit_flip_changes_value_only():
    """A flip inside the float payload is not detectable by structure alone;
    the parse must still succeed (manifest checksums catch it downstream)."""
    batch = _small_batch()
    buf = bytearray(formats.activation_bytes(batch))
    buf[ACT_HEADER_LEN] ^= 0x01
    loaded = formats.parse_activations(bytes(buf))
    assert loaded.features[0, 0] != batch.features[0, 0]
    np.testing.assert_array_equal(loaded.features[1:], batch.features[1:])


# --- model files ---


def test_mlp_round_trip_bit_exact(tmp_path):
    model = _small_mlp()
    p = tmp_path / "m.lpmd"
    formats.save_mlp(p, model)
    loaded = formats.load_mlp(p)
    assert loaded.num_classes == 3
    assert loaded.activation_dim == 5
    assert loaded.prune_fraction == pytest.approx(0.25)
    for got, want in zip(loaded.layers, model.layers):
        np.testing.assert_array_equal(got.weight, want.weight)
        np.testing.assert_array_equal(got.bias, want.bias)
        assert got.activation == want.activation
    formats.save_mlp(tmp_path / "again.lpmd", loaded)
    assert (tmp_path / "again.lpmd").read_bytes() == p.read_bytes()


def test_cvae_round_trip_preserves_generation(tmp_path):
    model = _small_cvae()
    enc, dec = tmp_path / "e.lpmd", tmp_path / "d.lpmd"
    formats.save_cvae(enc, dec, model)
    loaded = formats.load_cvae(enc, dec)
    assert (loaded.a_dim, loaded.num_classes, loaded.z_dim) == (4, 3, 2)
    from loco_pda.cvae import generate_activations
    counts = np.array([3, 2, 1])
    a = generate_activations(model, counts, seed=11)
    b = generate_activations(loaded, counts, seed=11)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)


# sha256 of each version-2 model file. Each is the version-1 file that an
# earlier release wrote for the same model, with the version set to 2 and the
# 20-byte footer replaced by the MLP's prune fraction, or by nothing.
PINNED_DIGESTS = {
    "mlp": "93e04caddab630983d36eb22f165a89bc07f03a0b5d8b5951fc3f4d8d3638a6b",
    "cvae-encoder": "55bd7e18c995a567e5d01f16811058c795f263dd6afd6db5c8539ad2d436adcb",
    "cvae-decoder": "8e9c4233df68908da58e20b45d84dfde35e98f20b134bb69e3fcb2e3091e5a73",
    "uncond-encoder": "ad0dd2a7dfe8d7c92f146a05eab2d3afb17ebac52fff2239bc1afb13589d768b",
    "uncond-decoder": "022265c77b7d89fb941ac91c0c8fe41aafa8a1639b1bb4e60e50d8c0b9b6b863",
}


def test_model_files_match_pinned_bytes(tmp_path):
    """The layers are written byte for byte as before; a round trip alone
    would not show a layout changed on both sides."""
    formats.save_mlp(tmp_path / "mlp", _small_mlp())
    formats.save_cvae(tmp_path / "cvae-encoder", tmp_path / "cvae-decoder", _small_cvae())
    uncond = CvaeModel.create(make_rng(7), a_dim=4, num_classes=0, z_dim=2,
                              enc_widths=(8,), dec_widths=(6,))
    formats.save_cvae(tmp_path / "uncond-encoder", tmp_path / "uncond-decoder", uncond)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in PINNED_DIGESTS}
    assert got == PINNED_DIGESTS


def test_version_1_model_file_refused(tmp_path):
    p = tmp_path / "m.lpmd"
    p.write_bytes(mlp_v1_bytes(_small_mlp()))
    with pytest.raises(UnsupportedVersionError,
                       match=r"m\.lpmd: format version 1, this build reads 2; re-run"):
        formats.load_mlp(p)


def test_cvae_swapped_files_rejected(tmp_path):
    model = _small_cvae()
    enc, dec = tmp_path / "e.lpmd", tmp_path / "d.lpmd"
    formats.save_cvae(enc, dec, model)
    with pytest.raises(FormatError, match=r"d\.lpmd: expected an encoder file"):
        formats.load_cvae(dec, enc)


def test_cvae_metadata_disagreement_rejected(tmp_path):
    """An encoder and a decoder of different latent widths each load alone;
    as a pair they are refused, naming both files."""
    a, b = _small_cvae(), CvaeModel.create(make_rng(6), a_dim=4, num_classes=3,
                                           z_dim=3, enc_widths=(8,), dec_widths=(6,))
    formats.save_cvae(tmp_path / "ea.lpmd", tmp_path / "da.lpmd", a)
    formats.save_cvae(tmp_path / "eb.lpmd", tmp_path / "db.lpmd", b)
    with pytest.raises(FormatError, match=r"ea\.lpmd / .*db\.lpmd: encoder and decoder"):
        formats.load_cvae(tmp_path / "ea.lpmd", tmp_path / "db.lpmd")


def test_model_unknown_kind():
    buf = bytearray(formats.model_bytes(formats.KIND_MLP, _small_mlp().layers, 0.25))
    buf[8] = 7
    with pytest.raises(FormatError):
        formats.parse_model(bytes(buf))


def test_model_zero_layers():
    buf = formats.MODEL_MAGIC + struct.pack("<IBI", formats.MODEL_VERSION,
                                            formats.KIND_MLP, 0)
    buf += struct.pack("<f", 0.0)
    with pytest.raises(FormatError):
        formats.parse_model(buf)


def test_model_broken_layer_chain():
    l0 = DenseLayer.create(make_rng(0), 3, 4, Activation.RELU)
    l1 = DenseLayer.create(make_rng(1), 5, 2, Activation.IDENTITY)  # 4 != 5
    buf = formats.model_bytes(formats.KIND_MLP, [l0, l1])
    with pytest.raises(FormatError):
        formats.parse_model(buf)


def test_mlp_metadata_classifier_mismatch(tmp_path):
    """A file whose last layer is not an identity classifier parses, but is
    not an MLP: loading it as one is refused, naming the file."""
    layers = _small_mlp().layers
    layers[-1] = DenseLayer(layers[-1].weight, layers[-1].bias, Activation.RELU)
    p = tmp_path / "m.lpmd"
    p.write_bytes(formats.model_bytes(formats.KIND_MLP, layers, 0.25))
    formats.load_model_file(p)
    with pytest.raises(FormatError, match=r"m\.lpmd: classifier layer must have identity"):
        formats.load_mlp(p)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5, 1.0])
def test_mlp_prune_fraction_outside_range_rejected(value):
    buf = formats.model_bytes(formats.KIND_MLP, _small_mlp().layers, value)
    with pytest.raises(FormatError, match=r"m\.lpmd: prune fraction .* outside"):
        formats.parse_model(buf, "m.lpmd")


def test_mlp_unused_z_dim_rejected():
    """A version-1 footer field left after an MLP file's prune fraction is
    trailing bytes: no field a kind does not use can ride in a file that
    loads, so save(load(f)) = f holds."""
    buf = formats.model_bytes(formats.KIND_MLP, _small_mlp().layers, 0.25)
    formats.parse_model(buf)
    with pytest.raises(FormatError, match=r"m\.lpmd: 4 trailing bytes"):
        formats.parse_model(buf + struct.pack("<I", 2), "m.lpmd")


@pytest.mark.parametrize("kind", [formats.KIND_CVAE_ENCODER, formats.KIND_CVAE_DECODER],
                         ids=["encoder", "decoder"])
@pytest.mark.parametrize("name, value", [("prune_fraction", 0.25),
                                         ("prune_fraction", -0.0),
                                         ("feature_boundary", 1)])
def test_cvae_unused_fields_rejected(kind, name, value):
    """An encoder or decoder file carries no prune fraction or classifier
    index; one that does is refused as trailing bytes."""
    model = _small_cvae()
    layers = model.encoder if kind == formats.KIND_CVAE_ENCODER else model.decoder
    buf = formats.model_bytes(kind, layers)
    formats.parse_model(buf)
    field = struct.pack("<f" if name == "prune_fraction" else "<I", value)
    with pytest.raises(FormatError, match=r"c\.lpmd: 4 trailing bytes"):
        formats.parse_model(buf + field, "c.lpmd")


def test_mlp_wrong_kind_through_wrapper(tmp_path):
    model = _small_cvae()
    formats.save_cvae(tmp_path / "e.lpmd", tmp_path / "d.lpmd", model)
    with pytest.raises(FormatError):
        formats.load_mlp(tmp_path / "e.lpmd")


@pytest.mark.parametrize("cut", [3, 9, 30, -10])
def test_model_truncation(cut):
    buf = formats.model_bytes(formats.KIND_MLP, _small_mlp().layers, 0.25)
    with pytest.raises(TruncationError):
        formats.parse_model(buf[:cut])


def test_dataset_survives_activation_format(tmp_path):
    """The synthesized dataset rides the same container; spot-check a full save."""
    ds = synth_dataset(DatasetSpec(num_classes=4, train_per_class=10,
                                   val_per_class=5, seed=2))
    p = tmp_path / "train.lpac"
    formats.save_activations(p, ActivationBatch(ds.train_x, labels=ds.train_y))
    loaded = formats.load_activations(p)
    np.testing.assert_array_equal(loaded.features, ds.train_x)
    np.testing.assert_array_equal(loaded.labels, ds.train_y)

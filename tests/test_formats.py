"""Binary format round-trips and corruption handling.

Every failure mode must surface as a typed error (FormatError family), never
as a raw struct/index/unicode exception.
"""

from __future__ import annotations

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
from loco_pda.numerics import Activation, DenseLayer, make_rng
from loco_pda.cvae import CvaeModel

# header: magic(4) version(4) rows(4) cols(4) flag(1) pad(3)
ACT_HEADER_LEN = 20


def _small_batch(with_labels=True) -> ActivationBatch:
    feats = np.array([[1.5, -2.25, 0.0], [8.0, 0.125, -1.0]], dtype=np.float32)
    labels = np.array([1, 0]) if with_labels else None
    return ActivationBatch(feats, labels=labels)


def _small_mlp():
    return build_mlp(make_rng(3), input_dim=4, feature_widths=(6, 5),
                     num_classes=3, prune_fraction=0.25)


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
    assert loaded.meta.num_classes == 3
    assert loaded.meta.activation_dim == 5
    assert loaded.meta.prune_fraction == pytest.approx(0.25)
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


def test_cvae_swapped_files_rejected(tmp_path):
    model = _small_cvae()
    enc, dec = tmp_path / "e.lpmd", tmp_path / "d.lpmd"
    formats.save_cvae(enc, dec, model)
    with pytest.raises(FormatError):
        formats.load_cvae(dec, enc)


def test_cvae_metadata_disagreement_rejected(tmp_path):
    a, b = _small_cvae(), CvaeModel.create(make_rng(6), a_dim=4, num_classes=3,
                                           z_dim=3, enc_widths=(8,), dec_widths=(6,))
    formats.save_cvae(tmp_path / "ea.lpmd", tmp_path / "da.lpmd", a)
    formats.save_cvae(tmp_path / "eb.lpmd", tmp_path / "db.lpmd", b)
    with pytest.raises(FormatError):
        formats.load_cvae(tmp_path / "ea.lpmd", tmp_path / "db.lpmd")


def test_model_unknown_kind():
    buf = bytearray(formats.model_bytes(
        formats.KIND_MLP, _small_mlp().layers, classes=3, act_dim=5, z_dim=0,
        prune_fraction=0.25, feature_boundary=2))
    buf[8] = 7
    with pytest.raises(FormatError):
        formats.parse_model(bytes(buf))


def test_model_zero_layers():
    buf = formats.MODEL_MAGIC + struct.pack("<IBI", formats.FORMAT_VERSION,
                                            formats.KIND_MLP, 0)
    buf += struct.pack("<IIIfI", 3, 5, 0, 0.0, 0)
    with pytest.raises(FormatError):
        formats.parse_model(buf)


def test_model_broken_layer_chain():
    l0 = DenseLayer.create(make_rng(0), 3, 4, Activation.RELU)
    l1 = DenseLayer.create(make_rng(1), 5, 2, Activation.IDENTITY)  # 4 != 5
    buf = formats.model_bytes(formats.KIND_MLP, [l0, l1], classes=2, act_dim=5,
                              z_dim=0, prune_fraction=0.0, feature_boundary=1)
    with pytest.raises(FormatError):
        formats.parse_model(buf)


def test_mlp_metadata_classifier_mismatch():
    model = _small_mlp()
    buf = formats.model_bytes(formats.KIND_MLP, model.layers, classes=4,  # fc is 3-wide
                              act_dim=5, z_dim=0, prune_fraction=0.0,
                              feature_boundary=2)
    with pytest.raises(FormatError):
        formats.parse_model(buf)


def test_mlp_wrong_kind_through_wrapper(tmp_path):
    model = _small_cvae()
    formats.save_cvae(tmp_path / "e.lpmd", tmp_path / "d.lpmd", model)
    with pytest.raises(FormatError):
        formats.load_mlp(tmp_path / "e.lpmd")


@pytest.mark.parametrize("cut", [3, 9, 30, -10])
def test_model_truncation(cut):
    model = _small_mlp()
    buf = formats.model_bytes(formats.KIND_MLP, model.layers, classes=3,
                              act_dim=5, z_dim=0, prune_fraction=0.25,
                              feature_boundary=2)
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

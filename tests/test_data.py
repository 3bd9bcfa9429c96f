import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import CE, per_image_digit_images, random_one_hot, rewrite_header
from redense import data as datamod
from redense.data import (FeatureBundle, gen_digit_images, load_feature_bundle, load_idx,
                          save_feature_bundle, write_idx)
from redense.errors import DataFormatError, ShapeError
from redense.nn import Loss, _decode


def test_idx_round_trip_hand_built(tmp_path):
    # construct the byte stream directly, independent of write_idx
    images = tmp_path / "imgs"
    labels = tmp_path / "lbls"
    pixels = bytes([0, 64, 128, 255, 255, 0, 32, 16])
    images.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + pixels)
    labels.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes([3, 0]))
    ds = load_idx(images, labels)
    assert ds.inputs.dtype == np.uint8
    assert np.array_equal(ds.inputs, [[0, 64, 128, 255], [255, 0, 32, 16]])
    decoded = _decode(ds.inputs, np.empty(ds.inputs.shape))
    assert decoded.tobytes() == np.array([[0.0, 64 / 255, 128 / 255, 1.0],
                                          [1.0, 0.0, 32 / 255, 16 / 255]]).tobytes()
    assert np.array_equal(ds.targets[0], np.eye(10)[3])
    assert np.array_equal(ds.targets[1], np.eye(10)[0])


def test_idx_writer_round_trip(tmp_path, rng):
    images = rng.integers(0, 256, size=(5, 3, 3)).astype(np.uint8)
    labels = np.array([0, 1, 9, 4, 4], dtype=np.uint8)
    write_idx(tmp_path / "i", tmp_path / "l", images, labels)
    ds = load_idx(tmp_path / "i", tmp_path / "l")
    assert ds.inputs.dtype == np.uint8
    assert np.array_equal(ds.inputs, images.reshape(5, 9))
    decoded = _decode(ds.inputs, np.empty(ds.inputs.shape))
    assert decoded.tobytes() == (images.reshape(5, 9) / 255.0).tobytes()
    assert np.array_equal(np.argmax(ds.targets, axis=1), labels)


def test_idx_bad_magic(tmp_path):
    f = tmp_path / "bad"
    f.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 1, 1) + b"\x00")
    lbl = tmp_path / "lbl"
    lbl.write_bytes(struct.pack(">II", 0x00000801, 1) + b"\x00")
    with pytest.raises(DataFormatError, match="magic"):
        load_idx(f, lbl)


def test_idx_truncated_reports_offset(tmp_path):
    f = tmp_path / "short"
    f.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 3)
    lbl = tmp_path / "lbl"
    lbl.write_bytes(struct.pack(">II", 0x00000801, 2) + b"\x00\x01")
    with pytest.raises(DataFormatError, match="offset"):
        load_idx(f, lbl)


def test_idx_count_mismatch(tmp_path):
    write_idx(tmp_path / "i", tmp_path / "l",
              np.zeros((3, 2, 2), dtype=np.uint8), np.zeros(3, dtype=np.uint8))
    lbl = tmp_path / "l2"
    lbl.write_bytes(struct.pack(">II", 0x00000801, 2) + b"\x00\x01")
    with pytest.raises(DataFormatError, match="2 labels"):
        load_idx(tmp_path / "i", lbl)


@pytest.mark.parametrize("images, labels, message", [
    (np.full((2, 2, 2), 0.5), [0, 1], "pixel 0.5 is not"),
    (np.full((2, 2, 2), 300), [0, 1], "pixel 300 is not"),
    (np.full((2, 2, 2), -1), [0, 1], "pixel -1 is not"),
    (np.full((2, 2, 2), np.nan), [0, 1], "pixel nan is not"),
    (np.zeros((2, 2, 2)), [12, 0], "label 12 is not an integer in 0..9"),
    (np.zeros((2, 2, 2)), [-1, 0], "label -1 is not"),
    (np.zeros((2, 2, 2)), [0.5, 0], "label 0.5 is not")],
    ids=["fraction", "above-255", "negative-pixel", "nan", "label-12", "label-minus-1",
         "fractional-label"])
def test_write_idx_refuses_what_load_idx_would_not_read_back(tmp_path, images, labels,
                                                            message):
    # the uint8 cast would write 0.5 as 0, 300 as 44 and -1 as 255, and load_idx
    # refuses a label above 9; nothing is written
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            write_idx(tmp_path / "i", tmp_path / "l", images, np.array(labels))
    assert list(tmp_path.iterdir()) == []


def _bundle(rng, j=5, n=3, q=2, metadata=None):
    return FeatureBundle(rng.standard_normal((j, n)), random_one_hot(rng, j, q),
                         rng.standard_normal((q, n)), rng.standard_normal(q),
                         dict(metadata or {"source_model": "test"}))


def test_bundle_round_trip_bit_exact(tmp_path, rng):
    bundle = _bundle(rng, metadata={"source_model": "m", "base_loss": "poisson",
                                    "base_train_loss": "1.5"})
    path = tmp_path / "b.rdfb"
    save_feature_bundle(path, bundle)
    loaded = load_feature_bundle(path)
    assert np.array_equal(loaded.features, bundle.features)
    assert np.array_equal(loaded.targets, bundle.targets)
    assert np.array_equal(loaded.output_weight, bundle.output_weight)
    assert np.array_equal(loaded.output_bias, bundle.output_bias)
    assert loaded.metadata == bundle.metadata
    assert loaded.loss == Loss("poisson")


def test_a_version_2_bundle_has_a_zero_output_bias(tmp_path, rng):
    # version 2, as the previous writer made it: three blocks and no output_bias
    bundle = _bundle(rng)
    blocks = [bundle.features, bundle.targets, bundle.output_weight]
    header = {name: list(a.shape) for name, a in zip(("features", "targets", "output_weight"),
                                                    blocks)}
    header["metadata"] = bundle.metadata
    path = tmp_path / "v2.rdfb"
    datamod._write_container(path, datamod.BUNDLE_MAGIC, 2, header, blocks)
    loaded = load_feature_bundle(path)
    assert np.array_equal(loaded.features, bundle.features)
    assert np.array_equal(loaded.output_weight, bundle.output_weight)
    assert loaded.output_bias.tobytes() == np.zeros(2).tobytes()


def test_bundle_refuses_an_output_bias_of_another_shape(tmp_path, rng):
    bundle = _bundle(rng)
    for shape in ((3,), (2, 1)):
        with pytest.raises(ShapeError, match="output_bias"):
            FeatureBundle(bundle.features, bundle.targets, bundle.output_weight,
                          np.zeros(shape), {})
    path = tmp_path / "b.rdfb"
    save_feature_bundle(path, bundle)
    # two values in either shape: the file's size cannot tell them apart
    rewrite_header(path, lambda header: header.__setitem__("output_bias", [1, 2]))
    with pytest.raises(DataFormatError, match="output_bias must be a JSON list of length 1"):
        load_feature_bundle(path)


@pytest.mark.parametrize("metadata", [{"base_loss": "bogus"}, {"huber_delta": "abc"},
                                      {"base_train_loss": "-1"}])
def test_bundle_with_bad_metadata_is_a_format_error_naming_the_file(tmp_path, rng, metadata):
    path = tmp_path / "b.rdfb"
    save_feature_bundle(path, _bundle(rng))
    rewrite_header(path, lambda header: header["metadata"].update(metadata))
    with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: "):
        load_feature_bundle(path)


def test_bundle_takes_array_likes_and_keeps_float64_arrays(rng):
    bundle = _bundle(rng)
    listed = FeatureBundle(bundle.features, bundle.targets, bundle.output_weight,
                           [3.0, -1.0], {})
    assert listed.output_bias.dtype == np.float64
    assert listed.output_bias.tolist() == [3.0, -1.0]
    # a float64 block is held, not copied
    assert listed.features is bundle.features
    with pytest.raises(ShapeError, match="output_bias"):
        FeatureBundle(bundle.features, bundle.targets, bundle.output_weight, [0.0], {})


def test_bundle_rejects_inconsistent_head_width(rng):
    with pytest.raises(ShapeError):
        FeatureBundle(rng.standard_normal((5, 3)), random_one_hot(rng, 5, 2),
                      rng.standard_normal((2, 4)), np.zeros(2), {})


def test_bundle_rejects_row_mismatch(rng):
    with pytest.raises(ShapeError):
        FeatureBundle(rng.standard_normal((5, 3)), random_one_hot(rng, 4, 2),
                      rng.standard_normal((2, 3)), np.zeros(2), {})


def test_bundle_truncated_payload_reports_offset(tmp_path, rng):
    path = tmp_path / "b.rdfb"
    save_feature_bundle(path, _bundle(rng))
    raw = path.read_bytes()
    path.write_bytes(raw[:30])
    with pytest.raises(DataFormatError, match="byte offset"):
        load_feature_bundle(path)


def test_bundle_bad_magic(tmp_path):
    path = tmp_path / "b.rdfb"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(DataFormatError, match="magic"):
        load_feature_bundle(path)


def test_bundle_rejects_nan_payload(tmp_path, rng):
    bundle = _bundle(rng)
    path = tmp_path / "b.rdfb"
    save_feature_bundle(path, bundle)
    raw = bytearray(path.read_bytes())
    # the first features value follows magic, version, header length and header
    (length,) = struct.unpack("<I", raw[8:12])
    start = 12 + length
    raw[start:start + 8] = struct.pack("<d", float("nan"))
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="NaN"):
        load_feature_bundle(path)


@pytest.mark.parametrize("metadata, loss", [
    ({}, CE),  # an external export without base_loss
    ({"base_loss": "mse"}, Loss("mean_square_error")),
    ({"base_loss": "huber", "huber_delta": "0.25"}, Loss("huber", delta=0.25)),
])
def test_bundle_decodes_its_base_loss(rng, metadata, loss):
    assert _bundle(rng, metadata=metadata).loss == loss


@pytest.mark.parametrize("metadata", [
    {"base_train_loss": "-3.0"}, {"base_loss": "bogus"}, {"huber_delta": "abc"},
    {"base_loss": "huber", "huber_delta": "0"}, {"base_loss": "huber", "huber_delta": "nan"},
    {"base_loss": "mse", "huber_delta": "0.5"}, {"huber_delta": "-1"}, {"source_model": 1.5},
])
def test_bundle_rejects_bad_base_loss_metadata(rng, metadata):
    with pytest.raises(ValueError):
        _bundle(rng, metadata=metadata)


@pytest.mark.parametrize("samples", [0, 1, 1023, 1024, 1025, 2051])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_gen_digit_images_matches_the_per_image_loop_across_chunk_edges(samples, seed):
    images, labels = gen_digit_images(samples, seed=seed)
    want_images, want_labels = per_image_digit_images(samples, seed=seed)
    assert images.dtype == want_images.dtype and images.shape == want_images.shape
    assert labels.dtype == want_labels.dtype
    assert images.tobytes() == want_images.tobytes() and labels.tobytes() == want_labels.tobytes()


@pytest.mark.parametrize("name, value", [("side", 3), ("classes", 12), ("noise", 0.0),
                                         ("max_shift", 0)])
def test_gen_digit_images_takes_only_samples_and_seed(name, value):
    # side=3 made NaN images and classes=12 labels that load_idx refuses: no call reaches them
    with pytest.raises(TypeError):
        gen_digit_images(20, seed=0, **{name: value})


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_gen_digit_images_writes_an_idx_pair_that_load_idx_reads(seed, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        images, labels = gen_digit_images(30, seed=seed)
    # every class image varies: a constant one came from a NaN prototype
    assert all(np.ptp(images[labels == c]) > 0 for c in range(10))
    write_idx(tmp_path / "i", tmp_path / "l", images, labels)
    ds = load_idx(tmp_path / "i", tmp_path / "l")
    assert np.array_equal(ds.inputs.reshape(images.shape), images)
    assert np.array_equal(ds.targets.argmax(axis=1), labels)


def test_gen_digit_images_memory_beyond_its_output_does_not_grow_with_samples():
    # a J x side x side float64 jitter array drawn whole grows this by about 6.3 KiB per image
    def extra(samples):
        tracemalloc.start()
        try:
            images, labels = gen_digit_images(samples, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - images.nbytes - labels.nbytes

    growth = (extra(16_384) - extra(4_096)) / (16_384 - 4_096)
    assert growth < 1024


def test_gen_digit_images_deterministic_and_shaped():
    imgs_a, labels_a = gen_digit_images(64, seed=5)
    imgs_b, labels_b = gen_digit_images(64, seed=5)
    assert np.array_equal(imgs_a, imgs_b)
    assert imgs_a.shape == (64, 28, 28) and imgs_a.dtype == np.uint8
    counts = np.bincount(labels_a, minlength=10)
    assert counts.max() - counts.min() <= 1

import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import CE, random_one_hot, read_curve, rewrite_header
from redense.data import (FeatureBundle, load_feature_bundle, load_idx, save_feature_bundle,
                          write_idx)
from redense.errors import DataFormatError
from redense.layer import HeadConfig, build, predict, train
from redense.nn import Activation, EpochStats, Loss, forward, make_mlp
from redense.persist import load_model, save_model, write_curve


def _random_model(rng, with_bias=False):
    widths = list(rng.integers(2, 7, size=int(rng.integers(0, 3))))
    model = make_mlp(int(rng.integers(2, 6)), widths, int(rng.integers(2, 5)),
                     activation=Activation("leaky_relu", 0.05),
                     seed=int(rng.integers(1 << 31)))
    if with_bias:
        model.output_bias[:] = rng.standard_normal(model.n_outputs)
    return model


def test_save_load_save_is_byte_identical(tmp_path, rng):
    model = _random_model(rng, with_bias=True)
    first = tmp_path / "a.rdnm"
    second = tmp_path / "b.rdnm"
    save_model(first, model, Loss("huber", delta=0.3))
    loaded, loss, layer = load_model(first)
    save_model(second, loaded, loss, layer)
    assert first.read_bytes() == second.read_bytes()


def test_loaded_model_forward_is_bit_exact(tmp_path, rng):
    model = _random_model(rng, with_bias=True)
    path = tmp_path / "m.rdnm"
    save_model(path, model, Loss("softmax_cross_entropy"))
    loaded, _, _ = load_model(path)
    x = rng.standard_normal((9, model.input_width))
    assert np.array_equal(forward(model, x)[0], forward(loaded, x)[0])
    assert np.array_equal(forward(model, x)[1], forward(loaded, x)[1])


def test_round_trip_with_lifting_layer(tmp_path, rng):
    model = make_mlp(4, [6], 3, seed=2)
    model.output_bias[:] = [3.0, -1.0, 0.5]
    layer = build(model.output_weight, model.output_bias, 9, seed=7)
    layer = replace(layer, delta=rng.standard_normal(layer.delta.shape))
    path = tmp_path / "m.rdnm"
    save_model(path, model, Loss("poisson"), redense_layer=layer)
    loaded_model, loss, loaded_layer = load_model(path)
    assert loss.kind == "poisson"
    assert loaded_layer.n == 6 and loaded_layer.m == 9 and loaded_layer.seed == 7
    assert loaded_layer.epsilon == layer.epsilon
    assert np.array_equal(loaded_layer.R, layer.R)
    assert np.array_equal(loaded_layer.base, loaded_model.output_weight)
    assert loaded_layer.bias.tobytes() == layer.bias.tobytes() == model.output_bias.tobytes()
    assert np.array_equal(loaded_layer.delta, layer.delta)
    # the file holds no O0: a loaded layer predicts the same logits, but does not train
    assert loaded_layer.O0 is None
    x = rng.standard_normal((7, 6))
    assert np.array_equal(predict(loaded_layer, x), predict(layer, x))
    assert np.array_equal(predict(replace(layer, delta=np.zeros_like(layer.delta)), x),
                          x @ model.output_weight.T + model.output_bias)
    again = tmp_path / "again.rdnm"
    save_model(again, loaded_model, loss, redense_layer=loaded_layer)
    assert again.read_bytes() == path.read_bytes()
    with pytest.raises(ValueError, match="O0"):
        train(loaded_layer, x, np.eye(3)[[0, 1, 2, 0, 1, 2, 0]], CE, HeadConfig(epochs=1))


@pytest.mark.parametrize("other", ["weight", "bias"])
def test_save_refuses_a_layer_built_on_another_head(tmp_path, other):
    model = make_mlp(4, [6], 3, seed=2)
    if other == "weight":
        layer = build(make_mlp(4, [6], 3, seed=3).output_weight, model.output_bias, 9, seed=7)
    else:
        layer = build(model.output_weight, [0.0, 0.0, 0.5], 9, seed=7)
    with pytest.raises(ValueError, match="base head"):
        save_model(tmp_path / "m.rdnm", model, Loss("poisson"), redense_layer=layer)
    assert not (tmp_path / "m.rdnm").exists()


def test_rejects_version_1_models(tmp_path):
    # version 1 stored O itself, from which the exact base-plus-correction
    # head cannot be recovered
    model = make_mlp(3, [4], 2, seed=0)
    path = tmp_path / "m.rdnm"
    save_model(path, model, Loss("softmax_cross_entropy"))
    raw = bytearray(path.read_bytes())
    assert raw[4:8] == struct.pack("<I", 2)
    raw[4:8] = struct.pack("<I", 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="version 1"):
        load_model(path)


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "m.rdnm"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(DataFormatError, match="magic"):
        load_model(path)


def _saved(kind, tmp_path, rng):
    """(path, load) for a small model, bundle or IDX image or label file."""
    if kind == "model":
        path = tmp_path / "m.rdnm"
        save_model(path, make_mlp(3, [4], 2, seed=0), CE)
        return path, load_model
    if kind == "bundle":
        path = tmp_path / "b.rdfb"
        save_feature_bundle(path, FeatureBundle(rng.standard_normal((5, 3)),
                                                random_one_hot(rng, 5, 2),
                                                rng.standard_normal((2, 3)), np.zeros(2),
                                                {"k": "v"}))
        return path, load_feature_bundle
    images, labels = tmp_path / "i", tmp_path / "l"
    write_idx(images, labels, np.zeros((3, 2, 2), dtype=np.uint8), np.zeros(3, dtype=np.uint8))
    return {"idx_images": images, "idx_labels": labels}[kind], lambda _: load_idx(images, labels)


@pytest.mark.parametrize("kind, version", [("model", 999), ("bundle", 1), ("bundle", 999)])
def test_rejects_unknown_version(tmp_path, rng, kind, version):
    path, load = _saved(kind, tmp_path, rng)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", version)
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match=f"unsupported version {version}"):
        load(path)


def test_rejects_corrupted_shape_header(tmp_path):
    model = make_mlp(3, [4], 2, seed=0)
    path = tmp_path / "m.rdnm"
    save_model(path, model, Loss("softmax_cross_entropy"))
    raw = path.read_bytes()
    corrupted = raw.replace(b'"width":4', b'"width":0')
    assert corrupted != raw
    path.write_bytes(corrupted)
    with pytest.raises(DataFormatError, match="width"):
        load_model(path)


def test_rejects_truncated_parameters(tmp_path):
    model = make_mlp(3, [4], 2, seed=0)
    path = tmp_path / "m.rdnm"
    save_model(path, model, Loss("softmax_cross_entropy"))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(DataFormatError, match="truncated"):
        load_model(path)


@pytest.mark.parametrize("kind", ["model", "bundle", "idx_images", "idx_labels"])
def test_rejects_trailing_bytes(tmp_path, rng, kind):
    path, load = _saved(kind, tmp_path, rng)
    load(path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataFormatError, match="trailing"):
        load(path)


def test_unparseable_header(tmp_path):
    model = make_mlp(3, [4], 2, seed=0)
    path = tmp_path / "m.rdnm"
    save_model(path, model, Loss("softmax_cross_entropy"))
    raw = bytearray(path.read_bytes())
    raw[12] = ord("?")
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="header"):
        load_model(path)


@pytest.mark.parametrize("key, value", [("epsilon", 0.0), ("epsilon", -1.0),
                                        ("epsilon", "1e400"), ("m", 5)])
def test_rejects_an_invalid_lifting_block(tmp_path, key, value):
    # the blocks stay those of m = 9; m = 5 < n = 6 is refused before its size matters;
    # 1e400 is written unquoted, a JSON number that parses to inf
    model = make_mlp(4, [6], 3, seed=2)
    path = tmp_path / "lifted.rdnm"
    save_model(path, model, Loss("softmax_cross_entropy"),
               redense_layer=build(model.output_weight, model.output_bias, 9, seed=7))
    rewrite_header(path, lambda header: header["redense"].update({key: value}),
                   replace=[(b'"1e400"', b"1e400")])
    want = "invalid header: redense.m = 5 is below n = 6" if key == "m" else "invalid lifting block"
    with pytest.raises(DataFormatError, match=f"lifted.rdnm: {want}"):
        load_model(path)


def _assert_every_strict_prefix_is_refused(path, load):
    raw = path.read_bytes()
    cut = path.with_name("cut")
    for k in range(len(raw)):
        cut.write_bytes(raw[:k])
        with pytest.raises(DataFormatError):
            load(cut)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# keys FeatureBundle decodes; any other key is carried as an opaque string
_DECODED_KEYS = {"base_loss", "huber_delta", "base_train_loss"}


@given(j=st.integers(0, 4), n=st.integers(0, 3), q=st.integers(0, 3), data=st.data(),
       metadata=st.dictionaries(st.text().filter(lambda k: k not in _DECODED_KEYS), st.text(),
                                max_size=4),
       hidden=st.integers(1, 3), extra=st.integers(0, 2), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_files_round_trip_bit_for_bit_and_refuse_every_strict_prefix(
        tmp_path_factory, j, n, q, data, metadata, hidden, extra, seed):
    blocks = [data.draw(hnp.arrays(np.float64, shape, elements=_FINITE))
              for shape in ((j, n), (j, q), (q, n), (q,))]
    directory = tmp_path_factory.mktemp("files")
    bundle_path = directory / "b.rdfb"
    save_feature_bundle(bundle_path, FeatureBundle(*blocks, dict(metadata)))
    loaded = load_feature_bundle(bundle_path)
    loaded_blocks = (loaded.features, loaded.targets, loaded.output_weight, loaded.output_bias)
    assert [a.tobytes() for a in loaded_blocks] == [a.tobytes() for a in blocks]
    assert [a.shape for a in loaded_blocks] == [a.shape for a in blocks]
    assert loaded.metadata == metadata
    _assert_every_strict_prefix_is_refused(bundle_path, load_feature_bundle)

    model = make_mlp(2, [hidden], 2, seed=seed)
    model_path = directory / "m.rdnm"
    save_model(model_path, model, CE,
               redense_layer=build(model.output_weight, model.output_bias, hidden + extra,
                                   seed=seed))
    _assert_every_strict_prefix_is_refused(model_path, load_model)


def test_curve_single_row(tmp_path):
    path = tmp_path / "c.csv"
    write_curve(path, [EpochStats(0, 1.5, 2.5, 0.75)])
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == "epoch,train_loss,test_loss,test_accuracy"


def test_curve_round_trip_exact_values(tmp_path, rng):
    rows = [(e, float(rng.standard_normal() ** 2), float(rng.standard_normal() ** 2),
             float(rng.random())) for e in range(25)]
    path = tmp_path / "c.csv"
    write_curve(path, [EpochStats(*row) for row in rows])
    back = read_curve(path)
    assert back == rows


def test_curve_rejects_non_finite_and_empty(tmp_path):
    path = tmp_path / "c.csv"
    with pytest.raises(ValueError):
        write_curve(path, [])
    with pytest.raises(ValueError):
        write_curve(path, [EpochStats(0, float("nan"), 1.0, 0.5)])
    with pytest.raises(ValueError):
        write_curve(path, [EpochStats(0, 1.0, None, None)])

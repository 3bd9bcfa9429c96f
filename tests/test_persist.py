import struct
from dataclasses import replace

import numpy as np
import pytest

from conftest import CE, random_one_hot, read_curve, rewrite_model_header
from redense.errors import DataFormatError
from redense.layer import HeadConfig, build, predict, train
from redense.nn import EpochStats, Loss, forward, make_mlp
from redense.persist import load_model, save_model, write_curve


def _random_model(rng, with_bias=False):
    widths = list(rng.integers(2, 7, size=int(rng.integers(0, 3))))
    model = make_mlp(int(rng.integers(2, 6)), widths, int(rng.integers(2, 5)),
                     activation="leaky_relu", leaky_slope=0.05,
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
    layer = build(model.output_weight, 9, seed=7)
    layer = replace(layer, delta=rng.standard_normal(layer.delta.shape))
    path = tmp_path / "m.rdnm"
    save_model(path, model, Loss("poisson"), redense_layer=layer)
    loaded_model, loss, loaded_layer = load_model(path)
    assert loss.kind == "poisson"
    assert loaded_layer.n == 6 and loaded_layer.m == 9 and loaded_layer.seed == 7
    assert loaded_layer.epsilon == layer.epsilon
    assert np.array_equal(loaded_layer.R, layer.R)
    assert np.array_equal(loaded_layer.base, loaded_model.output_weight)
    assert np.array_equal(loaded_layer.delta, layer.delta)
    # the file holds no O0: a loaded layer predicts the same logits, but does not train
    assert loaded_layer.O0 is None
    x = rng.standard_normal((7, 6))
    assert np.array_equal(predict(loaded_layer, x), predict(layer, x))
    with pytest.raises(ValueError, match="O0"):
        train(loaded_layer, x, np.eye(3)[[0, 1, 2, 0, 1, 2, 0]], CE, HeadConfig(epochs=1))


def test_save_refuses_a_layer_built_on_another_head(tmp_path):
    model = make_mlp(4, [6], 3, seed=2)
    layer = build(make_mlp(4, [6], 3, seed=3).output_weight, 9, seed=7)
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


def test_rejects_unknown_version(tmp_path, rng):
    model = _random_model(rng)
    path = tmp_path / "m.rdnm"
    save_model(path, model, Loss("softmax_cross_entropy"))
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 999)
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="version"):
        load_model(path)


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


def test_rejects_trailing_bytes(tmp_path):
    model = make_mlp(3, [4], 2, seed=0)
    path = tmp_path / "m.rdnm"
    save_model(path, model, Loss("softmax_cross_entropy"))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataFormatError, match="trailing"):
        load_model(path)


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
                                        ("epsilon", float("nan")), ("m", 5)])
def test_rejects_an_invalid_lifting_block(tmp_path, key, value):
    # the blocks stay those of m = 9; m = 5 < n = 6 is refused before its size matters
    model = make_mlp(4, [6], 3, seed=2)
    path = tmp_path / "lifted.rdnm"
    save_model(path, model, Loss("softmax_cross_entropy"),
               redense_layer=build(model.output_weight, 9, seed=7))
    rewrite_model_header(path, lambda header: header["redense"].update({key: value}))
    with pytest.raises(DataFormatError, match="lifted.rdnm: invalid lifting block"):
        load_model(path)


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

"""Serialization of trained models, lifting layers and learning curves.

Model files are binary: magic RDNM, a u32 version, a length-prefixed JSON
architecture header, then raw float64 little-endian parameter blocks in
header order. A lifting layer adds R and the trained correction Delta; its
base head is the model's output weight, stored once. Curves are plain CSV
with 17-significant-digit floats, so every value reloads bit-exact.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .data import _atomic_open, _read_exact, _read_le_block
from .errors import ConstraintError, DataFormatError
from .layer import RedenseLayer
from .nn import Activation, Layer, Loss, MlpModel

MODEL_MAGIC = b"RDNM"
MODEL_VERSION = 2

CURVE_HEADER = "epoch,train_loss,test_loss,test_accuracy"


def _architecture_header(model: MlpModel, loss: Loss, redense_layer: RedenseLayer | None):
    header = {
        "input_width": model.input_width,
        "layers": [
            {"width": layer.weight.shape[0],
             "activation": layer.activation.kind,
             "slope": layer.activation.slope}
            for layer in model.layers
        ],
        "n_outputs": model.n_outputs,
        "loss": {"kind": loss.kind, "delta": loss.delta},
        "redense": None,
    }
    if redense_layer is not None:
        header["redense"] = {
            "n": redense_layer.n,
            "m": redense_layer.m,
            "seed": redense_layer.seed,
            "epsilon": redense_layer.epsilon,
        }
    return header


def _parameter_blocks(model: MlpModel, redense_layer: RedenseLayer | None):
    for layer in model.layers:
        yield layer.weight
        yield layer.bias
    yield model.output_weight
    yield model.output_bias
    if redense_layer is not None:
        yield redense_layer.R
        yield redense_layer.delta


def save_model(path, model: MlpModel, loss: Loss, redense_layer: RedenseLayer | None = None):
    if redense_layer is not None and (
            redense_layer.base.shape != model.output_weight.shape
            or redense_layer.base.tobytes() != model.output_weight.tobytes()):
        raise ValueError("the lifting layer's base head is not the model's output weight")
    header = json.dumps(_architecture_header(model, loss, redense_layer),
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    with _atomic_open(path) as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<I", MODEL_VERSION))
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for block in _parameter_blocks(model, redense_layer):
            f.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def load_model(path):
    """Load a model file; returns (model, loss, redense_layer_or_None)."""
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, path, "magic")
        if magic != MODEL_MAGIC:
            raise DataFormatError(f"bad magic {magic!r}", path=path, offset=0)
        (version,) = struct.unpack("<I", _read_exact(f, 4, path, "version"))
        if version != MODEL_VERSION:
            raise DataFormatError(f"unsupported model version {version}", path=path, offset=4)
        (header_len,) = struct.unpack("<I", _read_exact(f, 4, path, "header length"))
        raw_header = _read_exact(f, header_len, path, "header")
        try:
            header = json.loads(raw_header.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataFormatError(f"unparseable header: {exc}", path=path, offset=12) from None
        try:
            fan_in = int(header["input_width"])
            layer_specs = [(int(s["width"]), Activation(s["activation"], slope=float(s["slope"])))
                           for s in header["layers"]]
            n_outputs = int(header["n_outputs"])
            loss = Loss(header["loss"]["kind"], delta=float(header["loss"]["delta"]))
            spec = header["redense"]
            lift = None if spec is None else (int(spec["n"]), int(spec["m"]),
                                              float(spec["epsilon"]), int(spec["seed"]))
        except KeyError as exc:
            raise DataFormatError(f"header is missing key {exc}", path=path, offset=12) from None
        except (TypeError, ValueError) as exc:
            raise DataFormatError(f"invalid header: {exc}", path=path, offset=12) from None
        if fan_in < 1 or n_outputs < 1 or any(width < 1 for width, _ in layer_specs):
            raise DataFormatError("non-positive width in header", path=path, offset=12)

        layers = []
        for width, activation in layer_specs:
            weight = _read_le_block(f, (width, fan_in), path, "layer weight")
            bias = _read_le_block(f, (width,), path, "layer bias")
            layers.append(Layer(weight, bias, activation))
            fan_in = width
        output_weight = _read_le_block(f, (n_outputs, fan_in), path, "output weight")
        output_bias = _read_le_block(f, (n_outputs,), path, "output bias")
        model = MlpModel(layers, output_weight, output_bias)

        redense_layer = None
        if lift is not None:
            n, m, epsilon, seed = lift
            if n != fan_in:
                raise DataFormatError(f"lifting block width n={n} does not match "
                                      f"feature width {fan_in}", path=path)
            r = _read_le_block(f, (m, n), path, "projection matrix")
            delta = _read_le_block(f, (n_outputs, 2 * m), path, "head correction")
            try:
                redense_layer = RedenseLayer(R=r, epsilon=epsilon, base=output_weight,
                                             delta=delta, seed=seed)
            except ConstraintError as exc:
                raise DataFormatError(f"invalid lifting block: {exc}", path=path) from None
        trailing = f.read(1)
        if trailing:
            raise DataFormatError("trailing bytes after parameter blocks", path=path,
                                  offset=f.tell() - 1)
    return model, loss, redense_layer


def write_curve(path, curve):
    """CSV curve file from rows with epoch, train_loss, eval_loss and eval_accuracy
    attributes; rejects empty curves and non-finite entries."""
    rows = [(r.epoch, r.train_loss, r.eval_loss, r.eval_accuracy) for r in curve]
    if not rows:
        raise ValueError("curve is empty")
    for row in rows:
        if any(v is None or not np.isfinite(v) for v in row):
            raise ValueError(f"curve row {row!r} has missing or non-finite entries")
    with _atomic_open(path, "w") as f:
        f.write(CURVE_HEADER + "\n")
        for epoch, train_loss, test_loss, test_accuracy in rows:
            f.write(f"{int(epoch)},{train_loss:.17g},{test_loss:.17g},{test_accuracy:.17g}\n")


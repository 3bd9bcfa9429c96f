"""Model and curve files; README, "File formats", specifies them."""

from __future__ import annotations

import numpy as np

from .data import _atomic_open, _read_container, _write_container
from .errors import ConstraintError, DataFormatError
from .layer import RedenseLayer, _same_output_layer
from .nn import _LEAKY_SLOPE, Activation, Layer, Loss, MlpModel

MODEL_MAGIC = b"RDNM"
MODEL_VERSION = 2
# the header _architecture_header writes, declared as data._check_header reads it
MODEL_HEADERS = {MODEL_VERSION: {
    "input_width": int,
    "layers": [{"width": int, "activation": str, "slope": float}, ...],
    "n_outputs": int,
    "loss": {"kind": str, "delta": float},
    "redense": (None, {"n": int, "m": int, "seed": int, "epsilon": float}),
}}

CURVE_HEADER = "epoch,train_loss,test_loss,test_accuracy"


def _architecture_header(model: MlpModel, loss: Loss, redense_layer: RedenseLayer | None):
    header = {
        "input_width": model.input_width,
        "layers": [
            {"width": layer.weight.shape[0],
             "activation": layer.activation.kind,
             "slope": _LEAKY_SLOPE}  # every layer's, so that files keep their bytes
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
    if redense_layer is not None and not _same_output_layer(
            (redense_layer.base, redense_layer.bias), (model.output_weight, model.output_bias)):
        raise ValueError("the lifting layer's base head is not the model's output layer")
    _write_container(path, MODEL_MAGIC, MODEL_VERSION,
                     _architecture_header(model, loss, redense_layer),
                     _parameter_blocks(model, redense_layer))


def load_model(path):
    """Load a model file; returns (model, loss, redense_layer_or_None)."""
    with _read_container(path, MODEL_MAGIC, MODEL_HEADERS) as (header, read_block):
        fan_in, n_outputs, spec = header["input_width"], header["n_outputs"], header["redense"]
        try:
            loss = Loss(header["loss"]["kind"], delta=header["loss"]["delta"])
            layer_specs = [(s["width"], Activation(s["activation"])) for s in header["layers"]]
            for s in header["layers"]:
                if s["slope"] != _LEAKY_SLOPE:
                    raise ValueError(f"layer slope {s['slope']:g} is not {_LEAKY_SLOPE}")
        except ValueError as exc:
            raise DataFormatError(f"invalid header: {exc}", path=path, offset=12) from None
        if fan_in < 1 or n_outputs < 1 or any(width < 1 for width, _ in layer_specs):
            raise DataFormatError("non-positive width in header", path=path, offset=12)

        layers = []
        for width, activation in layer_specs:
            layers.append(Layer(read_block((width, fan_in), "layer weight"),
                                read_block((width,), "layer bias"), activation))
            fan_in = width
        model = MlpModel(layers, read_block((n_outputs, fan_in), "output weight"),
                         read_block((n_outputs,), "output bias"))

        redense_layer = None
        if spec is not None:
            n, m, epsilon, seed = spec["n"], spec["m"], spec["epsilon"], spec["seed"]
            if n != fan_in:
                raise DataFormatError(f"lifting block width n={n} does not match "
                                      f"feature width {fan_in}", path=path)
            if m < n:  # before the blocks, whose sizes m sets
                raise DataFormatError(f"invalid header: redense.m = {m} is below n = {n}",
                                      path=path, offset=12)
            r = read_block((m, n), "projection matrix")
            delta = read_block((n_outputs, 2 * m), "head correction")
            try:
                redense_layer = RedenseLayer(R=r, epsilon=epsilon, base=model.output_weight,
                                             bias=model.output_bias, delta=delta, seed=seed)
            except ConstraintError as exc:
                raise DataFormatError(f"invalid lifting block: {exc}", path=path) from None
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


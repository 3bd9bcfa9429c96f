"""Batch command-line front-end.

Subcommands cover the whole pipeline: train a base MLP, export a feature
bundle, retrain a lifted head on a bundle (from this tool or an external
export), sweep the projection width, and evaluate saved models. Every run
writes a JSON manifest sufficient to reproduce it and prints its results and
output paths as key=value lines. The CLI parses flags and maps exceptions to
the exit codes of README's table; the library owns the defaults and the checks.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import data as datamod
from . import layer as layermod
from . import nn, persist
from .errors import TrainingDivergedError

EXIT_OK = 0
EXIT_FLAGS = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
EXIT_GUARANTEE = 5
# what OpenBLAS calls its thread count and core reports: scipy-openblas64, then plain
_OPENBLAS_NAMES = ("scipy_openblas_get_{}64_", "openblas_get_{}")


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _emit(key, value):
    if isinstance(value, bool):
        value = "true" if value else "false"
    elif isinstance(value, float):
        value = f"{value:.17g}"
    elif isinstance(value, list):
        value = ",".join(str(v) for v in value)
    print(f"{key}={value}")


def _now():
    return datetime.now(timezone.utc).isoformat()


def _file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _openblas():
    """(thread count, core name) as the OpenBLAS that numpy loaded reports them; None
    for each where no such library or report is found."""
    try:
        with open("/proc/self/maps") as f:  # Linux: the files this process has mapped
            paths = sorted({line.split()[-1] for line in f if "openblas" in line})
        for lib in map(ctypes.CDLL, paths):  # loaded already, so this is numpy's copy
            for name in _OPENBLAS_NAMES:
                threads, core = (getattr(lib, name.format(f), None)
                                 for f in ("num_threads", "corename"))
                if threads and core:
                    threads.argtypes, threads.restype = [], ctypes.c_int
                    core.argtypes, core.restype = [], ctypes.c_char_p
                    return threads(), core().decode()
    except OSError:
        pass
    return None, None


def _environment():
    """What fixes a run's bits besides its seed; the BLAS thread count and core do (README)."""
    try:  # numpy before 1.25 reports no BLAS
        blas = {k: np.show_config(mode="dicts")["Build Dependencies"]["blas"].get(k)
                for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    threads, core = _openblas()
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "num_threads": threads, "blas_core": core}


def _write_manifest(args, started_at, outputs, results):
    flags = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "subcommand": args.subcommand,
        "flags": flags,
        "started_at": started_at,
        "finished_at": _now(),
        # the process's peak so far: for an in-process caller, not this command's alone
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / (2**20 if sys.platform == "darwin" else 2**10),
        "environment": _environment(),
        "outputs": {k: str(v) for k, v in outputs.items()},
        "results": results,
    }
    with datamod._atomic_open(outputs["manifest"], "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True, default=str)
        f.write("\n")


def _seed(text):
    """argparse type for --seed: a non-negative integer."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return int(text)


def _positive_ints(text):
    """argparse type for comma-separated positive integers; '' is no values."""
    if not text:
        return []
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None
    if any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"values must be positive, got {text!r}")
    return values


def _add_data_flags(parser, split=True):
    parser.add_argument("--images", required=True, help="IDX image file")
    parser.add_argument("--labels", required=True, help="IDX label file")
    if split:  # eval scores the whole dataset
        parser.add_argument("--train-fraction", type=float,
                            default=datamod.SplitSpec.train_fraction)


def _resolve_datasets(args):
    """Return (train, test) datasets from the data flags, checked before any file is read.

    train's --test-images/--test-labels pair is the test set when given, and
    features' --no-split keeps the whole primary dataset as train, with test
    None. Otherwise the primary dataset is shuffled into train and test, the
    first --train-fraction of the rows and the rest.
    """
    test_pair = [getattr(args, "test_images", None), getattr(args, "test_labels", None)]
    if any(test_pair) and not all(test_pair):
        raise CliError(EXIT_FLAGS, "--test-images and --test-labels must be given together")
    try:
        spec = datamod.SplitSpec(args.train_fraction, args.seed)
    except ValueError as exc:
        raise CliError(EXIT_FLAGS, str(exc)) from None
    primary = datamod.load_idx(args.images, args.labels)
    if all(test_pair):
        return primary, datamod.load_idx(*test_pair)
    if getattr(args, "no_split", False):
        return primary, None
    try:
        return datamod.split(primary, spec)
    except ValueError as exc:
        raise CliError(EXIT_FLAGS, str(exc)) from None


def cmd_train(args):
    try:
        loss = nn.make_loss(args.loss, delta=args.huber_delta)
        activation = nn.Activation(args.activation, slope=args.leaky_slope)
        cfg = nn.TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                             batch_size=args.batch_size, seed=args.seed)
    except ValueError as exc:
        raise CliError(EXIT_FLAGS, str(exc)) from None
    train_ds, test_ds = _resolve_datasets(args)
    model = nn.make_mlp(train_ds.inputs.shape[1], args.hidden,
                        train_ds.targets.shape[1], activation=activation, seed=args.seed)
    model, curve = nn.train_base(model, train_ds, loss, cfg, eval_data=test_ds)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = out_dir / "model.rdnm"
    curve_path = out_dir / "curve.csv"
    persist.save_model(model_path, model, loss)
    persist.write_curve(curve_path, curve)
    final = curve[-1]
    results = {
        "final_train_loss": final.train_loss,
        "final_test_loss": final.eval_loss,
        "final_test_accuracy": final.eval_accuracy,
        "model_sha256": _file_sha256(model_path),
    }
    return results, {"model": model_path, "curve": curve_path,
                     "manifest": out_dir / "train_manifest.json"}


def cmd_features(args):
    train_ds, _test_ds = _resolve_datasets(args)
    model, loss, _ = persist.load_model(args.model)
    logits, features = nn.forward(model, train_ds.inputs)
    base_train_loss = nn.loss_value(loss, logits, train_ds.targets)
    # kept only because perfbench/workloads.py's judge reads it
    ce = nn.Loss("softmax_cross_entropy")
    ce_train_loss = (base_train_loss if loss.kind == ce.kind
                     else nn.loss_value(ce, logits, train_ds.targets))
    metadata = {
        "source_model": Path(args.model).name,
        "base_loss": loss.kind,
        "huber_delta": f"{loss.delta:.17g}",
        "base_train_loss": f"{base_train_loss:.17g}",
        "ce_train_loss": f"{ce_train_loss:.17g}",
    }
    bundle = datamod.FeatureBundle(features, train_ds.targets, model.output_weight,
                                   model.output_bias, metadata)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    datamod.save_feature_bundle(out_path, bundle)

    results = {
        "rows": features.shape[0],
        "feature_width": features.shape[1],
        "n_outputs": train_ds.targets.shape[1],
        "base_train_loss": base_train_loss,
        "ce_train_loss": ce_train_loss,
        "bundle_sha256": _file_sha256(out_path),
    }
    return results, {"bundle": out_path,
                     "manifest": out_path.with_suffix(out_path.suffix + ".manifest.json")}


def _check_same_model(name, source, bundle):
    """Refuse source unless its output layer is the bundle's bit for bit (which fixes n and Q)."""
    if not layermod._same_output_layer((source.output_weight, source.output_bias),
                                       (bundle.output_weight, bundle.output_bias)):
        raise CliError(EXIT_DATA, f"{name} is not from the training bundle's model: its "
                                  f"{source.output_weight.shape} output weight or its output "
                                  f"bias differs from the bundle's {bundle.output_weight.shape}")


def _load_head_inputs(args, widths):
    """What redense and sweep-m train on, checked before any head trains or output
    directory is made: the head flags, the bundle, the widths (None is n), the eval
    bundle's output layer, then redense's --model. Returns (cfg, bundle, widths,
    eval_bundle, model), with None for an absent eval bundle or model."""
    try:
        cfg = layermod.HeadConfig(learning_rate=args.lr, epochs=args.epochs)
    except ValueError as exc:
        raise CliError(EXIT_FLAGS, str(exc)) from None
    bundle = datamod.load_feature_bundle(args.bundle)
    n = bundle.features.shape[1]
    widths = [n if m is None else m for m in widths]
    bad = [m for m in widths if m < n]
    if bad:
        raise CliError(EXIT_FLAGS, f"projection widths {bad} are below n={n}")
    eval_bundle = model = None
    if args.eval_bundle:
        eval_bundle = datamod.load_feature_bundle(args.eval_bundle)
        _check_same_model(f"eval bundle {args.eval_bundle}", eval_bundle, bundle)
    if getattr(args, "model", None):  # sweep-m has no --model
        model, stored_loss, lifted = persist.load_model(args.model)
        if lifted is not None:
            raise CliError(EXIT_DATA, f"model {args.model} already has a lifting layer: "
                                      "pass the base model it was built on")
        _check_same_model(f"model {args.model}", model, bundle)
        if stored_loss != bundle.loss:
            raise CliError(EXIT_DATA, f"model {args.model} stores loss {stored_loss.kind} "
                                      f"(delta {stored_loss.delta:.17g}), not the bundle's")
    return cfg, bundle, widths, eval_bundle, model


def _train_heads(bundle, widths, seeds, cfg, eval_bundle=None):
    """layer.train_widths on a bundle, in its base loss, for redense and sweep-m; a
    broken guarantee stops it. The heads need only what train_widths prepared, so
    the bundles' float64 features are dropped (set to None) before any trains."""
    held_out = () if eval_bundle is None else (eval_bundle.features, eval_bundle.targets)
    runs = layermod.train_widths(bundle.output_weight, bundle.output_bias, widths, seeds,
                                 bundle.features, bundle.targets, bundle.loss, cfg, *held_out)
    bundle.features = (eval_bundle or bundle).features = None
    return map(_checked, runs)


def _checked(run):
    trained, report, _ = run
    if not report.guarantee_holds:
        raise CliError(EXIT_GUARANTEE,
                       f"guarantee violated at m={trained.m}, seed={trained.seed} "
                       f"(final_loss={report.final_loss:.17g}, "
                       f"old_loss={report.old_loss:.17g}): this is a defect in the "
                       "tool, not in the inputs")
    return run


def cmd_redense(args):
    cfg, bundle, (m,), eval_bundle, model = _load_head_inputs(args, [args.m])
    if model is None:
        # external bundle: persist a standalone head (no hidden layers)
        model = nn.MlpModel([], bundle.output_weight, bundle.output_bias)

    trained, report, curve = next(_train_heads(bundle, [m], [args.seed], cfg, eval_bundle))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_out = out_dir / ("model_with_redense.rdnm" if args.model else "redense_head.rdnm")
    persist.save_model(model_out, model, bundle.loss, redense_layer=trained)
    curve_path = out_dir / "redense_curve.csv"
    persist.write_curve(curve_path, curve)

    results = {
        "cond_r": trained.cond_r,
        "resamples": trained.resamples,
        "loss_kind": bundle.loss.kind,
        "old_loss": report.old_loss,
        "final_loss": report.final_loss,
        "epsilon": report.epsilon,
        "guarantee_holds": report.guarantee_holds,
        "stop_reason": report.stop_reason,
        "stopped_at": report.stopped_at,
        "best_epoch": report.best_epoch,
        "eval_source": "eval_bundle" if eval_bundle else "training_features",
        # the returned head is the best iterate, not the last one
        "final_eval_loss": curve[report.best_epoch].eval_loss,
        "final_eval_accuracy": curve[report.best_epoch].eval_accuracy,
        "m": m,
        "model_sha256": _file_sha256(model_out),
    }
    return results, {"model": model_out, "curve": curve_path,
                     "manifest": out_dir / "redense_manifest.json"}


def cmd_sweep_m(args):
    if args.seeds < 1:
        raise CliError(EXIT_FLAGS, f"--seeds must be >= 1, got {args.seeds}")
    if not args.m_values:
        raise CliError(EXIT_FLAGS, "--m-values names no width")
    cfg, bundle, widths, eval_bundle, _ = _load_head_inputs(args, args.m_values)

    seeds = range(args.seed, args.seed + args.seeds)
    # map, not a loop: a loop variable would keep a seed's last layer, and
    # with it that seed's draw, alive while the next seed's is drawn
    runs = list(map(_sweep_row, _train_heads(bundle, widths, seeds, cfg, eval_bundle)))
    # trained seed by seed, tabulated width by width
    rows = [runs[s * len(widths) + i] for i in range(len(widths)) for s in range(args.seeds)]

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "sweep.csv"
    with datamod._atomic_open(csv_path, "w") as f:
        f.write("m,seed,epsilon,final_train_loss,test_accuracy\n")
        for m, s, eps, fl, acc, _, _ in rows:
            f.write(f"{m},{s},{eps:.17g},{fl:.17g},{acc:.17g}\n")
    # cond_r and resamples: one entry per row of the table, in its order
    results = {"rows": len(rows), "m_values": args.m_values, "seeds": args.seeds,
               "eval_source": "eval_bundle" if eval_bundle else "training_features",
               "cond_r": [r[5] for r in rows], "resamples": [r[6] for r in rows]}
    return results, {"table": csv_path, "manifest": out_dir / "sweep_manifest.json"}


def _sweep_row(run):
    trained, report, curve = run
    return (trained.m, trained.seed, report.epsilon, report.final_loss,
            curve[report.best_epoch].eval_accuracy, trained.cond_r, trained.resamples)


def cmd_eval(args):
    dataset = datamod.load_idx(args.images, args.labels)
    model, loss, redense_layer = persist.load_model(args.model)
    logits, features = nn.forward(model, dataset.inputs)
    base_loss = nn.loss_value(loss, logits, dataset.targets)
    base_acc = nn.accuracy(logits, dataset.targets)
    results = {"loss_kind": loss.kind, "base_loss": base_loss, "base_accuracy": base_acc}
    if redense_layer is not None:
        head_logits = layermod.predict(redense_layer, features)
        results["redense_loss"] = nn.loss_value(loss, head_logits, dataset.targets)
        results["redense_accuracy"] = nn.accuracy(head_logits, dataset.targets)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return results, {"manifest": out_dir / "eval_manifest.json"}


def build_parser():
    parser = argparse.ArgumentParser(prog="redense",
                                     description="Random ReLU lifting for trained networks")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    seeded = argparse.ArgumentParser(add_help=False)  # every subcommand but eval takes --seed
    seeded.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("train", help="train a base MLP", parents=[seeded])
    _add_data_flags(p)
    p.add_argument("--test-images", help="IDX image file for the test set")
    p.add_argument("--test-labels", help="IDX label file for the test set")
    p.add_argument("--hidden", type=_positive_ints, default="16",
                   help="comma-separated hidden widths ('' for none)")
    p.add_argument("--activation", default="relu", choices=nn.ACTIVATION_KINDS)
    p.add_argument("--leaky-slope", type=float, default=nn.Activation.slope)
    p.add_argument("--loss", default="ce", help="ce | mse | poisson | huber")
    p.add_argument("--huber-delta", type=float, default=nn.Loss.delta)
    p.add_argument("--lr", type=float, default=nn.TrainConfig.learning_rate)
    p.add_argument("--epochs", type=int, default=nn.TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=nn.TrainConfig.batch_size)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("features", help="export a feature bundle from a trained model",
                       parents=[seeded])
    _add_data_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="bundle output path")
    p.add_argument("--no-split", action="store_true",
                   help="use the whole primary dataset instead of its train partition")
    p.set_defaults(func=cmd_features)

    heads = argparse.ArgumentParser(add_help=False)  # redense and sweep-m share these
    heads.add_argument("--bundle", required=True)
    heads.add_argument("--eval-bundle", help="bundle with held-out features for curve columns")
    heads.add_argument("--lr", type=float, default=layermod.HeadConfig.learning_rate)
    heads.add_argument("--epochs", type=int, default=layermod.HeadConfig.epochs)
    heads.add_argument("--out-dir", default=".")

    p = sub.add_parser("redense", help="retrain a lifted head on a feature bundle",
                       parents=[seeded, heads])
    p.add_argument("--model", help="model file to attach the trained layer to")
    p.add_argument("--m", type=int, default=None, help="projection width (default: n)")
    p.set_defaults(func=cmd_redense)

    p = sub.add_parser("sweep-m", help="sweep projection widths and seeds",
                       parents=[seeded, heads])
    p.add_argument("--m-values", type=_positive_ints, required=True,
                   help="comma-separated widths")
    p.add_argument("--seeds", type=int, default=20)
    p.set_defaults(func=cmd_sweep_m)

    p = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    _add_data_flags(p, split=False)
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", default=".", help="where eval_manifest.json is written")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    """Run one subcommand: call it, write its manifest, print.

    Each ``cmd_*`` returns ``(results, outputs)``; ``outputs`` maps names to
    the paths it wrote and includes the manifest path. The manifest records
    both, and stdout repeats every result and then every path as key=value.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_FLAGS
    try:
        started = _now()
        results, outputs = args.func(args)
        _write_manifest(args, started, outputs, results)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (OSError, ValueError) as exc:
        # ValueError covers DataFormatError, ShapeError, NonFiniteError and ConstraintError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    for key, value in [*results.items(), *outputs.items()]:
        _emit(key, value)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end demo on synthetic data.

Trains a small MLP, exports its feature bundle, retrains the lifted head and
evaluates both heads, all through the CLI so every artifact and manifest
lands in the output directory. It ends with a `sha256  name` line for each
file it wrote, manifests excluded, so two runs' stdout diff to nothing when
their files are byte-identical.
"""

import argparse
import hashlib
import sys
from pathlib import Path

from redense.cli import main as cli


def run(argv):
    code = cli(argv)
    if code != 0:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="runs/pipeline")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--loss", default="ce")
    args = parser.parse_args()

    out = Path(args.out_dir)
    data = ["--synthetic", "blobs", "--samples", "600", "--classes", "3",
            "--noise", "0.5", "--seed", str(args.seed)]

    print("== train base model ==")
    run(["train", *data, "--hidden", "16", "--loss", args.loss,
         "--lr", "5e-3", "--epochs", "60", "--out-dir", str(out)])

    print("== export feature bundle ==")
    bundle = out / "features.rdfb"
    run(["features", "--model", str(out / "model.rdnm"), *data, "--out", str(bundle)])

    print("== retrain lifted head ==")
    run(["redense", "--bundle", str(bundle), "--model", str(out / "model.rdnm"),
         "--lr", "1e-2", "--epochs", "150", "--seed", str(args.seed),
         "--out-dir", str(out)])

    print("== evaluate with and without the lifted head ==")
    run(["eval", "--model", str(out / "model_with_redense.rdnm"), *data,
         "--out-dir", str(out)])

    print("== sha256 of the files written, manifests excluded ==")
    for name in sorted(["model.rdnm", "curve.csv", bundle.name, "model_with_redense.rdnm",
                        "redense_curve.csv"]):
        print(f"{hashlib.sha256((out / name).read_bytes()).hexdigest()}  {name}")


if __name__ == "__main__":
    main()

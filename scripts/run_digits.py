#!/usr/bin/env python3
"""Desk-scale digit-image experiment through the IDX pathway.

Uses real MNIST IDX files when REDENSE_MNIST_DIR points at them, otherwise
writes a generated digit-image corpus at the same scale, then runs
train -> features -> redense -> eval end to end in the loss --loss names.
After each command it prints the peak_rss_mib of that command's manifest to
stderr: the commands share one process, so each reading is the peak so far,
and the command whose reading first reaches the last one sets the pipeline's
peak. Stdout starts with the BLAS thread count and core that the train
manifest records, which fix the bits along with the seed, and ends with a
`sha256  name` line for each file the commands wrote, manifests excluded,
sorted by name; so, given the same --out-dir, two runs' stdout diff to nothing
when their files are byte-identical and were made under the same BLAS.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from redense.cli import main as cli
from redense.data import gen_digit_images, write_idx


def idx_files(out):
    mnist_dir = os.environ.get("REDENSE_MNIST_DIR")
    if mnist_dir:
        base = Path(mnist_dir)
        return (base / "train-images-idx3-ubyte", base / "train-labels-idx1-ubyte",
                base / "t10k-images-idx3-ubyte", base / "t10k-labels-idx1-ubyte")
    out.mkdir(parents=True, exist_ok=True)
    paths = (out / "train-images", out / "train-labels",
             out / "test-images", out / "test-labels")
    if not all(p.exists() for p in paths):
        images, labels = gen_digit_images(12_000, seed=2024)
        write_idx(paths[0], paths[1], images[:10_000], labels[:10_000])
        write_idx(paths[2], paths[3], images[10_000:], labels[10_000:])
    return paths


def run(argv, manifest):
    """Run one command, print its peak_rss_mib to stderr and return its manifest."""
    code = cli(argv)
    if code != 0:
        sys.exit(code)
    with open(manifest) as f:
        recorded = json.load(f)
    print(f"peak_rss_mib={recorded['peak_rss_mib']:.1f}", file=sys.stderr)
    return recorded


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="runs/digits")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--loss", default="ce", help="ce | mse | poisson | huber")
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--redense-epochs", type=int, default=200)
    parser.add_argument("--redense-lr", type=float, default=1e-5)
    args = parser.parse_args()

    out = Path(args.out_dir)
    tri, trl, tei, tel = idx_files(out / "data")

    train_out = io.StringIO()
    with contextlib.redirect_stdout(train_out):
        env = run(["train", "--images", str(tri), "--labels", str(trl),
                   "--test-images", str(tei), "--test-labels", str(tel),
                   "--hidden", "64", "--loss", args.loss, "--lr", "1e-3",
                   "--epochs", str(args.epochs), "--batch-size", "128",
                   "--seed", str(args.seed), "--out-dir", str(out)],
                  out / "train_manifest.json")["environment"]
    print(f"blas_threads={env['num_threads']} blas_core={env['blas_core']}")
    print("== train base model ==")
    print(train_out.getvalue(), end="")

    print("== export bundles ==")
    train_bundle = out / "train.rdfb"
    test_bundle = out / "test.rdfb"
    run(["features", "--model", str(out / "model.rdnm"), "--images", str(tri),
         "--labels", str(trl), "--out", str(train_bundle)],
        f"{train_bundle}.manifest.json")
    run(["features", "--model", str(out / "model.rdnm"), "--images", str(tei),
         "--labels", str(tel), "--out", str(test_bundle)],
        f"{test_bundle}.manifest.json")

    print("== retrain lifted head ==")
    run(["redense", "--bundle", str(train_bundle), "--eval-bundle", str(test_bundle),
         "--model", str(out / "model.rdnm"), "--lr", str(args.redense_lr),
         "--epochs", str(args.redense_epochs), "--seed", str(args.seed),
         "--out-dir", str(out)], out / "redense_manifest.json")

    print("== compare heads on the test set ==")
    run(["eval", "--model", str(out / "model_with_redense.rdnm"),
         "--images", str(tei), "--labels", str(tel), "--out-dir", str(out)],
        out / "eval_manifest.json")

    print("== sha256 of the files written, manifests excluded ==")
    for name in sorted(["model.rdnm", "curve.csv", train_bundle.name, test_bundle.name,
                        "model_with_redense.rdnm", "redense_curve.csv"]):
        print(f"{hashlib.sha256((out / name).read_bytes()).hexdigest()}  {name}")


if __name__ == "__main__":
    main()

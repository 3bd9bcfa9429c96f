#!/usr/bin/env python3
"""Projection-width experiment.

Sweeps the random projection width m over multiples of the feature width n
and reports how the constraint radius and the retrained losses move. Wider
projections shrink the radius (the pseudo-inverse of a taller Gaussian
matrix is smaller), which tightens the head against overfitting.

The data is a generated digit-image corpus written as two IDX pairs, a
training set and a held-out test set. The base network trains on the
whole training set, each set is exported as a feature bundle with
--no-split, and sweep-m scores every head on the test bundle, so the
accuracy column is held-out accuracy.
"""

import argparse
from collections import defaultdict
from pathlib import Path

import numpy as np

from redense.cli import main as cli
from redense.data import gen_digit_images, write_idx

TRAIN_ROWS, TEST_ROWS, HIDDEN = 2_000, 500, 16


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="runs/width_sweep")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--multiples", default="1,2,3,4")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    images, labels = gen_digit_images(TRAIN_ROWS + TEST_ROWS, seed=args.seed)
    data = {}
    for part, rows in (("train", slice(TRAIN_ROWS)), ("test", slice(TRAIN_ROWS, None))):
        paths = out / f"{part}-images", out / f"{part}-labels"
        write_idx(*paths, images[rows], labels[rows])
        data[part] = ["--images", str(paths[0]), "--labels", str(paths[1])]

    assert cli(["train", *data["train"], "--test-images", data["test"][1],
                "--test-labels", data["test"][3], "--hidden", str(HIDDEN), "--lr", "1e-3",
                "--epochs", "20", "--batch-size", "128", "--seed", str(args.seed),
                "--out-dir", str(out)]) == 0
    for part in data:
        assert cli(["features", "--model", str(out / "model.rdnm"), *data[part], "--no-split",
                    "--out", str(out / f"{part}.rdfb")]) == 0

    m_values = ",".join(str(HIDDEN * int(k)) for k in args.multiples.split(","))
    assert cli(["sweep-m", "--bundle", str(out / "train.rdfb"),
                "--eval-bundle", str(out / "test.rdfb"), "--m-values", m_values,
                "--seeds", str(args.seeds), "--lr", "1e-3", "--epochs", "50",
                "--seed", str(args.seed), "--out-dir", str(out)]) == 0

    by_m = defaultdict(lambda: defaultdict(list))
    for line in (out / "sweep.csv").read_text().strip().splitlines()[1:]:
        m, _seed, eps, final_loss, acc = line.split(",")
        by_m[int(m)]["eps"].append(float(eps))
        by_m[int(m)]["loss"].append(float(final_loss))
        by_m[int(m)]["acc"].append(float(acc))

    print(f"\n{'m':>6} {'mean eps':>12} {'mean final loss':>16} {'mean test accuracy':>19}")
    for m in sorted(by_m):
        stats = by_m[m]
        print(f"{m:>6} {np.mean(stats['eps']):>12.4f} "
              f"{np.mean(stats['loss']):>16.4f} {np.mean(stats['acc']):>19.4f}")


if __name__ == "__main__":
    main()

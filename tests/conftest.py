import json
import struct

import numpy as np
import pytest

from redense.data import gen_digit_images, write_idx
from redense.errors import ShapeError
from redense.nn import Dataset, Loss
from redense.persist import CURVE_HEADER

CE = Loss("softmax_cross_entropy")

ACCEPTANCE_RESULTS = []


def record_acceptance(name, passed, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_RESULTS.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


def one_hot(labels, classes):
    labels = np.asarray(labels)
    t = np.zeros((labels.shape[0], classes))
    t[np.arange(labels.shape[0]), labels] = 1.0
    return t


def random_one_hot(rng, rows, classes):
    return one_hot(rng.integers(0, classes, rows), classes)


def blobs(j=80, classes=2, noise=0.3, seed=0):
    """2-D inputs around classes points on a circle of radius 2, balanced within one."""
    rng = np.random.default_rng(seed)
    labels = np.arange(j) % classes
    centers = np.array([[2.0 * np.cos(2 * np.pi * k / classes),
                         2.0 * np.sin(2 * np.pi * k / classes)] for k in range(classes)])
    inputs = centers[labels] + noise * rng.standard_normal((j, 2))
    return Dataset(inputs, one_hot(labels, classes))


def digit_idx(directory, samples, seed=0, name="digits"):
    """gen_digit_images(samples, seed) written as the IDX pair <name>-images and
    <name>-labels in directory; returns the CLI's --images/--labels flags for it."""
    directory.mkdir(parents=True, exist_ok=True)
    images, labels = directory / f"{name}-images", directory / f"{name}-labels"
    write_idx(images, labels, *gen_digit_images(samples, seed=seed))
    return ["--images", str(images), "--labels", str(labels)]


def near_singular(rng, m, n, cond):
    """An m x n matrix with orthonormal singular vectors and condition number cond."""
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (u * np.geomspace(1.0, 1.0 / cond, n)) @ v.T


def lfp_lift(layer, features):
    """The sign-split ReLU lift [max(yR', 0) | max(-yR', 0)] of features y, built
    explicitly: the reference the half-width head in redense.layer is tested against."""
    z = features @ layer.R.T
    return np.hstack([np.maximum(z, 0.0), np.maximum(-z, 0.0)])


def lfp_reconstruct(lifted, m):
    """Invert the sign-split: top half minus bottom half."""
    cols = lifted.shape[1]
    if cols % 2 != 0:
        raise ShapeError(f"lifted matrix has odd column count {cols}")
    if cols != 2 * m:
        raise ShapeError(f"lifted matrix has {cols} columns, expected 2m={2 * m}")
    return lifted[:, :m] - lifted[:, m:]


def per_image_digit_images(samples, seed=0):
    """gen_digit_images written as one np.roll, clip and round per image over a jitter
    array drawn whole: the reference its chunked gather is tested against bitwise."""
    side, classes, noise, max_shift = 28, 10, 0.6, 3
    rng = np.random.default_rng(seed)
    protos = []
    for _ in range(classes):
        field = rng.random((side, side))
        for _ in range(2):
            field = sum(np.roll(np.roll(field, dr, 0), dc, 1)
                        for dr in (-1, 0, 1) for dc in (-1, 0, 1)) / 9.0
        protos.append(field)
    protos = np.stack(protos)
    protos = (protos - protos.min(axis=(1, 2), keepdims=True))
    protos /= protos.max(axis=(1, 2), keepdims=True)
    labels = (np.arange(samples) % classes).astype(np.uint8)
    images = np.empty((samples, side, side), dtype=np.uint8)
    shifts = rng.integers(-max_shift, max_shift + 1, size=(samples, 2))
    jitter = rng.standard_normal((samples, side, side))
    for j in range(samples):
        img = np.roll(protos[labels[j]], tuple(shifts[j]), axis=(0, 1))
        img = np.clip(img + noise * jitter[j], 0.0, 1.0)
        images[j] = np.round(img * 255.0).astype(np.uint8)
    return images, labels


def read_curve(path):
    """Rows of a curve file as (epoch, train_loss, test_loss, test_accuracy)."""
    with open(path) as f:
        assert f.readline().strip() == CURVE_HEADER
        return [(int(e), float(tr), float(te), float(acc))
                for e, tr, te, acc in (line.strip().split(",") for line in f)]


def rewrite_header(path, edit, replace=()):
    """Pass a model or bundle file's JSON header through edit(header) in place, keeping
    its blocks, then swap each (old, new) byte pair of replace in the header's text."""
    raw = path.read_bytes()
    (length,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + length])
    edit(header)
    new = json.dumps(header).encode("utf-8")
    for old, text in replace:
        new = new.replace(old, text)
    path.write_bytes(raw[:8] + struct.pack("<I", len(new)) + new + raw[12 + length:])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

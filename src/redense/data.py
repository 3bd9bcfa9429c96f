"""Dataset ingestion (IDX, CSV, feature bundles) and synthetic generators; README,
"File formats", specifies the files."""

from __future__ import annotations

import contextlib
import csv
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, ShapeError
from .linalg import Matrix, check_finite
from .nn import Dataset, Loss, make_loss

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
BUNDLE_MAGIC = b"RDFB"
BUNDLE_VERSION = 1
_DIGIT_ROWS = 1024  # images per chunk of gen_digit_images


@dataclass
class FeatureBundle:
    """Features, targets and the head weight exported from a trained model, with
    string metadata (README lists the well-known keys). loss is the base
    network's, from base_loss and huber_delta; a bundle without base_loss is CE."""

    features: Matrix       # J x n
    targets: Matrix        # J x Q
    output_weight: Matrix  # Q x n
    metadata: dict[str, str]
    loss: Loss = field(init=False)

    def __post_init__(self):
        j, n = self.features.shape
        if self.targets.shape[0] != j:
            raise ShapeError(f"targets have {self.targets.shape[0]} rows, features have {j}")
        q = self.targets.shape[1]
        if self.output_weight.shape != (q, n):
            raise ShapeError(
                f"output weight has shape {self.output_weight.shape}, expected ({q}, {n})"
            )
        for name, a in (("features", self.features), ("targets", self.targets),
                        ("output_weight", self.output_weight)):
            check_finite(a, name)
        if "base_train_loss" in self.metadata:
            lo = float(self.metadata["base_train_loss"])
            if not (np.isfinite(lo) and lo >= 0.0):
                raise ValueError(f"base_train_loss must be finite and >= 0, got {lo}")
        try:
            self.loss = make_loss(self.metadata.get("base_loss", "ce"),
                                  float(self.metadata.get("huber_delta", Loss.delta)))
        except ValueError as exc:
            raise ValueError(f"bundle metadata: {exc}") from None


@contextlib.contextmanager
def _atomic_open(path, mode="wb"):
    """Write to a temporary file beside path, then rename it over path; if the body
    raises, path is left as it was. Nothing is fsync'ed."""
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _read_exact(f, nbytes, path, what):
    """nbytes from f; a size the file cannot hold fails before anything is allocated."""
    offset = f.tell()
    remaining = os.fstat(f.fileno()).st_size - offset
    if not 0 <= nbytes <= remaining:
        raise DataFormatError(f"truncated while reading {what}: it needs {nbytes} bytes, "
                              f"{remaining} remain", path=path, offset=offset)
    return f.read(nbytes)


def _read_u32_be(f, path, what):
    return struct.unpack(">I", _read_exact(f, 4, path, what))[0]


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label pair: J x P uint8 pixel codes, which stand for
    code/255 (see nn.Dataset), and one-hot labels."""
    with open(images_path, "rb") as f:
        magic = _read_u32_be(f, images_path, "image magic")
        if magic != IDX_IMAGES_MAGIC:
            raise DataFormatError(f"bad image magic 0x{magic:08x}", path=images_path, offset=0)
        count = _read_u32_be(f, images_path, "image count")
        rows = _read_u32_be(f, images_path, "image rows")
        cols = _read_u32_be(f, images_path, "image cols")
        raw = _read_exact(f, count * rows * cols, images_path, "pixel data")
    # a copy, so that the file's bytes are freed: glibc then raises its mmap threshold (README)
    inputs = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols).copy()

    with open(labels_path, "rb") as f:
        magic = _read_u32_be(f, labels_path, "label magic")
        if magic != IDX_LABELS_MAGIC:
            raise DataFormatError(f"bad label magic 0x{magic:08x}", path=labels_path, offset=0)
        label_count = _read_u32_be(f, labels_path, "label count")
        raw = _read_exact(f, label_count, labels_path, "label data")
    labels = np.frombuffer(raw, dtype=np.uint8)

    if label_count != count:
        raise DataFormatError(f"{count} images but {label_count} labels", path=labels_path)
    if labels.size and labels.max() > 9:
        raise DataFormatError(f"label {labels.max()} out of range 0..9", path=labels_path)
    return Dataset(inputs, _one_hot(labels, 10))


def write_idx(images_path, labels_path, images: np.ndarray, labels: np.ndarray):
    """Write u8 images (J x rows x cols) and labels (J,) as an IDX pair."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    if images.ndim != 3 or images.shape[0] != labels.shape[0]:
        raise ShapeError(f"expected (J, rows, cols) images matching (J,) labels, "
                         f"got {images.shape} and {labels.shape}")
    with _atomic_open(images_path) as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, *images.shape))
        f.write(images.tobytes())
    with _atomic_open(labels_path) as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, labels.shape[0]))
        f.write(labels.tobytes())


def _write_le_matrix(f, a: Matrix):
    f.write(struct.pack("<QQ", a.shape[0], a.shape[1]))
    f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _read_le_block(f, shape, path, what) -> np.ndarray:
    """Read a row-major little-endian float64 block of the given shape, all finite."""
    raw = _read_exact(f, math.prod(shape) * 8, path, what)
    a = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    if not np.isfinite(a).all():
        raise DataFormatError(f"{what} contains NaN or Inf", path=path)
    return a


def _read_le_matrix(f, path, what) -> Matrix:
    rows, cols = struct.unpack("<QQ", _read_exact(f, 16, path, f"{what} shape"))
    return _read_le_block(f, (rows, cols), path, f"{what} payload")


def _write_le_string(f, s: str):
    raw = s.encode("utf-8")
    f.write(struct.pack("<I", len(raw)))
    f.write(raw)


def _read_le_string(f, path, what) -> str:
    (length,) = struct.unpack("<I", _read_exact(f, 4, path, f"{what} length"))
    return _read_exact(f, length, path, what).decode("utf-8")


def save_feature_bundle(path, bundle: FeatureBundle):
    with _atomic_open(path) as f:
        f.write(BUNDLE_MAGIC)
        f.write(struct.pack("<I", BUNDLE_VERSION))
        _write_le_matrix(f, bundle.features)
        _write_le_matrix(f, bundle.targets)
        _write_le_matrix(f, bundle.output_weight)
        f.write(struct.pack("<I", len(bundle.metadata)))
        for key in sorted(bundle.metadata):
            _write_le_string(f, key)
            _write_le_string(f, bundle.metadata[key])


def load_feature_bundle(path) -> FeatureBundle:
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, path, "magic")
        if magic != BUNDLE_MAGIC:
            raise DataFormatError(f"bad magic {magic!r}", path=path, offset=0)
        (version,) = struct.unpack("<I", _read_exact(f, 4, path, "version"))
        if version != BUNDLE_VERSION:
            raise DataFormatError(f"unsupported bundle version {version}", path=path, offset=4)
        features = _read_le_matrix(f, path, "features")
        targets = _read_le_matrix(f, path, "targets")
        output_weight = _read_le_matrix(f, path, "output weight")
        (n_meta,) = struct.unpack("<I", _read_exact(f, 4, path, "metadata count"))
        metadata = {}
        for _ in range(n_meta):
            key = _read_le_string(f, path, "metadata key")
            metadata[key] = _read_le_string(f, path, "metadata value")
    return FeatureBundle(features, targets, output_weight, metadata)


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")


def split(data: Dataset, spec: SplitSpec):
    """Disjoint, exhaustive (train, test) shuffle split; test is every row after train's."""
    j = len(data)
    perm = np.random.default_rng(spec.seed).permutation(j)
    n_train = int(j * spec.train_fraction)
    parts = (perm[:n_train], perm[n_train:])
    if any(len(p) == 0 for p in parts):
        raise ValueError(f"split of {j} samples with {spec} leaves an empty partition")
    return tuple(Dataset(data.inputs[p], data.targets[p]) for p in parts)


def _one_hot(labels: np.ndarray, classes: int) -> Matrix:
    targets = np.zeros((labels.shape[0], classes))
    targets[np.arange(labels.shape[0]), labels] = 1.0
    return targets


def gen_synthetic(kind: str, samples: int, classes: int = 2, noise: float = 0.15,
                  seed: int = 0) -> Dataset:
    """Reproducible 2-D labeled dataset; class counts balanced within one."""
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    if samples < classes:
        raise ValueError(f"need at least one sample per class, got {samples} for {classes}")
    rng = np.random.default_rng(seed)
    labels = np.arange(samples) % classes
    if kind == "blobs":
        angles = 2.0 * np.pi * np.arange(classes) / classes
        centers = 4.0 * np.column_stack([np.cos(angles), np.sin(angles)])
        inputs = centers[labels] + noise * rng.standard_normal((samples, 2))
    elif kind == "moons":
        if classes != 2:
            raise ValueError("moons supports exactly 2 classes")
        inputs = np.empty((samples, 2))
        for c, (sx, sy, ox, oy) in ((0, (1.0, 1.0, 0.0, 0.0)), (1, (-1.0, -1.0, 1.0, 0.5))):
            idx = np.flatnonzero(labels == c)
            t = np.linspace(0.0, np.pi, idx.size)
            inputs[idx, 0] = sx * np.cos(t) + ox
            inputs[idx, 1] = sy * np.sin(t) + oy
        inputs += noise * rng.standard_normal((samples, 2))
    else:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    return Dataset(inputs, _one_hot(labels, classes))


def _smooth(field: np.ndarray, passes: int = 2) -> np.ndarray:
    for _ in range(passes):
        field = sum(np.roll(np.roll(field, dr, 0), dc, 1)
                    for dr in (-1, 0, 1) for dc in (-1, 0, 1)) / 9.0
    return field


def gen_digit_images(samples: int, seed: int = 0, side: int = 28, classes: int = 10,
                     noise: float = 0.6, max_shift: int = 3):
    """(images u8 J x side x side, labels u8 J): smoothed class prototypes plus
    pixel noise and small random shifts, a stand-in for handwritten digits."""
    rng = np.random.default_rng(seed)
    protos = np.stack([_smooth(rng.random((side, side))) for _ in range(classes)])
    protos = (protos - protos.min(axis=(1, 2), keepdims=True))
    protos /= protos.max(axis=(1, 2), keepdims=True)
    labels = (np.arange(samples) % classes).astype(np.uint8)
    images = np.empty((samples, side, side), dtype=np.uint8)
    shifts = rng.integers(-max_shift, max_shift + 1, size=(samples, 2))
    for start in range(0, samples, _DIGIT_ROWS):
        # np.roll as a gather, a[(r - dr) % side, (c - dc) % side]; normals run on across chunks
        k = slice(start, start + _DIGIT_ROWS)
        rows = (np.arange(side) - shifts[k, :1]) % side
        cols = (np.arange(side) - shifts[k, 1:]) % side
        img = protos[labels[k, None, None], rows[:, :, None], cols[:, None, :]]
        img += noise * rng.standard_normal(img.shape)
        np.clip(img, 0.0, 1.0, out=img)
        img *= 255.0
        images[k] = np.round(img, out=img)
    return images, labels


def load_csv(path) -> Dataset:
    """Headered CSV: float feature columns, integer class label last."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError("empty file", path=path) from None
        rows = list(reader)
    if not rows:
        raise DataFormatError("no data rows", path=path)
    width = len(header)
    feats = np.empty((len(rows), width - 1))
    labels = np.empty(len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataFormatError(f"row {i + 1} has {len(row)} fields, header has {width}",
                                  path=path)
        try:
            feats[i] = [float(v) for v in row[:-1]]
            labels[i] = int(row[-1])
        except ValueError as exc:
            raise DataFormatError(f"row {i + 1}: {exc}", path=path) from None
    check_finite(feats, "csv features")
    if labels.min() < 0:
        raise DataFormatError(f"negative class label {labels.min()}", path=path)
    return Dataset(feats, _one_hot(labels, int(labels.max()) + 1))


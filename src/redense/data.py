"""Dataset ingestion (IDX, feature bundles) and the digit-image generator; README,
"File formats", specifies the files."""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, ShapeError
from .linalg import Matrix, check_finite
from .nn import Dataset, Loss, make_loss

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
BUNDLE_MAGIC = b"RDFB"
BUNDLE_VERSION = 3
# each version's header (see _check_header); the blocks follow in key order, metadata aside
_BUNDLE_V2 = {"features": [int, int], "targets": [int, int], "output_weight": [int, int],
              "metadata": {str: str}}
BUNDLE_HEADERS = {2: _BUNDLE_V2, BUNDLE_VERSION: {**_BUNDLE_V2, "output_bias": [int]}}
_BUNDLE_BLOCKS = [name for name in BUNDLE_HEADERS[BUNDLE_VERSION] if name != "metadata"]
# gen_digit_images' corpus: 28 x 28 images of 10 classes, pixel noise 0.6, shifts up to 3,
# prototypes smoothed by 2 passes of a 3 x 3 box blur; made in chunks of 1024 images
_DIGIT_SIDE, _DIGIT_CLASSES, _DIGIT_NOISE, _DIGIT_MAX_SHIFT = 28, 10, 0.6, 3
_DIGIT_SMOOTHING, _DIGIT_ROWS = 2, 1024


@dataclass
class FeatureBundle:
    """Features, targets and the output layer exported from a trained model, with
    string metadata (README lists the well-known keys). loss is the base network's,
    from base_loss and huber_delta: CE without base_loss."""

    features: Matrix       # J x n
    targets: Matrix        # J x Q
    output_weight: Matrix  # Q x n
    output_bias: np.ndarray  # Q
    metadata: dict[str, str]
    loss: Loss = field(init=False)

    def __post_init__(self):
        for name in _BUNDLE_BLOCKS:
            setattr(self, name, check_finite(np.asarray(getattr(self, name), np.float64), name))
        j, n = self.features.shape
        if self.targets.shape[0] != j:
            raise ShapeError(f"targets have {self.targets.shape[0]} rows, features have {j}")
        q = self.targets.shape[1]
        for name, shape in (("output_weight", (q, n)), ("output_bias", (q,))):
            if getattr(self, name).shape != shape:
                raise ShapeError(f"{name} has shape {getattr(self, name).shape}, expected {shape}")
        if not all(isinstance(k, str) and isinstance(v, str) for k, v in self.metadata.items()):
            raise ValueError("bundle metadata must map strings to strings")
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


def _check_at_end(f, path):
    """Refuse bytes after the last one a reader consumed."""
    if f.tell() != os.fstat(f.fileno()).st_size:
        raise DataFormatError("trailing bytes after the payload", path=path, offset=f.tell())


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
        _check_at_end(f, images_path)
    # a copy, so that the file's bytes are freed: glibc then raises its mmap threshold (README)
    inputs = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols).copy()

    with open(labels_path, "rb") as f:
        magic = _read_u32_be(f, labels_path, "label magic")
        if magic != IDX_LABELS_MAGIC:
            raise DataFormatError(f"bad label magic 0x{magic:08x}", path=labels_path, offset=0)
        label_count = _read_u32_be(f, labels_path, "label count")
        raw = _read_exact(f, label_count, labels_path, "label data")
        _check_at_end(f, labels_path)
    labels = np.frombuffer(raw, dtype=np.uint8)

    if label_count != count:
        raise DataFormatError(f"{count} images but {label_count} labels", path=labels_path)
    if labels.size and labels.max() > 9:
        raise DataFormatError(f"label {labels.max()} out of range 0..9", path=labels_path)
    return Dataset(inputs, _one_hot(labels, 10))


def write_idx(images_path, labels_path, images: np.ndarray, labels: np.ndarray):
    """Write images (J x rows x cols) and labels (J,) as an IDX pair that load_idx reads:
    a pixel must be an integer in 0..255 and a label one in 0..9, or ValueError is
    raised before any file is made."""
    images, labels = np.asarray(images), np.asarray(labels)
    if images.ndim != 3 or images.shape[0] != labels.shape[0]:
        raise ShapeError(f"expected (J, rows, cols) images matching (J,) labels, "
                         f"got {images.shape} and {labels.shape}")
    images, labels = _byte_codes(images, 255, "pixel"), _byte_codes(labels, 9, "label")
    with _atomic_open(images_path) as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, *images.shape))
        f.write(images.tobytes())
    with _atomic_open(labels_path) as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, labels.shape[0]))
        f.write(labels.tobytes())


def _byte_codes(a, top, what):
    """a as a C-ordered uint8 array, refused unless the cast keeps every value and none
    is above top."""
    with np.errstate(invalid="ignore"):  # NaN and Inf cast to some code; refused below
        codes = np.ascontiguousarray(a, dtype=np.uint8)
    if not np.array_equal(codes, a) or (codes.size and codes.max() > top):
        bad = a[(codes != a) | (codes > top)].flat[0]
        raise ValueError(f"{what} {bad} is not an integer in 0..{top}")
    return codes


def _write_container(path, magic, version, header, blocks):
    """Write a model or bundle file atomically: magic, u32 version, u32 header length,
    the header as strict JSON, then each block as raw little-endian float64."""
    raw = json.dumps(header, sort_keys=True, separators=(",", ":"),
                     allow_nan=False).encode("utf-8")
    with _atomic_open(path) as f:
        f.write(magic + struct.pack("<II", version, len(raw)) + raw)
        for block in blocks:
            f.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def _refuse_constant(name):
    raise ValueError(f"{name} is not a JSON number")


@contextlib.contextmanager
def _read_container(path, magic, headers):
    """Open a file _write_container wrote in a version headers declares; yield the checked
    header and read_block(shape, what), reading the next block. The body reads them all."""
    with open(path, "rb") as f:
        found = _read_exact(f, 4, path, "magic")
        if found != magic:
            raise DataFormatError(f"bad magic {found!r}", path=path, offset=0)
        (file_version,) = struct.unpack("<I", _read_exact(f, 4, path, "version"))
        if file_version not in headers:
            raise DataFormatError(f"unsupported version {file_version}", path=path, offset=4)
        (length,) = struct.unpack("<I", _read_exact(f, 4, path, "header length"))
        raw = _read_exact(f, length, path, "header")
        try:
            header = json.loads(raw.decode("utf-8"), parse_constant=_refuse_constant)
        except (ValueError, RecursionError) as exc:  # nesting past the recursion limit
            raise DataFormatError(f"unparseable header: {exc}", path=path, offset=12) from None
        try:
            _check_header(header, headers[file_version], "")
        except ValueError as exc:
            raise DataFormatError(f"invalid header: {exc}", path=path, offset=12) from None
        yield header, lambda shape, what: _read_le_block(f, shape, path, what)
        _check_at_end(f, path)


def _check_header(value, declared, where):
    """Raise ValueError naming the field at where unless the parsed JSON value is what
    declared says: int, float or str for a value of that JSON type (a float field also
    takes an integer within binary64's range; no field takes a bool); a dict for an object
    with exactly its keys, {str: s} for one of any keys whose values are s; a list for an
    array of its length, [s, ...] for one of any length; (None, s) for null or s."""
    if isinstance(declared, tuple):
        if value is None:
            return
        declared = declared[1]
    kind = declared if isinstance(declared, type) else type(declared)
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ValueError(f"{where or 'the header'} must be a JSON {kind.__name__}, got {value!r}")
    if kind is float and isinstance(value, int) and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{where} must be within binary64's range")
    if kind is dict:
        fields = dict.fromkeys(value, declared[str]) if str in declared else declared
        for key in sorted(fields.keys() | value.keys()):
            name = f"{where}.{key}" if where else key
            if key not in value:
                raise ValueError(f"{name} is missing")
            if key not in fields:
                raise ValueError(f"{name} is not a declared key")
            _check_header(value[key], fields[key], name)
    elif kind is list:
        items = [declared[0]] * len(value) if declared[-1:] == [...] else declared
        if len(value) != len(items):
            raise ValueError(f"{where} must be a JSON list of length {len(items)}, got {value!r}")
        for i, (entry, item) in enumerate(zip(value, items)):
            _check_header(entry, item, f"{where}[{i}]")


def _read_le_block(f, shape, path, what) -> np.ndarray:
    """Read a row-major little-endian float64 block of the given shape, all finite."""
    raw = _read_exact(f, math.prod(shape) * 8, path, what)
    a = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    if not np.isfinite(a).all():
        raise DataFormatError(f"{what} contains NaN or Inf", path=path)
    return a


def save_feature_bundle(path, bundle: FeatureBundle):
    blocks = [getattr(bundle, name) for name in _BUNDLE_BLOCKS]
    header = {name: list(a.shape) for name, a in zip(_BUNDLE_BLOCKS, blocks)}
    header["metadata"] = bundle.metadata
    _write_container(path, BUNDLE_MAGIC, BUNDLE_VERSION, header, blocks)


def load_feature_bundle(path) -> FeatureBundle:
    with _read_container(path, BUNDLE_MAGIC, BUNDLE_HEADERS) as (header, read_block):
        shapes = {name: tuple(header[name]) for name in _BUNDLE_BLOCKS if name in header}
        if any(size < 0 for shape in shapes.values() for size in shape):
            raise DataFormatError("negative block size in header", path=path, offset=12)
        blocks = {name: read_block(shape, name) for name, shape in shapes.items()}
    # version 2 has no output_bias: b = 0
    blocks.setdefault("output_bias", np.zeros(shapes["targets"][1]))
    try:
        return FeatureBundle(**blocks, metadata=header["metadata"])
    except ValueError as exc:
        raise DataFormatError(str(exc), path=path) from None


def _one_hot(labels: np.ndarray, classes: int) -> Matrix:
    targets = np.zeros((labels.shape[0], classes))
    targets[np.arange(labels.shape[0]), labels] = 1.0
    return targets


def gen_digit_images(samples: int, seed: int = 0):
    """(images u8 J x 28 x 28, labels u8 J): smoothed class prototypes plus
    pixel noise and small random shifts, a stand-in for handwritten digits."""
    rng = np.random.default_rng(seed)
    side = _DIGIT_SIDE
    protos = rng.random((_DIGIT_CLASSES, side, side))
    for _ in range(_DIGIT_SMOOTHING):
        protos = sum(np.roll(protos, (dr, dc), axis=(1, 2))
                     for dr in (-1, 0, 1) for dc in (-1, 0, 1)) / 9.0
    protos -= protos.min(axis=(1, 2), keepdims=True)
    protos /= protos.max(axis=(1, 2), keepdims=True)
    labels = (np.arange(samples) % _DIGIT_CLASSES).astype(np.uint8)
    images = np.empty((samples, side, side), dtype=np.uint8)
    shifts = rng.integers(-_DIGIT_MAX_SHIFT, _DIGIT_MAX_SHIFT + 1, size=(samples, 2))
    for start in range(0, samples, _DIGIT_ROWS):
        # np.roll as a gather, a[(r - dr) % side, (c - dc) % side]; normals run on across chunks
        k = slice(start, start + _DIGIT_ROWS)
        rows = (np.arange(side) - shifts[k, :1]) % side
        cols = (np.arange(side) - shifts[k, 1:]) % side
        img = protos[labels[k, None, None], rows[:, :, None], cols[:, None, :]]
        img += _DIGIT_NOISE * rng.standard_normal(img.shape)
        np.clip(img, 0.0, 1.0, out=img)
        img *= 255.0
        images[k] = np.round(img, out=img)
    return images, labels


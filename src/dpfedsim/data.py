"""Datasets, IDX file loading, and deterministic partitioning into client
shards, each an int64 array of row indices into the one train set.

A dataset stores its features as uint8 pixel levels 0-255, the form IDX
images arrive in; ``features`` turns levels into the values in [0, 1]
that training and evaluation read, level / 255: float64 for training, in
a new array, and float32 for the test set that evaluation reads, written
into the round's spent uploads (``features_into``).
Synthetic blobs are drawn in row chunks through one small float64
temporary and stored as levels (``synthetic_blobs``), so their build holds
no float64 matrix of the set's size.  A function that draws is given its
Generator and seeds none: ``federation.derive_rng`` names every stream.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

_IDX_IMAGES_MAGIC = 2051
_IDX_LABELS_MAGIC = 2049
# bytes of the float64 temporary a blob build draws its rows through
_BLOB_CHUNK_BYTES = 128 * 1024


def features(levels: np.ndarray) -> np.ndarray:
    """Float64 features of uint8 levels: a new array of level / 255, in
    [0, 1], computed by ``features_into``."""
    return features_into(levels, np.empty(levels.shape))


def features_into(levels: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``features`` of uint8 levels written into out and returned: each
    level cast to out's dtype, which is exact, then divided by 255 in that
    dtype."""
    np.copyto(out, levels)
    out /= 255.0
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labeled observations stored column-wise.

    X is an (n, d) C-contiguous uint8 matrix of pixel levels 0-255, whose
    features are level / 255 (``features``); y holds the n int64 class ids.
    An X of any other dtype is rejected, not cast: a cast would truncate
    float features such as 0.6 to level 0.
    """

    X: np.ndarray
    y: np.ndarray
    num_classes: int

    def __post_init__(self):
        X = np.asarray(self.X)
        if X.dtype != np.uint8:
            raise ValueError(
                f"features must be uint8 levels 0-255, got dtype {X.dtype}"
            )
        X = np.ascontiguousarray(X)
        y = np.asarray(self.y, dtype=np.int64)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if X.ndim != 2 or y.shape != X.shape[:1]:
            raise ValueError(
                f"features {X.shape} and labels {y.shape} must be (n, d) and (n,)"
            )
        if not y.size:
            raise ValueError("dataset must contain at least one example")
        if self.num_classes < 2:
            raise ValueError("dataset needs at least 2 classes")
        bad = y[(y < 0) | (y >= self.num_classes)]
        if bad.size:
            raise ValueError(
                f"label {bad[0]} out of range [0, {self.num_classes})"
            )

    @property
    def size(self) -> int:
        return int(self.y.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.X.shape[1])


def _read_exact(f, n: int, path: str, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise ValueError(f"{path}: truncated file while reading {what}")
    return buf


def _read_idx(path: str, magic: int, dims: int, kind: str) -> tuple[list[int], bytes]:
    """(the dims sizes after the magic in its header, the prod(sizes) bytes
    after the header) of the IDX file at path, its magic and sizes checked
    before the payload is read; kind, image or label, names it in errors."""
    with open(path, "rb") as f:
        found, *sizes = struct.unpack(
            f">{dims + 1}l", _read_exact(f, 4 * (dims + 1), path, f"{kind} header")
        )
        if found != magic:
            raise ValueError(
                f"{path}: bad magic {found}, expected {magic} for an IDX {kind} file"
            )
        what = f"{kind} data"
        if min(sizes) < 0:
            raise ValueError(
                f"{path}: negative size in the {what} header: {tuple(sizes)}"
            )
        if 0 in sizes:
            zero = ("count", "row count", "column count")[sizes.index(0)]
            raise ValueError(f"{path}: the {what} header gives a {zero} of 0")
        n = math.prod(sizes)
        left = os.fstat(f.fileno()).st_size - f.tell()
        if n > left:
            raise ValueError(
                f"{path}: truncated file while reading {what}: the header gives "
                f"{n} bytes, the file holds {left}"
            )
        return sizes, _read_exact(f, n, path, what)


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Read an IDX image/label file pair (the MNIST container format).

    Both files are big-endian: images carry magic 2051 then count/rows/cols
    and count*rows*cols unsigned bytes; labels carry magic 2049 then count
    and count unsigned bytes.  The pixels are kept as their levels, each
    image flattened row-major.  A size of 0 (count, rows or columns) or a
    negative size in a header, or one larger than the file, raises
    ValueError naming the file before any read.
    """
    (count, rows, cols), raw = _read_idx(images_path, _IDX_IMAGES_MAGIC, 3, "image")
    (label_count,), label_raw = _read_idx(labels_path, _IDX_LABELS_MAGIC, 1, "label")
    if count != label_count:
        raise ValueError(
            f"image/label count mismatch: {count} images vs {label_count} labels"
        )
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    labels = np.frombuffer(label_raw, dtype=np.uint8).astype(np.int64)
    return Dataset(pixels, labels, num_classes=int(labels.max()) + 1)


def class_centers(num_classes: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm class centers from rng: QR-orthonormal if dim >= num_classes."""
    raw = rng.standard_normal((dim, num_classes))
    if dim >= num_classes:
        q, _ = np.linalg.qr(raw)
        return q[:, :num_classes].T
    return raw.T / np.linalg.norm(raw.T, axis=1, keepdims=True)


def synthetic_blobs(
    num_classes: int,
    per_class: int,
    dim: int,
    spread: float,
    rng: np.random.Generator,
    centers: np.ndarray,
) -> Dataset:
    """Gaussian blobs: one deterministic unit-norm center per class.

    Each feature's level is rint(clip(127.5 spread z + 127.5 (center + 1),
    0, 255)) for a standard normal z: the affine map takes the roughly
    [-1, 1] signal range onto the levels, whose features lie in [0, 1].
    spread == 0 makes every example of a class identical.  centers holds
    one row per class (``class_centers``), and rng, drawn from where it
    stands, draws noise only, so the same stream and centers always yield
    the same dataset.

    Each class's rows are drawn in class order, a chunk of rows at a time,
    into one float64 temporary of at most 128 KiB (one row, when a row is
    larger), which is finished and rounded straight into the chunk's rows
    of X; no array of X's size is built beside X.
    """
    X = np.empty((num_classes * per_class, dim), dtype=np.uint8)
    chunk = min(per_class, max(1, _BLOB_CHUNK_BYTES // (8 * dim)))
    temp = np.empty((chunk, dim))
    for c in range(num_classes):
        offset = 127.5 * (centers[c] + 1.0)
        for lo in range(c * per_class, (c + 1) * per_class, chunk):
            rows = X[lo : min(lo + chunk, (c + 1) * per_class)]
            t = temp[: rows.shape[0]]
            if spread > 0:
                rng.standard_normal(out=t)
                t *= 127.5 * spread
                t += offset
            else:
                t[...] = offset
            np.clip(t, 0.0, 255.0, out=t)
            np.rint(t, out=rows, casting="unsafe")
    y = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    return Dataset(X, y, num_classes=num_classes)


def partition_iid(
    dataset: Dataset, n_clients: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Shuffle the row indices once from rng, then split them into
    near-equal contiguous chunks, one per client.

    Chunk sizes differ by at most one, larger chunks first (101 examples over
    2 clients -> 51 and 50).
    """
    if not 1 <= n_clients <= dataset.size:
        raise ValueError(
            f"n_clients must be in [1, {dataset.size}], got {n_clients}"
        )
    return np.array_split(rng.permutation(dataset.size), n_clients)


def partition_label_split(
    dataset: Dataset, label_groups: list[set[int]]
) -> list[np.ndarray]:
    """Assign each client the rows whose label falls in its group.

    Groups must be disjoint and cover [0, num_classes) exactly; row order
    within a shard follows the dataset.
    """
    seen: set[int] = set()
    for group in label_groups:
        bad = [l for l in group if not 0 <= l < dataset.num_classes]
        if bad:
            raise ValueError(f"label {bad[0]} out of range [0, {dataset.num_classes})")
        overlap = seen & set(group)
        if overlap:
            raise ValueError(f"label groups overlap on {sorted(overlap)}")
        seen |= set(group)
    missing = set(range(dataset.num_classes)) - seen
    if missing:
        raise ValueError(f"label groups do not cover classes {sorted(missing)}")
    shards = []
    for i, group in enumerate(label_groups):
        rows = np.flatnonzero(np.isin(dataset.y, sorted(group)))
        if not rows.size:
            raise ValueError(f"label group {i} selects no examples")
        shards.append(rows)
    return shards


def subsample(
    dataset: Dataset, n: int, rng: np.random.Generator, name: str
) -> Dataset:
    """Stratified subsample of size n, drawn from rng, preserving class proportions.

    Per-class targets are floor(n * count_c / total); leftover slots go to
    classes by largest remainder n * count_c mod total (ties to the smaller
    label).  No target exceeds its class's count: the floor is at most
    count_c, and only a class with a nonzero remainder, whose floor is
    below count_c, takes a leftover slot, since the leftover is the sum of
    the remainders over total.  Selected examples keep their original
    dataset order.  An n outside [1, dataset.size] is an error that calls
    n by ``name``.
    """
    if not 1 <= n <= dataset.size:
        raise ValueError(
            f"{name} must be in [1, {dataset.size}], the set's size, got {n}"
        )
    labels = dataset.y
    counts = np.bincount(labels, minlength=dataset.num_classes)
    # in integers: a float remainder would order tied classes by rounding
    targets, remainders = np.divmod(n * counts, dataset.size)
    leftover = n - int(targets.sum())
    targets[np.argsort(-remainders, kind="stable")[:leftover]] += 1
    chosen = []
    for c in range(dataset.num_classes):
        pool = np.flatnonzero(labels == c)
        if targets[c]:
            chosen.append(rng.choice(pool, size=int(targets[c]), replace=False))
    rows = np.sort(np.concatenate(chosen))
    return Dataset(dataset.X[rows], dataset.y[rows], dataset.num_classes)


import re
import struct
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpfedsim.data as data_mod
from dpfedsim.cli import build_data
from dpfedsim.config import ExperimentConfig
from dpfedsim.data import (
    ClientShard,
    Dataset,
    features,
    load_idx,
    partition_iid,
    partition_label_split,
    shard_fingerprint,
    subsample,
    synthetic_blobs,
)
from dpfedsim.federation import pinned_worker


def write_idx_pair(tmp_path, images, labels, image_magic=2051, label_magic=2049,
                   truncate_images=0, label_count=None):
    """Write a valid (or deliberately broken) IDX pair and return the paths."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    body = struct.pack(">llll", image_magic, n, rows, cols) + images.tobytes()
    if truncate_images:
        body = body[:-truncate_images]
    img_path.write_bytes(body)
    lc = label_count if label_count is not None else len(labels)
    lab_path.write_bytes(struct.pack(">ll", label_magic, lc) + labels.tobytes())
    return str(img_path), str(lab_path)


def test_load_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(5, 3, 2), dtype=np.uint8)
    labels = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, images, labels)
    ds = load_idx(img, lab)
    assert ds.size == 5
    assert ds.num_classes == 3
    assert ds.feature_dim == 6
    np.testing.assert_array_equal(ds.y, labels)
    assert ds.X.dtype == np.uint8
    np.testing.assert_array_equal(ds.X, images.reshape(5, 6))
    np.testing.assert_allclose(features(ds.X[3]), images[3].reshape(-1) / 255.0)
    want = images.reshape(5, 6).astype(np.float64) / 255.0
    assert features(ds.X).tobytes() == want.tobytes()


def test_load_idx_bad_image_magic(tmp_path):
    img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1], image_magic=123)
    with pytest.raises(ValueError, match="bad magic 123"):
        load_idx(img, lab)


def test_load_idx_bad_label_magic(tmp_path):
    img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1], label_magic=2051)
    with pytest.raises(ValueError, match="2049"):
        load_idx(img, lab)


def test_load_idx_truncated(tmp_path):
    img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1], truncate_images=3)
    with pytest.raises(ValueError, match="truncated"):
        load_idx(img, lab)


@pytest.mark.parametrize(
    "image_sizes, label_count, bad",
    [
        ((60000, 2**31 - 1, 2**31 - 1), 60000, "images"),  # read would overflow
        ((2, 2, 2), 2**31 - 1, "labels"),  # more label bytes than the file
        ((-1, 2, 2), 2, "images"),
        ((2, -2, -2), 2, "images"),  # the product is positive
        ((2, 2, 2), -1, "labels"),
    ],
)
def test_load_idx_rejects_header_sizes_the_file_cannot_hold(
    tmp_path, image_sizes, label_count, bad
):
    """Hand-built headers over 8 image bytes and 2 label bytes: a negative
    size, or a payload larger than the file, is a ValueError naming the
    file, raised before anything is read."""
    img, lab = tmp_path / "images.idx", tmp_path / "labels.idx"
    img.write_bytes(struct.pack(">llll", 2051, *image_sizes) + bytes(8))
    lab.write_bytes(struct.pack(">ll", 2049, label_count) + bytes(2))
    path = {"images": img, "labels": lab}[bad]
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_idx(str(img), str(lab))


def test_load_idx_count_mismatch(tmp_path):
    img, lab = write_idx_pair(
        tmp_path, np.zeros((2, 2, 2)), [0, 1, 1], label_count=3
    )
    with pytest.raises(ValueError, match="mismatch"):
        load_idx(img, lab)


@pytest.mark.parametrize("images, labels", [((0, 2, 2), 0), ((2, 2, 2), 0)])
def test_load_idx_rejects_a_count_of_zero_naming_the_file(tmp_path, images, labels):
    img, lab = write_idx_pair(tmp_path, np.zeros(images), np.zeros(labels))
    path = img if images[0] == 0 else lab
    with pytest.raises(ValueError, match=re.escape(path) + ": .* count of 0"):
        load_idx(img, lab)


@pytest.mark.parametrize(
    "classes, per_class, dim",
    [
        (10, 100, 32),  # the default config: QR centers
        (10, 1000, 784),  # the benchmark protocol: QR centers
        (10, 100, 8),  # dim < classes: normalised-row centers
    ],
)
def test_the_test_set_is_the_train_sets_task(classes, per_class, dim):
    """A nearest-train-centroid classifier scores >= 0.9 on the synthetic
    test set: test class c lies around train class c's center."""
    cfg = ExperimentConfig(
        synthetic_classes=classes, synthetic_per_class=per_class, synthetic_dim=dim
    )
    with pinned_worker() as (_, worker):
        _, shards, test_X, test_y = build_data(cfg, 1, worker)
    train = shards[0].dataset  # every shard indexes the whole train set
    train_X = features(train.X)
    means = np.stack([train_X[train.y == c].mean(axis=0) for c in range(classes)])
    dists = ((test_X[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    assert np.mean(dists.argmin(axis=1) == test_y) >= 0.9


@pytest.mark.parametrize("subsample_test", [0, 150])
def test_a_run_keeps_the_test_set_only_as_features_and_labels(
    monkeypatch, subsample_test
):
    """Once build_data returns, the uint8 level matrix the synthetic test
    set's features were built from is unreachable: the run holds the float32
    features and the labels, and nothing else of the test set."""
    real_features = data_mod.features
    converted = []

    def features(levels, dtype=np.float64):
        converted.append(weakref.ref(levels))
        return real_features(levels, dtype)

    monkeypatch.setattr(data_mod, "features", features)
    cfg = ExperimentConfig(subsample_test=subsample_test)
    with pinned_worker() as (_, worker):
        _, _, test_X, test_y = build_data(cfg, 1, worker)
    (levels,) = converted  # the build converts the test set alone
    assert levels() is None
    assert test_X.shape == (subsample_test or 200, cfg.synthetic_dim)
    assert test_X.dtype == np.float32
    assert test_y.shape == (test_X.shape[0],)


def test_blobs_shape_balance_and_range():
    ds = synthetic_blobs(
        num_classes=4, per_class=25, dim=12, spread=0.3, rng=np.random.default_rng(5)
    )
    assert ds.size == 100
    assert ds.num_classes == 4
    counts = np.bincount(ds.y)
    np.testing.assert_array_equal(counts, [25, 25, 25, 25])
    assert ds.X.dtype == np.uint8
    feats = features(ds.X)
    assert feats.min() >= 0.0 and feats.max() <= 1.0


def test_blobs_deterministic_in_seed():
    a = synthetic_blobs(3, 10, 8, 0.2, np.random.default_rng(9))
    b = synthetic_blobs(3, 10, 8, 0.2, np.random.default_rng(9))
    c = synthetic_blobs(3, 10, 8, 0.2, np.random.default_rng(10))
    for ea, eb in zip(a.X, b.X):
        np.testing.assert_array_equal(ea, eb)
    assert any(not np.array_equal(ea, ec) for ea, ec in zip(a.X, c.X))


def test_blobs_zero_spread_collapses_classes():
    ds = synthetic_blobs(3, 5, 6, spread=0.0, rng=np.random.default_rng(1))
    by_class = {}
    for features, label in zip(ds.X, ds.y):
        by_class.setdefault(label, []).append(features)
    for feats in by_class.values():
        for f in feats[1:]:
            np.testing.assert_array_equal(f, feats[0])


def test_blobs_validation():
    with pytest.raises(ValueError):
        synthetic_blobs(1, 5, 4, 0.1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        synthetic_blobs(3, 0, 4, 0.1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        synthetic_blobs(3, 5, 4, -0.1, np.random.default_rng(0))


def _tiny_dataset(n, num_classes=2):
    """n <= 256 examples, each with its own level."""
    return Dataset(
        np.arange(n, dtype=np.uint8)[:, None],
        np.arange(n) % num_classes,
        num_classes,
    )


def test_partition_iid_sizes_101_over_2():
    shards = partition_iid(_tiny_dataset(101), 2, np.random.default_rng(0))
    assert sorted(s.size for s in shards) == [50, 51]
    assert shards[0].size == 51  # larger chunk first
    assert [s.client_id for s in shards] == [0, 1]


def test_partition_iid_is_a_permutation():
    ds = _tiny_dataset(30)
    shards = partition_iid(ds, 4, np.random.default_rng(3))
    seen = sorted(int(ds.X[i, 0]) for s in shards for i in s.indices)
    assert seen == sorted(int(x[0]) for x in ds.X)


def test_partition_iid_deterministic():
    ds = _tiny_dataset(50)
    a = partition_iid(ds, 3, np.random.default_rng(7))
    b = partition_iid(ds, 3, np.random.default_rng(7))
    for sa, sb in zip(a, b):
        assert list(ds.y[sa.indices]) == list(ds.y[sb.indices])


def test_partition_label_split_basic():
    ds = Dataset(np.zeros((8, 1), np.uint8), [0, 1, 2, 3, 0, 2, 1, 3], 4)
    shards = partition_label_split(ds, [{0, 1}, {2, 3}])
    assert list(ds.y[shards[0].indices]) == [0, 1, 0, 1]
    assert list(ds.y[shards[1].indices]) == [2, 3, 2, 3]


def test_partition_label_split_rejects_overlap_and_gaps():
    ds = Dataset(np.zeros((3, 1), np.uint8), [0, 1, 2], 3)
    with pytest.raises(ValueError, match="overlap"):
        partition_label_split(ds, [{0, 1}, {1, 2}])
    with pytest.raises(ValueError, match="cover"):
        partition_label_split(ds, [{0}, {1}])
    with pytest.raises(ValueError, match="range"):
        partition_label_split(ds, [{0, 5}, {1, 2}])


def test_subsample_balanced_exact():
    ds = Dataset(np.zeros((5000, 1), np.uint8), np.arange(5000) % 10, 10)
    sub = subsample(ds, 1000, np.random.default_rng(4))
    counts = np.bincount(sub.y, minlength=10)
    np.testing.assert_array_equal(counts, [100] * 10)


def test_subsample_full_size_is_identity_multiset():
    ds = _tiny_dataset(40, num_classes=4)
    sub = subsample(ds, 40, np.random.default_rng(0))
    assert sorted(sub.y) == sorted(ds.y)


def test_subsample_keeps_proportions_with_remainder():
    # 30 of class 0, 10 of class 1 -> n=9 should give 7/2 (floor 6.75 -> 6, 2.25 -> 2, +1 to larger remainder)
    ds = Dataset(np.zeros((40, 1), np.uint8), [0] * 30 + [1] * 10, 2)
    sub = subsample(ds, 9, np.random.default_rng(0))
    counts = np.bincount(sub.y, minlength=2)
    assert counts.sum() == 9
    assert counts[0] == 7 and counts[1] == 2


def documented_targets(labels, num_classes, n):
    """subsample's per-class counts by its docstring, in exact integers:
    floor(n count_c / total) each, then one more for the leftover classes
    of largest remainder n count_c mod total, ties to the smaller label."""
    counts = [labels.count(c) for c in range(num_classes)]
    total = len(labels)
    targets = [n * count // total for count in counts]
    by_remainder = sorted(
        range(num_classes), key=lambda c: (-(n * counts[c] % total), c)
    )
    for c in by_remainder[: n - sum(targets)]:
        targets[c] += 1
    return targets


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda k: st.tuples(
            st.just(k), st.lists(st.integers(0, k - 1), min_size=1, max_size=40)
        )
    ),
    st.integers(0, 2**32 - 1),
)
def test_subsample_takes_n_rows_with_the_documented_class_counts(mix, seed):
    """For every n in [1, size]: n rows, each class's count its floor plus
    remainder target, which never exceeds the class's count, and the rows
    in dataset order."""
    num_classes, labels = mix
    ds = Dataset(
        np.arange(len(labels), dtype=np.uint8)[:, None], labels, num_classes
    )
    for n in range(1, ds.size + 1):
        sub = subsample(ds, n, np.random.default_rng(seed))
        assert sub.size == n
        want = documented_targets(labels, num_classes, n)
        counts = np.bincount(sub.y, minlength=num_classes).tolist()
        assert counts == want, n
        # each row is a distinct row of ds, in ds's order, its label kept
        rows = sub.X[:, 0].astype(np.int64)
        assert np.all(np.diff(rows) > 0)
        assert sub.y.tolist() == [labels[r] for r in rows]


def test_subsample_bounds():
    ds = _tiny_dataset(10)
    with pytest.raises(ValueError):
        subsample(ds, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        subsample(ds, 11, np.random.default_rng(0))


def test_dataset_validation():
    with pytest.raises(ValueError, match="at least one"):
        Dataset(np.zeros((0, 1), np.uint8), [], 2)
    with pytest.raises(ValueError, match="range"):
        Dataset(np.zeros((1, 1), np.uint8), [5], 2)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.int8, bool])
def test_dataset_rejects_features_that_are_not_uint8_levels(dtype):
    """A cast would truncate a float feature of 0.6 to level 0: X of any
    dtype but uint8 is a ValueError naming the dtype."""
    X = np.full((2, 3), 0.6).astype(dtype)
    with pytest.raises(ValueError, match=f"uint8 .*dtype {np.dtype(dtype)}"):
        Dataset(X, [0, 1], 2)


def test_shard_fingerprint_sensitive_to_content():
    def one_example(level):
        return Dataset(np.array([[level]], np.uint8), [1], 2)

    a = ClientShard(0, one_example(128), [0])
    b = ClientShard(0, one_example(128), [0])
    c = ClientShard(0, one_example(153), [0])
    assert shard_fingerprint(a) == shard_fingerprint(b)
    assert shard_fingerprint(a) != shard_fingerprint(c)


# Digests of synthetic shards stored as uint8 levels, checked when recorded
# against a per-example hash of the oracle's blobs; equal digests mean
# `compare` output agrees across versions.
PINNED_FINGERPRINTS = {
    "iid_n3": (
        dict(n_clients=3),
        [
            "feb8b9d9255a001d1bc5ce0835321f25a5ca20daa89537da396cb4c610cc6454",
            "d3680bfbb3bd669b8eefde84f28859ab4caa86e6b76f2bd789b67f91c4636ccf",
            "f277910f66807dc9ee180fce2224c68141bc3ec7b5b0f57af61126ccbe4c4f34",
        ],
    ),
    "label_split": (
        dict(n_clients=2, partition="label_split", label_split="0,2;1,3"),
        [
            "c2b8e35d9a8430a847a68e04b7f662d3f818d7d44cf6631e9e4b8338fb4509db",
            "a6c3427e00d9c0f212f005693dd5b4fd09525845fbc154b0aa29e12d2fbc8c97",
        ],
    ),
    "subsample_train": (
        dict(n_clients=2, subsample_train=30),
        [
            "98bc7c4b3f5c35821423a47796dc93d3f7d868ed07d606f42a811fc6e168e2c6",
            "01f4655335e3b40168d9e5a31ff3c7061a8ab6ae81b86b6443db87075aae4f69",
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_FINGERPRINTS))
def test_shard_fingerprints_are_pinned(case):
    extra, expected = PINNED_FINGERPRINTS[case]
    cfg = ExperimentConfig(
        synthetic_classes=4,
        synthetic_per_class=12,
        synthetic_dim=5,
        layer_sizes=(5, 4, 4),
        **extra,
    )
    cfg.validate()
    with pinned_worker() as (_, worker):
        shards = build_data(cfg, 7, worker)[1]
    assert [shard_fingerprint(s) for s in shards] == expected

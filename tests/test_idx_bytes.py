"""IDX data keep their bytes: the float64 features of every pixel level, a
shard's fingerprint and a two-round run's metrics.csv are pinned.

Pixels arrive as uint8 levels, and the program trains, evaluates and
fingerprints on float64(level) / 255.  ALL_LEVELS_DIGEST was recorded when
the features were stored as float64.  The shard digest and the CSV were
recorded when every stream came to be named by ``derive_rng``, which moved
the subsample, the partition and the initial model; equal values mean that
an IDX run's output bytes have not moved since.
"""

import hashlib

import numpy as np

from dpfedsim.cli import build_data, main
from dpfedsim.config import parse_config
from dpfedsim.data import ClientShard, load_idx, shard_fingerprint
from dpfedsim.federation import pinned_worker
from test_data import write_idx_pair

ALL_LEVELS_DIGEST = "e93b2709f3872bcfde6df97f8de7c98f6ebae111184885368c9858bff2accb44"
SHARD_DIGEST = "9cd4e81414b50a16e429d8c6234f0f223dd8151b2dff1cee801eced196d2dfa0"
GOLDEN_CSV = (
    "round,epsilon,train_loss,test_acc,test_recall,test_f1,projections,wall_ms\n"
    "0,26.126631,1.419934,0.400000,0.388393,0.339268,0,0\n"
    "1,42.126631,1.311002,0.533333,0.522321,0.515332,1,0\n"
)


def _idx_pairs(tmp_path):
    """Config lines for a 120/40-image 8x8 IDX train/test pair of 4 classes,
    each class brighter in its own two pixel rows."""
    rng = np.random.default_rng(2026)
    lines = []
    for split, n in (("train", 120), ("test", 40)):
        labels = np.arange(n) % 4
        images = rng.integers(0, 160, size=(n, 8, 8))
        for i, c in enumerate(labels):
            images[i, 2 * c : 2 * c + 2] += 95
        (tmp_path / split).mkdir()
        img, lab = write_idx_pair(tmp_path / split, images, labels)
        lines += [f"{split}_images = {img}", f"{split}_labels = {lab}"]
    return "\n".join(lines) + "\n"


def test_every_level_reaches_the_fingerprint_as_level_over_255(tmp_path):
    levels = np.arange(256).reshape(4, 8, 8)
    img, lab = write_idx_pair(tmp_path, levels, [0, 1, 2, 3])
    shard = ClientShard(0, load_idx(img, lab), np.arange(4))
    want = hashlib.sha256(b"0")
    for label, row in zip(range(4), levels.reshape(4, 64)):
        want.update(label.to_bytes(4, "big"))
        want.update((row.astype(np.float64) / 255.0).tobytes())
    assert shard_fingerprint(shard) == want.hexdigest() == ALL_LEVELS_DIGEST


def test_idx_shard_fingerprint_and_run_bytes_are_pinned(tmp_path):
    cfg = tmp_path / "idx.cfg"
    cfg.write_text(
        "dataset = idx\n"
        + _idx_pairs(tmp_path)
        + "subsample_test = 30\n"
        "layer_sizes = 64,8,4\n"
        "n_clients = 3\n"
        "rounds = 2\n"
        "eta = 0.5\n"
        "batch_size = 8\n"
        "sigma = 0.5\n"
        "seeds = 3\n"
        "record_timing = false\n"
    )
    with pinned_worker() as (_, worker):
        shards = build_data(parse_config(str(cfg)), 3, worker)[1]
    assert shard_fingerprint(shards[0]) == SHARD_DIGEST
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "metrics.csv").read_text() == GOLDEN_CSV

"""Acceptance suite: one test per release criterion, tolerances stated inline.

Each test prints a single summary line with the measured quantity so a
`pytest -rA` run reads as a checklist.  Criteria 8 and 9 need the MNIST IDX
files on disk; when they are absent (this sandbox has no network or package
source that carries them) those two tests skip with an explicit message
rather than silently passing.
"""

import gzip
import json
import math
import os
import shutil
import tempfile
import time

import numpy as np
import pytest

from dpfedsim.cli import main, run_seeds
from dpfedsim.config import ExperimentConfig
from dpfedsim.data import features, partition_iid, synthetic_blobs
from dpfedsim.dp import epsilon_spent, rdp_to_dp
from dpfedsim.federation import init_state, pinned_worker
from dpfedsim.metrics import accumulate, scores
from dpfedsim.model import MlpSpec
from oracle import (
    clip_gradient,
    correct_round,
    dot,
    l2_norm,
    loss,
    noisy_batch_gradient,
    per_sample_gradient,
    project_if_conflicting,
    run_all_rounds,
)


def test_criterion_01_clipping_bound():
    """1000 random (g, C): norm <= C + 1e-9; sub-threshold bitwise unchanged."""
    rng = np.random.default_rng(101)
    worst_excess = -math.inf
    unchanged_checked = 0
    start = time.perf_counter()
    for _ in range(1000):
        dim = int(rng.integers(1, 200))
        g = rng.standard_normal(dim) * rng.uniform(0.01, 20)
        c = rng.uniform(1e-6, 5.0)
        out = clip_gradient(g, c)
        worst_excess = max(worst_excess, l2_norm(out) - c)
        if l2_norm(g) <= c:
            assert out is g and out.tobytes() == g.tobytes()
            unchanged_checked += 1
    elapsed = time.perf_counter() - start
    assert worst_excess <= 1e-9
    assert unchanged_checked > 0
    assert elapsed < 1.0
    print(
        f"criterion 1 PASS: max norm excess {worst_excess:.3e} <= 1e-9, "
        f"{unchanged_checked} sub-threshold vectors bitwise unchanged, {elapsed:.2f}s"
    )


def test_criterion_02_projection_correctness():
    """1000 conflicting pairs per dim in {2, 10, 10^4}: post-projection dot
    within |dot(g_i,g_j)|*1e-12 + 1e-12; aligned pairs bitwise unchanged;
    antiparallel pair -> exact zero vector."""
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst_ratio = 0.0
    for dim in (2, 10, 10_000):
        for _ in range(1000):
            g_j = rng.standard_normal(dim)
            g_i = rng.standard_normal(dim)
            if dot(g_i, g_j) >= 0:
                g_i = -g_i
            if dot(g_i, g_j) >= 0:  # exact zero dot: not a conflict
                continue
            out, applied = project_if_conflicting(g_i, g_j)
            assert applied
            tol = abs(dot(g_i, g_j)) * 1e-12 + 1e-12
            residual = abs(dot(out, g_j))
            assert residual <= tol
            worst_ratio = max(worst_ratio, residual / tol)
            assert l2_norm(out) <= l2_norm(g_i) + 1e-12
    # aligned pair: bitwise identity
    a = rng.standard_normal(10)
    b = a + rng.standard_normal(10) * 0.01
    out, applied = project_if_conflicting(a, b)
    assert not applied and out is a
    # antiparallel: exact zero
    g = rng.standard_normal(10)
    out, applied = project_if_conflicting(-g, g)
    assert applied
    assert np.all(out == 0.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"criterion 2 PASS: 3000 conflicting pairs, worst residual at "
        f"{worst_ratio:.3f} of the scaled 1e-12 tolerance, {elapsed:.2f}s"
    )


def test_criterion_03_gradient_fidelity():
    """Analytic per-sample gradients vs central differences (h=1e-5):
    max relative error <= 1e-4 over 20 random nets/samples."""
    spec = MlpSpec((6, 5, 3))
    rng = np.random.default_rng(303)
    h = 1e-5
    worst = 0.0
    start = time.perf_counter()
    for trial in range(20):
        w = rng.standard_normal(spec.num_params) * 0.5
        x = rng.random(6)
        label = int(rng.integers(0, 3))
        analytic = per_sample_gradient(spec, w, x, label)
        numeric = np.zeros_like(w)
        for k in range(w.shape[0]):
            wp, wm = w.copy(), w.copy()
            wp[k] += h
            wm[k] -= h
            numeric[k] = (
                loss(spec, wp, x[None, :], [label])
                - loss(spec, wm, x[None, :], [label])
            ) / (2 * h)
        rel = float(np.max(np.abs(analytic - numeric) / (np.abs(numeric) + 1e-4)))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-4
    assert elapsed < 10.0
    print(
        f"criterion 3 PASS: max relative error {worst:.3e} <= 1e-4 "
        f"over 20 nets, {elapsed:.2f}s"
    )


def test_criterion_04_noise_calibration():
    """Monte Carlo noise stdev == sigma*C/|S| within 1% over 10^5 draws
    (sigma=0.8, C=1.5, |S|=4)."""
    sigma, c, batch = 0.8, 1.5, 4
    expected = sigma * c / batch  # 0.3
    dim = 3
    rng = np.random.default_rng(404)
    zeros = np.zeros(dim)
    start = time.perf_counter()
    draws = np.empty((100_000, dim))
    for k in range(draws.shape[0]):
        draws[k] = noisy_batch_gradient(zeros, batch, c, sigma, rng)
    elapsed = time.perf_counter() - start
    per_coord = draws.std(axis=0)
    pooled = draws.std()
    for s in per_coord:
        assert abs(s - expected) / expected <= 0.01
    assert abs(pooled - expected) / expected <= 0.01
    assert elapsed < 30.0
    print(
        f"criterion 4 PASS: noise stdev {pooled:.6f} vs sigma*C/|S| = {expected} "
        f"(rel err {abs(pooled - expected) / expected:.2%} <= 1%), {elapsed:.2f}s"
    )


def test_criterion_05_accountant_matches_high_precision_oracle():
    """rdp_to_dp vs 60-digit mpmath evaluation, <= 1e-9 over a 50-point grid;
    epsilon monotone in steps; doubling sigma strictly lowers epsilon."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    alphas = [1.5, 2.0, 3.0, 5.0, 8.0, 10.0, 16.0, 32.0, 50.0, 64.0]
    rs = [0.0, 0.5, 1.0, 10.0, 100.0]
    deltas = [1e-5, 1e-6, 1e-8, 1e-3, 0.01]
    start = time.perf_counter()
    worst = 0.0
    points = 0
    for i, alpha in enumerate(alphas):
        for j, r in enumerate(rs):
            delta = deltas[(i + j) % len(deltas)]
            a = mp.mpf(alpha)
            oracle = (
                mp.mpf(r)
                + mp.log((a - 1) / a)
                - (mp.log(mp.mpf(delta)) + mp.log(a)) / (a - 1)
            )
            got = rdp_to_dp(r, alpha, delta)
            worst = max(worst, abs(got - float(oracle)))
            points += 1
    assert points == 50
    assert worst <= 1e-9
    # monotone in steps
    eps_seq = [epsilon_spent(t, 0.8, 1e-5)[0] for t in range(0, 60, 5)]
    assert all(b > a for a, b in zip(eps_seq, eps_seq[1:]))
    # sigma doubling strictly decreases epsilon
    for steps in (1, 30):
        e1 = epsilon_spent(steps, 0.8, 1e-5)[0]
        e2 = epsilon_spent(steps, 1.6, 1e-5)[0]
        assert e2 < e1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"criterion 5 PASS: max |eps - oracle| {worst:.3e} <= 1e-9 on 50 points; "
        f"monotone + sigma-doubling checks hold, {elapsed:.2f}s"
    )


def test_criterion_06_cosine_evaluation_count():
    """Reference mode performs exactly M*(N-M) cosine evaluations per round
    for every N in 2..8, M in 1..N-1."""
    rng = np.random.default_rng(606)
    start = time.perf_counter()
    checked = 0
    for n in range(2, 9):
        for m in range(1, n):
            grads = {i: rng.standard_normal(5) for i in range(n)}
            _, report = correct_round(
                grads, "reference", m, np.random.default_rng(n * 100 + m)
            )
            assert len(report.cosines) == m * (n - m)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 28
    assert elapsed < 1.0
    print(
        f"criterion 6 PASS: cosine evaluations == M*(N-M) for all "
        f"{checked} (N, M) combinations, {elapsed:.2f}s"
    )


def _no_conflict_state(algorithm: str):
    """Near-identical IID shards, full batches, sigma=0: clients can't conflict."""
    rng = np.random.default_rng
    train = synthetic_blobs(num_classes=3, per_class=30, dim=6, spread=0.02, rng=rng(7))
    test = synthetic_blobs(num_classes=3, per_class=6, dim=6, spread=0.02, rng=rng(8))
    shards = partition_iid(train, 2, rng(9))
    cfg = ExperimentConfig(
        sigma=0.0,
        batch_size=train.size,  # full batches
        n_clients=2,
        rounds=3,
        eta=0.05,
        algorithm=algorithm,
        record_timing=False,
    )
    return init_state(
        MlpSpec((6, 5, 3)), cfg, 4, train, shards, features(test.X, np.float32), test.y
    )


def test_criterion_07_gcfl_equals_fedavg_without_conflicts():
    """sigma=0, aligned gradients: GCFL and DP-FedAvg end bitwise identical."""
    start = time.perf_counter()
    s_gcfl = _no_conflict_state("gcfl")
    s_avg = _no_conflict_state("dp_fedavg")
    r_gcfl = run_all_rounds(s_gcfl)
    run_all_rounds(s_avg)
    # the scenario really was conflict-free
    projections = sum(r.projections_applied for r in r_gcfl)
    assert projections == 0
    assert s_gcfl.weights.tobytes() == s_avg.weights.tobytes()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"criterion 7 PASS: 0 projections fired and final parameters are "
        f"bitwise identical over 3 rounds, {elapsed:.2f}s"
    )


_MNIST_NAMES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)
_MNIST_CACHE: dict = {}


def _mnist_paths():
    """Locate the four MNIST IDX files (plain or .gz), or None if absent."""
    if "paths" in _MNIST_CACHE:
        return _MNIST_CACHE["paths"]
    root = os.environ.get("MNIST_DATA_DIR") or os.path.join(
        os.path.dirname(__file__), os.pardir, "data", "mnist"
    )
    found = []
    for name in _MNIST_NAMES:
        plain = os.path.join(root, name)
        gz = plain + ".gz"
        if os.path.exists(plain):
            found.append(plain)
        elif os.path.exists(gz):
            tmpdir = _MNIST_CACHE.setdefault("tmpdir", tempfile.mkdtemp())
            out = os.path.join(tmpdir, name)
            with gzip.open(gz, "rb") as src, open(out, "wb") as dst:
                shutil.copyfileobj(src, dst)
            found.append(out)
        else:
            _MNIST_CACHE["paths"] = None
            return None
    _MNIST_CACHE["paths"] = found
    return found


_MNIST_SKIP = (
    "MNIST IDX files not available: this environment has no network access and "
    "its package mirror carries no MNIST distribution (verified). Place the four "
    "IDX files (optionally gzipped) in data/mnist/ or point MNIST_DATA_DIR at "
    "them to run this criterion."
)


def _mnist_directional_gap(partition: str) -> tuple[float, float]:
    paths = _mnist_paths()
    if paths is None:
        pytest.skip(_MNIST_SKIP)
    base = dict(
        dataset="idx",
        train_images=paths[0],
        train_labels=paths[1],
        test_images=paths[2],
        test_labels=paths[3],
        subsample_train=10_000,
        subsample_test=2_000,
        label_split="0-4;5-9" if partition == "label_split" else "",
        layer_sizes=(784, 128, 10),
        n_clients=2,
        rounds=30,
        eta=0.002,
        batch_size=32,
        sigma=0.8,
        clip_threshold=1.5,
        delta=1e-5,
        seeds=(1, 2, 3),
        record_timing=False,
    )
    finals = {}
    with pinned_worker() as (_, worker):
        for algo in ("gcfl", "dp_fedavg"):
            cfg = ExperimentConfig(**base, algorithm=algo)
            cfg.validate()
            results = {seed: run[0] for seed, _, _, (run,) in run_seeds([cfg], worker)}
            finals[algo] = float(
                np.mean([res[-1].test_accuracy for res in results.values()])
            )
    return finals["gcfl"], finals["dp_fedavg"]


def test_criterion_08_mnist_iid_directional():
    """10k/2k MNIST subset, N=2 IID, Table-I hyperparameters, 3 seeds:
    mean final GCFL accuracy >= mean final DP-FedAvg accuracy."""
    start = time.perf_counter()
    gcfl, avg = _mnist_directional_gap("iid")
    elapsed = time.perf_counter() - start
    gap = gcfl - avg
    print(
        f"criterion 8: mean final accuracy gcfl {gcfl:.4f} vs dp_fedavg {avg:.4f} "
        f"(gap {gap:+.4f}), {elapsed:.1f}s"
    )
    assert gap >= 0.0
    assert elapsed < 600.0


def test_criterion_09_mnist_label_split_directional():
    """Same protocol with the 0-4 / 5-9 label split."""
    start = time.perf_counter()
    gcfl, avg = _mnist_directional_gap("label_split")
    elapsed = time.perf_counter() - start
    gap = gcfl - avg
    print(
        f"criterion 9: mean final accuracy gcfl {gcfl:.4f} vs dp_fedavg {avg:.4f} "
        f"(gap {gap:+.4f}), {elapsed:.1f}s"
    )
    assert gap >= 0.0
    assert elapsed < 600.0


def test_criterion_10_byte_identical_reruns(tmp_path):
    """Identical config+seed: byte-identical metrics.csv and summary.json
    across two reruns."""
    start = time.perf_counter()
    cfg_text = (
        "synthetic_classes = 3\nsynthetic_per_class = 20\nsynthetic_dim = 6\n"
        "layer_sizes = 6,5,3\nrounds = 3\neta = 0.05\nbatch_size = 8\n"
        "n_clients = 4\nseeds = 5\nrecord_timing = false\n"
    )
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(cfg_text)
    outputs = {}
    for tag in ("serial_1", "serial_2"):
        out = tmp_path / tag
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        outputs[tag] = (
            (out / "metrics.csv").read_bytes(),
            (out / "summary.json").read_bytes(),
        )
    assert outputs["serial_1"][0] == outputs["serial_2"][0]
    assert outputs["serial_1"][1] == outputs["serial_2"][1]
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"criterion 10 PASS: metrics.csv and summary.json byte-identical across "
        f"reruns, {elapsed:.2f}s"
    )


def test_criterion_11_metrics_against_brute_force():
    """accuracy/macro recall/macro F1 vs direct recomputation from raw pairs,
    agreement <= 1e-12 on 100 random scenarios."""
    rng = np.random.default_rng(1111)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 10))
        n = int(rng.integers(1, 300))
        labels = rng.integers(0, k, size=n)
        preds = rng.integers(0, k, size=n)
        cm = accumulate(preds, labels, k)
        # brute force straight from definitions, no confusion matrix
        acc = float(np.mean(preds == labels))
        recs, f1s = [], []
        for c in range(k):
            tp = int(np.sum((preds == c) & (labels == c)))
            fn = int(np.sum((preds != c) & (labels == c)))
            fp = int(np.sum((preds == c) & (labels != c)))
            if tp + fn == 0:
                continue
            rec = tp / (tp + fn)
            prec = tp / (tp + fp) if tp + fp else 0.0
            f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
            recs.append(rec)
        accuracy, macro_recall, macro_f1 = scores(cm)
        worst = max(
            worst,
            abs(accuracy - acc),
            abs(macro_recall - float(np.mean(recs))),
            abs(macro_f1 - float(np.mean(f1s))),
        )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    print(
        f"criterion 11 PASS: max metric deviation {worst:.3e} <= 1e-12 "
        f"over 100 scenarios, {elapsed:.2f}s"
    )

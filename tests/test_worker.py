"""The run's worker thread and its BLAS pin.

A run draws each participant's noise ahead and evaluates the upper half of
the test set on one worker thread, with BLAS pinned to one thread.  Where
and when those tasks run must not change a byte of the output, a failure on
either thread must stop the run, and a run must leave no thread behind and
the caller's BLAS thread count as it found it.
"""

import json
import random
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import dpfedsim.federation as federation
from dpfedsim.cli import main
from dpfedsim.federation import ALGORITHMS, derive_rng, run_experiment
from dpfedsim.linalg import _openblas, one_blas_thread
from test_federation import make_state

WORKER_PREFIX = "dpfedsim-worker"


class InlineExecutor:
    """Runs each task when it is submitted, on the submitting thread."""

    def __init__(self):
        self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class SleepyExecutor(ThreadPoolExecutor):
    """The worker thread, sleeping a random 0 to max_pause seconds before
    each task."""

    def __init__(self, seed, max_pause=0.002):
        super().__init__(max_workers=1, thread_name_prefix=WORKER_PREFIX)
        self._pauses = random.Random(seed)
        self._max_pause = max_pause
        self.submitted = 0

    def submit(self, fn, *args):
        pause = self._pauses.uniform(0.0, self._max_pause)
        self.submitted += 1

        def task():
            time.sleep(pause)
            return fn(*args)

        return super().submit(task)


def _worker_threads():
    return [t for t in threading.enumerate() if t.name.startswith(WORKER_PREFIX)]


# Poisson batches of 2 from 15-example shards: about one step in nine draws
# an empty batch (asserted below), so the runs drop unused noise vectors
SMALL = """
synthetic_classes = 3
synthetic_per_class = 20
synthetic_dim = 6
layer_sizes = 6,5,3
n_clients = 4
rounds = 3
eta = 0.05
local_steps = 3
sampling_mode = poisson
batch_size = 2
seeds = 5
record_timing = false
"""
CONFIGS = [(a, SMALL + f"algorithm = {a}\n") for a in ALGORITHMS] + [
    ("sigma_0", SMALL + "sigma = 0\n")
]


@pytest.mark.parametrize("name, text", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_outputs_are_byte_identical_inline_on_the_worker_and_with_delays(
    tmp_path, monkeypatch, name, text
):
    """Criterion 10 for the worker: every task run inline, on the worker
    thread, and on the worker with random sleeps before each task and a
    10-microsecond interpreter switch interval gives the same metrics.csv
    and summary.json bytes.  Evaluation takes 7-row chunks here, so the
    12-row test set is split between the two threads."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    monkeypatch.setattr(federation, "_EVAL_ROWS", 7)
    real_sample = federation.poisson_sample
    batch_sizes = []

    def record(*args):
        idx = real_sample(*args)
        batch_sizes.append(idx.size)
        return idx

    monkeypatch.setattr(federation, "poisson_sample", record)
    inline = []

    def inline_worker():
        inline.append(InlineExecutor())
        return inline[-1]

    factories = {
        "inline": inline_worker,
        "worker": federation._new_worker,
        "delayed": lambda: SleepyExecutor(seed=13),
    }
    outputs = {}
    for mode, factory in factories.items():
        monkeypatch.setattr(federation, "_new_worker", factory)
        out = tmp_path / mode
        interval = sys.getswitchinterval()
        if mode == "delayed":
            sys.setswitchinterval(1e-5)
        try:
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        finally:
            sys.setswitchinterval(interval)
        outputs[mode] = (
            (out / "metrics.csv").read_bytes(),
            (out / "summary.json").read_bytes(),
        )
    assert outputs["worker"] == outputs["inline"]
    assert outputs["delayed"] == outputs["inline"]
    assert 0 in batch_sizes  # some step found its Poisson batch empty
    assert inline[0].submitted > 0  # the tasks went through the executor
    assert _worker_threads() == []


@pytest.mark.parametrize("executor", ["inline", "delayed", "slow"])
def test_noise_ahead_hands_each_client_its_own_stream_within_the_bound(
    monkeypatch, executor
):
    """Client c's k-th vector is the k-th draw of its stream (seed, round, c,
    noise) times sigma C, whatever the clients before it left unused and
    whichever thread made the draw, and at most two vectors are queued or
    being drawn beyond the one in use.  The slow worker sleeps up to 20 ms
    before each task, so the calling thread makes some draws itself."""
    state = make_state(n_clients=7, sigma=0.7, local_steps=3)
    real_draw, drawn_on = federation._draw_noise, []

    def draw(*args):
        drawn_on.append(threading.current_thread() is threading.main_thread())
        return real_draw(*args)

    monkeypatch.setattr(federation, "_draw_noise", draw)
    worker = {
        "inline": InlineExecutor,  # a draw happens when it is submitted
        "delayed": lambda: SleepyExecutor(seed=3),
        "slow": lambda: SleepyExecutor(seed=3, max_pause=0.02),
    }[executor]()
    # (client, vectors taken, vectors skipped); each client's stream holds 3
    plan = [(1, 3, 0), (3, 1, 2), (4, 0, 3), (5, 1, 2), (6, 1, 2)]
    try:
        noise = federation._NoiseAhead(worker, state, 4, [c for c, _, _ in plan])
        scale = state.cfg.sigma * state.cfg.clip_threshold
        dim = state.weights.shape[0]
        for cid, take, skip in plan:
            stream = derive_rng(state.seed, 4, cid, federation._P_NOISE)
            for _ in range(take):
                got = noise.take()
                assert len(noise._ahead) <= 2
                want = stream.standard_normal(dim) * scale
                assert got.tobytes() == want.tobytes()
            noise.skip(skip)
            assert len(noise._ahead) <= 2
    finally:
        worker.shutdown(wait=True, cancel_futures=True)
    assert worker.submitted == 15
    if executor == "slow":
        assert any(drawn_on)  # the calling thread made some draws itself


def _pin_count():
    blas = _openblas()
    if blas is None:
        pytest.skip("no controllable BLAS: the pin changes nothing")
    return blas


@pytest.fixture
def two_blas_threads():
    """BLAS set to two threads for the test, the caller's count restored."""
    get, set_ = _pin_count()
    saved = get()
    set_(2)
    yield get
    set_(saved)


def test_normal_run_leaves_no_worker_and_restores_the_blas_threads(two_blas_threads):
    seen = []
    real = federation.server_step

    def step(*args):
        seen.append((two_blas_threads(), len(_worker_threads())))
        return real(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(federation, "server_step", step)
        result = run_experiment(make_state(rounds=2))
    assert result.blas_pinned
    assert seen == [(1, 1), (1, 1)]  # one BLAS thread and one worker inside
    assert two_blas_threads() == 2
    assert _worker_threads() == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failing_run_leaves_no_worker_and_restores_the_blas_threads(two_blas_threads):
    state = make_state(batch_size=60, sigma=0.5)  # every step takes row 0
    bad = state.shards[1]
    bad.dataset.X[bad.indices[0]] = np.nan
    with pytest.raises(ValueError, match=r"round 0, client 1: non-finite"):
        run_experiment(state)
    assert two_blas_threads() == 2
    assert _worker_threads() == []


def test_worker_failure_reaches_the_run(two_blas_threads, monkeypatch):
    def broken(*args):
        raise RuntimeError("draw failed")

    monkeypatch.setattr(federation, "_draw_noise", broken)
    with pytest.raises(RuntimeError, match="draw failed"):
        run_experiment(make_state(sigma=0.5))
    assert two_blas_threads() == 2
    assert _worker_threads() == []


def test_pin_nests_and_restores_each_level(two_blas_threads):
    with one_blas_thread() as outer:
        assert outer and two_blas_threads() == 1
        with one_blas_thread() as inner:
            assert inner and two_blas_threads() == 1
            run_experiment(make_state(rounds=1))
            assert two_blas_threads() == 1
        assert two_blas_threads() == 1
    assert two_blas_threads() == 2
    with pytest.raises(KeyError):
        with one_blas_thread():
            raise KeyError("inside the pin")
    assert two_blas_threads() == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_run_exits_1_naming_the_client_without_hanging(tmp_path):
    """The worker thread must not keep the process alive after an error."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL.replace("eta = 0.05", "eta = 1e300"))
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "dpfedsim.cli", "run", "--config", str(cfg),
         "--out", str(tmp_path / "o")],
        env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "2"},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert re.search(r"round \d+, client \d+: non-finite", proc.stderr)


def test_run_without_a_controllable_blas_says_so_and_records_it(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr("dpfedsim.linalg._openblas", lambda: None)
    with one_blas_thread() as pinned:
        assert not pinned
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert "no controllable BLAS found" in capsys.readouterr().err
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["blas_pinned"] is False

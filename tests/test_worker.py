"""The run's worker thread and its BLAS pin.

A run splits each round's participants, and evaluation's test chunks, in
halves: the upper half goes to one worker thread and the calling thread
runs the lower half, with BLAS pinned to one thread.  Which thread runs a
half, and when, must not change a byte of the output; a failure on either
thread must stop the run, naming the lowest failing client; and a run must
leave no thread behind and the caller's BLAS thread count as it found it.
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
from dpfedsim.federation import ALGORITHMS, run_experiment
from dpfedsim.linalg import _openblas, one_blas_thread
from test_federation import StartedWorker, make_state

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
    """The worker thread, sleeping a random 0 to 2 ms before each task."""

    def __init__(self, seed):
        super().__init__(max_workers=1, thread_name_prefix=WORKER_PREFIX)
        self._pauses = random.Random(seed)

    def submit(self, fn, *args):
        pause = self._pauses.uniform(0.0, 0.002)

        def task():
            time.sleep(pause)
            return fn(*args)

        return super().submit(task)


def _worker_threads():
    return [t for t in threading.enumerate() if t.name.startswith(WORKER_PREFIX)]


# Poisson batches of 2 from 15-example shards: about one step in nine draws
# an empty batch (asserted below), so clients take different step counts
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
    and summary.json bytes.  Each round's 4 clients are split 2 and 2, and
    evaluation takes 7-row chunks here, so the 12-row test set is split
    between the two threads too."""
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
    real_local, ran_on = federation.client_local_phase, []

    def local(*args, **kwargs):
        ran_on.append(threading.current_thread().name)
        return real_local(*args, **kwargs)

    monkeypatch.setattr(federation, "client_local_phase", local)
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
    assert any(name.startswith(WORKER_PREFIX) for name in ran_on)
    assert _worker_threads() == []


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
    """Client 1 of 2 runs on the worker, and its kernel fails there."""
    real_kernel = federation.model_mod.clipped_gradient_sum

    def broken(*args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("draw failed")
        return real_kernel(*args)

    monkeypatch.setattr(federation.model_mod, "clipped_gradient_sum", broken)
    monkeypatch.setattr(federation, "_new_worker", StartedWorker)
    with pytest.raises(RuntimeError, match="draw failed"):
        run_experiment(make_state(sigma=0.5))
    assert two_blas_threads() == 2
    assert _worker_threads() == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("executor", ["inline", "worker", "delayed"])
@pytest.mark.parametrize("poisoned, named", [((1, 3), 1), ((3,), 3)])
def test_the_lowest_failing_client_is_named_whichever_half_fails(
    two_blas_threads, monkeypatch, executor, poisoned, named
):
    """Clients 0-1 of 4 run on the calling thread and 2-3 on the worker.
    With both halves failing the lower half's error wins; a failure on the
    worker's half alone reaches the run."""
    factory = {
        "inline": InlineExecutor,
        "worker": federation._new_worker,
        "delayed": lambda: SleepyExecutor(seed=13),
    }[executor]
    monkeypatch.setattr(federation, "_new_worker", factory)
    state = make_state(n_clients=4, batch_size=60, sigma=0.5)  # whole shards
    for cid in poisoned:
        bad = state.shards[cid]
        bad.dataset.X[bad.indices[0]] = np.nan
    with pytest.raises(ValueError, match=rf"round 0, client {named}: non-finite"):
        run_experiment(state)
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

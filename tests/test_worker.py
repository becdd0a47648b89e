"""A command's worker thread and its BLAS pin.

A command holds one worker thread and one BLAS pin to one thread
(``federation.pinned_worker``) from its first data build to its last run.
A run splits each round's participants, and evaluation's test chunks, in
halves: the upper half goes to the worker and the calling thread runs the
lower half, then waits for the upper half to end.  A failure on either
thread must stop the run, naming the lowest failing client, and a
command, or a ``pinned_worker`` block, must leave no thread behind and
the caller's BLAS thread count as it found it.
``tests/test_determinism.py`` checks, with the rest of the determinism
promise, that which thread runs a half, and when, changes no output byte.
The synthetic data build shares the worker too: the calling thread builds
the train set, and the worker the test set and, where the run holds
them, its float32 features.
The worker is the package's own ``federation.Worker``, one thread; a
command uses its ``submit`` and ``close`` and a task's ``result`` and
``exception``.  The fakes here and in ``tests/test_federation.py`` are
``Worker``s too.  A run never loads ``concurrent.futures`` (nor
``logging``), and loads ``csv`` and ``json`` only to write its outputs.
"""

import json
import random
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from ast import literal_eval

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dpfedsim.cli as cli
import dpfedsim.data as data_mod
import dpfedsim.federation as federation
import oracle
from dpfedsim.cli import build_data, main
from dpfedsim.config import ExperimentConfig, parse_config
from dpfedsim.federation import Stream, derive_rng, pinned_worker
from dpfedsim.federation import run_experiment
from dpfedsim.linalg import _openblas, one_blas_thread
from oracle import child_env, run_all_rounds
from test_federation import InlineExecutor, make_state, poison_first_example

WORKER_PREFIX = "dpfedsim-worker"


class SleepyExecutor(federation.Worker):
    """The worker thread, sleeping a random 0 to 2 ms before each task."""

    def __init__(self, seed):
        super().__init__()
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
# an empty batch (asserted in test_determinism.py), so clients take
# different step counts
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

    def step(*args, **kwargs):
        seen.append((two_blas_threads(), len(_worker_threads())))
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(federation, "server_step", step)
        with pinned_worker() as (pinned, worker):
            run_experiment(make_state(rounds=2), worker)
    assert pinned
    assert seen == [(1, 1), (1, 1)]  # one BLAS thread and one worker inside
    assert two_blas_threads() == 2
    assert _worker_threads() == []


def test_failing_run_leaves_no_worker_and_restores_the_blas_threads(two_blas_threads):
    state = make_state(batch_size=60, sigma=0.5)  # every step takes row 0
    poison_first_example(state, 1, np.nan)
    with pytest.raises(ValueError, match=r"round 0, client 1: non-finite"):
        run_all_rounds(state)
    assert two_blas_threads() == 2
    assert _worker_threads() == []


def test_worker_failure_reaches_the_run(two_blas_threads, monkeypatch):
    """Client 1 of 2 runs on the worker, and its kernel fails there."""
    real_kernel = federation.model_mod.clipped_gradient_sum

    def broken(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("draw failed")
        return real_kernel(*args, **kwargs)

    monkeypatch.setattr(federation.model_mod, "clipped_gradient_sum", broken)
    with pytest.raises(RuntimeError, match="draw failed"):
        run_all_rounds(make_state(sigma=0.5))
    assert two_blas_threads() == 2
    assert _worker_threads() == []


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
        "worker": federation.Worker,
        "delayed": lambda: SleepyExecutor(seed=13),
    }[executor]
    monkeypatch.setattr(federation, "Worker", factory)
    state = make_state(n_clients=4, batch_size=60, sigma=0.5)  # whole shards
    for cid in poisoned:
        poison_first_example(state, cid, np.nan)
    with pytest.raises(ValueError, match=rf"round 0, client {named}: non-finite"):
        run_all_rounds(state)
    assert two_blas_threads() == 2
    assert _worker_threads() == []


def test_pin_nests_and_restores_each_level(two_blas_threads):
    with one_blas_thread() as outer:
        assert outer and two_blas_threads() == 1
        with one_blas_thread() as inner:
            assert inner and two_blas_threads() == 1
            run_all_rounds(make_state(rounds=1))
            assert two_blas_threads() == 1
        assert two_blas_threads() == 1
    assert two_blas_threads() == 2
    with pytest.raises(KeyError):
        with one_blas_thread():
            raise KeyError("inside the pin")
    assert two_blas_threads() == 2


def test_diverging_run_exits_1_naming_the_client_without_hanging(tmp_path):
    """The worker thread must not keep the process alive after an error."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL.replace("eta = 0.05", "eta = 1e300"))
    proc = subprocess.run(
        [sys.executable, "-m", "dpfedsim.cli", "run", "--config", str(cfg),
         "--out", str(tmp_path / "o")],
        env=child_env(OPENBLAS_NUM_THREADS="2"),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert re.search(r"round \d+, client \d+: non-finite", proc.stderr)


def test_a_command_holds_one_worker_and_one_pin_from_data_build_to_last_run(
    two_blas_threads, tmp_path, monkeypatch
):
    """compare over 2 seeds and 3 algorithms makes one worker and enters the
    pin once; each seed's data build and every round run inside both."""
    made, pins, seen = [], [], []
    real_worker, real_pin = federation.Worker, federation.one_blas_thread
    real_blobs, real_step = data_mod.synthetic_blobs, federation.server_step

    def new_worker():
        made.append(real_worker())
        return made[-1]

    def pin():
        pins.append(1)
        return real_pin()

    def watch(real):
        def call(*args, **kwargs):
            seen.append((real.__name__, two_blas_threads(), len(_worker_threads())))
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(federation, "Worker", new_worker)
    monkeypatch.setattr(federation, "one_blas_thread", pin)
    monkeypatch.setattr(data_mod, "synthetic_blobs", watch(real_blobs))
    monkeypatch.setattr(federation, "server_step", watch(real_step))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL.replace("seeds = 5", "seeds = 5,6"))
    argv = ["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]
    assert main([*argv, "--algos", "gcfl,dp_fedavg,dp_scaffold"]) == 0
    assert (len(made), len(pins)) == (1, 1)
    # per seed: the train build here, the test build on the worker, then 3
    # algorithms of 3 rounds
    assert len(seen) == 2 * (2 + 3 * 3)
    assert {(one, workers) for _, one, workers in seen} == {(1, 1)}
    assert {name for name, _, _ in seen} == {"synthetic_blobs", "server_step"}
    assert two_blas_threads() == 2
    assert _worker_threads() == []


def test_run_without_a_controllable_blas_says_so_and_records_it(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr("dpfedsim.linalg._openblas", lambda: None)
    with one_blas_thread() as pinned:
        assert not pinned
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL.replace("seeds = 5", "seeds = 5,6"))
    argv = ["compare", "--config", str(cfg), "--out", str(tmp_path / "c")]
    assert main([*argv, "--algos", "gcfl,dp_fedavg,dp_scaffold"]) == 0
    assert capsys.readouterr().err.count("no controllable BLAS found") == 1
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err.count("no controllable BLAS found") == 1
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["blas_pinned"] is False


EXECUTORS = {
    "inline": InlineExecutor,
    "worker": federation.Worker,
    "delayed": lambda: SleepyExecutor(seed=13),
}


@pytest.mark.parametrize("mode", EXECUTORS)
def test_the_workers_half_runs_under_the_callers_floating_point_policy(mode):
    """A round's floating-point policy is set once, by ``run_round``'s
    ``np.errstate``: numpy keeps that state in a context variable, and
    ``_halves`` runs the worker's half in a copy of the calling thread's
    context.  So a half that overflows and then takes inf - inf warns
    nothing on either thread."""
    seen = {}

    def half(part: range) -> None:
        seen[part.start] = (np.geterr()["over"], np.geterr()["invalid"])
        x = np.full(2, 1e300)
        x *= x  # overflow
        x -= x  # invalid

    worker = EXECUTORS[mode]()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(over="ignore", invalid="ignore"):
                federation._halves(worker, half, 2)
    finally:
        worker.close()
    assert [str(w.message) for w in caught] == []
    assert seen == {0: ("ignore", "ignore"), 1: ("ignore", "ignore")}


def test_halves_leaves_no_reference_to_its_half(worker):
    """Once ``_halves`` returns, nothing keeps its half's function (in a
    round, a closure over U) alive, with no collection run, though the
    worker that ran the upper half holds that task until its next one
    arrives."""
    ran_on = {}

    def half(part: range) -> None:
        ran_on[part.start] = threading.current_thread().name

    ref = weakref.ref(half)
    federation._halves(worker, half, 2)
    del half
    assert ref() is None
    assert ran_on == {0: threading.current_thread().name, 1: WORKER_PREFIX}


def test_halves_raises_only_once_the_workers_half_has_ended(worker):
    """A lower half that fails at once still waits for the worker's half,
    which sleeps 50 ms and then records that it ran: the record is there
    when ``_halves`` raises the lower half's error."""
    ran = []

    def half(part: range) -> None:
        if not part.start:
            raise KeyError("lower half")
        time.sleep(0.05)
        ran.append(part.start)

    with pytest.raises(KeyError, match="lower half"):
        federation._halves(worker, half, 2)
    assert ran == [1]


def _bytes(ds):
    return ds.X.tobytes(), ds.y.tobytes(), ds.num_classes


@settings(max_examples=30, deadline=None)
@given(
    num_classes=st.integers(2, 6),
    per_class=st.integers(1, 9),
    dim=st.integers(1, 9),
    spread=st.sampled_from([0.0, 0.3, 1.7]),
    seed=st.integers(0, 2**64 - 1),
)
@example(num_classes=5, per_class=4, dim=3, spread=0.3, seed=1)  # dim < classes
@example(num_classes=3, per_class=6, dim=4, spread=0.0, seed=2)
@example(num_classes=4, per_class=1, dim=5, spread=0.3, seed=3)
@example(num_classes=3, per_class=7, dim=13, spread=0.25, seed=4)  # odd sizes
# 3-row chunks, the last one short, and a row larger than the temporary
@example(num_classes=3, per_class=7, dim=5000, spread=0.3, seed=5)
@example(num_classes=2, per_class=3, dim=20000, spread=0.3, seed=6)
def test_blobs_match_the_one_thread_oracle(num_classes, per_class, dim, spread, seed):
    """The blobs drawn and finished a chunk of rows at a time equal the
    oracle's, which draws and finishes each class's block whole."""
    args = (num_classes, per_class, dim, spread)
    want = _bytes(oracle.synthetic_blobs(*args, np.random.default_rng(seed)))
    rng = np.random.default_rng(seed)
    centers = data_mod.class_centers(num_classes, dim, rng)
    assert _bytes(data_mod.synthetic_blobs(*args, rng, centers)) == want


@pytest.mark.parametrize(
    "shape",
    [
        (10, 1000, 784, 0.25),  # the benchmark's train set
        (10, 200, 784, 0.25),  # the benchmark's test set
        (10, 1000, 784, 0.0),  # nothing drawn
    ],
    ids=lambda s: "-".join(map(str, s)),
)
def test_the_blob_build_allocates_nothing_beside_x(shape):
    """The benchmark's 10 x 1000 x 784 train set (7.8 MB of levels), and its
    test set, are drawn and finished through one float64 temporary of at
    most 128 KiB: the build's traced peak is X plus at most 1 MiB, with no
    class block held apart from X.  A throwaway draw imports numpy.random
    first, so the trace charges only the build, the centers' draw included,
    not the module's import."""
    np.random.default_rng(0).standard_normal()
    rng = np.random.default_rng(3)
    tracemalloc.start()
    try:
        centers = data_mod.class_centers(shape[0], shape[2], rng)
        train = data_mod.synthetic_blobs(*shape, rng, centers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= train.X.nbytes + 2**20, peak - train.X.nbytes


BUILD_SHAPES = [  # classes, per class, dim, spread; the test set has per // 5
    (5, 10, 3, 0.3),  # dim < classes
    (3, 6, 4, 0.0),
    (4, 1, 5, 0.3),  # one example per class in both sets
    (3, 7, 13, 0.25),  # odd sizes
    # the benchmark's 784-dim, 10k/2k shape: at 2 clients a round's uploads
    # (2 D 8 bytes) cannot hold the float32 test features, and the run
    # holds the levels as at every smaller shape
    (10, 1000, 784, 0.25),
]


@pytest.mark.parametrize("mode", EXECUTORS)
@pytest.mark.parametrize("shape", BUILD_SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_build_data_matches_the_oracle_and_builds_the_test_set_on_the_worker(
    monkeypatch, mode, shape
):
    """build_data's train set, and the test set and its labels, the test
    set around the train set's class centers, equal the oracle's under each
    executor.  The run holds the test set as the oracle's uint8 levels at
    every shape, and builds no features of it.  The train set is built on
    the calling thread, and the test set on the executor: inline that is
    the calling thread too, otherwise the worker."""
    classes, per_class, dim, spread = shape
    monkeypatch.setattr(federation, "Worker", EXECUTORS[mode])
    real_blobs, real_into = data_mod.synthetic_blobs, data_mod.features_into
    built_on, purposes = [], {}

    def derive(*name):
        rng = derive_rng(*name)
        purposes[id(rng)] = name[3]
        return rng

    def blobs(*args):
        # the train set goes on drawing from the stream that drew the centers
        role = {Stream.TRAIN: "train", Stream.TEST: "test"}[purposes[id(args[4])]]
        built_on.append((role, threading.current_thread().name))
        return real_blobs(*args)

    def features_into(levels, out):
        built_on.append(("features", threading.current_thread().name))
        return real_into(levels, out)

    monkeypatch.setattr(cli, "derive_rng", derive)
    monkeypatch.setattr(data_mod, "synthetic_blobs", blobs)
    monkeypatch.setattr(data_mod, "features_into", features_into)
    monkeypatch.setattr(federation, "features_into", features_into)
    cfg = ExperimentConfig(
        synthetic_classes=classes,
        synthetic_per_class=per_class,
        synthetic_dim=dim,
        synthetic_spread=spread,
    )
    for seed in (1, 2):
        with pinned_worker() as (_, worker):
            _, train, _, test_X, test_y = build_data(cfg, seed, worker)
        want = oracle.synthetic_blobs(
            classes, per_class, dim, spread, derive_rng(seed, 0, 0, Stream.TRAIN)
        )
        assert _bytes(train) == _bytes(want)
        # the test set shares the train set's centers, its noise from its
        # own stream
        want = oracle.synthetic_blobs(
            classes, max(1, per_class // 5), dim, spread,
            derive_rng(seed, 0, 0, Stream.TEST), derive_rng(seed, 0, 0, Stream.TRAIN),
        )
        assert test_X.dtype == np.uint8
        assert test_X.tobytes() == want.X.tobytes()
        assert test_y.tobytes() == want.y.tobytes()
    here = threading.current_thread().name
    roles = {role: {on for r, on in built_on if r == role} for role, _ in built_on}
    called = sorted(role for role, _ in built_on)
    assert called == ["test", "test", "train", "train"]
    assert roles["train"] == {here}
    if mode == "inline":
        assert roles["test"] == {here}
    else:
        (test_on,) = roles["test"]
        assert test_on.startswith(WORKER_PREFIX)
    assert _worker_threads() == []


@pytest.mark.parametrize("share", ["synthetic_blobs", "subsample"])
def test_a_failure_in_the_workers_share_of_the_build_stops_run(
    tmp_path, monkeypatch, capsys, share
):
    """The worker builds SMALL's test set (synthetic_blobs) and, with
    subsample_test set, its subsample (``data.subsample``); a raise in
    either on the worker surfaces from build_data, `run` exits 1 naming
    it, and no worker is left."""
    real = getattr(data_mod, share)

    def fail_on_the_worker(*args):
        if threading.current_thread().name.startswith(WORKER_PREFIX):
            raise ValueError(f"{share} failed on the worker")
        return real(*args)

    monkeypatch.setattr(data_mod, share, fail_on_the_worker)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL + "subsample_test = 10\n")
    with pytest.raises(ValueError, match=share), pinned_worker() as (_, worker):
        build_data(parse_config(str(cfg)), 5, worker)
    assert _worker_threads() == []
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"error: {share} failed on the worker" in capsys.readouterr().err
    assert _worker_threads() == []


@pytest.fixture
def release():
    """An event that a test's calls on the worker wait on."""
    return threading.Event()


@pytest.fixture
def worker(release):
    """A new ``federation.Worker``; at teardown ``release`` is set, the
    worker closed, and its thread must be gone."""
    made = federation.Worker()
    yield made
    release.set()
    made.close()
    assert _worker_threads() == []


def test_result_raises_the_calls_error_and_exception_returns_it(worker):
    error = KeyError("lost")

    def fail():
        raise error

    task = worker.submit(fail)
    assert task.exception() is error
    with pytest.raises(KeyError) as caught:
        task.result()
    assert caught.value is error


def test_close_runs_the_queued_tasks_and_joins_the_thread(worker, release):
    """close, called from another thread while the worker's first task
    holds it, returns only once the worker has run that task and the two
    queued behind it, in order, and its thread has ended."""
    ran = []

    def busy():
        release.wait(60)
        ran.append("busy")

    worker.submit(busy)
    queued = [worker.submit(ran.append, i) for i in range(2)]
    stopper = threading.Thread(target=worker.close)
    stopper.start()
    stopper.join(0.05)
    assert stopper.is_alive()  # the first task still holds the thread
    release.set()
    stopper.join(60)
    assert not stopper.is_alive()
    assert _worker_threads() == []
    assert ran == ["busy", 0, 1]
    assert [task.exception() for task in queued] == [None, None]


class _Payload:
    pass


def test_a_finished_task_holds_no_reference_to_its_call(worker, release):
    """Once a task has run, nothing of the worker's keeps its function or
    arguments alive, with no collection run: a task that the worker holds
    past its end keeps no round's U."""

    def call(payload):
        return None

    payload = _Payload()
    refs = [weakref.ref(call), weakref.ref(payload)]
    worker.submit(release.wait, 60)
    task = worker.submit(call, payload)
    del call, payload
    release.set()
    assert task.exception() is None
    assert [ref() for ref in refs] == [None, None]


_RESIDENT_CHILD = """
import sys
import dpfedsim.federation as fed
from dpfedsim.cli import main

WATCHED = ("logging", "concurrent.futures", "json", "csv")
loaded, real = [], fed.run_round
def watched(*args):
    out = real(*args)
    loaded.append([name for name in WATCHED if name in sys.modules])
    return out
fed.run_round = watched
code = main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
loaded.append([name for name in WATCHED if name in sys.modules])
print(repr((code, loaded)))
"""


def test_a_run_loads_no_executor_package_and_its_writers_modules_last(tmp_path):
    """In a ``run`` child process, ``concurrent.futures`` and ``logging``
    (which it imports) are never loaded, and ``json`` and ``csv``, which
    only the output writers use, are loaded after the last round ends:
    imported code that no round runs stays out of a run's peak RSS."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL)
    done = subprocess.run(
        [sys.executable, "-c", _RESIDENT_CHILD, str(cfg), str(tmp_path / "o")],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    code, loaded = literal_eval(done.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == [[], [], [], ["json", "csv"]]

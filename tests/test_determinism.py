"""The determinism promise: the same config and seed give the same bytes.

One test compares every file in each output directory, by name and by
bytes, across the ways a command can be carried out:
- entry: ``compare`` then ``run``, twice through ``main`` in this process,
  and once through ``main`` and once as ``python -m dpfedsim.cli`` in a
  child;
- executor: every task run inline, on the worker thread, and on the worker
  with random delays, for ``run`` and for a ``compare`` that holds one
  worker over every algorithm;
- blas: a child under one and under two OpenBLAS threads.

Each blas case is at the benchmark's 784-128-10 shape, where OpenBLAS
splits the forward and clipping products differently by thread count, so
a command that did not pin BLAS to one thread fails it.  At smaller layer
sizes OpenBLAS runs the products on one thread whatever the count, and
the data build's thread-dependent QR rounds away in the uint8 levels, so
such a case could not fail.
"""

import gc
import json
import subprocess
import sys
import threading

import pytest

import dpfedsim.federation as federation
from dpfedsim.cli import main
from dpfedsim.federation import ALGORITHMS
from dpfedsim.linalg import _openblas
from oracle import child_env
from test_cli import FAST_CFG, write_cfg
from test_federation import InlineExecutor
from test_worker import EXECUTORS, SMALL, WORKER_PREFIX, _worker_threads

BENCH_SHAPE = """
synthetic_classes = 10
synthetic_per_class = 1000
synthetic_dim = 784
layer_sizes = 784,128,10
batch_size = 32
rounds = 2
seeds = 1
record_timing = false
"""
RUN = (["run"],)
COMPARE = (["compare", "--algos", ",".join(ALGORITHMS)],)
ENTRY_CFG = FAST_CFG.replace("seeds = 2", "seeds = 2,3")
CASES = [
    pytest.param("in_process", COMPARE + RUN, ENTRY_CFG, id="entry-in_process"),
    pytest.param("python_m", COMPARE + RUN, ENTRY_CFG, id="entry-python_m"),
    *[pytest.param("executor", RUN, SMALL + f"algorithm = {a}\n",
                   id=f"executor-{a}") for a in ALGORITHMS],
    pytest.param("executor", RUN, SMALL + "sigma = 0\n", id="executor-sigma_0"),
    pytest.param("executor", COMPARE, SMALL, id="executor-compare"),
    # the n32_gcfl_pairwise benchmark protocol cut to 2 rounds
    pytest.param("blas", RUN, BENCH_SHAPE + """
n_clients = 32
algorithm = gcfl
correction_mode = pairwise
""", id="blas-n32_gcfl_pairwise"),
    # dp_fedprox through two local steps on Poisson batches: the second
    # step's kernel runs at a local model off the global one, and the step
    # adds the prox pull
    pytest.param("blas", RUN, BENCH_SHAPE + """
n_clients = 4
algorithm = dp_fedprox
sampling_mode = poisson
local_steps = 2
""", id="blas-n4_fedprox_poisson_k2"),
]


def _main(commands, cfg, out):
    for argv in commands:
        assert main([*argv, "--config", cfg, "--out", str(out)]) == 0


def _child(commands, cfg, out, **variables):
    for argv in commands:
        subprocess.run(
            [sys.executable, "-m", "dpfedsim.cli", *argv, "--config", cfg,
             "--out", str(out)],
            env=child_env(**variables), check=True, capture_output=True,
            timeout=300,
        )


def _in_process(tmp_path, monkeypatch, cfg, commands):
    """The commands twice through ``main``, each time into a new directory."""
    outs = [tmp_path / "main1", tmp_path / "main2"]
    for out in outs:
        _main(commands, cfg, out)
    return outs


def _python_m(tmp_path, monkeypatch, cfg, commands):
    """The commands through ``main``, then in a child that exits through
    ``script``, whose exit skips the frozen heap's collection, after main
    has written every file."""
    outs = [tmp_path / "main", tmp_path / "child"]
    _main(commands, cfg, outs[0])
    assert gc.get_freeze_count() == 0  # main itself freezes nothing
    _child(commands, cfg, outs[1])
    return outs


def _executor(tmp_path, monkeypatch, cfg, commands):
    """Every task run inline, on the worker thread, and on the worker with
    random sleeps before each task and a 10-microsecond interpreter switch
    interval.  Each round's 4 clients are split 2 and 2: clients 0 and 1
    run on the calling thread and 2 and 3 on the worker, or inline on the
    calling thread too.  Evaluation takes 7-row chunks here, so the 12-row
    test set is split between the two threads too."""
    monkeypatch.setattr(federation, "_EVAL_ROWS", 7)
    real_sample = federation.poisson_sample
    batch_sizes = []

    def record(*args):
        idx = real_sample(*args)
        batch_sizes.append(idx.size)
        return idx

    monkeypatch.setattr(federation, "poisson_sample", record)
    real_derive, ran_on = federation.derive_rng, {}

    def derive(seed, round_index, cid, purpose):
        if purpose is federation.Stream.BATCH:  # drawn where the client runs
            ran_on[mode].add((cid, threading.current_thread().name))
        return real_derive(seed, round_index, cid, purpose)

    monkeypatch.setattr(federation, "derive_rng", derive)
    inline = []

    def inline_worker():
        inline.append(InlineExecutor())
        return inline[-1]

    factories = {**EXECUTORS, "inline": inline_worker}
    for mode, factory in factories.items():
        ran_on[mode] = set()
        monkeypatch.setattr(federation, "Worker", factory)
        interval = sys.getswitchinterval()
        if mode == "delayed":
            sys.setswitchinterval(1e-5)
        try:
            _main(commands, cfg, tmp_path / mode)
        finally:
            sys.setswitchinterval(interval)
    assert 0 in batch_sizes  # some step found its Poisson batch empty
    assert inline[0].submitted > 0  # the tasks went through the executor
    here = threading.current_thread().name
    assert ran_on["inline"] == {(cid, here) for cid in range(4)}
    split = {(0, here), (1, here), (2, WORKER_PREFIX), (3, WORKER_PREFIX)}
    assert ran_on["worker"] == ran_on["delayed"] == split
    assert _worker_threads() == []
    return [tmp_path / mode for mode in factories]


def _blas(tmp_path, monkeypatch, cfg, commands):
    if _openblas() is None:
        pytest.skip("no controllable BLAS: thread invariance is not claimed")
    outs = []
    for threads in ("1", "2"):
        outs.append(tmp_path / f"threads{threads}")
        _child(commands, cfg, outs[-1],
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    summary = json.loads((outs[0] / "summary.json").read_text())
    assert summary["blas_pinned"] is True
    return outs


WAYS = {"in_process": _in_process, "python_m": _python_m, "executor": _executor,
        "blas": _blas}


@pytest.mark.parametrize("way, commands, text", CASES)
def test_every_output_file_is_byte_identical(
    tmp_path, monkeypatch, way, commands, text
):
    cfg = write_cfg(tmp_path, text)
    outs = WAYS[way](tmp_path, monkeypatch, cfg, commands)
    files = [{p.name: p.read_bytes() for p in out.iterdir()} for out in outs]
    assert files[0]  # the command wrote something
    for other in files[1:]:
        assert other.keys() == files[0].keys()
        assert [name for name in other if other[name] != files[0][name]] == []

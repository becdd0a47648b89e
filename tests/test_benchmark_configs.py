"""Every benchmark workload's config parses under the package's config keys.

``benchmarks/run.py`` writes one config per workload and runs the program
on it in child processes, so a config key it writes that the package no
longer knows would fail every child.  These tests only read
``benchmarks/``: run.py is imported with ``benchmarks/`` on ``sys.path``
for its own imports of ``stats`` and ``tracing``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from dpfedsim.config import parse_config

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

if str(BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS))
_spec = importlib.util.spec_from_file_location("bench_run", BENCHMARKS / "run.py")
bench_run = sys.modules["bench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)  # its dataclass looks itself up in sys.modules


@pytest.mark.parametrize("name", list(bench_run.WORKLOADS))
def test_the_workload_config_parses(tmp_path, name):
    workload = bench_run.WORKLOADS[name]
    path = tmp_path / f"{name}.cfg"
    bench_run.write_config(path, workload, 1)
    cfg = parse_config(str(path))
    assert (cfg.rounds, cfg.seeds) == (workload.rounds, (1,))

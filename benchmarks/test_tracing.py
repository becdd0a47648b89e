"""Tests of the traced run's wrappers on a tiny in-process dpfedsim run.

    python3 -m pytest benchmarks
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dpfedsim.cli  # noqa: E402
import dpfedsim.correction  # noqa: E402
import dpfedsim.dp  # noqa: E402
import dpfedsim.federation  # noqa: E402

from tracing import ROUND_LAYERS, TRACED, Tracer  # noqa: E402

TINY = """\
synthetic_classes = 4
synthetic_per_class = 20
synthetic_dim = 8
layer_sizes = 8,6,4
n_clients = 3
rounds = 2
batch_size = 4
seeds = 5
"""


def traced_tiny_run(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    with Tracer() as tracer:
        out = tmp_path / "out"
        code = dpfedsim.cli.main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    return tracer, tracer.metrics()


def test_wrappers_replace_every_binding_and_are_removed_on_exit():
    original = dpfedsim.dp.clip_gradient
    with Tracer():
        assert dpfedsim.federation.clip_gradient is dpfedsim.dp.clip_gradient
        assert dpfedsim.dp.clip_gradient is not original
    assert dpfedsim.federation.clip_gradient is original
    assert dpfedsim.dp.clip_gradient is original


def test_counts_layers_and_clip_bound_on_a_tiny_run(tmp_path):
    tracer, m = traced_tiny_run(tmp_path)
    assert m["federation.run_round_calls"][0] == 2
    assert m["federation.client_local_phase_calls"][0] == 6
    # fixed-size batches of 4 from 3 clients over 2 rounds, one gradient each
    assert m["dp.samples"][0] == m["model.loss_and_gradient_calls"][0] == 24
    assert m["dp.clip_gradient_calls"][0] == 24
    assert tracer.clip_violations == 0
    assert m["dp.clip_max_norm_ratio"][0] <= 1.0 + 1e-12
    # reference mode with 3 clients: 1 reference, 2 tests per round
    assert m["correction.cosine_tests"][0] == 4
    layer_total = sum(m[f"layer.{layer}.self_s"][0] for layer in ROUND_LAYERS)
    assert layer_total == pytest.approx(m["federation.run_round_s"][0], rel=1e-12)
    assert m["trace.absent_functions"][0] == 0


def test_missing_function_is_reported_absent_with_zero_calls(tmp_path, monkeypatch):
    monkeypatch.delattr(dpfedsim.correction, "correct_round")
    tracer, m = traced_tiny_run(tmp_path)
    assert tracer.absent == ["correction.correct_round"]
    assert m["trace.absent_functions"][0] == 1
    assert m["correction.correct_round_calls"][0] == 0
    assert m["correction.correct_round_s"][0] == 0.0
    assert set(f"{name}_calls" for name in TRACED) <= set(m)

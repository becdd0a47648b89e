"""Tests of the benchmark's own arithmetic and parsers.

    python3 -m pytest benchmarks

They need no dpfedsim build and time nothing.
"""

import random
import statistics

import pytest

from stats import (
    check_metrics_csv,
    parse_privacy_schedule,
    quantile,
    round_time_summary,
    self_by_layer_under,
    self_times,
    tail_percentile,
)

PRIVACY_OUTPUT = """\
sigma=0.8 delta=1e-05 local_steps=1
 round  steps      epsilon  alpha
     1      1     6.158978      5
     2      2     9.337862      4
     3      3    11.832941      4
"""

METRICS_CSV = """\
round,epsilon,train_loss,test_acc,test_recall,test_f1,projections,wall_ms
0,6.158978,2.302585,0.100000,0.100000,0.018182,1,121
1,9.337862,2.301000,0.100000,0.100000,0.018182,0,108
2,11.832941,2.300000,0.100000,0.100000,0.018182,1,111
"""


def test_quantile_matches_statistics_inclusive_quartiles():
    rng = random.Random(7)
    for _ in range(200):
        data = [rng.uniform(0.08, 0.13) for _ in range(rng.randint(2, 60))]
        expected = statistics.quantiles(data, n=4, method="inclusive")
        got = [quantile(data, p) for p in (0.25, 0.5, 0.75)]
        assert got == pytest.approx(expected, rel=1e-12)
    assert quantile([3.0], 0.9) == 3.0


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 0.5), (40, 0.75), (100, 0.9), (180, 1 - 10 / 180)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    p = tail_percentile(n)
    assert p == (None if expected is None else pytest.approx(expected))
    if p is not None:
        assert round(n * (1 - p)) == 10


def test_round_time_summary_falls_back_to_slowest_round_when_samples_are_few():
    few = round_time_summary([4.771, 4.644, 4.702, 4.690, 4.810, 4.655])
    assert few["round_s_tail"] == 4.810
    tail = few["tail_percentile"], few["tail_samples_beyond"], few["rounds"]
    assert tail == (100.0, 0, 6)
    many = round_time_summary([k / 1000 for k in range(100, 140)])
    assert many["tail_percentile"] == 75.0
    assert many["tail_samples_beyond"] == 10
    assert many["round_s_tail"] == pytest.approx(0.12925)
    assert many["round_s_p50"] == pytest.approx(0.1195)


def test_self_times_subtract_direct_children_only():
    spans = [
        ("federation.run_round", 0, 100, -1),
        ("federation.client_local_phase", 10, 80, 0),
        ("dp.clip_gradient", 20, 50, 1),
        ("linalg.dot", 25, 45, 2),
        ("model.forward_batch", 85, 95, 0),
    ]
    assert self_times(spans) == [20, 40, 10, 20, 10]


def test_layer_self_times_sum_to_round_time_and_skip_other_roots():
    spans = [
        ("cli.build_state", 0, 50, -1),
        ("data.synthetic_blobs", 5, 40, 0),
        ("federation.run_round", 60, 160, -1),
        ("dp.clip_gradient", 70, 100, 2),
        ("linalg.dot", 75, 95, 3),
        ("federation.run_round", 200, 230, -1),
        ("linalg.dot", 210, 215, 5),
    ]
    def layer_of(name):
        return name.split(".")[0]

    layers = self_by_layer_under(spans, "federation.run_round", layer_of)
    assert layers == {"federation": 70 + 25, "dp": 10, "linalg": 25}
    assert sum(layers.values()) == 100 + 30


def test_privacy_parser_reads_epsilon_strings_in_round_order():
    schedule = ["6.158978", "9.337862", "11.832941"]
    assert parse_privacy_schedule(PRIVACY_OUTPUT) == schedule
    budget = "budget epsilon=20.0: at most 7 noisy steps (7 full rounds)\n"
    assert parse_privacy_schedule(PRIVACY_OUTPUT + budget) == schedule


@pytest.mark.parametrize(
    "text",
    [
        "",
        "sigma is 0: no noise is added\n",
        PRIVACY_OUTPUT.replace("     2      2", "     4      2"),
    ],
)
def test_privacy_parser_rejects_output_without_a_whole_schedule(text):
    with pytest.raises(ValueError):
        parse_privacy_schedule(text)


def test_metrics_check_accepts_a_matching_run_and_drops_wall_ms():
    schedule = parse_privacy_schedule(PRIVACY_OUTPUT)
    det, wall_ms, problems = check_metrics_csv(METRICS_CSV, 3, schedule)
    assert problems == []
    assert wall_ms == [121, 108, 111]
    assert "wall_ms" not in det[0] and len(det) == 4
    other_times = METRICS_CSV.replace(",121\n", ",999\n")
    assert check_metrics_csv(other_times, 3, schedule)[0] == det


def test_metrics_check_flags_epsilon_drift_rows_and_non_finite_loss():
    schedule = parse_privacy_schedule(PRIVACY_OUTPUT)
    def problems(text, rounds=3):
        return " | ".join(check_metrics_csv(text, rounds, schedule)[2])

    assert "privacy schedule" in problems(METRICS_CSV.replace("9.337862", "9.337863"))
    assert "expected 4" in problems(METRICS_CSV, rounds=4)
    assert "train_loss nan" in problems(METRICS_CSV.replace("2.301000", "nan"))
    assert "unparsable" in problems(METRICS_CSV.replace(",108\n", ",x\n"))

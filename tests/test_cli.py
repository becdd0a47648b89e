import gc
import hashlib
import json
import math
import re
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import dpfedsim.cli
from dpfedsim.cli import CSV_HEADER, main
from dpfedsim.config import parse_config
from dpfedsim.dp import epsilon_spent, steps_for_budget
from dpfedsim.federation import ALGORITHMS
from oracle import child_env
from test_data import write_idx_pair
from test_idx_bytes import _idx_pairs

FAST_CFG = """
synthetic_classes = 3
synthetic_per_class = 20
synthetic_dim = 6
layer_sizes = 6,5,3
rounds = 3
eta = 0.05
batch_size = 8
seeds = 2
record_timing = false
"""


def write_cfg(tmp_path, text=FAST_CFG, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_writes_metrics_and_summary(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 4  # header + 3 rounds
    first = lines[1].split(",")
    assert first[0] == "0"
    # every float field is printed with 6 decimals
    for field in first[1:6]:
        assert re.fullmatch(r"-?\d+\.\d{6}|inf|nan", field)
    assert first[7] == "0"  # record_timing=false pins wall_ms to 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seeds"] == [2]
    assert "2" in summary["per_seed"]
    assert summary["per_seed"]["2"]["rounds_completed"] == 3
    assert summary["config"]["algorithm"] == "gcfl"
    captured = capsys.readouterr()
    assert "run complete" in captured.out


def test_weights_sha256_sees_one_ulp_of_the_final_weights(tmp_path, monkeypatch):
    """Each seed's weights_sha256 is SHA-256 over the float64 bytes of the
    final global weights.  One ulp added to their last coordinate, after
    the last evaluation, leaves every metrics CSV unchanged and changes
    every seed's weights_sha256, and nothing else in summary.json."""
    text = FAST_CFG.replace("seeds = 2", "seeds = 2,3")
    cfg = write_cfg(tmp_path, text + "algorithm = gcfl\n")
    real = dpfedsim.cli.run_experiment
    csvs, summaries, shas = {}, {}, {}
    for nudge in (False, True):
        hashed = {}

        def run_experiment(state, worker):
            rounds = real(state, worker)
            w = state.weights
            if nudge:
                w[-1] = np.nextafter(w[-1], np.inf)
            hashed[state.seed] = hashlib.sha256(w.tobytes()).hexdigest()
            return rounds

        monkeypatch.setattr(dpfedsim.cli, "run_experiment", run_experiment)
        out = tmp_path / f"nudge{nudge}"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        per_seed = summary["per_seed"].items()
        shas[nudge] = {int(s): block.pop("weights_sha256") for s, block in per_seed}
        assert shas[nudge] == hashed
        summaries[nudge] = summary
        csvs[nudge] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    assert len(csvs[False]) == 3  # metrics.csv and one file per seed
    assert csvs[True] == csvs[False]
    assert summaries[True] == summaries[False]
    assert all(shas[True][seed] != shas[False][seed] for seed in (2, 3))


def test_run_multi_seed_writes_per_seed_files(tmp_path):
    cfg = write_cfg(tmp_path, FAST_CFG.replace("seeds = 2", "seeds = 2,3"))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "metrics_seed2.csv").exists()
    assert (out / "metrics_seed3.csv").exists()
    # metrics.csv is the first seed's file
    assert (out / "metrics.csv").read_bytes() == (out / "metrics_seed2.csv").read_bytes()
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["per_seed"]) == {"2", "3"}
    assert "test_acc" in summary["mean_final"]


def test_override_changes_behavior(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(
        ["run", "--config", cfg, "--override", "rounds=1", "--out", str(out)]
    )
    assert code == 0
    assert len((out / "metrics.csv").read_text().splitlines()) == 2


def test_summary_stops_early_only_when_the_budget_cuts_a_round(tmp_path):
    """At one local step a round, a budget of exactly the epsilon spent after
    the last round runs every round; the next float below it runs one round
    fewer, and summary.json says so."""
    cfg = write_cfg(tmp_path)
    c = parse_config(cfg)
    assert c.local_steps == 1
    spent = epsilon_spent(c.rounds, c.charged_sigma(), c.delta)[0]
    cases = [
        ([], c.rounds, False),
        (["--override", f"epsilon_budget={spent!r}"], c.rounds, False),
        (
            ["--override", f"epsilon_budget={math.nextafter(spent, 0)!r}"],
            c.rounds - 1,
            True,
        ),
    ]
    for k, (override, rounds, stopped) in enumerate(cases):
        out = tmp_path / f"out{k}"
        assert main(["run", "--config", cfg, *override, "--out", str(out)]) == 0
        final = json.loads((out / "summary.json").read_text())["per_seed"]["2"]
        assert final["rounds_completed"] == rounds, override
        assert final["stopped_early"] is stopped, override
        assert len((out / "metrics.csv").read_text().splitlines()) == 1 + rounds


def test_bad_config_returns_nonzero_and_stderr(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "sigma = -2\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert "noise_multiplier must be >= 0" in captured.err


# FAST_CFG's synthetic sets hold 60 and 12 examples; the IDX pair 120 and 40
@pytest.mark.parametrize(
    "dataset, key, n, size",
    [
        ("synthetic", "subsample_train", 61, 60),
        ("synthetic", "subsample_test", 5000, 12),
        ("idx", "subsample_train", 50000, 120),
        ("idx", "subsample_test", 41, 40),
    ],
)
def test_a_subsample_above_its_set_names_the_key_and_the_size(
    tmp_path, capsys, dataset, key, n, size
):
    text = FAST_CFG
    if dataset == "idx":
        text = text.replace("layer_sizes = 6,5,3", "layer_sizes = 64,5,4")
        text += "dataset = idx\n" + _idx_pairs(tmp_path)
    argv = ["run", "--config", write_cfg(tmp_path, text), "--override",
            f"{key}={n}", "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {key} must be in [1, {size}], the set's size, got {n}\n"
    )


# 40 synthetic train rows of 4 classes and 6 features
DATA_CFG = """
synthetic_classes = 4
synthetic_per_class = 10
synthetic_dim = 6
rounds = 1
seeds = 1
record_timing = false
"""


@pytest.mark.parametrize(
    "dataset, overrides, error",
    [
        ("synthetic", ["n_clients=50"], "n_clients must be in [1, 40], got 50"),
        (
            "synthetic",
            ["n_clients=2", "label_split=0-1;2-4"],
            "label_split: label 4 out of range [0, 4)",
        ),
        (
            "synthetic",
            ["n_clients=2", "label_split=0-2;2-3"],
            "label_split: label groups overlap on [2]",
        ),
        (
            "synthetic",
            ["n_clients=2", "label_split=0;1"],
            "label_split: label groups do not cover classes [2, 3]",
        ),
        (
            "synthetic",
            ["n_clients=4", "label_split=0;1;2;3", "subsample_train=2"],
            "label_split: label group 2 selects no examples",
        ),
        (
            "synthetic",
            ["layer_sizes=7,5,4"],
            "layer_sizes starts at 7 but the data has 6 features",
        ),
        (
            "synthetic",
            ["layer_sizes=6,5,3"],
            "layer_sizes ends at 3 but the data has 4 classes",
        ),
        ("idx", [], "test_images has 16 pixels per image, train_images 64"),
    ],
    ids=["iid", "range", "overlap", "cover", "empty", "features", "classes", "idx"],
)
def test_a_config_the_data_cannot_meet_stops_the_run_naming_the_key(
    tmp_path, capsys, dataset, overrides, error
):
    text = DATA_CFG
    if dataset == "idx":  # 8x8 train images, 4x4 test images
        text += "dataset = idx\n" + _idx_pairs(tmp_path)
        write_idx_pair(tmp_path / "test", np.zeros((40, 4, 4)), np.arange(40) % 4)
    argv = ["run", "--config", write_cfg(tmp_path, text)]
    for item in overrides:
        argv += ["--override", item]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]


def test_missing_config_file_returns_nonzero(tmp_path, capsys):
    assert main(
        ["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")]
    ) == 1
    assert "error:" in capsys.readouterr().err


def test_diverging_run_returns_nonzero(tmp_path, capsys):
    # eta = 1e300 takes the weights beyond float32's range in round 0, so
    # round 1 would see NaN gradients; the run must stop at round 0's
    # evaluation instead of writing NaN losses
    cfg = write_cfg(tmp_path, FAST_CFG.replace("eta = 0.05", "eta = 1e300"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "round 0: weights not finite in float32" in capsys.readouterr().err


@pytest.mark.parametrize(
    "keys, error",
    [
        ("eta = 1e300\nsigma = 0", "weights not finite in float32"),
        ("eta = 1e30\nsigma = 0", "logits not finite in float32"),
        (
            "eta = 1e-170\nclip_threshold = 1e160\ncorrection_mode = pairwise",
            "Gram matrix of the uploads not finite",
        ),
    ],
    ids=["1e300", "1e30", "gram"],
)
def test_a_model_beyond_float32_stops_the_run_with_one_error_line(
    tmp_path, capsys, keys, error
):
    """At sigma = 0 and eta = 1e300, round 0 leaves float64 weights that are
    finite but overflow the float32 evaluation casts them to; at eta = 1e30
    the cast weights are finite but overflow the float32 logits.  At C =
    1e160 the uploads' squared norms overflow float64, so their Gram
    matrix is not finite, and no NaN cosine of it may count as a conflict.
    Each run exits 1 with one error line naming the round and the cause:
    no numpy warning escapes, from this thread or the worker, and no score
    of NaN logits is written."""
    cfg = write_cfg(
        tmp_path,
        "synthetic_dim = 6\nsynthetic_classes = 3\nsynthetic_per_class = 10\n"
        f"n_clients = 3\n{keys}\nrounds = 1\n",
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: round 0: {error}"]
    assert not (tmp_path / "o" / "metrics.csv").exists()


def test_budget_that_fits_no_round_is_one_error_line(tmp_path, capsys):
    # at the default sigma = 0.8, epsilon 1.0 allows no noisy step at all
    cfg = write_cfg(tmp_path, FAST_CFG + "epsilon_budget = 1.0\n")
    for command in (["run"], ["compare", "--algos", "gcfl,dp_fedavg"]):
        out = tmp_path / command[0]
        assert main([*command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: epsilon_budget")
        assert "allows 0 noisy steps" in err[0]
        assert not out.exists()  # rejected before any data is made
    # below the conversion floor (about 0.1 here) no step count fits at all
    cfg = write_cfg(tmp_path, FAST_CFG + "epsilon_budget = 0.01\n")
    assert main(["privacy", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("error: epsilon_budget: ")


def test_budget_without_noise_is_one_error_line(tmp_path, capsys):
    # sigma = 0 spends epsilon = inf on the first step, so no budget fits
    cfg = write_cfg(tmp_path, FAST_CFG + "sigma = 0\nepsilon_budget = 5\n")
    for command in (["run"], ["compare", "--algos", "gcfl,dp_fedavg"], ["privacy"]):
        out = tmp_path / command[0]
        args = [*command, "--config", cfg]
        if command[0] != "privacy":
            args += ["--out", str(out)]
        assert main(args) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: epsilon_budget: ")
        assert captured.out == ""
        assert not out.exists()


@pytest.mark.parametrize("budget", ["0", "inf"])
def test_privacy_prints_no_step_count_without_a_budget(tmp_path, capsys, budget):
    cfg = write_cfg(tmp_path)
    override = f"epsilon_budget={budget}"
    assert main(["privacy", "--config", cfg, "--override", override]) == 0
    out = capsys.readouterr().out
    assert "budget" not in out and "noisy steps" not in out
    assert len(out.splitlines()) == 2 + 3  # two header lines, 3 rounds


def test_privacy_prints_the_step_count_of_a_finite_budget(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_CFG + "epsilon_budget = 20\n")
    assert main(["privacy", "--config", cfg]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    steps = steps_for_budget(0.8 / 2, 1e-5, 20.0)  # fixed_size: sensitivity 2C
    assert last == (
        f"budget epsilon=20.0: at most {steps} noisy steps ({steps} full rounds)"
    )


@pytest.mark.parametrize(
    "sampling_mode, sensitivity, local_steps, budget, rounds_run, first",
    [
        ("fixed_size", "2C", 1, 0, 3, "14.176691"),
        ("poisson", "C", 1, 0, 3, "6.158978"),
        ("fixed_size", "2C", 3, 0, 3, "28.876631"),
        ("poisson", "C", 3, 20, 2, "11.832941"),
    ],
    ids=[
        "fixed_size-2C-14.176691",
        "poisson-C-6.158978",
        "fixed_size-2C-k3-28.876631",
        "poisson-C-k3-budget20-11.832941",
    ],
)
def test_run_reports_the_privacy_schedule_of_its_sampling_mode(
    tmp_path, capsys, sampling_mode, sensitivity, local_steps, budget, rounds_run,
    first,
):
    """run's epsilon column is privacy's schedule, string for string, and
    privacy's header names the sensitivity a step is charged at: 2C under
    fixed_size, C under poisson.  One round of K steps at sigma = 0.8,
    delta = 1e-5 costs 14.176691 at 2C and 6.158978 at C for K = 1, and
    28.876631 at 2C and 11.832941 at C for K = 3.  A budget of 20 at C
    allows 6 steps, two rounds of 3, so the run stops after two of its
    three rounds and reports the first two rows of the schedule."""
    cfg = write_cfg(
        tmp_path,
        FAST_CFG + f"sampling_mode = {sampling_mode}\nlocal_steps = {local_steps}\n"
        f"epsilon_budget = {budget}\n",
    )
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    final = json.loads((out / "summary.json").read_text())["per_seed"]["2"]
    assert final["rounds_completed"] == len(rows) == rounds_run
    capsys.readouterr()
    assert main(["privacy", "--config", cfg]) == 0
    header, _, *table = capsys.readouterr().out.splitlines()
    assert header == (
        f"sigma=0.8 delta=1e-05 local_steps={local_steps} neighbours=add/remove "
        f"one example in one client's shard, other shards fixed "
        f"sensitivity={sensitivity}"
    )
    schedule = [line.split()[2] for line in table if not line.startswith("budget")]
    assert len(schedule) == 3 and schedule[0] == first
    assert [row.split(",")[1] for row in rows] == schedule[:rounds_run]


def test_compare_builds_each_seeds_data_once_and_runs_every_algorithm_on_it(
    tmp_path, monkeypatch
):
    """The driver's same-data promise: build_data runs once per seed, and
    every algorithm's init_state receives that build's train set and
    shards, the very objects."""
    real_build, real_init = dpfedsim.cli.build_data, dpfedsim.cli.init_state
    builds, inits = {}, []

    def build_data(cfg, seed, worker):
        builds[seed] = built = real_build(cfg, seed, worker)
        return built

    def init_state(spec, cfg, seed, train, shards, *test):
        inits.append((seed, cfg.algorithm, train, shards))
        return real_init(spec, cfg, seed, train, shards, *test)

    monkeypatch.setattr(dpfedsim.cli, "build_data", build_data)
    monkeypatch.setattr(dpfedsim.cli, "init_state", init_state)
    cfg = write_cfg(tmp_path, FAST_CFG.replace("seeds = 2", "seeds = 1,2"))
    out = tmp_path / "cmp"
    argv = ["compare", "--config", cfg, "--out", str(out)]
    assert main([*argv, "--algos", "gcfl,dp_fedavg"]) == 0
    assert list(builds) == [1, 2]
    assert [(seed, algo) for seed, algo, _, _ in inits] == [
        (1, "gcfl"), (1, "dp_fedavg"), (2, "gcfl"), (2, "dp_fedavg"),
    ]
    for seed, _, train, shards in inits:
        assert train is builds[seed][1] and shards is builds[seed][2]
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0] == (
        "algorithm,seed,epsilon,train_loss,test_acc,test_recall,test_f1,"
        "projections,weights_sha256"
    )
    assert len(lines) == 5  # two algorithms, two seeds


@pytest.mark.parametrize(
    "argv, configs",
    [(["run"], 1), (["compare", "--algos", "gcfl,dp_scaffold"], 2)],
    ids=["run", "compare"],
)
def test_a_seeds_data_and_states_are_freed_before_the_next_seeds_build(
    tmp_path, monkeypatch, argv, configs
):
    """With the collector off, nothing of seed 1's train set, test levels or
    run states (weights and dp_scaffold variates) is alive when seed 2's
    build starts: a run holds one seed's data at a time."""
    real_build, real_init = dpfedsim.cli.build_data, dpfedsim.cli.init_state
    refs = []

    def build_data(cfg, seed, worker):
        assert [ref for ref in refs if ref() is not None] == []
        built = real_build(cfg, seed, worker)
        refs.extend([weakref.ref(built[1]), weakref.ref(built[3])])
        return built

    def init_state(*args):
        state = real_init(*args)
        refs.append(weakref.ref(state))
        return state

    monkeypatch.setattr(dpfedsim.cli, "build_data", build_data)
    monkeypatch.setattr(dpfedsim.cli, "init_state", init_state)
    text = FAST_CFG.replace("seeds = 2", "seeds = 1,2")
    cfg = write_cfg(tmp_path, text + "algorithm = dp_scaffold\n")
    gc.disable()
    try:
        code = main([*argv, "--config", cfg, "--out", str(tmp_path / "out")])
    finally:
        gc.enable()
    assert code == 0
    assert len(refs) == 2 * (2 + configs)  # per seed: train, test levels, states


def test_each_compare_row_is_the_final_row_of_a_separate_run(tmp_path):
    """compare builds each seed's data once and runs every algorithm on it;
    each row must be what a run of that algorithm alone ends with."""
    cfg = write_cfg(tmp_path, FAST_CFG.replace("seeds = 2", "seeds = 1,2"))
    algos = list(ALGORITHMS)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out),
                 "--algos", ",".join(algos)]) == 0
    rows = [row.split(",") for row in (out / "comparison.csv").read_text().splitlines()]
    want = []
    for algo in algos:
        run_out = tmp_path / algo
        argv = ["run", "--config", cfg, "--out", str(run_out)]
        assert main([*argv, "--override", f"algorithm={algo}"]) == 0
        for seed in (1, 2):
            lines = (run_out / f"metrics_seed{seed}.csv").read_text().splitlines()
            final = lines[-1].split(",")
            projections = sum(int(line.split(",")[6]) for line in lines[1:])
            summary = json.loads((run_out / "summary.json").read_text())
            want.append(
                [algo, str(seed), *final[1:6], str(projections),
                 summary["per_seed"][str(seed)]["weights_sha256"]]
            )
    assert rows[0][-1] == "weights_sha256"
    assert rows[1:] == want
    assert any(int(row[-2]) > 0 for row in want)  # gcfl projected


def test_compare_rejects_a_bad_algorithm_before_training_any(
    tmp_path, capsys, monkeypatch
):
    trained = []
    monkeypatch.setattr(dpfedsim.cli, "run_experiment", lambda *a: trained.append(a))
    out = tmp_path / "cmp"
    argv = ["compare", "--config", write_cfg(tmp_path), "--out", str(out)]
    assert main([*argv, "--algos", "gcfl,dp_fedavg,fedsgd"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: algorithm")
    assert "fedsgd" in err[0]
    assert trained == []
    assert not out.exists()


def test_run_refuses_dp_fedexp_with_one_error_line(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["run", "--config", write_cfg(tmp_path), "--out", str(out)]
    assert main([*argv, "--override", "algorithm=dp_fedexp"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: algorithm must be one of ('gcfl', 'dp_fedavg', 'dp_fedprox', "
        "'dp_scaffold'), got 'dp_fedexp'"
    ]
    assert not out.exists()


def test_run_rejects_a_repeated_seed_before_training(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_CFG.replace("seeds = 2", "seeds = 1,1"))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: seeds: 1 is listed twice"]
    assert not out.exists()


def test_run_rejects_a_repeated_override_before_creating_out(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["run", "--config", write_cfg(tmp_path), "--out", str(out)]
    assert main([*argv, "--override", "rounds=1", "--override", "rounds=2"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: --override: rounds is set twice"]
    assert not out.exists()


SHARED_HELP = [
    "--config CONFIG key=value config file",
    "--override KEY=VALUE override a config key (repeatable, once per key; "
    "wins over the file)",
]
OUT_HELP = "--out OUT output directory"


@pytest.mark.parametrize(
    "command, lines",
    [
        ("run", [*SHARED_HELP, OUT_HELP]),
        ("compare", [*SHARED_HELP, OUT_HELP,
                     "--algos ALGOS comma list, e.g. gcfl,dp_fedavg,dp_scaffold"]),
        ("privacy", SHARED_HELP),
    ],
    ids=["run", "compare", "privacy"],
)
def test_each_subcommands_help_explains_every_option(capsys, command, lines):
    """Every option of every subcommand has its help text: the options the
    subcommands share read the same everywhere."""
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    assert done.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # unwrap argparse's lines
    for line in lines:
        assert line in text
    options = re.findall(r"(?<![\w-])--[a-z]+", text)
    assert sorted(set(options)) == sorted(
        {"--help", *(line.split()[0] for line in lines)}
    )


@pytest.mark.parametrize(
    "algos, message",
    [
        ("gcfl,dp_fedavg,gcfl", "--algos: gcfl is listed twice"),
        ("gcfl,,dp_fedavg,", "--algos: empty item in the comma list"),
        ("gcfl, ,dp_fedavg", "--algos: empty item in the comma list"),
        (",gcfl", "--algos: empty item in the comma list"),
        ("gcfl,", "--algos: empty item in the comma list"),
        (" ", "--algos must list at least one algorithm"),
    ],
    ids=["repeated", "empty-items", "blank-item", "leading-comma",
         "trailing-comma", "blank"],
)
def test_compare_rejects_a_repeated_algorithm_before_creating_out(
    tmp_path, capsys, algos, message
):
    """A repeated or empty item of --algos, or a blank list, is refused
    with one error line before --out is created."""
    out = tmp_path / "cmp"
    argv = ["compare", "--config", write_cfg(tmp_path), "--out", str(out)]
    assert main([*argv, "--algos", algos]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_privacy_prints_schedule(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["privacy", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "epsilon" in out
    assert len(out.splitlines()) >= 5  # header rows + 3 rounds
    # epsilon column strictly increases
    eps = [float(line.split()[2]) for line in out.splitlines()[2:5]]
    assert eps[0] < eps[1] < eps[2]


def test_the_readme_quick_start_prints_and_writes_what_the_readme_shows(
    tmp_path, capsys
):
    """The README's demo.cfg, run in-process, prints its run-complete line,
    writes its example metrics.csv row and gives its privacy schedule."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    demo = re.search(r"cat > demo.cfg <<'EOF'\n(.*?\n)EOF\n", readme, re.S)
    cfg = write_cfg(tmp_path, demo.group(1), "demo.cfg")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    printed = re.search(r"\n# (run complete: .*)\n", readme).group(1)
    assert capsys.readouterr().out.splitlines() == [printed]
    rows = readme.split("`metrics.csv` — one row per round", 1)[1]
    rows = rows.split("```\n", 2)[1].splitlines()
    assert (out / "metrics.csv").read_text().splitlines()[:2] == rows
    assert main(["privacy", "--config", cfg]) == 0
    schedule = readme.split("* `dpfedsim privacy --config CFG`", 1)[1]
    schedule = schedule.split("```\n", 2)[1].splitlines()
    shown = [line.removeprefix("  ") for line in schedule[:-1]]
    assert capsys.readouterr().out.splitlines()[: len(shown)] == shown
    assert len(shown) == 4


def test_a_closed_stdout_ends_privacy_with_exit_1_and_nothing_on_stderr(tmp_path):
    """The reader takes one line and closes the pipe while privacy still has
    well over a pipe buffer of schedule to write."""
    cfg = write_cfg(tmp_path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "dpfedsim.cli", "privacy", "--config", cfg,
         "--override", "rounds=5000"],
        env=child_env(OPENBLAS_NUM_THREADS="2"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline().startswith(b"sigma=")
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


def test_privacy_sigma_zero_message(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_CFG + "sigma = 0\n")
    assert main(["privacy", "--config", cfg]) == 0
    assert "no DP guarantee" in capsys.readouterr().out


def test_the_console_script_freezes_the_heap_and_exits_with_mains_code(
    tmp_path, monkeypatch
):
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    assert '\ndpfedsim = "dpfedsim.cli:script"\n' in pyproject
    cfg = write_cfg(tmp_path, "sigma = -2\n")
    monkeypatch.setattr(sys, "argv", ["dpfedsim", "privacy", "--config", cfg])
    try:
        with pytest.raises(SystemExit) as exc:
            dpfedsim.cli.script()
        assert exc.value.code == 1
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


def test_golden_two_round_run(tmp_path):
    """Regression pin of the exact CSV bytes for a small fixed config."""
    cfg = write_cfg(
        tmp_path,
        """
        synthetic_classes = 3
        synthetic_per_class = 10
        synthetic_dim = 4
        layer_sizes = 4,3,3
        rounds = 2
        eta = 0.1
        batch_size = 5
        sigma = 0.5
        seeds = 11
        record_timing = false
        """,
    )
    out = tmp_path / "golden"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    got = (out / "metrics.csv").read_text()
    expected = (
        "round,epsilon,train_loss,test_acc,test_recall,test_f1,projections,wall_ms\n"
        "0,26.126631,1.111985,0.333333,0.333333,0.166667,0,0\n"
        "1,42.126631,1.106323,0.333333,0.333333,0.190476,0,0\n"
    )
    assert got == expected

"""The boundary rule, tested as a property of the commands.

Each value is checked once, where it enters, and the layers below trust
it.  So every config that ``run``, ``compare`` or ``privacy`` is given
ends one of two ways:

- exit 0, with finite scores in range and an epsilon column equal to
  ``privacy``'s schedule, cut where the budget cuts the run;
- exit 1, with one ``error:`` line that names a config key or a round.

A traceback fails the test, and so does a warning from either thread.
Each call records them: pytest's ``filterwarnings = error`` would raise
one on the worker as an error, and that error is lost when a client on
the calling thread fails too.
Configs are a fixed seeded draw of tiny synthetic runs, with the step,
noise and clip scales drawn log-uniform over one of two ranges.  Every
other config also sets one key out of range, in turn through
``OUT_OF_RANGE``.
"""

import csv
import math
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from dpfedsim.cli import main
from dpfedsim.config import ExperimentConfig
from dpfedsim.correction import CORRECTION_MODES
from dpfedsim.dp import SAMPLING_MODES
from dpfedsim.federation import ALGORITHMS

# log10 of the (lowest, highest) value drawn for each scale
RANGES = {
    "ordinary": {
        "eta": (-4, 4), "sigma": (-3, 6), "clip_threshold": (-6, 6), "prox_mu": (-6, 2),
    },
    "extreme": {
        "eta": (-4, 40), "sigma": (-200, 300), "clip_threshold": (-6, 300),
        "prox_mu": (-6, 300),
    },
}

# (key, value) pairs outside what the key, or the data, allows
OUT_OF_RANGE = (
    ("dataset", "idx"),
    ("train_images", "train.idx"),
    ("synthetic_classes", "1"),
    ("synthetic_per_class", "0"),
    ("synthetic_dim", "0"),
    ("synthetic_spread", "-1"),
    ("subsample_train", "999"),
    ("subsample_test", "-1"),
    ("label_split", "0-99"),
    ("layer_sizes", "99,4,2"),
    ("n_clients", "0"),
    ("clients_per_round", "9"),
    ("rounds", "0"),
    ("local_steps", "0"),
    ("eta", "0"),
    ("eta", "nan"),
    ("batch_size", "0"),
    ("sampling_mode", "uniform"),
    ("algorithm", "fedsgd"),
    ("prox_mu", "-1"),
    ("sigma", "-1"),
    ("sigma", "inf"),
    ("clip_threshold", "0"),
    ("delta", "1"),
    ("epsilon_budget", "-1"),
    ("epsilon_budget", "1e-3"),  # below the conversion floor
    ("epsilon_budget", "1e15"),  # more than 2**40 steps at most sigmas
    ("correction_mode", "nearest"),
    ("num_references", "9"),
    ("seeds", "1,1"),
)

KEYS = "|".join(f.name for f in fields(ExperimentConfig))
NAMES_A_KEY_OR_ROUND = re.compile(rf"^error: .*(\b({KEYS})\b|\bround \d+)")

COMMANDS = ("run", "compare")  # each after privacy, on the same config
CONFIGS = 4 * len(OUT_OF_RANGE)  # per range and command


def _log_uniform(rng: np.random.Generator, bounds: tuple[int, int]) -> float:
    return float(10.0 ** rng.uniform(*bounds))


def draw_config(rng: np.random.Generator, scales: dict, i: int) -> dict[str, str]:
    """Config i of a draw: keys in range, and for odd i one out of range."""
    classes, dim, n = (int(x) for x in rng.integers((2, 2, 1), (5, 7, 5)))
    values = {
        "synthetic_classes": classes,
        "synthetic_per_class": int(rng.integers(5, 16)),
        "synthetic_dim": dim,
        "layer_sizes": f"{dim},4,{classes}",
        "n_clients": n,
        "clients_per_round": int(rng.integers(0, n + 1)),
        "rounds": int(rng.integers(1, 4)),
        "local_steps": int(rng.integers(1, 4)),
        "batch_size": int(rng.integers(1, 9)),
        "sampling_mode": rng.choice(SAMPLING_MODES),
        "algorithm": rng.choice(ALGORITHMS),
        "correction_mode": rng.choice(CORRECTION_MODES),
        "num_references": int(rng.integers(0, 3)),
        "eta": _log_uniform(rng, scales["eta"]),
        "sigma": 0.0 if rng.random() < 0.15 else _log_uniform(rng, scales["sigma"]),
        "clip_threshold": _log_uniform(rng, scales["clip_threshold"]),
        "prox_mu": 0.0 if rng.random() < 0.2 else _log_uniform(rng, scales["prox_mu"]),
        "delta": _log_uniform(rng, (-8, -1)),
        "epsilon_budget": rng.choice([0.0, math.inf, _log_uniform(rng, (-1, 4))]),
        "seeds": int(rng.integers(0, 100)),
        "record_timing": "false",
    }
    if i % 2:
        key, value = OUT_OF_RANGE[i // 2 % len(OUT_OF_RANGE)]
        values[key] = value
    return {key: str(value) for key, value in values.items()}


def _call(capsys, argv: list[str]) -> tuple[int, str]:
    """main(argv)'s exit code and stdout; it warns nothing, on exit 1
    stderr is one error line that names a key or a round, and on exit 0
    it is empty."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    assert [str(w.message) for w in caught] == [], argv
    assert code in (0, 1), argv
    if code:
        assert len(err.splitlines()) == 1, (argv, err)
        assert NAMES_A_KEY_OR_ROUND.match(err), (argv, err)
    else:
        assert err == "", (argv, err)
    return code, out


def _schedule(out: str, rounds: int) -> list[str]:
    """The epsilon of each round a run takes, as ``privacy`` printed them:
    its rounds are cut to the budget's full rounds, and at sigma = 0 every
    round's epsilon is inf."""
    lines = out.splitlines()
    if lines[0].startswith("sigma is 0"):
        return ["inf"] * rounds
    cut = re.search(r"\((\d+) full rounds\)$", lines[-1])
    table = lines[2:-1] if cut else lines[2:]
    assert len(table) == rounds
    return [row.split()[2] for row in table[: int(cut[1]) if cut else rounds]]


def _check_scores(row: dict[str, str]) -> None:
    assert math.isfinite(float(row["train_loss"])), row
    for key in ("test_acc", "test_recall", "test_f1"):
        assert 0 <= float(row[key]) <= 1, row
    assert int(row["projections"]) >= 0, row


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("scales", list(RANGES))
def test_every_config_runs_clean_or_is_refused_naming_its_key_or_round(
    tmp_path, capsys, scales, command
):
    rng = np.random.default_rng((list(RANGES).index(scales), COMMANDS.index(command)))
    for i in range(CONFIGS):
        values = draw_config(rng, RANGES[scales], i)
        config = tmp_path / f"{i}.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        code, printed = _call(capsys, ["privacy", "--config", str(config)])
        out = tmp_path / str(i)
        argv = [command, "--config", str(config), "--out", str(out)]
        if command == "compare":
            algos = rng.choice(ALGORITHMS, size=int(rng.integers(1, 4)), replace=False)
            argv += ["--algos", ",".join(algos)]
        if _call(capsys, argv)[0]:
            continue
        assert code == 0, values  # a config a run accepts, privacy accepts
        eps = _schedule(printed, int(values["rounds"]))
        name = "metrics.csv" if command == "run" else "comparison.csv"
        with open(out / name, newline="") as f:
            rows = list(csv.DictReader(f))
        if command == "run":
            assert [r["epsilon"] for r in rows] == eps, values
            assert [r["round"] for r in rows] == [str(t) for t in range(len(eps))]
            assert {r["wall_ms"] for r in rows} == {"0"}
        else:
            assert [r["algorithm"] for r in rows] == list(algos)
            assert {r["epsilon"] for r in rows} == {eps[-1]}, values
        for row in rows:
            _check_scores(row)

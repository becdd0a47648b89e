"""Order statistics, trace arithmetic and output parsing for the benchmark.

Nothing here imports dpfedsim: these functions only read what the program
prints or writes, so they keep working when the program's internals change.
"""

from __future__ import annotations

import math

# The tail is the highest percentile with at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10


def quantile(values, p: float) -> float:
    """Quantile ``p`` by linear interpolation between order statistics.

    The same estimator as ``statistics.quantiles(method="inclusive")`` and
    numpy's default: rank ``p * (n - 1)`` counted from 0.
    """
    data = sorted(values)
    if not data:
        raise ValueError("no quantile of empty data")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    rank = p * (len(data) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def tail_percentile(n: int) -> float | None:
    """Highest percentile (as a fraction) with TAIL_SAMPLES_BEYOND samples beyond it.

    None when ``n`` is too small for any percentile at or above the median to
    have that many samples beyond it.
    """
    if n < 2 * TAIL_SAMPLES_BEYOND:
        return None
    return 1.0 - TAIL_SAMPLES_BEYOND / n


def round_time_summary(round_s: list[float]) -> dict:
    """Median and tail of per-round times.

    With too few rounds for a tail percentile the slowest round is the tail,
    stated as percentile 100 with 0 samples beyond it.
    """
    n = len(round_s)
    p = tail_percentile(n)
    if p is None:
        tail, pct, beyond = max(round_s), 100.0, 0
    else:
        tail, pct, beyond = quantile(round_s, p), 100.0 * p, TAIL_SAMPLES_BEYOND
    return {
        "round_s_p50": quantile(round_s, 0.5),
        "round_s_tail": tail,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "rounds": n,
    }


def self_times(spans) -> list[int]:
    """Each span's duration minus the part covered by its direct children.

    ``spans`` is a sequence of ``(name, start, end, parent)`` with ``parent``
    the index of the enclosing span or -1.  Spans nest (a child lies inside
    its parent's interval), so summing self times over any span's subtree
    gives back that span's duration exactly when times are integers.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def self_by_layer_under(spans, root_name: str, layer_of) -> dict[str, int]:
    """Self time summed per layer over the subtrees rooted at ``root_name`` spans.

    Parents must precede their children in ``spans``, as they do when a span's
    slot is reserved on entry.  ``layer_of`` maps a span name to its layer.
    """
    own = self_times(spans)
    root = [-1] * len(spans)
    totals: dict[str, int] = {}
    for i, (name, _, _, parent) in enumerate(spans):
        root[i] = i if parent < 0 else root[parent]
        if spans[root[i]][0] == root_name:
            layer = layer_of(name)
            totals[layer] = totals.get(layer, 0) + own[i]
    return totals


def parse_privacy_schedule(text: str) -> list[str]:
    """Epsilon strings, round 1 first, from ``dpfedsim privacy`` output.

    Table rows are ``round steps epsilon alpha``; every other line is ignored.
    Rounds must run 1, 2, 3, ... without gaps.
    """
    epsilons = []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) != 4 or not parts[0].isdigit():
            continue
        if int(parts[0]) != len(epsilons) + 1:
            raise ValueError(f"privacy schedule skips to round {parts[0]}")
        epsilons.append(parts[2])
    if not epsilons:
        raise ValueError("privacy output holds no schedule rows")
    return epsilons


def check_metrics_csv(text: str, rounds: int, epsilons: list[str]):
    """Check one run's ``metrics.csv``; return (deterministic rows, wall_ms, problems).

    The deterministic rows are every column but ``wall_ms``, as strings, for
    comparing runs byte for byte.  Problems are human-readable strings; an
    empty list means the file passed.
    """
    lines = text.splitlines()
    if not lines:
        return [], [], ["metrics.csv is empty"]
    header = lines[0].split(",")
    required = ("round", "epsilon", "train_loss", "wall_ms")
    missing = [c for c in required if c not in header]
    if missing:
        return [], [], [f"metrics.csv lacks columns {missing}"]
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        return [], [], ["a row of metrics.csv has the wrong number of fields"]
    col = {name: k for k, name in enumerate(header)}
    problems = []
    if len(rows) != rounds:
        problems.append(f"{len(rows)} rows, expected {rounds}")
    try:
        losses = [float(r[col["train_loss"]]) for r in rows]
        wall_ms = [int(r[col["wall_ms"]]) for r in rows]
    except ValueError as exc:
        return [], [], [f"unparsable metrics.csv value: {exc}"]
    for k, loss in enumerate(losses):
        if not math.isfinite(loss):
            problems.append(f"round {k}: train_loss {loss}")
    got = [r[col["epsilon"]] for r in rows]
    if got != epsilons:
        problems.append(f"epsilon column {got} is not the privacy schedule {epsilons}")
    keep = [k for k, name in enumerate(header) if name != "wall_ms"]
    return [[cells[k] for k in keep] for cells in [header, *rows]], wall_ms, problems

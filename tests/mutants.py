"""One-line mutants of the privacy and determinism promises, and their sweep.

Each mutant breaks one promise with one textual edit of one file in
``src/dpfedsim``.  ``tests/test_package.py`` checks that every mutant's old
text occurs exactly once in ``src/``, so a refactor that moves the text
must update this list.

Run the sweep from the repository root (it is not part of tier-1):

    python tests/mutants.py

It copies the repository's files (``git ls-files``, untracked files that
are not ignored included) into a temporary directory, applies one mutant
there and runs tier-1 with the byte pins deselected.  A PR that moves
bytes regenerates the pins, so a pin alone guards no promise: a mutant
that survives that run and is killed only by the pins is reported as
weak.  One that nothing kills is a survivor, expected when ``SURVIVORS``
names the open item that will kill it.  The unmutated tree runs first and
must pass.  ``mutants.json``, at the repository root, records, per
mutant, the outcome, the tests that killed it and the wall seconds.  To
run one mutant, call ``sweep([mutant])`` from Python.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# tests that pin output bytes rather than a property; the README quick
# start pins the numbers the README shows
PINS = (
    "tests/test_cli.py::test_golden_two_round_run",
    "tests/test_cli.py::test_the_readme_quick_start_prints_and_writes_what_the_readme_shows",
    "tests/test_idx_bytes.py",
    "tests/test_data.py::test_shard_fingerprints_are_pinned",
)
# fails under a mutant by design: the mutant has replaced its old text
LIST_CHECK = "tests/test_package.py::test_every_mutants_old_text_occurs_once_in_src"


class Mutant(NamedTuple):
    id: str
    promise: str
    file: str  # relative to src/dpfedsim
    old: str
    new: str


MUTANTS = (
    Mutant(
        "noise_half",
        "the noise is calibrated to sigma C",
        "federation.py",
        "noisy *= cfg.sigma * cfg.clip_threshold",
        "noisy *= 0.5 * cfg.sigma * cfg.clip_threshold",
    ),
    Mutant(
        "fixed_size_sensitivity_1",
        "a fixed_size step is charged at sensitivity 2C",
        "dp.py",
        'SENSITIVITY = {"fixed_size": 2, "poisson": 1}',
        'SENSITIVITY = {"fixed_size": 1, "poisson": 1}',
    ),
    Mutant(
        "divide_by_drawn_batch",
        "a step divides by the public batch_size, never the batch drawn",
        "federation.py",
        "noisy /= cfg.batch_size",
        "noisy /= max(1, idx.size)",
    ),
    Mutant(
        "noise_stream_every_round",
        "each round draws fresh noise",
        "federation.py",
        "derive_rng(state.seed, round_index, cid, Stream.NOISE)",
        "derive_rng(state.seed, 0, cid, Stream.NOISE)",
    ),
    Mutant(
        "noise_stream_shared_by_clients",
        "each client draws its own noise",
        "federation.py",
        "derive_rng(state.seed, round_index, cid, Stream.NOISE)",
        "derive_rng(state.seed, round_index, 0, Stream.NOISE)",
    ),
    Mutant(
        "accountant_ignores_k",
        "a round charges its K local steps",
        "federation.py",
        "steps = (round_index + 1) * cfg.local_steps",
        "steps = round_index + 1",
    ),
    Mutant(
        "epsilon_one_round_late",
        "round t reports epsilon after t + 1 rounds",
        "federation.py",
        "steps = (round_index + 1) * cfg.local_steps",
        "steps = round_index * cfg.local_steps",
    ),
    Mutant(
        "budget_one_round_over",
        "a run stops before the round that would exceed the budget",
        "federation.py",
        "else max_steps // cfg.local_steps",
        "else max_steps // cfg.local_steps + 1",
    ),
    Mutant(
        "upload_weights_from_shard_sizes",
        "aggregation weighs uploads by public counts only",
        "federation.py",
        "alpha = fold_weights(plan, [1.0 / len(participants)] * len(participants))",
        "alpha = fold_weights(plan, [state.shards[c].size / sum("
        "state.shards[q].size for q in participants) for c in participants])",
    ),
    Mutant(
        "poisson_rate_doubled",
        "poisson keeps each example at rate batch_size / shard size",
        "dp.py",
        "< min(1.0, batch_size / shard_size)",
        "< min(1.0, 2 * batch_size / shard_size)",
    ),
    Mutant(
        "clip_at_2c",
        "no per-sample gradient exceeds the clip bound C",
        "model.py",
        "scale = clip_threshold / np.maximum(np.sqrt(sq_norms), clip_threshold)",
        "scale = 2 * clip_threshold / np.maximum(np.sqrt(sq_norms), 2 * clip_threshold)",
    ),
    Mutant(
        "norm_without_bias_term",
        "the per-sample norm counts the bias gradient",
        "model.py",
        "(_row_dots(a, a) + 1.0) * _row_dots(d, d)",
        "_row_dots(a, a) * _row_dots(d, d)",
    ),
    Mutant(
        "norm_without_prox_cross_term",
        "the per-sample norm is that of the shifted gradient",
        "model.py",
        "np.maximum(sq_norms + 2.0 * cross + shift_sq, 0.0)",
        "np.maximum(sq_norms + shift_sq, 0.0)",
    ),
    Mutant(
        "prox_shift_added_unclipped",
        "the prox shift is clipped with the gradient it shifts",
        "model.py",
        "add_scaled(out, np.sum(scale), shift)",
        "add_scaled(out, float(labs.size), shift)",
    ),
    Mutant(
        "conflict_sign_flipped",
        "only a negative cosine is a conflict",
        "correction.py",
        "if cos < 0:",
        "if cos > 0:",
    ),
)

# mutant id -> the open ROADMAP item that will kill it
SURVIVORS: dict[str, str] = {}


def copy_tree(dest: Path) -> None:
    """The repository's tracked and untracked-but-not-ignored files."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout.decode().split("\0")
    for name in filter(None, listed):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def apply(tree: Path, mutant: Mutant) -> None:
    path = tree / "src" / "dpfedsim" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.id}: old text is not in {mutant.file} exactly once")
    path.write_text(text.replace(mutant.old, mutant.new))


def failed_tests(tree: Path, args: list[str]) -> list[str]:
    """Node ids of the tests that fail or error in tree's tier-1, run with
    ``args`` appended to the pytest arguments.  Raises when pytest stops
    for any other reason (exit code not 0 or 1) or reports no test."""
    report = tree / "report.xml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", f"--junitxml={report}", *args],
        cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        capture_output=True, text=True,
    )
    cases = list(ET.parse(report).iter("testcase")) if report.is_file() else []
    if proc.returncode not in (0, 1) or not cases:
        raise RuntimeError(
            f"pytest exited {proc.returncode} with {len(cases)} tests reported:\n"
            f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        )
    failed = []
    for case in cases:
        if case.find("failure") is not None or case.find("error") is not None:
            module = case.get("classname", "").replace(".", "/")
            failed.append(f"{module}.py::{case.get('name')}")
    return failed


def sweep(mutants: list[Mutant]) -> list[dict]:
    """Check the unmutated tree, then one record per mutant, in order."""
    without_pins = [arg for t in (*PINS, LIST_CHECK) for arg in ("--deselect", t)]
    results = []
    for mutant in [None, *mutants]:
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="dpfedsim-mutant-") as tmp:
            tree = Path(tmp)
            copy_tree(tree)
            if mutant:
                apply(tree, mutant)
            killers = failed_tests(tree, without_pins)
            pin_killers = [] if killers else failed_tests(tree, list(PINS))
        seconds = round(time.perf_counter() - t0, 1)
        if mutant is None:
            if killers or pin_killers:
                raise SystemExit(f"the unmutated tree fails: {killers or pin_killers}")
            print(f"unmutated tree passes ({seconds} s)", flush=True)
            continue
        if killers:
            outcome = "killed"
        elif pin_killers:
            outcome = "weak"
        else:
            outcome = "expected survivor" if mutant.id in SURVIVORS else "survived"
        results.append({
            **mutant._asdict(),
            "outcome": outcome,
            "killed_by": killers or pin_killers,
            "open_item": SURVIVORS.get(mutant.id),
            "seconds": seconds,
        })
        print(f"{mutant.id}: {outcome}, {len(killers or pin_killers)} tests, "
              f"{seconds} s", flush=True)
    return results


def main() -> int:
    t0 = time.perf_counter()
    results = sweep(list(MUTANTS))
    (ROOT / "mutants.json").write_text(json.dumps(
        {"wall_s": round(time.perf_counter() - t0, 1), "mutants": results}, indent=2
    ) + "\n")
    bad = [r["id"] for r in results if r["outcome"] in ("weak", "survived")]
    print(f"{len(results) - len(bad)} of {len(results)} killed or expected; "
          f"weak or surviving: {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

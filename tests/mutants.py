"""Mutants of the privacy and determinism promises, and their sweep.

Each mutant breaks one promise with one textual edit of one file in
``src/dpfedsim``.  ``tests/test_package.py`` checks that every mutant's old
text occurs exactly once in ``src/``, so a refactor that moves the text
must update this list.

Run the sweep from the repository root (it is not part of tier-1):

    python tests/mutants.py          # each mutant's recorded killer first
    python tests/mutants.py --full   # every mutant against all of tier-1

It copies the repository's files (``git ls-files``, untracked files that
are not ignored included; outside a git checkout, every file but caches,
``.bench_work/`` and ``mutants.json``) into a temporary directory, applies
one mutant there and runs tests in that copy.  The unmutated tree runs
first, all of tier-1, and must pass.

Each mutant names its killer: a test of the mutant's promise that is not
a byte pin and that killed it in a full run.  By default the sweep runs
that test alone, and the mutant is killed when it fails.  When it passes,
the killer is stale: the sweep falls back to the full run and reports it.
The full run is tier-1 with the byte pins deselected.  A PR that moves
bytes regenerates the pins, so a pin alone guards no promise: a mutant
that survives that run and is killed only by the pins is reported as
weak.  One that nothing kills is a survivor, expected when ``SURVIVORS``
names the open item that will kill it.  ``--full`` runs the full run for
every mutant, and so lists afresh every test that kills each one.
``tests/test_package.py`` checks that every killer is a tier-1 test that
pytest collects.

``mutants.json``, at the repository root, records, per mutant, the
outcome, the tests that killed it, whether its killer was stale and the
wall seconds.  To run one mutant, call ``sweep([mutant])`` from Python.
"""

from __future__ import annotations

import argparse
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
    killer: str  # node id of a test of its promise that kills it, not a byte pin


MUTANTS = (
    Mutant(
        "noise_half",
        "the noise is calibrated to sigma C",
        "federation.py",
        "z *= cfg.sigma * cfg.clip_threshold",
        "z *= 0.5 * cfg.sigma * cfg.clip_threshold",
        "tests/test_federation.py::test_an_upload_carries_noise_of_deviation_sigma_c_over_b",
    ),
    Mutant(
        "noise_blocks_land_in_the_first",
        "every coordinate of a step carries its own noise",
        "federation.py",
        "noisy[lo : lo + z.size] += z",
        "noisy[: z.size] += z",
        # the noise's total variance is kept, so its deviation test passes
        "tests/test_federation.py::"
        "test_an_upload_at_the_benchmark_shape_is_the_oracle_over_13_blocks[dp_fedavg]",
    ),
    Mutant(
        "fixed_size_sensitivity_1",
        "a fixed_size step is charged at sensitivity 2C",
        "dp.py",
        'SENSITIVITY = {"fixed_size": 2, "poisson": 1}',
        'SENSITIVITY = {"fixed_size": 1, "poisson": 1}',
        "tests/test_cli.py::test_privacy_prints_the_step_count_of_a_finite_budget",
    ),
    Mutant(
        "divide_by_drawn_batch",
        "a step divides by the public batch_size, never the batch drawn",
        "federation.py",
        "noisy /= cfg.batch_size",
        "noisy /= max(1, idx.size)",
        "tests/test_federation.py::"
        "test_local_phase_exact_batch_gradient_when_noise_free",
    ),
    Mutant(
        "noise_stream_every_round",
        "each round draws fresh noise",
        "federation.py",
        "derive_rng(state.seed, round_index, cid, Stream.NOISE)",
        "derive_rng(state.seed, 0, cid, Stream.NOISE)",
        "tests/test_federation.py::test_every_stream_a_run_derives_is_distinct",
    ),
    Mutant(
        "noise_stream_shared_by_clients",
        "each client draws its own noise",
        "federation.py",
        "derive_rng(state.seed, round_index, cid, Stream.NOISE)",
        "derive_rng(state.seed, round_index, 0, Stream.NOISE)",
        "tests/test_federation.py::test_every_stream_a_run_derives_is_distinct",
    ),
    Mutant(
        "accountant_ignores_k",
        "a round charges its K local steps",
        "config.py",
        "steps = rounds * self.local_steps",
        "steps = rounds",
        "tests/test_cli.py::"
        "test_run_reports_the_privacy_schedule_of_its_sampling_mode[fixed_size-2C-k3-28.876631]",
    ),
    Mutant(
        "epsilon_one_round_late",
        "round t reports epsilon after t + 1 rounds",
        "federation.py",
        "cfg.epsilon_after(round_index + 1)",
        "cfg.epsilon_after(round_index)",
        "tests/test_cli.py::"
        "test_run_reports_the_privacy_schedule_of_its_sampling_mode[fixed_size-2C-14.176691]",
    ),
    Mutant(
        "budget_one_round_over",
        "a run stops before the round that would exceed the budget",
        "config.py",
        "allowed // self.local_steps",
        "allowed // self.local_steps + 1",
        "tests/test_cli.py::test_summary_stops_early_only_when_the_budget_cuts_a_round",
    ),
    Mutant(
        "upload_weights_from_shard_sizes",
        "aggregation weighs uploads by public counts only",
        "federation.py",
        "alpha = [1.0 / len(participants)] * len(participants)",
        "alpha = [state.shards[c].size / sum("
        "state.shards[q].size for q in participants) for c in participants]",
        "tests/test_federation.py::test_unequal_shards_weigh_one_over_p",
    ),
    Mutant(
        "poisson_rate_doubled",
        "poisson keeps each example at rate batch_size / shard size",
        "dp.py",
        "< min(1.0, batch_size / shard_size)",
        "< min(1.0, 2 * batch_size / shard_size)",
        "tests/test_dp.py::test_poisson_sample_poisson_mode_statistics",
    ),
    Mutant(
        "clip_at_2c",
        "no per-sample gradient exceeds the clip bound C",
        "model.py",
        "scale = clip_threshold / np.maximum(np.sqrt(sq_norms), clip_threshold)",
        "scale = 2 * clip_threshold / np.maximum(np.sqrt(sq_norms), 2 * clip_threshold)",
        "tests/test_acceptance.py::test_criterion_01_clipping_bound",
    ),
    Mutant(
        "norm_without_bias_term",
        "the per-sample norm counts the bias gradient",
        "model.py",
        "(_row_dots(a, a) + 1.0) * _row_dots(d, d)",
        "_row_dots(a, a) * _row_dots(d, d)",
        "tests/test_acceptance.py::test_criterion_01_clipping_bound",
    ),
    Mutant(
        "prox_pull_dropped",
        "a dp_fedprox step adds the pull prox_mu (w_local - start)",
        "federation.py",
        "if prox and k:",
        "if False:",
        "tests/test_federation.py::"
        "test_a_fedprox_upload_is_the_fedavg_upload_plus_half_the_pull[fixed_size]",
    ),
    Mutant(
        "prox_pull_scaled_by_the_batch",
        "the prox pull is added after the divide by the batch size",
        "federation.py",
        "t *= cfg.prox_mu",
        "t *= cfg.prox_mu / cfg.batch_size",
        "tests/test_federation.py::"
        "test_a_fedprox_upload_is_the_fedavg_upload_plus_half_the_pull[fixed_size]",
    ),
    Mutant(
        "conflict_sign_flipped",
        "only a negative cosine is a conflict",
        "correction.py",
        "if cos < 0:",
        "if cos > 0:",
        "tests/test_acceptance.py::"
        "test_criterion_07_gcfl_equals_fedavg_without_conflicts",
    ),
    Mutant(
        "blas_pin_off",
        "output bytes do not depend on the BLAS thread count",
        "linalg.py",
        "    set_(1)",
        "    set_(saved)",
        "tests/test_determinism.py::"
        "test_every_output_file_is_byte_identical[blas-n32_gcfl_pairwise]",
    ),
    Mutant(
        "test_features_not_rebuilt",
        "evaluation reads the test features, never the uploads' bytes",
        "federation.py",
        "            features_into(levels[c], x)",
        "            pass",
        "tests/test_federation.py::"
        "test_each_rounds_scores_are_those_of_freshly_built_features"
        "[gcfl-167-row-chunks]",
    ),
    Mutant(
        "eval_halves_share_the_lower_rows",
        "each half streams the test features through its own rows of the uploads",
        "federation.py",
        "at = upper * rows * d",
        "at = 0",
        "tests/test_federation.py::"
        "test_the_halves_of_an_evaluation_convert_into_disjoint_parts_of_the_uploads"
        "[167-row-chunks]",
    ),
    Mutant(
        "zero_rounds_accepted",
        "a config no command can run is refused by one line that names its key",
        "config.py",
        "if self.rounds < 1:",
        "if self.rounds < 0:",
        "tests/test_boundary.py::"
        "test_every_config_runs_clean_or_is_refused_naming_its_key_or_round[ordinary-run]",
    ),
    Mutant(
        "poisson_rate_from_the_train_set",
        "a client's release depends on its own shard alone",
        "federation.py",
        "idx = poisson_sample(rows.size, cfg.batch_size, cfg.sampling_mode, batch_rng)",
        "idx = poisson_sample(rows.size, cfg.batch_size * rows.size * cfg.n_clients"
        " / train.size if cfg.sampling_mode == 'poisson' else cfg.batch_size,"
        " cfg.sampling_mode, batch_rng)",
        "tests/test_federation.py::"
        "test_one_example_more_in_one_shard_moves_that_clients_release_alone"
        "[gcfl-poisson-0]",
    ),
    Mutant(
        "worker_half_outside_the_policy",
        "a round's floating-point policy holds on the worker's half too",
        "federation.py",
        "worker.submit(contextvars.copy_context().run, fn, range(h, n))",
        "worker.submit(fn, range(h, n))",
        "tests/test_worker.py::"
        "test_the_workers_half_runs_under_the_callers_floating_point_policy[worker]",
    ),
    Mutant(
        "halves_skips_the_wait_on_failure",
        "a failing half raises only once the worker's half has ended",
        "federation.py",
        "    try:\n"
        "        fn(range(h))\n"
        "    finally:\n"
        "        upper.exception()  # wait: the upper half must not outlive the call\n",
        "    fn(range(h))\n",
        "tests/test_worker.py::test_halves_raises_only_once_the_workers_half_has_ended",
    ),
    Mutant(
        "task_keeps_its_call",
        "a task the worker holds past its end keeps nothing of its call alive",
        "federation.py",
        "        fn, args = self._call\n"
        "        self._call = None\n",
        "        fn, args = self._call\n",
        "tests/test_worker.py::test_a_finished_task_holds_no_reference_to_its_call",
    ),
    Mutant(
        "unlisted_metrics_column",
        "every field a command writes is classed once in the release ledger",
        "cli.py",
        'CSV_HEADER = ["round", *FINAL_KEYS, "projections", "wall_ms"]',
        'CSV_HEADER = ["round", *FINAL_KEYS, "projections", "wall_ms", "shard_size"]',
        "tests/test_releases.py::test_every_field_run_and_compare_write_is_classed_once",
    ),
)

# mutant id -> the open ROADMAP item that will kill it
SURVIVORS: dict[str, str] = {}

# directories a tree that is not a git checkout leaves out of its copy
NOT_COPIED = {
    ".git", ".bench_work", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"
}


def copy_tree(dest: Path, root: Path = ROOT) -> None:
    """Copy root's tracked and untracked-but-not-ignored files into dest.
    Where ``git ls-files`` fails, as in a ``git archive`` tree, every file
    of root but those under NOT_COPIED and root's mutants.json."""
    try:
        listed = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            cwd=root, check=True, capture_output=True,
        ).stdout.decode().split("\0")
    except (OSError, subprocess.CalledProcessError):
        listed = [
            str(path.relative_to(root))
            for path in root.rglob("*")
            if not NOT_COPIED.intersection(path.relative_to(root).parts)
            and path != root / "mutants.json"
        ]
    for name in filter(None, listed):
        src = root / name
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


def sweep(mutants: list[Mutant], full: bool = False) -> list[dict]:
    """Check the unmutated tree, then one record per mutant, in order: its
    recorded killer alone first, unless full, and the full run when that
    test passes."""
    without_pins = [arg for t in (*PINS, LIST_CHECK) for arg in ("--deselect", t)]
    results = []
    for mutant in [None, *mutants]:
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="dpfedsim-mutant-") as tmp:
            tree = Path(tmp)
            copy_tree(tree)
            if mutant:
                apply(tree, mutant)
            killers = failed_tests(tree, [mutant.killer]) if mutant and not full else []
            if not killers:
                killers = failed_tests(tree, without_pins)
            stale = mutant is not None and mutant.killer not in killers
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
            "killer_stale": stale,
            "open_item": SURVIVORS.get(mutant.id),
            "seconds": seconds,
        })
        print(f"{mutant.id}: {outcome}, {len(killers or pin_killers)} tests"
              f"{', stale killer' if stale else ''}, {seconds} s", flush=True)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the mutation sweep.")
    parser.add_argument(
        "--full", action="store_true",
        help="run all of tier-1 against every mutant, not its killer first",
    )
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    results = sweep(list(MUTANTS), full=args.full)
    (ROOT / "mutants.json").write_text(json.dumps(
        {"wall_s": round(time.perf_counter() - t0, 1), "mutants": results}, indent=2
    ) + "\n")
    killed = sum(r["outcome"] == "killed" for r in results)
    bad = [r["id"] for r in results if r["outcome"] in ("weak", "survived")]
    stale = [r["id"] for r in results if r["killer_stale"]]
    print(f"{killed} of {len(results)} killed by a test that is not a byte pin; "
          f"weak or surviving: {bad}; stale killers: {stale}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

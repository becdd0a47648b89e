"""Command-line entry points: run, compare, privacy.

run      executes the configured experiment for every seed in `seeds`,
         writing metrics.csv (per-round rows) and summary.json into --out.
compare  runs several algorithms on each seed's data, built once per seed,
         and writes comparison.csv of final-round metrics and weight
         fingerprints.
privacy  prints the epsilon schedule implied by the config without training.

run and compare reach their runs through one driver (run_seeds): per seed,
build_data builds the data and the model spec once, and each of the
command's configs (one for run, one per algorithm for compare) runs on them;
only the runs outlive the seed, so the next seed's build starts with no
data held.  Both write their CSV files through one writer
(write_metrics_csv).
run and compare each hold one worker thread and one BLAS pin
(``federation.pinned_worker``) around all of their data builds and runs;
run writes whether BLAS was pinned to summary.json.  A seed's synthetic data
are built on both threads (build_data): the calling thread draws the class
centers, then builds the whole train set from the train stream; the worker
builds the whole test set around those centers from its own stream, and
what the run holds of it, at the same time.  The bytes are those of a
one-thread build.  A run keeps of the test set only a copy of its uint8
levels, whose features each round's evaluation builds, and its labels.
A data stream is ``derive_rng``'s (seed, 0, 0, tag), tag TRAIN (the centers,
then the train set), TEST, SUB_TRAIN, SUB_TEST or PARTITION.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import math
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import replace

import numpy as np

from . import data as data_mod
from .config import ExperimentConfig, parse_config, parse_label_split
from .dp import SENSITIVITY
from .federation import RoundMetrics, Stream, Worker, derive_rng
from .federation import init_state, pinned_worker, run_experiment, weights_sha256
from .model import MlpSpec

# the final-round metrics of summary.json's mean_final and comparison.csv
FINAL_KEYS = ("epsilon", "train_loss", "test_acc", "test_recall", "test_f1")

CSV_HEADER = ["round", *FINAL_KEYS, "projections", "wall_ms"]

# a run's round records and the weights_sha256 of its final weights
Run = tuple[list[RoundMetrics], str]


def _finish_test_set(
    cfg: ExperimentConfig, seed: int, test: data_mod.Dataset
) -> tuple[np.ndarray, np.ndarray]:
    """(a copy of the levels, labels) of the test set, subsampled when
    configured: all a run keeps of it.  The copy frees the build's levels,
    which keeps round 0's workspaces' pages (glibc's thresholds rise)."""
    if cfg.subsample_test:
        test = data_mod.subsample(
            test, cfg.subsample_test, derive_rng(seed, 0, 0, Stream.SUB_TEST),
            "subsample_test",
        )
    return test.X.copy(), test.y


def build_data(
    cfg: ExperimentConfig, seed: int, worker: Worker
) -> tuple[MlpSpec, data_mod.Dataset, list[np.ndarray], np.ndarray, np.ndarray]:
    """(the model, the train set, each client's rows of it, what the run
    holds of the test set (``_finish_test_set``), its labels) for one
    run seed, built on the command's worker and this thread; no task of
    the build is left on the worker when this returns or raises.  The
    model is layer_sizes, or (features, 128, classes) of the train set
    when unset."""
    if cfg.dataset == "idx":
        train = data_mod.load_idx(cfg.train_images, cfg.train_labels)
        test = data_mod.load_idx(cfg.test_images, cfg.test_labels)
        if test.feature_dim != train.feature_dim:
            raise ValueError(
                f"test_images has {test.feature_dim} pixels per image, "
                f"train_images {train.feature_dim}"
            )
        if train.num_classes < test.num_classes:
            # a small train split can simply miss the largest label
            train = data_mod.Dataset(train.X, train.y, test.num_classes)
        spec = MlpSpec(cfg.layer_sizes or (train.feature_dim, 128, train.num_classes))
        test_X, test_y = _finish_test_set(cfg, seed, test)
    else:
        # the worker builds the test set and the run's copy of it around the
        # train stream's centers while this thread builds the train set
        spec = MlpSpec(
            cfg.layer_sizes or (cfg.synthetic_dim, 128, cfg.synthetic_classes)
        )
        rng = derive_rng(seed, 0, 0, Stream.TRAIN)
        centers = data_mod.class_centers(cfg.synthetic_classes, cfg.synthetic_dim, rng)

        def build_test() -> tuple[np.ndarray, np.ndarray]:
            test = data_mod.synthetic_blobs(
                cfg.synthetic_classes,
                max(1, cfg.synthetic_per_class // 5),
                cfg.synthetic_dim,
                cfg.synthetic_spread,
                derive_rng(seed, 0, 0, Stream.TEST),
                centers,
            )
            return _finish_test_set(cfg, seed, test)

        test_build = worker.submit(build_test)
        try:
            train = data_mod.synthetic_blobs(
                cfg.synthetic_classes,
                cfg.synthetic_per_class,
                cfg.synthetic_dim,
                cfg.synthetic_spread,
                rng,
                centers,
            )
        finally:
            test_build.exception()  # wait: the build must not outlive the call
        test_X, test_y = test_build.result()
    if cfg.subsample_train:
        train = data_mod.subsample(
            train, cfg.subsample_train, derive_rng(seed, 0, 0, Stream.SUB_TRAIN),
            "subsample_train",
        )
    if cfg.label_split:
        try:
            shards = data_mod.partition_label_split(
                train, parse_label_split(cfg.label_split)
            )
        except ValueError as exc:
            raise ValueError(f"label_split: {exc}") from None
    else:
        shards = data_mod.partition_iid(
            train, cfg.n_clients, derive_rng(seed, 0, 0, Stream.PARTITION)
        )
    feature_dim, num_classes = train.feature_dim, train.num_classes
    sizes = spec.layer_sizes
    if sizes[0] != feature_dim:
        raise ValueError(
            f"layer_sizes starts at {sizes[0]} but the data has {feature_dim} features"
        )
    if sizes[-1] != num_classes:
        raise ValueError(
            f"layer_sizes ends at {sizes[-1]} but the data has {num_classes} classes"
        )
    return spec, train, shards, test_X, test_y


def run_seeds(
    configs: list[ExperimentConfig], worker: Worker
) -> Iterator[tuple[int, list[Run]]]:
    """Per seed of configs[0], in order: the seed and each config's run on
    its data, in the order of configs.  The configs differ only in how they
    train, so a seed's data are built once, from configs[0], and nothing of
    them or of the last run's state is held when the next seed's build
    starts."""
    for seed in configs[0].seeds:
        spec, train, shards, test_X, test_y = build_data(configs[0], seed, worker)
        runs = []
        for cfg in configs:
            state = init_state(spec, cfg, seed, train, shards, test_X, test_y)
            runs.append((run_experiment(state, worker), weights_sha256(state)))
        del train, shards, test_X, test_y, state
        yield seed, runs


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _finals(rm: RoundMetrics) -> list[float]:
    """rm's values of FINAL_KEYS, in that order."""
    return [
        rm.epsilon_spent,
        rm.train_loss,
        rm.test_accuracy,
        rm.test_macro_recall,
        rm.test_macro_f1,
    ]


def write_metrics_csv(path: str, header: list[str], rows: Iterable[list]) -> None:
    """The one writer of a command's CSV files: header, then rows."""
    import csv  # here: a run's rounds never need it resident

    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _jsonable(value):
    """json.dump rejects inf/nan under allow_nan=False; stringify them."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # 'inf', '-inf', 'nan'
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _final_block(cfg: ExperimentConfig, run: Run) -> dict:
    """A run's outcome from its round records and weights_sha256; it stopped
    early on the epsilon budget when it has fewer than cfg.rounds rounds."""
    rounds, sha = run
    return {
        "rounds_completed": len(rounds),
        "stopped_early": len(rounds) < cfg.rounds,
        **dict(zip(FINAL_KEYS, _finals(rounds[-1]))),
        "projections_total": sum(r.projections_applied for r in rounds),
        "correction_last_round": rounds[-1].correction,
        "weights_sha256": sha,
    }


def write_summary_json(
    path: str,
    cfg: ExperimentConfig,
    results: dict[int, Run],
    blas_pinned: bool,
) -> None:
    import json  # here: a run's rounds never need it resident

    per_seed = {str(seed): _final_block(cfg, res) for seed, res in results.items()}
    mean_final = {
        k: float(np.mean([per_seed[s][k] for s in per_seed])) for k in FINAL_KEYS
    }
    payload = {
        "blas_pinned": blas_pinned,
        "config": cfg.resolved(),
        "seeds": list(results),
        "per_seed": per_seed,
        "mean_final": mean_final,
    }
    with open(path, "w") as f:
        json.dump(_jsonable(payload), f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_run(args) -> int:
    cfg = parse_config(args.config, args.override)
    os.makedirs(args.out, exist_ok=True)
    with pinned_worker() as (pinned, worker):
        results = {seed: run for seed, (run,) in run_seeds([cfg], worker)}
    first = cfg.seeds[0]
    files = {"metrics.csv": first}
    if len(cfg.seeds) > 1:
        files.update({f"metrics_seed{seed}.csv": seed for seed in results})
    for name, seed in files.items():
        rows = (
            [rm.round_index, *map(_fmt, _finals(rm))]
            + [rm.projections_applied, rm.wall_millis]
            for rm in results[seed][0]
        )
        write_metrics_csv(os.path.join(args.out, name), CSV_HEADER, rows)
    write_summary_json(os.path.join(args.out, "summary.json"), cfg, results, pinned)
    last = results[first][0][-1]
    print(
        f"run complete: {len(results)} seed(s), "
        f"final test_acc (seed {first}) {last.test_accuracy:.4f}, "
        f"epsilon {last.epsilon_spent:.4f}"
    )
    return 0


def cmd_compare(args) -> int:
    cfg = parse_config(args.config, args.override)
    if not args.algos.strip():
        raise ValueError("--algos must list at least one algorithm")
    algos = [a.strip() for a in args.algos.split(",")]
    if "" in algos:
        raise ValueError("--algos: empty item in the comma list")
    repeated = next((a for a in algos if algos.count(a) > 1), None)
    if repeated is not None:
        raise ValueError(f"--algos: {repeated} is listed twice")
    # building each config validates it, so a bad name fails before training
    configs = [replace(cfg, algorithm=a) for a in algos]
    os.makedirs(args.out, exist_ok=True)
    # the rows are written algorithm-major
    rows: list[list[list]] = [[] for _ in algos]
    with pinned_worker() as (_, worker):
        for seed, runs in run_seeds(configs, worker):
            for algo_rows, acfg, run in zip(rows, configs, runs):
                final = _final_block(acfg, run)
                algo_rows.append(
                    [acfg.algorithm, seed]
                    + [_fmt(final[k]) for k in FINAL_KEYS]
                    + [final["projections_total"], final["weights_sha256"]]
                )
    path = os.path.join(args.out, "comparison.csv")
    header = ["algorithm", "seed", *FINAL_KEYS, "projections", "weights_sha256"]
    write_metrics_csv(path, header, itertools.chain(*rows))
    print(f"compared {len(algos)} algorithm(s) over {len(cfg.seeds)} seed(s): {path}")
    return 0


def cmd_privacy(args) -> int:
    cfg = parse_config(args.config, args.override)
    if cfg.sigma == 0:
        print("sigma is 0: no noise is added, so there is no DP guarantee "
              "(epsilon is unbounded)")
        return 0
    s = SENSITIVITY[cfg.sampling_mode]
    print(f"sigma={cfg.sigma} delta={cfg.delta} local_steps={cfg.local_steps} "
          "neighbours=add/remove one example in one client's shard, other "
          "shards fixed "
          f"sensitivity={'' if s == 1 else s}C")
    print(f"{'round':>6} {'steps':>6} {'epsilon':>12} {'alpha':>6}")
    for t in range(1, cfg.rounds + 1):
        eps, alpha = cfg.epsilon_after(t)
        print(f"{t:>6} {t * cfg.local_steps:>6} {eps:>12.6f} {alpha:>6g}")
    steps = cfg.budget_steps()
    if steps is not None:
        print(
            f"budget epsilon={cfg.epsilon_budget}: at most {steps} noisy steps "
            f"({cfg.budget_rounds()} full rounds)"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpfedsim",
        description="deterministic simulator of DP federated learning "
        "with server-side gradient correction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # every subcommand reads its config through these; run and compare write
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="key=value config file")
    config.add_argument(
        "--override", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key (repeatable, once per key; wins over the file)",
    )
    writes = argparse.ArgumentParser(add_help=False, parents=[config])
    writes.add_argument("--out", required=True, help="output directory")

    sub.add_parser(
        "run", parents=[writes], help="train and write metrics.csv/summary.json"
    ).set_defaults(func=cmd_run)
    p_cmp = sub.add_parser(
        "compare", parents=[writes], help="run several algorithms on identical shards"
    )
    p_cmp.add_argument(
        "--algos", required=True,
        help="comma list, e.g. gcfl,dp_fedavg,dp_scaffold",
    )
    p_cmp.set_defaults(func=cmd_compare)
    sub.add_parser(
        "privacy", parents=[config], help="print the epsilon schedule"
    ).set_defaults(func=cmd_privacy)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader has gone: point stdout at devnull so the exit
        # flush cannot fail again, and leave stderr quiet (the "Note on
        # SIGPIPE" in Python's signal docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def script() -> None:
    """``dpfedsim`` and ``python -m dpfedsim.cli``: main, whose files are all
    closed when it returns, then an exit whose final collections skip the
    frozen heap (numpy's and the stdlib's cyclic module objects)."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    script()

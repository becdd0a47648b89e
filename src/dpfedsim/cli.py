"""Command-line entry points: run, compare, privacy.

run      executes the configured experiment for every seed in `seeds`,
         writing metrics.csv (per-round rows) and summary.json into --out.
compare  runs several algorithms on identical data (asserted by shard hash)
         and writes comparison.csv of final-round metrics.
privacy  prints the epsilon schedule implied by the config without training.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import data as data_mod
from .config import ExperimentConfig, parse_config, parse_label_split
from .dp import epsilon_spent
from .federation import ExperimentResult, ExperimentState, init_state, run_experiment
from .model import MlpSpec

CSV_HEADER = [
    "round",
    "epsilon",
    "train_loss",
    "test_acc",
    "test_recall",
    "test_f1",
    "projections",
    "wall_ms",
]

# tags for deriving data-pipeline seeds from the run seed
_T_TRAIN = 100
_T_TEST = 101
_T_SUB_TRAIN = 102
_T_SUB_TEST = 103
_T_PARTITION = 104


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def build_data(
    cfg: ExperimentConfig, seed: int
) -> tuple[data_mod.Dataset, list[data_mod.ClientShard], data_mod.Dataset]:
    """(train set, client shards of it, test set) for one run seed."""
    if cfg.dataset == "idx":
        train = data_mod.load_idx(cfg.train_images, cfg.train_labels)
        test = data_mod.load_idx(cfg.test_images, cfg.test_labels)
        if train.num_classes != test.num_classes:
            # a small test split can simply miss the largest label
            classes = max(train.num_classes, test.num_classes)
            train = data_mod.Dataset(train.X, train.y, classes)
            test = data_mod.Dataset(test.X, test.y, classes)
    else:
        train = data_mod.synthetic_blobs(
            cfg.synthetic_classes,
            cfg.synthetic_per_class,
            cfg.synthetic_dim,
            cfg.synthetic_spread,
            _derived_seed(seed, _T_TRAIN),
        )
        test = data_mod.synthetic_blobs(
            cfg.synthetic_classes,
            max(1, cfg.synthetic_per_class // 5),
            cfg.synthetic_dim,
            cfg.synthetic_spread,
            _derived_seed(seed, _T_TEST),
        )
    if cfg.subsample_train:
        train = data_mod.subsample(
            train, cfg.subsample_train, _derived_seed(seed, _T_SUB_TRAIN)
        )
    if cfg.subsample_test:
        test = data_mod.subsample(
            test, cfg.subsample_test, _derived_seed(seed, _T_SUB_TEST)
        )
    if cfg.partition == "iid":
        shards = data_mod.partition_iid(
            train, cfg.n_clients, _derived_seed(seed, _T_PARTITION)
        )
    else:
        shards = data_mod.partition_label_split(
            train, parse_label_split(cfg.label_split)
        )
    return train, shards, test


def build_state(cfg: ExperimentConfig, seed: int) -> ExperimentState:
    train, shards, test = build_data(cfg, seed)
    feature_dim, num_classes = train.feature_dim, train.num_classes
    sizes = cfg.layer_sizes or (feature_dim, 128, num_classes)
    if sizes[0] != feature_dim:
        raise ValueError(
            f"layer_sizes starts at {sizes[0]} but the data has {feature_dim} features"
        )
    if sizes[-1] != num_classes:
        raise ValueError(
            f"layer_sizes ends at {sizes[-1]} but the data has {num_classes} classes"
        )
    spec = MlpSpec(tuple(sizes))
    return init_state(spec, cfg, seed, shards, test)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def write_metrics_csv(path: str, result: ExperimentResult) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rm in result.rounds:
            writer.writerow(
                [
                    rm.round_index,
                    _fmt(rm.epsilon_spent),
                    _fmt(rm.train_loss),
                    _fmt(rm.test_accuracy),
                    _fmt(rm.test_macro_recall),
                    _fmt(rm.test_macro_f1),
                    rm.projections_applied,
                    rm.wall_millis,
                ]
            )


def _jsonable(value):
    """json.dump rejects inf/nan under allow_nan=False; stringify them."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # 'inf', '-inf', 'nan'
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _final_block(result: ExperimentResult) -> dict:
    last = result.rounds[-1]
    return {
        "rounds_completed": len(result.rounds),
        "stopped_early": result.stopped_early,
        "epsilon": last.epsilon_spent,
        "train_loss": last.train_loss,
        "test_acc": last.test_accuracy,
        "test_recall": last.test_macro_recall,
        "test_f1": last.test_macro_f1,
        "projections_total": sum(r.projections_applied for r in result.rounds),
        "correction_last_round": result.correction_summaries[-1]
        if result.correction_summaries
        else {},
    }


def write_summary_json(
    path: str, cfg: ExperimentConfig, results: dict[int, ExperimentResult]
) -> None:
    per_seed = {str(seed): _final_block(res) for seed, res in results.items()}
    keys = ("epsilon", "train_loss", "test_acc", "test_recall", "test_f1")
    mean_final = {
        k: float(np.mean([per_seed[s][k] for s in per_seed])) for k in keys
    }
    payload = {
        "blas_pinned": all(res.blas_pinned for res in results.values()),
        "config": cfg.resolved(),
        "seeds": list(results),
        "per_seed": per_seed,
        "mean_final": mean_final,
    }
    with open(path, "w") as f:
        json.dump(_jsonable(payload), f, indent=2, sort_keys=True)
        f.write("\n")


def run_seeds(cfg: ExperimentConfig) -> dict[int, ExperimentResult]:
    results: dict[int, ExperimentResult] = {}
    for seed in cfg.seeds:
        state = build_state(cfg, seed)
        results[seed] = run_experiment(state)
    return results


def cmd_run(args) -> int:
    cfg = parse_config(args.config, args.override)
    os.makedirs(args.out, exist_ok=True)
    results = run_seeds(cfg)
    first = cfg.seeds[0]
    write_metrics_csv(os.path.join(args.out, "metrics.csv"), results[first])
    if len(cfg.seeds) > 1:
        for seed, res in results.items():
            write_metrics_csv(
                os.path.join(args.out, f"metrics_seed{seed}.csv"), res
            )
    write_summary_json(os.path.join(args.out, "summary.json"), cfg, results)
    last = results[first].rounds[-1]
    print(
        f"run complete: {len(results)} seed(s), "
        f"final test_acc (seed {first}) {last.test_accuracy:.4f}, "
        f"epsilon {last.epsilon_spent:.4f}"
    )
    return 0


def cmd_compare(args) -> int:
    cfg = parse_config(args.config, args.override)
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        raise ValueError("--algos must list at least one algorithm")
    # building each config validates it, so a bad name fails before training
    configs = [replace(cfg, algorithm=a) for a in algos]
    os.makedirs(args.out, exist_ok=True)
    rows = []
    baseline_hashes: dict[int, list[str]] = {}
    for algo, acfg in zip(algos, configs):
        for seed in acfg.seeds:
            state = build_state(acfg, seed)
            hashes = [data_mod.shard_fingerprint(s) for s in state.shards]
            if seed not in baseline_hashes:
                baseline_hashes[seed] = hashes
            elif baseline_hashes[seed] != hashes:
                raise AssertionError(
                    f"shard mismatch for seed {seed}: algorithms are not "
                    "seeing identical data"
                )
            res = run_experiment(state)
            last = res.rounds[-1]
            rows.append(
                [
                    algo,
                    seed,
                    hashes[0][:16],
                    _fmt(last.epsilon_spent),
                    _fmt(last.train_loss),
                    _fmt(last.test_accuracy),
                    _fmt(last.test_macro_recall),
                    _fmt(last.test_macro_f1),
                    sum(r.projections_applied for r in res.rounds),
                ]
            )
    path = os.path.join(args.out, "comparison.csv")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(
            [
                "algorithm",
                "seed",
                "shard_hash",
                "epsilon",
                "train_loss",
                "test_acc",
                "test_recall",
                "test_f1",
                "projections",
            ]
        )
        writer.writerows(rows)
    print(f"compared {len(algos)} algorithm(s) over {len(cfg.seeds)} seed(s): {path}")
    return 0


def cmd_privacy(args) -> int:
    cfg = parse_config(args.config, args.override)
    if cfg.sigma == 0:
        print("sigma is 0: no noise is added, so there is no DP guarantee "
              "(epsilon is unbounded)")
        return 0
    print(f"sigma={cfg.sigma} delta={cfg.delta} local_steps={cfg.local_steps}")
    print(f"{'round':>6} {'steps':>6} {'epsilon':>12} {'alpha':>6}")
    for t in range(1, cfg.rounds + 1):
        eps, alpha = epsilon_spent(t * cfg.local_steps, cfg.sigma, cfg.delta)
        print(f"{t:>6} {t * cfg.local_steps:>6} {eps:>12.6f} {alpha:>6g}")
    steps = cfg.budget_steps()
    if steps is not None:
        print(
            f"budget epsilon={cfg.epsilon_budget}: at most {steps} noisy steps "
            f"({steps // cfg.local_steps} full rounds)"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpfedsim",
        description="deterministic simulator of DP federated learning "
        "with server-side gradient correction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train and write metrics.csv/summary.json")
    p_run.add_argument("--config", required=True, help="key=value config file")
    p_run.add_argument(
        "--override", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key (repeatable; wins over the file)",
    )
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser(
        "compare", help="run several algorithms on identical shards"
    )
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument(
        "--algos", required=True,
        help="comma list, e.g. gcfl,dp_fedavg,dp_scaffold",
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_priv = sub.add_parser("privacy", help="print the epsilon schedule")
    p_priv.add_argument("--config", required=True)
    p_priv.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")
    p_priv.set_defaults(func=cmd_privacy)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

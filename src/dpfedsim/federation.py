"""Round-based federated training loop with DP clients and server correction.

One round: each participating client starts from the current global model,
takes local_steps noisy clipped-SGD steps on its own shard, and uploads the
mean of its noisy batch gradients.  The server optionally corrects conflicts
between uploads (algorithm "gcfl"), aggregates them, and takes a global step.

Every aggregate is one weighted sum over the raw uploads in ascending client
id order (``linalg.weighted_sum``).  For gcfl the correction is folded into
its weights: ``correction.plan_round`` decides the projections from the
uploads' Gram matrix, ``correction.fold_weights`` turns the participant
weights w into alpha = w^T M, and the update is sum_j alpha_j g_j, so no
corrected vector is built.  That is the weighted sum of the corrected
uploads up to rounding; with no projection in a round alpha == w, and the
bytes are those of ``aggregate``.  Three fixed orders set the update's
bytes, none of them BLAS: the Gram's (whole-vector dots below
``correction.GRAM_BLOCKED_MIN_N`` uploads, ascending blocks of
``correction.GRAM_BLOCK`` columns from it on; see ``correction.gram``), the
fold's (ascending i, then plan order) and the weighted sum's (ascending j).

All randomness is drawn from named streams derived via SeedSequence from
(global_seed, round, client_id, purpose), so any client's draws are
identical whether clients run sequentially or on a thread pool, and reruns
are bit-identical.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import metrics as metrics_mod
from . import model as model_mod
from .correction import CorrectionConfig, CorrectionReport, fold_weights, plan_round
from .data import ClientShard, Dataset
from .dp import (
    DpConfig,
    PrivacyLedger,
    epsilon_spent,
    noisy_batch_gradient,
    poisson_sample,
    steps_for_budget,
)
from .linalg import ParamVector, dot, scale_add, weighted_sum
from .model import MlpSpec

ALGORITHMS = (
    "gcfl",
    "dp_fedavg",
    "dp_fedprox",
    "dp_scaffold",
    "dp_fedexp",
    "isolated",
)

WEIGHTINGS = ("uniform", "by_samples")

_FEDEXP_EPS = 1e-3

# the algorithms whose server side reads a client's final local model
_READS_FINAL_PARAMS = ("isolated", "dp_scaffold")

# purpose tags for seed-stream derivation
_P_BATCH = 0
_P_NOISE = 1
_P_CORRECTION = 2
_P_SELECT = 3


@dataclass
class FederationConfig:
    n_clients: int = 2
    clients_per_round: int = 0  # 0 means all clients every round
    rounds: int = 30
    local_steps: int = 1
    learning_rate: float = 0.002
    algorithm: str = "gcfl"
    weighting: str = "uniform"
    prox_mu: float = 0.01
    global_seed: int = 0
    epsilon_budget: float = 0.0  # 0 means no budget stop
    parallel_clients: bool = False
    record_timing: bool = True
    eval_batch_size: int = 1024

    def __post_init__(self):
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if not 0 <= self.clients_per_round <= self.n_clients:
            raise ValueError(
                f"clients_per_round must be in [0, n_clients={self.n_clients}]"
            )
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.local_steps < 1:
            raise ValueError("local_steps must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate (config key eta) must be > 0")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        if self.weighting not in WEIGHTINGS:
            raise ValueError(
                f"weighting must be one of {WEIGHTINGS}, got {self.weighting!r}"
            )
        if self.prox_mu < 0:
            raise ValueError("prox_mu must be >= 0")
        if self.global_seed < 0:
            raise ValueError("global_seed must be >= 0")
        if self.epsilon_budget < 0:
            raise ValueError("epsilon_budget must be >= 0")
        if self.eval_batch_size < 1:
            raise ValueError("eval_batch_size must be >= 1")


@dataclass
class RoundMetrics:
    round_index: int
    epsilon_spent: float
    train_loss: float
    test_accuracy: float
    test_macro_recall: float
    test_macro_f1: float
    projections_applied: int
    wall_millis: int


@dataclass
class ScaffoldState:
    server_variate: ParamVector
    client_variates: dict[int, ParamVector]

    @classmethod
    def zeros(cls, dim: int, client_ids: list[int]) -> "ScaffoldState":
        return cls(
            server_variate=np.zeros(dim),
            client_variates={i: np.zeros(dim) for i in client_ids},
        )


@dataclass
class LocalPhaseResult:
    gradient: ParamVector
    # run_round keeps it only for the algorithms in _READS_FINAL_PARAMS
    final_params: ParamVector | None
    noisy_steps: int
    mean_batch_loss: float


@dataclass
class ExperimentState:
    model_spec: MlpSpec
    dp: DpConfig
    fed: FederationConfig
    correction: CorrectionConfig
    shards: list[ClientShard]
    test: Dataset
    weights: ParamVector
    ledger: PrivacyLedger
    client_models: dict[int, ParamVector] = field(default_factory=dict)
    scaffold: ScaffoldState | None = None


def derive_rng(*entropy: int) -> np.random.Generator:
    """Independent PCG64 stream named by a tuple of nonnegative ints."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def client_local_phase(
    shard: ClientShard,
    start_params: ParamVector,
    model_spec: MlpSpec,
    dp_cfg: DpConfig,
    fed_cfg: FederationConfig,
    batch_rng: np.random.Generator,
    noise_rng: np.random.Generator,
    scaffold_shift: ParamVector | None = None,
) -> LocalPhaseResult:
    """Run one client's local steps and return its upload.

    Per step: draw a minibatch, clip each per-sample gradient to C and sum in
    one batched pass, add one Gaussian draw, divide by the realized batch
    size, then step the local model.  dp_fedprox adds prox_mu * (w_local -
    w_start) to each per-sample gradient before clipping; dp_scaffold adds
    the control-variate shift (server - client) after noising.  The upload
    is the mean of the noisy batch gradients over the steps that actually
    ran.  A non-finite per-sample gradient norm or step gradient raises
    ValueError naming the client.
    """
    if shard.size == 0:
        raise ValueError(f"client {shard.client_id} holds an empty shard")
    eta = fed_cfg.learning_rate
    w_local = start_params.copy()
    dim = start_params.shape[0]
    grad_sum = np.zeros(dim)
    steps = 0
    loss_total = 0.0
    is_prox = fed_cfg.algorithm == "dp_fedprox" and fed_cfg.prox_mu != 0

    for _ in range(fed_cfg.local_steps):
        idx = poisson_sample(
            shard.size,
            dp_cfg.sampling_rate,
            dp_cfg.sampling_mode,
            batch_rng,
            dp_cfg.batch_size,
        )
        if idx.size == 0:
            continue  # empty poisson draw: no step, no privacy cost
        rows = shard.indices[idx]
        prox_shift = (
            fed_cfg.prox_mu * (w_local - start_params) if is_prox else None
        )
        losses, sq_norms, clipped_sum = model_mod.clipped_gradient_sum(
            model_spec,
            w_local,
            shard.dataset.X[rows],
            shard.dataset.y[rows],
            dp_cfg.clip_threshold,
            prox_shift,
        )
        noisy = noisy_batch_gradient(
            clipped_sum,
            idx.size,
            dp_cfg.clip_threshold,
            dp_cfg.noise_multiplier,
            noise_rng,
        )
        if scaffold_shift is not None:
            noisy = noisy + scaffold_shift
        if not (np.isfinite(sq_norms).all() and np.isfinite(noisy).all()):
            raise ValueError(
                f"client {shard.client_id}: non-finite per-sample gradient "
                f"norm or upload at local step {steps + 1}"
            )
        w_local = scale_add(w_local, -eta, noisy)
        grad_sum = grad_sum + noisy
        steps += 1
        loss_total += float(np.sum(losses)) / idx.size

    gradient = grad_sum / steps if steps else grad_sum
    mean_loss = loss_total / steps if steps else math.nan
    return LocalPhaseResult(gradient, w_local, steps, mean_loss)


def aggregate(
    gradients: dict[int, ParamVector], weights: dict[int, float]
) -> ParamVector:
    """Weighted sum in ascending client-id order; weights must sum to 1."""
    if set(gradients) != set(weights):
        raise ValueError("gradients and weights must cover the same client ids")
    if any(w < 0 for w in weights.values()):
        raise ValueError("aggregation weights must be nonnegative")
    total_w = math.fsum(weights.values())
    if abs(total_w - 1.0) > 1e-12:
        raise ValueError(f"aggregation weights sum to {total_w}, expected 1")
    return weighted_sum(gradients, weights)


def _participant_weights(
    state: ExperimentState, participants: list[int]
) -> dict[int, float]:
    if state.fed.weighting == "uniform":
        return {i: 1.0 / len(participants) for i in participants}
    sizes = {i: state.shards[i].size for i in participants}
    total = sum(sizes.values())
    return {i: sizes[i] / total for i in participants}


def server_step(
    w: ParamVector,
    aggregated: ParamVector,
    fed_cfg: FederationConfig,
    client_gradients: dict[int, ParamVector] | None = None,
) -> ParamVector:
    """Global update w - eta_g * aggregate.

    dp_fedexp scales the step: eta_g = eta * max(1, sum_i ||g_i||^2 /
    (2 n ||g_bar||^2 + 1e-3)) with g_bar the aggregate; every other
    algorithm uses eta_g = eta.
    """
    eta_g = fed_cfg.learning_rate
    if fed_cfg.algorithm == "dp_fedexp":
        if not client_gradients:
            raise ValueError("dp_fedexp needs the per-client gradients")
        ids = sorted(client_gradients)
        sum_sq = math.fsum(dot(client_gradients[i], client_gradients[i]) for i in ids)
        denom = 2.0 * len(ids) * dot(aggregated, aggregated) + _FEDEXP_EPS
        eta_g = fed_cfg.learning_rate * max(1.0, sum_sq / denom)
    return scale_add(w, -eta_g, aggregated)


def _evaluate(
    model_spec: MlpSpec, w: ParamVector, test: Dataset, eval_batch: int
) -> tuple[float, float, float]:
    preds = np.empty(test.size, dtype=np.int64)
    for lo in range(0, test.size, eval_batch):
        probs = model_mod.forward_batch(model_spec, w, test.X[lo : lo + eval_batch])
        preds[lo : lo + probs.shape[0]] = np.argmax(probs, axis=1)
    cm = metrics_mod.accumulate(preds, test.y, model_spec.num_classes)
    return (
        metrics_mod.accuracy(cm),
        metrics_mod.macro_recall(cm),
        metrics_mod.macro_f1(cm),
    )


def _select_participants(state: ExperimentState, round_index: int) -> list[int]:
    all_ids = [s.client_id for s in state.shards]
    k = state.fed.clients_per_round
    if k == 0 or k >= len(all_ids):
        return all_ids
    rng = derive_rng(state.fed.global_seed, round_index, _P_SELECT)
    picked = rng.choice(np.asarray(all_ids), size=k, replace=False)
    return sorted(int(i) for i in picked)


def run_round(
    state: ExperimentState, round_index: int
) -> tuple[RoundMetrics, CorrectionReport | None]:
    """Advance the experiment by one round, mutating state in place."""
    t0 = time.perf_counter()
    fed = state.fed
    w_round_start = state.weights
    participants = _select_participants(state, round_index)

    def one_client(cid: int) -> tuple[int, LocalPhaseResult]:
        shard = state.shards[cid]
        start = (
            state.client_models[cid]
            if fed.algorithm == "isolated"
            else state.weights
        )
        shift = None
        if fed.algorithm == "dp_scaffold":
            shift = state.scaffold.server_variate - state.scaffold.client_variates[cid]
        try:
            result = client_local_phase(
                shard,
                start,
                state.model_spec,
                state.dp,
                fed,
                derive_rng(fed.global_seed, round_index, cid, _P_BATCH),
                derive_rng(fed.global_seed, round_index, cid, _P_NOISE),
                scaffold_shift=shift,
            )
        except ValueError as exc:
            raise ValueError(f"round {round_index}, {exc}") from exc
        if fed.algorithm not in _READS_FINAL_PARAMS:
            result.final_params = None  # a D-length model per client, unread
        return cid, result

    if fed.parallel_clients and len(participants) > 1:
        with ThreadPoolExecutor(max_workers=min(8, len(participants))) as pool:
            results = dict(pool.map(one_client, participants))
    else:
        results = dict(one_client(cid) for cid in participants)

    # disjoint shards: the round costs the worst-case client's step count
    state.ledger.record_steps(max(r.noisy_steps for r in results.values()))

    report: CorrectionReport | None = None
    if fed.algorithm == "isolated":
        for cid, res in results.items():
            state.client_models[cid] = res.final_params
    else:
        gradients = {cid: res.gradient for cid, res in results.items()}
        weights = _participant_weights(state, participants)
        if fed.algorithm == "gcfl" and len(participants) > 1:
            corr_rng = derive_rng(
                fed.global_seed,
                state.correction.order_seed,
                round_index,
                _P_CORRECTION,
            )
            plan, report = plan_round(gradients, state.correction, corr_rng)
            aggregated = weighted_sum(gradients, fold_weights(plan, weights))
        else:
            aggregated = aggregate(gradients, weights)
        state.weights = server_step(state.weights, aggregated, fed, gradients)

        if fed.algorithm == "dp_scaffold":
            deltas = []
            for cid in participants:
                res = results[cid]
                if res.noisy_steps == 0:
                    continue
                old = state.scaffold.client_variates[cid]
                new = (
                    old
                    - state.scaffold.server_variate
                    + (w_round_start - res.final_params)
                    / (res.noisy_steps * fed.learning_rate)
                )
                deltas.append(new - old)
                state.scaffold.client_variates[cid] = new
            if deltas:
                mean_delta = deltas[0]
                for d in deltas[1:]:
                    mean_delta = mean_delta + d
                mean_delta = mean_delta / len(deltas)
                state.scaffold.server_variate = state.scaffold.server_variate + (
                    len(deltas) / fed.n_clients
                ) * mean_delta

    # metrics
    losses = [r.mean_batch_loss for r in results.values() if r.noisy_steps > 0]
    train_loss = float(np.mean(losses)) if losses else math.nan
    if fed.algorithm == "isolated":
        per_client = [
            _evaluate(
                state.model_spec,
                state.client_models[cid],
                state.test,
                fed.eval_batch_size,
            )
            for cid in sorted(state.client_models)
        ]
        acc, rec, f1 = (float(np.mean([p[k] for p in per_client])) for k in range(3))
    else:
        acc, rec, f1 = _evaluate(
            state.model_spec, state.weights, state.test, fed.eval_batch_size
        )

    if state.dp.noise_multiplier == 0:
        eps = math.inf  # no noise: nothing is private
    else:
        eps = epsilon_spent(state.ledger)[0]
    wall = (
        int(round((time.perf_counter() - t0) * 1000.0)) if fed.record_timing else 0
    )
    rm = RoundMetrics(
        round_index=round_index,
        epsilon_spent=eps,
        train_loss=train_loss,
        test_accuracy=acc,
        test_macro_recall=rec,
        test_macro_f1=f1,
        projections_applied=report.projections_applied if report else 0,
        wall_millis=wall,
    )
    return rm, report


@dataclass
class ExperimentResult:
    seed: int
    rounds: list[RoundMetrics]
    correction_summaries: list[dict]
    final_epsilon: float
    stopped_early: bool


def init_state(
    model_spec: MlpSpec,
    dp_cfg: DpConfig,
    fed_cfg: FederationConfig,
    corr_cfg: CorrectionConfig,
    shards: list[ClientShard],
    test: Dataset,
) -> ExperimentState:
    if len(shards) != fed_cfg.n_clients:
        raise ValueError(
            f"got {len(shards)} shards for n_clients={fed_cfg.n_clients}"
        )
    for idx, shard in enumerate(shards):
        if shard.client_id != idx:
            raise ValueError("shards must be ordered so client_id matches index")
    w = model_mod.init_params(model_spec, fed_cfg.global_seed)
    state = ExperimentState(
        model_spec=model_spec,
        dp=dp_cfg,
        fed=fed_cfg,
        correction=corr_cfg,
        shards=shards,
        test=test,
        weights=w,
        ledger=PrivacyLedger(config=dp_cfg),
    )
    ids = [s.client_id for s in shards]
    if fed_cfg.algorithm == "isolated":
        state.client_models = {i: w.copy() for i in ids}
    if fed_cfg.algorithm == "dp_scaffold":
        state.scaffold = ScaffoldState.zeros(w.shape[0], ids)
    return state


def run_experiment(state: ExperimentState) -> ExperimentResult:
    """Run all configured rounds (stopping early on the epsilon budget)."""
    fed = state.fed
    max_steps = None
    if fed.epsilon_budget > 0 and state.dp.noise_multiplier > 0:
        max_steps = steps_for_budget(state.dp, fed.epsilon_budget)
    rounds: list[RoundMetrics] = []
    summaries: list[dict] = []
    stopped = False
    for t in range(fed.rounds):
        if max_steps is not None:
            if state.ledger.steps_taken + fed.local_steps > max_steps:
                stopped = True
                break
        rm, report = run_round(state, t)
        rounds.append(rm)
        summaries.append(report.summary() if report else {})
    final_eps = rounds[-1].epsilon_spent if rounds else 0.0
    return ExperimentResult(
        seed=fed.global_seed,
        rounds=rounds,
        correction_summaries=summaries,
        final_epsilon=final_eps,
        stopped_early=stopped,
    )

"""Round-based federated training loop with DP clients and server correction.

One round: each participating client starts from the current global model,
takes local_steps noisy clipped-SGD steps on its own shard, and uploads the
mean of its noisy batch gradients.  The server optionally corrects conflicts
between uploads (algorithm "gcfl"), aggregates them, and takes a global step.

The round's uploads are the rows of one (P, D) array U, one row per
participant in ascending client id; each client overwrites its row with
its upload, and U is dropped before evaluation.  The upload is the only
per-client vector the server reads.  A client builds its first step in
its row.  Each half of a round (see below) makes one ``StepBuffers`` and
lends it to its clients in turn: a client's steps write their clipped
sum, later noise draws, prox and scaffold shifts and local model into it,
so no step allocates a D-length vector.  A client's K local steps
w <- w - eta * noisy_k end at start - K eta * upload, so isolated stores
that as the client's model, and dp_scaffold's option-II update
c_i <- c_i - c + (start - w_K) / (K eta) adds the upload itself.  The
server step writes the new weights into the aggregate.

The server step speaks rows: the participant weights w, the correction
plan and the folded alpha are lists by row of U, and client ids appear
only at the round's edges (shard lookup, per-client models and variates,
the report's keys).  Every aggregate is one weighted sum over the rows of
U in order (``linalg.weighted_sum``).  For gcfl ``correction.plan_round``
decides each row's projections from the Gram matrix of U,
``correction.fold_weights`` turns w into alpha = w^T M, and the update is
sum_q alpha_q g_q: the weighted sum of the corrected uploads up to
rounding, with no corrected vector built.  Every other round folds the
empty plan, and ``fold_weights([], w)`` is w itself.  Three fixed orders
set the update's bytes, none of them dependent on the BLAS thread count:
the Gram's (one BLAS syrk; see ``correction.gram``), the fold's
(ascending row p, then plan order) and the weighted sum's (ascending row
q, elementwise axpys; see ``linalg``).

Every function here reads its settings from the run's ``ExperimentConfig``
by key name (``cfg.sigma``, ``cfg.eta``, ``cfg.correction_mode``); the
config validated them when it was built.  The run seed is not a config key
(a config lists several) and travels as ``ExperimentState.seed``.  All
randomness is drawn from named streams derived via SeedSequence from four
ints with a purpose tag last: (seed, round, client_id, _P_BATCH or
_P_NOISE), (seed, 0, round, _P_CORRECTION) and (seed, round, 0,
_P_SELECT).  So a client's draws do not depend on which other clients take
part, and reruns are bit-identical.

A command owns one worker thread and one BLAS pin to one thread
(``pinned_worker``), held from its first data build to its last run.  Each
run shares work with that worker one way (``_halves``): the worker takes
the upper half of a round's participants, or of evaluation's test chunks,
and the calling thread takes the lower half, and the upper half too if
the worker has not started it.  A client draws from its own streams and
writes only its own row of U; it reads only state that nothing writes
during the client phase, and the server reads U once both halves have
ended.  Under the pin a matrix product's bytes do not depend on which
thread runs it, so the output bytes are the same with the worker, without
it, and under any timing.  Every task of a round is submitted after the
round starts and has ended when the round returns.
"""

from __future__ import annotations

import math
import sys
import time
from collections.abc import Callable, Iterator
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import metrics as metrics_mod
from . import model as model_mod
from .correction import CorrectionReport, fold_weights, plan_round
from .data import ClientShard, Dataset
from .dp import epsilon_spent, poisson_sample
from .linalg import ParamVector, add_scaled, one_blas_thread, scale_add, weighted_sum
from .model import MlpSpec

if TYPE_CHECKING:  # config.py imports this module's mode tuples
    from .config import ExperimentConfig

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

_EVAL_ROWS = 1024  # test rows per forward pass: keeps activations in cache

# purpose tags for seed-stream derivation
_P_BATCH = 0
_P_NOISE = 1
_P_CORRECTION = 2
_P_SELECT = 3


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
class ExperimentState:
    model_spec: MlpSpec
    cfg: ExperimentConfig
    seed: int
    shards: list[ClientShard]
    test: Dataset
    weights: ParamVector
    steps_taken: int = 0  # noisy steps charged to the accountant so far
    client_models: dict[int, ParamVector] = field(default_factory=dict)
    scaffold: ScaffoldState | None = None


def derive_rng(*name: int) -> np.random.Generator:
    """Independent PCG64 stream named by four nonnegative ints, a purpose tag last.

    SeedSequence pads a short name with zeros, so (seed, round, 3) would be
    the stream (seed, round, 3, 0).  Every name therefore has exactly four
    ints, and each kind of stream has its own tag.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(name)))


def _new_worker() -> Executor:
    """The one worker thread of a command (tests swap in other executors)."""
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="dpfedsim-worker")


@contextmanager
def pinned_worker() -> Iterator[tuple[bool, Executor]]:
    """(whether BLAS is pinned to one thread, a new worker) for the block.

    Without a controllable BLAS this says so on stderr, once.  On exit,
    normal or not, the worker's queued tasks are cancelled, its running
    task is waited for, and the caller's BLAS thread count is restored."""
    with one_blas_thread() as pinned:
        if not pinned:
            print(
                "dpfedsim: no controllable BLAS found; output bytes may depend "
                "on the BLAS thread count",
                file=sys.stderr,
            )
        worker = _new_worker()
        try:
            yield pinned, worker
        finally:
            worker.shutdown(wait=True, cancel_futures=True)


def _halves(worker: Executor, fn: Callable[[range], None], n: int) -> None:
    """Run fn(range(h, n)) on the worker and fn(range(h)) here, h = ceil(n / 2);
    this thread runs the upper half too if the worker has not started it.
    Both halves have ended when this returns or raises, and if both fail
    the lower half's error is raised."""
    h = (n + 1) // 2
    upper = worker.submit(fn, range(h, n))
    try:
        fn(range(h))
    except BaseException:
        if not upper.cancel():
            upper.exception()  # wait: the upper half must not outlive the call
        raise
    if upper.cancel():
        fn(range(h, n))
    else:
        upper.result()


@dataclass(frozen=True)
class StepBuffers:
    """The D-length vectors a client's local steps are written into besides
    its upload row, where its first step is built: at local_steps = 1 the
    clipped sum alone, or with the prox shift under dp_fedprox.

    One half of a round makes one and lends it to each of its clients in
    turn.  Every step overwrites each buffer before it reads it, so nothing
    one client leaves in them reaches the next client's bytes."""

    clipped: ParamVector  # the kernel's clipped sum, then the scaffold shift
    noise: ParamVector | None  # later steps' noise draws, when local_steps > 1
    local: ParamVector | None  # the local model, when local_steps > 1
    prox: ParamVector | None  # prox_mu * (w_local - start), under dp_fedprox

    @classmethod
    def for_config(cls, cfg: ExperimentConfig, dim: int) -> "StepBuffers":
        is_prox = cfg.algorithm == "dp_fedprox" and cfg.prox_mu != 0
        several = cfg.local_steps > 1
        return cls(
            clipped=np.empty(dim),
            noise=np.empty(dim) if several else None,
            local=np.empty(dim) if several else None,
            prox=np.empty(dim) if is_prox else None,
        )


def client_local_phase(
    shard: ClientShard,
    start_params: ParamVector,
    model_spec: MlpSpec,
    cfg: ExperimentConfig,
    batch_rng: np.random.Generator,
    noise_rng: np.random.Generator | None,
    upload: ParamVector,
    scaffold_variates: tuple[ParamVector, ParamVector] | None = None,
    buffers: StepBuffers | None = None,
) -> tuple[int, float]:
    """Run one client's local steps, write its upload into the ``upload``
    row (whatever it held), and return (noisy steps, mean batch loss).

    Per step: draw a minibatch, clip each per-sample gradient to C and sum in
    one batched pass, add a noise vector z * sigma C with z drawn from
    ``noise_rng`` (at sigma = 0 nothing is drawn, and None may be passed),
    divide by the realized batch size, then step the local model.  The step
    vector is built where z is drawn, (z sigma C + clipped sum) / B: the
    bytes of (clipped sum + noise) / B, since IEEE addition commutes; at
    sigma = 0 the clipped sum is copied there instead.  dp_fedprox adds
    prox_mu * (w_local - w_start) to each per-sample gradient before
    clipping; dp_scaffold adds the control-variate shift server - client,
    from ``scaffold_variates`` = (server, client), after noising.  No local
    model is built after the last step.  A non-finite per-sample gradient
    norm or step gradient raises ValueError naming the client.

    The upload is the mean of the noisy batch gradients over the steps that
    actually ran.  The first of them is built in the upload row itself, so
    the row is written once; each later one is built in ``buffers.noise``
    and added into the row, which is divided once when more than one step
    ran.  A client with no step uploads zeros.  Every other D-length vector
    of a step is written into ``buffers`` (new ones when none are given),
    the scaffold shift into the clipped sum's buffer once the step has read
    it, so a step allocates no D-length vector.
    """
    if shard.size == 0:
        raise ValueError(f"client {shard.client_id} holds an empty shard")
    if buffers is None:
        buffers = StepBuffers.for_config(cfg, start_params.shape[0])
    # start_params is never written: the first local step fills buffers.local
    w_local = start_params
    steps = 0
    loss_total = 0.0
    is_prox = cfg.algorithm == "dp_fedprox" and cfg.prox_mu != 0

    for k in range(cfg.local_steps):
        idx = poisson_sample(shard.size, cfg.batch_size, cfg.sampling_mode, batch_rng)
        if idx.size == 0:
            continue  # empty poisson draw: no step, no privacy cost
        rows = shard.indices[idx]
        prox_shift = None
        if is_prox:
            prox_shift = np.subtract(w_local, start_params, out=buffers.prox)
            prox_shift *= cfg.prox_mu
        losses, sq_norms, _ = model_mod.clipped_gradient_sum(
            model_spec,
            w_local,
            shard.dataset.X[rows],
            shard.dataset.y[rows],
            cfg.clip_threshold,
            prox_shift,
            out=buffers.clipped,
        )
        noisy = buffers.noise if steps else upload
        if cfg.sigma == 0:
            np.copyto(noisy, buffers.clipped)
        else:
            noise_rng.standard_normal(out=noisy)
            noisy *= cfg.sigma * cfg.clip_threshold
            noisy += buffers.clipped
        noisy /= idx.size
        if scaffold_variates is not None:
            # the step has read the clipped sum: its buffer takes the shift
            noisy += np.subtract(*scaffold_variates, out=buffers.clipped)
        if not (np.isfinite(sq_norms).all() and np.isfinite(noisy).all()):
            raise ValueError(
                f"client {shard.client_id}: non-finite per-sample gradient "
                f"norm or upload at local step {steps + 1}"
            )
        if k + 1 < cfg.local_steps:
            if w_local is start_params:
                w_local = buffers.local
                w_local[...] = start_params
            add_scaled(w_local, -cfg.eta, noisy)  # w_local - eta * noisy
        if steps:
            upload += noisy
        steps += 1
        loss_total += float(np.sum(losses)) / idx.size

    if steps == 0:
        upload.fill(0.0)
    elif steps > 1:
        upload /= steps
    mean_loss = loss_total / steps if steps else math.nan
    return steps, mean_loss


def _participant_weights(
    state: ExperimentState, participants: list[int]
) -> list[float]:
    """Aggregation weight of each row of U, in row order."""
    if state.cfg.weighting == "uniform":
        return [1.0 / len(participants)] * len(participants)
    sizes = [state.shards[cid].size for cid in participants]
    total = sum(sizes)
    return [size / total for size in sizes]


def server_step(
    w: ParamVector,
    aggregated: ParamVector,
    cfg: ExperimentConfig,
    uploads: np.ndarray | None = None,
    out: ParamVector | None = None,
) -> ParamVector:
    """Global update w - eta_g * aggregate: a new vector, inputs left
    untouched, or written into ``out`` when one is given (the aggregate
    itself may be passed; w may not).

    dp_fedexp scales the step: eta_g = eta * max(1, sum_i ||g_i||^2 /
    (2 n ||g_bar||^2 + 1e-3)) with g_i the rows of uploads and g_bar the
    aggregate; every other algorithm uses eta_g = eta.
    """
    eta_g = cfg.eta
    if cfg.algorithm == "dp_fedexp":
        if uploads is None:
            raise ValueError("dp_fedexp needs the per-client uploads")
        # N + 1 einsum dots, not the whole Gram's N(N+1)/2; fsum is exact,
        # so order is immaterial
        sum_sq = math.fsum(float(np.einsum("d,d->", g, g)) for g in uploads)
        sq_mean = float(np.einsum("d,d->", aggregated, aggregated))
        denom = 2.0 * len(uploads) * sq_mean + _FEDEXP_EPS
        eta_g = cfg.eta * max(1.0, sum_sq / denom)
    if out is None:
        return scale_add(w, -eta_g, aggregated)
    np.multiply(aggregated, -eta_g, out=out)
    out += w  # w + (-eta_g * aggregate), the bytes of scale_add
    return out


def _evaluate(
    model_spec: MlpSpec, w: ParamVector, test: Dataset, worker: Executor
) -> tuple[float, float, float]:
    """(accuracy, macro recall, macro F1) on the test set, predicted in
    _EVAL_ROWS-row chunks split between the worker and this thread
    (``_halves``); a chunk's bytes do not depend on the thread under the pin."""
    preds = np.empty(test.size, dtype=np.int64)
    starts = range(0, test.size, _EVAL_ROWS)

    def predict(chunks: range) -> None:
        for lo in starts[chunks.start : chunks.stop]:
            probs = model_mod.forward_batch(model_spec, w, test.X[lo : lo + _EVAL_ROWS])
            preds[lo : lo + probs.shape[0]] = np.argmax(probs, axis=1)

    _halves(worker, predict, len(starts))
    cm = metrics_mod.accumulate(preds, test.y, model_spec.num_classes)
    return (
        metrics_mod.accuracy(cm),
        metrics_mod.macro_recall(cm),
        metrics_mod.macro_f1(cm),
    )


def _select_participants(state: ExperimentState, round_index: int) -> list[int]:
    """The round's client ids, ascending (init_state makes id == shard index)."""
    n = len(state.shards)
    k = state.cfg.clients_per_round
    if k == 0 or k >= n:
        return list(range(n))
    rng = derive_rng(state.seed, round_index, 0, _P_SELECT)
    return sorted(int(i) for i in rng.choice(n, size=k, replace=False))


def run_round(
    state: ExperimentState, round_index: int, worker: Executor
) -> tuple[RoundMetrics, CorrectionReport | None]:
    """Advance the experiment by one round on the command's worker, mutating
    state in place."""
    t0 = time.perf_counter()
    cfg = state.cfg
    participants = _select_participants(state, round_index)

    # row p is the upload of participants[p], ascending client id; each
    # client overwrites only its own row, steps[p] and losses[p]
    uploads = np.empty((len(participants), state.weights.shape[0]))
    steps = np.empty(len(participants), dtype=np.int64)
    losses = np.empty(len(participants))

    def run_clients(part: range) -> None:
        buffers = StepBuffers.for_config(cfg, state.weights.shape[0])
        for p in part:
            cid = participants[p]
            start = (
                state.client_models[cid]
                if cfg.algorithm == "isolated"
                else state.weights
            )
            variates = None
            if cfg.algorithm == "dp_scaffold":
                scaffold = state.scaffold
                variates = (scaffold.server_variate, scaffold.client_variates[cid])
            try:
                steps[p], losses[p] = client_local_phase(
                    state.shards[cid],
                    start,
                    state.model_spec,
                    cfg,
                    derive_rng(state.seed, round_index, cid, _P_BATCH),
                    derive_rng(state.seed, round_index, cid, _P_NOISE),
                    uploads[p],
                    scaffold_variates=variates,
                    buffers=buffers,
                )
            except ValueError as exc:
                raise ValueError(f"round {round_index}, {exc}") from exc

    _halves(worker, run_clients, len(participants))

    # disjoint shards: the round costs the worst-case client's step count
    state.steps_taken += int(steps.max())

    report: CorrectionReport | None = None
    if cfg.algorithm == "isolated":
        for p, cid in enumerate(participants):  # 0 steps: a zero upload, no move
            state.client_models[cid] = scale_add(
                state.client_models[cid], -cfg.eta * int(steps[p]), uploads[p]
            )
    else:
        plan = []  # no projections: fold_weights returns the weights as given
        if cfg.algorithm == "gcfl" and len(participants) > 1:
            # position 1 held the removed order_seed key, always 0; keeping
            # the 0 keeps every correction stream's bytes
            corr_rng = derive_rng(state.seed, 0, round_index, _P_CORRECTION)
            plan, report = plan_round(
                uploads, participants, cfg.correction_mode, cfg.num_references,
                corr_rng,
            )
        alpha = fold_weights(plan, _participant_weights(state, participants))
        aggregated = weighted_sum(uploads, alpha)
        # the new weights are written into the aggregate, the round's one
        # server-side D-vector
        state.weights = server_step(
            state.weights, aggregated, cfg, uploads, out=aggregated
        )

        if cfg.algorithm == "dp_scaffold":
            # the server variate moves by (1 / n) sum of the new - old of
            # every participant that stepped, added in row order; row p is
            # read for the last time here, so it takes new - old
            scaffold = state.scaffold
            move = np.zeros_like(scaffold.server_variate)
            for p, cid in enumerate(participants):
                if steps[p]:
                    old = scaffold.client_variates[cid]
                    new = old - scaffold.server_variate
                    new += uploads[p]
                    delta = np.subtract(new, old, out=uploads[p])
                    add_scaled(move, 1.0 / cfg.n_clients, delta)
                    scaffold.client_variates[cid] = new
            if steps.any():
                move += scaffold.server_variate
                scaffold.server_variate = move
    del uploads  # the round's P x D uploads are not held through evaluation

    # metrics
    ran = losses[steps > 0]
    train_loss = float(np.mean(ran)) if ran.size else math.nan
    if cfg.algorithm == "isolated":
        per_client = [
            _evaluate(state.model_spec, state.client_models[cid], state.test, worker)
            for cid in sorted(state.client_models)
        ]
        acc, rec, f1 = (float(np.mean([p[k] for p in per_client])) for k in range(3))
    else:
        acc, rec, f1 = _evaluate(state.model_spec, state.weights, state.test, worker)

    if cfg.sigma == 0:
        eps = math.inf  # no noise: nothing is private
    else:
        eps = epsilon_spent(state.steps_taken, cfg.sigma, cfg.delta)[0]
    wall = (
        int(round((time.perf_counter() - t0) * 1000.0)) if cfg.record_timing else 0
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
    rounds: list[RoundMetrics]
    correction_summaries: list[dict]
    stopped_early: bool


def init_state(
    model_spec: MlpSpec,
    cfg: ExperimentConfig,
    seed: int,
    shards: list[ClientShard],
    test: Dataset,
) -> ExperimentState:
    """The state before round 0 of the run with this seed."""
    if len(shards) != cfg.n_clients:
        raise ValueError(f"got {len(shards)} shards for n_clients={cfg.n_clients}")
    for idx, shard in enumerate(shards):
        if shard.client_id != idx:
            raise ValueError("shards must be ordered so client_id matches index")
    w = model_mod.init_params(model_spec, seed)
    state = ExperimentState(
        model_spec=model_spec,
        cfg=cfg,
        seed=seed,
        shards=shards,
        test=test,
        weights=w,
    )
    ids = [s.client_id for s in shards]
    if cfg.algorithm == "isolated":
        state.client_models = {i: w.copy() for i in ids}
    if cfg.algorithm == "dp_scaffold":
        state.scaffold = ScaffoldState.zeros(w.shape[0], ids)
    return state


def run_experiment(state: ExperimentState, worker: Executor) -> ExperimentResult:
    """Run all configured rounds on the command's worker, stopping early on
    the epsilon budget."""
    cfg = state.cfg
    max_steps = cfg.budget_steps()
    rounds: list[RoundMetrics] = []
    summaries: list[dict] = []
    stopped = False
    for t in range(cfg.rounds):
        if max_steps is not None:
            if state.steps_taken + cfg.local_steps > max_steps:
                stopped = True
                break
        rm, report = run_round(state, t, worker)
        rounds.append(rm)
        summaries.append(report.summary() if report else {})
    return ExperimentResult(
        rounds=rounds,
        correction_summaries=summaries,
        stopped_early=stopped,
    )

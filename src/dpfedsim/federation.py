"""Round-based federated training loop with DP clients and server correction.

One round: each participating client starts from the current global model,
takes local_steps noisy clipped-SGD steps on its own shard, and uploads the
mean of its noisy batch gradients.  The server optionally corrects conflicts
between uploads (algorithm "gcfl"), aggregates them, and takes a global step.

The round's uploads are the rows of one (P, D) array U, one row per
participant in ascending client id; each client overwrites its row with
its upload; U is freed before evaluation, or at the round's end where
evaluation builds the test features in it (below).  The upload is the only
per-client vector the server reads.  A client builds its first step in
its row and its other D-length vectors in a workspace it allocates once
(``client_local_phase``), so no step allocates one; under dp_fedprox a
step's prox shift is built in the step's own vector, which the kernel
reads it from before the step is built there.  A client's K local
steps w <- w - eta * noisy_k end at start - K eta * upload, so isolated stores
that as the client's model, and dp_scaffold's option-II update
c_i <- c_i - c + (start - w_K) / (K eta) adds the upload itself.  The
server step writes the new weights into the aggregate.  A client step
turns its batch's uint8 levels into float64 features (``data.features``);
the whole DP step runs in float64, and so do the uploads, the Gram, the
aggregate, the server step and every model the state holds.  Evaluation
alone runs at half width: it reads the test set's float32 features and
predicts the argmax of float32 logits (``model.predict``).  This module
alone decides their form (``held_test_set``): where U has room for them,
the run holds levels, and each round's evaluation builds them in spent U.

A client id indexes the run's lists of shards (row-index arrays into the
one train set), per-client models and variates.  The server step speaks
rows: the participant weights w and the aggregate's weights alpha are
lists by row of U, and client ids appear only at the round's edges (shard
lookup, per-client models and variates, the summary's references).  Every
aggregate is one weighted sum sum_q alpha_q g_q over the rows of U in
order (``linalg.weighted_sum``), with alpha = w except under gcfl, where
``correction.plan_round`` folds each projection it decides from the Gram
matrix of U into alpha.  Three fixed orders set the update's bytes, none
of them dependent on the BLAS thread count: the Gram's (one BLAS syrk;
see ``correction.gram``), the fold's (ascending row p, then test order)
and the weighted sum's (ascending row q, elementwise axpys; see
``linalg``).  Each of a round's P participants weighs w_p = 1 / P: a
public count, never the private shard sizes.

Every function here reads its settings from the run's ``ExperimentConfig``
by key name (``cfg.sigma``, ``cfg.eta``, ``cfg.correction_mode``); the
config validated them when it was built.  The run seed is not a config key
(a config lists several) and travels as ``ExperimentState.seed``.  Every
draw of a run, its data and initial model too, comes from a stream that
``derive_rng`` names by four ints, a ``Stream`` tag last: (seed, round,
client_id, BATCH or NOISE), (seed, round, 0, CORRECTION or SELECT) and
(seed, 0, 0, INIT or a data tag).  So no two streams share a name, a client's
draws do not depend on who else takes part, and reruns are bit-identical.

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

import enum
import hashlib
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
from .correction import plan_round
from .data import Dataset, features, features_into
from .dp import poisson_sample
from .linalg import ParamVector, add_scaled, one_blas_thread, weighted_sum
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

_FEDEXP_EPS = 1e-3

_EVAL_ROWS = 1024  # test rows per forward pass: keeps activations in cache
_EVAL_DTYPE = np.float32  # evaluation's width: the test features' dtype


@dataclass
class RoundMetrics:
    """One round's outcome; a run is the list of its rounds' records."""

    round_index: int
    epsilon_spent: float
    train_loss: float
    test_accuracy: float
    test_macro_recall: float
    test_macro_f1: float
    projections_applied: int
    wall_millis: int
    correction: dict  # the CorrectionReport's summary(); {} when none ran


@dataclass
class ScaffoldState:
    server_variate: ParamVector
    client_variates: list[ParamVector]  # by client id


@dataclass
class ExperimentState:
    model_spec: MlpSpec
    cfg: ExperimentConfig
    seed: int
    train: Dataset
    shards: list[np.ndarray]  # by client id: its rows of train
    test_X: np.ndarray  # uint8 levels or float32 features (held_test_set)
    test_y: np.ndarray  # and its labels
    weights: ParamVector
    client_models: list[ParamVector] = field(default_factory=list)  # by client id
    scaffold: ScaffoldState | None = None


@enum.unique
class Stream(enum.IntEnum):
    """The purpose tag of a stream, the last int of its ``derive_rng`` name."""

    BATCH = 0
    NOISE = 1
    CORRECTION = 2
    SELECT = 3
    INIT = 4
    TRAIN = 5
    TEST = 6
    SUB_TRAIN = 7
    SUB_TEST = 8
    PARTITION = 9


def derive_rng(
    seed: int, round_index: int, client_id: int, purpose: Stream
) -> np.random.Generator:
    """The PCG64 stream named (seed, round_index, client_id, purpose): the
    one place a stream is made from the run seed.

    SeedSequence pads a short name with zeros, so ``default_rng(seed)`` would
    be (seed, 0, 0, 0), client 0's round-0 batch stream.  So every name has
    four ints and a tag; a stream outside a round names round 0, client 0.
    """
    return np.random.default_rng((seed, round_index, client_id, purpose))


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


@np.errstate(over="ignore", invalid="ignore")  # each step checks its vector
def client_local_phase(
    train: Dataset,
    rows: np.ndarray,
    start_params: ParamVector,
    model_spec: MlpSpec,
    cfg: ExperimentConfig,
    batch_rng: np.random.Generator,
    noise_rng: np.random.Generator,
    upload: ParamVector,
    scaffold_variates: tuple[ParamVector, ParamVector] | None = None,
) -> float:
    """Run one client's local steps on its shard, the given rows of train,
    write its upload into the ``upload`` row (whatever it held), and return
    the mean of the steps' objectives, each the summed sample losses of its
    batch over B, the batch_size.

    Per step: draw a minibatch of the rows, gather its float64 features
    (``data.features``), clip each per-sample gradient to C and sum in one
    batched pass, add a noise vector z * sigma C with z drawn from
    ``noise_rng`` (at sigma = 0 nothing is drawn),
    divide by B, the configured public constant, then step the local model.
    Every step releases its vector, one with an empty Poisson draw too (its
    clipped sum is zero).  The step vector is built where z is drawn,
    (z sigma C + clipped sum) / B: the bytes of (clipped sum + noise) / B,
    since IEEE addition commutes; at sigma = 0 the clipped sum is copied
    there instead.  Under dp_fedprox with prox_mu != 0,
    prox_mu * (w_local - w_start) is added to each per-sample gradient
    before clipping from the second step on; at the first, w_local is
    w_start and the shift is exactly zero, so the kernel runs without one:
    a zero shift adds nothing to the norms or the sum.  dp_scaffold adds
    the control-variate shift server - client, from ``scaffold_variates``
    = (server, client), after noising.  No local model is built after the
    last step.  A non-finite per-sample gradient norm or step gradient
    raises ValueError (``run_round`` names the client).

    The upload is the mean of the K step vectors.  The first is built in
    the upload row itself, so the row is written once; each later one is
    built in a vector of its own and added into the row, which is divided
    by K when K > 1.  The client allocates its workspace once, before its
    first step: the clipped sum, and when K > 1 the later-step vector and
    the local model.  Every step overwrites what it reads of it, so a step
    allocates no D-length vector: the dp_fedprox shift is built in the
    step's own vector, which the kernel reads before the noise is drawn
    there (never in the clipped sum's, the kernel's scratch), and the
    scaffold shift in the clipped sum's vector once the step has read it.
    """
    dim = start_params.shape[0]
    clipped = np.empty(dim)  # the kernel's clipped sum, then the scaffold shift
    prox = cfg.algorithm == "dp_fedprox" and cfg.prox_mu != 0
    if cfg.local_steps > 1:
        later = np.empty(dim)  # steps 2..K, each added into the upload
        w_local = start_params.copy()  # start_params is never written
    else:
        later, w_local = None, start_params
    loss_total = 0.0

    for k in range(cfg.local_steps):
        idx = poisson_sample(rows.size, cfg.batch_size, cfg.sampling_mode, batch_rng)
        batch = rows[idx]
        noisy = later if k else upload
        shift = None
        if prox and k:
            # read by the kernel before the step is built here; at k = 0
            # w_local is the start, so the shift is zero and is left out
            shift = np.subtract(w_local, start_params, out=noisy)
            shift *= cfg.prox_mu
        losses, sq_norms, _ = model_mod.clipped_gradient_sum(
            model_spec,
            w_local,
            features(train.X[batch]),
            train.y[batch],
            cfg.clip_threshold,
            shift,
            out=clipped,
        )
        if cfg.sigma == 0:
            np.copyto(noisy, clipped)
        else:
            noise_rng.standard_normal(out=noisy)
            noisy *= cfg.sigma * cfg.clip_threshold
            noisy += clipped
        noisy /= cfg.batch_size
        if scaffold_variates is not None:
            # the step has read the clipped sum: its vector takes the shift
            noisy += np.subtract(*scaffold_variates, out=clipped)
        if not (np.isfinite(sq_norms).all() and np.isfinite(noisy).all()):
            raise ValueError(
                f"non-finite per-sample gradient norm or upload at local step {k + 1}"
            )
        if k + 1 < cfg.local_steps:
            add_scaled(w_local, -cfg.eta, noisy)  # w_local - eta * noisy
        if k:
            upload += noisy
        loss_total += float(np.sum(losses)) / cfg.batch_size

    if cfg.local_steps > 1:
        upload /= cfg.local_steps
    return loss_total / cfg.local_steps


def server_step(
    w: ParamVector,
    aggregated: ParamVector,
    cfg: ExperimentConfig,
    uploads: np.ndarray,
) -> ParamVector:
    """Global update w - eta_g * aggregate, written into the aggregate and
    returned; w is left untouched and must not be the aggregate.

    dp_fedexp scales the step: eta_g = eta * max(1, sum_i ||g_i||^2 /
    (2 n ||g_bar||^2 + 1e-3)) with g_i the rows of uploads and g_bar the
    aggregate; every other algorithm uses eta_g = eta.
    """
    eta_g = cfg.eta
    if cfg.algorithm == "dp_fedexp":
        # N + 1 einsum dots, not the whole Gram's N(N+1)/2; fsum is exact,
        # so order is immaterial
        sum_sq = math.fsum(float(np.einsum("d,d->", g, g)) for g in uploads)
        sq_mean = float(np.einsum("d,d->", aggregated, aggregated))
        denom = 2.0 * len(uploads) * sq_mean + _FEDEXP_EPS
        eta_g = cfg.eta * max(1.0, sum_sq / denom)
    aggregated *= -eta_g
    aggregated += w  # w + (-eta_g * aggregate)
    return aggregated


def held_test_set(
    cfg: ExperimentConfig, num_params: int, levels: np.ndarray
) -> np.ndarray:
    """What a run holds of its (n, d) test levels: a copy where a round's
    (P, D) float64 uploads have room for their float32 features, P D 8 >=
    n d 4 bytes, else those features.  Either frees the build's levels,
    which keeps round 0's workspaces' pages (glibc's thresholds rise)."""
    n, d = levels.shape
    if (cfg.clients_per_round or cfg.n_clients) * num_params * 8 >= n * d * 4:
        return levels.copy()
    return features(levels, _EVAL_DTYPE)


def _evaluate(
    state: ExperimentState,
    spent: np.ndarray | None,
    models: list[ParamVector],
    round_index: int,
    worker: Executor,
) -> tuple[float, float, float]:
    """The means over models of (accuracy, macro recall, macro F1), from
    one pass over the test set's _EVAL_ROWS-row chunks split between the
    worker and this thread (``_halves``).  Given spent U, a half builds
    its chunks' features in their rows of U, then predicts them with each
    model in turn, cast into the half's buffer.  Weights not finite once
    cast, or logits they overflow, raise ValueError naming the round."""
    spec, held = state.model_spec, state.test_X
    test_X = held
    if spent is not None:
        test_X = spent.reshape(-1).view(_EVAL_DTYPE)[: held.size].reshape(held.shape)
    preds = np.empty((len(models), test_X.shape[0]), dtype=np.int64)
    starts = range(0, test_X.shape[0], _EVAL_ROWS)
    # made here: a cast made on the worker, or an isfinite mask, raised peak RSS
    casts = np.empty((2, spec.num_params), test_X.dtype)

    def predict(chunks: range) -> None:
        half = [slice(lo, lo + _EVAL_ROWS) for lo in starts[chunks.start : chunks.stop]]
        w_eval = casts[int(chunks.start > 0)]
        if spent is not None:
            for rows in half:
                features_into(held[rows], test_X[rows])
        for m, w in enumerate(models):
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                np.copyto(w_eval, w, casting="same_kind")
            if not (math.isfinite(w_eval.min()) and math.isfinite(w_eval.max())):
                raise ValueError(f"weights not finite in {test_X.dtype}")
            for rows in half:
                preds[m, rows] = model_mod.predict(spec, w_eval, test_X[rows])

    try:
        _halves(worker, predict, len(starts))
    except ValueError as exc:  # the cast's, or model.predict's (logits)
        raise ValueError(f"round {round_index}: {exc}") from None
    cms = (metrics_mod.accumulate(p, state.test_y, spec.num_classes) for p in preds)
    scores = [metrics_mod.scores(cm) for cm in cms]
    return tuple(float(np.mean([s[k] for s in scores])) for k in range(3))


def _evaluated_models(state: ExperimentState) -> list[ParamVector]:
    """The models a round evaluates: under isolated every client's, in
    ascending id, else the global weights."""
    return state.client_models if state.cfg.algorithm == "isolated" else [state.weights]


def weights_sha256(state: ExperimentState) -> str:
    """SHA-256 over the float64 bytes of the models the last evaluation
    read (``_evaluated_models``), in order: a fingerprint of every weight
    byte, where the test metrics see only the predictions."""
    digest = hashlib.sha256()
    for w in _evaluated_models(state):
        digest.update(w)
    return digest.hexdigest()


def _select_participants(state: ExperimentState, round_index: int) -> list[int]:
    """The round's client ids, ascending."""
    n = len(state.shards)
    k = state.cfg.clients_per_round
    if k == 0 or k >= n:
        return list(range(n))
    rng = derive_rng(state.seed, round_index, 0, Stream.SELECT)
    return sorted(int(i) for i in rng.choice(n, size=k, replace=False))


@np.errstate(over="ignore", invalid="ignore")  # evaluation checks the models
def run_round(
    state: ExperimentState, round_index: int, worker: Executor
) -> RoundMetrics:
    """Advance the experiment by one round on the command's worker, mutating
    state in place, and return the round's record."""
    t0 = time.perf_counter()
    cfg = state.cfg
    participants = _select_participants(state, round_index)

    # row p is the upload of participants[p], ascending client id; each
    # client overwrites only its own row and losses[p].  A new U each
    # round: freeing it lifts glibc's mmap and trim thresholds above a
    # D-vector, so the clients' workspaces keep their pages
    uploads = np.empty((len(participants), state.weights.shape[0]))
    losses = np.empty(len(participants))

    def run_clients(part: range) -> None:
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
                losses[p] = client_local_phase(
                    state.train,
                    state.shards[cid],
                    start,
                    state.model_spec,
                    cfg,
                    derive_rng(state.seed, round_index, cid, Stream.BATCH),
                    derive_rng(state.seed, round_index, cid, Stream.NOISE),
                    uploads[p],
                    scaffold_variates=variates,
                )
            except ValueError as exc:
                raise ValueError(f"round {round_index}, client {cid}: {exc}") from exc

    _halves(worker, run_clients, len(participants))

    report = None
    if cfg.algorithm == "isolated":
        scale = -cfg.eta * cfg.local_steps  # the K steps' move per unit upload
        for p, cid in enumerate(participants):
            # a new vector: the old model may be a caller's start array
            state.client_models[cid] = state.client_models[cid] + scale * uploads[p]
    else:
        alpha = [1.0 / len(participants)] * len(participants)
        if cfg.algorithm == "gcfl" and len(participants) > 1:
            try:
                alpha, report = plan_round(
                    uploads, alpha, cfg.correction_mode, cfg.num_references,
                    derive_rng(state.seed, round_index, 0, Stream.CORRECTION),
                )
            except ValueError as exc:  # the Gram matrix is not finite
                raise ValueError(f"round {round_index}: {exc}") from None
        aggregated = weighted_sum(uploads, alpha)
        # the new weights are written into the aggregate, the round's one
        # server-side D-vector
        state.weights = server_step(state.weights, aggregated, cfg, uploads)

        if cfg.algorithm == "dp_scaffold":
            # the server variate moves by (1 / n) sum of every participant's
            # new - old, summed in row order; row p is read for the last
            # time here, so it takes new - old
            scaffold = state.scaffold
            for p, cid in enumerate(participants):
                old = scaffold.client_variates[cid]
                new = old - scaffold.server_variate
                new += uploads[p]
                np.subtract(new, old, out=uploads[p])
                scaffold.client_variates[cid] = new
            move = weighted_sum(uploads, [1.0 / cfg.n_clients] * len(participants))
            move += scaffold.server_variate
            scaffold.server_variate = move

    # metrics; U is read for the last time above
    spent = uploads if state.test_X.dtype == np.uint8 else None
    del uploads  # frees U now unless evaluation builds the features in it
    train_loss = float(np.mean(losses))
    models = _evaluated_models(state)
    acc, rec, f1 = _evaluate(state, spent, models, round_index, worker)

    eps = cfg.epsilon_after(round_index + 1)[0]
    wall = (
        int(round((time.perf_counter() - t0) * 1000.0)) if cfg.record_timing else 0
    )
    return RoundMetrics(
        round_index=round_index,
        epsilon_spent=eps,
        train_loss=train_loss,
        test_accuracy=acc,
        test_macro_recall=rec,
        test_macro_f1=f1,
        projections_applied=len(report.projections) if report else 0,
        wall_millis=wall,
        correction=report.summary(participants) if report else {},
    )


def init_state(
    model_spec: MlpSpec,
    cfg: ExperimentConfig,
    seed: int,
    train: Dataset,
    shards: list[np.ndarray],
    test_X: np.ndarray,
    test_y: np.ndarray,
) -> ExperimentState:
    """The state before round 0 of the run with this seed, whose client i
    holds the rows shards[i] of train, evaluated on the test set test_X
    (``held_test_set``) and labels test_y; the
    state holds the arrays as given."""
    w = model_mod.init_params(model_spec, derive_rng(seed, 0, 0, Stream.INIT))
    state = ExperimentState(
        model_spec=model_spec,
        cfg=cfg,
        seed=seed,
        train=train,
        shards=shards,
        test_X=test_X,
        test_y=test_y,
        weights=w,
    )
    if cfg.algorithm == "isolated":
        state.client_models = [w.copy() for _ in shards]
    if cfg.algorithm == "dp_scaffold":
        dim = w.shape[0]
        state.scaffold = ScaffoldState(np.zeros(dim), [np.zeros(dim) for _ in shards])
    return state


def run_experiment(state: ExperimentState, worker: Executor) -> list[RoundMetrics]:
    """Run the configured rounds on the command's worker and return their
    records; the run stops early, with fewer than cfg.rounds records, before
    a round that could cross the epsilon budget."""
    return [run_round(state, t, worker) for t in range(state.cfg.rounds_run())]

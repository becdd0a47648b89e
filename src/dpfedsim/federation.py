"""Round-based federated training loop with DP clients and server correction.

One round: each participating client starts from the current global model,
takes local_steps noisy clipped-SGD steps on its own shard, and uploads the
mean of its noisy batch gradients.  The server optionally corrects conflicts
between uploads (algorithm "gcfl"), aggregates them, and takes a global step.

The round's uploads are the rows of one (P, D) array U, one row per
participant in ascending client id: the only per-client vector the server
reads.  Client ids index the run's shards and scaffold variates and appear
only at the round's edges; the server speaks rows of U.  Every aggregate is
one weighted sum over the rows of U in order (``linalg.weighted_sum``), each
row weighted 1 / P, a public count, never the private shard sizes; under
gcfl ``correction.plan_round`` folds its projections into those weights.
The Gram's, the fold's and the sum's fixed orders set the update's bytes,
whatever the BLAS thread count.  Everything but evaluation runs in float64.
Evaluation predicts from float32 test features, built chunk by chunk in
spent U from the uint8 levels that are all the run holds of the test set
(``_evaluate``).

Every draw of a run comes from a stream that ``derive_rng`` names by four
ints, a ``Stream`` tag last: (seed, round, client_id, BATCH or NOISE),
(seed, round, 0, CORRECTION or SELECT) and (seed, 0, 0, INIT or a data
tag).  So no two streams share a name, a client's draws do not depend on
who else takes part, and reruns are bit-identical.  The run seed travels as
``ExperimentState.seed``; every setting is read from the validated
``ExperimentConfig``.

A command owns one worker thread, the package's own ``Worker``, and pins
BLAS to one thread (``pinned_worker``).  A round splits its clients, and
its test chunks, between that worker and the calling thread
(``_halves``).  A client draws from its own streams, writes only its own
row of U and reads nothing that the client phase writes, and under the
pin a product's bytes do not depend on the thread that runs it, so the
output bytes are the same with the worker, without it, and under any
timing.

A client builds each step vector where the kernel writes the step's
clipped sum, its row of U first, and adds noise and shifts through one
64 KiB block (``linalg.blocks``); the dp_scaffold variate update goes
block by block, in place.

A round's floating-point policy is one ``np.errstate``, on ``run_round``,
which ``_halves`` carries to the worker: numpy ignores overflow and
invalid, and each producer (a client step, the Gram, the cast, the
logits) checks its output and raises ValueError.
"""

from __future__ import annotations

import contextvars
import enum
import hashlib
import math
import queue
import sys
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import metrics as metrics_mod
from . import model as model_mod
from .correction import plan_round
from .data import Dataset, features, features_into
from .dp import poisson_sample
from .linalg import (
    ParamVector, add_scaled, block, blocks, one_blas_thread, weighted_sum
)
from .model import MlpSpec

if TYPE_CHECKING:  # config.py imports this module's mode tuples
    from .config import ExperimentConfig

ALGORITHMS = (
    "gcfl",
    "dp_fedavg",
    "dp_fedprox",
    "dp_scaffold",
)

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
    test_X: np.ndarray  # uint8 levels, whose features evaluation builds
    test_y: np.ndarray  # and its labels
    weights: ParamVector
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


class _Task:
    """A call submitted to a ``Worker``, and its outcome once it has run.
    The task drops its call before it is marked done."""

    def __init__(self, fn: Callable, args: tuple) -> None:
        self._call: tuple[Callable, tuple] | None = (fn, args)
        self._done = threading.Event()
        self._result = self._error = None

    def run(self) -> None:
        """Run the call, keeping its value or error."""
        fn, args = self._call
        self._call = None
        try:
            self._result = fn(*args)
        except BaseException as exc:
            self._error = exc
        finally:
            del fn, args  # the error's traceback holds this frame
            self._done.set()

    def exception(self) -> BaseException | None:
        """The call's error, or None, once it has run."""
        self._done.wait()
        return self._error

    def result(self):
        """The call's return value once it has run; its error is raised."""
        if self.exception() is not None:
            raise self._error
        return self._result


class Worker:
    """One daemon thread that runs submitted calls in order.  A command
    uses ``submit`` and ``close``, and a task's ``result`` and
    ``exception``."""

    def __init__(self) -> None:
        self._tasks: queue.SimpleQueue[_Task | None] = queue.SimpleQueue()
        self._thread = threading.Thread(
            target=self._serve, name="dpfedsim-worker", daemon=True
        )
        self._thread.start()

    def _serve(self) -> None:
        while (task := self._tasks.get()) is not None:
            task.run()

    def submit(self, fn: Callable, *args) -> _Task:
        task = _Task(fn, args)
        self._tasks.put(task)
        return task

    def close(self) -> None:
        """End the thread once it has run the queued tasks; return when it
        has."""
        self._tasks.put(None)
        self._thread.join()


@contextmanager
def pinned_worker() -> Iterator[tuple[bool, Worker]]:
    """(whether BLAS is pinned to one thread, a new worker) for the block.

    Without a controllable BLAS this says so on stderr, once.  On exit,
    normal or not, the worker is closed and the caller's BLAS thread count
    is restored."""
    with one_blas_thread() as pinned:
        if not pinned:
            print(
                "dpfedsim: no controllable BLAS found; output bytes may depend "
                "on the BLAS thread count",
                file=sys.stderr,
            )
        worker = Worker()
        try:
            yield pinned, worker
        finally:
            worker.close()


def _halves(worker: Worker, fn: Callable[[range], None], n: int) -> None:
    """Run fn(range(h)) here and fn(range(h, n)) on the worker, in a copy of
    this thread's context, h = ceil(n / 2).  Both halves have ended when this
    returns or raises, and if both fail the lower half's error is raised."""
    h = (n + 1) // 2
    upper = worker.submit(contextvars.copy_context().run, fn, range(h, n))
    try:
        fn(range(h))
    finally:
        upper.exception()  # wait: the upper half must not outlive the call
    upper.result()


def _finite(v: np.ndarray) -> bool:
    """Whether every entry of the non-empty v is finite, read from its min
    and max (NaN propagates through both), with no mask of v's length."""
    return math.isfinite(v.min()) and math.isfinite(v.max())


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
    batch over B, the configured batch_size.

    Per step: draw a minibatch of the rows, clip each per-sample gradient on
    its float64 features to C and sum, add sigma C z with z drawn from
    ``noise_rng`` (nothing is drawn at sigma = 0), divide by B, a public
    constant whatever the batch drawn, and step the local model.  An empty
    Poisson draw releases its step too.  The upload is the mean of the K
    step vectors.  After the divide, dp_fedprox with prox_mu != 0 adds the
    pull prox_mu * (w_local - w_start) from the second step on (at the
    first it is zero), and dp_scaffold adds server - client, from
    ``scaffold_variates`` = (server, client).  Neither is clipped: neither
    reads a sample of the step, and w_local is made of the client's earlier
    releases.  A non-finite per-sample gradient norm or step vector raises
    ValueError.

    A step vector is built where the kernel writes its clipped sum: the
    upload row at the first step, the later-step vector after.  z is drawn,
    scaled and added a block at a time (``linalg.blocks``) through one
    64 KiB buffer, as are the pull and the scaffold shift: clipped sum +
    z sigma C has the bytes of z sigma C + clipped sum, and blocks drawn in
    order read the stream's normals in order.  Every D-vector is allocated
    before the first step.
    """
    dim = start_params.shape[0]
    prox = cfg.algorithm == "dp_fedprox" and cfg.prox_mu != 0
    if cfg.local_steps > 1:
        later = np.empty(dim)  # steps 2..K, each added into the upload
        w_local = start_params.copy()  # start_params is never written
    else:
        later, w_local = None, start_params
    tmp = block(dim)
    loss_total = 0.0

    for k in range(cfg.local_steps):
        idx = poisson_sample(rows.size, cfg.batch_size, cfg.sampling_mode, batch_rng)
        batch = rows[idx]
        noisy = later if k else upload
        losses, sq_norms, _ = model_mod.clipped_gradient_sum(
            model_spec,
            w_local,
            features(train.X[batch]),
            train.y[batch],
            cfg.clip_threshold,
            out=noisy,
        )
        if cfg.sigma != 0:
            for lo, z in blocks(tmp, dim):
                noise_rng.standard_normal(out=z)
                z *= cfg.sigma * cfg.clip_threshold
                noisy[lo : lo + z.size] += z
        noisy /= cfg.batch_size
        if prox and k:
            for lo, t in blocks(tmp, dim):
                s = slice(lo, lo + t.size)
                np.subtract(w_local[s], start_params[s], out=t)
                t *= cfg.prox_mu
                noisy[s] += t
        if scaffold_variates is not None:
            server, client = scaffold_variates
            for lo, t in blocks(tmp, dim):
                s = slice(lo, lo + t.size)
                noisy[s] += np.subtract(server[s], client[s], out=t)
        if not (np.isfinite(sq_norms).all() and _finite(noisy)):
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
    w: ParamVector, aggregated: ParamVector, cfg: ExperimentConfig
) -> ParamVector:
    """The new weights w - eta * aggregate, written into the aggregate and
    returned; w is left untouched and must not be the aggregate."""
    aggregated *= -cfg.eta
    aggregated += w  # w + (-eta * aggregate)
    return aggregated


def _evaluate(
    state: ExperimentState, uploads: np.ndarray, worker: Worker
) -> tuple[float, float, float]:
    """(accuracy, macro recall, macro F1) of the global weights, from one
    pass over the test set's row chunks split between the worker and this
    thread (``_halves``), each chunk's float32 features built once in the
    round's spent uploads U.  Chunks have min(_EVAL_ROWS, rows U holds // 2)
    rows, and a half builds each in turn in its own half of those rows.
    Both halves read one cast of the weights, made on this thread before
    them.  Weights not finite once cast, or logits they overflow, raise
    ValueError."""
    spec, levels = state.model_spec, state.test_X
    n, d = levels.shape
    room = uploads.reshape(-1).view(_EVAL_DTYPE)
    rows = min(_EVAL_ROWS, room.size // (2 * d))
    starts = range(0, n, rows)
    preds = np.empty(n, dtype=np.int64)
    # made here: a cast made on the worker, or an isfinite mask, raised peak RSS
    w_eval = state.weights.astype(_EVAL_DTYPE)
    if not _finite(w_eval):
        raise ValueError(f"weights not finite in {w_eval.dtype}")

    def predict(chunks: range) -> None:
        upper = int(chunks.start > 0)
        at = upper * rows * d
        for lo in starts[chunks.start : chunks.stop]:
            c = slice(lo, lo + rows)
            x = room[at : at + levels[c].size].reshape(-1, d)
            features_into(levels[c], x)
            preds[c] = model_mod.predict(spec, w_eval, x)

    _halves(worker, predict, len(starts))
    return metrics_mod.scores(
        metrics_mod.accumulate(preds, state.test_y, spec.num_classes)
    )


def weights_sha256(state: ExperimentState) -> str:
    """SHA-256 over the float64 bytes of the global weights: a fingerprint of
    every weight byte, where the test metrics see only the predictions."""
    return hashlib.sha256(state.weights).hexdigest()


def _select_participants(state: ExperimentState, round_index: int) -> list[int]:
    """The round's client ids, ascending."""
    n = len(state.shards)
    k = state.cfg.clients_per_round
    if k == 0 or k >= n:
        return list(range(n))
    rng = derive_rng(state.seed, round_index, 0, Stream.SELECT)
    return sorted(int(i) for i in rng.choice(n, size=k, replace=False))


@np.errstate(over="ignore", invalid="ignore")
def run_round(
    state: ExperimentState, round_index: int, worker: Worker
) -> RoundMetrics:
    """Advance the experiment by one round on the command's worker, mutating
    state in place, and return the round's record."""
    t0 = time.perf_counter()
    cfg = state.cfg
    participants = _select_participants(state, round_index)

    # a new U each round: freeing it lifts glibc's mmap and trim
    # thresholds above a D-vector, so the clients' workspaces keep their pages
    uploads = np.empty((len(participants), state.weights.shape[0]))
    losses = np.empty(len(participants))

    def run_clients(part: range) -> None:
        for p in part:
            cid = participants[p]
            variates = None
            if cfg.algorithm == "dp_scaffold":
                scaffold = state.scaffold
                variates = (scaffold.server_variate, scaffold.client_variates[cid])
            try:
                losses[p] = client_local_phase(
                    state.train,
                    state.shards[cid],
                    state.weights,
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
    try:
        alpha = [1.0 / len(participants)] * len(participants)
        if cfg.algorithm == "gcfl" and len(participants) > 1:
            alpha, report = plan_round(
                uploads, alpha, cfg.correction_mode, cfg.num_references,
                derive_rng(state.seed, round_index, 0, Stream.CORRECTION),
            )
        aggregated = weighted_sum(uploads, alpha)
        # the new weights are written into the aggregate, the round's one
        # server-side D-vector
        state.weights = server_step(state.weights, aggregated, cfg)

        if cfg.algorithm == "dp_scaffold":
            # option II, c_i - c + (start - w_K) / (K eta), is c_i - c + the
            # upload; the server variate moves by (1 / n) sum of every
            # participant's new - old, summed in row order.  A block at a
            # time, row p, read for the last time here, takes new - old and
            # the variate takes new in place
            scaffold = state.scaffold
            c, dim = scaffold.server_variate, state.weights.shape[0]
            tmp = block(dim)
            for p, cid in enumerate(participants):
                variate, row = scaffold.client_variates[cid], uploads[p]
                for lo, new in blocks(tmp, dim):
                    s = slice(lo, lo + new.size)
                    np.subtract(variate[s], c[s], out=new)
                    new += row[s]
                    np.subtract(new, variate[s], out=row[s])
                    variate[s] = new
            move = weighted_sum(uploads, [1.0 / cfg.n_clients] * len(participants))
            move += scaffold.server_variate
            scaffold.server_variate = move

        # metrics; U is read for the last time above, and evaluation builds
        # the test features in it
        train_loss = float(np.mean(losses))
        acc, rec, f1 = _evaluate(state, uploads, worker)
    except ValueError as exc:
        raise ValueError(f"round {round_index}: {exc}") from None

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
    holds the rows shards[i] of train, evaluated on the test set's uint8
    levels test_X and labels test_y; the state holds the arrays as given."""
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
    if cfg.algorithm == "dp_scaffold":
        dim = w.shape[0]
        state.scaffold = ScaffoldState(np.zeros(dim), [np.zeros(dim) for _ in shards])
    return state


def run_experiment(state: ExperimentState, worker: Worker) -> list[RoundMetrics]:
    """Run the configured rounds on the command's worker and return their
    records; the run stops early, with fewer than cfg.rounds records, before
    a round that could cross the epsilon budget."""
    return [run_round(state, t, worker) for t in range(state.cfg.rounds_run())]

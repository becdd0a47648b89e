import copy
import json
import math
import platform
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import dpfedsim.cli as cli
import dpfedsim.federation as federation
from dpfedsim import linalg
from dpfedsim.config import ExperimentConfig
from dpfedsim.correction import (
    CORRECTION_MODES,
    plan_round,
    resolve_num_references,
    select_references,
)
from dpfedsim.data import Dataset, features, partition_iid
from dpfedsim.dp import SAMPLING_MODES, epsilon_spent, poisson_sample
from dpfedsim.federation import (
    ALGORITHMS,
    Stream,
    client_local_phase,
    derive_rng,
    init_state,
    server_step,
)
from dpfedsim.linalg import weighted_sum
from dpfedsim.metrics import accumulate
from dpfedsim.metrics import scores as metric_scores
from dpfedsim.model import MlpSpec, init_params, predict
from oracle import (
    U,
    aggregate,
    child_env,
    correct_round,
    gamma,
    loss_and_gradient,
    noisy_batch_gradient,
    run_all_rounds,
    run_one_round,
    scale_add,
    stack,
    synthetic_blobs,
)

# make_state's data set has 60 training examples, so a batch of 60 takes the
# whole shard at every step, under both sampling modes
FULL_BATCH = 60


def make_state(
    algorithm="gcfl",
    n_clients=2,
    rounds=3,
    sigma=0.5,
    seed=1,
    local_steps=1,
    batch_size=8,
    prox_mu=0.01,
    clients_per_round=0,
    sampling_mode="fixed_size",
    epsilon_budget=0.0,
    clip_threshold=1.5,
    test_per_class=5,
):
    """A 6-5-3 run on 60 train examples and test_per_class test examples
    per class, whose uint8 levels the state holds."""
    rng = np.random.default_rng
    ds = synthetic_blobs(num_classes=3, per_class=20, dim=6, spread=0.2, rng=rng(seed))
    test = synthetic_blobs(
        num_classes=3, per_class=test_per_class, dim=6, spread=0.2, rng=rng(seed + 1)
    )
    shards = partition_iid(ds, n_clients, rng(seed + 2))
    spec = MlpSpec((6, 5, 3))
    cfg = ExperimentConfig(
        sigma=sigma,
        sampling_mode=sampling_mode,
        batch_size=batch_size,
        n_clients=n_clients,
        clients_per_round=clients_per_round,
        rounds=rounds,
        local_steps=local_steps,
        eta=0.05,
        algorithm=algorithm,
        prox_mu=prox_mu,
        record_timing=False,
        epsilon_budget=epsilon_budget,
        clip_threshold=clip_threshold,
    )
    return init_state(spec, cfg, seed, ds, shards, test.X, test.y)


def client_of(state, rows):
    """The id of the client whose shard is rows: its position in state.shards."""
    return next(cid for cid, shard in enumerate(state.shards) if shard is rows)


def poison_first_example(state, cid, bad_value):
    """Swap the train set for a stand-in whose X holds float64 levels, client
    cid's first row at bad_value * 255, so the float features its kernel
    receives (level / 255) hold bad_value there; a uint8 Dataset cannot
    hold NaN or 1e200.  The shards are disjoint, so only client cid reads
    that row."""
    X = state.train.X.astype(np.float64)
    X[state.shards[cid][0]] = bad_value * 255.0
    state.train = SimpleNamespace(X=X, y=state.train.y)


def test_local_phase_exact_batch_gradient_when_noise_free():
    state = make_state(sigma=0.0, batch_size=FULL_BATCH)
    train, shard = state.train, state.shards[0]
    cfg = replace(state.cfg, clip_threshold=1e9, sigma=0.0, batch_size=FULL_BATCH)
    upload = np.zeros_like(state.weights)
    client_local_phase(
        train,
        shard,
        state.weights,
        state.model_spec,
        cfg,
        derive_rng(0, 0, 0, Stream.BATCH),
        derive_rng(0, 0, 0, Stream.NOISE),
        upload,
    )
    total = np.zeros_like(state.weights)
    for i in shard:
        total = total + loss_and_gradient(
            state.model_spec,
            state.weights,
            features(train.X[i]),
            train.y[i],
        )[1]
    # the whole shard of 30 is the batch, and the divisor is the configured
    # batch_size of 60, a public constant, not the shard size
    assert shard.size < cfg.batch_size
    np.testing.assert_allclose(upload, total / cfg.batch_size, rtol=0, atol=1e-12)


@pytest.mark.parametrize("local_steps", [1, 3])
def test_prox_mu_zero_is_bitwise_fedavg(local_steps):
    s_avg = make_state(
        algorithm="dp_fedavg", sigma=0.4, rounds=4, local_steps=local_steps
    )
    s_prox = make_state(
        algorithm="dp_fedprox", sigma=0.4, rounds=4, local_steps=local_steps,
        prox_mu=0.0,
    )
    r_avg = run_all_rounds(s_avg)
    r_prox = run_all_rounds(s_prox)
    np.testing.assert_array_equal(s_avg.weights, s_prox.weights)
    for a, b in zip(r_avg, r_prox):
        assert a.train_loss == b.train_loss
        assert a.test_accuracy == b.test_accuracy


def test_prox_term_changes_trajectory_when_positive():
    s_avg = make_state(algorithm="dp_fedavg", sigma=0.0, rounds=3, local_steps=4)
    s_prox = make_state(
        algorithm="dp_fedprox", sigma=0.0, rounds=3, local_steps=4, prox_mu=5.0
    )
    run_all_rounds(s_avg)
    run_all_rounds(s_prox)
    assert not np.array_equal(s_avg.weights, s_prox.weights)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_server_step_writes_w_minus_eta_aggregate_into_the_aggregate(algorithm):
    """Every algorithm takes the same server step."""
    cfg = ExperimentConfig(algorithm=algorithm, eta=0.1)
    w = np.array([0.3, -1.7, 2.5e-3, 4.0])
    agg = np.array([0.5, -1.0, 2.0, -3.3e-2])
    w_before, want = w.copy(), w + (-0.1 * agg)
    out = server_step(w, agg, cfg)
    assert out is agg
    assert out.tobytes() == want.tobytes()
    assert w.tobytes() == w_before.tobytes()


def test_aggregate_is_the_weighted_sum():
    grads = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 2.0])}
    out = aggregate(grads, {0: 0.25, 1: 0.75})
    np.testing.assert_allclose(out, [0.25, 1.5])


def test_unequal_shards_weigh_one_over_p(monkeypatch):
    """Shards of 30, 18 and 12 examples: each upload weighs 1 / 3, not its
    private shard size's share, byte for byte."""
    # full noise-free batches, so each upload is a deterministic batch mean
    base = make_state(
        algorithm="dp_fedavg", sigma=0.0, n_clients=3, batch_size=FULL_BATCH
    )
    train = base.train
    parts = np.split(np.arange(train.size), [30, 48])
    state = init_state(
        base.model_spec, base.cfg, base.seed, train, parts, base.test_X, base.test_y
    )
    w0, uploads, _, _ = _capture_round_zero(monkeypatch, state)
    rows, _ = stack(uploads)
    want = server_step(w0, weighted_sum(rows, [1.0 / 3] * 3), state.cfg)
    assert state.weights.tobytes() == want.tobytes()
    by_size = [p.size / train.size for p in parts]
    sized = server_step(w0, weighted_sum(rows, by_size), state.cfg)
    assert np.abs(state.weights - sized).max() > 1e-6


def _local_batch_sizes(monkeypatch, shard_size, batch_size, mode, steps):
    """Run client_local_phase on a shard of shard_size examples and return
    the index arrays it drew and the number of samples each step trained on."""
    train = synthetic_blobs(7, 7, 6, 0.2, np.random.default_rng(2))
    spec = MlpSpec((6, 5, 7))
    drawn, trained = [], []

    def record_sample(*args):
        drawn.append(poisson_sample(*args))
        return drawn[-1]

    real_kernel = federation.model_mod.clipped_gradient_sum

    def record_kernel(spec, w, features, labels, *args, **kwargs):
        trained.append(len(labels))
        return real_kernel(spec, w, features, labels, *args, **kwargs)

    monkeypatch.setattr(federation, "poisson_sample", record_sample)
    monkeypatch.setattr(federation.model_mod, "clipped_gradient_sum", record_kernel)
    client_local_phase(
        train,
        np.arange(shard_size),
        np.zeros(spec.num_params),
        spec,
        ExperimentConfig(
            sigma=0.5,
            sampling_mode=mode,
            batch_size=batch_size,
            local_steps=steps,
            eta=0.05,
        ),
        derive_rng(3, 0, 0, Stream.BATCH),
        derive_rng(3, 0, 0, Stream.NOISE),
        np.zeros(spec.num_params),
    )
    return drawn, trained


def test_batch_size_is_exact_for_fixed_size_and_expected_for_poisson(monkeypatch):
    # 8 / 49 * 49 rounds down to 7: the batch must not go through a rate
    _, trained = _local_batch_sizes(monkeypatch, 49, 8, "fixed_size", steps=6)
    assert trained == [8] * 6
    # a batch larger than the shard takes all of it
    _, trained = _local_batch_sizes(monkeypatch, 49, 64, "fixed_size", steps=6)
    assert trained == [49] * 6
    # poisson keeps each example with probability batch_size / shard size
    drawn, trained = _local_batch_sizes(monkeypatch, 49, 8, "poisson", steps=20)
    rng = derive_rng(3, 0, 0, Stream.BATCH)
    expected = [np.flatnonzero(rng.random(49) < 8 / 49) for _ in range(20)]
    assert len(drawn) == 20
    for got, want in zip(drawn, expected):
        np.testing.assert_array_equal(got, want)
    assert trained == [e.size for e in expected]
    # an empty draw runs the kernel on 0 samples: every step releases
    drawn, trained = _local_batch_sizes(monkeypatch, 49, 1, "poisson", steps=6)
    assert 0 in trained and trained == [d.size for d in drawn]


@pytest.mark.parametrize("bad_value", [np.nan, 1e200])
def test_non_finite_gradient_norm_stops_the_round_naming_client_and_round(bad_value):
    # NaN propagates to the upload; 1e200 is finite, but its squared gradient
    # norm overflows and would silently clip that sample to zero
    state = make_state(batch_size=FULL_BATCH)  # the bad row is always drawn
    poison_first_example(state, 1, bad_value)
    with pytest.raises(ValueError, match=r"round 0, client 1: non-finite"):
        run_one_round(state, 0)


def test_non_finite_step_gradient_stops_the_round():
    # finite norms, but sigma * C overflows, so the step gradient is infinite
    state = make_state(sigma=1e150, clip_threshold=1e160)
    with pytest.raises(ValueError, match=r"round 0, client 0: non-finite"):
        run_one_round(state, 0)


def test_scaffold_server_variate_is_mean_of_clients():
    state = make_state(algorithm="dp_scaffold", sigma=0.3, rounds=5, local_steps=3)
    result = run_all_rounds(state)
    assert len(result) == 5
    variates = state.scaffold.client_variates
    mean = sum(variates) / len(variates)
    np.testing.assert_allclose(state.scaffold.server_variate, mean, rtol=0, atol=1e-12)
    assert any(np.linalg.norm(v) > 0 for v in variates)


def test_scaffold_initial_state_zeros():
    st = make_state(algorithm="dp_scaffold", n_clients=3).scaffold
    dim = st.server_variate.shape[0]
    np.testing.assert_array_equal(st.server_variate, np.zeros(dim))
    assert len(st.client_variates) == 3
    assert all(np.array_equal(v, np.zeros(dim)) for v in st.client_variates)
    assert len({id(v) for v in st.client_variates}) == 3  # one vector each


def test_run_experiment_deterministic_bitwise():
    a = make_state(sigma=0.7, rounds=4, seed=5)
    b = make_state(sigma=0.7, rounds=4, seed=5)
    ra = run_all_rounds(a)
    rb = run_all_rounds(b)
    np.testing.assert_array_equal(a.weights, b.weights)
    for x, y in zip(ra, rb):
        assert x == y


def test_ledger_advances_by_local_steps_per_round():
    state = make_state(sigma=0.5, rounds=4, local_steps=3)
    res = run_all_rounds(state)
    cfg = state.cfg
    charged = cfg.sigma / 2  # fixed_size: sensitivity 2C
    want = [epsilon_spent((t + 1) * 3, charged, cfg.delta)[0] for t in range(4)]
    assert [r.epsilon_spent for r in res] == want


def test_epsilon_monotone_and_inf_when_noise_free():
    noisy = make_state(sigma=0.5, rounds=4)
    res = run_all_rounds(noisy)
    eps = [r.epsilon_spent for r in res]
    assert all(b > a for a, b in zip(eps, eps[1:]))
    silent = make_state(sigma=0.0, rounds=2)
    res0 = run_all_rounds(silent)
    assert all(math.isinf(r.epsilon_spent) for r in res0)


def test_gcfl_reports_correction_and_others_dont():
    g = make_state(algorithm="gcfl", sigma=1.5, rounds=2, seed=3)
    report = run_one_round(g, 0).correction
    assert report != {}
    assert report["cosine_evaluations"] == 1  # N=2, M=1
    f = make_state(algorithm="dp_fedavg", sigma=1.5, rounds=2, seed=3)
    report_f = run_one_round(f, 0).correction
    assert report_f == {}


def test_partial_participation_selects_subset_deterministically():
    state = make_state(n_clients=5, clients_per_round=2, sigma=0.4, rounds=6, seed=4)
    result = run_all_rounds(state)
    assert len(result) == 6
    state2 = make_state(n_clients=5, clients_per_round=2, sigma=0.4, rounds=6, seed=4)
    result2 = run_all_rounds(state2)
    for a, b in zip(result, result2):
        assert a == b


@pytest.mark.parametrize("mode", CORRECTION_MODES)
def test_the_summary_names_each_reference_row_by_its_client_id(mode):
    """With 3 of 6 clients a round, rows of U and client ids differ: every
    round's summary names as references participants[p] for each reference
    row p, the rows its correction stream draws first (none when pairwise)."""
    state = make_state(n_clients=6, clients_per_round=3, rounds=6, sigma=2.0)
    state.cfg = replace(state.cfg, correction_mode=mode)
    records = run_all_rounds(state)
    relabelled = 0
    for r, record in enumerate(records):
        ids = federation._select_participants(state, r)
        rows = []
        if mode == "reference":
            m = resolve_num_references(state.cfg.num_references, len(ids))
            rng = derive_rng(state.seed, r, 0, Stream.CORRECTION)
            rows = select_references(len(ids), m, rng)
        assert record.correction["references"] == [ids[p] for p in rows]
        relabelled += rows != [ids[p] for p in rows]
    assert len(records) == 6 and (relabelled > 0) == (mode == "reference")


def test_every_stream_a_run_derives_is_distinct(monkeypatch):
    """SeedSequence pads a name with zeros, so a three-int name is the same
    stream as the four-int name ending in 0.  Every stream of a run with
    both subsamples, partial participation and correction, from its data
    build on, must still have its own state, and the run draws from a
    stream of every purpose."""
    names = []
    real = federation.derive_rng

    def record(*name):
        names.append(name)
        return real(*name)

    monkeypatch.setattr(federation, "derive_rng", record)
    monkeypatch.setattr(cli, "derive_rng", record)
    cfg = ExperimentConfig(
        synthetic_classes=3,
        synthetic_per_class=20,
        synthetic_dim=6,
        layer_sizes=(6, 5, 3),
        subsample_train=45,
        subsample_test=9,
        n_clients=5,
        clients_per_round=4,
        rounds=3,
        record_timing=False,
        seeds=(1,),
    )
    with federation.pinned_worker() as (_, worker):
        list(cli.run_seeds([cfg], worker))
    # init and five data streams, then select, batch + noise, correction
    assert len(names) == 6 + 3 * (1 + 2 * 4 + 1)
    assert {name[3] for name in names} == set(Stream)
    states = {
        tuple(np.random.SeedSequence(name).generate_state(4)) for name in names
    }
    assert len(states) == len(names)


def test_the_initial_weights_do_not_name_client_0s_first_batch(monkeypatch):
    """default_rng(seed) is the stream (seed, 0, 0, 0), client 0's round-0
    batch stream, because SeedSequence pads a name with zeros.  Were the
    initial weights drawn from it, the public initial model would name the
    private rows of client 0's first Poisson batch: row r < n is drawn when
    u_r = (W0[r] + limit) / (2 limit) < B / n, W0 the first layer's weights
    read flat.  On the benchmark shape they must not."""
    n, batch = 312, 32
    spec = MlpSpec((784, 128, 10))
    train = Dataset(np.zeros((n, 784), np.uint8), np.arange(n) % 10, 10)
    cfg = ExperimentConfig(
        algorithm="dp_fedavg", n_clients=1, sampling_mode="poisson",
        batch_size=batch, rounds=1, record_timing=False,
    )
    drawn = []

    def record(*args):
        drawn.append(poisson_sample(*args))
        return drawn[-1]

    monkeypatch.setattr(federation, "poisson_sample", record)
    state = init_state(
        spec, cfg, 1, train, [np.arange(n)], train.X[:10], train.y[:10],
    )
    limit = math.sqrt(6.0 / (784 + 128))
    u = (state.weights[:n] + limit) / (2 * limit)
    run_one_round(state, 0)
    (first,) = drawn
    named = np.flatnonzero(u < batch / n)
    assert first.size > 0 and named.size > 0
    # independent draws share about B * B / n = 3.3 rows
    assert np.intersect1d(first, named).size < first.size // 2


def test_epsilon_budget_stops_early():
    state = make_state(sigma=0.5, rounds=50, epsilon_budget=60.0)
    result = run_all_rounds(state)
    assert 0 < len(result) < 50
    assert result[-1].epsilon_spent <= 60.0
    # one more round would have crossed the budget
    state2 = make_state(sigma=0.5, rounds=len(result) + 1)
    result2 = run_all_rounds(state2)
    assert result2[-1].epsilon_spent > 60.0


def test_federation_config_validation():
    with pytest.raises(ValueError, match="algorithm"):
        ExperimentConfig(algorithm="fedsgd")
    with pytest.raises(ValueError, match="clients_per_round"):
        ExperimentConfig(n_clients=2, clients_per_round=3)
    with pytest.raises(ValueError, match="learning_rate"):
        ExperimentConfig(eta=0.0)
    with pytest.raises(ValueError, match="prox_mu"):
        ExperimentConfig(prox_mu=-1.0)


def _capture_round_zero(monkeypatch, state):
    """Run round 0 and return (start weights, each client's upload, the
    report plan_round returned, and a copy of the correction rng as
    run_round handed it to plan_round); None for both when it was not called.
    The round's record carries that report's summary, or {} without one."""
    uploads, handed, reports = {}, [], []
    real_local, real_plan = federation.client_local_phase, federation.plan_round

    def local(train, rows, *args, **kwargs):
        out = real_local(train, rows, *args, **kwargs)
        uploads[client_of(state, rows)] = args[5].copy()
        return out

    def plan(rows, weights, mode, num_references, rng):
        handed.append(copy.deepcopy(rng))
        out = real_plan(rows, weights, mode, num_references, rng)
        reports.append(out[1])
        return out

    monkeypatch.setattr(federation, "client_local_phase", local)
    monkeypatch.setattr(federation, "plan_round", plan)
    w0 = state.weights
    record = run_one_round(state, 0)
    if not handed:
        assert record.correction == {}
        return w0, uploads, None, None
    assert record.correction == reports[0].summary(sorted(uploads))
    return w0, uploads, reports[0], handed[0]


# each row's share of the weight: the round's own 1 / P, and the unequal
# shard sizes' shares, which plan_round folds as readily
@pytest.mark.parametrize(
    "shares", [(1,) * 6, (5, 10, 7, 8, 15, 15)], ids=["one_over_p", "unequal"]
)
@pytest.mark.parametrize("mode", CORRECTION_MODES)
def test_gcfl_round_matches_aggregating_the_corrected_uploads(
    monkeypatch, mode, shares
):
    """Folding the projections into the row weights w gives
    server_step(aggregate(correct_round(uploads), w)) up to rounding; at
    w = 1 / P the folded update is run_round's new weights byte for byte.

    Both sides compute w0 - eta sum_i w_i (g_i - sum_j c_ij g_j) with the
    same c_ij.  Per coordinate, with A = sum_i w_i (|g_i| + sum_j |c_ij|
    |g_j|), the corrected-vector path (at most N - 1 axpys, then N weighted
    adds) is within gamma_2N A of it, and so is the folded path (alpha_j
    from at most N terms, then N weighted adds).  The server step scales the
    gap by eta and rounds each side once more:
    tol = 4 gamma_{2N+2} eta A + 3 u |w|.
    """
    base = make_state(n_clients=6, sigma=2.0, seed=3)
    parts = np.split(np.arange(base.train.size), [5, 15, 22, 30, 45])  # unequal
    state = init_state(
        base.model_spec, replace(base.cfg, correction_mode=mode), base.seed,
        base.train, parts, base.test_X, base.test_y,
    )
    w0, uploads, report, rng = _capture_round_zero(monkeypatch, state)
    rows, ids = stack(uploads)
    in_rows = [share / sum(shares) for share in shares]
    alpha, _ = plan_round(rows, in_rows, mode, 0, copy.deepcopy(rng))
    folded = weighted_sum(rows, alpha)
    got = server_step(w0, folded, state.cfg)
    if len(set(shares)) == 1:
        assert got.tobytes() == state.weights.tobytes()
    corrected, want_report = correct_round(uploads, mode, 0, rng)
    want = server_step(
        w0, aggregate(corrected, dict(zip(ids, in_rows))), state.cfg
    )

    assert report == want_report and report.projections
    magnitude = sum(in_rows[p] * np.abs(g) for p, g in enumerate(rows)) + sum(
        in_rows[p] * abs(c) * np.abs(rows[q]) for p, q, c in report.projections
    )
    eta = state.cfg.eta
    tol = 4 * gamma(2 * len(uploads) + 2) * eta * magnitude + 3 * U * np.abs(want)
    assert np.all(np.abs(got - want) <= tol)


@pytest.mark.parametrize("mode", CORRECTION_MODES)
def test_gcfl_round_without_projections_is_the_plain_aggregate_bitwise(
    monkeypatch, mode
):
    """With no projection, alpha == w and the update is bit-equal to
    aggregating the untouched uploads, as when correct_round ran."""
    state = make_state(n_clients=4, sigma=0.0, batch_size=FULL_BATCH)
    state.cfg = replace(state.cfg, correction_mode=mode)
    w0, uploads, report, _ = _capture_round_zero(monkeypatch, state)
    assert report.cosines and report.projections == []
    weights = {cid: 1.0 / len(uploads) for cid in uploads}
    want = server_step(w0, aggregate(uploads, weights), state.cfg)
    assert state.weights.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "algorithm, clients_per_round",
    [(a, 0) for a in ALGORITHMS if a != "gcfl"] + [("gcfl", 1)],
)
def test_uncorrected_round_aggregates_the_raw_uploads_bitwise(
    monkeypatch, algorithm, clients_per_round
):
    state = make_state(
        algorithm=algorithm, n_clients=4, sigma=1.0,
        clients_per_round=clients_per_round,
    )
    w0, uploads, report, rng = _capture_round_zero(monkeypatch, state)
    assert report is None and rng is None
    weights = {cid: 1.0 / len(uploads) for cid in uploads}
    want = server_step(w0, aggregate(uploads, weights), state.cfg)
    assert state.weights.tobytes() == want.tobytes()


class InlineExecutor(federation.Worker):
    """Runs each task when it is submitted, on the submitting thread; the
    worker's own thread gets none."""

    def __init__(self):
        super().__init__()
        self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        task = federation._Task(fn, args)
        task.run()
        return task


def _record_round(monkeypatch, state, round_index):
    """Run one round; return each client's start vector, the step vectors
    its local steps took (noisy batch gradient plus any prox pull or
    scaffold shift, the exact bytes client_local_phase stepped by) in step
    order, and a copy of the upload it wrote.

    Every step but the last moves the local model by
    add_scaled(w_local, -eta, step vector), so a spy copies each of those
    vectors there; the last is copied from the ``out`` the kernel last
    wrote, where the step vector is built and which holds it when the
    client returns.  Each client gets its own step list, whichever thread
    runs it."""
    starts, steps, uploads = {}, {}, {}
    current = threading.local()  # the client this thread runs
    real_local, real_add = federation.client_local_phase, federation.add_scaled
    real_kernel = federation.model_mod.clipped_gradient_sum

    def local(train, rows, start_params, *args, **kwargs):
        cid = client_of(state, rows)
        current.steps = steps[cid] = []
        try:
            out = real_local(train, rows, start_params, *args, **kwargs)
        finally:
            current.steps = None
        steps[cid].append(current.out.copy())
        starts[cid] = start_params
        uploads[cid] = args[4].copy()  # the upload row
        return out

    def kernel(*args, out):
        current.out = out
        return real_kernel(*args, out=out)

    def add(w, coef, vector):
        if getattr(current, "steps", None) is not None:  # not the server's
            current.steps.append(vector.copy())
        return real_add(w, coef, vector)

    with monkeypatch.context() as patch:
        patch.setattr(federation, "client_local_phase", local)
        patch.setattr(federation.model_mod, "clipped_gradient_sum", kernel)
        patch.setattr(federation, "add_scaled", add)
        run_one_round(state, round_index)
    return starts, steps, uploads


def _sequential_model(start, steps, eta):
    """w_K = start - eta n_1 - ... - eta n_K, one step at a time."""
    w = start
    for n in steps:
        w = scale_add(w, -eta, n)
    return w


# (local_steps, sampling_mode, batch_size); poisson at 2 of 15 examples per
# shard leaves some client with an empty draw in round 1 (asserted below)
LOCAL_PHASES = [(1, "fixed_size", 8), (3, "fixed_size", 8), (3, "poisson", 2)]


def _state_after_round_zero(algorithm, local_steps, sampling_mode, batch_size):
    state = make_state(
        algorithm=algorithm, n_clients=4, sigma=0.5, seed=7,
        local_steps=local_steps, sampling_mode=sampling_mode,
        batch_size=batch_size,
    )
    run_one_round(state, 0)  # round 1 starts from moved weights and variates
    return state


def _empty_draws(state, round_index, cids):
    """How many of these clients' batch draws in the round are empty,
    redrawn from their batch streams."""
    cfg = state.cfg
    empty = 0
    for cid in cids:
        rng = derive_rng(state.seed, round_index, cid, Stream.BATCH)
        size = state.shards[cid].size
        for _ in range(cfg.local_steps):
            idx = poisson_sample(size, cfg.batch_size, cfg.sampling_mode, rng)
            empty += idx.size == 0
    return empty


def _assert_every_step_released(steps, state, round_index):
    """Every client took all local_steps steps, and under poisson some
    client's draw was empty, so that step's release is among them."""
    assert {len(n) for n in steps.values()} == {state.cfg.local_steps}
    if state.cfg.sampling_mode == "poisson":
        assert _empty_draws(state, round_index, steps) > 0


@pytest.mark.parametrize("algorithm", ["dp_fedavg", "dp_fedprox", "dp_scaffold"])
@pytest.mark.parametrize("local_steps, sampling_mode, batch_size", LOCAL_PHASES)
def test_upload_is_the_mean_of_the_step_vectors_bitwise(
    monkeypatch, algorithm, local_steps, sampling_mode, batch_size
):
    """Each upload is (0.0 + n_1 + ... + n_K) / K: the step vectors (the
    prox pull and the scaffold shift included) added in step order to a
    zero row, with no divide at K = 1."""
    state = _state_after_round_zero(algorithm, local_steps, sampling_mode, batch_size)
    _, steps, uploads = _record_round(monkeypatch, state, 1)
    for cid, vectors in steps.items():
        want = np.zeros_like(uploads[cid])
        for n in vectors:
            want = want + n
        if len(vectors) > 1:
            want = want / len(vectors)
        assert uploads[cid].tobytes() == want.tobytes()
    _assert_every_step_released(steps, state, 1)


def _oracle_upload(sums, start, cfg, rng, shift):
    """The mean of the oracle's noisy_batch_gradient steps, each fed the
    clipped sum of a (local model, clipped sum) pair in sums, the
    configured batch_size and rng, which draws each step's whole noise
    vector at once, plus, from the second step on under dp_fedprox, the
    pull prox_mu (w_k - start) of the step's local model w_k, plus the
    scaffold shift (None for none), added in step order to a zero row."""
    prox = cfg.algorithm == "dp_fedprox"
    want = np.zeros_like(start)
    for k, (w, clipped_sum) in enumerate(sums):
        step = noisy_batch_gradient(
            clipped_sum, cfg.batch_size, cfg.clip_threshold, cfg.sigma, rng
        )
        if prox and k:
            step = step + (w - start) * cfg.prox_mu
        if shift is not None:
            step = step + shift
        want = want + step
    if len(sums) > 1:
        want = want / len(sums)
    return want


def _kernel_spy(sums, current, starts):
    """A clipped_gradient_sum that appends a copy of each step's local
    model and clipped sum to sums[current.cid].  Its signature takes no
    shift, and at the first step the local model is bitwise the start."""
    real_kernel = federation.model_mod.clipped_gradient_sum

    def kernel(spec, w, features, labels, clip_threshold, *, out):
        if not sums[current.cid]:
            assert w.tobytes() == starts[current.cid].tobytes()
        result = real_kernel(spec, w, features, labels, clip_threshold, out=out)
        sums[current.cid].append((w.copy(), result[2].copy()))
        return result

    return kernel


@pytest.mark.parametrize("block", [8192, 7], ids=["one-block", "blocks-of-7"])
@pytest.mark.parametrize("algorithm", ["dp_fedavg", "dp_fedprox", "dp_scaffold"])
@pytest.mark.parametrize("local_steps, sampling_mode, batch_size", LOCAL_PHASES)
def test_upload_built_in_blocks_is_the_oracle_fed_from_the_same_stream(
    monkeypatch, algorithm, local_steps, sampling_mode, batch_size, block
):
    """A client's upload, built on whichever thread ran it, is bitwise the
    mean of the oracle's noisy_batch_gradient steps, each fed the step's
    clipped sum (zeros for an empty draw), the configured batch_size and
    the client's own noise stream, plus the prox pull or the scaffold
    shift: the same arithmetic in the same order, though the client draws
    its noise and adds its pull or shift a block at a time and the oracle
    builds each vector at once.  At D = 53, blocks of 7 entries give 7
    whole blocks and one of 4; the default block holds the whole vector.
    The worker always runs its half here, clients 2 and 3."""
    monkeypatch.setattr(linalg, "_BLOCK", block)
    state = _state_after_round_zero(algorithm, local_steps, sampling_mode, batch_size)
    cfg = state.cfg
    dim = state.weights.shape[0]
    assert dim == 53 and federation.block(dim).size == min(block, dim)
    sums, starts, shifts, uploads, ran_on = {}, {}, {}, {}, {}
    current = threading.local()  # the client this thread is running
    real_local = federation.client_local_phase

    def local(train, rows, *args, **kwargs):
        current.cid = cid = client_of(state, rows)
        ran_on[cid] = threading.current_thread().name
        sums[cid] = []
        starts[cid] = args[0]
        variates = kwargs.get("scaffold_variates")
        shifts[cid] = None if variates is None else np.subtract(*variates)
        out = real_local(train, rows, *args, **kwargs)
        uploads[cid] = args[5].copy()
        return out

    kernel = _kernel_spy(sums, current, starts)
    monkeypatch.setattr(federation, "client_local_phase", local)
    monkeypatch.setattr(federation.model_mod, "clipped_gradient_sum", kernel)
    run_one_round(state, 1)
    on_worker = {c for c, name in ran_on.items() if name.startswith("dpfedsim-worker")}
    assert on_worker == {2, 3}
    for cid, steps in sums.items():
        rng = derive_rng(state.seed, 1, cid, Stream.NOISE)
        want = _oracle_upload(steps, starts[cid], cfg, rng, shifts[cid])
        assert uploads[cid].tobytes() == want.tobytes()
    _assert_every_step_released(sums, state, 1)


@pytest.mark.parametrize("algorithm", ["dp_fedavg", "dp_fedprox", "dp_scaffold"])
def test_an_upload_at_the_benchmark_shape_is_the_oracle_over_13_blocks(
    monkeypatch, algorithm
):
    """At 784-128-10 (D = 101,770: 12 blocks of 8,192 entries and one of
    3,466) with 2 local steps, a client's upload is bitwise the oracle's
    mean of noisy_batch_gradient steps fed its clipped sums and its noise
    stream, each noise vector drawn at once, plus the dp_fedprox pull or
    a dp_scaffold shift that differs in every coordinate."""
    state = _benchmark_shape_state(algorithm, 2)
    cfg = replace(state.cfg, local_steps=2, prox_mu=0.01)
    dim = state.weights.shape[0]
    assert dim == 12 * 8192 + 3466 and federation.block(dim).size == 8192
    variates = shift = None
    if algorithm == "dp_scaffold":
        variates = (np.linspace(-1e-3, 1e-3, dim), np.full(dim, 2e-4))
        shift = np.subtract(*variates)
    sums, current = {0: []}, SimpleNamespace(cid=0)
    kernel = _kernel_spy(sums, current, {0: state.weights})
    monkeypatch.setattr(federation.model_mod, "clipped_gradient_sum", kernel)
    upload = np.full(dim, np.nan)
    client_local_phase(
        state.train, state.shards[0], state.weights, state.model_spec, cfg,
        derive_rng(4, 0, 0, Stream.BATCH), derive_rng(4, 0, 0, Stream.NOISE),
        upload, scaffold_variates=variates,
    )
    assert len(sums[0]) == 2
    noise = derive_rng(4, 0, 0, Stream.NOISE)
    want = _oracle_upload(sums[0], state.weights, cfg, noise, shift)
    assert upload.tobytes() == want.tobytes()


@pytest.mark.parametrize("sampling_mode", ["fixed_size", "poisson"])
def test_a_fedprox_upload_is_the_fedavg_upload_plus_half_the_pull(sampling_mode):
    """At K = 2, dp_fedprox and dp_fedavg draw the same batches and noise
    and take the same first step n_1 (the K = 1 upload) to the same
    w_1 = w_0 - eta n_1, so the second step's clipped sum and noise agree
    too, and the fedprox upload is the fedavg one plus the unclipped pull
    p = prox_mu (w_1 - w_0), halved: (n_1 + (n_2 + p)) / 2 against
    (n_1 + n_2) / 2.  p is rounded the same way on both sides, and the
    three additions and the test's subtraction round at most u = 2^-53 of
    2 |a| + 4 |b| + |n_1| apart, for uploads a (fedavg) and b (fedprox):
    within 4 ulps of |n_1| + |a| + |b|."""
    state = make_state(
        algorithm="dp_fedavg", local_steps=2, sampling_mode=sampling_mode,
        prox_mu=0.5,
    )
    w_0, dim = state.weights, state.weights.shape[0]

    def upload(cfg):
        row = np.full(dim, np.nan)
        loss = client_local_phase(
            state.train, state.shards[0], w_0, state.model_spec, cfg,
            derive_rng(1, 0, 0, Stream.BATCH), derive_rng(1, 0, 0, Stream.NOISE), row,
        )
        return loss, row

    n_1 = upload(replace(state.cfg, local_steps=1))[1]
    loss_a, a = upload(state.cfg)
    loss_b, b = upload(replace(state.cfg, algorithm="dp_fedprox"))
    w_1 = w_0 - state.cfg.eta * n_1
    half_pull = (w_1 - w_0) * state.cfg.prox_mu / 2
    tol = 4 * np.spacing(np.abs(n_1) + np.abs(a) + np.abs(b))
    assert loss_a == loss_b
    assert np.all(np.abs((b - a) - half_pull) <= tol)
    assert np.all(np.abs(half_pull) > tol)  # the pull shows in every entry


@pytest.mark.parametrize("algorithm", ["dp_fedavg", "dp_fedprox", "dp_scaffold"])
@pytest.mark.parametrize("sigma", [0.0, 0.5])
@pytest.mark.parametrize(
    "local_steps, sampling_mode, batch_size", [LOCAL_PHASES[0], LOCAL_PHASES[2]]
)
def test_a_reused_upload_row_carries_nothing_into_the_next_client(
    algorithm, sigma, local_steps, sampling_mode, batch_size
):
    """A client writes its row of U without zeroing it first.  Whether the
    row starts as NaN (client 0) or holds the previous client's upload
    (clients 1-3), each client's upload has the bytes it has in a zero
    row."""
    state = make_state(
        algorithm=algorithm, n_clients=4, sigma=sigma, seed=7,
        local_steps=local_steps, sampling_mode=sampling_mode,
        batch_size=batch_size,
    )
    run_one_round(state, 0)  # round 1 starts from moved weights and variates
    dim = state.weights.shape[0]

    def upload_of(cid, row):
        variates = None
        if algorithm == "dp_scaffold":
            scaffold = state.scaffold
            variates = (scaffold.server_variate, scaffold.client_variates[cid])
        loss = client_local_phase(
            state.train, state.shards[cid], state.weights, state.model_spec, state.cfg,
            derive_rng(state.seed, 1, cid, Stream.BATCH),
            derive_rng(state.seed, 1, cid, Stream.NOISE),
            row, scaffold_variates=variates,
        )
        return loss, row.tobytes()

    row = np.full(dim, np.nan)
    for cid in range(4):
        fresh = upload_of(cid, np.zeros(dim))
        assert upload_of(cid, row) == fresh
    if sampling_mode == "poisson":
        assert _empty_draws(state, 1, range(4)) > 0  # an empty draw released


def _no_draw(*args):
    return np.array([], dtype=np.int64)


@pytest.mark.parametrize("algorithm", ["dp_fedavg", "dp_scaffold"])
@pytest.mark.parametrize("local_steps", [1, 3])
def test_a_client_with_only_empty_draws_releases_noise_over_the_batch_size(
    monkeypatch, algorithm, local_steps
):
    """A client whose every Poisson draw is empty still releases each of
    its K steps: it overwrites a NaN row with the mean over K of the
    oracle's noisy_batch_gradient of a zero sum over the configured
    batch_size, fed its own noise stream, plus the scaffold shift, bitwise,
    and its mean step objective is 0."""
    state = make_state(
        algorithm=algorithm, n_clients=2, local_steps=local_steps,
        sampling_mode="poisson",
    )
    monkeypatch.setattr(federation, "poisson_sample", _no_draw)
    dim = state.weights.shape[0]
    row = np.full(dim, np.nan)
    variates = None
    if algorithm == "dp_scaffold":
        variates = (np.ones(dim), np.zeros(dim))  # a shift that would show
    loss = client_local_phase(
        state.train, state.shards[0], state.weights, state.model_spec, state.cfg,
        derive_rng(1, 0, 0, Stream.BATCH), derive_rng(1, 0, 0, Stream.NOISE), row,
        scaffold_variates=variates,
    )
    cfg, rng = state.cfg, derive_rng(1, 0, 0, Stream.NOISE)
    want = np.zeros(dim)
    for _ in range(local_steps):
        step = noisy_batch_gradient(
            np.zeros(dim), cfg.batch_size, cfg.clip_threshold, cfg.sigma, rng
        )
        if variates is not None:
            step = step + np.subtract(*variates)
        want = want + step
    if local_steps > 1:
        want = want / local_steps
    assert loss == 0.0
    assert row.tobytes() == want.tobytes()


def _benchmark_shape_state(algorithm, n_clients, test_per_class=2):
    """A state at the benchmark's 784-128-10 shape (D = 101,770), with 50
    training examples per client and a test set of test_per_class
    examples per class, held as uint8 levels."""
    spec = MlpSpec((784, 128, 10))
    train = synthetic_blobs(10, 5 * n_clients, 784, 0.25, np.random.default_rng(4))
    test = synthetic_blobs(10, test_per_class, 784, 0.25, np.random.default_rng(5))
    cfg = ExperimentConfig(
        algorithm=algorithm, sigma=0.8, batch_size=32, eta=0.05,
        n_clients=n_clients, record_timing=False,
    )
    shards = partition_iid(train, n_clients, np.random.default_rng(6))
    return init_state(spec, cfg, 4, train, shards, test.X, test.y)


def test_an_upload_carries_noise_of_deviation_sigma_c_over_b():
    """A client's upload minus its sigma = 0 twin, which draws the same
    batches, is the noise z sigma C / B.  Over the D = 101,770 coordinates
    its standard deviation is within 1% of sigma C / B; the sample
    deviation's own relative spread is 1 / sqrt(2 D), about 0.22%."""
    state = _benchmark_shape_state("dp_fedavg", 2)
    cfg = state.cfg
    uploads = []
    for sigma in (cfg.sigma, 0.0):
        uploads.append(np.empty(state.weights.shape[0]))
        client_local_phase(
            state.train, state.shards[0], state.weights, state.model_spec,
            replace(cfg, sigma=sigma), derive_rng(4, 0, 0, Stream.BATCH),
            derive_rng(4, 0, 0, Stream.NOISE), uploads[-1],
        )
    noise = uploads[0] - uploads[1]
    assert noise.size >= 10**5
    want = cfg.sigma * cfg.clip_threshold / cfg.batch_size
    assert abs(np.std(noise) / want - 1.0) <= 0.01


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_the_server_step_is_written_into_the_aggregate(monkeypatch, algorithm):
    """From the start of run_round's weighted sum to the end of its server
    step, the traced peak stays under one and a half D-vectors: the
    aggregate, which then takes the new weights, and add_scaled's 64 KiB
    temporary.  A server step that makes -eta * aggregate, or a result
    beside the aggregate, holds two."""
    state = _benchmark_shape_state(algorithm, 2)
    dim = state.weights.shape[0]
    starts, peaks = [], []
    real_sum, real_step = federation.weighted_sum, federation.server_step

    def summed(*args):
        tracemalloc.reset_peak()
        starts.append(tracemalloc.get_traced_memory()[0])
        return real_sum(*args)

    def step(*args, **kwargs):
        out = real_step(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1] - starts[-1])
        return out

    monkeypatch.setattr(federation, "weighted_sum", summed)
    monkeypatch.setattr(federation, "server_step", step)
    tracemalloc.start()
    try:
        run_one_round(state, 0)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 1
    assert peaks[0] < 1.5 * dim * 8, peaks[0] / (dim * 8)


def _fresh_scores(spec, w, X, y):
    """run_round's (accuracy, recall, F1) of the weights w on the float32
    features X, predicted in evaluation's row chunks, w cast to float32."""
    rows = federation._EVAL_ROWS
    w32 = w.astype(np.float32)
    preds = np.concatenate(
        [predict(spec, w32, X[lo : lo + rows]) for lo in range(0, len(X), rows)]
    )
    return metric_scores(accumulate(preds, y, spec.num_classes))


def _chunked_test_state(algorithm, n_clients, hidden=50):
    """(a state, its test set): a 6-hidden-3 net and 2,100 test rows of 6
    features (50 KB as float32), whose uint8 levels the state holds.
    Evaluation streams the features through the uploads U in chunks of
    min(1,024, rows U holds // 2) rows.  At hidden 50 (D = 503) the U of 2
    clients (8 KB) holds 335 rows, so chunks have 167, and that of 16 (64
    KB) holds the whole matrix, so chunks have 1,024.  At hidden 1 (D =
    13) the U of 1 client holds 4 rows, 2 for each half.  The step size
    and noise let the models tell classes apart within 3 rounds, so the
    scores depend on the features."""
    rng = np.random.default_rng
    spec = MlpSpec((6, hidden, 3))
    train = synthetic_blobs(3, 32, 6, 0.3, rng(7))
    test = synthetic_blobs(3, 700, 6, 0.3, rng(8))
    cfg = ExperimentConfig(
        algorithm=algorithm, n_clients=n_clients, rounds=3, local_steps=4,
        batch_size=16, eta=1.0, sigma=0.1, record_timing=False,
    )
    shards = partition_iid(train, n_clients, rng(9))
    return init_state(spec, cfg, 3, train, shards, test.X, test.y), test


_ROOMS = pytest.mark.parametrize(
    "n_clients, hidden",
    [(2, 50), (16, 50), (1, 1)],
    ids=["167-row-chunks", "1024-row-chunks", "smallest-room"],
)


@_ROOMS
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_each_rounds_scores_are_those_of_freshly_built_features(
    monkeypatch, algorithm, n_clients, hidden
):
    """Whatever the room in the uploads, every round's accuracy, recall
    and F1 equal those of the round's global weights on float32 features
    built afresh from the test levels (``_chunked_test_state``).
    Evaluation builds the features in the spent uploads, after dp_scaffold
    has written new - old into the rows.  Some round's model predicts more
    than one class, so features other than the test set's would move the
    scores.  The run holds the levels alone, unchanged."""
    state, test = _chunked_test_state(algorithm, n_clients, hidden)
    test_X = state.test_X
    assert test_X.dtype == np.uint8
    fresh = features(test.X).astype(np.float32)
    got, want, classes = [], [], []
    real_round = federation.run_round

    def scored(state, round_index, worker):
        record = real_round(state, round_index, worker)
        got.append(
            (record.test_accuracy, record.test_macro_recall, record.test_macro_f1)
        )
        w = state.weights
        want.append(_fresh_scores(state.model_spec, w, fresh, test.y))
        labels = predict(state.model_spec, w.astype(np.float32), fresh)
        classes.append(np.unique(labels).size)
        return record

    monkeypatch.setattr(federation, "run_round", scored)
    run_all_rounds(state)
    assert len(got) == 3
    assert got == want
    assert max(classes) > 1
    assert state.test_X is test_X
    assert test_X.tobytes() == test.X.tobytes()


@_ROOMS
def test_the_halves_of_an_evaluation_convert_into_disjoint_parts_of_the_uploads(
    monkeypatch, n_clients, hidden
):
    """The two halves of evaluation's ``_halves`` pass, which may run at
    once, convert their chunks only into the round's uploads U, and never
    into the same bytes of U: whichever thread runs a half, every byte
    span the lower half converts into is disjoint from every span of the
    upper half's.  Each half converts at least one chunk.  The halves are
    told apart by the chunks they are given, not by the thread that runs
    them, so the check holds under any timing."""
    state, _ = _chunked_test_state("gcfl", n_clients, hidden)
    half = threading.local()
    evals = []
    real_evaluate, real_halves = federation._evaluate, federation._halves
    real_into = federation.features_into

    def span(a):
        lo = a.__array_interface__["data"][0]
        return lo, lo + a.nbytes

    def evaluate(state, uploads, *args):
        evals.append((span(uploads), (set(), set())))
        return real_evaluate(state, uploads, *args)

    def halves(worker, fn, n):
        def marked(chunks):
            half.upper = int(chunks.start > 0)
            return fn(chunks)

        return real_halves(worker, marked, n)

    def into(levels, out):
        evals[-1][1][half.upper].add(span(out))
        return real_into(levels, out)

    monkeypatch.setattr(federation, "_evaluate", evaluate)
    monkeypatch.setattr(federation, "_halves", halves)
    monkeypatch.setattr(federation, "features_into", into)
    assert len(run_all_rounds(state)) == 3
    assert len(evals) == 3
    for (u_lo, u_hi), (lower, upper) in evals:
        assert lower and upper
        assert all(u_lo <= lo < hi <= u_hi for lo, hi in lower | upper)
        for a_lo, a_hi in lower:
            assert all(a_hi <= b_lo or b_hi <= a_lo for b_lo, b_hi in upper)


@pytest.mark.parametrize("n_clients, chunks", [(16, 3), (24, 3), (2, 13)])
def test_a_round_evaluates_in_one_pass_that_converts_each_chunk_once(
    monkeypatch, n_clients, chunks
):
    """Each round runs two ``_halves`` passes, its clients' and
    evaluation's, and ``features_into`` once per test chunk: 3 chunks of
    1,024 rows where the uploads hold two such chunks, and where they do
    not, as at 2 clients (2,012 floats, 335 rows), 13 chunks of 167 rows."""
    state, _ = _chunked_test_state("gcfl", n_clients)
    calls = {"_halves": 0, "features_into": 0}
    for name in calls:
        real = getattr(federation, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(federation, name, counted)
    assert len(run_all_rounds(state)) == 3
    assert calls == {"_halves": 2 * 3, "features_into": chunks * 3}


@pytest.mark.parametrize("n_clients", [8, 2])
def test_an_evaluation_in_the_uploads_allocates_less_than_one_test_matrix(
    monkeypatch, n_clients
):
    """From the start of evaluation, which builds the features in the
    spent uploads, to its end, the traced peak stays under one float32
    test matrix (2,000 x 784, 6.3 MB), and under what one float32 cast of
    the weights, which both halves read, and a chunk on each half hold:
    per chunk row, its 128 hidden and 10 logit float32 entries, 10 finite
    flags and an int64 prediction, plus the (2,000,) int64 predictions
    and 64 KiB for small objects.  The uploads of 8 clients at D =
    101,770 (6.5 MB) hold the whole matrix, so evaluation streams it in
    two chunks of 1,024 rows; those of 2 (1.6 MB), the benchmark's n2
    shape, hold 519 rows, so it streams chunks of 259.  Either way the
    state holds the uint8 levels alone.  A build that made the features
    beside the uploads holds the whole matrix; a cast per half, at n2,
    goes past the second bound."""
    state = _benchmark_shape_state("dp_fedavg", n_clients, test_per_class=200)
    assert state.test_X.dtype == np.uint8
    n_test, dim = state.test_X.shape[0], state.weights.shape[0]
    matrix = state.test_X.size * 4
    rows = {8: 1024, 2: 259}[n_clients]
    one_cast = dim * 4 + 2 * rows * ((128 + 10) * 4 + 10 + 8) + n_test * 8 + 2**16
    peaks = []
    real_evaluate = federation._evaluate

    def evaluate(*args):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out = real_evaluate(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return out

    monkeypatch.setattr(federation, "_evaluate", evaluate)
    tracemalloc.start()
    try:
        run_one_round(state, 0)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 1
    assert peaks[0] < matrix, peaks[0] / matrix
    assert peaks[0] < one_cast, peaks[0] / one_cast


_FAULTS_CHILD = """
import json, resource, sys, time
import dpfedsim.federation as fed
from dpfedsim.cli import main

class LingeringWorker(fed.Worker):
    # holds each task 5 ms past its end
    def _serve(self):
        while (task := self._tasks.get()) is not None:
            task.run()
            time.sleep(0.005)

if sys.argv[3] == "lingering":
    fed.Worker = LingeringWorker
faults, real = [], fed.run_round
def counted(*args):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    out = real(*args)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return out
fed.run_round = counted
code = main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([code, faults]))
"""


@pytest.mark.parametrize("worker", ["thread", "lingering"])
def test_rounds_after_the_first_two_take_few_page_faults(tmp_path, worker):
    """Rounds 2-5 of a 784-128-10 dp_fedprox run with 4 local steps, 8 of
    32 clients a round, take fewer than 400 minor page faults in all,
    counted in a child process around each run_round.  Each round frees
    its upload matrix, which glibc mapped; that raises glibc's dynamic
    mmap and trim thresholds above one D-vector, so from then on the
    clients' workspaces come from the heap and keep their pages.  An
    upload matrix held for the run keeps the thresholds low and costs
    thousands of faults in every round.
    A task drops its call once it has run, so the command's worker,
    which holds its last task until the next arrives, keeps nothing of a
    round alive.  The lingering worker holds each task 5 ms past its end,
    as a worker thread descheduled before it drops the task does.  A task
    that kept a round's upload matrix alive into the next round would put
    that round's matrix on fresh pages: over 2,000 faults in rounds 2-5."""
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the mmap and trim thresholds are glibc's")
    cfg = tmp_path / "fedprox.cfg"
    cfg.write_text(
        "synthetic_per_class = 200\nsynthetic_dim = 784\nlayer_sizes = 784,128,10\n"
        "n_clients = 32\nclients_per_round = 8\nlocal_steps = 4\n"
        "sampling_mode = poisson\nalgorithm = dp_fedprox\nrounds = 6\nseeds = 1\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", _FAULTS_CHILD, str(cfg), str(tmp_path / "o"), worker],
        env=child_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    code, faults = json.loads(done.stdout.splitlines()[-1])
    assert code == 0 and len(faults) == 6
    assert sum(faults[2:]) < 400, faults


def test_a_scaffold_round_holds_under_one_vector_more_than_fedavg():
    """At D = 101,770 and N = 8, a dp_scaffold round's traced peak is less
    than one D-vector above the same dp_fedavg round's: each client adds
    its shift through its 64 KiB block, and the variate update goes block
    by block through one more, writing each new into the client's variate
    in place and new - old into the upload row it has read for the last
    time.  Each half runs inline, one after the other, so the peaks do not
    hang on how they overlap.  Tracing starts before the state is built,
    so the variates a round replaces count as freed."""
    peaks = {}
    worker = InlineExecutor()
    try:
        for algorithm in ("dp_fedavg", "dp_scaffold"):
            tracemalloc.start()
            try:
                state = _benchmark_shape_state(algorithm, 8)
                federation.run_round(state, 0, worker)  # fills caches
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                federation.run_round(state, 1, worker)
                peaks[algorithm] = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
    finally:
        worker.close()
    dim = state.weights.shape[0]
    extra = peaks["dp_scaffold"] - peaks["dp_fedavg"]
    assert extra < dim * 8, extra / (dim * 8)


@pytest.mark.parametrize("local_steps", [1, 2])
@pytest.mark.parametrize("algorithm", ["dp_fedavg", "dp_fedprox", "dp_scaffold"])
def test_a_client_allocates_its_workspace_and_no_step_vector(algorithm, local_steps):
    """At the benchmark's 784-128-10 shape (D = 101,770), a client's local
    phase, given its upload row and scaffold variates, holds w D-length
    vectors and less than one more at its traced peak.  The workspace is
    w = 2 [K > 1] vectors for every algorithm: the later-step vector and
    the local model.  Every step vector is built where the kernel writes
    its clipped sum, the upload row first; the noise, the prox pull and
    the scaffold shift go in through a 64 KiB block, and no step allocates
    a D-length vector of its own.  At K = 1 the whole phase stays under
    one D-vector."""
    spec = MlpSpec((784, 128, 10))
    dim = spec.num_params
    train = synthetic_blobs(10, 20, 784, 0.25, np.random.default_rng(4))
    cfg = ExperimentConfig(
        algorithm=algorithm, sigma=0.8, batch_size=32, local_steps=local_steps,
        eta=0.05, prox_mu=0.01,
    )
    w = init_params(spec, np.random.default_rng(4))
    row = np.empty(dim)
    variates = None
    if algorithm == "dp_scaffold":
        variates = (np.full(dim, 1e-3), np.zeros(dim))  # a shift of 1e-3

    def local_phase():
        client_local_phase(
            train, np.arange(train.size), w, spec, cfg,
            derive_rng(4, 0, 0, Stream.BATCH), derive_rng(4, 0, 0, Stream.NOISE),
            row, scaffold_variates=variates,
        )

    local_phase()  # first calls may fill numpy's caches
    tracemalloc.start()
    try:
        local_phase()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    workspace = 2 * (local_steps > 1)
    assert workspace * dim * 8 <= peak < (workspace + 1) * dim * 8, peak / (dim * 8)


@pytest.mark.parametrize("local_steps, sampling_mode, batch_size", LOCAL_PHASES)
def test_scaffold_variate_is_option_two_of_the_local_model(
    monkeypatch, local_steps, sampling_mode, batch_size
):
    """dp_scaffold's new variate old - c + upload is SCAFFOLD's option II,
    old - c + (start - w_K) / (K eta), with w_K the sequential local model.

    Per coordinate, with A = sum_k |n_k|, u = 2^-53 and g = sum_k n_k / K:
    the upload is K - 1 additions and a division, within gamma_K A / K of
    g.  The sequential w_K is K + 1 roundings of a sum of K + 1 terms, so
    it is within E_w = gamma_{K+1} (|start| + eta A) of start - eta K g,
    and the subtraction, the product K * eta and
    the division add gamma_3, so the model difference over K eta is within
    ((1 + gamma_3) E_w + gamma_3 eta A) / (K eta) of g.  Both sides then
    add their value to the same rounded old - c, one rounding each:
    tol = gamma_K A / K + ((1 + gamma_3) E_w + gamma_3 eta A) / (K eta)
    + u / (1 - u) (|new| + |want|).
    """
    state = _state_after_round_zero("dp_scaffold", local_steps, sampling_mode, batch_size)
    c = state.scaffold.server_variate
    assert np.all(c != 0)  # round 0 moved it, so a sign slip in c shows
    old = [v.copy() for v in state.scaffold.client_variates]  # updated in place
    starts, steps, _ = _record_round(monkeypatch, state, 1)
    eta = state.cfg.eta
    for cid, start in starts.items():
        new = state.scaffold.client_variates[cid]
        k = len(steps[cid])
        w_k = _sequential_model(start, steps[cid], eta)
        want = old[cid] - c + (start - w_k) / (k * eta)
        a = sum(np.abs(n) for n in steps[cid])
        e_w = gamma(k + 1) * (np.abs(start) + eta * a)
        tol = (
            gamma(k) * a / k
            + ((1 + gamma(3)) * e_w + gamma(3) * eta * a) / (k * eta)
            + U / (1 - U) * (np.abs(new) + np.abs(want))
        )
        assert np.all(np.abs(new - want) <= tol)
    _assert_every_step_released(steps, state, 1)


def test_scaffold_server_variate_adds_every_participants_delta_over_n_bitwise(
    monkeypatch,
):
    """With 4 of 5 clients in the round and the lowest of them drawing only
    empty Poisson batches, the server variate moves to old + weighted_sum of
    all four participants' new - old, each weighted 1 / n_clients, in
    ascending id: the same axpys from zeros in the same order.  The client
    with only empty draws releases noise, and its variate moves to
    old - c + upload like every other."""
    state = make_state(
        algorithm="dp_scaffold", n_clients=5, clients_per_round=4, sigma=0.5,
        seed=7, local_steps=3, sampling_mode="poisson", batch_size=2,
    )
    run_one_round(state, 0)  # variates nonzero from here on
    empty = min(federation._select_participants(state, 1))
    server = state.scaffold.server_variate
    before = [v.copy() for v in state.scaffold.client_variates]  # updated in place
    uploads, current = {}, threading.local()
    real_local, real_sample = federation.client_local_phase, federation.poisson_sample

    def local(train, rows, *args, **kwargs):
        current.cid = cid = client_of(state, rows)
        out = real_local(train, rows, *args, **kwargs)
        uploads[cid] = args[5].copy()
        return out

    def sample(*args):
        idx = real_sample(*args)
        return idx[:0] if current.cid == empty else idx

    monkeypatch.setattr(federation, "client_local_phase", local)
    monkeypatch.setattr(federation, "poisson_sample", sample)
    run_one_round(state, 1)
    participants = sorted(uploads)
    assert len(participants) == 4 and empty in participants
    after = state.scaffold.client_variates
    deltas = [after[cid] - before[cid] for cid in participants]
    want = server + weighted_sum(deltas, [1.0 / state.cfg.n_clients] * len(deltas))
    assert state.scaffold.server_variate.tobytes() == want.tobytes()
    assert np.all(uploads[empty] != 0)
    moved = before[empty] - server
    moved += uploads[empty]
    assert after[empty].tobytes() == moved.tobytes()


def test_a_client_with_only_empty_draws_moves_its_variate_by_its_upload(
    monkeypatch,
):
    """With every Poisson draw of round 1 empty, each participant still
    releases its K steps: dp_scaffold moves each variate to old - c +
    upload, bitwise, and the round reports epsilon after 2K steps."""
    state = _state_after_round_zero("dp_scaffold", 3, "poisson", 2)
    variates = [v.copy() for v in state.scaffold.client_variates]  # updated in place
    server = state.scaffold.server_variate
    uploads = {}
    real_local = federation.client_local_phase

    def local(train, rows, *args, **kwargs):
        out = real_local(train, rows, *args, **kwargs)
        uploads[client_of(state, rows)] = args[5].copy()
        return out

    monkeypatch.setattr(federation, "poisson_sample", _no_draw)
    monkeypatch.setattr(federation, "client_local_phase", local)
    record = run_one_round(state, 1)
    cfg = state.cfg
    steps = 2 * cfg.local_steps
    assert record.epsilon_spent == epsilon_spent(steps, cfg.sigma, cfg.delta)[0]
    assert sorted(uploads) == list(range(cfg.n_clients))
    for cid, upload in uploads.items():
        assert np.all(upload != 0)
        want = variates[cid] - server
        want += upload
        assert state.scaffold.client_variates[cid].tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "test_per_class", [5, 20], ids=["one-chunk", "three-chunks"]
)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_round_keeps_the_dp_step_and_all_it_feeds_in_float64(
    monkeypatch, algorithm, test_per_class
):
    """Evaluation alone runs at half width.  In a round that evaluates on
    float32 test features, as a run does, built from the held uint8 levels
    in the round's spent uploads (3 uploads at D = 53 hold 318 floats, 53
    rows, so chunks have 26), in one chunk (15 test rows) or three (60
    rows), the kernel reads
    float64 features and float64 weights, and the uploads, the global
    weights and the scaffold variates all stay float64."""
    state = make_state(
        algorithm=algorithm, n_clients=3, local_steps=2,
        test_per_class=test_per_class,
    )
    assert state.test_X.dtype == np.uint8
    read, uploads = [], []
    real_kernel = federation.model_mod.clipped_gradient_sum
    real_local = federation.client_local_phase

    def kernel(spec, w, features, *args, **kwargs):
        read.append((w.dtype, features.dtype))
        return real_kernel(spec, w, features, *args, **kwargs)

    def local(*args, **kwargs):
        loss = real_local(*args, **kwargs)
        uploads.append(args[7].dtype)
        return loss

    monkeypatch.setattr(federation.model_mod, "clipped_gradient_sum", kernel)
    monkeypatch.setattr(federation, "client_local_phase", local)
    run_one_round(state, 0)
    f64 = np.dtype(np.float64)
    assert read and set(read) == {(f64, f64)}
    assert uploads == [f64] * 3
    assert state.weights.dtype == f64
    variates = []
    if state.scaffold is not None:
        variates = [state.scaffold.server_variate, *state.scaffold.client_variates]
    assert len(variates) == (4 if algorithm == "dp_scaffold" else 0)
    assert {v.dtype for v in variates} <= {f64}


def _releases(monkeypatch, state, round_index):
    """Run one round; return, by client id, the bytes of its upload and the
    (shard size, batch size, mode) of each of its sampler calls."""
    uploads, draws, current = {}, {}, threading.local()
    real_local, real_sample = federation.client_local_phase, federation.poisson_sample

    def local(train, rows, *args, **kwargs):
        current.cid = cid = client_of(state, rows)
        draws[cid] = []
        out = real_local(train, rows, *args, **kwargs)
        uploads[cid] = args[5].tobytes()
        return out

    def sample(*args):
        draws[current.cid].append(args[:3])
        return real_sample(*args)

    with monkeypatch.context() as patch:
        patch.setattr(federation, "client_local_phase", local)
        patch.setattr(federation, "poisson_sample", sample)
        run_one_round(state, round_index)
    return uploads, draws


@pytest.mark.parametrize("clients_per_round", [0, 3])
@pytest.mark.parametrize("sampling_mode", SAMPLING_MODES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_one_example_more_in_one_shard_moves_that_clients_release_alone(
    monkeypatch, algorithm, sampling_mode, clients_per_round
):
    """The premise of parallel composition, by which a round charges K
    steps: neighbouring datasets differ by one example in one client's
    shard, the other shards fixed, and no other client's release depends
    on that example.  Two round-1 states share their start model and
    scaffold variates and differ by one example, appended to train and to
    client j's shard.  In the round, every other participant's sampler
    gets the same arguments, and its upload and dp_scaffold variate keep
    their bytes; client j's upload and variate change."""
    state = make_state(
        algorithm=algorithm, n_clients=4, clients_per_round=clients_per_round,
        sampling_mode=sampling_mode, local_steps=2, batch_size=4, seed=5,
    )
    run_one_round(state, 0)  # round 1 starts from moved weights and variates
    participants = federation._select_participants(state, 1)
    j = participants[1]
    train = state.train
    neighbour = replace(
        state,
        train=Dataset(
            np.vstack([train.X, np.full((1, train.X.shape[1]), 200, np.uint8)]),
            np.append(train.y, 0),
            train.num_classes,
        ),
        shards=[
            np.append(shard, train.size) if cid == j else shard
            for cid, shard in enumerate(state.shards)
        ],
        weights=state.weights.copy(),
        scaffold=copy.deepcopy(state.scaffold),
    )
    (uploads, draws), (uploads_j, draws_j) = (
        _releases(monkeypatch, s, 1) for s in (state, neighbour)
    )
    assert sorted(uploads) == sorted(uploads_j) == participants
    assert len(participants) == (clients_per_round or 4)
    for cid in participants:
        assert (uploads_j[cid] == uploads[cid]) is (cid != j), cid
        assert (draws_j[cid] == draws[cid]) is (cid != j), cid
        if algorithm == "dp_scaffold":
            a, b = (s.scaffold.client_variates[cid] for s in (state, neighbour))
            assert (a.tobytes() == b.tobytes()) is (cid != j), cid

import copy
import math

import numpy as np
import pytest

import dpfedsim.federation as federation
from dpfedsim.correction import (
    CORRECTION_MODES,
    CorrectionConfig,
    correct_round,
    plan_round,
)
from dpfedsim.data import ClientShard, partition_iid, synthetic_blobs
from dpfedsim.dp import DpConfig, noisy_batch_gradient, poisson_sample
from dpfedsim.federation import (
    ALGORITHMS,
    WEIGHTINGS,
    FederationConfig,
    ScaffoldState,
    aggregate,
    client_local_phase,
    derive_rng,
    init_state,
    run_experiment,
    run_round,
    server_step,
)
from dpfedsim.model import MlpSpec
from oracle import per_sample_gradient


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
    weighting="uniform",
    parallel=False,
    sampling_mode="fixed_size",
    epsilon_budget=0.0,
):
    ds = synthetic_blobs(num_classes=3, per_class=20, dim=6, spread=0.2, seed=seed)
    test = synthetic_blobs(num_classes=3, per_class=5, dim=6, spread=0.2, seed=seed + 1)
    shards = partition_iid(ds, n_clients, seed=seed + 2)
    spec = MlpSpec((6, 5, 3))
    dp_cfg = DpConfig(
        noise_multiplier=sigma,
        sampling_rate=1.0,
        sampling_mode=sampling_mode,
        batch_size=batch_size,
    )
    fed_cfg = FederationConfig(
        n_clients=n_clients,
        clients_per_round=clients_per_round,
        rounds=rounds,
        local_steps=local_steps,
        learning_rate=0.05,
        algorithm=algorithm,
        weighting=weighting,
        prox_mu=prox_mu,
        global_seed=seed,
        parallel_clients=parallel,
        record_timing=False,
        epsilon_budget=epsilon_budget,
    )
    return init_state(spec, dp_cfg, fed_cfg, CorrectionConfig(), shards, test)


def test_local_phase_exact_batch_gradient_when_noise_free():
    state = make_state(sigma=0.0, batch_size=0)  # rate 1.0: full batch
    shard = state.shards[0]
    dp_cfg = DpConfig(
        clip_threshold=1e9, noise_multiplier=0.0, sampling_rate=1.0
    )
    result = client_local_phase(
        shard,
        state.weights,
        state.model_spec,
        dp_cfg,
        state.fed,
        derive_rng(0, 0, 0, 0),
        derive_rng(0, 0, 0, 1),
    )
    assert result.noisy_steps == 1
    total = np.zeros_like(state.weights)
    for i in shard.indices:
        total = total + per_sample_gradient(
            state.model_spec, state.weights, shard.dataset.X[i], shard.dataset.y[i]
        )
    np.testing.assert_allclose(
        result.gradient, total / shard.size, rtol=0, atol=1e-12
    )


def test_local_phase_empty_shard_errors():
    state = make_state()
    with pytest.raises(ValueError, match="empty shard"):
        client_local_phase(
            ClientShard(0, state.shards[0].dataset, []),
            state.weights,
            state.model_spec,
            state.dp,
            state.fed,
            derive_rng(0),
            derive_rng(1),
        )


def test_prox_mu_zero_is_bitwise_fedavg():
    s_avg = make_state(algorithm="dp_fedavg", sigma=0.4, rounds=4)
    s_prox = make_state(algorithm="dp_fedprox", sigma=0.4, rounds=4, prox_mu=0.0)
    r_avg = run_experiment(s_avg)
    r_prox = run_experiment(s_prox)
    np.testing.assert_array_equal(s_avg.weights, s_prox.weights)
    for a, b in zip(r_avg.rounds, r_prox.rounds):
        assert a.train_loss == b.train_loss
        assert a.test_accuracy == b.test_accuracy


def test_prox_term_changes_trajectory_when_positive():
    s_avg = make_state(algorithm="dp_fedavg", sigma=0.0, rounds=3, local_steps=4)
    s_prox = make_state(
        algorithm="dp_fedprox", sigma=0.0, rounds=3, local_steps=4, prox_mu=5.0
    )
    run_experiment(s_avg)
    run_experiment(s_prox)
    assert not np.array_equal(s_avg.weights, s_prox.weights)


def test_fedexp_identical_gradients_reduce_to_plain_step():
    fed = FederationConfig(algorithm="dp_fedexp", learning_rate=0.1)
    g = np.array([0.5, -1.0, 2.0])
    grads = {0: g.copy(), 1: g.copy(), 2: g.copy()}
    w = np.zeros(3)
    agg = aggregate(grads, {i: 1 / 3 for i in range(3)})
    stepped = server_step(w, agg, fed, grads)
    plain = server_step(w, agg, FederationConfig(algorithm="dp_fedavg", learning_rate=0.1))
    np.testing.assert_array_equal(stepped, plain)


def test_fedexp_boosts_step_on_disagreement():
    fed = FederationConfig(algorithm="dp_fedexp", learning_rate=0.1)
    grads = {0: np.array([1.0, 0.0]), 1: np.array([-1.0, 0.001])}
    agg = aggregate(grads, {0: 0.5, 1: 0.5})  # near-cancellation
    w = np.zeros(2)
    stepped = server_step(w, agg, fed, grads)
    plain = w - 0.1 * agg
    # eta_g > eta because sum ||g_i||^2 >> 2n||mean||^2
    assert np.linalg.norm(stepped) > np.linalg.norm(plain)


def test_aggregate_weighted_sum_and_validation():
    grads = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 2.0])}
    out = aggregate(grads, {0: 0.25, 1: 0.75})
    np.testing.assert_allclose(out, [0.25, 1.5])
    with pytest.raises(ValueError, match="same client ids"):
        aggregate(grads, {0: 1.0})
    with pytest.raises(ValueError, match="nonnegative"):
        aggregate(grads, {0: -0.5, 1: 1.5})
    with pytest.raises(ValueError, match="sum"):
        aggregate(grads, {0: 0.6, 1: 0.6})


def test_by_samples_weighting_uses_shard_sizes():
    # full noise-free batches, so each upload is a deterministic batch mean
    base = make_state(
        algorithm="dp_fedavg", weighting="by_samples", sigma=0.0, n_clients=3,
        batch_size=0,
    )
    train = base.shards[0].dataset
    parts = np.split(np.arange(train.size), [30, 48])  # sizes 30, 18, 12
    shards = [ClientShard(i, train, idx) for i, idx in enumerate(parts)]
    state = init_state(
        base.model_spec, base.dp, base.fed, base.correction, shards, base.test
    )
    w0 = state.weights.copy()
    uploads = [
        client_local_phase(
            shard, w0, state.model_spec, state.dp, state.fed,
            derive_rng(0), derive_rng(1),
        ).gradient
        for shard in shards
    ]
    run_round(state, 0)
    by_size = sum(p.size / train.size * g for p, g in zip(parts, uploads))
    uniform = sum(uploads) / 3
    eta = state.fed.learning_rate
    np.testing.assert_allclose(state.weights, w0 - eta * by_size, rtol=0, atol=1e-12)
    assert np.abs(state.weights - (w0 - eta * uniform)).max() > 1e-6


def _local_batch_sizes(monkeypatch, shard_size, batch_size, mode, steps):
    """Run client_local_phase on a shard of shard_size examples and return
    the index arrays it drew and the number of samples each step trained on."""
    train = synthetic_blobs(7, 7, 6, 0.2, seed=2)
    shard = ClientShard(0, train, np.arange(shard_size))
    spec = MlpSpec((6, 5, 7))
    drawn, trained = [], []

    def record_sample(*args):
        drawn.append(poisson_sample(*args))
        return drawn[-1]

    def record_noisy(clipped_sum, batch_size, *args):
        trained.append(batch_size)
        return noisy_batch_gradient(clipped_sum, batch_size, *args)

    monkeypatch.setattr(federation, "poisson_sample", record_sample)
    monkeypatch.setattr(federation, "noisy_batch_gradient", record_noisy)
    client_local_phase(
        shard,
        np.zeros(spec.num_params),
        spec,
        DpConfig(noise_multiplier=0.5, sampling_mode=mode, batch_size=batch_size),
        FederationConfig(local_steps=steps, learning_rate=0.05),
        derive_rng(3, 0),
        derive_rng(3, 1),
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
    rng = derive_rng(3, 0)
    expected = [np.flatnonzero(rng.random(49) < 8 / 49) for _ in range(20)]
    assert len(drawn) == 20
    for got, want in zip(drawn, expected):
        np.testing.assert_array_equal(got, want)
    assert trained == [e.size for e in expected if e.size]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad_value", [np.nan, 1e200])
def test_non_finite_gradient_norm_stops_the_round_naming_client_and_round(bad_value):
    # NaN propagates to the upload; 1e200 is finite, but its squared gradient
    # norm overflows and would silently clip that sample to zero
    state = make_state(batch_size=0)  # full batches: the bad row is always drawn
    bad = state.shards[1]
    bad.dataset.X[bad.indices[0]] = bad_value
    with pytest.raises(ValueError, match=r"round 0, client 1: non-finite"):
        run_round(state, 0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_step_gradient_stops_the_round():
    # finite norms, but sigma * C overflows, so the step gradient is infinite
    state = make_state(sigma=1e308)
    with pytest.raises(ValueError, match=r"round 0, client 0: non-finite"):
        run_round(state, 0)


def test_scaffold_server_variate_is_mean_of_clients():
    state = make_state(algorithm="dp_scaffold", sigma=0.3, rounds=5, local_steps=3)
    result = run_experiment(state)
    assert len(result.rounds) == 5
    variates = [state.scaffold.client_variates[i] for i in range(state.fed.n_clients)]
    mean = sum(variates) / len(variates)
    np.testing.assert_allclose(state.scaffold.server_variate, mean, rtol=0, atol=1e-12)
    assert any(np.linalg.norm(v) > 0 for v in variates)


def test_scaffold_initial_state_zeros():
    st = ScaffoldState.zeros(4, [0, 1])
    np.testing.assert_array_equal(st.server_variate, np.zeros(4))
    assert set(st.client_variates) == {0, 1}


def test_run_experiment_deterministic_bitwise():
    a = make_state(sigma=0.7, rounds=4, seed=5)
    b = make_state(sigma=0.7, rounds=4, seed=5)
    ra = run_experiment(a)
    rb = run_experiment(b)
    np.testing.assert_array_equal(a.weights, b.weights)
    for x, y in zip(ra.rounds, rb.rounds):
        assert x == y


def test_parallel_clients_match_sequential_bitwise():
    seq = make_state(sigma=0.6, rounds=3, n_clients=4, seed=9, parallel=False)
    par = make_state(sigma=0.6, rounds=3, n_clients=4, seed=9, parallel=True)
    rs = run_experiment(seq)
    rp = run_experiment(par)
    np.testing.assert_array_equal(seq.weights, par.weights)
    for x, y in zip(rs.rounds, rp.rounds):
        assert x == y


def test_ledger_advances_by_local_steps_per_round():
    state = make_state(sigma=0.5, rounds=4, local_steps=3)
    run_experiment(state)
    assert state.ledger.steps_taken == 4 * 3


def test_epsilon_monotone_and_inf_when_noise_free():
    noisy = make_state(sigma=0.5, rounds=4)
    res = run_experiment(noisy)
    eps = [r.epsilon_spent for r in res.rounds]
    assert all(b > a for a, b in zip(eps, eps[1:]))
    silent = make_state(sigma=0.0, rounds=2)
    res0 = run_experiment(silent)
    assert all(math.isinf(r.epsilon_spent) for r in res0.rounds)


def test_isolated_keeps_global_weights_fixed_and_models_diverge():
    state = make_state(algorithm="isolated", sigma=0.2, rounds=3)
    w0 = state.weights.copy()
    result = run_experiment(state)
    np.testing.assert_array_equal(state.weights, w0)
    models = list(state.client_models.values())
    assert not np.array_equal(models[0], models[1])
    assert all(r.projections_applied == 0 for r in result.rounds)


def test_gcfl_reports_correction_and_others_dont():
    g = make_state(algorithm="gcfl", sigma=1.5, rounds=2, seed=3)
    _, report = run_round(g, 0)
    assert report is not None
    assert report.cosine_tests == 1  # N=2, M=1
    f = make_state(algorithm="dp_fedavg", sigma=1.5, rounds=2, seed=3)
    _, report_f = run_round(f, 0)
    assert report_f is None


def test_partial_participation_selects_subset_deterministically():
    state = make_state(n_clients=5, clients_per_round=2, sigma=0.4, rounds=6, seed=4)
    result = run_experiment(state)
    assert len(result.rounds) == 6
    state2 = make_state(n_clients=5, clients_per_round=2, sigma=0.4, rounds=6, seed=4)
    result2 = run_experiment(state2)
    for a, b in zip(result.rounds, result2.rounds):
        assert a == b


def test_epsilon_budget_stops_early():
    state = make_state(sigma=0.5, rounds=50, epsilon_budget=20.0)
    result = run_experiment(state)
    assert result.stopped_early
    assert 0 < len(result.rounds) < 50
    assert result.rounds[-1].epsilon_spent <= 20.0
    # one more round would have crossed the budget
    state2 = make_state(sigma=0.5, rounds=len(result.rounds) + 1)
    result2 = run_experiment(state2)
    assert result2.rounds[-1].epsilon_spent > 20.0


def test_init_state_validates_shard_count():
    state = make_state()
    with pytest.raises(ValueError, match="shards"):
        init_state(
            state.model_spec,
            state.dp,
            state.fed,
            state.correction,
            state.shards[:1],
            state.test,
        )


def test_federation_config_validation():
    with pytest.raises(ValueError, match="algorithm"):
        FederationConfig(algorithm="fedsgd")
    with pytest.raises(ValueError, match="clients_per_round"):
        FederationConfig(n_clients=2, clients_per_round=3)
    with pytest.raises(ValueError, match="learning_rate"):
        FederationConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="prox_mu"):
        FederationConfig(prox_mu=-1.0)
    with pytest.raises(ValueError, match="weighting"):
        FederationConfig(weighting="quadratic")


def _capture_round_zero(monkeypatch, state):
    """Run round 0 and return (start weights, client results, report, and a
    copy of the correction rng as run_round handed it to plan_round)."""
    results, handed = {}, []
    real_local, real_plan = federation.client_local_phase, federation.plan_round

    def local(shard, *args, **kwargs):
        results[shard.client_id] = real_local(shard, *args, **kwargs)
        return results[shard.client_id]

    def plan(gradients, config, rng):
        handed.append(copy.deepcopy(rng))
        return real_plan(gradients, config, rng)

    monkeypatch.setattr(federation, "client_local_phase", local)
    monkeypatch.setattr(federation, "plan_round", plan)
    w0 = state.weights
    _, report = run_round(state, 0)
    return w0, results, report, handed[0] if handed else None


U = 2.0**-53


def _gamma(k):
    return k * U / (1.0 - k * U)


@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("mode", CORRECTION_MODES)
def test_gcfl_round_matches_aggregating_the_corrected_uploads(
    monkeypatch, mode, weighting
):
    """run_round folds the projections into the weights: its new weights are
    server_step(aggregate(correct_round(uploads))) up to rounding.

    Both sides compute w0 - eta sum_i w_i (g_i - sum_j c_ij g_j) with the
    same c_ij.  Per coordinate, with A = sum_i w_i (|g_i| + sum_j |c_ij|
    |g_j|), the corrected-vector path (at most N - 1 axpys, then N weighted
    adds) is within gamma_2N A of it, and so is the folded path (alpha_j
    from at most N terms, then N weighted adds).  The server step scales the
    gap by eta and rounds each side once more:
    tol = 4 gamma_{2N+2} eta A + 3 u |w|.
    """
    base = make_state(n_clients=6, sigma=2.0, weighting=weighting, seed=3)
    train = base.shards[0].dataset
    parts = np.split(np.arange(train.size), [5, 15, 22, 30, 45])  # unequal
    shards = [ClientShard(i, train, idx) for i, idx in enumerate(parts)]
    state = init_state(
        base.model_spec, base.dp, base.fed, CorrectionConfig(mode=mode),
        shards, base.test,
    )
    w0, results, report, rng = _capture_round_zero(monkeypatch, state)
    uploads = {cid: r.gradient for cid, r in results.items()}
    weights = federation._participant_weights(state, sorted(uploads))
    plan, _ = plan_round(uploads, state.correction, copy.deepcopy(rng))
    corrected, want_report = correct_round(uploads, state.correction, rng)
    want = server_step(w0, aggregate(corrected, weights), state.fed)

    assert report.cosines == want_report.cosines
    assert report.projections_applied == want_report.projections_applied > 0
    magnitude = sum(
        weights[i] * (np.abs(g) + sum(abs(c) * np.abs(uploads[j]) for j, c in plan[i]))
        for i, g in uploads.items()
    )
    eta = state.fed.learning_rate
    tol = 4 * _gamma(2 * len(uploads) + 2) * eta * magnitude + 3 * U * np.abs(want)
    assert np.all(np.abs(state.weights - want) <= tol)


@pytest.mark.parametrize("mode", CORRECTION_MODES)
def test_gcfl_round_without_projections_is_the_plain_aggregate_bitwise(
    monkeypatch, mode
):
    """With no projection, alpha == w and the update is bit-equal to
    aggregating the untouched uploads, as when correct_round ran."""
    state = make_state(n_clients=4, sigma=0.0, batch_size=0)
    state.correction = CorrectionConfig(mode=mode)
    w0, results, report, _ = _capture_round_zero(monkeypatch, state)
    assert report.cosine_tests > 0 and report.projections_applied == 0
    uploads = {cid: r.gradient for cid, r in results.items()}
    weights = {cid: 1.0 / len(uploads) for cid in uploads}
    want = server_step(w0, aggregate(uploads, weights), state.fed)
    assert state.weights.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "algorithm, clients_per_round",
    [(a, 0) for a in ALGORITHMS if a not in ("gcfl", "isolated")] + [("gcfl", 1)],
)
def test_uncorrected_round_aggregates_the_raw_uploads_bitwise(
    monkeypatch, algorithm, clients_per_round
):
    state = make_state(
        algorithm=algorithm, n_clients=4, sigma=1.0,
        clients_per_round=clients_per_round,
    )
    w0, results, report, rng = _capture_round_zero(monkeypatch, state)
    assert report is None and rng is None
    uploads = {cid: r.gradient for cid, r in results.items()}
    weights = {cid: 1.0 / len(uploads) for cid in uploads}
    want = server_step(w0, aggregate(uploads, weights), state.fed, uploads)
    assert state.weights.tobytes() == want.tobytes()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_round_keeps_final_params_only_where_the_server_reads_them(
    monkeypatch, algorithm
):
    state = make_state(algorithm=algorithm, n_clients=3)
    _, results, _, _ = _capture_round_zero(monkeypatch, state)
    kept = [r.final_params is not None for r in results.values()]
    assert kept == [algorithm in ("isolated", "dp_scaffold")] * 3
    if algorithm == "isolated":
        for cid, r in results.items():
            assert state.client_models[cid] is r.final_params

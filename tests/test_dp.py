import math

import numpy as np
import pytest

import dpfedsim.dp as dp
from dpfedsim.config import ExperimentConfig
from dpfedsim.dp import (
    DEFAULT_ALPHA_GRID,
    epsilon_spent,
    poisson_sample,
    rdp_cost_per_step,
    rdp_to_dp,
    steps_for_budget,
)
from oracle import clip_gradient, l2_norm, noisy_batch_gradient


def test_clip_worked_example():
    clipped = clip_gradient(np.array([3.0, 4.0]), 1.5)
    np.testing.assert_allclose(clipped, [0.9, 1.2], rtol=0, atol=1e-15)


def test_clip_leaves_small_vectors_bitwise_alone():
    g = np.array([0.1, -0.2, 0.05])
    out = clip_gradient(g, 1.5)
    assert out is g  # same object, same bits


def test_clip_zero_vector():
    g = np.zeros(4)
    np.testing.assert_array_equal(clip_gradient(g, 1.0), g)


def test_clip_property_over_random_inputs():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        dim = int(rng.integers(1, 50))
        g = rng.standard_normal(dim) * rng.uniform(0.1, 10)
        c = rng.uniform(1e-3, 5.0)
        out = clip_gradient(g, c)
        assert l2_norm(out) <= c + 1e-9
        if l2_norm(g) <= c:
            assert out is g


def test_clip_rejects_bad_threshold():
    """A threshold of 0 is rejected where it enters, by the config; the
    kernel and the oracle's clip_gradient take the checked value as is."""
    with pytest.raises(ValueError, match="clip_threshold must be > 0"):
        ExperimentConfig(clip_threshold=0.0)


def test_poisson_sample_fixed_size():
    rng = np.random.default_rng(0)
    idx = poisson_sample(100, 32, "fixed_size", rng)
    assert idx.shape == (32,)
    assert np.all(np.diff(idx) > 0)  # ascending, distinct
    assert idx.min() >= 0 and idx.max() < 100
    # the smallest batch is one sample
    assert poisson_sample(10, 1, "fixed_size", rng).shape == (1,)


def test_poisson_sample_rate_one_takes_everything():
    rng = np.random.default_rng(1)
    np.testing.assert_array_equal(
        poisson_sample(7, 7, "poisson", rng), np.arange(7)
    )
    np.testing.assert_array_equal(
        poisson_sample(7, 7, "fixed_size", rng), np.arange(7)
    )


def test_poisson_sample_poisson_mode_statistics():
    rng = np.random.default_rng(2)
    sizes = [poisson_sample(1000, 100, "poisson", rng).size for _ in range(200)]
    assert abs(np.mean(sizes) - 100) < 10  # ~5 stderr


def test_poisson_sample_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="sampling_mode"):
        poisson_sample(10, 5, "bernoulli", np.random.default_rng(0))


def test_noisy_batch_gradient_sigma_zero_is_plain_mean():
    batch = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
    rng = np.random.default_rng(0)
    out = noisy_batch_gradient(sum(batch), len(batch), 1.5, 0.0, rng)
    np.testing.assert_array_equal(out, np.array([2.0, 2.0]) / 3)


def test_noisy_batch_gradient_of_zero_samples_is_the_noise_over_the_divisor():
    # an empty batch: its zero sum plus the noise, over the configured divisor
    out = noisy_batch_gradient(np.zeros(3), 4, 1.5, 0.8, np.random.default_rng(0))
    z = np.random.default_rng(0).standard_normal(3)
    np.testing.assert_array_equal(out, z * (0.8 * 1.5) / 4)


def test_noisy_batch_gradient_noise_scale():
    # zero gradients isolate the noise term: stdev should be sigma*C/|S|
    sigma, c, batch_size = 0.8, 1.5, 4
    rng = np.random.default_rng(3)
    batch = [np.zeros(8)] * batch_size
    draws = np.concatenate(
        [
            noisy_batch_gradient(sum(batch), len(batch), c, sigma, rng)
            for _ in range(4000)
        ]
    )
    expected = sigma * c / batch_size
    assert np.std(draws) == pytest.approx(expected, rel=0.02)


def test_rdp_cost_per_step():
    assert rdp_cost_per_step(1.0, 2.0) == 1.0
    assert rdp_cost_per_step(0.8, 3.0) == pytest.approx(3 / (2 * 0.64))
    with pytest.raises(ValueError, match="infinite"):
        rdp_cost_per_step(0.0, 2.0)
    with pytest.raises(ValueError, match="alpha"):
        rdp_cost_per_step(1.0, 1.0)


def test_rdp_to_dp_known_values():
    # R=1, alpha=2, delta=1e-5: 1 + ln(1/2) - (ln(1e-5) + ln 2)/1
    assert rdp_to_dp(1.0, 2.0, 1e-5) == pytest.approx(11.126631, abs=1e-6)
    assert rdp_to_dp(1.0, 10.0, 1e-5) == pytest.approx(1.918011, abs=1e-6)


def test_rdp_to_dp_validation():
    with pytest.raises(ValueError):
        rdp_to_dp(1.0, 1.0, 1e-5)
    with pytest.raises(ValueError):
        rdp_to_dp(1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        rdp_to_dp(-0.5, 2.0, 1e-5)


def test_default_alpha_grid():
    assert DEFAULT_ALPHA_GRID[0] == 1.5
    assert DEFAULT_ALPHA_GRID[1:] == tuple(float(a) for a in range(2, 65))


def test_epsilon_spent_zero_steps_is_conversion_floor():
    eps, alpha = epsilon_spent(0, 0.8, 1e-5)
    # with no accumulated cost the best alpha is the largest on the grid
    assert alpha == 64.0
    assert eps == pytest.approx(rdp_to_dp(0.0, 64.0, 1e-5))


def test_epsilon_monotone_in_steps():
    values = []
    for steps in range(0, 40, 3):
        values.append(epsilon_spent(steps, 0.8, 1e-5)[0])
    assert all(b > a for a, b in zip(values, values[1:]))


def test_epsilon_decreases_when_sigma_doubles():
    for steps in (1, 10, 100):
        lo = epsilon_spent(steps, 0.8, 1e-5)[0]
        hi = epsilon_spent(steps, 1.6, 1e-5)[0]
        assert hi < lo


def test_epsilon_tie_goes_to_smaller_alpha(monkeypatch):
    delta = 1e-5
    monkeypatch.setattr(dp, "DEFAULT_ALPHA_GRID", (2.0, 2.0, 3.0))
    eps, alpha = epsilon_spent(5, 0.8, delta)
    assert alpha in (2.0, 3.0)
    two = rdp_to_dp(5 * rdp_cost_per_step(0.8, 2.0), 2.0, delta)
    three = rdp_to_dp(5 * rdp_cost_per_step(0.8, 3.0), 3.0, delta)
    assert eps == min(two, three)
    if two == three:
        assert alpha == 2.0


def test_steps_for_budget_round_trip():
    for target in (2.0, 10.0, 57.3):
        steps = steps_for_budget(0.8, 1e-5, target)
        at = epsilon_spent(steps, 0.8, 1e-5)[0]
        over = epsilon_spent(steps + 1, 0.8, 1e-5)[0]
        assert at <= target < over


def test_steps_for_budget_unreachable_target():
    floor = epsilon_spent(0, 0.8, 1e-5)[0]
    with pytest.raises(ValueError, match="floor"):
        steps_for_budget(0.8, 1e-5, floor / 2)


def test_steps_for_budget_is_exact_up_to_2_pow_40_and_raises_past_it():
    # at sigma = 0.8 epsilon grows by about 1.17 a step, so 1e12 fits about
    # 8.5e11 steps, below the cap, and 1.76e12 about 1.5e12, above it
    steps = steps_for_budget(0.8, 1e-5, 1e12)
    assert steps < 2**40
    at, over = (epsilon_spent(n, 0.8, 1e-5)[0] for n in (steps, steps + 1))
    assert at <= 1e12 < over
    at_cap = epsilon_spent(2**40, 0.8, 1e-5)[0]
    assert steps_for_budget(0.8, 1e-5, at_cap) == 2**40
    for target in (1.76e12, 1e13):
        with pytest.raises(ValueError, match=r"more than 2\*\*40 noisy steps; use inf"):
            steps_for_budget(0.8, 1e-5, target)


# A step is charged at sensitivity s C: s = 1 under poisson, s = 2 under
# fixed_size (dp.SENSITIVITY), so the accountant is called at sigma / s.
SENSITIVITIES = (1, 2)


def _exact_delta(epsilon: float, steps: int, sigma: float, s: int):
    """delta(epsilon) of mu-GDP, mu = s sqrt(steps) / sigma, at 50 digits:
    Phi(-eps/mu + mu/2) - e^eps Phi(-eps/mu - mu/2)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        eps, mu = mp.mpf(epsilon), s * mp.sqrt(steps) / mp.mpf(sigma)
        return mp.ncdf(-eps / mu + mu / 2) - mp.exp(eps) * mp.ncdf(-eps / mu - mu / 2)


@pytest.mark.parametrize("s", SENSITIVITIES)
@pytest.mark.parametrize("delta", [1e-5, 1e-6])
@pytest.mark.parametrize("sigma", [0.5, 0.8, 1.1, 4.0])
def test_accountant_bounds_the_exact_composed_gaussian(sigma, delta, s):
    """With no subsampling amplification, T noisy steps at sensitivity sC
    compose exactly to mu-GDP with mu = s sqrt(T) / sigma (Dong, Roth & Su
    2019, arXiv:1905.02383), whose tight (epsilon, delta) curve is
    _exact_delta (Balle & Wang 2018, arXiv:1805.06530).  The accountant
    is called at sigma / s.  delta(epsilon) falls strictly in epsilon, so
    epsilon_spent >= epsilon_exact is delta(epsilon_spent) <= delta, and a
    budget's step count n keeps epsilon_exact(n) within the target when
    delta(target) at n steps is <= delta.  Both are checked on the curve
    itself, with no root finding and no tolerance: the curve is evaluated
    at 50 digits at the float64 epsilon under test, so its error (about
    1e-45 relative) is far below the accountant's slack: epsilon_spent is
    4% to 33% above epsilon_exact on this grid at s = 1 and 4% to 41% at
    s = 2, and the exact delta at epsilon_spent is at most 0.24 delta."""
    for steps in (1, 10, 30, 120, 1000):
        spent = epsilon_spent(steps, sigma / s, delta)[0]
        assert _exact_delta(spent, steps, sigma, s) <= delta, (steps, spent)
        target = 1.1 * spent
        budget = steps_for_budget(sigma / s, delta, target)
        assert budget >= steps
        assert _exact_delta(target, budget, sigma, s) <= delta, (steps, budget)


@pytest.mark.parametrize("target", [math.inf, math.nan, 0.0])
def test_steps_for_budget_rejects_a_target_that_is_no_budget(target):
    with pytest.raises(ValueError, match="epsilon_target must be finite and > 0"):
        steps_for_budget(0.8, 1e-5, target)


def test_dp_config_validation_messages():
    with pytest.raises(ValueError, match="clip_threshold must be > 0"):
        ExperimentConfig(clip_threshold=-1)
    with pytest.raises(ValueError, match="noise_multiplier must be >= 0"):
        ExperimentConfig(sigma=-0.1)
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        ExperimentConfig(batch_size=0)
    with pytest.raises(ValueError, match=r"delta must be in \(0, 1\)"):
        ExperimentConfig(delta=0)
    with pytest.raises(ValueError, match="sampling_mode"):
        ExperimentConfig(sampling_mode="uniform")

"""Differential privacy primitives: batch sampling, Gaussian noise, RDP accounting.

Each training step clips per-sample gradients to an L2 threshold C and sums
them (``model.clipped_gradient_sum``), adds a single Gaussian draw
N(0, (sigma*C)^2 I) to the sum, and divides by the realized batch size
(``federation.client_local_phase``, from the client's own noise stream).
Privacy is tracked in Renyi DP: one noisy step at order alpha costs
alpha / (2 sigma^2); steps compose by adding costs; the (epsilon, delta)
guarantee is obtained by converting the composed cost at each alpha on a
fixed grid and taking the minimum,

    epsilon = R(alpha) + log((alpha-1)/alpha) - (log(delta) + log(alpha)) / (alpha-1).

No subsampling amplification is applied, so the reported epsilon is an upper
bound regardless of the sampling mode.  The accountant is a pure function of
the noisy-step count, sigma and delta; the caller keeps the count.  A round
advances it by the maximum noisy-step count over that round's clients:
shards are disjoint, so per-round cost composes in parallel across clients
and sequentially across a single client's steps.  The mechanism's settings
are validated once, where the config is built; the functions here check only
what their own arithmetic needs.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_ALPHA_GRID: tuple[float, ...] = (1.5,) + tuple(float(a) for a in range(2, 65))

SAMPLING_MODES = ("fixed_size", "poisson")


def poisson_sample(
    shard_size: int, batch_size: int, mode: str, rng: np.random.Generator
) -> np.ndarray:
    """Indices of one minibatch draw, ascending.

    fixed_size draws exactly min(batch_size, shard_size) distinct indices;
    poisson keeps each index with probability min(1, batch_size /
    shard_size), so batch_size is the expected size (the draw may be empty).
    """
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if mode == "poisson":
        mask = rng.random(shard_size) < min(1.0, batch_size / shard_size)
        return np.flatnonzero(mask)
    if mode == "fixed_size":
        size = min(batch_size, shard_size)
        return np.sort(rng.choice(shard_size, size=size, replace=False))
    raise ValueError(f"sampling_mode must be one of {SAMPLING_MODES}, got {mode!r}")


def rdp_cost_per_step(noise_multiplier: float, alpha: float) -> float:
    """Renyi cost of one Gaussian-mechanism step: alpha / (2 sigma^2)."""
    if not alpha > 1:
        raise ValueError("alpha must be > 1")
    if not noise_multiplier > 0:
        raise ValueError(
            "noise_multiplier must be > 0: sigma == 0 has infinite privacy cost"
        )
    return alpha / (2.0 * noise_multiplier**2)


def rdp_to_dp(rdp: float, alpha: float, delta: float) -> float:
    """Convert a Renyi-DP bound at one order to an (epsilon, delta) bound."""
    if not alpha > 1:
        raise ValueError("alpha must be > 1")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if rdp < 0:
        raise ValueError("rdp must be >= 0")
    return (
        rdp
        + math.log((alpha - 1.0) / alpha)
        - (math.log(delta) + math.log(alpha)) / (alpha - 1.0)
    )


def epsilon_spent(
    steps: int,
    sigma: float,
    delta: float,
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID,
) -> tuple[float, float]:
    """(epsilon, best_alpha) after `steps` noisy steps at noise multiplier sigma.

    Minimizes the converted bound over the alpha grid; ties go to the
    smaller alpha.
    """
    if not alpha_grid:
        raise ValueError("alpha_grid must be nonempty")
    best_eps = math.inf
    best_alpha = None
    for alpha in sorted(alpha_grid):
        rdp = steps * rdp_cost_per_step(sigma, alpha)
        eps = rdp_to_dp(rdp, alpha, delta)
        if eps < best_eps:
            best_eps = eps
            best_alpha = alpha
    return best_eps, best_alpha


def steps_for_budget(sigma: float, delta: float, epsilon_target: float) -> int:
    """Largest noisy-step count whose spent epsilon stays <= epsilon_target.

    Raises ValueError unless sigma > 0, the target is finite (inf is no
    budget, which has no step count) and the count is at most 2**40.
    """
    if not 0 < epsilon_target < math.inf:
        raise ValueError(f"epsilon_target must be finite and > 0, got {epsilon_target}")

    def eps_at(steps: int) -> float:
        return epsilon_spent(steps, sigma, delta)[0]

    if eps_at(0) > epsilon_target:
        raise ValueError(
            f"epsilon_target {epsilon_target} is below the conversion floor "
            f"{eps_at(0):.6f}; no number of steps fits the budget"
        )
    if eps_at((1 << 40) + 1) <= epsilon_target:
        raise ValueError(
            f"epsilon_target {epsilon_target} allows more than 2**40 noisy steps; "
            "use inf for no budget"
        )
    hi = 1
    while eps_at(hi) <= epsilon_target:
        hi *= 2
    lo = hi // 2  # eps_at(lo) <= target < eps_at(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if eps_at(mid) <= epsilon_target:
            lo = mid
        else:
            hi = mid
    return lo

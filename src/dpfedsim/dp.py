"""Differential privacy primitives: batch sampling, Gaussian noise, RDP accounting.

Neighbouring datasets differ by adding or removing one training example.
Each step clips per-sample gradients to an L2 threshold C and sums them
(``model.clipped_gradient_sum``), adds one Gaussian draw N(0, (sigma*C)^2 I)
and divides by the configured batch_size, a public constant, whatever the
batch drawn, an empty Poisson draw included (``federation.client_local_phase``).
Each step is the Gaussian mechanism at sensitivity s C, with s set by the
sampling mode alone (``SENSITIVITY``).  Under poisson one example moves the
clipped sum by at most C: s = 1.  Under fixed_size adding an example can
swap it for a batch member, which moves the sum by up to 2C: s = 2 (Balle,
Barthe & Gaboardi 2018, arXiv:1807.01647).  A fixed_size batch that takes
the whole shard gets no exemption: whether it does depends on the private
shard size.  A step at sensitivity s C and noise sigma C is charged as one
at sensitivity C and noise sigma / s (``ExperimentConfig.charged_sigma``).
Privacy is tracked in Renyi DP: one step at order alpha costs
alpha / (2 sigma^2) at that charged sigma; steps compose by adding costs;
the (epsilon, delta) guarantee is the converted cost minimized over a fixed
alpha grid,

    epsilon = R(alpha) + log((alpha-1)/alpha) - (log(delta) + log(alpha)) / (alpha-1).

No subsampling amplification is applied.  The accountant is a pure function
of the noisy-step count, the charged sigma and delta.  Shards are disjoint,
so cost composes in parallel across clients and sequentially across a
client's local_steps K: a round charges K steps.  Known limit: poisson
keeps each example with probability min(1, batch_size / shard size), a rate
set by the private shard size, so adding an example changes every other
example's inclusion probability too; the charge at C assumes a fixed rate.
It is the one known limit of this kind: the server weighs every upload
1 / P, from public counts only.
Settings are validated where the config is built; the functions here check
only what their own arithmetic needs.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_ALPHA_GRID: tuple[float, ...] = (1.5,) + tuple(float(a) for a in range(2, 65))

# a step's sensitivity in units of the clip threshold C, by sampling mode
SENSITIVITY = {"fixed_size": 2, "poisson": 1}

SAMPLING_MODES = tuple(SENSITIVITY)


def poisson_sample(
    shard_size: int, batch_size: int, mode: str, rng: np.random.Generator
) -> np.ndarray:
    """Indices of one minibatch draw, ascending.

    fixed_size draws exactly min(batch_size, shard_size) distinct indices;
    poisson keeps each index with probability min(1, batch_size /
    shard_size), so batch_size is the expected size (the draw may be empty).
    """
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


def epsilon_spent(steps: int, sigma: float, delta: float) -> tuple[float, float]:
    """(epsilon, best_alpha) after `steps` noisy steps at noise multiplier sigma.

    Minimizes the converted bound over ``DEFAULT_ALPHA_GRID``, which is
    ascending; ties go to the smaller alpha.
    """
    best_eps = math.inf
    best_alpha = None
    for alpha in DEFAULT_ALPHA_GRID:
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

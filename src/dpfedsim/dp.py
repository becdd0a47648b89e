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
Settings are validated where the config is built; the functions here
re-check nothing the config checked.
"""

from __future__ import annotations

import bisect
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
    size = min(batch_size, shard_size)
    return np.sort(rng.choice(shard_size, size=size, replace=False))


def rdp_to_dp(rdp: float, alpha: float, delta: float) -> float:
    """Convert a Renyi-DP bound at one order to an (epsilon, delta) bound."""
    return (
        rdp
        + math.log((alpha - 1.0) / alpha)
        - (math.log(delta) + math.log(alpha)) / (alpha - 1.0)
    )


def epsilon_spent(steps: int, sigma: float, delta: float) -> tuple[float, float]:
    """(epsilon, best_alpha) after `steps` noisy steps at noise multiplier sigma.

    A step at order alpha costs alpha / (2 sigma^2).  The converted bound
    is minimized over ``DEFAULT_ALPHA_GRID``, which is ascending; ties go
    to the smaller alpha.
    """
    return min(
        (rdp_to_dp(steps * (alpha / (2.0 * sigma**2)), alpha, delta), alpha)
        for alpha in DEFAULT_ALPHA_GRID
    )


def steps_for_budget(sigma: float, delta: float, epsilon_target: float) -> int:
    """Largest noisy-step count whose spent epsilon stays <= epsilon_target.

    Raises ValueError when no count fits the budget or more than 2**40 do.
    """

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
    # eps_at(hi // 2) <= target < eps_at(hi): the count is in [hi // 2, hi)
    return bisect.bisect_right(range(hi), epsilon_target, lo=hi // 2, key=eps_at) - 1

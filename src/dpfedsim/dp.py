"""Differential privacy primitives: batch sampling, Gaussian noise, RDP accounting.

Each training step clips per-sample gradients to an L2 threshold C and sums
them (``model.clipped_gradient_sum``), adds a single Gaussian draw
N(0, (sigma*C)^2 I) to the sum, and divides by the realized batch size.
Privacy is tracked in Renyi DP: one noisy step at order alpha costs
alpha / (2 sigma^2); steps compose by adding costs; the (epsilon, delta)
guarantee is obtained by converting the composed cost at each alpha on a
fixed grid and taking the minimum,

    epsilon = R(alpha) + log((alpha-1)/alpha) - (log(delta) + log(alpha)) / (alpha-1).

No subsampling amplification is applied, so the reported epsilon is an upper
bound regardless of the sampling mode.  Rounds advance the ledger by the
maximum noisy-step count over that round's clients: shards are disjoint, so
per-round cost composes in parallel across clients and sequentially across a
single client's steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import ParamVector

DEFAULT_ALPHA_GRID: tuple[float, ...] = (1.5,) + tuple(float(a) for a in range(2, 65))

SAMPLING_MODES = ("fixed_size", "poisson")


@dataclass
class DpConfig:
    clip_threshold: float = 1.5
    noise_multiplier: float = 0.8
    sampling_rate: float = 0.01  # used only when batch_size is 0
    delta: float = 1e-5
    sampling_mode: str = "fixed_size"
    batch_size: int = 0  # 0 = draw batches at sampling_rate

    def __post_init__(self):
        if not self.clip_threshold > 0:
            raise ValueError("clip_threshold must be > 0")
        if not self.noise_multiplier >= 0:
            raise ValueError("noise_multiplier must be >= 0")
        if self.batch_size < 0:
            raise ValueError("batch_size must be >= 0 (0 uses sampling_rate)")
        if self.batch_size == 0 and not 0 < self.sampling_rate <= 1:
            raise ValueError("sampling_rate must be in (0, 1] when batch_size is 0")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if self.sampling_mode not in SAMPLING_MODES:
            raise ValueError(
                f"sampling_mode must be one of {SAMPLING_MODES}, "
                f"got {self.sampling_mode!r}"
            )


def poisson_sample(
    shard_size: int,
    rate: float,
    mode: str,
    rng: np.random.Generator,
    batch_size: int = 0,
) -> np.ndarray:
    """Indices of one minibatch draw, ascending.

    batch_size > 0 sets the batch and rate is unused: fixed_size draws
    exactly min(batch_size, shard_size) distinct indices; poisson keeps each
    index with probability min(1, batch_size / shard_size), so batch_size is
    the expected size.  batch_size == 0 draws at rate: poisson keeps each
    index with probability rate (may be empty); fixed_size draws
    max(1, floor(rate * shard_size)) distinct indices.
    """
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    if batch_size == 0 and not 0 < rate <= 1:
        raise ValueError("sampling_rate must be in (0, 1]")
    if mode == "poisson":
        if batch_size:
            rate = min(1.0, batch_size / shard_size)
        mask = rng.random(shard_size) < rate
        return np.flatnonzero(mask)
    if mode == "fixed_size":
        if batch_size:
            size = min(batch_size, shard_size)
        else:
            size = max(1, int(math.floor(rate * shard_size)))
        picked = rng.choice(shard_size, size=size, replace=False)
        return np.sort(picked)
    raise ValueError(f"sampling_mode must be one of {SAMPLING_MODES}, got {mode!r}")


def noisy_batch_gradient(
    clipped_sum: ParamVector,
    batch_size: int,
    clip_threshold: float,
    noise_multiplier: float,
    rng: np.random.Generator,
) -> ParamVector:
    """Noisy mean of a batch of clipped per-sample gradients, given their sum.

    Add one N(0, (sigma*C)^2 I) draw to the sum and divide by the realized
    batch size.  sigma == 0 skips the draw entirely so the no-noise path is
    bit-deterministic.
    """
    if batch_size < 1:
        raise ValueError("noisy_batch_gradient needs a nonempty batch")
    if not clip_threshold > 0:
        raise ValueError("clip_threshold must be > 0")
    if noise_multiplier < 0:
        raise ValueError("noise_multiplier must be >= 0")
    total = clipped_sum
    if noise_multiplier > 0:
        total = total + rng.standard_normal(total.shape[0]) * (
            noise_multiplier * clip_threshold
        )
    return total / batch_size


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


@dataclass
class PrivacyLedger:
    """Running count of noisy steps plus the knobs needed to price them."""

    config: DpConfig
    steps_taken: int = 0
    alpha_grid: tuple[float, ...] = field(default=DEFAULT_ALPHA_GRID)

    def __post_init__(self):
        if self.steps_taken < 0:
            raise ValueError("steps_taken must be >= 0")
        if not self.alpha_grid or any(a <= 1 for a in self.alpha_grid):
            raise ValueError("alpha_grid must be nonempty with every alpha > 1")

    def record_steps(self, n: int) -> None:
        if n < 0:
            raise ValueError("cannot record a negative number of steps")
        self.steps_taken += n


def epsilon_spent(ledger: PrivacyLedger) -> tuple[float, float]:
    """(epsilon, best_alpha) at the ledger's current step count.

    Minimizes the converted bound over the alpha grid; ties go to the
    smaller alpha.
    """
    sigma = ledger.config.noise_multiplier
    delta = ledger.config.delta
    best_eps = math.inf
    best_alpha = None
    for alpha in sorted(ledger.alpha_grid):
        rdp = ledger.steps_taken * rdp_cost_per_step(sigma, alpha)
        eps = rdp_to_dp(rdp, alpha, delta)
        if eps < best_eps:
            best_eps = eps
            best_alpha = alpha
    return best_eps, best_alpha


def steps_for_budget(config: DpConfig, epsilon_target: float) -> int:
    """Largest noisy-step count whose spent epsilon stays <= epsilon_target."""
    if not epsilon_target > 0:
        raise ValueError("epsilon_target must be > 0")

    def eps_at(steps: int) -> float:
        return epsilon_spent(
            PrivacyLedger(config=config, steps_taken=steps)
        )[0]

    if eps_at(0) > epsilon_target:
        raise ValueError(
            f"epsilon_target {epsilon_target} is below the conversion floor "
            f"{eps_at(0):.6f}; no number of steps fits the budget"
        )
    hi = 1
    while eps_at(hi) <= epsilon_target:
        hi *= 2
        if hi > 1 << 40:
            return hi  # budget effectively unbounded at this sigma/delta
    lo = hi // 2  # eps_at(lo) <= target < eps_at(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if eps_at(mid) <= epsilon_target:
            lo = mid
        else:
            hi = mid
    return lo

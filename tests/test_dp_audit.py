"""A black-box audit of one client step against the accountant's charge.

Neighbouring shards, D of 8 examples and D' = D plus a canary, each run one
dp_fedavg ``client_local_phase`` step TRIALS times (sigma = 0.8, C = 1.5,
MLP 16-512-4, D = 10,756 parameters).  The statistic is the upload's
squared norm.  The first half of each side's trials picks a threshold and
the side of it that says "canary"; the second half scores that rule with
Clopper-Pearson 95% bounds on its true and false positive rates, which
bound the step's epsilon from below (Jagielski, Ullman & Oprea 2020,
arXiv:2006.07709):

    eps_lb = log((TPR_lo - delta) / FPR_hi).

A step that is the Gaussian mechanism the accountant charges keeps eps_lb
at or below its one-step epsilon, charged at the sensitivity of its
sampling mode (2C under fixed_size, C under poisson).  A step divided by
the size of the batch it drew does not: its noise norm,
sigma C sqrt(D) / |B|, gives |B| away, and adding the canary changes |B|
under a full batch and sometimes under Poisson sampling.  At 3,000 scored trials per side the largest bound the
audit can show is 6.70, with every trial told apart.
"""

import functools
import math

import numpy as np
import pytest

from dpfedsim.config import ExperimentConfig
from dpfedsim.data import ClientShard, Dataset, features, synthetic_blobs
from dpfedsim.dp import epsilon_spent
from dpfedsim.federation import Stream, client_local_phase, derive_rng
from dpfedsim.model import MlpSpec, init_params

SIGMA, CLIP, DELTA = 0.8, 1.5, 1e-5
TRIALS = 6000  # per side: the first half picks the rule, the second scores it
LEVEL = 0.95
# false positives the picked rule may allow on the picking half
ALLOWED_FP = (0, 1, 3, 7, 15, 31, 63, 127, 255, 511, 1023)


@functools.cache
def _log_choose(n: int) -> np.ndarray:
    """log C(n, j), j = 0..n."""
    log_fact = np.array([math.lgamma(i + 1) for i in range(n + 1)])
    return log_fact[n] - log_fact - log_fact[::-1]


def _log_pmf(n: int, p: float) -> np.ndarray:
    """log P(X = j), j = 0..n, for X ~ Binomial(n, p) with 0 < p < 1."""
    j = np.arange(n + 1)
    return _log_choose(n) + j * math.log(p) + (n - j) * math.log1p(-p)


def _tail(log_terms: np.ndarray) -> float:
    top = log_terms.max()
    return math.exp(top + math.log(np.exp(log_terms - top).sum()))


def _bisect(below, steps: int = 60) -> float:
    """The p in (0, 1) where below(p) turns from True to False."""
    lo, hi = 0.0, 1.0
    for _ in range(steps):
        mid = (lo + hi) / 2
        if below(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def clopper_pearson(k: int, n: int) -> tuple[float, float]:
    """Two-sided LEVEL Clopper-Pearson bounds on a rate seen k times in n:
    lo solves P(X >= k) = tail and hi solves P(X <= k) = tail, found by
    bisection on exact binomial tails summed in log space."""
    tail = (1 - LEVEL) / 2
    lo = 0.0 if k == 0 else _bisect(lambda p: _tail(_log_pmf(n, p)[k:]) < tail)
    hi = 1.0 if k == n else _bisect(lambda p: _tail(_log_pmf(n, p)[: k + 1]) > tail)
    return lo, hi


def epsilon_lower_bound(tp: int, fp: int, n: int) -> float:
    """log((TPR_lo - delta) / FPR_hi) from tp of n canary trials and fp of
    n trials without it flagged; -inf when TPR_lo <= delta."""
    tpr_lo = clopper_pearson(tp, n)[0]
    fpr_hi = clopper_pearson(fp, n)[1]
    if tpr_lo <= DELTA:
        return -math.inf
    return math.log((tpr_lo - DELTA) / fpr_hi)


def _flagged(scores: np.ndarray, side: int, threshold: float) -> int:
    return int(np.count_nonzero(side * scores > threshold))


def audit(without: np.ndarray, with_canary: np.ndarray) -> float:
    """eps_lb of the rule "side * score > threshold" that does best on the
    first half of each side's scores, scored on the second half."""
    half = len(without) // 2
    pick_out, pick_in = without[:half], with_canary[:half]
    best = None
    for side in (1, -1):
        ranked = np.sort(side * pick_out)[::-1]
        for fp in ALLOWED_FP:
            threshold = float(ranked[fp])  # fp picking scores lie above it
            tp = _flagged(pick_in, side, threshold)
            eps = epsilon_lower_bound(tp, fp, half)
            if best is None or eps > best[0]:
                best = (eps, side, threshold)
    _, side, threshold = best
    n = len(without) - half
    tp = _flagged(with_canary[half:], side, threshold)
    fp = _flagged(without[half:], side, threshold)
    return epsilon_lower_bound(tp, fp, n)


def _upload_sq_norms(shard, cfg, spec, seed) -> np.ndarray:
    """TRIALS one-step uploads' squared norms, each a fresh batch and noise
    draw from the side's own streams."""
    w = init_params(spec, np.random.default_rng(0))
    row = np.empty(spec.num_params)
    batch_rng = derive_rng(seed, 0, 0, Stream.BATCH)
    noise_rng = derive_rng(seed, 0, 0, Stream.NOISE)
    out = np.empty(TRIALS)
    for t in range(TRIALS):
        client_local_phase(shard, w, spec, cfg, batch_rng, noise_rng, row)
        out[t] = np.einsum("d,d->", row, row)
    return out


@pytest.mark.parametrize(
    "sampling_mode, batch_size",
    [
        ("fixed_size", 16),  # a full batch on both sides
        ("poisson", 8),  # rate 1 on D, 8 / 9 on D'
    ],
)
def test_one_step_audit_stays_under_the_accountants_charge(
    sampling_mode, batch_size
):
    spec = MlpSpec((16, 512, 4))
    blobs = synthetic_blobs(4, 2, 16, 0.25, np.random.default_rng(3))  # 8 examples
    # the canary: every level at 255, so every feature at 1.0
    X = np.vstack([blobs.X, np.full(16, 255, np.uint8)])
    assert features(X[8]).tobytes() == np.ones(16).tobytes()
    y = np.append(blobs.y, 0)
    data = Dataset(X, y, 4)
    cfg = ExperimentConfig(
        algorithm="dp_fedavg",
        sigma=SIGMA,
        clip_threshold=CLIP,
        delta=DELTA,
        sampling_mode=sampling_mode,
        batch_size=batch_size,
        local_steps=1,
    )
    without = _upload_sq_norms(ClientShard(0, data, np.arange(8)), cfg, spec, 1)
    with_canary = _upload_sq_norms(ClientShard(0, data, np.arange(9)), cfg, spec, 2)
    eps_lb = audit(without, with_canary)
    charged = epsilon_spent(1, cfg.charged_sigma(), DELTA)[0]  # at s C
    assert eps_lb <= charged, (eps_lb, charged)


@pytest.mark.parametrize("k", [0, 7, 1500, 3000])
def test_clopper_pearson_bounds_cut_the_binomial_tails_at_the_level(k):
    """Each bound leaves (1 - LEVEL) / 2 in its binomial tail, checked by a
    30-digit mpmath sum."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    n = 3000
    lo, hi = clopper_pearson(k, n)

    def at_most(p, m):  # P(X <= m) for X ~ Binomial(n, p)
        p = mp.mpf(p)
        terms = (mp.binomial(n, j) * p**j * (1 - p) ** (n - j) for j in range(m + 1))
        return mp.fsum(terms)

    tail = (1 - LEVEL) / 2
    if k > 0:
        assert abs(1 - at_most(lo, k - 1) - tail) < 1e-10
    if k < n:
        assert abs(at_most(hi, k) - tail) < 1e-10

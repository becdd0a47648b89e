"""Server-side gradient conflict detection and correction.

Two uploaded client gradients conflict when their cosine similarity is
negative.  A conflicting gradient is corrected by removing its component
along the other one — projection onto the normal plane:

    g_i <- g_i - (g_i . g_j) / ||g_j||^2 * g_j

so the corrected vector is exactly orthogonal (up to rounding) to g_j and
no longer opposes it.  Two schedules are supported:

reference mode (default): M clients are drawn as references and pass through
untouched; every other client's gradient is tested against each reference in
a per-client random order, carrying the partially corrected vector from test
to test.  Cosine evaluations per round are exactly M * (N - M).

pairwise mode: every ordered pair (i, j), i != j, in ascending id order; the
running, partially corrected g_i is tested against the *original* upload of
client j.

Every test runs in coefficient space (the Gram formulation of PCGrad, Yu et
al. 2020, arXiv:2001.06782).  The Gram matrix G[a, b] = <g_a, g_b> of the
original uploads is built once per round (``gram``; its block reduction
order is stated there and is part of the output contract).  For the running
vector r of client i the scalars row[k] = <r, g_k> and q = ||r||^2 start as
G[i] and G[i, i]; a test against j reads d = row[j], and a projection with
coefficient c = d / G[j, j] updates them as row -= c * G[j] and
q = max(0, q - c * d).

A round is split in two.  ``plan_round`` is the decision step: from G alone
it returns each client's ordered projections (j, c), so that corrected_i =
g_i - sum c g_j, i.e. the coefficient matrix M with corrected_i = sum_j
M_ij g_j.  ``correct_round`` runs it and then materialises the corrected
uploads with one scale_add per projection in plan order.  A federated round
needs only the weighted sum of the corrected uploads, sum_i w_i corrected_i
= sum_j alpha_j g_j with alpha = w^T M (``fold_weights``), so it calls only
the decision step and never builds a corrected vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import ParamVector, scale_add

CORRECTION_MODES = ("reference", "pairwise")

# Columns per Gram block.  At N = 32 one block of the uploads is
# 32 * 4096 * 8 B = 1 MiB, which stays in a 2 MiB L2 while every pair reads
# it.  It must not exceed einsum's 8192-element buffer, beyond which
# np.einsum("d,bd->b") splits its sums in another order than "d,d->".
GRAM_BLOCK = 4096
# From this many uploads on the Gram is blocked.  With fewer, a block's rows
# are reused too little to pay for its copies and einsum calls: at
# D = 101,770 on a 2-core Xeon with a 2 MiB L2, whole-vector dots take
# 0.19 ms at N = 2 against 0.76 ms blocked, and the two meet between N = 12
# and N = 14.
GRAM_BLOCKED_MIN_N = 12

# Client id -> its projections in the order applied: (j, c) means
# r <- r - c * g_j, with g_j the original upload of client j.
CorrectionPlan = dict[int, list[tuple[int, float]]]


@dataclass
class CorrectionConfig:
    mode: str = "reference"
    # 0 means "pick max(1, n_clients // 2) at runtime"
    num_references: int = 0
    order_seed: int = 0

    def __post_init__(self):
        if self.mode not in CORRECTION_MODES:
            raise ValueError(
                f"correction mode must be one of {CORRECTION_MODES}, got {self.mode!r}"
            )
        if self.num_references < 0:
            raise ValueError("num_references must be >= 0 (0 means auto)")
        if self.order_seed < 0:
            raise ValueError("order_seed must be >= 0")


@dataclass
class CorrectionReport:
    """What one round of correction did, for metrics and audit."""

    reference_ids: list[int] = field(default_factory=list)
    cosines: dict[tuple[int, int], float] = field(default_factory=dict)
    projections_applied: int = 0
    cosine_tests: int = 0

    def summary(self) -> dict:
        values = list(self.cosines.values())
        return {
            "references": list(self.reference_ids),
            "cosine_evaluations": self.cosine_tests,
            "projections_applied": self.projections_applied,
            "negative_cosines": sum(1 for v in values if v < 0),
            "cosine_min": min(values) if values else None,
            "cosine_mean": float(np.mean(values)) if values else None,
            "cosine_max": max(values) if values else None,
        }


def cosine_from_products(sq_a: float, sq_b: float, ab: float) -> float:
    """Cosine of a and b from ||a||^2, ||b||^2 and <a, b>; 0.0 when either is zero.

    The denominator is sqrt(sq_a * sq_b) — one square root instead of two
    keeps exactly parallel vectors at exactly +/-1 — with a two-root fallback
    when the product overflows.  The quotient is clamped to [-1, 1] so sign
    tests never see |cos| > 1 from rounding.
    """
    if sq_a == 0.0 or sq_b == 0.0:
        return 0.0
    product = sq_a * sq_b
    if math.isfinite(product) and product > 0.0:
        denom = math.sqrt(product)
    else:  # product over- or underflowed; take the roots separately
        denom = math.sqrt(sq_a) * math.sqrt(sq_b)
    if denom == 0.0:  # norms so small even their product underflows
        return 0.0
    return min(1.0, max(-1.0, float(ab) / denom))


def gram(vectors: list[ParamVector]) -> np.ndarray:
    """G[a, b] = <v_a, v_b>, in a reduction order that fixes the output bytes.

    Below GRAM_BLOCKED_MIN_N vectors each entry is one np.einsum("d,d->",
    v_a, v_b) over the whole vectors.  From GRAM_BLOCKED_MIN_N on, the D
    columns are cut into blocks of GRAM_BLOCK, taken in ascending order: a
    block's N slices are copied into one (N, w) buffer, row a's dots with
    rows a..N-1 of it come from one np.einsum("d,bd->b"), each pair's block
    partials are added to 0.0 in ascending block order, and the lower
    triangle is copied from the upper.  With D <= GRAM_BLOCK both orders give
    the same bytes.  Either way G is exactly symmetric, einsum runs numpy's
    own loop rather than BLAS, so the bytes do not depend on the BLAS thread
    count, and no (N, D) stack of the vectors is built.
    """
    n = len(vectors)
    if n < GRAM_BLOCKED_MIN_N:
        g = np.empty((n, n))
        for a in range(n):
            for b in range(a, n):
                g[a, b] = g[b, a] = np.einsum("d,d->", vectors[a], vectors[b])
        return g
    dim = vectors[0].shape[0]
    g = np.zeros((n, n))
    buffer = np.empty((n, min(GRAM_BLOCK, dim)))
    for lo in range(0, dim, GRAM_BLOCK):
        hi = min(lo + GRAM_BLOCK, dim)
        rows = buffer[:, : hi - lo]
        for row, v in zip(rows, vectors):
            row[:] = v[lo:hi]
        for a in range(n):
            g[a, a:] += np.einsum("d,bd->b", rows[a], rows[a:])
    for a in range(n):
        g[a + 1 :, a] = g[a, a + 1 :]
    return g


def select_references(
    client_ids: list[int], num_references: int, rng: np.random.Generator
) -> list[int]:
    """Uniform draw of num_references distinct ids, returned ascending."""
    if not 1 <= num_references < len(client_ids):
        raise ValueError(
            f"num_references must be in [1, {len(client_ids) - 1}], "
            f"got {num_references}"
        )
    picked = rng.choice(np.asarray(client_ids), size=num_references, replace=False)
    return sorted(int(i) for i in picked)


def resolve_num_references(config: CorrectionConfig, n_clients: int) -> int:
    return config.num_references if config.num_references else max(1, n_clients // 2)


def plan_round(
    gradients: dict[int, ParamVector],
    config: CorrectionConfig,
    rng: np.random.Generator,
) -> tuple[CorrectionPlan, CorrectionReport]:
    """Decide one round of conflict correction from the Gram matrix alone.

    Returns every client's ordered projections and the report; the uploads
    are read only to build the Gram matrix.
    """
    ids = sorted(gradients)
    if len(ids) < 2:
        raise ValueError("correction needs at least 2 client gradients")
    dim = gradients[ids[0]].shape[0]
    for i in ids:
        if gradients[i].shape != (dim,):
            raise ValueError("client gradients must all share one dimension")

    g = gram([gradients[i] for i in ids])
    position = {cid: p for p, cid in enumerate(ids)}
    report = CorrectionReport()
    plan: CorrectionPlan = {i: [] for i in ids}

    def plan_one(i: int, order: list[int]) -> None:
        """Test upload i against upload j, j in order (positions in ids).

        row[k] = <running, g_k> and q = ||running||^2 are scalars, so a test
        costs O(1) and a projection O(N).
        """
        steps = plan[ids[i]]
        row = g[i].copy()
        q = float(g[i, i])
        for j in order:
            d = float(row[j])
            sq_j = float(g[j, j])
            cos = cosine_from_products(q, sq_j, d)
            report.cosines[(ids[i], ids[j])] = cos
            report.cosine_tests += 1
            if cos < 0:
                c = d / sq_j
                steps.append((ids[j], c))
                row -= c * g[j]
                q = max(0.0, q - c * d)
        report.projections_applied += len(steps)

    if config.mode == "reference":
        m = resolve_num_references(config, len(ids))
        refs = select_references(ids, m, rng)
        report.reference_ids = refs
        ref_array = np.asarray(refs)
        for i in ids:
            if i not in refs:
                order = [position[int(j)] for j in rng.permutation(ref_array)]
                plan_one(position[i], order)
    else:  # pairwise
        for p in range(len(ids)):
            plan_one(p, [j for j in range(len(ids)) if j != p])

    return plan, report


def fold_weights(
    plan: CorrectionPlan, weights: dict[int, float]
) -> dict[int, float]:
    """alpha = w^T M, so that sum_j alpha_j g_j = sum_i w_i corrected_i.

    alpha_j = w_j - sum_i w_i c_ij, with the products subtracted in ascending
    i and then plan order, in Python float arithmetic.  Without projections
    alpha equals weights exactly.
    """
    alpha = dict(weights)
    for i in sorted(plan):
        for j, c in plan[i]:
            alpha[j] -= weights[i] * c
    return alpha


def correct_round(
    gradients: dict[int, ParamVector],
    config: CorrectionConfig,
    rng: np.random.Generator,
) -> tuple[dict[int, ParamVector], CorrectionReport]:
    """Apply one round of conflict correction to the uploaded gradients.

    ``plan_round`` decides the projections; each is then materialised as one
    scale_add r <- r - c g_j, in plan order.  The input mapping is never
    mutated; untouched gradients appear in the output as the same objects.
    """
    plan, report = plan_round(gradients, config, rng)
    corrected: dict[int, ParamVector] = {}
    for i, steps in plan.items():
        running = gradients[i]
        for j, c in steps:
            running = scale_add(running, -c, gradients[j])
        corrected[i] = running
    return corrected, report

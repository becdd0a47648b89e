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

pairwise mode: every ordered pair (p, q), p != q, in ascending row order;
the running, partially corrected g_p is tested against the *original*
upload in row q.

Every test runs in coefficient space (the Gram formulation of PCGrad, Yu et
al. 2020, arXiv:2001.06782).  The Gram matrix G[a, b] = <g_a, g_b> of the
original uploads is built once per round as U U^T (``gram``; why its bytes
do not depend on the BLAS thread count is stated there).  For the running
vector r of client i the scalars row[k] = <r, g_k> and q = ||r||^2 start as
G[i] and G[i, i]; a test against j reads d = row[j], and a projection with
coefficient c = d / G[j, j] updates them as row -= c * G[j] and
q = max(0, q - c * d).

``plan_round`` decides every projection from G alone and folds each into
the aggregate's weights as it is decided, so a round needs no corrected
vector: sum_q alpha_q g_q is the weighted sum of the corrected uploads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

CORRECTION_MODES = ("reference", "pairwise")


@dataclass
class CorrectionReport:
    """What one round of correction did, for metrics and audit, in rows of
    U: cosines[(p, q)] tests row p's running vector against row q."""

    references: list[int] = field(default_factory=list)  # ascending
    cosines: dict[tuple[int, int], float] = field(default_factory=dict)
    # (p, q, c) in the order decided: row p's running vector took
    # r <- r - c * g_q, with g_q the original upload in row q of U
    projections: list[tuple[int, int, float]] = field(default_factory=list)

    def summary(self, ids: list[int]) -> dict:
        """The report for a summary, row p labelled with client ids[p]."""
        values = list(self.cosines.values())
        return {
            "references": [ids[p] for p in self.references],
            "cosine_evaluations": len(values),
            "projections_applied": len(self.projections),
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
    tests never see |cos| > 1 from rounding; a NaN stays NaN (no conflict).
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
    cos = float(ab) / denom
    return cos if math.isnan(cos) else min(1.0, max(-1.0, cos))


def gram(uploads: np.ndarray) -> np.ndarray:
    """G = U U^T: G[a, b] = <u_a, u_b> over the rows of ``uploads``, an
    (N, D) array.

    numpy hands ``U @ U.T`` to BLAS syrk, which computes one triangle, and
    mirrors it into the other, so G is exactly symmetric.  On the OpenBLAS
    that numpy ships, each entry is reduced by one thread in one order over
    D, so the bytes do not depend on the BLAS thread count; a subprocess
    test in ``tests/test_correction.py`` checks this under one and two
    threads.
    """
    return uploads @ uploads.T


def select_references(
    n: int, num_references: int, rng: np.random.Generator
) -> list[int]:
    """Uniform draw of num_references distinct rows of n, returned ascending."""
    return sorted(int(p) for p in rng.choice(n, size=num_references, replace=False))


def resolve_num_references(num_references: int, n_clients: int) -> int:
    """The reference-set size: num_references, or max(1, n_clients // 2) for 0."""
    return num_references if num_references else max(1, n_clients // 2)


def plan_round(
    uploads: np.ndarray,
    weights: list[float],
    mode: str,
    num_references: int,
    rng: np.random.Generator,
) -> tuple[list[float], CorrectionReport]:
    """Decide one round of conflict correction from the Gram matrix alone.

    Row p of the (N, D) array uploads has weight weights[p].  mode is one
    of CORRECTION_MODES; num_references (0 = auto) is read only in
    reference mode.  Returns alpha, with sum_q alpha_q g_q = sum_p w_p
    corrected_p, and the report; the uploads are read only to build the
    Gram matrix, and one that is not finite raises ValueError.

    Each projection (p, q, c) does alpha_q -= w_p * c when it is decided,
    in ascending row p and then test order, in Python float arithmetic;
    without projections alpha equals weights exactly.
    """
    n = len(weights)
    g = gram(uploads)
    if not np.isfinite(g).all():
        raise ValueError("Gram matrix of the uploads not finite")
    report = CorrectionReport()
    alpha = list(weights)

    def plan_one(p: int, order: list[int]) -> None:
        """Test row p's running vector against row q, q in order.

        row[k] = <running, g_k> and sq = ||running||^2 are scalars, so a
        test costs O(1) and a projection O(N).
        """
        row = g[p].copy()
        sq = float(g[p, p])
        for q in order:
            d = float(row[q])
            sq_q = float(g[q, q])
            cos = cosine_from_products(sq, sq_q, d)
            report.cosines[(p, q)] = cos
            if cos < 0:
                c = d / sq_q
                report.projections.append((p, q, c))
                alpha[q] -= weights[p] * c
                row -= c * g[q]
                sq = max(0.0, sq - c * d)

    if mode == "reference":
        refs = select_references(n, resolve_num_references(num_references, n), rng)
        report.references = refs
        for p in range(n):
            if p not in refs:
                plan_one(p, rng.permutation(refs).tolist())
    else:  # pairwise
        for p in range(n):
            plan_one(p, [q for q in range(n) if q != p])

    return alpha, report

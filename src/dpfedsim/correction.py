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
original uploads is built once per round.  For the running vector r of
client i the scalars row[k] = <r, g_k> and q = ||r||^2 start as G[i] and
G[i, i]; a test against j reads d = row[j], and a projection with
coefficient c = d / G[j, j] updates them as row -= c * G[j] and
q = max(0, q - c * d).  The only D-length work after the Gram is one
scale_add per projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import ParamVector, scale_add

CORRECTION_MODES = ("reference", "pairwise")


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
    """G[a, b] = <v_a, v_b>, one einsum per unordered pair, read in place.

    einsum runs numpy's own loop, not BLAS, so the bytes do not depend on the
    BLAS thread count; and no (N, D) stack of the vectors is built.
    """
    n = len(vectors)
    g = np.empty((n, n))
    for a in range(n):
        for b in range(a, n):
            g[a, b] = g[b, a] = np.einsum("d,d->", vectors[a], vectors[b])
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


def correct_round(
    gradients: dict[int, ParamVector],
    config: CorrectionConfig,
    rng: np.random.Generator,
) -> tuple[dict[int, ParamVector], CorrectionReport]:
    """Apply one round of conflict correction to the uploaded gradients.

    The input mapping is never mutated; untouched gradients appear in the
    output as the same objects.
    """
    ids = sorted(gradients)
    if len(ids) < 2:
        raise ValueError("correction needs at least 2 client gradients")
    dim = gradients[ids[0]].shape[0]
    for i in ids:
        if gradients[i].shape != (dim,):
            raise ValueError("client gradients must all share one dimension")

    uploads = [gradients[i] for i in ids]
    g = gram(uploads)
    position = {cid: p for p, cid in enumerate(ids)}
    report = CorrectionReport()
    corrected: dict[int, ParamVector] = {}

    def correct_one(i: int, order: list[int]) -> ParamVector:
        """Test upload i against uploads[j], j in order (positions in ids).

        row[k] = <running, uploads[k]> and q = ||running||^2 are scalars, so a
        test costs O(1) and a projection O(N) plus one scale_add.
        """
        running = uploads[i]
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
                running = scale_add(running, -c, uploads[j])
                row -= c * g[j]
                q = max(0.0, q - c * d)
                report.projections_applied += 1
        return running

    if config.mode == "reference":
        m = resolve_num_references(config, len(ids))
        refs = select_references(ids, m, rng)
        report.reference_ids = refs
        ref_array = np.asarray(refs)
        for i in refs:
            corrected[i] = gradients[i]
        for i in ids:
            if i in corrected:
                continue
            order = [position[int(j)] for j in rng.permutation(ref_array)]
            corrected[i] = correct_one(position[i], order)
    else:  # pairwise
        for p in range(len(ids)):
            order = [j for j in range(len(ids)) if j != p]
            corrected[ids[p]] = correct_one(p, order)

    return corrected, report

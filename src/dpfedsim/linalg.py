"""Flat-vector numeric kernel.

Every model, gradient, and update in this package is a 1-D float64 array of
fixed length D.  All reductions here accumulate strictly left to right
(index 0 upward), so a result never depends on thread count, chunking, or
rerun — the same inputs give the same bits.  ``np.add.accumulate`` performs
a sequential pairwise-free scan and is bitwise identical to an explicit
Python loop (property-tested), at C speed.

These ordered reductions serve correction and the server step.  The DP
step's per-sample norms and clipped sums (``model.clipped_gradient_sum``)
come from numpy reductions and BLAS matrix products instead; a subprocess
test in ``tests/test_cli.py`` checks that their output bytes do not change
with the BLAS thread count.
"""

from __future__ import annotations

import numpy as np

# Type alias used throughout the package: a 1-D float64 ndarray.
ParamVector = np.ndarray


def as_vector(values) -> ParamVector:
    """Coerce to a 1-D float64 array, rejecting higher-rank input."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a flat vector, got array of shape {v.shape}")
    return v


def _check_lengths(a: ParamVector, b: ParamVector) -> None:
    if a.shape[0] != b.shape[0]:
        raise ValueError(
            f"vector length mismatch: {a.shape[0]} vs {b.shape[0]}"
        )


def dot(a: ParamVector, b: ParamVector) -> float:
    """Inner product accumulated in fixed index order (bit-reproducible)."""
    _check_lengths(a, b)
    if a.shape[0] == 0:
        return 0.0
    return float(np.add.accumulate(np.multiply(a, b))[-1])


def l2_norm(a: ParamVector) -> float:
    return float(np.sqrt(dot(a, a)))


def scale_add(a: ParamVector, c: float, b: ParamVector) -> ParamVector:
    """Return a + c*b as a new vector; inputs are left untouched."""
    _check_lengths(a, b)
    return a + c * b


def cosine(a: ParamVector, b: ParamVector) -> float:
    """Cosine similarity, defined as 0.0 when either vector is all zeros.

    The denominator is sqrt(dot(a,a) * dot(b,b)) — one square root instead of
    two keeps exactly parallel vectors at exactly +/-1 — with a two-root
    fallback when the product overflows.  The quotient is clamped to [-1, 1]
    so downstream sign tests never see |cos| > 1 from rounding.
    """
    qa = dot(a, a)
    qb = dot(b, b)
    if qa == 0.0 or qb == 0.0:
        return 0.0
    product = qa * qb
    if np.isfinite(product) and product > 0.0:
        denom = float(np.sqrt(product))
    else:  # product over- or underflowed; take the roots separately
        denom = float(np.sqrt(qa)) * float(np.sqrt(qb))
    if denom == 0.0:  # norms so small even their product underflows
        return 0.0
    return float(min(1.0, max(-1.0, dot(a, b) / denom)))

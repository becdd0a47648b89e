"""Flat-vector numeric kernel.

Every model, gradient, and update in this package is a 1-D float64 array of
fixed length D.  ``dot`` accumulates strictly left to right (index 0
upward) with ``np.add.accumulate``, a sequential scan that is bitwise
identical to an explicit Python loop (property-tested), at C speed; the same
inputs give the same bits whatever the thread count.

``dot`` serves the dp_fedexp server step.  ``weighted_sum`` forms every
aggregate, the folded gcfl update included, as elementwise axpys in
ascending id order.  Correction reads its inner products from a blocked
Gram matrix of einsum dots (``correction.gram``), which does not call BLAS.
The DP step's per-sample norms and clipped sums
(``model.clipped_gradient_sum``) and the forward pass use numpy reductions
and BLAS matrix products.  Subprocess tests in ``tests/test_cli.py`` and
``tests/test_correction.py`` check that output bytes do not change between
one and two BLAS threads, on small layer sizes for whole runs and at the
full 101,770-parameter shape for correction and the folded aggregate.
Whole runs at 784-128-10 are not invariant: OpenBLAS splits the forward
products differently by thread count (see ROADMAP item 3).
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


def scale_add(a: ParamVector, c: float, b: ParamVector) -> ParamVector:
    """Return a + c*b as a new vector; inputs are left untouched."""
    _check_lengths(a, b)
    return a + c * b



def weighted_sum(
    vectors: dict[int, ParamVector], coefs: dict[int, float]
) -> ParamVector:
    """sum_i coefs[i] * vectors[i], as out = out + c_i * v_i from zeros in
    ascending key order (a fixed order, so the bytes are reproducible)."""
    ids = sorted(vectors)
    out = np.zeros_like(vectors[ids[0]])
    for i in ids:
        out = out + coefs[i] * vectors[i]
    return out

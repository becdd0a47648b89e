"""Flat-vector numeric kernel.

Every model, gradient, and update in this package is a 1-D float64 array of
fixed length D; a round's uploads are the rows of one (P, D) array, in
ascending client id.  ``weighted_sum`` forms every aggregate, the folded
gcfl update included, as in-place elementwise axpys over those rows in
order, which no BLAS thread count changes.  Correction reads its inner
products from one BLAS syrk (``correction.gram``), whose bytes do not
depend on the thread count either; the dp_fedexp server step reads its
norms as einsum dots.  The DP step's per-sample norms and clipped sums
(``model.clipped_gradient_sum``) and the forward pass use numpy reductions
and BLAS matrix products.  Subprocess tests in ``tests/test_cli.py`` and
``tests/test_correction.py`` check that output bytes do not change between
one and two BLAS threads, on small layer sizes for whole runs and at the
full 101,770-parameter shape for the Gram, correction and the folded
aggregate.  Whole runs at 784-128-10 are not invariant: OpenBLAS splits the
forward products differently by thread count (see ROADMAP item 2).
"""

from __future__ import annotations

import numpy as np

# Type alias used throughout the package: a 1-D float64 ndarray.
ParamVector = np.ndarray


def scale_add(a: ParamVector, c: float, b: ParamVector) -> ParamVector:
    """Return a + c*b as a new vector; inputs are left untouched."""
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"vector length mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a + c * b


def weighted_sum(rows, coefs) -> ParamVector:
    """sum_k coefs[k] * rows[k], as out += c_k * v_k from zeros in row order
    (a fixed order, so the bytes are reproducible).  rows is an (N, D) array
    or a sequence of N vectors; coefs holds N floats.

    Keep it an axpy loop: the GEMV ``coefs @ rows`` gave different bytes
    under one and two OpenBLAS threads at D = 101,770 (for 11, 13, 32 and
    64 rows), while elementwise axpys do not depend on the thread count."""
    out = np.zeros_like(rows[0])
    for c, v in zip(coefs, rows, strict=True):
        out += c * v
    return out

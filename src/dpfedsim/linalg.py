"""Flat-vector numeric kernel, and the one-thread BLAS pin.

Every model, gradient, and update in this package is a 1-D float64 array of
fixed length D; a round's uploads are the rows of one (P, D) array, in
ascending client id.  ``weighted_sum`` forms every aggregate, the folded
gcfl update included, as in-place elementwise axpys over those rows in
order, which no BLAS thread count changes.  Correction reads its inner
products from one BLAS syrk (``correction.gram``), whose bytes do not
depend on the thread count either; the dp_fedexp server step reads its
norms as einsum dots.  The DP step's per-sample norms and clipped sums
(``model.clipped_gradient_sum``) and the forward pass use numpy reductions
and BLAS matrix products, which OpenBLAS splits differently by thread
count at 784-128-10.  So a run holds ``one_blas_thread`` for its whole
life: with BLAS on one thread, every product is reduced in one order,
whichever Python thread calls it and whatever thread count the caller set.
Subprocess tests in ``tests/test_cli.py`` and ``tests/test_correction.py``
check that output bytes do not change between one and two BLAS threads,
for whole runs on small layer sizes and at 784-128-10, and for the Gram,
correction and the folded aggregate at the full 101,770-parameter shape.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from collections.abc import Iterator
from contextlib import contextmanager

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


@functools.cache
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS that numpy's wheel
    ships in ``numpy.libs``, or None when there is no such library.

    Found and called through ctypes the way threadpoolctl does
    (https://github.com/joblib/threadpoolctl): loading the file numpy
    already loaded returns the same library, so its setting is numpy's.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        return get, set_
    return None


@contextmanager
def one_blas_thread() -> Iterator[bool]:
    """Run the block with BLAS on one thread; yield whether it could be set.

    On exit, normal or not, the thread count the caller had is restored, so
    the pin nests.  Yields False, and changes nothing, when no controllable
    BLAS is found; output bytes may then depend on the thread count.
    """
    blas = _openblas()
    if blas is None:
        yield False
        return
    get, set_ = blas
    saved = get()
    set_(1)
    try:
        yield True
    finally:
        set_(saved)

"""Flat-vector numeric kernel, and the one-thread BLAS pin.

Every model, gradient, and update in this package is a 1-D float64 array of
fixed length D; a round's uploads are the rows of one (P, D) array, in
ascending client id.  ``weighted_sum`` forms every aggregate, the folded
gcfl update included, as in-place elementwise axpys over those rows in
order, which no BLAS thread count changes.  Correction reads its inner
products from one BLAS syrk (``correction.gram``), whose bytes do not
depend on the thread count either.  The DP step's per-sample norms and
clipped sums (``model.clipped_gradient_sum``) and the forward pass use
numpy reductions and BLAS matrix products, which OpenBLAS splits
differently by thread count at 784-128-10, as does the QR of the
synthetic class centres at 3000 features and 200 classes.  So a command
holds ``one_blas_thread`` for its whole life, data build included
(``federation.pinned_worker``): with BLAS on one thread, every product is
reduced in one order, whichever Python thread calls it and whatever
thread count the caller set.  Subprocess tests check that output bytes do
not change between one and two BLAS threads: ``tests/test_determinism.py``
for whole runs at 784-128-10, where a missing pin changes the bytes, and
``tests/test_correction.py`` for the Gram, correction and the folded
aggregate at the full 101,770-parameter shape.
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


_BLOCK = 8192  # entries per block of a blocked loop's temporary (64 KiB)


def block(n: int) -> np.ndarray:
    """A float64 temporary for ``blocks`` over n >= 1 entries: _BLOCK
    entries, or n if fewer."""
    return np.empty(min(_BLOCK, n))


def blocks(tmp: np.ndarray, n: int) -> Iterator[tuple[int, np.ndarray]]:
    """(lo, t) for each block [lo, lo + t.size) of range(n), in order, with
    t the first t.size entries of tmp: every block but the last is tmp's
    size.  An elementwise loop over the blocks has the bytes of the same
    loop over whole vectors, without a full-length temporary."""
    for lo in range(0, n, tmp.size):
        yield lo, tmp[: min(tmp.size, n - lo)]


def add_scaled(out: ParamVector, c: float, v: ParamVector) -> None:
    """out += c * v in place, block by block through one 64 KiB temporary:
    each entry is out_i + (c * v_i), the bytes of ``out += c * v`` without
    its full-length temporary."""
    n = out.shape[0]
    for lo, t in blocks(block(n), n):
        out[lo : lo + t.size] += np.multiply(c, v[lo : lo + t.size], out=t)


def weighted_sum(rows, coefs) -> ParamVector:
    """sum_k coefs[k] * rows[k], as out += c_k * v_k from zeros in row order
    (a fixed order, so the bytes are reproducible).  rows is an (N, D) array
    or a sequence of N vectors; coefs holds N floats.  Each axpy goes
    through ``add_scaled``, so the sum is the only D-length vector made.

    Keep it an axpy loop: the GEMV ``coefs @ rows`` gave different bytes
    under one and two OpenBLAS threads at D = 101,770 (for 11, 13, 32 and
    64 rows), while elementwise axpys do not depend on the thread count."""
    out = np.zeros_like(rows[0])
    for c, v in zip(coefs, rows, strict=True):
        add_scaled(out, c, v)
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

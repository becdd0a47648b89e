"""``linalg``'s kernels against the plain numpy expressions they replace,
to the byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpfedsim import linalg
from dpfedsim.linalg import add_scaled, weighted_sum


@pytest.mark.parametrize("n", [1, 8191, 8192, 8193, 3 * 8192 + 1, 101_770])
@pytest.mark.parametrize("c", [-2.5, 0.0, 1e-3])
def test_add_scaled_is_out_plus_c_v_at_the_block_edges(n, c):
    """Each entry is out_i + (c * v_i) on either side of every edge of the
    8,192-entry blocks, whole and partial, and v is left untouched."""
    assert linalg._BLOCK == 8192
    rng = np.random.default_rng(n)
    out, v = rng.standard_normal(n), rng.standard_normal(n) * 1e3
    v_bytes, want = v.tobytes(), out + c * v
    add_scaled(out, c, v)
    assert out.tobytes() == want.tobytes()
    assert v.tobytes() == v_bytes


@given(
    st.integers(1, 12),
    st.sampled_from([1, 7, 8193]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_weighted_sum_is_the_naive_ascending_loop(n, dim, seed):
    """sum_k coefs[k] rows[k] is out = out + c_k v_k from zeros, k ascending,
    for an (N, D) array and for a list of its rows, on rows of norms over
    six decades."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    coefs = rng.standard_normal(n).tolist()
    want = np.zeros(dim)
    for c, v in zip(coefs, rows):
        want = want + c * v
    assert weighted_sum(rows, coefs).tobytes() == want.tobytes()
    assert weighted_sum(list(rows), coefs).tobytes() == want.tobytes()

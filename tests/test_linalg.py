import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import as_vector, cosine, dot, l2_norm, scale_add

finite_floats = st.floats(
    min_value=-1e100, max_value=1e100, allow_nan=False, allow_infinity=False
)
vectors = st.lists(finite_floats, min_size=1, max_size=64)


def python_loop_dot(a, b):
    """Left-to-right fold of the products, the reference for bit-reproducibility.

    Seeded with the first product rather than +0.0 so signed zeros come out
    the same way the sequential scan produces them.
    """
    total = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        total = total + x * y
    return total


def test_dot_worked_examples():
    assert dot(as_vector([1, 0]), as_vector([0, 1])) == 0.0
    assert dot(as_vector([1, 2, 3]), as_vector([1, 2, 3])) == 14.0
    assert dot(as_vector([1, -1]), as_vector([0, 2])) == -2.0


@given(vectors)
def test_dot_matches_sequential_python_loop_bitwise(values):
    a = as_vector(values)
    b = as_vector(values[::-1])
    expected = python_loop_dot(a, b)
    got = dot(a, b)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


@given(vectors)
def test_dot_symmetric_bitwise(values):
    a = as_vector(values)
    b = as_vector([v / 3 for v in values])
    assert dot(a, b) == dot(b, a)


def test_dot_large_vector_matches_loop_bitwise():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(101_770)
    b = rng.standard_normal(101_770)
    assert dot(a, b) == python_loop_dot(a, b)


def test_l2_norm_examples():
    assert l2_norm(as_vector([3, 4])) == 5.0
    assert l2_norm(as_vector([0, 0, 0])) == 0.0
    assert l2_norm(as_vector([1, 1, 1, 1])) == 2.0


def test_scale_add_examples():
    np.testing.assert_array_equal(
        scale_add(as_vector([1, 1]), 2.0, as_vector([0, 1])), [1.0, 3.0]
    )
    a = as_vector([4.0, -2.5])
    np.testing.assert_array_equal(scale_add(a, 0.0, as_vector([9, 9])), a)
    np.testing.assert_array_equal(
        scale_add(as_vector([0, 0]), 1.0, as_vector([5, -5])), [5.0, -5.0]
    )


def test_scale_add_leaves_inputs_untouched():
    a = as_vector([1.0, 2.0])
    b = as_vector([3.0, 4.0])
    scale_add(a, 2.0, b)
    np.testing.assert_array_equal(a, [1.0, 2.0])
    np.testing.assert_array_equal(b, [3.0, 4.0])


moderate_floats = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-100, max_value=1e50),
    st.floats(min_value=-1e50, max_value=-1e-100),
)


@given(
    st.lists(moderate_floats, min_size=1, max_size=32),
    st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=-1e3, max_value=-1e-3),
    ),
)
def test_norm_homogeneity(values, c):
    a = as_vector(values)
    zero = np.zeros_like(a)
    lhs = l2_norm(scale_add(zero, c, a))
    rhs = abs(c) * l2_norm(a)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=0.0) or (lhs == 0 and rhs == 0)


def test_cosine_examples():
    assert cosine(as_vector([1, 1]), as_vector([2, 2])) == 1.0
    assert cosine(as_vector([1, 0]), as_vector([-1, 0])) == -1.0
    assert cosine(as_vector([1, 0]), as_vector([0, 0])) == 0.0


@given(vectors, vectors)
@settings(max_examples=200)
def test_cosine_always_clamped(xs, ys):
    n = min(len(xs), len(ys))
    a = as_vector(xs[:n])
    b = as_vector(ys[:n])
    assert abs(cosine(a, b)) <= 1.0

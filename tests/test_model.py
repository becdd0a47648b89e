import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpfedsim import model
from dpfedsim.data import features, features_into
from dpfedsim.model import MlpSpec, init_params, unpack
from oracle import gamma, logits_batch

SMALL = MlpSpec((6, 5, 3))


def kernel_losses(spec, w, X, labels):
    """The per-sample losses ``model.clipped_gradient_sum`` returns."""
    return model.clipped_gradient_sum(
        spec, w, X, np.asarray(labels), 1.0, np.empty(spec.num_params)
    )[0]


def test_param_count_mnist_shape():
    assert MlpSpec((784, 128, 10)).num_params == 101_770


def test_param_count_small():
    # 6*5+5 + 5*3+3 = 53
    assert SMALL.num_params == 53
    assert MlpSpec((4, 3, 2)).num_params == 23


def test_spec_validation():
    with pytest.raises(ValueError):
        MlpSpec((5,))
    with pytest.raises(ValueError):
        MlpSpec((5, 0, 3))
    with pytest.raises(ValueError):
        MlpSpec((5, 4, 1))  # single-class output is not a classifier


def test_unpack_layout_row_major_weights_then_bias():
    spec = MlpSpec((2, 3, 2))
    w = np.arange(spec.num_params, dtype=np.float64)
    layers = unpack(spec, w)
    np.testing.assert_array_equal(layers[0][0], [[0, 1, 2], [3, 4, 5]])
    np.testing.assert_array_equal(layers[0][1], [6, 7, 8])
    np.testing.assert_array_equal(layers[1][0], [[9, 10], [11, 12], [13, 14]])
    np.testing.assert_array_equal(layers[1][1], [15, 16])


def test_init_params_glorot_bounds_and_zero_bias():
    spec = MlpSpec((30, 20, 10))
    w = init_params(spec, np.random.default_rng(3))
    layers = unpack(spec, w)
    for weight, bias in layers:
        n_in, n_out = weight.shape
        limit = np.sqrt(6.0 / (n_in + n_out))
        assert np.all(np.abs(weight) <= limit)
        assert np.all(bias == 0.0)
    # same seed, same bits; different seed, different params
    np.testing.assert_array_equal(w, init_params(spec, np.random.default_rng(3)))
    assert not np.array_equal(w, init_params(spec, np.random.default_rng(4)))


def test_forward_rows_sum_to_one():
    """The kernel's losses of one sample under each label are -log of a
    distribution: the softmax's row, in (0, 1) and summing to 1."""
    rng = np.random.default_rng(0)
    for _ in range(100):
        w = init_params(SMALL, np.random.default_rng(rng.integers(1 << 31)))
        x = rng.random(6)
        probs = np.exp(-kernel_losses(SMALL, w, np.tile(x, (3, 1)), [0, 1, 2]))
        assert np.all(probs > 0) and np.all(probs < 1)
        assert abs(probs.sum() - 1.0) <= 1e-12


def test_forward_handles_extreme_logits():
    """Logits of +-1000 saturate the softmax, not overflow it: the losses,
    floored at -log(1e-15), the norms and the sum stay finite."""
    spec = MlpSpec((2, 2))
    w = np.array([1000.0, -1000.0, 0.0, 0.0, 0.0, 0.0])
    X = np.array([[1.0, 0.0], [1.0, 0.0]])
    losses, sq_norms, clipped = model.clipped_gradient_sum(
        spec, w, X, np.array([0, 1]), 1.0, np.empty(6)
    )
    assert 0.0 <= losses[0] < 1e-6
    assert losses[1] == pytest.approx(-np.log(1e-15), rel=1e-15)
    assert np.isfinite(sq_norms).all() and np.isfinite(clipped).all()
    assert model.predict(spec, w, X).tolist() == [0, 0]


def test_forward_invariant_to_final_bias_shift():
    rng = np.random.default_rng(5)
    w = init_params(SMALL, np.random.default_rng(11))
    X = np.tile(rng.random(6), (3, 1))
    base = kernel_losses(SMALL, w, X, [0, 1, 2])
    w2 = w.copy()
    layers = unpack(SMALL, w2)
    layers[-1][1][...] += 7.3  # constant shift of every output logit
    shifted = kernel_losses(SMALL, w2, X, [0, 1, 2])
    np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-12)


def test_batch_losses_are_those_of_single_rows():
    # batched and single-row matmuls may dispatch to different BLAS kernels,
    # so agreement is to tolerance, not bitwise
    rng = np.random.default_rng(2)
    w = init_params(SMALL, np.random.default_rng(8))
    xs = rng.random((7, 6))
    ys = rng.integers(0, 3, size=7)
    batch = kernel_losses(SMALL, w, xs, ys)
    for i in range(7):
        assert batch[i] == pytest.approx(
            kernel_losses(SMALL, w, xs[i : i + 1], ys[i : i + 1])[0], rel=0, abs=1e-12
        )


def test_predict_breaks_ties_toward_lower_index():
    # zero weights and biases give equal logits: a tie on every class
    spec = MlpSpec((4, 3))
    w = np.zeros(spec.num_params)
    assert model.predict(spec, w, np.ones((2, 4))).tolist() == [0, 0]


# float32's unit roundoff: a rounded result is x (1 + d) with |d| <= u
U32 = 2.0**-24


def prediction_margins(spec, w, X):
    """Per row, a logit gap above which predict on float32 X, with w cast
    to float32, must give the float64 oracle's label.

    Take the exact forward pass from X and w, with layer inputs h and
    outputs z.  A computed layer forms fl(fl(h^ W^) + b^) from its computed
    input h^ and, in float32, from copies W^ and b^ of W and b within
    relative u of them.  A product term of its length-n inner products
    carries at most n + 2 rounding factors (the weight's cast, n for the
    sum in any order, the bias add) and the bias term at most 2, so
        |z^ - z| <= |h^ - h| |W| + gamma_{n+2} (|h^| |W| + |b|),
    and relu, 1-Lipschitz, passes the bound to the next layer.  With e64
    and e32 the bounds on |h^ - h| of the float64 oracle and of float32,
    and a = |h^| of the oracle, |h^| <= a for the oracle and
    |h^| <= a + e64 + e32 for float32.  The input starts at e64 = 0 and
    e32 = u |X|.  The logits' bounds E64 (u = 2^-53) and E32 (u = 2^-24)
    then give the margin: a row whose float64 top-two gap exceeds
    2 max_j (E32 + E64)_j has one argmax in both.  The factor 1 + 2^-20
    covers this bound's own float64 rounding.  So the margin is set by
    u = 2^-24 and the layer sizes, through gamma_{n+2}, given the row's
    features and the weights."""
    h = np.asarray(X, dtype=np.float64)
    e32, e64 = U32 * np.abs(h), np.zeros_like(h)
    for weight, bias in unpack(spec, w):
        n = weight.shape[0]
        g32, g64 = gamma(n + 2, U32), gamma(n + 2)
        a, abs_w, abs_b = np.abs(h), np.abs(weight), np.abs(bias)
        e32, e64 = (
            (e32 + g32 * (a + e32 + e64)) @ abs_w + g32 * abs_b,
            (e64 + g64 * a) @ abs_w + g64 * abs_b,
        )
        h = np.maximum(h @ weight + bias, 0.0)  # past the last layer: unused
    return 2.0 * np.max(e32 + e64, axis=1) * (1 + 2.0**-20)


def check_predict_against_oracle(spec, w, X64):
    """predict on float32 X64 gives the oracle's label on every row whose
    float64 top-two logit gap exceeds its margin, and on float64 X64 the
    oracle's label on every row; returns the share of rows checked."""
    X32 = X64.astype(np.float32)
    logits = logits_batch(spec, w, X64)
    want = np.argmax(logits, axis=1)
    top_two = np.sort(logits, axis=1)[:, -2:]
    checked = top_two[:, 1] - top_two[:, 0] > prediction_margins(spec, w, X64)
    got = model.predict(spec, w.astype(np.float32), X32)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got[checked], want[checked])
    np.testing.assert_array_equal(model.predict(spec, w, X64), want)
    return float(np.mean(checked))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=3),
    st.integers(2, 6),
    st.integers(1, 40),
    st.floats(0.01, 4.0),
    st.integers(0, 2**32 - 1),
)
def test_predict_in_float32_gives_the_oracles_label_beyond_the_margin(
    hidden, classes, rows, scale, seed
):
    """Small specs, signed features and weights of any scale, nonzero
    biases."""
    spec = MlpSpec((*hidden, classes))
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(spec.num_params) * scale
    X = rng.standard_normal((rows, spec.layer_sizes[0]))
    check_predict_against_oracle(spec, w, X)


def test_predict_on_the_benchmark_shape_checks_most_rows():
    """784-128-10 on float32 level / 255 features of random levels, from
    Glorot weights moved by noise: the margin leaves most rows checked."""
    spec = MlpSpec((784, 128, 10))
    rng = np.random.default_rng(30)
    w = init_params(spec, rng)
    w += rng.standard_normal(spec.num_params) * 0.02
    levels = rng.integers(0, 256, size=(600, 784), dtype=np.uint8)
    X64 = features(levels)
    # the float32 features a run builds are the float64 ones rounded once
    X32 = features_into(levels, np.empty(levels.shape, np.float32))
    assert X32.tobytes() == X64.astype(np.float32).tobytes()
    assert check_predict_against_oracle(spec, w, X64) >= 0.9

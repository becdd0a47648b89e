import numpy as np
import pytest

from dpfedsim.model import MlpSpec, forward_batch, init_params, unpack
from oracle import forward, loss, loss_and_gradient, per_sample_gradient, predict

SMALL = MlpSpec((6, 5, 3))


def finite_difference_gradient(spec, w, x, label, h=1e-5):
    """Central differences on the scalar loss, one coordinate at a time."""
    grad = np.zeros_like(w)
    for k in range(w.shape[0]):
        wp = w.copy()
        wp[k] += h
        wm = w.copy()
        wm[k] -= h
        lp = loss(spec, wp, x[None, :], [label])
        lm = loss(spec, wm, x[None, :], [label])
        grad[k] = (lp - lm) / (2 * h)
    return grad


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
    w = init_params(spec, seed=3)
    layers = unpack(spec, w)
    for weight, bias in layers:
        n_in, n_out = weight.shape
        limit = np.sqrt(6.0 / (n_in + n_out))
        assert np.all(np.abs(weight) <= limit)
        assert np.all(bias == 0.0)
    # same seed, same bits; different seed, different params
    np.testing.assert_array_equal(w, init_params(spec, seed=3))
    assert not np.array_equal(w, init_params(spec, seed=4))


def test_forward_rows_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(100):
        w = init_params(SMALL, rng.integers(1 << 31))
        x = rng.random(6)
        probs = forward(SMALL, w, x)
        assert probs.shape == (3,)
        assert np.all(probs > 0) and np.all(probs < 1)
        assert abs(probs.sum() - 1.0) <= 1e-12


def test_forward_handles_extreme_logits():
    # huge final-layer weights should saturate, not overflow
    spec = MlpSpec((2, 2))
    w = np.array([1000.0, -1000.0, 0.0, 0.0, 0.0, 0.0])
    probs = forward(spec, w, np.array([1.0, 0.0]))
    assert np.isfinite(probs).all()
    assert probs[0] > 0.999999


def test_forward_invariant_to_final_bias_shift():
    rng = np.random.default_rng(5)
    w = init_params(SMALL, 11)
    x = rng.random(6)
    base = forward(SMALL, w, x)
    w2 = w.copy()
    layers = unpack(SMALL, w2)
    layers[-1][1][...] += 7.3  # constant shift of every output logit
    shifted = forward(SMALL, w2, x)
    np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-12)


def test_batch_loss_is_mean_of_singles():
    rng = np.random.default_rng(2)
    w = init_params(SMALL, 8)
    xs = rng.random((7, 6))
    ys = rng.integers(0, 3, size=7)
    batch = loss(SMALL, w, xs, ys)
    singles = [loss(SMALL, w, xs[i][None, :], [ys[i]]) for i in range(7)]
    assert batch == pytest.approx(np.mean(singles), rel=0, abs=1e-12)


def test_loss_rejects_empty_batch_and_bad_labels():
    w = init_params(SMALL, 1)
    with pytest.raises(ValueError, match="empty"):
        loss(SMALL, w, np.zeros((0, 6)), [])
    with pytest.raises(ValueError, match="range"):
        loss(SMALL, w, np.zeros((1, 6)), [3])


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(20):
        w = init_params(SMALL, 1000 + trial)
        w += rng.standard_normal(w.shape) * 0.1  # nonzero biases too
        x = rng.random(6)
        label = int(rng.integers(0, 3))
        analytic = per_sample_gradient(SMALL, w, x, label)
        numeric = finite_difference_gradient(SMALL, w, x, label)
        rel = np.max(np.abs(analytic - numeric) / (np.abs(numeric) + 1e-4))
        worst = max(worst, rel)
    assert worst <= 1e-4


def test_loss_and_gradient_consistent_with_loss():
    w = init_params(SMALL, 77)
    x = np.linspace(0, 1, 6)
    value, grad = loss_and_gradient(SMALL, w, x, 2)
    assert value == pytest.approx(loss(SMALL, w, x[None, :], [2]), abs=1e-12)
    assert grad.shape == w.shape
    assert np.isfinite(grad).all()


def test_gradient_rejects_bad_shapes():
    w = init_params(SMALL, 1)
    with pytest.raises(ValueError):
        per_sample_gradient(SMALL, w, np.zeros(5), 0)
    with pytest.raises(ValueError):
        per_sample_gradient(SMALL, w[:-1], np.zeros(6), 0)
    with pytest.raises(ValueError):
        per_sample_gradient(SMALL, w, np.zeros(6), 3)


def test_predict_breaks_ties_toward_lower_index():
    # zero weights and biases give uniform probabilities: tie on every class
    spec = MlpSpec((4, 3))
    w = np.zeros(spec.num_params)
    assert predict(spec, w, np.ones(4)) == 0


def test_forward_batch_matches_single():
    # batched and single-row matmuls may dispatch to different BLAS kernels,
    # so agreement is to tolerance, not bitwise
    rng = np.random.default_rng(9)
    w = init_params(SMALL, 21)
    xs = rng.random((5, 6))
    batch = forward_batch(SMALL, w, xs)
    for i in range(5):
        np.testing.assert_allclose(
            batch[i], forward(SMALL, w, xs[i]), rtol=0, atol=1e-12
        )


def test_deeper_network_gradient_also_matches():
    spec = MlpSpec((5, 7, 6, 4))
    rng = np.random.default_rng(31)
    w = init_params(spec, 13) + rng.standard_normal(spec.num_params) * 0.05
    x = rng.random(5)
    analytic = per_sample_gradient(spec, w, x, 1)
    numeric = finite_difference_gradient(spec, w, x, 1)
    assert np.max(np.abs(analytic - numeric) / (np.abs(numeric) + 1e-4)) <= 1e-4

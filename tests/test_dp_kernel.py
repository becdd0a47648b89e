"""The batched clipping kernel against the one-sample-at-a-time oracle.

``model.clipped_gradient_sum`` never builds a per-sample gradient, so each
case here builds them with ``oracle.loss_and_gradient``, clips each with
``oracle.clip_gradient`` and compares.

Weights and features lie on a coarse binary grid (multiples of 1/64 and 1/4,
a few units at most), so every product and sum of the forward pass is exact
in the kernel's matrix products and in the oracle's vector products alike:
both see the same logits bit for bit.  The comparison then measures the
kernel's own norm, clip and sum arithmetic.  With arbitrary real inputs the
two forward passes round differently, and near a saturated softmax
(p_label close to 1) the cancellation in p - 1 magnifies that difference
well past 1e-12 in both directions; neither path is the more exact one.
The clip bound of the kernel's own output is checked on arbitrary inputs by
acceptance criterion 1 (``tests/test_acceptance.py``).

Sums are compared relative to the total magnitude of what the kernel adds
up, sum_n s_n ||grad_n||, the scale that rounding in a sum is proportional
to.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpfedsim import model
from dpfedsim.model import MlpSpec, clipped_gradient_sum
from oracle import clip_gradient, dot, l2_norm, loss_and_gradient

RTOL = 1e-12
# absolute slack for squared norms whose products underflow to subnormals
TINY = np.finfo(np.float64).tiny


def kernel(spec, w, X, y, clip):
    """clipped_gradient_sum, its sum written into a new vector."""
    return clipped_gradient_sum(spec, w, X, y, clip, np.empty(spec.num_params))


def oracle_batch(spec, w, X, y, clip):
    """Per-sample (loss, grad, clipped) from the scalar path."""
    out = []
    for x, label in zip(X, y):
        loss, grad = loss_and_gradient(spec, w, x, label)
        out.append((loss, grad, clip_gradient(grad, clip)))
    return out


def check_against_oracle(spec, w, X, y, clip):
    """Assert every kernel output matches the oracle; return the number of
    samples the oracle clipped."""
    losses, sq_norms, clipped_sum = kernel(spec, w, X, y, clip)
    per_sample = oracle_batch(spec, w, X, y, clip)

    want_sum = np.zeros(spec.num_params)
    magnitude = 0.0
    clipped_count = 0
    for n, (loss, grad, clipped) in enumerate(per_sample):
        assert losses[n] == pytest.approx(loss, rel=RTOL, abs=TINY)
        want_sq = dot(grad, grad)
        assert abs(sq_norms[n] - want_sq) <= RTOL * want_sq + TINY
        # criterion-1 clip bound on the factor the kernel applies: its norm,
        # not the oracle's, decides s_n
        s_n = min(1.0, clip / math.sqrt(sq_norms[n])) if sq_norms[n] > 0 else 1.0
        assert l2_norm(s_n * grad) <= clip * (1 + RTOL)
        want_sum = want_sum + clipped
        magnitude += s_n * l2_norm(grad)
        clipped_count += clipped is not grad
    assert l2_norm(clipped_sum - want_sum) <= RTOL * magnitude
    assert l2_norm(clipped_sum) <= len(per_sample) * clip * (1 + RTOL)
    return clipped_count


def grid_params(rng, spec, denominator):
    return rng.integers(-8, 9, spec.num_params) / denominator


def grid_features(rng, size, dim):
    return rng.integers(-8, 9, (size, dim)) / 4.0


@st.composite
def specs(draw):
    hidden = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    return MlpSpec((draw(st.integers(1, 12)), *hidden, draw(st.integers(2, 6))))


@st.composite
def batches(draw):
    spec = draw(specs())
    size = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = grid_params(rng, spec, draw(st.sampled_from([4, 16, 64])))
    X = grid_features(rng, size, spec.layer_sizes[0])
    y = np.asarray(
        draw(st.lists(st.integers(0, spec.num_classes - 1), min_size=size,
                      max_size=size))
    )
    clip = 10.0 ** draw(st.floats(-3.0, 3.0))
    return spec, w, X, y, clip


@given(batches())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_oracle(case):
    check_against_oracle(*case)


def _fixed_case(seed, spec, size):
    rng = np.random.default_rng(seed)
    w = grid_params(rng, spec, 16)
    X = grid_features(rng, size, spec.layer_sizes[0])
    y = rng.integers(0, spec.num_classes, size)
    return w, X, y


def test_every_sample_clipped():
    spec = MlpSpec((7, 9, 5, 4))
    clip = 1e-4
    w, X, y = _fixed_case(1, spec, 48)
    assert check_against_oracle(spec, w, X, y, clip) == 48


def test_no_sample_clipped():
    spec = MlpSpec((7, 9, 5, 4))
    clip = 1e4
    w, X, y = _fixed_case(2, spec, 48)
    assert check_against_oracle(spec, w, X, y, clip) == 0
    # nothing clipped: the sum is the plain sum of the gradients
    plain = sum(g for _, g, _ in oracle_batch(spec, w, X, y, clip))
    np.testing.assert_allclose(
        kernel(spec, w, X, y, clip)[2], plain,
        rtol=0, atol=RTOL * l2_norm(plain),
    )


def test_kernel_on_an_empty_batch_returns_a_zero_sum():
    """An empty Poisson draw still steps: over 0 samples the kernel returns
    empty losses and norms and writes a zero clipped sum."""
    spec = MlpSpec((3, 4, 2))
    w = np.random.default_rng(0).standard_normal(spec.num_params)
    out = np.full(spec.num_params, np.nan)
    losses, sq_norms, clipped = clipped_gradient_sum(
        spec, w, np.zeros((0, 3)), np.zeros(0, np.int64), 1.0, out=out
    )
    assert losses.shape == sq_norms.shape == (0,)
    assert clipped is out
    assert clipped.tobytes() == np.zeros(spec.num_params).tobytes()


def test_kernel_runs_a_float32_batch_in_float64():
    """The DP step stays float64 whatever the features' dtype: a float32
    batch gives the bytes of its float64 cast."""
    spec = MlpSpec((5, 7, 3))
    rng = np.random.default_rng(12)
    w = rng.standard_normal(spec.num_params)
    X32 = rng.standard_normal((9, 5)).astype(np.float32)
    y = rng.integers(0, 3, 9)
    got = kernel(spec, w, X32, y, 0.5)
    want = kernel(spec, w, X32.astype(np.float64), y, 0.5)
    for g, e in zip(got, want):
        assert g.dtype == np.float64
        assert g.tobytes() == e.tobytes()


def test_predict_and_the_kernel_share_one_forward_pass(monkeypatch):
    """Evaluation and the DP step each run the one layer loop once."""
    spec = MlpSpec((3, 4, 2))
    w = np.random.default_rng(0).standard_normal(spec.num_params)
    calls = []
    forward = model._layers

    def counted(*args):
        calls.append(args[2].dtype)
        return forward(*args)

    monkeypatch.setattr(model, "_layers", counted)
    model.predict(spec, w.astype(np.float32), np.zeros((2, 3), np.float32))
    assert calls == [np.float32]
    kernel(spec, w, np.zeros((2, 3)), np.array([0, 1]), 1.0)
    assert calls == [np.float32, np.float64]

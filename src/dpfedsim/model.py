"""Fully connected ReLU network with a softmax cross-entropy head, stored flat.

Parameters live in a single 1-D float64 vector so the rest of the package can
treat a model as a point in R^D.  Layout, per layer l (sizes n_l -> n_{l+1}):
the weight matrix W_l of shape (n_l, n_{l+1}) in row-major order, followed by
the bias b_l of length n_{l+1}.  One forward pass, in its features' dtype,
computes h_{l+1} = relu(h_l @ W_l + b_l) for hidden layers and the logits
h_L @ W_L + b_L on the last.  ``clipped_gradient_sum`` runs it in float64
for a whole minibatch, softmaxes the logits and returns per-sample gradient
norms and the clipped gradient sum.  ``predict`` runs it in its features'
dtype (float32 for a run's test set) and reads the argmax of the logits,
which the softmax would not move.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ParamVector, add_scaled

_PROB_FLOOR = 1e-15  # clamp applied to predicted probabilities before log


@dataclass(frozen=True)
class MlpSpec:
    """Architecture description: layer sizes from input to output."""

    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("layer_sizes needs at least an input and an output layer")
        if any(s < 1 for s in sizes):
            raise ValueError("layer sizes must all be positive")
        if sizes[-1] < 2:
            raise ValueError("output layer needs at least 2 classes")

    @property
    def num_params(self) -> int:
        return sum(
            n_in * n_out + n_out
            for n_in, n_out in zip(self.layer_sizes, self.layer_sizes[1:])
        )

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]


def _check_params(spec: MlpSpec, w: ParamVector) -> None:
    if w.ndim != 1 or w.shape[0] != spec.num_params:
        raise ValueError(
            f"parameter vector has {w.shape} entries, spec wants ({spec.num_params},)"
        )


def unpack(spec: MlpSpec, w: ParamVector) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views (no copies) of (W_l, b_l) per layer over the flat vector."""
    _check_params(spec, w)
    layers = []
    offset = 0
    for n_in, n_out in zip(spec.layer_sizes, spec.layer_sizes[1:]):
        weight = w[offset : offset + n_in * n_out].reshape(n_in, n_out)
        offset += n_in * n_out
        bias = w[offset : offset + n_out]
        offset += n_out
        layers.append((weight, bias))
    return layers


def init_params(spec: MlpSpec, rng: np.random.Generator) -> ParamVector:
    """Glorot-uniform weights (limit sqrt(6/(fan_in+fan_out))) from rng, zero biases."""
    w = np.zeros(spec.num_params, dtype=np.float64)
    for weight, bias in unpack(spec, w):
        n_in, n_out = weight.shape
        limit = np.sqrt(6.0 / (n_in + n_out))
        weight[...] = rng.uniform(-limit, limit, size=(n_in, n_out))
        bias[...] = 0.0
    return w


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of the logits, computed in their array."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def _layers(
    spec: MlpSpec, w: ParamVector, X: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """(inputs of every layer, X first; the last layer's logits) of the
    (n, input_dim) matrix X, computed in X's float dtype: w is cast to it
    once, unless it already has it.  Each layer's output is built in the
    array of its product: x @ W, then + b and the relu in place."""
    if X.ndim != 2 or X.shape[1] != spec.layer_sizes[0]:
        raise ValueError(
            f"features {X.shape} must be (n, feature dimension {spec.layer_sizes[0]})"
        )
    layers = unpack(spec, w.astype(X.dtype, copy=False))
    inputs = [X]
    for weight, bias in layers[:-1]:
        h = inputs[-1] @ weight
        h += bias
        inputs.append(np.maximum(h, 0.0, out=h))
    weight, bias = layers[-1]
    logits = inputs[-1] @ weight
    logits += bias
    return inputs, logits


def predict(spec: MlpSpec, w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The class of each row of the (n, input_dim) matrix X: the argmax of
    the last layer's logits (no softmax), the lowest class on a tie, from a
    forward pass in X's float dtype.  A caller that predicts many chunks
    casts w to that dtype once itself."""
    return np.argmax(_layers(spec, w, X)[1], axis=1)


def _batch_labels(spec: MlpSpec, labels) -> np.ndarray:
    """Labels as a flat int64 array; rejects a bad class."""
    labs = np.asarray(labels, dtype=np.int64).reshape(-1)
    if np.any((labs < 0) | (labs >= spec.num_classes)):
        raise ValueError(f"label out of range [0, {spec.num_classes})")
    return labs


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # einsum, not BLAS: the bits do not depend on the BLAS thread count
    return np.einsum("ij,ij->i", a, b)


def clipped_gradient_sum(
    spec: MlpSpec,
    w: ParamVector,
    features: np.ndarray,
    labels,
    clip_threshold: float,
    shift: ParamVector | None = None,
    out: ParamVector | None = None,
) -> tuple[np.ndarray, np.ndarray, ParamVector]:
    """(losses, sq_norms, clipped_sum) of one batch, from one forward/backward.
    clipped_sum is written into ``out`` when one is given, and no other
    D-length vector is allocated.  An empty batch gives a zero sum.

    Sample n's gradient is g_n = grad_n + v, its loss gradient plus an
    optional shift v.  sq_norms[n] is ||g_n||^2 and clipped_sum is
    sum_n s_n g_n with s_n = min(1, C / ||g_n||), the sum of the per-sample
    gradients clipped to L2 norm C.  No per-sample gradient is built.

    Layer l's weight gradient for sample n is the outer product of its input
    a_n and output delta d_n, so ||grad_n||^2 = sum_l (||a_n||^2 + 1) ||d_n||^2
    (the 1 is the bias), and the layer's clipped sum is A^T (s * D) for the
    weights and sum_n s_n d_n for the bias: one matrix product per layer
    (Goodfellow, arXiv:1510.01799).  A shift adds 2 <grad_n, v> + ||v||^2 to
    the squared norm, with <grad_n, v> = sum_l a_n^T V_l d_n + d_n . v_b, and
    (sum_n s_n) v to the sum.
    """
    labs = _batch_labels(spec, labels)
    if out is None:
        out = np.empty(spec.num_params)
    elif out.shape != (spec.num_params,):
        raise ValueError(f"out has shape {out.shape}, spec wants ({spec.num_params},)")
    inputs, logits = _layers(spec, w, np.asarray(features, dtype=np.float64))
    probs = _softmax_rows(logits)
    if probs.shape[0] != labs.size:
        raise ValueError("features and labels disagree on batch size")
    rows = np.arange(labs.size)
    losses = -np.log(np.maximum(probs[rows, labs], _PROB_FLOOR))

    delta = probs
    delta[rows, labs] -= 1.0  # d loss / d logits for softmax + cross-entropy
    layers = unpack(spec, w)
    deltas = [delta]  # output deltas of every layer, filled from the last
    for l in range(len(layers) - 1, 0, -1):
        # relu derivative: the stored input is already max(z, 0)
        delta = (delta @ layers[l][0].T) * (inputs[l] > 0.0)
        deltas.insert(0, delta)
    sq_norms = sum(
        (_row_dots(a, a) + 1.0) * _row_dots(d, d) for a, d in zip(inputs, deltas)
    )
    if shift is not None:
        cross = sum(
            _row_dots(a @ v_weight + v_bias, d)
            for (v_weight, v_bias), a, d in zip(unpack(spec, shift), inputs, deltas)
        )
        # out holds v * v until the layer sums below overwrite it
        shift_sq = np.sum(np.multiply(shift, shift, out=out))
        sq_norms = np.maximum(sq_norms + 2.0 * cross + shift_sq, 0.0)

    scale = clip_threshold / np.maximum(np.sqrt(sq_norms), clip_threshold)
    for (g_weight, g_bias), a, d in zip(unpack(spec, out), inputs, deltas):
        scaled = d * scale[:, None]
        np.matmul(a.T, scaled, out=g_weight)
        scaled.sum(axis=0, out=g_bias)
    if shift is not None:
        add_scaled(out, np.sum(scale), shift)
    return losses, sq_norms, out

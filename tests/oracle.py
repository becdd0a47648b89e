"""Scalar reference implementations that the package replaced with batched kernels.

``model.clipped_gradient_sum`` computes every per-sample gradient norm and the
clipped gradient sum of a batch without building any per-sample gradient.
These one-sample-at-a-time functions are the slow, obvious form of the same
arithmetic; tests compare the kernel against them.
"""

from __future__ import annotations

import numpy as np

from dpfedsim.linalg import ParamVector, l2_norm
from dpfedsim.model import _PROB_FLOOR, MlpSpec, _softmax_rows, unpack


def loss_and_gradient(
    spec: MlpSpec, w: ParamVector, features: np.ndarray, label: int
) -> tuple[float, ParamVector]:
    """Single-example loss and its gradient w.r.t. the flat parameter vector.

    Backprop with the fused softmax cross-entropy delta (probs - onehot),
    assembled into the same flat layout as the input.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != spec.layer_sizes[0]:
        raise ValueError(
            f"expected a flat feature vector of length {spec.layer_sizes[0]}"
        )
    label = int(label)
    if not 0 <= label < spec.num_classes:
        raise ValueError(f"label out of range [0, {spec.num_classes})")
    layers = unpack(spec, w)

    # forward, keeping activations per layer
    activations = [x]
    h = x
    for weight, bias in layers[:-1]:
        h = np.maximum(h @ weight + bias, 0.0)
        activations.append(h)
    weight, bias = layers[-1]
    probs = _softmax_rows(h @ weight + bias)
    loss_value = -float(np.log(max(probs[label], _PROB_FLOOR)))

    grad = np.zeros(spec.num_params, dtype=np.float64)
    grad_layers = unpack(spec, grad)

    delta = probs.copy()
    delta[label] -= 1.0  # d loss / d logits for softmax + cross-entropy
    for l in range(len(layers) - 1, -1, -1):
        g_weight, g_bias = grad_layers[l]
        np.outer(activations[l], delta, out=g_weight)
        g_bias[...] = delta
        if l > 0:
            # relu derivative: the stored activation is already max(z, 0)
            delta = (layers[l][0] @ delta) * (activations[l] > 0.0)
    return loss_value, grad


def per_sample_gradient(
    spec: MlpSpec, w: ParamVector, features: np.ndarray, label: int
) -> ParamVector:
    return loss_and_gradient(spec, w, features, label)[1]


def clip_gradient(gradient: ParamVector, clip_threshold: float) -> ParamVector:
    """Scale the vector onto the L2 ball of radius clip_threshold.

    Vectors already inside the ball are returned unchanged (same object, same
    bits); callers treat gradients as immutable.
    """
    if not clip_threshold > 0:
        raise ValueError("clip_threshold must be > 0")
    norm = l2_norm(gradient)
    if norm <= clip_threshold:
        return gradient
    return gradient * (clip_threshold / norm)

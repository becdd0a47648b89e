"""Scalar reference implementations that the package replaced with faster kernels.

``model.clipped_gradient_sum`` computes every per-sample gradient norm and the
clipped gradient sum of a batch without building any per-sample gradient.
``correction.correct_round`` runs every cosine test on scalars read from one
Gram matrix per round.  The functions here are the slow, obvious form of the
same arithmetic: one sample at a time, and conflict correction on the
D-length vectors with fresh ordered dot products for every test.  Tests
compare the kernels against them.
"""

from __future__ import annotations

import numpy as np

from dpfedsim.correction import (
    CorrectionConfig,
    CorrectionReport,
    cosine_from_products,
    resolve_num_references,
    select_references,
)
from dpfedsim.linalg import ParamVector, dot, scale_add
from dpfedsim.model import _PROB_FLOOR, MlpSpec, _softmax_rows, unpack


def l2_norm(a: ParamVector) -> float:
    return float(np.sqrt(dot(a, a)))


def cosine(a: ParamVector, b: ParamVector) -> float:
    """Cosine similarity from three ordered dot products, 0.0 for a zero vector."""
    return cosine_from_products(dot(a, a), dot(b, b), dot(a, b))


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


def project_if_conflicting(
    g_i: ParamVector, g_j: ParamVector
) -> tuple[ParamVector, bool]:
    """Project g_i off g_j when they conflict (cosine < 0).

    Returns (vector, applied).  Non-conflicting input comes back as the same
    object, bitwise untouched.  Zero vectors never conflict (cosine is 0).
    """
    if cosine(g_i, g_j) < 0:
        coef = dot(g_i, g_j) / dot(g_j, g_j)
        return scale_add(g_i, -coef, g_j), True
    return g_i, False


def correct_round(
    gradients: dict[int, ParamVector],
    config: CorrectionConfig,
    rng: np.random.Generator,
) -> tuple[dict[int, ParamVector], CorrectionReport]:
    """``correction.correct_round`` on the vectors: every test recomputes the
    cosine, and every projection its coefficient, from D-length dots."""
    ids = sorted(gradients)
    report = CorrectionReport()
    corrected: dict[int, ParamVector] = {}

    def correct_one(i: int, order) -> ParamVector:
        running = gradients[i]
        for j in order:
            j = int(j)
            report.cosines[(i, j)] = cosine(running, gradients[j])
            report.cosine_tests += 1
            running, applied = project_if_conflicting(running, gradients[j])
            if applied:
                report.projections_applied += 1
        return running

    if config.mode == "reference":
        refs = select_references(ids, resolve_num_references(config, len(ids)), rng)
        report.reference_ids = refs
        ref_array = np.asarray(refs)
        for i in refs:
            corrected[i] = gradients[i]
        for i in ids:
            if i not in corrected:
                corrected[i] = correct_one(i, rng.permutation(ref_array))
    else:  # pairwise
        for i in ids:
            corrected[i] = correct_one(i, [j for j in ids if j != i])
    return corrected, report

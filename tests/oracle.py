"""Reference implementations the package replaced, and helpers only tests call.

Tests compare the package's kernels against the slow, obvious form of the
same arithmetic.  ``logits_batch`` is the float64 forward pass, which
``model.predict`` runs in its features' dtype (float32 on a run's test
set).  ``loss_and_gradient`` and ``clip_gradient`` take one sample at a
time where ``model.clipped_gradient_sum`` builds no per-sample gradient.
``noisy_batch_gradient`` forms a step's noisy mean in one call, where a
client builds the same bytes in the noise vector it draws.  ``dot``
accumulates strictly left to right, ``l2_norm`` and ``cosine`` read it,
and ``scale_add`` builds a + c b as a new vector, where the server step
writes into the aggregate; ``project_if_conflicting`` projects one
vector off another with them.
``stack`` turns a dict of uploads into the round's (N, D) upload array,
row p holding the upload of the p-th smallest client id.
``correct_round`` materialises the projections of ``correction.plan_round``
in the order decided, and ``correct_round_on_vectors`` corrects the
D-length vectors with fresh dots for every test; both key the corrected
vectors by client id and write their reports in rows, as ``plan_round``
does.  ``fold_weights`` folds a report's projections into the
row weights one at a time, as ``plan_round`` does while it decides them.
``aggregate`` is the plain weighted average, which every round takes as
one weighted sum of folded weights.  ``gamma`` is Higham's rounding
bound.  ``run_one_round`` and ``run_all_rounds`` run a single round and
a whole run outside a command, each holding the BLAS pin and a worker of
its own (``federation.pinned_worker``) as a command does.
``synthetic_blobs`` draws and finishes each class's whole block at once,
where ``data.synthetic_blobs`` goes through a small temporary a chunk of
rows at a time.  ``shard_fingerprint`` hashes a client's shard for the
data pins; no command writes it.  ``child_env`` is the environment of a
subprocess that imports this checkout's package.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np

from dpfedsim import federation
from dpfedsim.correction import (
    CorrectionReport,
    cosine_from_products,
    plan_round,
    resolve_num_references,
    select_references,
)
from dpfedsim.data import Dataset, features
from dpfedsim.linalg import ParamVector, weighted_sum
from dpfedsim.model import _PROB_FLOOR, MlpSpec, _softmax_rows
from dpfedsim.model import unpack

_TESTS = Path(__file__).resolve().parent

U = 2.0**-53  # the unit roundoff of float64


def gamma(n: int, u: float = U) -> float:
    """Higham's gamma_n = n u / (1 - n u): the relative bound on n rounding
    factors of unit roundoff u (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 3.1).  With Cauchy-Schwarz, a D-term dot
    product summed in any order is within gamma_D ||a|| ||b|| of the exact
    value (eq. 3.5)."""
    return n * u / (1.0 - n * u)


def child_env(*, tests: bool = False, **variables: str) -> dict[str, str]:
    """os.environ with variables set (thread counts, say) and this
    checkout's src put first on PYTHONPATH, then the tests directory when
    asked, so a child process imports this package (and this oracle)."""
    env = dict(os.environ, **variables)
    paths = (str(_TESTS.parent / "src"), str(_TESTS) if tests else None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (*paths, env.get("PYTHONPATH")) if p
    )
    return env


def scale_add(a: ParamVector, c: float, b: ParamVector) -> ParamVector:
    """Return a + c*b as a new vector; inputs are left untouched."""
    return a + c * b


def dot(a: ParamVector, b: ParamVector) -> float:
    """Inner product accumulated in fixed index order, index 0 upward.

    ``np.add.accumulate`` is a sequential scan, bitwise identical to an
    explicit Python loop at C speed, whatever the thread count.
    """
    if a.shape[0] == 0:
        return 0.0
    return float(np.add.accumulate(np.multiply(a, b))[-1])


def l2_norm(a: ParamVector) -> float:
    return float(np.sqrt(dot(a, a)))


def cosine(a: ParamVector, b: ParamVector) -> float:
    """Cosine similarity from three ordered dot products, 0.0 for a zero vector."""
    return cosine_from_products(dot(a, a), dot(b, b), dot(a, b))


def noisy_batch_gradient(
    clipped_sum: ParamVector,
    batch_size: int,
    clip_threshold: float,
    noise_multiplier: float,
    rng: np.random.Generator,
) -> ParamVector:
    """Noisy step vector of a batch of clipped per-sample gradients, given
    their sum (zeros for an empty batch).

    Add one N(0, (sigma*C)^2 I) draw to the sum and divide by batch_size,
    the configured public divisor, whatever the batch held.  sigma == 0
    skips the draw entirely so the no-noise path is bit-deterministic.  A
    client step builds the same bytes in place, in the vector that holds
    its clipped sum, drawing the noise a block at a time
    (``federation.client_local_phase``).
    """
    total = clipped_sum
    if noise_multiplier > 0:
        total = total + rng.standard_normal(total.shape[0]) * (
            noise_multiplier * clip_threshold
        )
    return total / batch_size


def logits_batch(spec: MlpSpec, w: ParamVector, features: np.ndarray) -> np.ndarray:
    """The last layer's float64 logits for a (n, input_dim) batch, or for
    one 1-D feature vector as a batch of one."""
    h = np.atleast_2d(np.asarray(features, dtype=np.float64))
    layers = unpack(spec, w)
    for weight, bias in layers[:-1]:
        h = np.maximum(h @ weight + bias, 0.0)
    weight, bias = layers[-1]
    return h @ weight + bias


def loss_and_gradient(
    spec: MlpSpec, w: ParamVector, features: np.ndarray, label: int
) -> tuple[float, ParamVector]:
    """Single-example loss and its gradient w.r.t. the flat parameter vector.

    Backprop with the fused softmax cross-entropy delta (probs - onehot),
    assembled into the same flat layout as the input.
    """
    x = np.asarray(features, dtype=np.float64)
    label = int(label)
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


def clip_gradient(gradient: ParamVector, clip_threshold: float) -> ParamVector:
    """Scale the vector onto the L2 ball of radius clip_threshold.

    Vectors already inside the ball are returned unchanged (same object, same
    bits); callers treat gradients as immutable.
    """
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


def aggregate(
    gradients: dict[int, ParamVector], weights: dict[int, float]
) -> ParamVector:
    """Weighted sum in ascending client-id order of the gradients and the
    weights, both keyed by the same client ids."""
    ids = sorted(gradients)
    return weighted_sum([gradients[i] for i in ids], [weights[i] for i in ids])


def stack(gradients: dict[int, ParamVector]) -> tuple[np.ndarray, list[int]]:
    """A round's uploads as the package holds them: one (N, D) array whose
    row p is the upload of ids[p], with the ids ascending."""
    ids = sorted(gradients)
    return np.stack([gradients[i] for i in ids]), ids


def fold_weights(
    projections: list[tuple[int, int, float]], weights: list[float]
) -> list[float]:
    """alpha = w^T M, so that sum_q alpha_q g_q = sum_p w_p corrected_p, for
    a report's projections (p, q, c), each corrected_p -= c g_q.

    alpha_q = w_q - sum w_p c over the projections off row q, the products
    subtracted in list order in Python float arithmetic.  Without
    projections alpha equals weights exactly."""
    alpha = list(weights)
    for p, q, c in projections:
        alpha[q] -= weights[p] * c
    return alpha


def correct_round(
    gradients: dict[int, ParamVector],
    mode: str,
    num_references: int,
    rng: np.random.Generator,
) -> tuple[dict[int, ParamVector], CorrectionReport]:
    """Materialise the projections of ``correction.plan_round`` in the order
    decided.

    Each projection (p, q, c) is one scale_add r_p <- r_p - c g_q.  The
    input mapping is never mutated; untouched gradients appear in the output
    as the same objects.
    """
    uploads, ids = stack(gradients)
    weights = [1.0 / len(ids)] * len(ids)
    _, report = plan_round(uploads, weights, mode, num_references, rng)
    originals = [gradients[i] for i in ids]
    running = list(originals)
    for p, q, c in report.projections:
        running[p] = scale_add(running[p], -c, originals[q])
    return dict(zip(ids, running)), report


def correct_round_on_vectors(
    gradients: dict[int, ParamVector],
    mode: str,
    num_references: int,
    rng: np.random.Generator,
) -> tuple[dict[int, ParamVector], CorrectionReport]:
    """``correct_round`` on the vectors: every test recomputes the cosine,
    and every projection its coefficient, from D-length dots.  The report
    holds the references and the cosines; its projections list stays
    empty."""
    ids = sorted(gradients)
    n = len(ids)
    report = CorrectionReport()
    originals = [gradients[i] for i in ids]
    running = list(originals)

    def correct_one(p: int, order: list[int]) -> None:
        for q in order:
            report.cosines[(p, q)] = cosine(running[p], originals[q])
            running[p], _ = project_if_conflicting(running[p], originals[q])

    if mode == "reference":
        report.references = select_references(
            n, resolve_num_references(num_references, n), rng
        )
        for p in range(n):
            if p not in report.references:
                correct_one(p, rng.permutation(report.references).tolist())
    else:  # pairwise
        for p in range(n):
            correct_one(p, [q for q in range(n) if q != p])
    return dict(zip(ids, running)), report


def run_one_round(
    state: federation.ExperimentState, round_index: int
) -> federation.RoundMetrics:
    """``federation.run_round`` with the BLAS pin and a worker of its own,
    both released when the round ends."""
    with federation.pinned_worker() as (_, worker):
        return federation.run_round(state, round_index, worker)


def run_all_rounds(state: federation.ExperimentState) -> list[federation.RoundMetrics]:
    """``federation.run_experiment`` with the BLAS pin and a worker of its
    own, both released when the run ends."""
    with federation.pinned_worker() as (_, worker):
        return federation.run_experiment(state, worker)


def synthetic_blobs(
    num_classes: int,
    per_class: int,
    dim: int,
    spread: float,
    rng: np.random.Generator,
    centers_rng: np.random.Generator | None = None,
) -> Dataset:
    """Gaussian blobs: one deterministic unit-norm center per class.

    Levels are rint(clip(127.5 spread z + 127.5 (center + 1), 0, 255)) for
    standard normals z: the affine map takes the roughly [-1, 1] signal
    range onto the uint8 levels 0-255.  spread == 0 makes every example of
    a class identical.  Centers come first from centers_rng
    (QR-orthonormalized when dim >= num_classes), and the noise from rng,
    after the centers when the two are one stream (centers_rng None): a
    test set built with a fresh train stream as centers_rng shares the
    train set's centers.
    """
    centers_rng = rng if centers_rng is None else centers_rng
    raw = centers_rng.standard_normal((dim, num_classes))
    if dim >= num_classes:
        q, _ = np.linalg.qr(raw)
        centers = q[:, :num_classes].T
    else:
        centers = raw.T / np.linalg.norm(raw.T, axis=1, keepdims=True)
    blocks = []
    for c in range(num_classes):
        if spread > 0:
            block = rng.standard_normal((per_class, dim)) * (127.5 * spread)
        else:
            block = np.zeros((per_class, dim))
        block += 127.5 * (centers[c] + 1.0)
        blocks.append(np.rint(np.clip(block, 0.0, 255.0)).astype(np.uint8))
    X = np.concatenate(blocks)
    y = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    return Dataset(X, y, num_classes=num_classes)


def shard_fingerprint(client_id: int, dataset: Dataset, rows: np.ndarray) -> str:
    """sha256 over client_id's shard, the given rows of dataset: the client
    id, then per row in shard order its label as a 4-byte big-endian int
    followed by its float64 features (``data.features``)."""
    record = np.dtype(
        [("label", ">i4"), ("features", np.float64, (dataset.feature_dim,))]
    )
    records = np.empty(rows.size, dtype=record)
    records["label"] = dataset.y[rows]
    records["features"] = features(dataset.X[rows])
    return hashlib.sha256(str(client_id).encode() + records.tobytes()).hexdigest()

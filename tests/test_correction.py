import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from dpfedsim.config import ExperimentConfig
from dpfedsim.correction import (
    CORRECTION_MODES,
    gram,
    plan_round,
    resolve_num_references,
    select_references,
)
from oracle import (
    child_env,
    correct_round,
    dot,
    fold_weights,
    gamma,
    l2_norm,
    plan_by_id,
    project_if_conflicting,
    stack,
)


def test_projection_worked_example():
    g_i = np.array([1.0, -1.0])
    g_j = np.array([0.0, 2.0])
    out, applied = project_if_conflicting(g_i, g_j)
    assert applied
    np.testing.assert_allclose(out, [1.0, 0.0], rtol=0, atol=1e-15)


def test_projection_skips_aligned_pair_bitwise():
    g_i = np.array([1.0, 0.5])
    g_j = np.array([1.0, 0.0])
    out, applied = project_if_conflicting(g_i, g_j)
    assert not applied
    assert out is g_i


def test_projection_antiparallel_gives_zero_vector():
    g = np.array([2.0, -3.0, 0.5])
    out, applied = project_if_conflicting(-g, g)
    assert applied
    np.testing.assert_array_equal(out, np.zeros(3))


def test_projection_zero_vector_never_conflicts():
    zero = np.zeros(4)
    g = np.ones(4)
    out, applied = project_if_conflicting(zero, g)
    assert not applied and out is zero
    out, applied = project_if_conflicting(g, zero)
    assert not applied and out is g


def test_projection_orthogonality_and_norm_shrink():
    rng = np.random.default_rng(17)
    for _ in range(300):
        dim = int(rng.integers(2, 30))
        g_j = rng.standard_normal(dim)
        g_i = rng.standard_normal(dim)
        if dot(g_i, g_j) >= 0:
            g_i = -g_i
        if dot(g_i, g_j) >= 0:
            continue
        out, applied = project_if_conflicting(g_i, g_j)
        assert applied
        scale = (abs(dot(g_i, g_j)) + l2_norm(g_i) * l2_norm(g_j)) * 1e-12
        assert abs(dot(out, g_j)) <= scale
        assert l2_norm(out) <= l2_norm(g_i) + 1e-12


def test_select_references_bounds_and_determinism():
    ids = list(range(6))
    rng = np.random.default_rng(5)
    refs = select_references(len(ids), 3, rng)
    assert len(refs) == 3
    assert refs == sorted(refs)
    assert set(refs) <= set(ids)
    with pytest.raises(ValueError):
        select_references(len(ids), 0, rng)
    with pytest.raises(ValueError):
        select_references(len(ids), 6, rng)


def test_select_references_uniform_frequency():
    ids = list(range(5))
    rng = np.random.default_rng(123)
    hits = np.zeros(5)
    draws = 10_000
    for _ in range(draws):
        for i in select_references(len(ids), 2, rng):
            hits[i] += 1
    expected = draws * 2 / 5
    stderr = np.sqrt(draws * (2 / 5) * (3 / 5))
    assert np.all(np.abs(hits - expected) <= 4 * stderr)


def test_row_draws_pick_and_order_the_ids_an_id_draw_would():
    """select_references draws rows and reference mode permutes a row array;
    mapped through the ids, they are the ids a draw over the id array picks,
    in the same order, and the stream is left where that draw leaves it."""
    for seed in range(200):
        setup = np.random.default_rng([seed, 1])
        n = int(setup.integers(2, 12))
        ids = sorted(int(i) for i in setup.choice(40, size=n, replace=False))
        m = int(setup.integers(1, n))
        by_row, by_id = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = select_references(n, m, by_row)
        picked = sorted(int(i) for i in by_id.choice(np.asarray(ids), m, replace=False))
        assert [ids[p] for p in rows] == picked
        row_order = by_row.permutation(np.asarray(rows))
        id_order = by_id.permutation(np.asarray(picked))
        assert [ids[p] for p in row_order] == id_order.tolist()
        assert by_row.random() == by_id.random()


def test_resolve_num_references_default_half():
    assert resolve_num_references(0, 2) == 1
    assert resolve_num_references(0, 5) == 2
    assert resolve_num_references(0, 8) == 4
    assert resolve_num_references(3, 8) == 3


def test_correct_round_counts_cosine_evaluations():
    rng_data = np.random.default_rng(0)
    for n in range(2, 9):
        for m in range(1, n):
            grads = {i: rng_data.standard_normal(4) for i in range(n)}
            out, report = correct_round(grads, "reference", m, np.random.default_rng(1))
            assert len(report.cosines) == m * (n - m)
            assert len(report.reference_ids) == m
            assert set(out) == set(grads)


def test_correct_round_references_pass_through_untouched():
    rng = np.random.default_rng(3)
    grads = {i: rng.standard_normal(6) for i in range(4)}
    out, report = correct_round(
        grads, "reference", 2, np.random.default_rng(9)
    )
    for i in report.reference_ids:
        assert out[i] is grads[i]


def test_correct_round_no_conflicts_is_identity():
    base = np.array([1.0, 2.0, 0.5, -0.3])
    grads = {i: base + 0.01 * i for i in range(4)}  # all mutually aligned
    out, report = correct_round(
        grads, "reference", 0, np.random.default_rng(2)
    )
    assert report.projections == []
    for i in grads:
        assert out[i] is grads[i]


def test_correct_round_resolves_conflict():
    # client 1 directly opposes client 0; whichever becomes the reference,
    # the other ends up non-negative against it
    grads = {0: np.array([1.0, 0.0]), 1: np.array([-1.0, 0.1])}
    out, report = correct_round(
        grads, "reference", 0, np.random.default_rng(4)
    )
    assert len(report.projections) == 1
    ref = report.reference_ids[0]
    other = 1 - ref
    assert dot(out[other], out[ref]) >= -1e-12
    assert out[ref] is grads[ref]


def test_correct_round_is_deterministic_given_rng_seed():
    rng_data = np.random.default_rng(8)
    grads = {i: rng_data.standard_normal(10) for i in range(5)}
    out1, rep1 = correct_round(grads, "reference", 0, np.random.default_rng(77))
    out2, rep2 = correct_round(grads, "reference", 0, np.random.default_rng(77))
    assert rep1.reference_ids == rep2.reference_ids
    assert rep1.cosines == rep2.cosines
    for i in grads:
        np.testing.assert_array_equal(out1[i], out2[i])


def test_correct_round_does_not_mutate_input():
    grads = {0: np.array([1.0, 0.0]), 1: np.array([-1.0, 0.0])}
    copies = {i: g.copy() for i, g in grads.items()}
    correct_round(grads, "reference", 0, np.random.default_rng(0))
    for i in grads:
        np.testing.assert_array_equal(grads[i], copies[i])


def test_pairwise_mode_tests_all_ordered_pairs():
    rng = np.random.default_rng(1)
    grads = {i: rng.standard_normal(5) for i in range(4)}
    out, report = correct_round(grads, "pairwise", 0, np.random.default_rng(0))
    assert len(report.cosines) == 4 * 3
    assert report.reference_ids == []
    assert set(report.cosines) == {
        (i, j) for i in range(4) for j in range(4) if i != j
    }


def test_pairwise_uses_original_counterpart_gradients():
    # g0 conflicts with g1; after g0 is corrected, g1's own pass must still
    # see the ORIGINAL g0, not the corrected one
    g0 = np.array([-1.0, 0.0])
    g1 = np.array([1.0, 1.0])
    grads = {0: g0, 1: g1}
    out, report = correct_round(grads, "pairwise", 0, np.random.default_rng(0))
    # manual recomputation of the double loop against originals
    expected0, _ = project_if_conflicting(g0, g1)
    expected1, _ = project_if_conflicting(g1, g0)
    np.testing.assert_array_equal(out[0], expected0)
    np.testing.assert_array_equal(out[1], expected1)


def test_correct_round_validation():
    with pytest.raises(ValueError, match="at least 2"):
        correct_round({0: np.ones(2)}, "reference", 0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="dimension"):
        correct_round(
            {0: np.ones(2), 1: np.ones(3)},
            "reference",
            0,
            np.random.default_rng(0),
        )


def test_correction_config_validation():
    with pytest.raises(ValueError, match="mode"):
        ExperimentConfig(correction_mode="global")
    with pytest.raises(ValueError):
        ExperimentConfig(num_references=-1)


def test_report_summary_shape():
    rng = np.random.default_rng(10)
    grads = {i: rng.standard_normal(8) for i in range(4)}
    _, report = correct_round(grads, "reference", 0, np.random.default_rng(3))
    s = report.summary()
    assert s["cosine_evaluations"] == len(report.cosines) == 2 * 2
    assert s["projections_applied"] == len(report.projections)
    assert s["cosine_min"] <= s["cosine_mean"] <= s["cosine_max"]


def _assert_matches_oracle(grads, config, seed):
    """correct_round against the vector-space oracle, with the same rng seed
    and config = (mode, num_references).

    Both take the same references and test the same pairs in the same order.
    For each client, walk its tests along the oracle's trajectory; before a
    test, r is the oracle's running vector and p the projections applied to
    it so far, and kappa = ||g_i|| / ||r||.  The tolerance is

        tol = 4 (p + 1)^2 gamma_D kappa^2.

    Why: every projection coefficient satisfies |c| ||g_j|| <= ||r|| <=
    ||g_i||, so after p projections the scalars row[k] and q are within about
    (p + 1) gamma_D ||g_i|| ||g_k|| and (p + 1) gamma_D ||g_i||^2 of the inner
    products of the vector actually formed; and since an orthogonal
    projection is non-expansive, two trajectories that make the same
    decisions stay within (p + 1)(p + 2) / 2 * gamma_D ||g_i|| of each other.
    Dividing by ||r|| ||g_k|| (and by q for the norm term) gives
    (p + 1)^2 gamma_D kappa^2 up to the factor 4, which also absorbs the
    second-order terms.

    A cosine within tol of zero may be decided either way, so the decisions
    must agree only where the oracle's |cos| > tol; after the first test
    inside that margin the two trajectories may part, and the rest of that
    client is not compared.  A client compared to the end must come back
    within 2 (p + 1)^2 gamma_D ||g_i|| of the oracle (the bound on the
    trajectories above, doubled for the scale_add roundings), and as the
    same object when nothing was projected.
    """
    out, report = correct_round(grads, *config, np.random.default_rng(seed))
    want, want_report = oracle.correct_round_on_vectors(
        grads, *config, np.random.default_rng(seed)
    )
    assert report.reference_ids == want_report.reference_ids
    assert list(report.cosines) == list(want_report.cosines)
    assert set(out) == set(grads)

    # gamma_D bounds both the oracle's sequential scan and the Gram's dots
    gamma_d = gamma(next(iter(grads.values())).shape[0])
    running = dict(grads)
    projections = dict.fromkeys(grads, 0)
    parted = set()
    for (i, j), want_cos in want_report.cosines.items():
        if i in parted:
            continue
        norm_i, norm_r = l2_norm(grads[i]), l2_norm(running[i])
        kappa = 1.0 if norm_i == 0.0 else norm_i / norm_r if norm_r else np.inf
        tol = 4 * (projections[i] + 1) ** 2 * gamma_d * kappa**2
        cos = report.cosines[(i, j)]
        assert abs(cos - want_cos) <= tol, (i, j, cos, want_cos, tol)
        if abs(want_cos) <= tol:
            parted.add(i)
            continue
        assert (cos < 0) == (want_cos < 0)
        running[i], applied = project_if_conflicting(running[i], grads[j])
        projections[i] += applied

    for i in grads:
        if i in parted:
            continue
        np.testing.assert_array_equal(running[i], want[i])  # the walk replays it
        if projections[i] == 0:
            assert out[i] is grads[i] and want[i] is grads[i]
        else:
            err = l2_norm(out[i] - want[i])
            assert err <= 2 * (projections[i] + 1) ** 2 * gamma_d * l2_norm(grads[i])
    if not parted:  # the walk replayed every projection of the oracle
        assert len(report.projections) == sum(projections.values())
    return out, report


def _uploads(rng, n, dim, shared):
    """n uploads sharing a direction with weight ``shared``, norms over 6 decades.

    With shared = 0 about half of all pairs conflict."""
    base = rng.standard_normal(dim)
    return {
        i: (shared * base + rng.standard_normal(dim)) * 10.0 ** rng.uniform(-3, 3)
        for i in range(n)
    }


def _config(mode, n, num_references):
    return mode, num_references % n


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    dim=st.integers(1, 40),
    mode=st.sampled_from(CORRECTION_MODES),
    num_references=st.integers(0, 11),
    shared=st.sampled_from([0.0, 0.3, 1.0]),
)
@settings(max_examples=200, deadline=None)
def test_correct_round_matches_vector_space_oracle(
    seed, n, dim, mode, num_references, shared
):
    grads = _uploads(np.random.default_rng(seed), n, dim, shared)
    _assert_matches_oracle(grads, _config(mode, n, num_references), seed)


@pytest.mark.parametrize("mode", CORRECTION_MODES)
def test_correct_round_matches_oracle_at_d_1e4(mode):
    rng = np.random.default_rng(44)
    for _ in range(3):
        grads = _uploads(rng, 12, 10_000, 0.0)
        _, report = _assert_matches_oracle(
            grads, _config(mode, 12, int(rng.integers(0, 12))), int(rng.integers(99))
        )
        assert report.projections


@pytest.mark.parametrize("mode", CORRECTION_MODES)
def test_zero_upload_never_conflicts(mode):
    grads = _uploads(np.random.default_rng(1), 5, 7, 0.0)
    grads[2] = np.zeros(7)
    out, report = _assert_matches_oracle(grads, (mode, 0), 3)
    assert out[2] is grads[2]
    for (i, j), cos in report.cosines.items():
        if 2 in (i, j):
            assert cos == 0.0


@pytest.mark.parametrize("mode", CORRECTION_MODES)
def test_duplicate_uploads_match_oracle(mode):
    grads = _uploads(np.random.default_rng(2), 6, 9, 0.0)
    grads[1] = grads[0].copy()
    grads[3] = grads[0]
    out, report = _assert_matches_oracle(grads, (mode, 0), 4)
    if mode == "pairwise":
        # first test of client 0 is against its duplicate: exactly parallel
        assert report.cosines[(0, 1)] == 1.0
        assert report.cosines[(1, 0)] == 1.0


def test_antiparallel_pair_corrects_to_exact_zero():
    rng = np.random.default_rng(3)
    g = rng.standard_normal(11)
    # pairwise: clients 0 and 1 test each other first and end at exact zero
    grads = {0: g, 1: -g, **{i: rng.standard_normal(11) for i in range(2, 6)}}
    out, report = _assert_matches_oracle(grads, ("pairwise", 0), 0)
    want, _ = oracle.correct_round_on_vectors(
        grads, "pairwise", 0, np.random.default_rng(0)
    )
    for i in (0, 1):
        assert report.cosines[(i, 1 - i)] == -1.0
        assert np.all(out[i] == 0.0) and np.all(want[i] == 0.0)
        later = [cos for (a, b), cos in report.cosines.items() if a == i and b > 1]
        assert later == [0.0] * 4
    # reference mode: the non-reference client ends at exact zero
    out, report = _assert_matches_oracle({0: g, 1: -g}, ("reference", 0), 5)
    (other,) = {0, 1} - set(report.reference_ids)
    assert len(report.projections) == 1
    assert np.all(out[other] == 0.0)


@pytest.mark.parametrize("mode", CORRECTION_MODES)
def test_all_aligned_uploads_come_back_as_the_same_objects(mode):
    grads = _uploads(np.random.default_rng(6), 8, 13, 20.0)
    out, report = _assert_matches_oracle(grads, (mode, 0), 7)
    assert report.projections == []
    assert all(cos > 0 for cos in report.cosines.values())
    for i in grads:
        assert out[i] is grads[i]


def _exact_product_vectors(rng, n, dim):
    """An (n, dim) array of k * 2**e, |k| < 2**20 and |e| <= 30: every
    elementwise product is exact, so math.fsum of the products is the exact
    dot correctly rounded, while the summation in ``gram`` does round."""
    return np.stack([
        rng.integers(-(2**20), 2**20, dim) * 2.0 ** rng.integers(-30, 31, dim)
        for _ in range(n)
    ])


@pytest.mark.parametrize("n", [5, 12])
@pytest.mark.parametrize("dim", [1, 4095, 4096, 4097, 12295])
def test_gram_is_within_gamma_d_of_exact_dots(n, dim):
    """|G[a, b] - <v_a, v_b>| <= gamma_D ||v_a|| ||v_b||: a D-term dot summed
    in any order meets Higham's bound; the fsum reference itself rounds
    once, inside the slack between gamma_{D-1} (the summation with exact
    products) and gamma_D."""
    vectors = _exact_product_vectors(np.random.default_rng(dim), n, dim)
    g = gram(vectors)
    gamma_d = gamma(dim)
    for a, va in enumerate(vectors):
        for b, vb in enumerate(vectors):
            exact = math.fsum(va * vb)
            bound = gamma_d * l2_norm(va) * l2_norm(vb)
            assert abs(g[a, b] - exact) <= bound, (a, b, g[a, b], exact, bound)


@pytest.mark.parametrize("n", [9, 13])
@pytest.mark.parametrize("dim", [7, 4096, 8195])
def test_gram_is_exactly_symmetric_and_reproducible(n, dim):
    rng = np.random.default_rng(dim)
    vectors, _ = stack(_uploads(rng, n, dim, 0.3))
    g = gram(vectors)
    np.testing.assert_array_equal(g, g.T)
    assert gram(vectors).tobytes() == g.tobytes()
    # the same values at another address, off 16-byte alignment
    backing = np.empty(n * dim + 1)
    moved = backing[1:].reshape(n, dim)
    moved[:] = vectors
    assert moved.ctypes.data % 16 == 8
    assert gram(moved).tobytes() == g.tobytes()


@pytest.mark.parametrize("mode", CORRECTION_MODES)
def test_correct_round_materialises_plan_round_in_plan_order(mode):
    grads = _uploads(np.random.default_rng(12), 7, 30, 0.0)
    uploads, ids = stack(grads)
    weights = [1.0 / len(ids)] * len(ids)
    _, report = plan_round(uploads, ids, weights, mode, 0, np.random.default_rng(5))
    plan = plan_by_id(report.projections, ids)
    out, want_report = correct_round(grads, mode, 0, np.random.default_rng(5))
    assert report.cosines == want_report.cosines
    assert len(report.projections) == sum(len(s) for s in plan.values()) > 0
    assert list(plan) == sorted(grads)
    for i, steps in plan.items():
        running = grads[i]
        for j, c in steps:
            running = running - c * grads[j]
        assert out[i].tobytes() == running.tobytes()
        assert (out[i] is grads[i]) == (not steps)


@pytest.mark.parametrize("mode", CORRECTION_MODES)
def test_fold_weights_is_w_transpose_m(mode):
    """corrected_i = g_i - sum c_ij g_j, so sum_i w_i corrected_i = sum_j
    alpha_j g_j with alpha_j = w_j - sum_i w_i c_ij; plan_round folds those
    terms in a fixed order, within gamma_2N of the exact sum."""
    grads = _uploads(np.random.default_rng(21), 6, 12, 0.0)
    uploads, ids = stack(grads)
    weights = {i: (i + 1) / 21 for i in grads}
    in_rows = [weights[i] for i in ids]
    alpha_rows, report = plan_round(
        uploads, ids, in_rows, mode, 0, np.random.default_rng(2)
    )
    plan = plan_by_id(report.projections, ids)
    assert any(plan.values())
    alpha = dict(zip(ids, alpha_rows))
    assert list(alpha) == list(weights)
    for j in grads:
        terms = [weights[j]] + [
            -weights[i] * c for i, steps in plan.items() for k, c in steps if k == j
        ]
        bound = gamma(2 * len(grads)) * math.fsum(abs(t) for t in terms)
        assert abs(alpha[j] - math.fsum(terms)) <= bound


@pytest.mark.parametrize("mode", CORRECTION_MODES)
@pytest.mark.parametrize("shared", [0.0, 20.0], ids=["conflicting", "aligned"])
def test_plan_round_alpha_is_its_projections_folded_bitwise(mode, shared):
    """plan_round's alpha is the reference fold of the projections it
    reports, for unequal weights, to the bit; with no projection it is the
    weights themselves."""
    grads = _uploads(np.random.default_rng(23), 7, 15, shared)
    uploads, ids = stack(grads)
    weights = [(i + 1) / 28 for i in ids]
    alpha, report = plan_round(uploads, ids, weights, mode, 0, np.random.default_rng(4))
    want = fold_weights(report.projections, weights)
    assert np.array(alpha).tobytes() == np.array(want).tobytes()
    assert bool(report.projections) == (shared == 0.0)
    if not report.projections:
        assert np.array(alpha).tobytes() == np.array(weights).tobytes()


_BLAS_PROBE = """
import hashlib, sys
import numpy as np
from oracle import correct_round

rng = np.random.default_rng(2024)
base = rng.standard_normal(101_770)
grads = {i: 1e-3 * base + rng.standard_normal(101_770) for i in range(32)}
for mode in ("reference", "pairwise"):
    out, report = correct_round(grads, mode, 0, np.random.default_rng(11))
    digest = hashlib.sha256()
    for i in sorted(out):
        digest.update(out[i].tobytes())
    digest.update(repr(sorted(report.cosines.items())).encode())
    digest.update(repr((report.reference_ids, report.projections)).encode())
    print(mode, len(report.projections), digest.hexdigest())
"""


def _outputs_under_blas_threads(probe: str) -> list[str]:
    """Standard output of ``python -c probe`` under one and two BLAS threads;
    the probe can import the package and the tests' oracle."""
    outputs = []
    for threads in ("1", "2"):
        env = child_env(
            tests=True, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, check=True, capture_output=True, text=True, timeout=120,
        )
        outputs.append(done.stdout)
    return outputs


def test_correct_round_is_byte_identical_across_blas_thread_counts():
    """At the benchmark shape (N = 32, D = 101,770) the corrected vectors and
    the reports do not depend on the BLAS thread count."""
    outputs = _outputs_under_blas_threads(_BLAS_PROBE)
    assert outputs[0] == outputs[1]
    lines = outputs[0].split()
    assert lines[0] == "reference" and lines[3] == "pairwise"
    assert int(lines[1]) > 0 and int(lines[4]) > 0  # projections were exercised


_FOLD_PROBE = """
import hashlib
import numpy as np
from dpfedsim.correction import plan_round
from dpfedsim.linalg import weighted_sum
from oracle import stack

rng = np.random.default_rng(2024)
base = rng.standard_normal(101_770)
grads = {i: 1e-3 * base + rng.standard_normal(101_770) for i in range(32)}
uploads, ids = stack(grads)
weights = [(i + 1) / 528 for i in ids]
for mode in ("reference", "pairwise"):
    alpha, report = plan_round(uploads, ids, weights, mode, 0, np.random.default_rng(11))
    digest = hashlib.sha256(weighted_sum(uploads, alpha).tobytes())
    digest.update(repr(alpha).encode())
    print(mode, len(report.projections), digest.hexdigest())
"""


def test_folded_aggregate_is_byte_identical_across_blas_thread_counts():
    """The update a gcfl round takes, sum_j alpha_j g_j with alpha folded by
    plan_round, does not depend on the BLAS thread count at the benchmark shape."""
    outputs = _outputs_under_blas_threads(_FOLD_PROBE)
    assert outputs[0] == outputs[1]
    lines = outputs[0].split()
    assert lines[0] == "reference" and lines[3] == "pairwise"
    assert int(lines[1]) > 0 and int(lines[4]) > 0  # projections were exercised


_GRAM_NS = (2, 11, 12, 13, 32, 64)
_GRAM_DIMS = (1, 4095, 4096, 4097, 12295, 101_770)
_GRAM_PROBE = f"""
import hashlib
import numpy as np
from dpfedsim.correction import gram

for n in {_GRAM_NS}:
    for dim in {_GRAM_DIMS}:
        u = np.random.default_rng([n, dim]).standard_normal((n, dim))
        g = gram(u)
        print(n, dim, hashlib.sha256(g.tobytes()).hexdigest(),
              g.tobytes() == (u @ u.T).tobytes())
"""


@pytest.fixture(scope="module")
def gram_sweep() -> list[dict[tuple[int, int], list[str]]]:
    """(n, dim) -> [digest, is U @ U.T bitwise] under one and two BLAS threads."""
    return [
        {(int(n), int(dim)): rest for n, dim, *rest in map(str.split, out.splitlines())}
        for out in _outputs_under_blas_threads(_GRAM_PROBE)
    ]


@pytest.mark.parametrize("n", _GRAM_NS)
@pytest.mark.parametrize("dim", _GRAM_DIMS)
def test_gram_follows_its_reduction_order_bitwise(gram_sweep, n, dim):
    """gram is numpy's U @ U.T to the bit, that is one BLAS syrk, and its
    bytes are the same under one and two BLAS threads."""
    one_thread, two_threads = (sweep[n, dim] for sweep in gram_sweep)
    assert one_thread == two_threads
    assert one_thread[1] == "True"

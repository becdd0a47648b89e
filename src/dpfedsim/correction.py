"""Server-side gradient conflict detection and correction.

Two uploaded client gradients conflict when their cosine similarity is
negative.  A conflicting gradient is corrected by removing its component
along the other one — projection onto the normal plane:

    g_i <- g_i - (g_i . g_j) / ||g_j||^2 * g_j

so the corrected vector is exactly orthogonal (up to rounding) to g_j and
no longer opposes it.  Two schedules are supported:

reference mode (default): M clients are drawn as references and pass through
untouched; every other client's gradient is tested against each reference in
a per-client random order, carrying the partially corrected vector from test
to test.  Cosine evaluations per round are exactly M * (N - M).

pairwise mode: every ordered pair (i, j), i != j, in ascending id order; the
running, partially corrected g_i is tested against the *original* upload of
client j.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import ParamVector, cosine, dot, scale_add

CORRECTION_MODES = ("reference", "pairwise")


@dataclass
class CorrectionConfig:
    mode: str = "reference"
    # 0 means "pick max(1, n_clients // 2) at runtime"
    num_references: int = 0
    order_seed: int = 0

    def __post_init__(self):
        if self.mode not in CORRECTION_MODES:
            raise ValueError(
                f"correction mode must be one of {CORRECTION_MODES}, got {self.mode!r}"
            )
        if self.num_references < 0:
            raise ValueError("num_references must be >= 0 (0 means auto)")
        if self.order_seed < 0:
            raise ValueError("order_seed must be >= 0")


@dataclass
class CorrectionReport:
    """What one round of correction did, for metrics and audit."""

    reference_ids: list[int] = field(default_factory=list)
    cosines: dict[tuple[int, int], float] = field(default_factory=dict)
    projections_applied: int = 0
    cosine_tests: int = 0

    def summary(self) -> dict:
        values = list(self.cosines.values())
        return {
            "references": list(self.reference_ids),
            "cosine_evaluations": self.cosine_tests,
            "projections_applied": self.projections_applied,
            "negative_cosines": sum(1 for v in values if v < 0),
            "cosine_min": min(values) if values else None,
            "cosine_mean": float(np.mean(values)) if values else None,
            "cosine_max": max(values) if values else None,
        }


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


def select_references(
    client_ids: list[int], num_references: int, rng: np.random.Generator
) -> list[int]:
    """Uniform draw of num_references distinct ids, returned ascending."""
    if not 1 <= num_references < len(client_ids):
        raise ValueError(
            f"num_references must be in [1, {len(client_ids) - 1}], "
            f"got {num_references}"
        )
    picked = rng.choice(np.asarray(client_ids), size=num_references, replace=False)
    return sorted(int(i) for i in picked)


def resolve_num_references(config: CorrectionConfig, n_clients: int) -> int:
    return config.num_references if config.num_references else max(1, n_clients // 2)


def correct_round(
    gradients: dict[int, ParamVector],
    config: CorrectionConfig,
    rng: np.random.Generator,
) -> tuple[dict[int, ParamVector], CorrectionReport]:
    """Apply one round of conflict correction to the uploaded gradients.

    The input mapping is never mutated; untouched gradients appear in the
    output as the same objects.
    """
    ids = sorted(gradients)
    if len(ids) < 2:
        raise ValueError("correction needs at least 2 client gradients")
    dim = gradients[ids[0]].shape[0]
    for i in ids:
        if gradients[i].shape != (dim,):
            raise ValueError("client gradients must all share one dimension")

    report = CorrectionReport()
    corrected: dict[int, ParamVector] = {}

    if config.mode == "reference":
        m = resolve_num_references(config, len(ids))
        refs = select_references(ids, m, rng)
        report.reference_ids = refs
        ref_array = np.asarray(refs)
        for i in refs:
            corrected[i] = gradients[i]
        for i in ids:
            if i in corrected:
                continue
            running = gradients[i]
            order = rng.permutation(ref_array)
            for j in order:
                j = int(j)
                report.cosines[(i, j)] = cosine(running, gradients[j])
                report.cosine_tests += 1
                running, applied = project_if_conflicting(running, gradients[j])
                if applied:
                    report.projections_applied += 1
            corrected[i] = running
    else:  # pairwise
        for i in ids:
            running = gradients[i]
            for j in ids:
                if j == i:
                    continue
                report.cosines[(i, j)] = cosine(running, gradients[j])
                report.cosine_tests += 1
                running, applied = project_if_conflicting(running, gradients[j])
                if applied:
                    report.projections_applied += 1
            corrected[i] = running

    return corrected, report

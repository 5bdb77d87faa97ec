"""Canonical correlation alignment between hidden layers.

Given scatter statistics of two width-n layers, whiten each side with the
inverse square root of its (ridged) scatter, take the SVD of the whitened
cross matrix, and read off projection bases whose paired columns are
maximally correlated. The layer transform that rewrites model B's features
in model A's basis is T = (P_b P_a^-1)^T; with an invertible linear mixing
between the two feature spaces this recovers the mixing's inverse exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import _check_gamma, capture, scatter
from .errors import GammaSelectionError, NumericalError, ShapeError, ValidationError
from .model import AlignmentPlan, LayerTransform, MethodTag

EIGENVALUE_FLOOR = 1e-12
SYMMETRY_ATOL = 1e-8

# scale-aware ridge defaults; the grid is what --gamma-search auto walks
DEFAULT_GAMMA_COEFF = 1e-3
GAMMA_GRID_COEFFS = (1e-4, 1e-3, 1e-2, 1e-1)


@dataclass(frozen=True, eq=False)
class CcaSolution:
    """Projection bases (columns paired), their correlations, and the ridge."""

    p_a: np.ndarray
    p_b: np.ndarray
    correlations: np.ndarray
    gamma: float


def inv_sqrt(s, gamma=0.0):
    """Inverse square root of a symmetric PSD matrix plus gamma * I.

    Eigenvalues are clamped below at EIGENVALUE_FLOOR before the -1/2 power,
    so rank-deficient inputs come back finite instead of infinite.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeError(f"matrix must be square, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValidationError("matrix contains non-finite entries")
    scale = max(1.0, float(np.max(np.abs(s))))
    if np.max(np.abs(s - s.T)) > SYMMETRY_ATOL * scale:
        raise ValidationError("matrix is not symmetric")
    _check_gamma(gamma)
    ridged = s + gamma * np.eye(s.shape[0])
    try:
        evals, evecs = np.linalg.eigh(ridged)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    evals = np.maximum(evals, EIGENVALUE_FLOOR)
    return (evecs / np.sqrt(evals)) @ evecs.T


def _fix_svd_signs(u, vt):
    """Make each left singular vector's largest-|.| entry positive."""
    pick = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[pick, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs, vt * signs[:, None]


def solve_cca(stats):
    """Canonical projections for one layer pair from its scatter stats."""
    root_a = inv_sqrt(stats.s_aa, stats.gamma)
    root_b = inv_sqrt(stats.s_bb, stats.gamma)
    m = root_a @ stats.s_ab @ root_b
    try:
        u, sing, vt = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    u, vt = _fix_svd_signs(u, vt)
    return CcaSolution(
        p_a=root_a @ u,
        p_b=root_b @ vt.T,
        correlations=np.clip(sing, 0.0, 1.0),
        gamma=stats.gamma,
    )


def build_transform(sol, layer_index):
    """Layer transform carrying model B's features into model A's basis."""
    n = sol.p_a.shape[0]
    try:
        pa_inv = np.linalg.solve(sol.p_a, np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"projection basis at layer {layer_index} is singular; "
            f"a larger gamma may help: {exc}"
        ) from exc
    norm = np.linalg.norm(sol.p_a, 1) * np.linalg.norm(pa_inv, 1)
    if norm == 0 or 1.0 / norm < 1e-12:
        raise NumericalError(
            f"projection basis at layer {layer_index} has reciprocal "
            "condition below 1e-12; increase gamma"
        )
    t = (sol.p_b @ pa_inv).T
    try:
        return LayerTransform.general(t, layer_index)
    except (ValidationError, NumericalError) as exc:
        raise NumericalError(
            f"alignment transform at layer {layer_index} is too "
            f"ill-conditioned to invert; increase gamma ({exc})"
        ) from exc


def default_gamma(s_aa, s_bb):
    """Scale-aware ridge: DEFAULT_GAMMA_COEFF x mean diagonal scatter."""
    return DEFAULT_GAMMA_COEFF * float(
        np.mean((np.diag(s_aa) + np.diag(s_bb)) / 2.0)
    )


def solve_layers(model_a, model_b, probes, gamma=None):
    """Per-hidden-layer CCA solutions aligning model_b to model_a.

    gamma=None applies the scale-aware default independently per layer;
    a float applies that exact ridge everywhere.
    """
    acts_a = capture(model_a, probes)
    acts_b = capture(model_b, probes)
    sols = []
    for a, b in zip(acts_a, acts_b):
        g = default_gamma(
            a.values.T @ a.values, b.values.T @ b.values
        ) if gamma is None else float(gamma)
        sols.append(solve_cca(scatter(a, b, g)))
    return sols


def plan_from_solutions(solutions):
    transforms = tuple(
        build_transform(sol, i) for i, sol in enumerate(solutions)
    )
    return AlignmentPlan(transforms, MethodTag.CCA)


def cca_plan(model_a, model_b, probes, gamma=None):
    """Alignment plan mapping model_b into model_a's feature space."""
    return plan_from_solutions(solve_layers(model_a, model_b, probes, gamma))


def gamma_grid(model_a, model_b, probes):
    """Scale-aware candidate ridges: GAMMA_GRID_COEFFS x mean diag scatter."""
    acts_a = capture(model_a, probes)
    acts_b = capture(model_b, probes)
    scale = float(
        np.mean(
            [
                np.mean(
                    (
                        np.diag(a.values.T @ a.values)
                        + np.diag(b.values.T @ b.values)
                    )
                    / 2.0
                )
                for a, b in zip(acts_a, acts_b)
            ]
        )
    )
    return [c * scale for c in GAMMA_GRID_COEFFS]


def select_gamma(candidate_gammas, model_pairs, probes, eval_ds):
    """Pick the ridge whose CCA merges score best on held-out pairs.

    Each candidate is scored by the mean accuracy of the merged models over
    all pairs; a candidate whose merge fails numerically scores -inf. Ties
    go to the larger gamma.
    """
    from .evaluation import accuracy
    from .merge import merge_pair

    candidates = sorted(float(g) for g in candidate_gammas)
    if not candidates:
        raise GammaSelectionError("no candidate gammas given")
    if not model_pairs:
        raise GammaSelectionError("no model pairs given")
    best_gamma = None
    best_score = -np.inf
    for g in candidates:
        scores = []
        for model_a, model_b in model_pairs:
            try:
                plan = cca_plan(model_a, model_b, probes, g)
                merged = merge_pair(model_a, model_b, plan)
                scores.append(accuracy(merged, eval_ds))
            except (NumericalError, ValidationError):
                scores = None
                break
        if scores is None:
            continue
        score = float(np.mean(scores))
        # candidates ascend, so >= sends exact ties to the larger gamma
        if score >= best_score:
            best_gamma, best_score = g, score
    if best_gamma is None:
        raise GammaSelectionError(
            "every candidate gamma failed during merging"
        )
    return best_gamma

"""Canonical correlation alignment between hidden layers.

Given scatter statistics of two width-n layers, whiten each side with the
inverse square root of its (ridged) scatter, take the SVD of the whitened
cross matrix, and read off projection bases whose paired columns are
maximally correlated. The layer transform that rewrites model B's features
in model A's basis is T = (P_b P_a^-1)^T; with an invertible linear mixing
between the two feature spaces this recovers the mixing's inverse exactly.

Only the ridge depends on gamma. solve_pair solves one
activations._PairStats at any ridge, keeping the reference's inverse
square roots once per (layer, gamma); every product is the same BLAS call
on the same operands as a from-scratch solve, so results are bit-identical.
This module is the algebra only: the gamma search, which scores the merges
each ridge makes, lives with the merges in merge.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# capture stays bound here: bench/test_tracer.py checks that the tracer
# wraps every module's binding of it
from .activations import _check_gamma, _pair_stats, capture  # noqa: F401
from .errors import NumericalError, ShapeError, ValidationError
from .model import AlignmentPlan, LayerTransform, MethodTag, _as_array, _inverse

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


@dataclass(frozen=True)
class LayerAlignmentSummary:
    layer_index: int
    gamma: float
    corr_min: float
    corr_mean: float
    corr_max: float


def summaries_from_solutions(solutions):
    return tuple(
        LayerAlignmentSummary(i, sol.gamma, *(
            float(f(sol.correlations)) for f in (np.min, np.mean, np.max)
        ))
        for i, sol in enumerate(solutions)
    )


def inv_sqrt(s, gamma=0.0):
    """Inverse square root of a symmetric PSD matrix plus gamma * I.

    Eigenvalues are clamped below at EIGENVALUE_FLOOR before the -1/2 power,
    so rank-deficient inputs come back finite instead of infinite.
    """
    s = _as_array("matrix", s, 2)
    if s.shape[0] != s.shape[1] or not s.size:
        raise ShapeError(f"matrix must be square and non-empty, got shape {s.shape}")
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


def _whitened_solution(root_a, s_ab, root_b, gamma):
    m = root_a @ s_ab @ root_b
    try:
        u, sing, vt = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    u, vt = _fix_svd_signs(u, vt)
    return CcaSolution(
        p_a=root_a @ u,
        p_b=root_b @ vt.T,
        correlations=np.clip(sing, 0.0, 1.0),
        gamma=gamma,
    )


def solve_cca(stats):
    """Canonical projections for one layer pair from its scatter stats."""
    root_a = inv_sqrt(stats.s_aa, stats.gamma)
    root_b = inv_sqrt(stats.s_bb, stats.gamma)
    return _whitened_solution(root_a, stats.s_ab, root_b, stats.gamma)


def build_transform(sol, layer_index):
    """Layer transform carrying model B's features into model A's basis."""
    pa_inv = _inverse(
        sol.p_a, f"projection basis at layer {layer_index}", "; increase gamma"
    )
    t = (sol.p_b @ pa_inv).T
    try:
        return LayerTransform.general(t, layer_index)
    except (ValidationError, NumericalError) as exc:
        raise NumericalError(
            f"alignment transform at layer {layer_index} is too "
            f"ill-conditioned to invert; increase gamma ({exc})"
        ) from exc


def _layer_scale(s_aa, s_bb):
    return float(np.mean((np.diag(s_aa) + np.diag(s_bb)) / 2.0))


def default_gamma(s_aa, s_bb):
    """Scale-aware ridge: DEFAULT_GAMMA_COEFF x mean diagonal scatter."""
    s_aa, s_bb = (_as_array("scatter", s, 2) for s in (s_aa, s_bb))
    if s_aa.shape[0] != s_aa.shape[1] or not s_aa.size or s_aa.shape != s_bb.shape:
        raise ShapeError(
            f"scatters must be square, non-empty and of one shape, got "
            f"{s_aa.shape} and {s_bb.shape}"
        )
    return DEFAULT_GAMMA_COEFF * _layer_scale(s_aa, s_bb)


def solve_pair(pair, gamma=None):
    """Per-layer CCA solutions of one activations._PairStats.

    gamma=None applies the scale-aware default independently per layer;
    a float applies that exact ridge everywhere. The solutions are kept on
    the pair until it is solved at another ridge.
    """
    # hex() keeps -0.0 and 0.0 apart: the ridged matrices may differ
    key = None if gamma is None else float(gamma).hex()
    if pair.solved is not None and pair.solved[0] == key:
        return pair.solved[1]
    sols = []
    for i, (s_aa, s_bb, s_ab) in enumerate(
        zip(pair.a.grams, pair.b.grams, pair.s_ab)
    ):
        g = default_gamma(s_aa, s_bb) if gamma is None else float(gamma)
        root_a = pair.a.roots.get((i, g.hex()))
        if root_a is None:
            root_a = pair.a.roots[i, g.hex()] = inv_sqrt(s_aa, g)
        sols.append(_whitened_solution(root_a, s_ab, inv_sqrt(s_bb, g), g))
    pair.solved = key, sols
    return sols


def solve_layers(model_a, model_b, probes, gamma=None):
    """Per-hidden-layer CCA solutions aligning model_b to model_a.

    gamma=None applies the scale-aware default independently per layer;
    a float applies that exact ridge everywhere.
    """
    pair = next(_pair_stats([model_a, model_b], 0, probes, columns=False))
    return solve_pair(pair, gamma)


def plan_from_solutions(solutions):
    transforms = tuple(
        build_transform(sol, i) for i, sol in enumerate(solutions)
    )
    return AlignmentPlan(transforms, MethodTag.CCA)


def cca_plan(model_a, model_b, probes, gamma=None):
    """Alignment plan mapping model_b into model_a's feature space."""
    return plan_from_solutions(solve_layers(model_a, model_b, probes, gamma))


def _grid(pair):
    """Scale-aware candidate ridges: GAMMA_GRID_COEFFS x mean diag scatter."""
    scale = float(
        np.mean([_layer_scale(*g) for g in zip(pair.a.grams, pair.b.grams)])
    )
    return [c * scale for c in GAMMA_GRID_COEFFS]

"""Canonical correlation alignment between hidden layers.

Given scatter statistics of two width-n layers, whiten each side with the
inverse square root of its (ridged) scatter, take the SVD of the whitened
cross matrix, and read off projection bases whose paired columns are
maximally correlated. The layer transform that rewrites model B's features
in model A's basis is T = (P_b P_a^-1)^T; with an invertible linear mixing
between the two feature spaces this recovers the mixing's inverse exactly.

Only the ridge depends on gamma. solve_pair solves one
activations._PairStats at any ridge, keeping the reference's inverse
square roots once per (layer, gamma). The gamma search walks pairs in the
outer loop, as they are formed, and candidates in the inner loop; for
`merge --gamma-search` it also keeps each candidate's merge as a running
parameter sum, so the winner is written without solving any pair again.
Every product is the same BLAS call on the same operands as a from-scratch
solve, so results are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby

import numpy as np

# capture stays bound here: bench/test_tracer.py checks that the tracer
# wraps every module's binding of it
from .activations import _check_gamma, _pair_stats, capture  # noqa: F401
from .errors import GammaSelectionError, NumericalError, ShapeError, ValidationError
from .model import AlignmentPlan, LayerTransform, MethodTag, _check_rcond, apply_plan

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
    n = sol.p_a.shape[0]
    try:
        pa_inv = np.linalg.solve(sol.p_a, np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"projection basis at layer {layer_index} is singular; "
            f"a larger gamma may help: {exc}"
        ) from exc
    _check_rcond(
        sol.p_a, pa_inv, f"projection basis at layer {layer_index}",
        "; increase gamma",
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


def select_gamma(candidate_gammas, model_pairs, probes, eval_ds):
    """Pick the ridge whose CCA merges score best on held-out pairs.

    Each candidate is scored by the mean accuracy of the merged models over
    all pairs; a candidate whose merge fails numerically on any pair is
    dropped. Ties go to the larger gamma. candidate_gammas=None walks
    the scale-aware grid of the first pair, read from its statistics.

    Each model is captured once per run of pairs sharing a reference, and
    such pairs share its Grams and inverse square roots.
    """
    runs = (list(run) for _, run in groupby(model_pairs, lambda p: id(p[0])))
    pairs = chain.from_iterable(
        _pair_stats([run[0][0], *(b for _, b in run)], 0, probes, columns=False)
        for run in runs
    )
    return _search(candidate_gammas, pairs, eval_ds)[0]


def _search(candidate_gammas, pairs, eval_ds, keep_merge=False):
    """(select_gamma's choice, its merge or None) over an iterable of
    activations._PairStats, formed as they are consumed.

    keep_merge asks for the merge as (model, layer summaries), what
    merge_and_report makes of [reference, *partners] at the chosen gamma,
    for pairs sharing one reference. Each live candidate keeps its first
    pair's summaries and a merge._ModelSum, the sum average_models folds.
    """
    from .evaluation import accuracy, summaries_from_solutions
    from .merge import _ModelSum, average_models

    candidates = None
    if candidate_gammas is not None:
        candidates = sorted(float(g) for g in candidate_gammas)
        if not candidates:
            raise GammaSelectionError("no candidate gammas given")
    kept = {}  # candidate index -> (first pair's summaries, _ModelSum)
    scores = None  # candidate index -> accuracy per pair, failures removed
    try:
        for pair in pairs:
            if candidates is None:
                candidates = sorted(_grid(pair))
            if scores is None:
                scores = {c: [] for c in range(len(candidates))}
            for c in list(scores):
                try:
                    sols = solve_pair(pair, candidates[c])
                    aligned = apply_plan(pair.b.model, plan_from_solutions(sols))
                    merged = average_models([pair.a.model, aligned])
                    scores[c].append(accuracy(merged, eval_ds))
                except (NumericalError, ValidationError):
                    del scores[c]
                    kept.pop(c, None)
                    continue
                if keep_merge:
                    if c not in kept:
                        kept[c] = (summaries_from_solutions(sols),
                                   _ModelSum(pair.a.model))
                    kept[c][1].add(aligned)
            if not scores:
                break
    except (NumericalError, ValidationError):
        # only forming a pair raises out of the loop body
        if candidates is None:
            raise
        scores = {}  # every candidate would fail on this pair
    if scores is None:
        raise GammaSelectionError("no model pairs given")
    best = None
    best_score = -np.inf
    for c, pair_scores in scores.items():
        score = float(np.mean(pair_scores))
        # candidates ascend, so >= sends exact ties to the larger gamma
        if score >= best_score:
            best, best_score = c, score
    if best is None:
        raise GammaSelectionError(
            "every candidate gamma failed during merging"
        )
    if not keep_merge:
        return candidates[best], None
    summaries, total = kept[best]
    return candidates[best], (total.mean(), summaries)

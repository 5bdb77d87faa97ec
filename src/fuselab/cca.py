"""Canonical correlation alignment between hidden layers.

Given scatter statistics of two width-n layers, whiten each side with the
inverse square root of its (ridged) scatter, take the SVD of the whitened
cross matrix, and read off projection bases whose paired columns are
maximally correlated. The layer transform that rewrites model B's features
in model A's basis is T = (P_b P_a^-1)^T; with an invertible linear mixing
between the two feature spaces this recovers the mixing's inverse exactly.

Only the ridge depends on gamma. ReferenceStats holds what does not, for one
call: the reference's capture and Gram matrices, formed once, and its
inverse square roots, one per (layer, gamma). A partner is captured and its
scatter formed once (pair_scatter) and then solved at any number of ridges
(solve_pair). The gamma search walks pairs in the outer loop and candidates
in the inner loop, so no model is captured twice. For `merge --gamma-search`
the same loop also keeps each candidate's merge as a running parameter sum,
so the command captures each model once in total and writes the winning
candidate's merge without solving any pair again. Every product is the same
BLAS call on the same operands as a from-scratch solve, so results are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import ScatterStats, _check_gamma, _check_pair, capture
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


class ReferenceStats:
    """Gamma-free statistics of one reference model on one probe set.

    The reference is captured by the first capture_pair and its activations
    kept; its per-layer Gram matrices are formed by the first pair_scatter
    and kept; its inverse square roots are kept once per (layer, gamma). A
    partner's capture, Gram and cross-scatter live only as long as the
    caller holds them. Build one per call and drop it when the call's
    alignment loop ends: probes are mutable arrays, so the statistics must
    not outlive the call that computed them.
    """

    def __init__(self, reference, probes):
        self.reference = reference
        self.probes = probes
        self.acts = None
        self.grams = None
        self.roots = {}

    def capture_pair(self, other):
        """The reference's (captured once) and other's activations."""
        if self.acts is None:
            self.acts = capture(self.reference, self.probes)
        return self.acts, capture(other, self.probes)


def pair_scatter(stats, acts_a, acts_b):
    """Per-layer ScatterStats of the reference against a partner.

    acts_a must be the reference's capture on stats.probes. The ridge is
    applied at solve time, so every entry records gamma 0.
    """
    for a, b in zip(acts_a, acts_b):
        _check_pair(a, b)
    if stats.grams is None:
        stats.grams = [a.values.T @ a.values for a in acts_a]
    return [
        ScatterStats(
            s_aa, b.values.T @ b.values, a.values.T @ b.values, 0.0
        )
        for a, b, s_aa in zip(acts_a, acts_b, stats.grams)
    ]


def solve_pair(stats, scatters, gamma=None):
    """Per-layer CCA solutions from pair_scatter's output.

    gamma=None applies the scale-aware default independently per layer;
    a float applies that exact ridge everywhere.
    """
    sols = []
    for i, s in enumerate(scatters):
        g = default_gamma(s.s_aa, s.s_bb) if gamma is None else float(gamma)
        # hex() keeps -0.0 and 0.0 apart: the ridged matrices may differ
        key = (i, g.hex())
        root_a = stats.roots.get(key)
        if root_a is None:
            root_a = stats.roots[key] = inv_sqrt(s.s_aa, g)
        root_b = inv_sqrt(s.s_bb, g)
        sols.append(_whitened_solution(root_a, s.s_ab, root_b, g))
    return sols


def solve_layers(model_a, model_b, probes, gamma=None):
    """Per-hidden-layer CCA solutions aligning model_b to model_a.

    gamma=None applies the scale-aware default independently per layer;
    a float applies that exact ridge everywhere.
    """
    stats = ReferenceStats(model_a, probes)
    return solve_pair(
        stats, pair_scatter(stats, *stats.capture_pair(model_b)), gamma
    )


def plan_from_solutions(solutions):
    transforms = tuple(
        build_transform(sol, i) for i, sol in enumerate(solutions)
    )
    return AlignmentPlan(transforms, MethodTag.CCA)


def cca_plan(model_a, model_b, probes, gamma=None):
    """Alignment plan mapping model_b into model_a's feature space."""
    return plan_from_solutions(solve_layers(model_a, model_b, probes, gamma))


def _grid(gram_pairs):
    """Scale-aware candidate ridges: GAMMA_GRID_COEFFS x mean diag scatter."""
    scale = float(np.mean([_layer_scale(*grams) for grams in gram_pairs]))
    return [c * scale for c in GAMMA_GRID_COEFFS]


def select_gamma(candidate_gammas, model_pairs, probes, eval_ds):
    """Pick the ridge whose CCA merges score best on held-out pairs.

    Each candidate is scored by the mean accuracy of the merged models over
    all pairs; a candidate whose merge fails numerically on any pair is
    dropped. Ties go to the larger gamma. candidate_gammas=None walks
    the scale-aware grid of the first pair, read from its statistics.

    Pairs are walked in the outer loop, so each pair is captured and its
    scatter formed once, and pairs sharing a reference share its Grams and
    inverse square roots.
    """
    return _search(candidate_gammas, model_pairs, probes, eval_ds)[0]


def _search(candidate_gammas, model_pairs, probes, eval_ds, keep_merge=False):
    """(select_gamma's choice, its merge or None).

    keep_merge asks for the merge as (model, layer summaries), what
    merge_and_report makes of [reference, *partners] at the chosen gamma;
    it comes back when every pair has the same reference and
    _ModelSum.exact holds. Each live candidate then keeps its first pair's
    summaries and a running sum of [reference, *aligned partners].
    """
    from .evaluation import accuracy, summaries_from_solutions
    from .merge import _ModelSum, average_models

    candidates = None
    if candidate_gammas is not None:
        candidates = sorted(float(g) for g in candidate_gammas)
        if not candidates:
            raise GammaSelectionError("no candidate gammas given")
    if not model_pairs:
        raise GammaSelectionError("no model pairs given")
    reference = model_pairs[0][0]
    keep = (
        keep_merge
        and all(a is reference for a, _ in model_pairs)
        and _ModelSum.exact(reference, len(model_pairs) + 1)
    )
    kept = {}  # candidate index -> (first pair's summaries, _ModelSum)
    stats = None
    scores = None  # candidate index -> accuracy per pair, failures removed
    for model_a, model_b in model_pairs:
        if stats is None or stats.reference is not model_a:
            stats = ReferenceStats(model_a, probes)
        try:
            pair = pair_scatter(stats, *stats.capture_pair(model_b))
        except (NumericalError, ValidationError):
            if candidates is None:
                raise
            scores = {}  # every candidate would fail on this pair
            break
        if candidates is None:
            candidates = sorted(_grid((s.s_aa, s.s_bb) for s in pair))
        if scores is None:
            scores = {c: [] for c in range(len(candidates))}
        for c in list(scores):
            try:
                sols = solve_pair(stats, pair, candidates[c])
                aligned = apply_plan(model_b, plan_from_solutions(sols))
                merged = average_models([model_a, aligned])
                scores[c].append(accuracy(merged, eval_ds))
            except (NumericalError, ValidationError):
                del scores[c]
                kept.pop(c, None)
                continue
            if keep:
                if c not in kept:
                    kept[c] = summaries_from_solutions(sols), _ModelSum(model_a)
                kept[c][1].add(aligned)
        if not scores:
            break
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
    if not keep:
        return candidates[best], None
    summaries, total = kept[best]
    return candidates[best], (total.mean(), summaries)

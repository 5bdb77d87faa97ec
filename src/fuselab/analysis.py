"""Diagnostics on matchings and alignment transforms.

These quantify how far one-to-one neuron matching is from the full story:
how often the assignment passes over a neuron's single best correlate, how
well the large entries of a dense alignment transform cover the strong
correlates, how consistent matchings stay under composition through a third
model, and how the distribution of transform coefficients compares to the
hard 0/1 coefficients a permutation would use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matching, merge
from .activations import _pairs_among
from .errors import ConfigurationError, ShapeError, ValidationError
from .model import MethodTag, _as_array, _check_list, _check_number

COVERAGE_PAIRS = ((1, 5), (2, 10))
RATIO_KS = (1, 2)
INDIRECT_KEYS = ("mismatch_pct", "frobenius", "frobenius_normalized")


def non_optimal_matches(c, assignment):
    """Percent of rows matched away from their row-maximum correlate.

    A row counts as optimal whenever its matched entry attains the row
    maximum, so ties never count against the assignment.
    """
    values = matching._score_matrix(c)
    if assignment.mapping.shape[0] != values.shape[0]:
        raise ShapeError("assignment length does not match the matrix")
    if not values.size:
        raise ShapeError("score matrix is empty")
    return _non_optimal_pct(values, assignment.mapping)


def _non_optimal_pct(values, mapping):
    picked = values[np.arange(values.shape[0]), mapping]
    return float(100.0 * np.mean(picked < values.max(axis=1)))


def _coefficients(t, shape):
    """|T| of a LayerTransform or matrix, checked against the correlations'
    shape."""
    coeffs = np.abs(_as_array("transform", getattr(t, "forward", t), 2))
    if coeffs.shape != shape:
        raise ShapeError(
            f"correlation and transform shapes differ: {shape} != {coeffs.shape}"
        )
    return coeffs


def topk_coefficient_coverage(c, t, k_corr, k_coeff):
    """Percent of rows whose k_corr-th best correlate is covered.

    Covered means: the column holding the k_corr-th largest correlation of
    row i also carries one of the k_coeff largest |T| entries of row i.
    """
    values = matching._score_matrix(c)
    coeffs = _coefficients(t, values.shape)
    n = values.shape[0]
    k_corr = _check_number("k_corr", k_corr, 1, n, error=ValidationError)
    k_coeff = _check_number("k_coeff", k_coeff, 1, n, error=ValidationError)
    # stable descending orders; ties resolve toward the lower index
    want = np.argsort(-values, axis=1, kind="stable")[:, k_corr - 1]
    top = np.argsort(-coeffs, axis=1, kind="stable")[:, :k_coeff]
    hits = int(np.count_nonzero(top == want[:, None]))
    return float(100.0 * hits / n)


def wasserstein_1d(p, q):
    """W1 distance of two empirical 1-d distributions.

    Equal sizes pair off sorted samples; unequal sizes integrate the
    piecewise-constant quantile functions exactly.
    """
    p, q = (np.sort(_as_array("samples", x, 1)) for x in (p, q))
    if p.size == 0 or q.size == 0:
        raise ValidationError("need at least one sample on each side")
    n, m = p.size, q.size
    if n == m:
        return float(np.abs(p - q).mean())
    cuts = np.union1d(np.arange(1, n) / n, np.arange(1, m) / m)
    edges = np.concatenate(([0.0], cuts, [1.0]))
    widths = np.diff(edges)
    mids = (edges[:-1] + edges[1:]) / 2.0
    pi = np.minimum((mids * n).astype(int), n - 1)
    qi = np.minimum((mids * m).astype(int), m - 1)
    return float(np.sum(widths * np.abs(p[pi] - q[qi])))


def _kth_largest_per_row(matrix, k):
    k = _check_number("k", k, 1, matrix.shape[1], error=ValidationError)
    return np.sort(matrix, axis=1)[:, -k]


def coefficient_distribution_ratio(c, t, k):
    """How close the k-th largest |T| row entries sit to the k-th largest
    correlations, normalized by a permutation's distance to the same target.

    A permutation's k-th largest row coefficient is 1 for k = 1 and 0 for
    k >= 2. Ratio 0 means the transform mirrors the correlations; ratio 1
    means it is no closer than a hard permutation; math.inf flags a zero
    reference distance.
    """
    values = matching._score_matrix(c)
    coeffs = _coefficients(t, values.shape)
    top_corr = _kth_largest_per_row(values, k)
    top_coeff = _kth_largest_per_row(coeffs, k)
    reference = np.ones_like(top_corr) if k == 1 else np.zeros_like(top_corr)
    denom = wasserstein_1d(top_corr, reference)
    if denom == 0.0:
        return math.inf
    return wasserstein_1d(top_corr, top_coeff) / denom


def _column_partners(t):
    # partner of column j = row with the largest |entry|; for permutation
    # matrices this is exactly the matched slot
    return np.argmax(np.abs(t), axis=0)


@dataclass(frozen=True)
class IndirectLayerDiagnostics:
    layer_index: int
    mismatch_pct: float
    frobenius: float
    frobenius_normalized: float


def _indirect(plan_ca, plan_ba, plan_cb):
    """Per-layer disagreement of T_BA^-1 T_CA with the direct T_CB."""
    out = []
    for i, (t_ca, t_ba, t_cb) in enumerate(
        zip(plan_ca.transforms, plan_ba.transforms, plan_cb.transforms)
    ):
        indirect = t_ba.inverse @ t_ca.forward
        direct = t_cb.forward
        mismatch = float(
            100.0
            * np.mean(_column_partners(indirect) != _column_partners(direct))
        )
        frob = float(np.linalg.norm(indirect - direct))
        ref = float(np.linalg.norm(direct))
        out.append(
            IndirectLayerDiagnostics(
                i, mismatch, frob, frob / ref if ref > 0 else math.inf
            )
        )
    return out


def _plans(pairs, methods, gamma):
    """Each _PairStats' {method: plan}, made by merge._align in methods' order."""
    return [
        {m: merge._align(p.b.model, m, iter([p]), gamma) for m in methods}
        for p in pairs
    ]


def indirect_matching_diagnostics(
    model_a, model_b, model_c, method, probes, gamma=None
):
    """Compare matching C to B directly against routing C through A.

    Builds T_CA, T_BA, T_CB with the given method, forms the indirect
    T_CAB = T_BA^-1 T_CA, and reports per layer how much it disagrees with
    the direct T_CB: percent of C-neurons whose B-partner changes, the
    Frobenius norm of the difference, and that norm over ||T_CB||_F. Each
    model is captured once.
    """
    if method not in (MethodTag.PERMUTE, MethodTag.CCA):
        raise ConfigurationError(
            "indirect matching is defined for permute and cca"
        )
    pairs = _pairs_among((model_a, model_b, model_c), probes, ((0, 2), (0, 1), (1, 2)))
    return _indirect(*(p[method] for p in _plans(pairs, (method,), gamma)))


@dataclass(frozen=True)
class PairLayerDiagnostics:
    layer_index: int
    non_optimal_pct: float
    coverage: tuple  # ((k_corr, k_coeff, percent), ...)
    wasserstein_ratios: tuple  # ((k, ratio), ...)


def _diagnose_pair(corrs, plans):
    """Pair diagnostics of one pair's correlations and {method: plan}."""
    out = []
    matched, dense = (plans[m].transforms for m in (MethodTag.PERMUTE, MethodTag.CCA))
    for i, (corr, perm, transform) in enumerate(zip(corrs, matched, dense)):
        n = corr.values.shape[0]
        # row i of a permutation holds its matched column's 1
        mapping = np.argmax(perm.forward, axis=1)
        coverage = tuple(
            (kc, kt, topk_coefficient_coverage(corr, transform, kc, kt))
            for kc, kt in COVERAGE_PAIRS
            if kc <= n and kt <= n
        )
        ratios = tuple(
            (k, coefficient_distribution_ratio(corr, transform, k))
            for k in RATIO_KS
            if k <= n
        )
        out.append(
            PairLayerDiagnostics(
                i, _non_optimal_pct(corr.values, mapping), coverage, ratios
            )
        )
    return out


def _mean(diagnostics, key):
    return float(np.mean([getattr(d, key) for d in diagnostics]))


@dataclass(frozen=True)
class AnalysisReport:
    """Container the analyze command serializes."""

    num_models: int
    gamma_requested: float | None
    pair_layers: tuple
    indirect: dict | None = None  # method value -> tuple of layer diagnostics

    def to_items(self):
        items = [
            ("report", "analysis"),
            ("models", self.num_models),
            ("gamma_requested", self.gamma_requested),
        ]
        for d in self.pair_layers:
            p = f"layer.{d.layer_index}"
            items.append((f"{p}.non_optimal_pct", d.non_optimal_pct))
            for kc, kt, pct in d.coverage:
                items.append((f"{p}.coverage.c{kc}.t{kt}", pct))
            for k, ratio in d.wasserstein_ratios:
                items.append((f"{p}.wasserstein_ratio.k{k}", ratio))
        if self.pair_layers:
            mean = _mean(self.pair_layers, "non_optimal_pct")
            items.append(("mean.non_optimal_pct", mean))
        for method_value, layers in (self.indirect or {}).items():
            for d in layers:
                p = f"layer.{d.layer_index}.{method_value}"
                items += [(f"{p}.{k}", getattr(d, k)) for k in INDIRECT_KEYS]
            for k in ("mismatch_pct", "frobenius_normalized"):
                items.append((f"mean.{method_value}.{k}", _mean(layers, k)))
        return items


def analyze(models, probes, gamma=None):
    """Pair diagnostics for the first two models; triple diagnostics when a
    third is given.

    Each model is captured once, and both methods' plans and the
    diagnostics' correlations come from one pair's statistics.
    """
    if len(_check_list("models", models)) not in (2, 3):
        raise ConfigurationError("analysis works on 2 or 3 models")
    index_pairs = ((0, 1), (0, 2), (1, 2))[: 1 if len(models) == 2 else 3]
    pairs = _pairs_among(models, probes, index_pairs)
    plans = _plans(pairs, (MethodTag.CCA, MethodTag.PERMUTE), gamma)
    pair_layers = _diagnose_pair(pairs[0].correlations(), plans[0])
    indirect = None
    if len(models) == 3:
        plans_ab, plans_ac, plans_bc = plans
        indirect = {
            method.value: tuple(
                _indirect(plans_ac[method], plans_ab[method], plans_bc[method])
            )
            for method in (MethodTag.PERMUTE, MethodTag.CCA)
        }
    return AnalysisReport(
        num_models=len(models),
        gamma_requested=gamma,
        pair_layers=tuple(pair_layers),
        indirect=indirect,
    )

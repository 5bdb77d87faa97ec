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

from . import cca, matching, merge
from .activations import correlations
from .errors import ConfigurationError, ShapeError, ValidationError
from .model import MethodTag

COVERAGE_PAIRS = ((1, 5), (2, 10))
RATIO_KS = (1, 2)


def _square_values(c):
    values = c.values if hasattr(c, "values") else np.asarray(c, dtype=np.float64)
    if values.ndim != 2:
        raise ShapeError("expected a matrix")
    return values


def non_optimal_matches(c, assignment):
    """Percent of rows matched away from their row-maximum correlate.

    A row counts as optimal whenever its matched entry attains the row
    maximum, so ties never count against the assignment.
    """
    values = _square_values(c)
    n = values.shape[0]
    mapping = assignment.mapping
    if mapping.shape[0] != n:
        raise ShapeError("assignment length does not match the matrix")
    picked = values[np.arange(n), mapping]
    return float(100.0 * np.mean(picked < values.max(axis=1)))


def _kth_largest_index(row, k):
    # stable descending order; ties resolve toward the lower index
    return int(np.argsort(-row, kind="stable")[k - 1])


def _top_indices(row, k):
    return np.argsort(-row, kind="stable")[:k]


def topk_coefficient_coverage(c, t, k_corr, k_coeff):
    """Percent of rows whose k_corr-th best correlate is covered.

    Covered means: the column holding the k_corr-th largest correlation of
    row i also carries one of the k_coeff largest |T| entries of row i.
    """
    values = _square_values(c)
    coeffs = np.abs(t.forward if hasattr(t, "forward") else np.asarray(t))
    if values.shape != coeffs.shape:
        raise ShapeError("correlation and transform shapes differ")
    n = values.shape[0]
    if not (1 <= k_corr <= n and 1 <= k_coeff <= n):
        raise ValidationError("k out of range for the layer width")
    hits = 0
    for i in range(n):
        want = _kth_largest_index(values[i], k_corr)
        if want in _top_indices(coeffs[i], k_coeff):
            hits += 1
    return float(100.0 * hits / n)


def wasserstein_1d(p, q):
    """W1 distance of two empirical 1-d distributions.

    Equal sizes pair off sorted samples; unequal sizes integrate the
    piecewise-constant quantile functions exactly.
    """
    p = np.sort(np.asarray(p, dtype=np.float64))
    q = np.sort(np.asarray(q, dtype=np.float64))
    if p.size == 0 or q.size == 0:
        raise ValidationError("need at least one sample on each side")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise ValidationError("samples contain non-finite entries")
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
    if not 1 <= k <= matrix.shape[1]:
        raise ValidationError("k out of range for the layer width")
    return np.sort(matrix, axis=1)[:, -k]


def coefficient_distribution_ratio(c, t, k):
    """How close the k-th largest |T| row entries sit to the k-th largest
    correlations, normalized by a permutation's distance to the same target.

    A permutation's k-th largest row coefficient is 1 for k = 1 and 0 for
    k >= 2. Ratio 0 means the transform mirrors the correlations; ratio 1
    means it is no closer than a hard permutation; math.inf flags a zero
    reference distance.
    """
    values = _square_values(c)
    coeffs = np.abs(t.forward if hasattr(t, "forward") else np.asarray(t))
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


def indirect_matching_diagnostics(
    model_a, model_b, model_c, method, probes, gamma=None
):
    """Compare matching C to B directly against routing C through A.

    Builds T_CA, T_BA, T_CB with the given method, forms the indirect
    T_CAB = T_BA^-1 T_CA, and reports per layer how much it disagrees with
    the direct T_CB: percent of C-neurons whose B-partner changes, the
    Frobenius norm of the difference, and that norm over ||T_CB||_F.
    """
    if method not in (MethodTag.PERMUTE, MethodTag.CCA):
        raise ConfigurationError(
            "indirect matching is defined for permute and cca"
        )
    plan_ca = merge.align(model_a, model_c, method, probes, gamma)
    plan_ba = merge.align(model_a, model_b, method, probes, gamma)
    plan_cb = merge.align(model_b, model_c, method, probes, gamma)
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


@dataclass(frozen=True)
class PairLayerDiagnostics:
    layer_index: int
    non_optimal_pct: float
    coverage: tuple  # ((k_corr, k_coeff, percent), ...)
    wasserstein_ratios: tuple  # ((k, ratio), ...)


def pair_diagnostics(model_a, model_b, probes, gamma=None):
    """Per-layer matching diagnostics for one model pair."""
    stats = cca.ReferenceStats(model_a, probes)
    acts_a, acts_b = stats.capture_pair(model_b)
    sols = cca.solve_pair(stats, cca.pair_scatter(stats, acts_a, acts_b), gamma)
    out = []
    for i, (a, b) in enumerate(zip(acts_a, acts_b)):
        corr = correlations(a, b)
        assign = matching.linear_sum_assignment(corr)
        transform = cca.build_transform(sols[i], i)
        n = corr.values.shape[0]
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
                i, non_optimal_matches(corr, assign), coverage, ratios
            )
        )
    return out


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
            items.append(
                (
                    "mean.non_optimal_pct",
                    float(
                        np.mean([d.non_optimal_pct for d in self.pair_layers])
                    ),
                )
            )
        if self.indirect:
            for method_value, layers in self.indirect.items():
                for d in layers:
                    p = f"layer.{d.layer_index}.{method_value}"
                    items += [
                        (f"{p}.mismatch_pct", d.mismatch_pct),
                        (f"{p}.frobenius", d.frobenius),
                        (
                            f"{p}.frobenius_normalized",
                            d.frobenius_normalized,
                        ),
                    ]
                items.append(
                    (
                        f"mean.{method_value}.mismatch_pct",
                        float(np.mean([d.mismatch_pct for d in layers])),
                    )
                )
                items.append(
                    (
                        f"mean.{method_value}.frobenius_normalized",
                        float(
                            np.mean([d.frobenius_normalized for d in layers])
                        ),
                    )
                )
        return items


def analyze(models, probes, gamma=None):
    """Pair diagnostics for the first two models; triple diagnostics when a
    third is given."""
    if len(models) not in (2, 3):
        raise ConfigurationError("analysis works on 2 or 3 models")
    pair_layers = tuple(pair_diagnostics(models[0], models[1], probes, gamma))
    indirect = None
    if len(models) == 3:
        indirect = {
            method.value: tuple(
                indirect_matching_diagnostics(
                    models[0], models[1], models[2], method, probes, gamma
                )
            )
            for method in (MethodTag.PERMUTE, MethodTag.CCA)
        }
    return AnalysisReport(
        num_models=len(models),
        gamma_requested=gamma,
        pair_layers=pair_layers,
        indirect=indirect,
    )

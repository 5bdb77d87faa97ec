"""Neuron matching by maximum-score linear sum assignment.

The solver maximizes sum_i C[i, mapping[i]] exactly. When several
assignments tie at the optimum the result is canonicalized to the
lexicographically smallest mapping, i.e. the outcome of breaking ties with
an infinitesimal -eps * column-index perturbation.

One solver call gives an optimum sigma. Every other optimum differs from
sigma only along zero-cost cycles of the exchange graph, whose edge i -> k
costs C[i, sigma(i)] - C[i, sigma(k)] (row i giving up its column for row
k's). All-pairs shortest paths over that graph give each row's cheapest
cycle; rows with no near-zero cycle keep sigma(i), and only the remaining
rows are canonicalized exactly, by fixing them greedily and re-checking
optimality of the remainder. The solve and the cycle search are O(n^3); the
greedy costs O(k^2) solves for k rows that can tie.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import CorrelationMatrix, capture, correlations
from .errors import ShapeError, ValidationError
from .model import AlignmentPlan, LayerTransform, MethodTag

# slack for comparing float assignment scores computed in different orders;
# exact ties (duplicate entries) differ by at most a few ulps of the total
SCORE_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class Assignment:
    """mapping[i] = matched column of row i; total_score = sum of picks."""

    mapping: np.ndarray
    total_score: float

    def __post_init__(self):
        m = np.array(self.mapping, dtype=np.intp)
        m.setflags(write=False)
        object.__setattr__(self, "mapping", m)


def _score_matrix(c):
    if isinstance(c, CorrelationMatrix):
        c = c.values
    m = np.asarray(c, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"score matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("score matrix contains non-finite entries")
    return m


def _best_score(matrix):
    from scipy import optimize  # deferred: importing it dominates import time

    rows, cols = optimize.linear_sum_assignment(matrix, maximize=True)
    return float(matrix[rows, cols].sum()), cols


def _cheapest_cycles(m, sigma):
    """Cost of the cheapest exchange-graph cycle through each row."""
    own = m[np.arange(m.shape[0]), sigma]
    d = own[:, None] - m[:, sigma]
    np.fill_diagonal(d, np.inf)
    step = np.empty_like(d)
    for k in range(d.shape[0]):  # Floyd-Warshall, one pivot row per round
        np.add(d[:, k, None], d[None, k, :], out=step)
        np.minimum(d, step, out=d)
    return np.diagonal(d)


def _greedy(m, optimum, tol):
    """Lexicographically smallest mapping scoring within tol of optimum."""
    n = m.shape[0]
    available = list(range(n))
    mapping = np.empty(n, dtype=np.intp)
    prefix = 0.0
    for i in range(n):
        for j in available:
            rest_cols = [c_ for c_ in available if c_ != j]
            rest = _best_score(m[i + 1 :, rest_cols])[0] if rest_cols else 0.0
            if prefix + m[i, j] + rest >= optimum - tol:
                mapping[i] = j
                prefix += m[i, j]
                available.remove(j)
                break
        else:  # pragma: no cover - the optimum always extends
            raise ValidationError("assignment canonicalization failed")
    return mapping


def linear_sum_assignment(c):
    """Exact maximum assignment, lexicographically smallest among optima."""
    m = _score_matrix(c)
    n = m.shape[0]
    optimum, sigma = _best_score(m)
    tol = SCORE_RTOL * max(1.0, abs(optimum))
    # a cycle cost sums up to n rounded differences; the slack covers that
    # rounding so that no row the greedy could move is wrongly kept fixed
    eps = np.finfo(np.float64).eps
    slack = 2.0 * tol + 4.0 * n * eps * float(np.abs(m).max(initial=0.0))
    mapping = sigma.astype(np.intp)
    rows = np.flatnonzero(_cheapest_cycles(m, mapping) <= slack)
    if rows.size:
        cols = np.sort(mapping[rows])
        sub = m[np.ix_(rows, cols)]
        sub_optimum = float(m[rows, mapping[rows]].sum())
        mapping[rows] = cols[_greedy(sub, sub_optimum, tol)]
    total = float(m[np.arange(n), mapping].sum())
    return Assignment(mapping, total)


def identity_plan(model):
    """The do-nothing plan: identity transform at every hidden layer."""
    transforms = tuple(
        LayerTransform.from_mapping(np.arange(layer.out_dim), i)
        for i, layer in enumerate(model.layers[:-1])
    )
    return AlignmentPlan(transforms, MethodTag.IDENTITY)


def permute_plan(model_a, model_b, probes):
    """Permutation plan mapping model_b's neurons onto model_a's.

    Per hidden layer: Pearson correlations between the two models' neurons
    on the probes, then the assignment that maximizes total matched
    correlation; the transform places b-neuron mapping[i] at slot i.
    """
    return plan_from_activations(
        capture(model_a, probes), capture(model_b, probes)
    )


def plan_from_activations(acts_a, acts_b):
    """permute_plan from the two models' captures on the same probes."""
    transforms = []
    for i, (a, b) in enumerate(zip(acts_a, acts_b)):
        assign = linear_sum_assignment(correlations(a, b))
        transforms.append(LayerTransform.from_mapping(assign.mapping, i))
    return AlignmentPlan(tuple(transforms), MethodTag.PERMUTE)

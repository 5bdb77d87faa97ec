"""Neuron matching by maximum-score linear sum assignment.

The solver maximizes sum_i C[i, mapping[i]] exactly. When several
assignments tie at the optimum the result is canonicalized to the
lexicographically smallest mapping, i.e. the outcome of breaking ties with
an infinitesimal -eps * column-index perturbation.

One solver call (numpy's up to NUMPY_SOLVER_WIDTH, scipy's above) gives an
optimum sigma. Every other optimum differs from sigma only along zero-cost
cycles of the exchange graph, whose edge i -> k costs C[i, sigma(i)] -
C[i, sigma(k)] (row i giving up its column for row k's). Under potentials
from the solver's prices no edge costs less than zero, so rows without a
near-zero edge in and out lie on no near-zero cycle and keep sigma(i); only
the remaining rows are canonicalized exactly, by fixing them greedily and
re-checking optimality of the remainder. The solve is O(n^3), the filter
O(n^2) a round; the greedy costs O(k^2) solves for k rows that can tie.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# capture stays bound here: bench/test_tracer.py checks that the tracer
# wraps every module's binding of it
from .activations import CorrelationMatrix, _pair_stats, capture  # noqa: F401
from .errors import ShapeError, ValidationError
from .model import AlignmentPlan, LayerTransform, MethodTag

# slack for comparing float assignment scores computed in different orders;
# exact ties (duplicate entries) differ by at most a few ulps of the total
SCORE_RTOL = 1e-12

# widest matrix solved in numpy. Its worst extra time per solve over scipy's
# is 1/40 of scipy's 0.7 s import (41 MB) at 128, 1/3 at 512 (2-core VM, ms,
# numpy/scipy: correlations 4.0/1.0, 31/19 at 512; low-rank 18/1.5, 297/54)
NUMPY_SOLVER_WIDTH = 128


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


def _shortest_augmenting_paths(cost):
    """(col4row, v): a minimum-cost assignment of the square matrix cost and
    column duals v, cost[i, j] - v[j] being least at j = col4row[i]. A
    Jonker-Volgenant start (Computing 1987) leaves few rows for scipy's
    shortest augmenting paths (Crouse, IEEE TAES 2016). O(n^3)."""
    n = cost.shape[0]
    col4row, row4col = np.full((2, n), -1, dtype=np.intp)
    if n == 0:
        return col4row, np.zeros(0)
    v = cost.min(axis=0)  # column reduction, then rounds of bids
    rows, cols = np.unique(cost.argmin(axis=0), return_index=True)
    col4row[rows], row4col[cols] = cols, rows
    free = np.flatnonzero(col4row < 0)
    while free.size:  # each free row bids for its cheapest column
        reduced, at = cost[free] - v, np.arange(free.size)
        best = reduced.argmin(axis=1)
        low = reduced[at, best]
        open_ = (reduced == low[:, None]) & (row4col < 0)  # tied and free
        best = np.where(open_.any(axis=1), open_.argmax(axis=1), best)
        reduced[at, best] = np.inf
        high = reduced.min(axis=1)  # the bid lowers v[best] by high - low
        bids = np.lexsort((low - high, best))  # per column, largest bid first
        won = bids[np.r_[True, np.diff(best[bids]) != 0]]
        cols = best[won]
        v[cols] -= high[won] - low[won]
        col4row[row4col[cols][row4col[cols] >= 0]] = -1
        col4row[free[won]], row4col[cols] = cols, free[won]
        free, before = np.flatnonzero(col4row < 0), free.size
        if free.size >= before:  # the round freed as many rows as it placed
            break
    u = cost[np.arange(n), col4row] - v[col4row]
    u[free] = 0.0
    offers = np.empty((n, n))  # offers[k]: distances through the k-th row
    for start in free:
        dist = np.full(n, np.inf)
        shift = -v  # and +inf on scanned columns, so no path reaches them
        path, i, low = [], start, 0.0
        while i >= 0:  # until the path reaches a free column
            offer = np.add(cost[i], low - u[i], out=offers[len(path)])
            offer += shift
            np.minimum(dist, offer, out=dist)
            j = int(dist.argmin())
            low = dist[j]
            path.append((i, j, low))
            dist[j] = shift[j] = np.inf
            i = row4col[j]
        rows, cols, lows = (np.array(x) for x in zip(*path))
        u[start] += low
        u[rows[1:]] += low - lows[:-1]
        v[cols] -= low - lows
        while j >= 0:  # flip the path; a column's first best offer leads back
            i = rows[int(offers[: len(path), j].argmin())]
            row4col[j], col4row[i], j = i, j, col4row[i]
    return col4row, v


def _best_score(matrix):
    """(score, col4row, column prices, zeros from scipy) of an optimum."""
    if matrix.shape[0] <= NUMPY_SOLVER_WIDTH:
        cols, v = _shortest_augmenting_paths(-matrix)
    else:
        from scipy import optimize  # deferred: its import costs about 0.7 s
        cols = optimize.linear_sum_assignment(matrix, maximize=True)[1]
        v = np.zeros(matrix.shape[0])
    return float(matrix[np.arange(matrix.shape[0]), cols].sum()), cols, v


def _tie_rows(m, sigma, prices, tol):
    """A superset of the rows on exchange-graph cycles scoring within tol.

    Capped Bellman-Ford sweeps from the solver's prices make the potentials
    feasible (Johnson 1977). A near-zero cycle sums up to n reduced costs,
    none below the lowest; slack and noise cover their rounding. O(n^3)."""
    n = m.shape[0]
    d = m[np.arange(n), sigma][:, None] - m[:, sigma]
    np.fill_diagonal(d, np.inf)
    eps, scale = np.finfo(np.float64).eps, float(np.abs(m).max(initial=0.0))
    slack, pi = 2.0 * tol + 4.0 * n * eps * scale, prices[sigma]
    for _ in range(n):  # capped: a zero cycle rounded below zero never settles
        lower = np.minimum(pi, (pi[:, None] + d).min(axis=0))
        fell, pi = float((pi - lower).max()), lower
        if fell <= slack:
            break
    reduced = d + pi[:, None] - pi[None, :]
    noise = 4.0 * eps * (scale + float(np.abs(pi).max(initial=0.0)))
    near = reduced <= slack + n * (noise - min(0.0, reduced.min(initial=0.0)))
    keep, drop = np.ones(n, dtype=bool), np.ones(n, dtype=bool)
    while drop.any():  # drop rows with no near-zero edge in or out
        drop = keep & ~(near[keep].any(axis=0) & near[:, keep].any(axis=1))
        keep &= ~drop
    return np.flatnonzero(keep)


def _greedy(m, optimum, tol):
    """Lexicographically smallest mapping scoring within tol of optimum."""
    n = m.shape[0]
    available = list(range(n))
    mapping = np.empty(n, dtype=np.intp)
    prefix = 0.0
    for i in range(n):
        for j in available:
            rest_cols = [c_ for c_ in available if c_ != j]
            rest = _best_score(m[i + 1 :, rest_cols])[0]
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
    optimum, sigma, prices = _best_score(m)
    tol = SCORE_RTOL * max(1.0, abs(optimum))
    mapping = sigma.astype(np.intp)
    rows = _tie_rows(m, mapping, prices, tol)
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
    pair = next(_pair_stats([model_a, model_b], 0, probes))
    return _plan_from_correlations(pair.correlations())


def _plan_from_correlations(corrs):
    """permute_plan from a pair's per-layer CorrelationMatrix list."""
    transforms = tuple(
        LayerTransform.from_mapping(linear_sum_assignment(c).mapping, i)
        for i, c in enumerate(corrs)
    )
    return AlignmentPlan(transforms, MethodTag.PERMUTE)

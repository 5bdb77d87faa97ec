"""Neuron matching by maximum-score linear sum assignment.

The solver maximizes sum_i C[i, mapping[i]] exactly. When several
assignments tie at the optimum the result is canonicalized to the
lexicographically smallest mapping, i.e. the outcome of breaking ties with
an infinitesimal -eps * column-index perturbation.

One shortest-augmenting-path solve gives an optimum sigma and column
duals. Under them no reduced cost is negative, so an assignment scores
below sigma by the sum of its reduced costs, and only rows on cycles of
cheap exchanges (row i taking sigma(k)) can differ from sigma. Those rows
are fixed in order, each to the smallest column whose best completion
still scores within tolerance; one reverse Dijkstra over the reduced
costs prices every completion of a row. The solve is O(n^3), each row
that moves O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# capture stays bound here: bench/test_tracer.py checks that the tracer
# wraps every module's binding of it
from .activations import CorrelationMatrix, _pair_stats, capture  # noqa: F401
from .errors import ShapeError
from .model import (
    AlignmentPlan, LayerTransform, MethodTag, MlpModel, _as_array, _as_permutation,
    _check_kind,
)

# slack for comparing float assignment scores computed in different orders;
# exact ties (duplicate entries) differ by at most a few ulps of the total
SCORE_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class Assignment:
    """mapping[i] = matched column of row i; total_score = sum of picks."""

    mapping: np.ndarray
    total_score: float

    def __post_init__(self):
        m = _as_permutation("assignment mapping", self.mapping, empty=True)
        object.__setattr__(self, "mapping", m)


def _score_matrix(c):
    if isinstance(c, CorrelationMatrix):
        c = c.values
    m = _as_array("score matrix", c, 2)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"score matrix must be square, got shape {m.shape}")
    return m


def _shortest_augmenting_paths(cost):
    """(col4row, v): a minimum-cost assignment of the square matrix cost and
    column duals v, cost[i, j] - v[j] being least at j = col4row[i]. A
    Jonker-Volgenant start (Computing 1987) leaves few rows for shortest
    augmenting paths (Crouse, IEEE TAES 2016). O(n^3)."""
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


def _smallest_optimum(cost, sigma, v, budget):
    """The lexicographically smallest assignment costing at most budget
    more than sigma, a minimum-cost assignment with column duals v.

    Shifting the potentials by each move's Dijkstra distances, capped
    where the search stopped, keeps the open rows' reduced costs >= 0 and
    0 on the current assignment, so every completion is one shortest
    path."""
    n = cost.shape[0]
    reduced = cost - (cost[np.arange(n), sigma] - v[sigma])[:, None] - v
    # rounding leaves reduced costs a little below zero, so a path within
    # budget can hold an edge, or a prefix, up to noise above it
    scale = float(np.abs(cost).max(initial=0.0))
    noise = 4.0 * n * np.finfo(np.float64).eps * scale
    near = reduced[:, sigma] <= budget + noise  # row i takes sigma(k)
    np.fill_diagonal(near, False)
    keep, drop = np.ones(n, dtype=bool), np.ones(n, dtype=bool)
    while drop.any():  # rows on no cycle of such edges keep sigma
        drop = keep & ~(near[keep].any(axis=0) & near[:, keep].any(axis=1))
        keep &= ~drop
    rows = np.flatnonzero(keep)
    cols = np.sort(sigma[rows])
    r = reduced[np.ix_(rows, cols)]
    own = np.searchsorted(cols, sigma[rows])  # own[a]: the column row a holds
    for a in range(rows.size):
        goal, rest, later = own[a], own[a + 1 :], r[a + 1 :]
        limit = budget + noise
        if not (r[a, rest[rest < goal]] <= limit).any():
            continue  # no column left of its own fits
        # dist[b]: least cost of row a + 1 + b handing its column on along a
        # path on which the last row takes goal; via[b]: its next column
        tentative, via = later[:, goal].copy(), np.full(rest.size, goal)
        dist, settled = np.full(rest.size, limit), np.zeros(rest.size)
        while tentative.min() <= limit:
            b = int(tentative.argmin())
            dist[b], tentative[b] = tentative[b], np.inf
            settled[b] = np.inf  # so no step reaches it again
            step = later[:, rest[b]] + settled + dist[b]
            better = step < tentative
            tentative[better], via[better] = step[better], rest[b]
        fits = (settled > 0) & (rest < goal) & (r[a, rest] + dist <= budget)
        if not fits.any():
            continue
        b = np.flatnonzero(fits)[rest[fits].argmin()]
        budget -= r[a, rest[b]] + dist[b]
        label = np.zeros(cols.size)
        label[rest] = dist  # by the owners before the move
        later += label - dist[:, None]
        path = [b]
        while via[path[-1]] != goal:
            path.append(int(np.flatnonzero(rest == via[path[-1]])[0]))
        own[a], own[a + 1 + np.array(path)] = rest[b], via[path]
    mapping = sigma.copy()
    mapping[rows] = cols[own]
    return mapping


def linear_sum_assignment(c):
    """Exact maximum assignment, lexicographically smallest among optima."""
    m = _score_matrix(c)
    sigma, v = _shortest_augmenting_paths(-m)
    at = np.arange(m.shape[0])
    tol = SCORE_RTOL * max(1.0, abs(float(m[at, sigma].sum())))
    mapping = _smallest_optimum(-m, sigma, v, tol)
    return Assignment(mapping, float(m[at, mapping].sum()))


def identity_plan(model):
    """The do-nothing plan: identity transform at every hidden layer."""
    _check_kind("model", model, MlpModel)
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

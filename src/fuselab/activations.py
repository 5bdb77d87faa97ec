"""Hidden-feature statistics on a probe set.

Capture runs probes through a model and keeps the post-activation output of
every hidden layer, column-centered. Alignment reads a capture pair only
through its _PairStats: per layer, each model's Gram X^T X, column norms
and dead-neuron mask, and S_ab = A^T B. The permute correlations and the
CCA solutions at any ridge all come from those. Neurons whose probe
variance is below DEGENERATE_VARIANCE cannot carry a correlation and are
flagged instead of poisoning downstream algebra.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .model import _as_array, _check_number, hidden_outputs

DEGENERATE_VARIANCE = 1e-12


@dataclass(frozen=True, eq=False)
class ActivationMatrix:
    """Centered activations for one hidden layer: values is (m, width)."""

    values: np.ndarray
    column_means: np.ndarray
    layer_index: int
    m: int

    def __post_init__(self):
        v = _as_array("activations", self.values, 2, copy=True)
        mu = _as_array("column means", self.column_means, 1, copy=True)
        if mu.shape != (v.shape[1],):
            raise ShapeError("activations and means do not line up")
        if v.shape[0] != self.m:
            raise ShapeError("row count disagrees with m")
        v.setflags(write=False)
        mu.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "column_means", mu)

    @classmethod
    def _adopt(cls, values, column_means, layer_index):
        """Wrap arrays the caller made and hands over, without copying."""
        values.setflags(write=False)
        column_means.setflags(write=False)
        mat = object.__new__(cls)
        for name, value in (
            ("values", values),
            ("column_means", column_means),
            ("layer_index", layer_index),
            ("m", values.shape[0]),
        ):
            object.__setattr__(mat, name, value)
        return mat

    @property
    def width(self):
        return self.values.shape[1]

    def variances(self):
        # population variance of the original columns; values are centered
        return np.mean(self.values**2, axis=0)


@dataclass(frozen=True, eq=False)
class ScatterStats:
    """Cross products of two centered activation blocks plus the ridge."""

    s_aa: np.ndarray
    s_bb: np.ndarray
    s_ab: np.ndarray
    gamma: float


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Pearson correlations; [i, j] pairs a-neuron i with b-neuron j."""

    values: np.ndarray
    degenerate_mask: np.ndarray


def probe_matrix(probes):
    x = _as_array("probes", probes, 2)
    if x.shape[0] < 2:
        raise ValidationError("need at least 2 probe rows")
    return x


def capture(model, probes):
    """Centered post-activation matrices, one per hidden layer."""
    x = probe_matrix(probes)
    mats = []
    for i, h in enumerate(hidden_outputs(model, x)):
        # h is a fresh array nothing else refers to: center it in place
        mu = h.mean(axis=0)
        h -= mu
        mats.append(ActivationMatrix._adopt(h, mu, i))
    return mats


def _check_pair(a, b):
    if a.m != b.m:
        raise ShapeError(f"probe counts differ: {a.m} != {b.m}")
    if a.width != b.width:
        raise ShapeError(f"widths differ: {a.width} != {b.width}")
    if a.layer_index != b.layer_index:
        raise ShapeError(
            f"layer indices differ: {a.layer_index} != {b.layer_index}"
        )


def _check_gamma(gamma):
    return _check_number("gamma", gamma, 0, real=True, error=ValidationError)


def _columns(x):
    """(column norms, dead-neuron mask) of one centered activation block."""
    return np.linalg.norm(x.values, axis=0), x.variances() < DEGENERATE_VARIANCE


def _correlations(s_ab, columns_a, columns_b):
    (norm_a, dead_a), (norm_b, dead_b) = columns_a, columns_b
    denom = np.outer(norm_a, norm_b)
    mask = np.logical_or.outer(dead_a, dead_b)
    denom[mask] = 1.0
    values = s_ab / denom
    values[mask] = 0.0
    return CorrelationMatrix(values, mask)


# one model's per-layer statistics from its capture; roots holds the Grams'
# inverse square roots per (layer, gamma) while the side is a reference
_Side = namedtuple("_Side", "model grams columns roots")


def _side(model, acts, columns=True):
    grams = [x.values.T @ x.values for x in acts]
    return _Side(model, grams, [_columns(x) for x in acts] if columns else None, {})


class _PairStats:
    """Everything alignment reads of one capture pair: the reference's side
    a (shared by all its pairs), the partner's side b, s_ab[i] = A_i^T B_i,
    and solved, the (gamma key, solutions) of the last CCA solve."""

    def __init__(self, a, b, s_ab):
        self.a, self.b, self.s_ab, self.solved = a, b, s_ab, None

    def correlations(self):
        layers = zip(self.s_ab, self.a.columns, self.b.columns)
        return [_correlations(*layer) for layer in layers]


def _pair(a, acts_a, b, acts_b):
    """_PairStats of two captures on one probe set, given their sides."""
    if len(acts_a) != len(acts_b):
        raise ShapeError(
            f"hidden layer counts differ: {len(acts_a)} != {len(acts_b)}"
        )
    for x, y in zip(acts_a, acts_b):
        _check_pair(x, y)
    return _PairStats(a, b, [x.values.T @ y.values for x, y in zip(acts_a, acts_b)])


def _pair_stats(models, reference_index, probes, columns=True):
    """Yield models[reference_index]'s _PairStats against each other model
    in order, capturing each model once. A partner's capture is dropped once
    its statistics are formed, so a consumer holds one at most, and the
    reference's before the last pair is yielded, so a stream that is never
    run to its end holds none. columns=False skips the column statistics,
    which only correlations read: forming them squares each whole capture,
    which raised the 5-model gamma-search benchmark's peak RSS by 3.5 MB."""
    reference = models[reference_index]
    others = models[:reference_index] + models[reference_index + 1:]
    acts = capture(reference, probes)
    a = _side(reference, acts, columns)
    for n, partner in enumerate(others, 1):
        acts_b = capture(partner, probes)
        pair = _pair(a, acts, _side(partner, acts_b, columns), acts_b)
        del acts_b
        if n == len(others):
            del acts
        yield pair
        del pair  # before the next partner is captured


def _pairs_among(models, probes, index_pairs):
    """[_PairStats of (models[i], models[j]) for (i, j) in index_pairs]."""
    acts = [capture(m, probes) for m in models]
    sides = [_side(m, x) for m, x in zip(models, acts)]
    return [_pair(sides[i], acts[i], sides[j], acts[j]) for i, j in index_pairs]


def scatter(a, b, gamma=0.0):
    """Scatter matrices X^T X of the centered activations, ridge recorded."""
    pair = _pair(_side(None, [a], False), [a], _side(None, [b], False), [b])
    return ScatterStats(*pair.a.grams, *pair.b.grams, *pair.s_ab, _check_gamma(gamma))


def correlations(a, b):
    """Pearson correlation of every (a-neuron, b-neuron) pair.

    Pairs touching a neuron with probe variance below DEGENERATE_VARIANCE
    get value 0 and a raised flag in the mask.
    """
    _check_pair(a, b)
    return _correlations(a.values.T @ b.values, _columns(a), _columns(b))

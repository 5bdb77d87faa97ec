"""Hidden-feature statistics on a probe set.

Capture runs probes through a model and keeps the post-activation output of
every hidden layer, column-centered. Scatter and correlation statistics for
a pair of models at the same layer are built from those centered matrices;
neurons whose probe variance is below DEGENERATE_VARIANCE cannot carry a
correlation and are flagged instead of poisoning downstream algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .model import hidden_outputs

DEGENERATE_VARIANCE = 1e-12


@dataclass(frozen=True, eq=False)
class ActivationMatrix:
    """Centered activations for one hidden layer: values is (m, width)."""

    values: np.ndarray
    column_means: np.ndarray
    layer_index: int
    m: int

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)
        mu = np.array(self.column_means, dtype=np.float64)
        if v.ndim != 2 or mu.shape != (v.shape[1],):
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
    m: int


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Pearson correlations; [i, j] pairs a-neuron i with b-neuron j."""

    values: np.ndarray
    degenerate_mask: np.ndarray


def probe_matrix(probes):
    x = np.asarray(probes, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"probes must be 2-d, got shape {x.shape}")
    if x.shape[0] < 2:
        raise ValidationError("need at least 2 probe rows")
    if not np.all(np.isfinite(x)):
        raise ValidationError("probes contain non-finite entries")
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
    # written so that NaN fails too
    if not (np.isfinite(gamma) and gamma >= 0):
        raise ValidationError(f"gamma must be finite and >= 0, got {gamma}")


def scatter(a, b, gamma=0.0):
    """Scatter matrices X^T X of the centered activations, ridge recorded."""
    _check_pair(a, b)
    _check_gamma(gamma)
    return ScatterStats(
        s_aa=a.values.T @ a.values,
        s_bb=b.values.T @ b.values,
        s_ab=a.values.T @ b.values,
        gamma=float(gamma),
        m=a.m,
    )


def correlations(a, b):
    """Pearson correlation of every (a-neuron, b-neuron) pair.

    Pairs touching a neuron with probe variance below DEGENERATE_VARIANCE
    get value 0 and a raised flag in the mask.
    """
    _check_pair(a, b)
    dead_a = a.variances() < DEGENERATE_VARIANCE
    dead_b = b.variances() < DEGENERATE_VARIANCE
    norm_a = np.linalg.norm(a.values, axis=0)
    norm_b = np.linalg.norm(b.values, axis=0)
    denom = np.outer(norm_a, norm_b)
    mask = np.logical_or.outer(dead_a, dead_b)
    denom[mask] = 1.0
    values = (a.values.T @ b.values) / denom
    values[mask] = 0.0
    return CorrelationMatrix(values, mask)

"""Synthetic Gaussian-mixture classification data and the split protocols.

Every class sits at a seeded random unit direction scaled by a fixed margin,
with isotropic unit-variance noise. Generation is fully deterministic in the
seed; the optional sample_salt draws a fresh sample from the *same* mixture
(centers depend on the seed alone), which is how held-out test sets are made.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, ParseError, ShapeError, ValidationError
from .model import (
    _allocating, _as_array, _check_kind, _check_number, _read_manifest,
    _read_payload, _reading, _write_atomic,
)

CLASS_MARGIN = 3.0

DATASET_MAGIC = "fuselab-dataset"
DATASET_FORMAT_VERSION = 1


@dataclass(frozen=True, eq=False)
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    seed: int

    def __post_init__(self):
        x = _as_array("features", self.features, 2, copy=True)
        y = _as_array("labels", self.labels, 1)
        if y.shape[0] != x.shape[0]:
            raise ShapeError("labels must match the feature rows")
        if (y != np.floor(y)).any():
            raise ValidationError("labels must be integers")
        k = _check_number("num_classes", self.num_classes, 2, error=ValidationError)
        seed = _check_number("seed", self.seed, 0)
        if y.size and (y.min() < 0 or y.max() >= k):
            raise ValidationError("labels out of range")
        y = y.astype(np.int64)
        y.setflags(write=False)
        for name, value in (("features", x), ("labels", y), ("num_classes", k),
                            ("seed", seed)):
            object.__setattr__(self, name, value)

    @property
    def m(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]

    def subset(self, indices):
        """The rows that indices, integers >= 0 or a boolean mask, pick."""
        try:
            idx = np.asarray(indices)
            if idx.size == 0:
                # an empty list is float64, which numpy will not index with
                idx = idx.astype(np.intp)
            features, labels = self.features[idx], self.labels[idx]
        except (IndexError, ValueError) as exc:
            raise ValidationError(f"indices must pick dataset rows ({exc})") from None
        if idx.dtype != bool and (idx < 0).any():  # numpy would count from the end
            raise ValidationError(f"indices must be >= 0, got {idx.min()}")
        return Dataset(features, labels, self.num_classes, self.seed)


class SplitKind(Enum):
    FULL = "full"
    EIGHTY_TWENTY = "eighty-twenty"
    DIRICHLET = "dirichlet"
    DISJOINT_CLASSES = "disjoint"


@dataclass(frozen=True)
class SplitSpec:
    kind: SplitKind
    seed: int = 0
    alpha: tuple = (0.5, 0.5)

    def __post_init__(self):
        if not isinstance(self.kind, SplitKind):
            raise ConfigurationError(f"unknown split kind {self.kind!r}")
        _check_number("split seed", self.seed, 0)
        if self.kind is SplitKind.DIRICHLET:
            a = _as_array("dirichlet concentrations", self.alpha, 1,
                          error=ConfigurationError)
            if a.shape != (2,) or not (a > 0).all():
                raise ConfigurationError(
                    "dirichlet split needs two positive concentrations"
                )
            object.__setattr__(self, "alpha", tuple(a.tolist()))


def generate(num_classes, per_class, dim, seed, sample_salt=0):
    """Deterministic mixture sample: per_class points around each center."""
    num_classes = _check_number("num_classes", num_classes, 2)
    per_class = _check_number("per_class", per_class, 1)
    dim = _check_number("dim", dim, 1)
    seed = _check_number("seed", seed, 0)
    sample_salt = _check_number("sample_salt", sample_salt, 0)
    # the largest arrays come first, so a size numpy refuses is named
    with _allocating(f"num_classes {num_classes} x per_class {per_class} "
                     f"x dim {dim}"):
        feats = np.empty((num_classes * per_class, dim))
        labels = np.empty(num_classes * per_class, dtype=np.int64)
    center_rng = np.random.default_rng([seed, 0])
    centers = center_rng.standard_normal((num_classes, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    centers *= CLASS_MARGIN

    sample_rng = np.random.default_rng([seed, 1, sample_salt])
    for k in range(num_classes):
        rows = slice(k * per_class, (k + 1) * per_class)
        feats[rows] = centers[k] + sample_rng.standard_normal((per_class, dim))
        labels[rows] = k
    order = sample_rng.permutation(num_classes * per_class)
    return Dataset(feats[order], labels[order], num_classes, seed)


def _require_even_classes(ds, kind):
    if ds.num_classes % 2 != 0:
        raise ConfigurationError(
            f"{kind.value} split needs an even class count, got "
            f"{ds.num_classes}"
        )


def split(ds, spec):
    """Partition a dataset between two training parties.

    FULL is the no-split protocol: both parts are the whole dataset. The
    other three kinds produce exact partitions (disjoint, union == ds),
    deterministic in spec.seed.
    """
    _check_kind("dataset", ds, Dataset)
    _check_kind("spec", spec, SplitSpec)
    if spec.kind is SplitKind.FULL:
        return ds, ds
    rng = np.random.default_rng(int(spec.seed))
    mask = np.zeros(ds.m, dtype=bool)
    if spec.kind is SplitKind.EIGHTY_TWENTY:
        _require_even_classes(ds, spec.kind)
        half = ds.num_classes // 2
        for k in range(ds.num_classes):
            idx = np.flatnonzero(ds.labels == k)
            idx = rng.permutation(idx)
            share = 0.8 if k < half else 0.2
            take = int(round(share * idx.size))
            mask[idx[:take]] = True
    elif spec.kind is SplitKind.DIRICHLET:
        for k in range(ds.num_classes):
            idx = np.flatnonzero(ds.labels == k)
            p = rng.dirichlet(spec.alpha)
            mask[idx[rng.random(idx.size) < p[0]]] = True
    else:  # SplitKind.DISJOINT_CLASSES
        _require_even_classes(ds, spec.kind)
        chosen = rng.permutation(ds.num_classes)[: ds.num_classes // 2]
        mask = np.isin(ds.labels, chosen)
    return ds.subset(np.flatnonzero(mask)), ds.subset(np.flatnonzero(~mask))


def save_dataset(ds, path):
    _check_kind("dataset", ds, Dataset)
    lines = [
        f"{DATASET_MAGIC} {DATASET_FORMAT_VERSION}",
        f"m {ds.m}",
        f"d {ds.dim}",
        f"k {ds.num_classes}",
        f"seed {ds.seed}",
        "end",
    ]
    _write_atomic(
        path,
        ("\n".join(lines) + "\n").encode("ascii")
        + np.ascontiguousarray(ds.features, dtype="<f8").tobytes()
        + np.ascontiguousarray(ds.labels, dtype="<u4").tobytes(),
    )


def load_dataset(path):
    with _reading(path, "dataset") as fh:
        counts = ("m", "d", "k", "seed")
        fields = _read_manifest(
            fh, DATASET_MAGIC, counts, version=DATASET_FORMAT_VERSION
        )
        m, d, k, seed = (fields[key] for key in counts)
        payload = _read_payload(fh, m * d * 8 + m * 4)
    feats = np.frombuffer(payload[: m * d * 8], dtype="<f8").reshape(m, d)
    labels = np.frombuffer(payload[m * d * 8 :], dtype="<u4").astype(np.int64)
    try:
        return Dataset(feats, labels, k, seed)
    except (ShapeError, ValidationError) as exc:
        raise ParseError(f"dataset {path} is corrupt: {exc}") from exc

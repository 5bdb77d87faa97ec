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
from .model import _check_seed, _read_manifest, _reading, _write_atomic

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
        x = np.array(self.features, dtype=np.float64)
        y = np.array(self.labels, dtype=np.int64)
        if x.ndim != 2:
            raise ShapeError(f"features must be 2-d, got shape {x.shape}")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ShapeError("labels must be 1-d and match the feature rows")
        if not np.all(np.isfinite(x)):
            raise ValidationError("features contain non-finite entries")
        if self.num_classes < 2:
            raise ValidationError("need at least 2 classes")
        if y.size and (y.min() < 0 or y.max() >= self.num_classes):
            raise ValidationError("labels out of range")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)

    @property
    def m(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]

    def subset(self, indices):
        idx = np.asarray(indices)
        if idx.size == 0:
            # an empty list is float64, which numpy will not index with
            idx = idx.astype(np.intp)
        return Dataset(
            self.features[idx], self.labels[idx], self.num_classes, self.seed
        )


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
        _check_seed("split seed", self.seed)
        if self.kind is SplitKind.DIRICHLET:
            a = tuple(float(v) for v in self.alpha)
            if len(a) != 2 or any(v <= 0 for v in a):
                raise ConfigurationError(
                    "dirichlet split needs two positive concentrations"
                )
            object.__setattr__(self, "alpha", a)


def generate(num_classes, per_class, dim, seed, sample_salt=0):
    """Deterministic mixture sample: per_class points around each center."""
    if num_classes < 2 or per_class < 1 or dim < 1:
        raise ConfigurationError(
            "need num_classes >= 2, per_class >= 1, dim >= 1"
        )
    _check_seed("seed", seed)
    _check_seed("sample_salt", sample_salt)
    center_rng = np.random.default_rng([int(seed), 0])
    centers = center_rng.standard_normal((num_classes, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    centers *= CLASS_MARGIN

    sample_rng = np.random.default_rng([int(seed), 1, int(sample_salt)])
    feats = np.empty((num_classes * per_class, dim))
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for k in range(num_classes):
        rows = slice(k * per_class, (k + 1) * per_class)
        feats[rows] = centers[k] + sample_rng.standard_normal((per_class, dim))
        labels[rows] = k
    order = sample_rng.permutation(num_classes * per_class)
    return Dataset(feats[order], labels[order], num_classes, int(seed))


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
    elif spec.kind is SplitKind.DISJOINT_CLASSES:
        _require_even_classes(ds, spec.kind)
        chosen = rng.permutation(ds.num_classes)[: ds.num_classes // 2]
        mask = np.isin(ds.labels, chosen)
    else:
        raise ConfigurationError(f"unknown split kind {spec.kind!r}")
    return ds.subset(np.flatnonzero(mask)), ds.subset(np.flatnonzero(~mask))


def save_dataset(ds, path):
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
        fields = _read_manifest(fh, DATASET_MAGIC, DATASET_FORMAT_VERSION)
        values = {}
        for key, rest in fields:
            if key not in ("m", "d", "k", "seed"):
                raise ParseError(f"unknown manifest field {key!r}")
            try:
                values[key] = int(rest)
            except ValueError:
                raise ParseError(
                    f"field {key} is not an integer: {rest!r}"
                ) from None
        for key in ("m", "d", "k", "seed"):
            if key not in values:
                raise ParseError(f"missing field {key}")
        payload = fh.read()
        m, d, k, seed = values["m"], values["d"], values["k"], values["seed"]
        if min(m, d) < 0:
            raise ParseError(f"negative shape in manifest: m {m}, d {d}")
        expect = m * d * 8 + m * 4
        if len(payload) != expect:
            raise ParseError(
                f"payload is {len(payload)} bytes, manifest implies {expect}"
            )
    feats = np.frombuffer(payload[: m * d * 8], dtype="<f8").reshape(m, d)
    labels = np.frombuffer(payload[m * d * 8 :], dtype="<u4").astype(np.int64)
    try:
        return Dataset(feats, labels, k, seed)
    except (ShapeError, ValidationError) as exc:
        raise ParseError(f"dataset {path} is corrupt: {exc}") from exc

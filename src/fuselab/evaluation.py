"""Accuracy, ensembling, interpolation barriers, and the merge report.

The barrier of a model pair is the worst gap between the loss along the
straight parameter path and the straight line between the endpoint losses;
the path is taken between a reference model and an already-aligned partner.
A merge is made, then reported: _merge reads the reference's _PairStats
against each partner, solves the first pair for the layer summaries and
runs merge's all-to-one loop on the same pairs, and merge._search makes
the same (merged, aligned, summaries), with no aligned models, at the
ridge it picks; _report repairs and reports either. An experiment forms
its pairs once for every method.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import cca, merge, trainer
from .activations import _check_gamma, _pair_stats
from .cca import summaries_from_solutions
from .errors import ConfigurationError, ValidationError
from .model import DenseLayer, MethodTag, MlpModel, _check_number, forward

DEFAULT_GRID_SIZE = 21


def limit_probes(features, probe_limit):
    """The first probe_limit rows of features; None keeps every row."""
    if probe_limit is None:
        return features
    return features[: _check_number("probe limit", probe_limit, 2)]


def accuracy(model, ds):
    return trainer.cross_entropy_accuracy(model, ds)[1]


def ensemble_accuracy(models, ds):
    """Accuracy of the uniform logit average of the models."""
    return _ensemble_accuracy(_logits(models, ds), ds.labels)


def _logits(models, ds):
    """Each model's logits on ds, which score it and the ensemble alike."""
    if not models:
        raise ConfigurationError("ensemble needs at least one model")
    for m in models:
        trainer._check_scorable(m, ds)
    return [forward(m, ds.features) for m in models]


def _ensemble_accuracy(logits, labels):
    return trainer._scores(np.mean(logits, axis=0), labels)[1]


def _blend(model_a, model_b, lam):
    layers = tuple(
        DenseLayer(
            (1.0 - lam) * la.weights + lam * lb.weights,
            (1.0 - lam) * la.bias + lam * lb.bias,
            la.activation,
        )
        for la, lb in zip(model_a.layers, model_b.layers)
    )
    return MlpModel(layers, model_a.input_dim)


@dataclass(frozen=True, eq=False)
class BarrierCurve:
    lambdas: np.ndarray
    losses: np.ndarray
    accuracies: np.ndarray
    barrier: float


def interpolation_curve(model_a, model_b, ds, grid_size=DEFAULT_GRID_SIZE):
    """Loss and accuracy along (1-lam) A + lam B; barrier included.

    model_b is used as handed in: align it first if alignment is wanted.
    """
    grid_size = _check_number("grid_size", grid_size, 2)
    if not model_a.same_architecture(model_b):
        raise ValidationError("interpolation endpoints must share shapes")
    lambdas = np.linspace(0.0, 1.0, grid_size)
    losses = np.empty(grid_size)
    accs = np.empty(grid_size)
    for i, lam in enumerate(lambdas):
        losses[i], accs[i] = trainer.cross_entropy_accuracy(
            _blend(model_a, model_b, lam), ds
        )
    chord = (1.0 - lambdas) * losses[0] + lambdas * losses[-1]
    barrier = float(np.max(losses - chord))
    return BarrierCurve(lambdas, losses, accs, barrier)


def _skipped_text(skipped):
    """The reset's skipped neurons as 'layer:neuron;...', or None."""
    text = ";".join(f"{s.layer_index}:{s.neuron_index}" for s in skipped)
    return text or None


@dataclass(frozen=True)
class MergeReport:
    """Everything the merge and experiment commands print about one merge."""

    method: MethodTag
    num_models: int
    reference_index: int
    seed_tags: tuple
    gamma_requested: float | None = None
    repair: bool = False
    repair_skipped: tuple = ()
    layer_summaries: tuple = ()
    merged_accuracy: float | None = None
    merged_loss: float | None = None
    barrier: float | None = None

    def to_items(self):
        items = [
            ("report", "merge"),
            ("method", self.method.value),
            ("models", self.num_models),
            ("reference", self.reference_index),
            ("seed_tags", ",".join(t or "-" for t in self.seed_tags)),
            ("gamma_requested", self.gamma_requested),
            ("repair", self.repair),
            ("repair_skipped", _skipped_text(self.repair_skipped)),
        ]
        for s in self.layer_summaries:
            p = f"layer.{s.layer_index}"
            items += [
                (f"{p}.{k}", getattr(s, k))
                for k in ("gamma", "corr_min", "corr_mean", "corr_max")
            ]
        for key in ("merged_accuracy", "merged_loss", "barrier"):
            if getattr(self, key) is not None:
                items.append((key, getattr(self, key)))
        return items


def merge_and_report(models, method, probes=None, gamma=None, repair=False,
                     reference_index=0):
    """Run one all-to-one merge and collect its report skeleton.

    Returns (merged model, report, aligned non-reference models in their
    input order). The alignment is merge_many's loop; canonical-correlation
    summaries of the first pair are attached whenever probes are available,
    whatever the merge method. A given gamma is checked whatever the method.
    """
    made = _merge(models, method, probes, gamma, reference_index)
    merged, report = _report(models, method, made, probes, gamma, repair,
                             reference_index)
    return merged, report, made[1]


def _merge(models, method, probes, gamma, reference_index, pairs=None):
    """(merged, aligned non-reference models in order, layer summaries) of
    merge_and_report. pairs, when given, are the reference's _PairStats
    against the other models in order, formed once by the caller."""
    if len(models) < 2:
        raise ConfigurationError("merging needs at least 2 models")
    _check_number("reference index", reference_index, 0, len(models) - 1)
    if gamma is not None:
        _check_gamma(gamma)
    reference = models[reference_index]
    others = [m for i, m in enumerate(models) if i != reference_index]
    if pairs is None and probes is not None:
        pairs = _pair_stats(models, reference_index, probes)
    summaries = ()
    if pairs is not None:  # the first pair is solved before any merging
        pairs = iter(pairs)
        first = next(pairs)
        summaries = summaries_from_solutions(cca.solve_pair(first, gamma))
        pairs = _then(first, pairs)
        del first
    merged, aligned = merge._merge_all(reference, others, method, pairs, gamma)
    return merged, aligned, summaries


def _then(first, rest):
    """first, then rest's items; first is let go before rest is read, where
    chain([first], rest) keeps it in its argument tuple."""
    yield first
    del first
    yield from rest


def _report(models, method, made, probes, gamma, repair, reference_index):
    """(merged model, report) of a merge made as _merge makes it, repaired
    against the reference on probes when asked."""
    merged, _, summaries = made
    skipped = ()
    if repair:
        if probes is None:
            raise ConfigurationError("the statistics reset needs probes")
        merged, skipped = merge.repair_reset(merged, models[reference_index], probes)
    report = MergeReport(
        method=method,
        num_models=len(models),
        reference_index=reference_index,
        seed_tags=tuple(m.seed_tag for m in models),
        gamma_requested=gamma,
        repair=repair,
        repair_skipped=skipped,
        layer_summaries=summaries,
    )
    return merged, report


def evaluate_merge(method, models, train_ds, test_ds, gamma=None, repair=False,
                   probe_limit=None, grid_size=DEFAULT_GRID_SIZE,
                   reference_index=0):
    """Merge `models` with `method` and score the merge on the test set.

    Endpoint and ensemble accuracies are left to the caller, which scores
    them once however many methods it merges with.
    """
    probes = limit_probes(train_ds.features, probe_limit)
    made = _merge(models, method, probes, gamma, reference_index)
    return _evaluate(models, method, made, test_ds, probes, gamma, repair,
                     grid_size, reference_index)


def _evaluate(models, method, made, test_ds, probes, gamma, repair, grid_size,
              reference_index):
    """evaluate_merge of a merge already made, as _merge makes it."""
    merged, report = _report(models, method, made, probes, gamma, repair,
                             reference_index)
    loss, acc = trainer.cross_entropy_accuracy(merged, test_ds)
    barrier = None
    if len(models) == 2:
        barrier = interpolation_curve(
            models[reference_index], made[1][0], test_ds, grid_size
        ).barrier
    return merged, dataclasses.replace(
        report, merged_accuracy=acc, merged_loss=loss, barrier=barrier
    )

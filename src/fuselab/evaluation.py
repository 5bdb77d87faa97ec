"""Accuracy, ensembling, interpolation barriers, and the merge report.

The barrier of a model pair is the worst gap between the loss along the
straight parameter path and the straight line between the endpoint losses;
the path is taken between a reference model and an already-aligned partner.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import cca, matching, merge, trainer
from .errors import ConfigurationError, ValidationError
from .model import DenseLayer, MethodTag, MlpModel, apply_plan, forward

DEFAULT_GRID_SIZE = 21


def limit_probes(features, probe_limit):
    """The first probe_limit rows of features; None keeps every row."""
    if probe_limit is None:
        return features
    if probe_limit < 2:
        raise ConfigurationError(
            f"probe limit must be at least 2, got {probe_limit}"
        )
    return features[: int(probe_limit)]


def accuracy(model, ds):
    return trainer.cross_entropy_accuracy(model, ds)[1]


def ensemble_accuracy(models, ds):
    """Accuracy of the uniform logit average of the models."""
    if not models:
        raise ConfigurationError("ensemble needs at least one model")
    for m in models:
        trainer._check_scorable(m, ds)
    logits = np.mean([forward(m, ds.features) for m in models], axis=0)
    return float((logits.argmax(axis=1) == ds.labels).mean())


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
    if grid_size < 2:
        raise ConfigurationError("grid needs at least the two endpoints")
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


@dataclass(frozen=True)
class LayerAlignmentSummary:
    layer_index: int
    gamma: float
    corr_min: float
    corr_mean: float
    corr_max: float


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
    endpoint_accuracies: tuple | None = None
    base_models_avg: float | None = None
    ensemble: float | None = None
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
        ]
        items.append(
            (
                "repair_skipped",
                ";".join(
                    f"{s.layer_index}:{s.neuron_index}"
                    for s in self.repair_skipped
                )
                or None,
            )
        )
        for s in self.layer_summaries:
            p = f"layer.{s.layer_index}"
            items += [
                (f"{p}.gamma", s.gamma),
                (f"{p}.corr_min", s.corr_min),
                (f"{p}.corr_mean", s.corr_mean),
                (f"{p}.corr_max", s.corr_max),
            ]
        if self.endpoint_accuracies is not None:
            for i, a in enumerate(self.endpoint_accuracies):
                items.append((f"model.{i}.accuracy", a))
        for key in (
            "base_models_avg",
            "ensemble",
            "merged_accuracy",
            "merged_loss",
            "barrier",
        ):
            value = getattr(self, key)
            if value is not None:
                items.append((key, value))
        return items


def summaries_from_solutions(solutions):
    return tuple(
        LayerAlignmentSummary(
            i,
            sol.gamma,
            float(sol.correlations.min()),
            float(sol.correlations.mean()),
            float(sol.correlations.max()),
        )
        for i, sol in enumerate(solutions)
    )


def _align_pair(stats, other, method, gamma, summarize):
    """(plan, CCA solutions or None) aligning other to stats.reference.

    Both models are captured at most once. The solutions are computed when
    the method is cca or `summarize` asks for them; the captures go out of
    scope on return.
    """
    if method is MethodTag.IDENTITY and not summarize:
        return matching.identity_plan(other), None
    acts = stats.capture_pair(other)
    sols = None
    if method is MethodTag.CCA or summarize:
        sols = cca.solve_pair(stats, cca.pair_scatter(stats, *acts), gamma)
    if method is MethodTag.CCA:
        plan = cca.plan_from_solutions(sols)
    elif method is MethodTag.PERMUTE:
        plan = matching.plan_from_activations(*acts)
    else:
        plan = merge.align(stats.reference, other, method, stats.probes, gamma)
    return plan, sols


def merge_and_report(
    models,
    method,
    probes=None,
    gamma=None,
    repair=False,
    reference_index=0,
):
    """Run one all-to-one merge and collect its report skeleton.

    Returns (merged model, report, aligned non-reference models in their
    input order). Canonical-correlation summaries are attached whenever
    probes are available, whatever the merge method.
    """
    if len(models) < 2:
        raise ConfigurationError("merging needs at least 2 models")
    if not 0 <= reference_index < len(models):
        raise ConfigurationError("reference index out of range")
    reference = models[reference_index]
    others = [m for i, m in enumerate(models) if i != reference_index]

    stats = None if probes is None else cca.ReferenceStats(reference, probes)
    aligned = []
    summaries = ()
    for k, other in enumerate(others):
        if stats is None:
            plan, sols = merge.align(reference, other, method), None
        else:
            plan, sols = _align_pair(stats, other, method, gamma, k == 0)
        if k == 0 and sols is not None:
            summaries = summaries_from_solutions(sols)
        aligned.append(apply_plan(other, plan))
    merged = merge.average_models([reference, *aligned])
    skipped = ()
    if repair:
        if probes is None:
            raise ConfigurationError("the statistics reset needs probes")
        merged, skipped = merge.repair_reset(merged, reference, probes)
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
    return merged, report, aligned


def evaluate_merge(
    method,
    models,
    train_ds,
    test_ds,
    gamma=None,
    repair=False,
    probe_limit=None,
    grid_size=DEFAULT_GRID_SIZE,
    reference_index=0,
):
    """Merge `models` with `method` and score everything on the test set."""
    probes = limit_probes(train_ds.features, probe_limit)
    merged, report, aligned = merge_and_report(
        models,
        method,
        probes=probes,
        gamma=gamma,
        repair=repair,
        reference_index=reference_index,
    )
    endpoint = tuple(accuracy(m, test_ds) for m in models)
    loss, acc = trainer.cross_entropy_accuracy(merged, test_ds)
    barrier = None
    if len(models) == 2:
        barrier = interpolation_curve(
            models[reference_index], aligned[0], test_ds, grid_size
        ).barrier
    return merged, dataclasses.replace(
        report,
        endpoint_accuracies=endpoint,
        base_models_avg=float(np.mean(endpoint)),
        ensemble=ensemble_accuracy(models, test_ds),
        merged_accuracy=acc,
        merged_loss=loss,
        barrier=barrier,
    )

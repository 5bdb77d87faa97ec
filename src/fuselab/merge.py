"""Merging aligned models by parameter averaging, plus the statistics reset.

A pair merge averages model A with model B rewritten in A's feature space:
W_i = (W_i^a + T_i W_i^b T_{i-1}^-1) / 2 and likewise for biases. The
multi-model form aligns every other model to one reference and takes the
uniform average.

Every alignment goes through _align, the one place that dispatches on the
method. It reads one cca.ReferenceStats per call, so the reference is
captured once for a whole all-to-one loop and each partner once. That loop
is _merge_all, shared by merge_many and evaluation.merge_and_report; the
statistics are dropped when it returns.

The reset pass rescales each hidden neuron of a merged model so its
pre-activation mean and standard deviation on probes match the reference
model's, walking the layers bottom-up on the partially rescaled model so the
match holds at every depth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cca, matching
from .activations import probe_matrix
from .errors import ConfigurationError, ValidationError
from .model import Activation, DenseLayer, MethodTag, MlpModel, apply_plan

SIGMA_FLOOR = 1e-12


@dataclass(frozen=True)
class SkippedNeuron:
    """A neuron the reset left untouched because its spread was ~zero."""

    layer_index: int
    neuron_index: int


def _align(stats, other, method, gamma=None, solve=False, acts=None):
    """(plan, CCA solutions or None) aligning other to stats.reference.

    stats is a cca.ReferenceStats, or None without probes. The pair is
    captured once, unless the caller passes the capture in as acts. The CCA
    solutions are computed when the method is cca or `solve` asks for them.
    """
    if method is MethodTag.IDENTITY and not solve:
        return matching.identity_plan(other), None
    if stats is None:
        raise ConfigurationError(f"method {method.value} needs probes")
    if acts is None:
        acts = stats.capture_pair(other)
    sols = None
    if method is MethodTag.CCA or solve:
        sols = cca.solve_pair(stats, cca.pair_scatter(stats, *acts), gamma)
    if method is MethodTag.CCA:
        return cca.plan_from_solutions(sols), sols
    if method is MethodTag.PERMUTE:
        return matching.plan_from_activations(*acts), sols
    if method is MethodTag.IDENTITY:
        return matching.identity_plan(other), sols
    raise ConfigurationError(f"unknown method {method!r}")


def align(reference, model, method, probes=None, gamma=None):
    """Build the alignment plan mapping `model` into `reference`'s space."""
    stats = None if probes is None else cca.ReferenceStats(reference, probes)
    return _align(stats, model, method, gamma)[0]


def _check_same_architecture(models):
    first = models[0]
    for i, m in enumerate(models[1:], start=1):
        if not first.same_architecture(m):
            raise ValidationError(
                f"model {i} does not share the reference architecture"
            )


def average_models(models):
    """Uniform elementwise average of identically shaped models."""
    _check_same_architecture(models)
    layers = []
    for i in range(models[0].num_layers):
        w = np.mean([m.layers[i].weights for m in models], axis=0)
        b = np.mean([m.layers[i].bias for m in models], axis=0)
        layers.append(DenseLayer(w, b, models[0].layers[i].activation))
    tags = [m.seed_tag for m in models if m.seed_tag]
    tag = "+".join(tags) if tags else None
    return MlpModel(tuple(layers), models[0].input_dim, tag)


class _ModelSum:
    """average_models of models added one at a time, from a parameter sum.

    np.mean sums from +0.0 in list order and divides by the count; so does
    mean() (-0.0 + 0.0 is +0.0, where a copy would keep -0.0). For a
    one-element parameter of 8 or more models np.mean sums pairwise
    instead, and exact() is False.
    """

    def __init__(self, first):
        self.first = first
        self.sums = [[x.weights + 0.0, x.bias + 0.0] for x in first.layers]
        self.tags = [first.seed_tag]

    @staticmethod
    def exact(first, count):
        sizes = [p.size for x in first.layers for p in (x.weights, x.bias)]
        return count < 8 or min(sizes) > 1

    def add(self, model):
        for (w, b), x in zip(self.sums, model.layers):
            w += x.weights
            b += x.bias
        self.tags.append(model.seed_tag)

    def mean(self):
        n = len(self.tags)
        layers = tuple(
            DenseLayer(w / n, b / n, x.activation)
            for (w, b), x in zip(self.sums, self.first.layers)
        )
        tag = "+".join(t for t in self.tags if t) or None
        return MlpModel(layers, self.first.input_dim, tag)


def merge_pair(model_a, model_b, plan):
    """Average model_a with model_b carried through the plan."""
    return average_models([model_a, apply_plan(model_b, plan)])


def _merge_all(
    reference, others, method, probes=None, gamma=None, solve=False
):
    """(merged, aligned others in order, first pair's CCA solutions or None).

    `solve` asks for the first pair's CCA solutions whatever the method.
    """
    if not others:
        raise ConfigurationError("merge_many needs at least one other model")
    stats = None if probes is None else cca.ReferenceStats(reference, probes)
    aligned = []
    first = None
    for k, other in enumerate(others):
        plan, sols = _align(stats, other, method, gamma, solve and k == 0)
        if k == 0:
            first = sols
        aligned.append(apply_plan(other, plan))
    return average_models([reference, *aligned]), aligned, first


def merge_many(reference, others, method, probes=None, gamma=None):
    """All-to-one merge: align each of `others` to `reference`, average all."""
    return _merge_all(reference, others, method, probes, gamma)[0]


def _layer_stats(weights, bias, x):
    z = x @ weights.T + bias
    return z.mean(axis=0), z.std(axis=0), z


def repair_reset(merged, reference, probes):
    """Match the merged model's hidden pre-activation stats to the reference.

    Returns (model, skipped): neurons whose merged spread is below
    SIGMA_FLOOR are left untouched and listed. The output layer is never
    rescaled.
    """
    if not merged.same_architecture(reference):
        raise ValidationError("merged and reference architectures differ")
    x = probe_matrix(probes)
    ref_x = x
    new_layers = []
    skipped = []
    cur_x = x
    for i, (layer, ref_layer) in enumerate(zip(merged.layers, reference.layers)):
        if i == merged.num_layers - 1:
            new_layers.append(layer)
            break
        mu_ref, sd_ref, ref_z = _layer_stats(
            ref_layer.weights, ref_layer.bias, ref_x
        )
        mu_m, sd_m, _ = _layer_stats(layer.weights, layer.bias, cur_x)
        keep = sd_m < SIGMA_FLOOR
        scale = np.where(keep, 1.0, sd_ref / np.where(keep, 1.0, sd_m))
        shift = np.where(keep, 0.0, mu_ref - mu_m * scale)
        w = layer.weights * scale[:, None]
        b = layer.bias * scale + shift
        for j in np.flatnonzero(keep):
            skipped.append(SkippedNeuron(i, int(j)))
        new_layer = DenseLayer(w, b, layer.activation)
        new_layers.append(new_layer)
        cur_x = new_layer.apply(cur_x)
        ref_x = Activation.RELU.apply(ref_z)
    return (
        MlpModel(tuple(new_layers), merged.input_dim, merged.seed_tag),
        tuple(skipped),
    )

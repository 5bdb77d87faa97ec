"""Merging aligned models by parameter averaging, plus the statistics reset.

A pair merge averages model A with model B rewritten in A's feature space:
W_i = (W_i^a + T_i W_i^b T_{i-1}^-1) / 2 and likewise for biases. The
multi-model form aligns every other model to one reference and takes the
uniform average.

Every alignment goes through _align, the one place that dispatches on the
method; it reads one pair's activations._PairStats. The all-to-one loop,
_merge_all, serves merge_many and evaluation._merge and consumes the pairs
in order, so a stream of them holds one partner's statistics at a time.
The gamma search reads its pairs the same way and keeps a method's merge,
in evaluation._merge's form, as it scores the ridges, so `merge
--gamma-search` makes none twice.

The reset pass rescales each hidden neuron of a merged model so its
pre-activation mean and standard deviation on probes match the reference
model's, walking the layers bottom-up on the partially rescaled model so the
match holds at every depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby

import numpy as np

from . import cca, matching, trainer
from .activations import _check_gamma, _pair_stats, probe_matrix
from .errors import (
    ConfigurationError, GammaSelectionError, NumericalError, ShapeError, ValidationError,
)
from .model import Activation, DenseLayer, MethodTag, MlpModel, apply_plan

SIGMA_FLOOR = 1e-12


@dataclass(frozen=True)
class SkippedNeuron:
    """A neuron the reset left untouched because its spread was ~zero."""

    layer_index: int
    neuron_index: int


def _align(other, method, pairs=None, gamma=None):
    """Plan aligning other to the reference. pairs iterates the reference's
    _PairStats, other's next, or is None without probes; only the methods
    that read statistics take a pair from it."""
    if not isinstance(method, MethodTag):
        raise ConfigurationError(f"unknown method {method!r}")
    if method is MethodTag.IDENTITY:
        return matching.identity_plan(other)
    if pairs is None:
        raise ConfigurationError(f"method {method.value} needs probes")
    pair = next(pairs)
    if method is MethodTag.CCA:
        return cca.plan_from_solutions(cca.solve_pair(pair, gamma))
    return matching._plan_from_correlations(pair.correlations())


def align(reference, model, method, probes=None, gamma=None):
    """Build the alignment plan mapping `model` into `reference`'s space."""
    pairs = None if probes is None else _pair_stats([reference, model], 0, probes)
    return _align(model, method, pairs, gamma)


def average_models(models):
    """Uniform elementwise average of identically shaped models."""
    total = _ModelSum(models[0])
    for m in models[1:]:
        total.add(m)
    return total.mean()


class _ModelSum:
    """Models added one at a time; mean() is their average, byte for byte
    what np.mean(..., axis=0) gives over each parameter.

    np.mean sums a parameter from +0.0 in list order and divides by the
    count; so does mean() (-0.0 + 0.0 is +0.0, where a copy would keep
    -0.0). A one-element parameter is the exception: np.mean sums it
    pairwise from 8 models on, so its values are kept for np.mean itself.
    """

    def __init__(self, first):
        self.first = first
        self.params = [
            [[p] if p.size == 1 else p + 0.0 for p in (x.weights, x.bias)]
            for x in first.layers
        ]
        self.tags = [first.seed_tag]

    def add(self, model):
        if not self.first.same_architecture(model):
            raise ValidationError(
                f"model {len(self.tags)} does not share the reference "
                "architecture"
            )
        for kept, x in zip(self.params, model.layers):
            for k, p in zip(kept, (x.weights, x.bias)):
                if isinstance(k, list):
                    k.append(p)
                else:
                    k += p
        self.tags.append(model.seed_tag)

    def mean(self):
        n = len(self.tags)

        def avg(k):
            return np.mean(k, axis=0) if isinstance(k, list) else k / n

        layers = tuple(
            DenseLayer(avg(w), avg(b), x.activation)
            for (w, b), x in zip(self.params, self.first.layers)
        )
        tag = "+".join(t for t in self.tags if t) or None
        return MlpModel(layers, self.first.input_dim, tag)


def merge_pair(model_a, model_b, plan):
    """Average model_a with model_b carried through the plan."""
    return average_models([model_a, apply_plan(model_b, plan)])


def _merge_all(reference, others, method, pairs=None, gamma=None):
    """(merged, aligned others in order).

    pairs yields reference's _PairStats against each of others, in order,
    or is None without probes.
    """
    if not others:
        raise ConfigurationError("merge_many needs at least one other model")
    pairs = None if pairs is None else iter(pairs)
    aligned = [apply_plan(o, _align(o, method, pairs, gamma)) for o in others]
    return average_models([reference, *aligned]), aligned


def merge_many(reference, others, method, probes=None, gamma=None):
    """All-to-one merge: align each of `others` to `reference`, average all."""
    pairs = None if probes is None else _pair_stats([reference, *others], 0, probes)
    return _merge_all(reference, others, method, pairs, gamma)[0]


def select_gamma(candidate_gammas, model_pairs, probes, eval_ds):
    """Pick the ridge whose CCA merges score best on held-out pairs.

    Each candidate is scored by the mean accuracy of the merged models over
    all pairs; a candidate whose solve, merge or scoring fails on any pair
    is dropped. Ties go to the larger gamma. candidate_gammas=None walks
    the scale-aware grid of the first pair, read from its statistics.
    A negative or non-finite candidate, and probes that cannot be captured,
    raise their own ValidationError.

    Each model is captured once per run of pairs sharing a reference, and
    such pairs share its Grams and inverse square roots.
    """
    runs = (list(run) for _, run in groupby(model_pairs, lambda p: id(p[0])))
    pairs = chain.from_iterable(
        _pair_stats([run[0][0], *(b for _, b in run)], 0, probes, columns=False)
        for run in runs
    )
    return _search(candidate_gammas, pairs, eval_ds)[0]


class _Candidate:
    """A live ridge of the search: its accuracy on each pair so far and,
    when a merge is kept, the first pair's summaries and its _ModelSum."""

    def __init__(self, gamma):
        self.gamma, self.scores, self.summaries, self.total = gamma, [], None, None


def _search(candidate_gammas, pairs, eval_ds, method=None):
    """(select_gamma's choice, method's merge at it or None) over an iterable
    of activations._PairStats, formed as they are consumed. With a method,
    the pairs share one reference and the merge is evaluation._merge's
    (merged, None, summaries) at the chosen gamma: no aligned partner is
    kept. A candidate whose solve, plan, merge or score fails on a pair is
    dropped; any other error, such as forming a pair, propagates."""
    if candidate_gammas is not None:
        # each is checked before sorting: a NaN leaves no order
        candidate_gammas = sorted(_check_gamma(g) for g in candidate_gammas)
        if not candidate_gammas:
            raise GammaSelectionError("no candidate gammas given")
    pairs = iter(pairs)
    pair = next(pairs, None)
    if pair is None:
        raise GammaSelectionError("no model pairs given")
    live = [_Candidate(g) for g in candidate_gammas or sorted(cca._grid(pair))]
    # permute and direct do not read gamma: one _ModelSum serves every candidate
    shared = None if method in (None, MethodTag.CCA) else _ModelSum(pair.a.model)
    while pair is not None:
        for cand in list(live):
            try:
                sols = cca.solve_pair(pair, cand.gamma)
                aligned = apply_plan(pair.b.model, cca.plan_from_solutions(sols))
                merged = average_models([pair.a.model, aligned])
                _, acc = trainer.cross_entropy_accuracy(merged, eval_ds)
            except (NumericalError, ValidationError):
                live.remove(cand)
                continue
            cand.scores.append(acc)
            if method is not None and cand.total is None:
                cand.summaries = cca.summaries_from_solutions(sols)
                cand.total = shared or _ModelSum(pair.a.model)
            if method is MethodTag.CCA:
                cand.total.add(aligned)
        if not live:
            raise GammaSelectionError("every candidate gamma failed during merging")
        if shared is not None:
            b = pair.b.model
            shared.add(apply_plan(b, _align(b, method, iter([pair]))))
        # this pair and the models made from it go before the next is formed
        del pair, sols, aligned, merged
        pair = next(pairs, None)
    best, best_score = None, -np.inf
    for cand in live:  # ascending, so >= sends exact ties to the larger gamma
        score = float(np.mean(cand.scores))
        if score >= best_score:
            best, best_score = cand, score
    made = None if method is None else (best.total.mean(), None, best.summaries)
    return best.gamma, made


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
    ref_x = cur_x = probe_matrix(probes)
    if ref_x.shape[1] != merged.input_dim:
        raise ShapeError(f"models expect {merged.input_dim} input columns, "
                         f"probes have {ref_x.shape[1]}")
    new_layers = []
    skipped = []
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

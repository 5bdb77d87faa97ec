"""Merging aligned models by parameter averaging, plus the statistics reset.

A pair merge averages model A with model B rewritten in A's feature space:
W_i = (W_i^a + T_i W_i^b T_{i-1}^-1) / 2 and likewise for biases. The
multi-model form aligns every other model to one reference and takes the
uniform average.

Every alignment goes through _align, the one place that dispatches on the
method; it reads one pair's activations._PairStats. The all-to-one loop,
_merge_all, serves merge_many, evaluation._merge and every scoring merge of
the gamma search, and consumes the pairs in order, so a stream of them
holds one partner's statistics at a time. The search forms every pair
first, then scores one ridge at a time over all of them and keeps the
best one's cca merge, in evaluation._merge's form, so `merge
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
from .datagen import Dataset
from .errors import (
    ConfigurationError, GammaSelectionError, NumericalError, ValidationError,
)
from .model import (
    DenseLayer, MethodTag, MlpModel, _check_kind, _check_list, _preactivation, _step,
    apply_plan,
)

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
    _check_list("models", models, 1)
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
        self.first = _check_kind("model 0", first, MlpModel)
        self.params = [
            [[p] if p.size == 1 else p + 0.0 for p in (x.weights, x.bias)]
            for x in first.layers
        ]
        self.tags = [first.seed_tag]

    def add(self, model):
        _check_kind(f"model {len(self.tags)}", model, MlpModel)
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
    _check_list("others", others)
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
    _check_kind("eval_ds", eval_ds, Dataset)
    for i, pair in enumerate(_check_list("model_pairs", model_pairs)):
        _check_list(f"model_pairs entry {i}", pair, 2, 2)
    runs = (list(run) for _, run in groupby(model_pairs, lambda p: id(p[0])))
    pairs = chain.from_iterable(
        _pair_stats([run[0][0], *(b for _, b in run)], 0, probes)
        for run in runs
    )
    return _search(candidate_gammas, pairs, eval_ds)[0]


def _search(candidate_gammas, pairs, eval_ds, method=None):
    """(select_gamma's choice, method's merge at it or None) over an iterable
    of activations._PairStats, all formed before any merge is scored, so a
    stream of them holds no capture by then. With a method, the pairs share
    one reference and the merge is evaluation._merge's (merged, None,
    summaries) at the chosen gamma. A candidate whose solve, plan, merge or
    score fails on a pair is dropped; any other error propagates."""
    if candidate_gammas is not None:
        # each is checked before sorting: a NaN leaves no order. A repeat is
        # scored once; by its hex, -0.0 stays apart from 0.0
        unique = {g.hex(): g for g in map(_check_gamma, candidate_gammas)}
        candidate_gammas = sorted(unique.values())
        if not candidate_gammas:
            raise GammaSelectionError("no candidate gammas given")
    pairs = list(pairs)
    if not pairs:
        raise GammaSelectionError("no model pairs given")
    best, best_score = None, -np.inf
    # ascending, so >= sends exact ties to the larger gamma
    for gamma in candidate_gammas or sorted(cca._grid(pairs[0])):
        scored = _score(gamma, pairs, eval_ds, method is MethodTag.CCA)
        if scored is not None and scored[0] >= best_score:
            best, (best_score, summaries, total) = gamma, scored
        del scored  # a losing candidate's sum goes before the next is scored
    if best is None:
        raise GammaSelectionError("every candidate gamma failed during merging")
    if method is None:
        return best, None
    if total is None:  # permute and direct do not read gamma: merge once
        reference = pairs[0].a.model
        merged = _merge_all(reference, [p.b.model for p in pairs], method, pairs)[0]
    else:
        merged = total.mean()
    return best, (merged, None, summaries)


def _score(gamma, pairs, eval_ds, keep_sum):
    """(mean accuracy, first pair's summaries, the reference's and aligned
    partners' _ModelSum if keep_sum) of the one-partner CCA merges at gamma
    over pairs in order, or None when one fails."""
    scores, summaries, total = [], None, None
    for pair in pairs:
        a, b = pair.a.model, pair.b.model
        try:
            merged, aligned = _merge_all(a, [b], MethodTag.CCA, [pair], gamma)
            if summaries is None:  # from the merge's solve, kept on the pair
                summaries = cca.summaries_from_solutions(pair.solved[1])
            pair.solved = None  # let go before the merge is scored
            _, acc = trainer.cross_entropy_accuracy(merged, eval_ds)
        except (NumericalError, ValidationError):
            pair.solved = None
            return None
        scores.append(acc)
        if keep_sum:
            total = total or _ModelSum(a)
            total.add(aligned[0])
        del merged, aligned  # before the next merge is made
    return float(np.mean(scores)), summaries, total


def repair_reset(merged, reference, probes):
    """Match the merged model's hidden pre-activation stats to the reference.

    Returns (model, skipped): neurons whose merged spread is below
    SIGMA_FLOOR are left untouched and listed. The output layer is never
    rescaled.

    The targets are the reference's own, so it is walked first, its ReLU
    taken in place; the merged model is then rescaled bottom-up, each layer
    before its output becomes the next input.
    """
    _check_kind("merged", merged, MlpModel)
    _check_kind("reference", reference, MlpModel)
    if not merged.same_architecture(reference):
        raise ValidationError("merged and reference architectures differ")
    x = probes = probe_matrix(probes, merged.input_dim)
    targets = []
    for layer in reference.layers[:-1]:
        x = _preactivation(layer, x)  # the input below is let go
        targets.append((x.mean(axis=0), x.std(axis=0)))
        np.maximum(x, 0.0, out=x)  # the reference's ReLU
    x = probes
    new_layers, skipped = [], []
    for i, (layer, (mu_ref, sd_ref)) in enumerate(zip(merged.layers, targets)):
        if i:  # the output of the layer below, rescaled
            x = _step(new_layers[-1], x)
        z = _preactivation(layer, x)
        mu_m, sd_m = z.mean(axis=0), z.std(axis=0)
        del z  # before the layer's rescaled output is made
        keep = sd_m < SIGMA_FLOOR
        scale = np.where(keep, 1.0, sd_ref / np.where(keep, 1.0, sd_m))
        shift = np.where(keep, 0.0, mu_ref - mu_m * scale)
        skipped += [SkippedNeuron(i, int(j)) for j in np.flatnonzero(keep)]
        new_layers.append(DenseLayer(layer.weights * scale[:, None],
                                     layer.bias * scale + shift, layer.activation))
    new_layers.append(merged.layers[-1])  # the output layer is kept as it is
    return (
        MlpModel(tuple(new_layers), merged.input_dim, merged.seed_tag),
        tuple(skipped),
    )

"""Model averaging, aligned merging, and the statistics reset pass."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fuselab import (
    Activation,
    AlignmentPlan,
    AnalysisReport,
    ConfigurationError,
    DenseLayer,
    LayerTransform,
    MethodTag,
    MlpModel,
    ShapeError,
    ValidationError,
    align,
    analyze,
    apply_plan,
    average_models,
    build_transform,
    capture,
    coefficient_distribution_ratio,
    correlations,
    default_gamma,
    format_report,
    generate,
    identity_plan,
    indirect_matching_diagnostics,
    linear_sum_assignment,
    merge_and_report,
    merge_many,
    merge_pair,
    non_optimal_matches,
    repair_reset,
    scatter,
    select_gamma,
    solve_cca,
    topk_coefficient_coverage,
)
from fuselab import evaluation, merge
from fuselab.activations import DEGENERATE_VARIANCE, _pair_stats
from fuselab.analysis import (
    COVERAGE_PAIRS,
    RATIO_KS,
    IndirectLayerDiagnostics,
    PairLayerDiagnostics,
    _column_partners,
)
from fuselab.cca import plan_from_solutions
from fuselab.evaluation import summaries_from_solutions
from fuselab.merge import SIGMA_FLOOR, SkippedNeuron, _ModelSum

from _helpers import (
    assert_models_allclose,
    blown_up,
    correlations_oracle,
    count_calls,
    model_bytes,
    outcome,
    permuted_twin,
    random_case,
    random_model,
    record_pair_lifetimes,
    record_search_lifetimes,
)


class TestAverageModels:
    def test_mean_of_parameters(self, rng):
        a = random_model(3, (4,), 2, seed=0)
        b = random_model(3, (4,), 2, seed=1)
        avg = average_models([a, b])
        for la, lb, lavg in zip(a.layers, b.layers, avg.layers):
            np.testing.assert_allclose(
                lavg.weights, (la.weights + lb.weights) / 2.0, atol=1e-15
            )
            np.testing.assert_allclose(
                lavg.bias, (la.bias + lb.bias) / 2.0, atol=1e-15
            )

    def test_single_model_is_unchanged(self):
        a = random_model(3, (4,), 2, seed=0)
        assert_models_allclose(average_models([a]), a, atol=0.0)

    def test_three_way_average(self):
        models = [random_model(2, (3,), 2, seed=s) for s in range(3)]
        avg = average_models(models)
        expect = np.mean([m.layers[0].weights for m in models], axis=0)
        np.testing.assert_allclose(avg.layers[0].weights, expect, atol=1e-15)

    def test_seed_tags_joined(self):
        a = random_model(3, (4,), 2, seed=0, tag="first")
        b = random_model(3, (4,), 2, seed=1, tag="second")
        assert average_models([a, b]).seed_tag == "first+second"

    def test_architecture_mismatch_rejected(self):
        a = random_model(3, (4,), 2, seed=0)
        b = random_model(3, (5,), 2, seed=1)
        with pytest.raises(ValidationError):
            average_models([a, b])


def _average_models_oracle(models):
    """average_models as np.mean over each parameter of the stacked models."""
    layers = []
    for i in range(models[0].num_layers):
        w = np.mean([m.layers[i].weights for m in models], axis=0)
        b = np.mean([m.layers[i].bias for m in models], axis=0)
        layers.append(DenseLayer(w, b, models[0].layers[i].activation))
    tags = [m.seed_tag for m in models if m.seed_tag]
    tag = "+".join(tags) if tags else None
    return MlpModel(tuple(layers), models[0].input_dim, tag)


def _parameter(rng, shape):
    """Values over several magnitudes, about a fifth of them +-0.0."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    zeros = np.copysign(0.0, rng.standard_normal(shape))
    return np.where(rng.random(shape) < 0.2, zeros, values)


@st.composite
def mean_cases(draw):
    """1-12 models of one shape whose layers are often 1 wide."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = st.sampled_from([1, 1, 2, 5])
    dims = [draw(width), *draw(st.lists(width, min_size=1, max_size=2)),
            draw(width)]
    models = []
    for k in range(draw(st.integers(1, 12))):
        layers = tuple(
            DenseLayer(
                _parameter(rng, (fan_out, fan_in)),
                _parameter(rng, fan_out),
                Activation.RELU if i < len(dims) - 2 else Activation.IDENTITY,
            )
            for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:]))
        )
        tag = draw(st.sampled_from([None, f"m{k}"]))
        models.append(MlpModel(layers, dims[0], tag))
    return models


class TestOneMean:
    @settings(max_examples=300, deadline=None)
    @given(mean_cases())
    def test_matches_np_mean_bytes(self, models):
        # np.mean sums a one-element parameter pairwise from 8 models on
        expect = _average_models_oracle(models)
        total = _ModelSum(models[0])
        for m in models[1:]:
            total.add(m)
        for got in (average_models(models), total.mean()):
            assert model_bytes(got) == model_bytes(expect)
            assert got.seed_tag == expect.seed_tag


class TestAlign:
    def test_identity_needs_no_probes(self):
        a = random_model(3, (4,), 2, seed=0)
        b = random_model(3, (4,), 2, seed=1)
        plan = align(a, b, MethodTag.IDENTITY)
        assert plan.method_tag is MethodTag.IDENTITY

    def test_probe_methods_require_probes(self):
        a = random_model(3, (4,), 2, seed=0)
        b = random_model(3, (4,), 2, seed=1)
        for method in (MethodTag.PERMUTE, MethodTag.CCA):
            with pytest.raises(ConfigurationError):
                align(a, b, method)

    def test_dispatch_tags(self, rng):
        a = random_model(3, (4,), 2, seed=0)
        b = random_model(3, (4,), 2, seed=1)
        probes = rng.normal(size=(100, 3))
        assert align(a, b, MethodTag.PERMUTE, probes).method_tag is MethodTag.PERMUTE
        assert align(a, b, MethodTag.CCA, probes).method_tag is MethodTag.CCA

    @pytest.mark.parametrize("method", ["cca", None, 2])
    @pytest.mark.parametrize("with_probes", [False, True])
    def test_method_must_be_a_method_tag(self, monkeypatch, rng, method,
                                         with_probes):
        a = random_model(3, (4,), 2, seed=0)
        b = random_model(3, (4,), 2, seed=1)
        probes = rng.normal(size=(20, 3)) if with_probes else None
        counts = count_calls(monkeypatch, ["capture"])
        with pytest.raises(ConfigurationError,
                           match=f"unknown method {method!r}"):
            align(a, b, method, probes)
        assert counts["capture"] == 0


class TestMergePair:
    def test_permuted_twin_merges_to_original(self, rng):
        # the twin aligned back is bit-for-bit the original, so the average
        # is the original again
        model = random_model(4, (6, 6), 3, seed=2)
        _, twin = permuted_twin(model, seed=3)
        probes = rng.normal(size=(300, 4))
        plan = align(model, twin, MethodTag.PERMUTE, probes)
        merged = merge_pair(model, twin, plan)
        assert_models_allclose(merged, model, atol=1e-12)

    def test_direct_merge_is_plain_average(self):
        a = random_model(3, (4,), 2, seed=4)
        b = random_model(3, (4,), 2, seed=5)
        plan = align(a, b, MethodTag.IDENTITY)
        assert_models_allclose(
            merge_pair(a, b, plan), average_models([a, b]), atol=0.0
        )


class TestMergeMany:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_permuted_twin_merges_back_to_the_model_bytes(self, data):
        model, plan, probes = random_case(data.draw, min_dim=2, max_rows=60)
        for a in capture(model, probes):
            assume(np.all(a.variances() >= DEGENERATE_VARIANCE))
            # two neurons correlated by +-1 are interchangeable to matching
            off = np.abs(correlations(a, a).values) - np.eye(a.width)
            assume(off.max(initial=0.0) < 1.0 - 1e-9)
        twin = apply_plan(model, plan)
        merged = merge_many(model, [twin], MethodTag.PERMUTE, probes)
        assert model_bytes(merged) == model_bytes(model)

    def test_needs_at_least_one_other(self):
        a = random_model(3, (4,), 2, seed=0)
        with pytest.raises(ConfigurationError):
            merge_many(a, [], MethodTag.IDENTITY)

    def test_reduces_to_pair_merge_for_one_other(self, rng):
        a = random_model(4, (6,), 3, seed=6)
        b = random_model(4, (6,), 3, seed=7)
        probes = rng.normal(size=(200, 4))
        plan = align(a, b, MethodTag.PERMUTE, probes)
        assert_models_allclose(
            merge_many(a, [b], MethodTag.PERMUTE, probes),
            merge_pair(a, b, plan),
            atol=0.0,
        )

    def test_three_permuted_twins_collapse_to_original(self, rng):
        model = random_model(4, (8,), 3, seed=8)
        twins = [permuted_twin(model, seed=s)[1] for s in (9, 10)]
        probes = rng.normal(size=(300, 4))
        merged = merge_many(model, twins, MethodTag.PERMUTE, probes)
        assert_models_allclose(merged, model, atol=1e-12)


class TestRepairReset:
    def test_statistics_match_after_reset(self, small_pair, small_task):
        train_ds, _ = small_task
        a, b = small_pair
        probes = train_ds.features[:200]
        plan = align(a, b, MethodTag.PERMUTE, probes)
        merged = merge_pair(a, b, plan)
        fixed, skipped = repair_reset(merged, a, probes)
        assert skipped == ()
        # walk both models' hidden layers and compare pre-activation stats
        x_fixed, x_ref = probes, probes
        for layer_fixed, layer_ref in zip(fixed.layers[:-1], a.layers[:-1]):
            z_fixed = x_fixed @ layer_fixed.weights.T + layer_fixed.bias
            z_ref = x_ref @ layer_ref.weights.T + layer_ref.bias
            np.testing.assert_allclose(
                z_fixed.mean(axis=0), z_ref.mean(axis=0), atol=1e-9
            )
            np.testing.assert_allclose(
                z_fixed.std(axis=0), z_ref.std(axis=0), atol=1e-9
            )
            x_fixed = np.maximum(z_fixed, 0.0)
            x_ref = np.maximum(z_ref, 0.0)

    def test_self_reset_is_a_no_op(self, small_pair, small_task):
        train_ds, _ = small_task
        a, _ = small_pair
        probes = train_ds.features[:200]
        fixed, skipped = repair_reset(a, a, probes)
        assert skipped == ()
        assert_models_allclose(fixed, a, atol=1e-9)

    def test_output_layer_untouched(self, small_pair, small_task):
        train_ds, _ = small_task
        a, b = small_pair
        probes = train_ds.features[:200]
        merged = merge_pair(a, b, align(a, b, MethodTag.IDENTITY))
        fixed, _ = repair_reset(merged, a, probes)
        np.testing.assert_array_equal(
            fixed.layers[-1].weights, merged.layers[-1].weights
        )
        np.testing.assert_array_equal(fixed.layers[-1].bias, merged.layers[-1].bias)

    def test_constant_neuron_skipped_untouched(self, rng):
        # a hidden neuron with zero weights and zero bias has zero spread on
        # any probe set; the reset must list it and leave it alone
        w = np.array([[1.0, 0.5], [0.0, 0.0], [-0.5, 1.0]])
        b = np.array([0.2, 0.0, 0.1])
        head_w = rng.normal(size=(2, 3))
        merged = MlpModel(
            (
                DenseLayer(w, b, Activation.RELU),
                DenseLayer(head_w, np.zeros(2), Activation.IDENTITY),
            ),
            input_dim=2,
        )
        reference = random_model(2, (3,), 2, seed=11)
        probes = rng.normal(size=(100, 2))
        fixed, skipped = repair_reset(merged, reference, probes)
        assert skipped == (SkippedNeuron(0, 1),)
        np.testing.assert_array_equal(fixed.layers[0].weights[1], w[1])
        np.testing.assert_array_equal(fixed.layers[0].bias[1], b[1])
        z = probes @ w.T + b
        assert z[:, 1].std() < SIGMA_FLOOR

    def test_architecture_mismatch_rejected(self, rng):
        a = random_model(2, (3,), 2, seed=0)
        b = random_model(2, (4,), 2, seed=1)
        with pytest.raises(ValidationError):
            repair_reset(a, b, rng.normal(size=(50, 2)))

    @pytest.mark.parametrize("width", [5, 7])
    def test_probe_width_must_match_the_models(self, rng, width):
        a = random_model(6, (4,), 2, seed=0)
        b = random_model(6, (4,), 2, seed=1)
        with pytest.raises(ShapeError, match="expect 6 input columns"):
            repair_reset(a, b, rng.normal(size=(50, width)))


def _repair_oracle(merged, reference, probes):
    """repair_reset's arithmetic as it stood while every step allocated: the
    bias added out of place, both pre-activations kept to the layer's end,
    and the reference's ReLU taken into a copy."""

    def layer_stats(weights, bias, x):
        z = x @ weights.T + bias
        return z.mean(axis=0), z.std(axis=0), z

    ref_x = cur_x = np.asarray(probes, dtype=np.float64)
    new_layers, skipped = [], []
    for i, (layer, ref_layer) in enumerate(zip(merged.layers, reference.layers)):
        if i == merged.num_layers - 1:
            new_layers.append(layer)
            break
        mu_ref, sd_ref, ref_z = layer_stats(ref_layer.weights, ref_layer.bias, ref_x)
        mu_m, sd_m, _ = layer_stats(layer.weights, layer.bias, cur_x)
        keep = sd_m < SIGMA_FLOOR
        scale = np.where(keep, 1.0, sd_ref / np.where(keep, 1.0, sd_m))
        shift = np.where(keep, 0.0, mu_ref - mu_m * scale)
        w = layer.weights * scale[:, None]
        b = layer.bias * scale + shift
        skipped += [SkippedNeuron(i, int(j)) for j in np.flatnonzero(keep)]
        new_layer = DenseLayer(w, b, layer.activation)
        new_layers.append(new_layer)
        cur_x = new_layer.apply(cur_x)
        ref_x = Activation.RELU.apply(ref_z)
    model = MlpModel(tuple(new_layers), merged.input_dim, merged.seed_tag)
    return model, tuple(skipped)


@st.composite
def repair_cases(draw):
    """(merged, reference, probes): 1-3 hidden layers 1-40 wide, from 2 probe
    rows. About a fifth of the merged model's hidden neurons are constant
    (zero weights: the reset skips them) and a fifth dead on every probe
    (a bias far below zero), and so are the reference's when drawn."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = [draw(st.integers(1, 6)),
            *draw(st.lists(st.integers(1, 40), min_size=1, max_size=3)),
            draw(st.integers(2, 4))]

    def model(degenerate):
        layers = []
        for k, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
            w = rng.standard_normal((fan_out, fan_in))
            b = rng.standard_normal(fan_out)
            hidden = k < len(dims) - 2
            if degenerate and hidden:
                w[rng.random(fan_out) < 0.2] = 0.0
                b[rng.random(fan_out) < 0.2] = -1e3
            act = Activation.RELU if hidden else Activation.IDENTITY
            layers.append(DenseLayer(w, b, act))
        return MlpModel(tuple(layers), dims[0])

    merged, reference = model(True), model(draw(st.booleans()))
    return merged, reference, rng.standard_normal((draw(st.integers(2, 30)), dims[0]))


class TestRepairMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(repair_cases())
    def test_models_and_skips_match_the_oracle(self, case):
        fixed, skipped = repair_reset(*case)
        expect, expect_skipped = _repair_oracle(*case)
        assert model_bytes(fixed) == model_bytes(expect)
        assert fixed.seed_tag == expect.seed_tag
        assert skipped == expect_skipped


class TestMergeWorkingSet:
    def test_merge_with_repair_holds_two_captures_and_little_more(self):
        # a 3-model (128, 128) permute merge and reset on 2000 probes: the
        # reference's capture and one partner's are the floor, and the merge
        # peaks at 2.34 captures. Squaring a whole capture for its column
        # norms peaks at 2.74; keeping both pre-activations of a layer and a
        # copy of the reference's ReLU in the reset, at 3.17
        models = [random_model(32, (128, 128), 16, seed=s) for s in range(3)]
        probes = np.random.default_rng(0).normal(size=(2000, 32))
        merge_and_report(models, MethodTag.PERMUTE, probes, repair=True)  # warm up
        tracemalloc.start()
        try:
            merge_and_report(models, MethodTag.PERMUTE, probes, repair=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * (2000 * (128 + 128) * 8)

    def test_repair_holds_three_probe_arrays(self):
        # repair_reset alone on that merge peaks at 3.06 probes x width
        # arrays: the merged model's layer input, its pre-activation and
        # np.std's temporary (the reference's walk holds one fewer).
        # Walking both models in lockstep with np.std on each
        # pre-activation made it 4.07
        models = [random_model(32, (128, 128), 16, seed=s) for s in range(3)]
        probes = np.random.default_rng(0).normal(size=(2000, 32))
        merged = merge_many(models[0], models[1:], MethodTag.PERMUTE, probes)
        repair_reset(merged, models[0], probes)  # warm up
        tracemalloc.start()
        try:
            repair_reset(merged, models[0], probes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.2 * (2000 * 128 * 8)


class TestSearchWorkingSet:
    def test_search_with_repair_scores_with_no_capture_alive(self):
        # `merge --method cca --gamma-search auto --repair` of 5 (256, 256)
        # models on 2000 probes. Every pair is formed before a merge is
        # scored, and the reference keeps one ridge's inverse square roots:
        # the op peaks at 3.16 captures. Scoring each pair as it is formed,
        # with every candidate's roots and running sum, peaks at 3.62
        models = [random_model(32, (256, 256), 16, seed=s) for s in range(5)]
        probes_ds = generate(16, 125, 32, seed=0)
        probes = probes_ds.features

        def search_merge():
            pairs = _pair_stats(models, 0, probes)
            gamma, made = merge._search(None, pairs, probes_ds, MethodTag.CCA)
            evaluation._report(models, MethodTag.CCA, made, probes, gamma, True, 0)

        search_merge()  # warm up
        tracemalloc.start()
        try:
            search_merge()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.4 * (2000 * (256 + 256) * 8)


# --- the separate merge paths before they were joined, kept as the oracle --
#
# Every model is captured afresh for every pair and every scatter is formed
# from scratch, as the code did before the alignment loop was shared.


def _solve_oracle(acts_a, acts_b, gamma):
    sols = []
    for a, b in zip(acts_a, acts_b):
        g = default_gamma(
            a.values.T @ a.values, b.values.T @ b.values
        ) if gamma is None else float(gamma)
        sols.append(solve_cca(scatter(a, b, g)))
    return sols


def _align_oracle(reference, model, method, probes=None, gamma=None):
    """merge.align as it was: one dispatch, one capture per call."""
    if method is MethodTag.IDENTITY:
        return identity_plan(model)
    if probes is None:
        raise ConfigurationError(f"method {method.value} needs probes")
    acts = capture(reference, probes), capture(model, probes)
    if method is MethodTag.PERMUTE:
        return _permute_oracle(*acts)
    return plan_from_solutions(_solve_oracle(*acts, gamma))


def _merge_many_oracle(reference, others, method, probes=None, gamma=None):
    aligned = [
        apply_plan(m, _align_oracle(reference, m, method, probes, gamma))
        for m in others
    ]
    return average_models([reference, *aligned])


def _permute_oracle(acts_a, acts_b):
    """The permute plan from per-layer correlations of the captures."""
    transforms = tuple(
        LayerTransform.from_mapping(
            linear_sum_assignment(correlations_oracle(a, b)).mapping, i
        )
        for i, (a, b) in enumerate(zip(acts_a, acts_b))
    )
    return AlignmentPlan(transforms, MethodTag.PERMUTE)


def _align_pair_oracle(reference, other, probes, method, gamma, summarize):
    """evaluation._align_pair as it was, on fresh captures."""
    if method is MethodTag.IDENTITY and not summarize:
        return identity_plan(other), None
    acts = capture(reference, probes), capture(other, probes)
    sols = None
    if method is MethodTag.CCA or summarize:
        sols = _solve_oracle(*acts, gamma)
    if method is MethodTag.CCA:
        plan = plan_from_solutions(sols)
    elif method is MethodTag.PERMUTE:
        plan = _permute_oracle(*acts)
    else:
        plan = _align_oracle(reference, other, method, probes, gamma)
    return plan, sols


def _merge_and_report_oracle(models, method, probes, gamma, repair, ref):
    """merge_and_report's own loop as it was: (merged, summaries, aligned)."""
    reference = models[ref]
    others = [m for i, m in enumerate(models) if i != ref]
    aligned = []
    summaries = ()
    for k, other in enumerate(others):
        if probes is None:
            plan, sols = _align_oracle(reference, other, method), None
        else:
            plan, sols = _align_pair_oracle(
                reference, other, probes, method, gamma, k == 0
            )
        if k == 0 and sols is not None:
            summaries = summaries_from_solutions(sols)
        aligned.append(apply_plan(other, plan))
    merged = average_models([reference, *aligned])
    if repair:
        merged, _ = repair_reset(merged, reference, probes)
    return merged, summaries, aligned


def _pair_diagnostics_oracle(model_a, model_b, probes, gamma):
    acts_a, acts_b = capture(model_a, probes), capture(model_b, probes)
    sols = _solve_oracle(acts_a, acts_b, gamma)
    out = []
    for i, (a, b) in enumerate(zip(acts_a, acts_b)):
        corr = correlations_oracle(a, b)
        assign = linear_sum_assignment(corr)
        transform = build_transform(sols[i], i)
        n = corr.values.shape[0]
        coverage = tuple(
            (kc, kt, topk_coefficient_coverage(corr, transform, kc, kt))
            for kc, kt in COVERAGE_PAIRS
            if kc <= n and kt <= n
        )
        ratios = tuple(
            (k, coefficient_distribution_ratio(corr, transform, k))
            for k in RATIO_KS
            if k <= n
        )
        out.append(
            PairLayerDiagnostics(
                i, non_optimal_matches(corr, assign), coverage, ratios
            )
        )
    return out


def _indirect_oracle(model_a, model_b, model_c, method, probes, gamma):
    plan_ca = _align_oracle(model_a, model_c, method, probes, gamma)
    plan_ba = _align_oracle(model_a, model_b, method, probes, gamma)
    plan_cb = _align_oracle(model_b, model_c, method, probes, gamma)
    out = []
    for i, (t_ca, t_ba, t_cb) in enumerate(
        zip(plan_ca.transforms, plan_ba.transforms, plan_cb.transforms)
    ):
        indirect = t_ba.inverse @ t_ca.forward
        direct = t_cb.forward
        mismatch = float(
            100.0
            * np.mean(_column_partners(indirect) != _column_partners(direct))
        )
        frob = float(np.linalg.norm(indirect - direct))
        ref = float(np.linalg.norm(direct))
        out.append(
            IndirectLayerDiagnostics(
                i, mismatch, frob, frob / ref if ref > 0 else math.inf
            )
        )
    return out


def _analyze_oracle(models, probes, gamma):
    pair_layers = tuple(
        _pair_diagnostics_oracle(models[0], models[1], probes, gamma)
    )
    indirect = None
    if len(models) == 3:
        indirect = {
            method.value: tuple(_indirect_oracle(*models, method, probes, gamma))
            for method in (MethodTag.PERMUTE, MethodTag.CCA)
        }
    return AnalysisReport(len(models), gamma, pair_layers, indirect)


PATH_TASK = generate(4, 20, 6, seed=8)


@st.composite
def merge_cases(draw):
    n = draw(st.integers(2, 4))
    seeds = draw(
        st.lists(st.integers(0, 80), min_size=n, max_size=n, unique=True)
    )
    widths = draw(st.sampled_from([(8, 8), (5,), (6, 4, 7)]))
    models = [random_model(6, widths, 4, seed=s) for s in seeds]
    for i in range(n):
        if draw(st.integers(0, 4)) == 0:  # sometimes a badly scaled model
            models[i] = blown_up(models[i])
    gamma = draw(st.sampled_from([None, None, 1e-3, 0.5, 0.0]))
    rows = draw(st.sampled_from([5, 20, 80]))  # 5 rows: rank-deficient
    return models, gamma, PATH_TASK.features[:rows], draw(st.booleans())


class TestOnePathMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(merge_cases())
    def test_merges_and_analysis_match_the_separate_paths(self, case):
        models, gamma, probes, repair = case
        n = len(models)
        for method in MethodTag:
            for ref in range(n):
                order = [models[ref]] + models[:ref] + models[ref + 1 :]
                fast = outcome(merge_many, order[0], order[1:], method,
                                probes, gamma)
                slow = outcome(_merge_many_oracle, order[0], order[1:],
                                method, probes, gamma)
                assert _same(fast, slow)
                for p in (probes, None):
                    fast = outcome(self._merge, models, method, p, gamma,
                                    repair and p is not None, ref)
                    slow = outcome(_merge_and_report_oracle, models, method,
                                    p, gamma, repair and p is not None, ref)
                    assert _same(fast, slow)
        for ref in range(n):
            order = [models[ref]] + models[:ref] + models[ref + 1 :]
            fast = outcome(analyze, order[:3], probes, gamma)
            slow = outcome(_analyze_oracle, order[:3], probes, gamma)
            if isinstance(slow, type):
                assert fast is slow
            else:
                assert _report_text(fast) == _report_text(slow)

    @staticmethod
    def _merge(models, method, probes, gamma, repair, ref):
        merged, report, aligned = merge_and_report(
            models, method, probes, gamma, repair, ref
        )
        return merged, report.layer_summaries, aligned


def _same(fast, slow):
    """Same error type, or byte-identical models and equal summaries."""
    if isinstance(slow, type) or isinstance(fast, type):
        return fast is slow
    if isinstance(slow, MlpModel):
        return model_bytes(fast) == model_bytes(slow)
    merged, summaries, aligned = fast
    return (
        model_bytes(merged) == model_bytes(slow[0])
        and summaries == slow[1]
        and [model_bytes(m) for m in aligned] == [model_bytes(m) for m in slow[2]]
    )


def _report_text(report):
    return format_report(report.to_items(), timestamp="-")


class TestPairsAreLetGo:
    """Each partner's statistics are dead by the next partner's capture,
    except in the gamma search, which keeps them and lets the captures go."""

    MODELS = [random_model(6, (8, 8), 4, seed=s) for s in range(4)]

    @pytest.mark.parametrize("method", [None, MethodTag.PERMUTE, MethodTag.CCA])
    def test_search(self, monkeypatch, method):
        # every pair is formed before any merge is scored: each partner's
        # capture is gone by the next capture, the reference's by the first
        # scoring, and each scoring merge and its aligned partner by the next
        captures, scorings = record_search_lifetimes(monkeypatch)
        pairs = _pair_stats(self.MODELS, 0, PATH_TASK.features)
        merge._search([1e-3, 1.0], pairs, PATH_TASK, method)
        partners = len(self.MODELS) - 1
        assert captures == [[]] + [[0]] * partners
        assert scorings == [(0, 1, 1)] * (2 * partners)

    @pytest.mark.parametrize("method", [MethodTag.PERMUTE, MethodTag.CCA])
    def test_merge(self, monkeypatch, method):
        # the first pair is solved for the summaries before the merge reads it
        alive = record_pair_lifetimes(monkeypatch)
        evaluation._merge(self.MODELS, method, PATH_TASK.features, None, 0)
        assert alive == [0] * len(self.MODELS)


class TestCapturesOncePerModel:
    @pytest.mark.parametrize("method", [MethodTag.PERMUTE, MethodTag.CCA])
    @pytest.mark.parametrize("n", [2, 4])
    def test_merging_n_models_makes_n_captures(self, monkeypatch, method, n):
        models = [random_model(6, (8, 8), 4, seed=s) for s in range(n)]
        probes = PATH_TASK.features
        counts = count_calls(monkeypatch, ["capture"])
        merge_many(models[0], models[1:], method, probes)
        assert counts["capture"] == n
        counts.clear()
        merge_and_report(models, method, probes, reference_index=n - 1)
        assert counts["capture"] == n

    def test_analyze_three_models_makes_three_captures(self, monkeypatch):
        models = [random_model(6, (8, 8), 4, seed=s) for s in range(3)]
        counts = count_calls(monkeypatch, ["capture"])
        analyze(models, PATH_TASK.features)
        # A once for (A, B) and (A, C); B and C once each against A, and
        # (B, C) reuses those two captures
        assert counts["capture"] == 3
        counts.clear()
        analyze(models[:2], PATH_TASK.features)
        assert counts["capture"] == 2

    @pytest.mark.parametrize("method", [MethodTag.PERMUTE, MethodTag.CCA])
    def test_indirect_diagnostics_make_three_captures(
        self, monkeypatch, method
    ):
        models = [random_model(6, (8, 8), 4, seed=s) for s in range(3)]
        counts = count_calls(monkeypatch, ["capture"])
        indirect_matching_diagnostics(*models, method, PATH_TASK.features)
        assert counts["capture"] == 3


class TestSelectGammaCandidates:
    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_malformed_candidate_is_named_before_any_capture(
        self, monkeypatch, bad
    ):
        # a malformed ridge is the caller's mistake, not a candidate that
        # fails on a pair: it is not dropped in favour of the others
        a, b, c = (random_model(6, (8, 8), 4, seed=s) for s in range(3))
        counts = count_calls(monkeypatch, ["capture"])
        with pytest.raises(ValidationError, match=f"gamma .* got {bad}"):
            select_gamma(
                [bad, 0.01], [(a, b), (a, c)], PATH_TASK.features, PATH_TASK
            )
        assert counts["capture"] == 0

"""Accuracy, ensembling, interpolation barriers, merge reports."""

import numpy as np
import pytest

from fuselab import (
    ConfigurationError,
    MethodTag,
    ShapeError,
    ValidationError,
    accuracy,
    cross_entropy_accuracy,
    ensemble_accuracy,
    evaluate_merge,
    interpolation_curve,
    merge_and_report,
    merge_many,
)
from fuselab.evaluation import DEFAULT_GRID_SIZE, _blend

from _helpers import assert_models_allclose, permuted_twin, random_model


class TestEnsemble:
    def test_single_model_equals_accuracy(self, small_pair, small_task):
        _, test_ds = small_task
        a, _ = small_pair
        assert ensemble_accuracy([a], test_ds) == accuracy(a, test_ds)

    def test_duplicates_change_nothing(self, small_pair, small_task):
        _, test_ds = small_task
        a, b = small_pair
        assert ensemble_accuracy([a, b], test_ds) == ensemble_accuracy(
            [a, b, a, b], test_ds
        )

    def test_empty_rejected(self, small_task):
        _, test_ds = small_task
        with pytest.raises(ConfigurationError):
            ensemble_accuracy([], test_ds)

    def test_class_count_mismatch_rejected(self, small_pair, small_task):
        _, test_ds = small_task
        wide = random_model(test_ds.dim, (16, 16), 16, seed=6)
        with pytest.raises(ShapeError, match="16 output classes.*has 4"):
            ensemble_accuracy([small_pair[0], wide], test_ds)

    def test_empty_dataset_rejected(self, small_pair, small_task):
        empty = small_task[1].subset([])
        with pytest.raises(ValidationError, match="no rows"):
            ensemble_accuracy(small_pair, empty)
        with pytest.raises(ValidationError, match="no rows"):
            accuracy(small_pair[0], empty)


class TestInterpolationCurve:
    def test_endpoints_match_direct_evaluation(self, small_pair, small_task):
        _, test_ds = small_task
        a, b = small_pair
        curve = interpolation_curve(a, b, test_ds, grid_size=5)
        loss_a, acc_a = cross_entropy_accuracy(a, test_ds)
        loss_b, acc_b = cross_entropy_accuracy(b, test_ds)
        assert curve.lambdas[0] == 0.0 and curve.lambdas[-1] == 1.0
        np.testing.assert_allclose(curve.losses[0], loss_a, atol=1e-12)
        np.testing.assert_allclose(curve.losses[-1], loss_b, atol=1e-12)
        np.testing.assert_allclose(curve.accuracies[0], acc_a, atol=1e-12)
        np.testing.assert_allclose(curve.accuracies[-1], acc_b, atol=1e-12)

    def test_self_interpolation_has_zero_barrier(self, small_pair, small_task):
        _, test_ds = small_task
        a, _ = small_pair
        curve = interpolation_curve(a, a, test_ds, grid_size=7)
        np.testing.assert_allclose(curve.barrier, 0.0, atol=1e-12)
        np.testing.assert_allclose(curve.losses, curve.losses[0], atol=1e-12)

    def test_barrier_is_max_gap_to_chord(self, small_pair, small_task):
        _, test_ds = small_task
        a, b = small_pair
        curve = interpolation_curve(a, b, test_ds, grid_size=9)
        chord = (1 - curve.lambdas) * curve.losses[0] + curve.lambdas * curve.losses[-1]
        assert curve.barrier == pytest.approx(np.max(curve.losses - chord))
        assert curve.barrier >= 0.0

    def test_default_grid_size(self, small_pair, small_task):
        _, test_ds = small_task
        a, b = small_pair
        curve = interpolation_curve(a, b, test_ds)
        assert curve.lambdas.shape == (DEFAULT_GRID_SIZE,)

    def test_blend_midpoint_is_average(self):
        a = random_model(3, (4,), 2, seed=0)
        b = random_model(3, (4,), 2, seed=1)
        mid = _blend(a, b, 0.5)
        np.testing.assert_allclose(
            mid.layers[0].weights,
            (a.layers[0].weights + b.layers[0].weights) / 2.0,
            atol=1e-15,
        )

    def test_bad_inputs_rejected(self, small_pair, small_task):
        _, test_ds = small_task
        a, b = small_pair
        with pytest.raises(ConfigurationError):
            interpolation_curve(a, b, test_ds, grid_size=1)
        with pytest.raises(ConfigurationError, match="^grid_size must be an integer"):
            interpolation_curve(a, b, test_ds, grid_size=3.0)
        narrow = random_model(test_ds.dim, (4,), test_ds.num_classes, seed=0)
        with pytest.raises(ValidationError):
            interpolation_curve(a, narrow, test_ds)


class TestMergeAndReport:
    def test_merged_model_matches_merge_many(self, small_pair, small_task):
        train_ds, _ = small_task
        a, b = small_pair
        probes = train_ds.features[:150]
        merged, report, aligned = merge_and_report(
            [a, b], MethodTag.PERMUTE, probes=probes
        )
        expect = merge_many(a, [b], MethodTag.PERMUTE, probes)
        assert_models_allclose(merged, expect, atol=0.0)
        assert report.method is MethodTag.PERMUTE
        assert report.num_models == 2
        assert report.seed_tags == (a.seed_tag, b.seed_tag)
        assert len(aligned) == 1

    def test_layer_summaries_cover_hidden_layers(self, small_pair, small_task):
        train_ds, _ = small_task
        a, b = small_pair
        merged, report, _ = merge_and_report(
            [a, b], MethodTag.CCA, probes=train_ds.features[:150], gamma=1e-2
        )
        assert [s.layer_index for s in report.layer_summaries] == [0, 1]
        for s in report.layer_summaries:
            assert s.gamma == 1e-2
            assert -1e-9 <= s.corr_min <= s.corr_mean <= s.corr_max <= 1.0 + 1e-9

    def test_summaries_attached_for_probe_free_methods_too(
        self, small_pair, small_task
    ):
        train_ds, _ = small_task
        a, b = small_pair
        _, report, _ = merge_and_report(
            [a, b], MethodTag.IDENTITY, probes=train_ds.features[:150]
        )
        assert len(report.layer_summaries) == 2

    def test_reference_index_selects_reference(self, small_pair, small_task):
        train_ds, _ = small_task
        a, b = small_pair
        probes = train_ds.features[:150]
        merged, report, _ = merge_and_report(
            [a, b], MethodTag.PERMUTE, probes=probes, reference_index=1
        )
        expect = merge_many(b, [a], MethodTag.PERMUTE, probes)
        assert_models_allclose(merged, expect, atol=0.0)
        assert report.reference_index == 1

    def test_repair_requires_probes(self, small_pair):
        a, b = small_pair
        with pytest.raises(ConfigurationError):
            merge_and_report([a, b], MethodTag.IDENTITY, repair=True)

    def test_too_few_models_rejected(self, small_pair):
        a, _ = small_pair
        with pytest.raises(ConfigurationError):
            merge_and_report([a], MethodTag.IDENTITY)
        with pytest.raises(ConfigurationError):
            merge_and_report([a, a], MethodTag.IDENTITY, reference_index=2)

    @pytest.mark.parametrize("method", list(MethodTag))
    @pytest.mark.parametrize("gamma", [float("nan"), -1.0, float("inf")])
    def test_bad_gamma_rejected_whatever_the_method(
        self, small_pair, method, gamma
    ):
        # no probes: nothing would reach the CCA solver's own check
        a, b = small_pair
        with pytest.raises(ValidationError, match="gamma"):
            merge_and_report([a, b], method, gamma=gamma)

    def test_report_items_round_numbers(self, small_pair, small_task):
        train_ds, test_ds = small_task
        a, b = small_pair
        merged, report = evaluate_merge(
            MethodTag.PERMUTE, [a, b], train_ds, test_ds, probe_limit=150
        )
        items = dict(report.to_items())
        assert items["report"] == "merge"
        assert items["method"] == "permute"
        assert items["models"] == 2
        assert items["merged_accuracy"] == accuracy(merged, test_ds)
        assert "barrier" in items
        # the endpoints and the ensemble are the caller's to score
        assert not any(k.startswith("model.") for k in items)
        assert "base_models_avg" not in items and "ensemble" not in items


class TestEvaluateMerge:
    def test_permuted_twin_is_barrier_free(self, small_pair, small_task):
        # the aligned twin equals the reference, so the path is a point
        train_ds, test_ds = small_task
        a, _ = small_pair
        _, twin = permuted_twin(a, seed=13)
        merged, report = evaluate_merge(
            MethodTag.PERMUTE, [a, twin], train_ds, test_ds
        )
        assert report.barrier == pytest.approx(0.0, abs=1e-10)
        assert report.merged_accuracy == accuracy(a, test_ds)

    def test_direct_barrier_at_least_permute_barrier(self, small_pair, small_task):
        # matching neurons first can only flatten the path on this task
        train_ds, test_ds = small_task
        a, b = small_pair
        _, direct = evaluate_merge(MethodTag.IDENTITY, [a, b], train_ds, test_ds)
        _, permute = evaluate_merge(MethodTag.PERMUTE, [a, b], train_ds, test_ds)
        assert permute.barrier <= direct.barrier + 1e-9

    def test_three_models_skip_barrier(self, small_pair, small_task):
        train_ds, test_ds = small_task
        a, b = small_pair
        c = random_model(train_ds.dim, a.hidden_widths, train_ds.num_classes, seed=5)
        _, report = evaluate_merge(
            MethodTag.PERMUTE, [a, b, c], train_ds, test_ds
        )
        assert report.barrier is None
        assert report.num_models == 3

    def test_probe_limit_changes_probe_set(self, small_pair, small_task):
        train_ds, test_ds = small_task
        a, b = small_pair
        m_few, _ = evaluate_merge(
            MethodTag.CCA, [a, b], train_ds, test_ds, probe_limit=50
        )
        m_all, _ = evaluate_merge(MethodTag.CCA, [a, b], train_ds, test_ds)
        diff = np.max(
            np.abs(m_few.layers[0].weights - m_all.layers[0].weights)
        )
        assert diff > 0.0

    def test_probe_limit_below_two_rejected(self, small_pair, small_task):
        train_ds, test_ds = small_task
        for limit in (-70, 0, 1):
            with pytest.raises(ConfigurationError, match="probe limit"):
                evaluate_merge(
                    MethodTag.PERMUTE, small_pair, train_ds, test_ds,
                    probe_limit=limit,
                )
        # a limit past the last row keeps every row
        m_big, _ = evaluate_merge(
            MethodTag.PERMUTE, small_pair, train_ds, test_ds, probe_limit=10**6
        )
        m_all, _ = evaluate_merge(MethodTag.PERMUTE, small_pair, train_ds, test_ds)
        assert_models_allclose(m_big, m_all, atol=0.0)

    def test_repair_skips_recorded_in_report(self, small_pair, small_task):
        train_ds, test_ds = small_task
        a, b = small_pair
        _, report = evaluate_merge(
            MethodTag.PERMUTE, [a, b], train_ds, test_ds, repair=True
        )
        assert report.repair is True
        assert isinstance(report.repair_skipped, tuple)

"""Matching diagnostics: non-optimal rates, coverage, distances, consistency."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fuselab import (
    Assignment,
    ConfigurationError,
    MethodTag,
    ShapeError,
    ValidationError,
    analyze,
    coefficient_distribution_ratio,
    indirect_matching_diagnostics,
    non_optimal_matches,
    topk_coefficient_coverage,
    wasserstein_1d,
)

from _helpers import permuted_twin, random_model, topk_coverage_oracle


class TestNonOptimalMatches:
    def test_half_non_optimal(self):
        c = np.array([[1.0, 0.0], [0.9, 0.1]])
        # row 0 keeps its best correlate, row 1 is matched away from it
        assert non_optimal_matches(c, Assignment(np.array([0, 1]), 1.1)) == 50.0

    def test_identity_on_dominant_diagonal(self):
        c = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert non_optimal_matches(c, Assignment(np.array([0, 1]), 1.7)) == 0.0

    def test_ties_count_as_optimal(self):
        c = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert non_optimal_matches(c, Assignment(np.array([0, 1]), 2.0)) == 0.0

    def test_every_row_suboptimal(self):
        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert non_optimal_matches(c, Assignment(np.array([0, 1]), 0.0)) == 100.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            non_optimal_matches(np.eye(3), Assignment(np.array([0, 1]), 2.0))


class TestCoverage:
    C = np.array(
        [
            [0.9, 0.5, 0.1],
            [0.2, 0.8, 0.3],
            [0.1, 0.4, 0.7],
        ]
    )

    def test_identity_covers_best_correlates(self):
        assert topk_coefficient_coverage(self.C, np.eye(3), 1, 1) == 100.0

    def test_second_correlate_missed_by_top_one(self):
        assert topk_coefficient_coverage(self.C, np.eye(3), 2, 1) == 0.0

    def test_second_correlate_with_two_coefficients(self):
        # only row 0's runner-up (column 1) falls inside the top-2
        # coefficient set of the identity's stable column order
        out = topk_coefficient_coverage(self.C, np.eye(3), 2, 2)
        assert out == pytest.approx(100.0 / 3.0)

    def test_k_out_of_range(self):
        with pytest.raises(ValidationError):
            topk_coefficient_coverage(self.C, np.eye(3), 0, 1)
        with pytest.raises(ValidationError):
            topk_coefficient_coverage(self.C, np.eye(3), 1, 4)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            topk_coefficient_coverage(self.C, np.eye(4), 1, 1)

    def test_sign_of_coefficients_ignored(self):
        assert topk_coefficient_coverage(self.C, -np.eye(3), 1, 1) == 100.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.data())
    def test_matches_the_row_loop_on_ties(self, n, seed, data):
        rng = np.random.default_rng(seed)
        # one decimal and whole zero columns make ties in most rows
        values = np.round(rng.uniform(-1, 1, (n, n)), 1)
        coeffs = np.round(rng.standard_normal((n, n)), 1)
        values[:, rng.random(n) < 0.3] = 0.0
        coeffs[:, rng.random(n) < 0.3] = 0.0
        k_corr = data.draw(st.integers(1, n))
        k_coeff = data.draw(st.integers(1, n))
        got = topk_coefficient_coverage(values, coeffs, k_corr, k_coeff)
        assert got == topk_coverage_oracle(values, coeffs, k_corr, k_coeff)


class TestWasserstein:
    def test_shifted_pair(self):
        assert wasserstein_1d([0.0, 1.0], [1.0, 2.0]) == 1.0

    def test_unequal_sizes_exact_value(self):
        # quantile functions: constant 0 versus 0 on [0, 1/2), 1 on [1/2, 1)
        assert wasserstein_1d([0.0], [0.0, 1.0]) == pytest.approx(0.5)

    def test_identical_distributions(self, rng):
        x = rng.normal(size=17)
        assert wasserstein_1d(x, x) == 0.0
        assert wasserstein_1d(x, rng.permutation(x)) == pytest.approx(0.0, abs=1e-15)

    def test_symmetry(self, rng):
        p = rng.normal(size=9)
        q = rng.normal(size=23)
        assert wasserstein_1d(p, q) == pytest.approx(wasserstein_1d(q, p))

    def test_translation_covariance(self, rng):
        p = rng.normal(size=12)
        q = rng.normal(size=12)
        base = wasserstein_1d(p, q)
        assert wasserstein_1d(p + 3.0, q + 3.0) == pytest.approx(base)
        assert wasserstein_1d(2.0 * p, 2.0 * q) == pytest.approx(2.0 * base)

    def test_matches_scipy_reference(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 40))
            m = int(rng.integers(1, 40))
            p = rng.normal(size=n)
            q = rng.normal(size=m)
            mine = wasserstein_1d(p, q)
            ref = stats.wasserstein_distance(p, q)
            assert mine == pytest.approx(ref, abs=1e-10)

    def test_input_checks(self):
        with pytest.raises(ValidationError):
            wasserstein_1d([], [1.0])
        with pytest.raises(ValidationError):
            wasserstein_1d([np.nan], [1.0])
        with pytest.raises(ShapeError):
            wasserstein_1d(np.ones((2, 2)), np.ones((3, 2)))
        with pytest.raises(ShapeError):
            wasserstein_1d(np.ones((2, 2)), np.ones((2, 2)))


class TestDistributionRatio:
    def test_transform_mirroring_correlations_scores_zero(self):
        c = np.array([[0.8, 0.1], [0.2, 0.6]])
        assert coefficient_distribution_ratio(c, c, 1) == 0.0

    def test_permutation_scores_one(self):
        c = np.array([[0.8, 0.1], [0.2, 0.6]])
        perm = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert coefficient_distribution_ratio(c, perm, 1) == pytest.approx(1.0)

    def test_zero_reference_distance_gives_inf(self):
        assert coefficient_distribution_ratio(np.eye(2), np.eye(2), 2) == math.inf
        assert coefficient_distribution_ratio(np.ones((2, 2)), np.eye(2), 1) == math.inf

    def test_nonnegative(self, rng):
        c = rng.uniform(0.0, 0.9, size=(6, 6))
        t = rng.normal(size=(6, 6))
        for k in (1, 2, 3):
            assert coefficient_distribution_ratio(c, t, k) >= 0.0


DIAGNOSTICS = {
    "non-optimal": lambda c, t: non_optimal_matches(
        c, Assignment(np.arange(len(c)), 0.0)
    ),
    "coverage": lambda c, t: topk_coefficient_coverage(c, t, 1, 1),
    "ratio": lambda c, t: coefficient_distribution_ratio(c, t, 1),
}


class TestMalformedMatrices:
    """A diagnostic names a bad matrix instead of answering."""

    @pytest.mark.parametrize("diagnostic", DIAGNOSTICS.values(), ids=DIAGNOSTICS)
    @pytest.mark.parametrize(
        "c, error",
        [(np.full((3, 3), np.nan), ValidationError), (np.ones((3, 4)), ShapeError)],
        ids=["nan", "3x4"],
    )
    def test_bad_correlations(self, diagnostic, c, error):
        with pytest.raises(error):
            diagnostic(c, np.eye(*c.shape))

    @pytest.mark.parametrize("name", ["coverage", "ratio"])
    @pytest.mark.parametrize(
        "t, error",
        [(np.eye(3), ShapeError), (np.full((4, 4), np.inf), ValidationError)],
        ids=["3x3", "inf"],
    )
    def test_bad_transforms(self, name, t, error):
        with pytest.raises(error):
            DIAGNOSTICS[name](np.eye(4), t)


class TestIndirectDiagnostics:
    def test_permuted_twins_are_perfectly_consistent(self, rng):
        model = random_model(4, (10, 10), 3, seed=20)
        _, b = permuted_twin(model, seed=21)
        _, c = permuted_twin(model, seed=22)
        probes = rng.normal(size=(400, 4))
        out = indirect_matching_diagnostics(model, b, c, MethodTag.PERMUTE, probes)
        assert [d.layer_index for d in out] == [0, 1]
        for d in out:
            assert d.mismatch_pct == 0.0
            assert d.frobenius == 0.0
            assert d.frobenius_normalized == 0.0

    def test_cca_on_twins_is_consistent_to_precision(self, rng):
        model = random_model(4, (10, 10), 3, seed=23)
        _, b = permuted_twin(model, seed=24)
        _, c = permuted_twin(model, seed=25)
        probes = rng.normal(size=(400, 4))
        out = indirect_matching_diagnostics(
            model, b, c, MethodTag.CCA, probes, gamma=1e-9
        )
        for d in out:
            assert d.mismatch_pct == 0.0
            assert d.frobenius < 1e-5
            assert d.frobenius_normalized < 1e-5

    def test_identity_method_rejected(self, rng):
        model = random_model(4, (6,), 3, seed=0)
        with pytest.raises(ConfigurationError):
            indirect_matching_diagnostics(
                model, model, model, MethodTag.IDENTITY, rng.normal(size=(50, 4))
            )


class TestPairDiagnosticsAndAnalyze:
    def test_structure_on_trained_pair(self, small_pair, small_task):
        train_ds, _ = small_task
        a, b = small_pair
        layers = analyze([a, b], train_ds.features[:200]).pair_layers
        assert [d.layer_index for d in layers] == [0, 1]
        for d in layers:
            assert 0.0 <= d.non_optimal_pct <= 100.0
            # width 16 keeps both configured coverage pairs
            assert [(kc, kt) for kc, kt, _ in d.coverage] == [(1, 5), (2, 10)]
            assert all(0.0 <= pct <= 100.0 for _, _, pct in d.coverage)
            assert [k for k, _ in d.wasserstein_ratios] == [1, 2]
            assert all(r >= 0.0 for _, r in d.wasserstein_ratios)

    def test_narrow_layers_drop_oversized_ks(self, rng):
        a = random_model(3, (4, 4), 2, seed=1)
        b = random_model(3, (4, 4), 2, seed=2)
        layers = analyze([a, b], rng.normal(size=(100, 3))).pair_layers
        for d in layers:
            assert [(kc, kt) for kc, kt, _ in d.coverage] == []
            assert [k for k, _ in d.wasserstein_ratios] == [1, 2]

    def test_analyze_two_models(self, small_pair, small_task):
        train_ds, _ = small_task
        a, b = small_pair
        report = analyze([a, b], train_ds.features[:200], gamma=0.01)
        assert report.num_models == 2
        assert report.indirect is None
        items = dict(report.to_items())
        assert items["report"] == "analysis"
        assert items["gamma_requested"] == 0.01
        assert "mean.non_optimal_pct" in items
        assert "layer.0.coverage.c1.t5" in items

    def test_analyze_three_models(self, small_pair, small_task):
        train_ds, _ = small_task
        a, b = small_pair
        c = random_model(train_ds.dim, a.hidden_widths, train_ds.num_classes, seed=9)
        report = analyze([a, b, c], train_ds.features[:200])
        assert set(report.indirect) == {"permute", "cca"}
        items = dict(report.to_items())
        for method in ("permute", "cca"):
            assert f"mean.{method}.mismatch_pct" in items
            assert f"mean.{method}.frobenius_normalized" in items
            assert f"layer.0.{method}.mismatch_pct" in items

    def test_analyze_wrong_count(self, small_pair, small_task):
        train_ds, _ = small_task
        a, b = small_pair
        with pytest.raises(ConfigurationError):
            analyze([a], train_ds.features[:50])
        with pytest.raises(ConfigurationError):
            analyze([a, b, a, b], train_ds.features[:50])

"""Activation capture, scatter statistics, correlation matrices."""

import numpy as np
import pytest

from fuselab import ShapeError, ValidationError, capture, correlations, scatter
from fuselab.activations import DEGENERATE_VARIANCE, ActivationMatrix, probe_matrix

from _helpers import tiny_relu_model


def _mat(values, layer_index=0):
    values = np.asarray(values, dtype=np.float64)
    mu = values.mean(axis=0)
    return ActivationMatrix(values - mu, mu, layer_index, values.shape[0])


class TestProbeMatrix:
    def test_accepts_plain_lists(self):
        x = probe_matrix([[1.0, 2.0], [3.0, 4.0]])
        assert x.dtype == np.float64

    def test_rejects_one_row(self):
        with pytest.raises(ValidationError):
            probe_matrix([[1.0, 2.0]])

    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            probe_matrix([1.0, 2.0])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            probe_matrix([[1.0, np.nan], [0.0, 1.0]])


class TestCapture:
    def test_columns_are_centered(self, rng):
        model = tiny_relu_model(
            [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            [0.5, 0.5, 0.5],
            [[1.0, 1.0, 1.0]],
            [0.0],
        )
        probes = rng.normal(size=(40, 2))
        mats = capture(model, probes)
        assert len(mats) == 1
        np.testing.assert_allclose(mats[0].values.mean(axis=0), 0.0, atol=1e-12)

    def test_means_restore_raw_activations(self, rng):
        model = tiny_relu_model(
            [[1.0, -1.0], [2.0, 0.5]], [0.0, -0.25], [[1.0, 1.0]], [0.0]
        )
        probes = rng.normal(size=(30, 2))
        mats = capture(model, probes)
        raw = np.maximum(probes @ model.layers[0].weights.T + model.layers[0].bias, 0.0)
        np.testing.assert_allclose(mats[0].values + mats[0].column_means, raw, atol=1e-12)

    def test_layer_indices_in_order(self, small_pair, small_task):
        train_ds, _ = small_task
        model_a, _ = small_pair
        mats = capture(model_a, train_ds.features[:50])
        assert [m.layer_index for m in mats] == [0, 1]
        assert all(m.m == 50 for m in mats)


class TestScatter:
    def test_products_match_numpy(self, rng):
        a = _mat(rng.normal(size=(25, 3)))
        b = _mat(rng.normal(size=(25, 3)))
        stats = scatter(a, b, gamma=0.5)
        np.testing.assert_allclose(stats.s_aa, a.values.T @ a.values, atol=1e-12)
        np.testing.assert_allclose(stats.s_bb, b.values.T @ b.values, atol=1e-12)
        np.testing.assert_allclose(stats.s_ab, a.values.T @ b.values, atol=1e-12)
        assert stats.gamma == 0.5

    def test_mismatched_rows_rejected(self, rng):
        a = _mat(rng.normal(size=(10, 3)))
        b = _mat(rng.normal(size=(11, 3)))
        with pytest.raises(ShapeError):
            scatter(a, b)

    def test_negative_gamma_rejected(self, rng):
        a = _mat(rng.normal(size=(10, 3)))
        with pytest.raises(ValidationError):
            scatter(a, a, gamma=-1e-9)

    def test_non_finite_gamma_rejected(self, rng):
        a = _mat(rng.normal(size=(10, 3)))
        for gamma in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="gamma"):
                scatter(a, a, gamma=gamma)


class TestCorrelations:
    def test_self_correlation_diagonal_is_one(self, rng):
        a = _mat(rng.normal(size=(50, 4)))
        corr = correlations(a, a)
        np.testing.assert_allclose(np.diag(corr.values), 1.0, atol=1e-12)

    def test_matches_numpy_corrcoef(self, rng):
        xa = rng.normal(size=(60, 3))
        xb = rng.normal(size=(60, 3))
        corr = correlations(_mat(xa), _mat(xb))
        full = np.corrcoef(xa, xb, rowvar=False)
        np.testing.assert_allclose(corr.values, full[:3, 3:], atol=1e-12)

    def test_values_bounded(self, rng):
        a = _mat(rng.normal(size=(40, 6)))
        b = _mat(rng.normal(size=(40, 6)))
        corr = correlations(a, b)
        assert np.all(np.abs(corr.values) <= 1.0 + 1e-12)

    def test_perfectly_linear_pair_hits_one(self, rng):
        x = rng.normal(size=(30, 1))
        a = _mat(np.hstack([x, -2.0 * x]))
        b = _mat(np.hstack([3.0 * x, x]))
        corr = correlations(a, b)
        np.testing.assert_allclose(corr.values[0, 0], 1.0, atol=1e-12)
        np.testing.assert_allclose(corr.values[1, 1], -1.0, atol=1e-12)

    def test_dead_column_masked_not_nan(self, rng):
        x = rng.normal(size=(30, 2))
        dead = np.zeros((30, 1))
        a = _mat(np.hstack([x[:, :1], dead]))
        b = _mat(x)
        corr = correlations(a, b)
        assert np.all(np.isfinite(corr.values))
        assert np.all(corr.values[1, :] == 0.0)
        assert np.all(corr.degenerate_mask[1, :])
        assert not corr.degenerate_mask[0, 0]
        assert np.var(dead) < DEGENERATE_VARIANCE

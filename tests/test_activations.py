"""Activation capture, scatter statistics, correlation matrices."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuselab import (
    DenseLayer,
    MlpModel,
    ShapeError,
    ValidationError,
    capture,
    correlations,
    scatter,
)
from fuselab import activations
from fuselab.activations import (
    DEGENERATE_VARIANCE,
    SQUARE_ROWS,
    ActivationMatrix,
    _pair,
    _pair_stats,
    _pairs_among,
    _side,
    probe_matrix,
)

from _helpers import (
    correlations_oracle,
    random_model,
    record_pair_lifetimes,
    tiny_relu_model,
)


def _mat(values, layer_index=0):
    values = np.asarray(values, dtype=np.float64)
    mu = values.mean(axis=0)
    return ActivationMatrix(values - mu, mu, layer_index, values.shape[0])


class TestProbeMatrix:
    def test_accepts_plain_lists(self):
        x = probe_matrix([[1.0, 2.0], [3.0, 4.0]], 2)
        assert x.dtype == np.float64

    def test_rejects_one_row(self):
        with pytest.raises(ValidationError):
            probe_matrix([[1.0, 2.0]], 2)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            probe_matrix([1.0, 2.0], 2)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            probe_matrix([[1.0, np.nan], [0.0, 1.0]], 2)


class TestActivationMatrix:
    @pytest.mark.parametrize("values, message", [
        ([["a"]], "^activations must be numeric"),
        ([[np.nan]], "^activations contain non-finite entries$"),
    ])
    def test_values_are_coerced_and_checked(self, values, message):
        with pytest.raises(ValidationError, match=message):
            ActivationMatrix(values, [0.0], 0, 1)


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


def _same_correlations(fast, slow):
    return (
        fast.values.tobytes() == slow.values.tobytes()
        and fast.degenerate_mask.tobytes() == slow.degenerate_mask.tobytes()
    )


@st.composite
def _blocks(draw):
    """Two activation blocks on the same rows; some columns constant."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.integers(2, 30)), draw(st.integers(1, 8))
    blocks = []
    for _ in range(2):
        x = rng.standard_normal(shape)
        x *= 10.0 ** rng.integers(-3, 4, size=x.shape[1])
        dead = rng.random(x.shape[1]) < 0.3
        x[:, dead] = rng.standard_normal(int(dead.sum()))
        blocks.append(_mat(np.maximum(x, 0.0) if draw(st.booleans()) else x))
    return blocks


@st.composite
def _column_blocks(draw):
    """One centered block from 2 rows up, its column variances spanning the
    dead-neuron threshold: constant and ReLU-zeroed columns, handed over in
    C or F order (the matrix keeps a C copy), or a real capture. Row counts cross _columns' block edges: exact
    multiples of SQUARE_ROWS, and 1- and 2-row tails."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edge = draw(st.integers(1, 3)) * SQUARE_ROWS
    rows = draw(st.one_of(
        st.just(2),
        st.integers(2, 40),
        st.sampled_from([edge - 1, edge, edge + 1, edge + 2]),
    ))
    width = draw(st.integers(1, 8))
    if draw(st.booleans()):
        model = random_model(3, (width,), 2, seed=int(rng.integers(1000)))
        return capture(model, rng.standard_normal((rows, 3)))[0]
    x = rng.standard_normal((rows, width))
    x *= 10.0 ** rng.uniform(-9, 3, size=width)
    dead = rng.random(width) < 0.3
    x[:, dead] = rng.standard_normal(int(dead.sum()))
    if draw(st.booleans()):
        x = np.maximum(x, 0.0)
    return _mat(np.asfortranarray(x) if draw(st.booleans()) else x)


class TestColumns:
    @settings(max_examples=300, deadline=None)
    @given(_column_blocks())
    def test_one_pass_matches_the_two_pass_bytes(self, mat):
        norms, dead = activations._columns(mat)
        expect = np.linalg.norm(mat.values, axis=0)
        assert norms.tobytes() == expect.tobytes()
        expect = mat.variances() < DEGENERATE_VARIANCE
        assert dead.tobytes() == expect.tobytes()


class TestPairStatistics:
    @settings(max_examples=100, deadline=None)
    @given(_blocks())
    def test_fortran_inputs_give_the_c_bytes(self, blocks):
        # a matrix built from F-order values keeps a C copy, so its
        # statistics are its C twin's, byte for byte
        fortran = [ActivationMatrix(np.asfortranarray(x.values), x.column_means,
                                    x.layer_index, x.m) for x in blocks]
        assert _same_correlations(correlations(*fortran), correlations(*blocks))
        got, expect = scatter(*fortran), scatter(*blocks)
        for name in ("s_aa", "s_bb", "s_ab"):
            assert getattr(got, name).tobytes() == getattr(expect, name).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(_blocks())
    def test_correlations_match_the_oracle_bytes(self, blocks):
        a, b = blocks
        pair = _pair(_side(None, [a]), [a], _side(None, [b]), [b])
        expect = correlations_oracle(a, b)
        assert _same_correlations(pair.correlations()[0], expect)
        assert _same_correlations(correlations(a, b), expect)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_captured_pairs_match_the_oracle_bytes(self, seed, dead_bias):
        # negative biases kill ReLU neurons on every probe: dead columns
        rng = np.random.default_rng(seed)
        models = [random_model(5, (7, 6), 3, seed=int(s))
                  for s in rng.integers(2**31, size=3)]
        if dead_bias:
            first = models[1].layers[0]
            bias = first.bias - 50.0 * (rng.random(first.bias.size) < 0.5)
            layers = (DenseLayer(first.weights, bias, first.activation),
                      *models[1].layers[1:])
            models[1] = MlpModel(layers, models[1].input_dim)
        probes = rng.standard_normal((int(rng.integers(2, 40)), 5))
        acts = [capture(m, probes) for m in models]
        streamed = list(_pair_stats(models, 0, probes))
        among = _pairs_among(models, probes, ((0, 1), (0, 2), (1, 2)))
        for pair, (i, j) in zip(streamed + among[2:], ((0, 1), (0, 2), (1, 2))):
            for k, corr in enumerate(pair.correlations()):
                expect = correlations_oracle(acts[i][k], acts[j][k])
                assert _same_correlations(corr, expect)
        for fast, slow in zip(among, streamed):
            assert all(
                x.values.tobytes() == y.values.tobytes()
                for x, y in zip(fast.correlations(), slow.correlations())
            )

    def test_reference_side_is_shared(self):
        models = [random_model(4, (5,), 2, seed=s) for s in range(3)]
        probes = np.random.default_rng(0).standard_normal((20, 4))
        first, second = _pair_stats(models, 0, probes)
        assert first.a is second.a
        assert (first.b.model, second.b.model) == (models[1], models[2])

    def test_stream_drops_every_capture_by_its_last_pair(self, monkeypatch):
        # a merge takes as many pairs as it has partners and never runs the
        # stream to its end, so the stream must not hold the reference's
        # capture once the last pair is out
        models = [random_model(4, (5, 3), 2, seed=s) for s in range(3)]
        probes = np.random.default_rng(0).standard_normal((20, 4))
        refs = []

        def recording(model, probes):
            acts = capture(model, probes)
            refs.append([weakref.ref(x.values) for x in acts])
            return acts

        monkeypatch.setattr(activations, "capture", recording)
        stream = _pair_stats(models, 0, probes)
        pairs = [next(stream) for _ in models[1:]]
        gc.collect()
        assert len(refs) == len(models)
        assert [[r() is None for r in layer] for layer in refs] == [
            [True, True]
        ] * len(models)
        assert [p.b.model for p in pairs] == models[1:]
        assert next(stream, None) is None

    def test_stream_lets_each_pair_go_before_the_next_capture(
        self, monkeypatch
    ):
        # a consumer that drops a pair before asking for the next one never
        # holds two partners' statistics at once
        models = [random_model(4, (5, 3), 2, seed=s) for s in range(4)]
        probes = np.random.default_rng(0).standard_normal((20, 4))
        alive = record_pair_lifetimes(monkeypatch)
        stream = _pair_stats(models, 0, probes)
        for _ in models[1:]:
            assert next(stream).b.model is not None
        assert alive == [0] * len(models)


class TestPairChecks:
    @pytest.mark.parametrize("pair_fn", [scatter, correlations])
    @pytest.mark.parametrize(
        "rows, width, layer, message",
        [
            (11, 3, 0, "probe counts differ: 10 != 11"),
            (10, 4, 0, "widths differ: 3 != 4"),
            (10, 3, 1, "layer indices differ: 0 != 1"),
        ],
    )
    def test_public_pair_functions(self, rng, pair_fn, rows, width, layer,
                                   message):
        a = _mat(rng.normal(size=(10, 3)))
        b = _mat(rng.normal(size=(rows, width)), layer_index=layer)
        with pytest.raises(ShapeError, match=message):
            pair_fn(a, b)

    def test_builder_rejects_a_width_mismatch(self, rng):
        a = random_model(4, (5, 6), 2, seed=0)
        b = random_model(4, (5, 7), 2, seed=1)
        probes = rng.normal(size=(20, 4))
        with pytest.raises(ShapeError, match="widths differ: 6 != 7"):
            next(_pair_stats([a, b], 0, probes))
        with pytest.raises(ShapeError, match="widths differ: 6 != 7"):
            _pairs_among([a, b], probes, ((0, 1),))

    def test_builder_rejects_a_hidden_layer_count_mismatch(self, rng):
        # zipping the captures would drop the deeper model's extra layers
        a = random_model(4, (5, 5), 2, seed=0)
        b = random_model(4, (5, 5, 5), 2, seed=1)
        probes = rng.normal(size=(20, 4))
        with pytest.raises(ShapeError, match="hidden layer counts differ: 2 != 3"):
            next(_pair_stats([a, b], 0, probes))
        with pytest.raises(ShapeError, match="hidden layer counts differ: 3 != 2"):
            _pairs_among([a, b], probes, ((1, 0),))

    def test_builder_rejects_a_layer_index_mismatch(self, rng):
        model = random_model(4, (5, 5), 2, seed=0)
        acts = capture(model, rng.normal(size=(20, 4)))
        side = _side(model, acts)
        with pytest.raises(ShapeError, match="layer indices differ: 0 != 1"):
            _pair(side, acts[:1], side, acts[1:])

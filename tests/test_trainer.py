"""SGD trainer, loss and accuracy evaluation, seed handling."""

import warnings

import numpy as np
import pytest

from fuselab import (
    Activation,
    ConfigurationError,
    DenseLayer,
    MlpModel,
    ShapeError,
    TrainConfig,
    TrainingDivergedError,
    ValidationError,
    cross_entropy_accuracy,
    forward,
    generate,
    init_model,
    seeds_for,
    train,
)
from fuselab.trainer import SHUFFLE_SEED_OFFSET, _log_softmax


class TestInitModel:
    def test_shapes_match_request(self):
        model = init_model(4, (5, 7), 3, init_seed=0)
        assert model.hidden_widths == (5, 7)
        assert model.layers[0].weights.shape == (5, 4)
        assert model.layers[1].weights.shape == (7, 5)
        assert model.layers[2].weights.shape == (3, 7)

    def test_biases_start_at_zero(self):
        model = init_model(4, (6,), 3, init_seed=0)
        for layer in model.layers:
            assert np.all(layer.bias == 0.0)

    def test_fan_in_bound(self):
        model = init_model(100, (50,), 10, init_seed=3)
        assert np.max(np.abs(model.layers[0].weights)) <= 1.0 / np.sqrt(100)
        assert np.max(np.abs(model.layers[1].weights)) <= 1.0 / np.sqrt(50)

    def test_deterministic_in_seed(self):
        a = init_model(4, (6,), 3, init_seed=9)
        b = init_model(4, (6,), 3, init_seed=9)
        c = init_model(4, (6,), 3, init_seed=10)
        np.testing.assert_array_equal(a.layers[0].weights, b.layers[0].weights)
        assert not np.array_equal(a.layers[0].weights, c.layers[0].weights)

    def test_seed_tag_stored(self):
        model = init_model(2, (3,), 2, init_seed=0, seed_tag="fresh")
        assert model.seed_tag == "fresh"


class TestSeedsFor:
    def test_offset(self):
        init, shuffle = seeds_for(12)
        assert init == 12
        assert shuffle == 12 + SHUFFLE_SEED_OFFSET

    def test_distinct_models_get_distinct_streams(self):
        assert seeds_for(0) != seeds_for(1)


class TestEvaluation:
    def test_softmax_rows_sum_to_one(self, rng):
        logits = rng.normal(size=(10, 4))
        probs = np.exp(_log_softmax(logits))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs > 0)

    def test_softmax_shift_invariant(self, rng):
        logits = rng.normal(size=(5, 3))
        np.testing.assert_allclose(
            _log_softmax(logits), _log_softmax(logits + 1000.0), atol=1e-12
        )

    def test_known_loss_for_uniform_logits(self):
        # zero logits give uniform probabilities, so the cross entropy is
        # log(k) regardless of the labels
        ds = generate(4, 10, 3, seed=0)
        zeroed = MlpModel(
            (
                DenseLayer(np.zeros((6, 3)), np.zeros(6), Activation.RELU),
                DenseLayer(np.zeros((4, 6)), np.zeros(4), Activation.IDENTITY),
            ),
            input_dim=3,
        )
        loss, _ = cross_entropy_accuracy(zeroed, ds)
        np.testing.assert_allclose(loss, np.log(4.0), atol=1e-12)

    def test_accuracy_counts_argmax_matches(self):
        ds = generate(2, 40, 2, seed=1)
        model = init_model(2, (4,), 2, init_seed=1)
        _, acc = cross_entropy_accuracy(model, ds)
        logits = forward(model, ds.features)
        expect = float(np.mean(np.argmax(logits, axis=1) == ds.labels))
        assert acc == expect

    def test_class_count_mismatch_rejected(self):
        ds = generate(16, 3, 2, seed=1)
        model = init_model(2, (4,), 4, init_seed=1)
        with pytest.raises(ShapeError, match="4 output classes.*has 16"):
            cross_entropy_accuracy(model, ds)

    def test_empty_dataset_rejected(self):
        ds = generate(2, 3, 2, seed=1).subset([])
        model = init_model(2, (4,), 2, init_seed=1)
        with pytest.raises(ValidationError, match="no rows"):
            cross_entropy_accuracy(model, ds)


class TestTrain:
    def test_training_reduces_loss(self, small_task):
        train_ds, _ = small_task
        cfg = TrainConfig(hidden_widths=(16,), epochs=5, init_seed=0, shuffle_seed=1)
        start = init_model(train_ds.dim, cfg.hidden_widths, train_ds.num_classes, 0)
        loss0, _ = cross_entropy_accuracy(start, train_ds)
        model = train(train_ds, cfg)
        loss1, acc1 = cross_entropy_accuracy(model, train_ds)
        assert loss1 < loss0
        assert acc1 > 0.5

    def test_zero_epochs_returns_the_init(self, small_task):
        train_ds, _ = small_task
        cfg = TrainConfig(hidden_widths=(8,), epochs=0, init_seed=6, shuffle_seed=1)
        model = train(train_ds, cfg)
        fresh = init_model(train_ds.dim, (8,), train_ds.num_classes, 6)
        for la, lb in zip(model.layers, fresh.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_deterministic(self, small_task):
        train_ds, _ = small_task
        cfg = TrainConfig(hidden_widths=(8,), epochs=3, init_seed=4, shuffle_seed=40)
        a = train(train_ds, cfg)
        b = train(train_ds, cfg)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)

    def test_shuffle_seed_matters(self, small_task):
        train_ds, _ = small_task
        a = train(
            train_ds,
            TrainConfig(hidden_widths=(8,), epochs=3, init_seed=4, shuffle_seed=40),
        )
        b = train(
            train_ds,
            TrainConfig(hidden_widths=(8,), epochs=3, init_seed=4, shuffle_seed=41),
        )
        assert not np.array_equal(a.layers[0].weights, b.layers[0].weights)

    def test_seed_tag_records_seeds(self, small_task):
        train_ds, _ = small_task
        model = train(
            train_ds,
            TrainConfig(hidden_widths=(8,), epochs=1, init_seed=2, shuffle_seed=7),
        )
        assert model.seed_tag == "init2.shuf7"

    def test_divergence_raises(self, small_task):
        train_ds, _ = small_task
        cfg = TrainConfig(
            hidden_widths=(8,),
            epochs=2,
            learning_rate=1e12,
            init_seed=0,
            shuffle_seed=1,
        )
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as info:
            train(train_ds, cfg)
        assert info.value.epoch >= 0
        assert info.value.batch >= 0

    def test_divergence_raises_without_numpy_warnings(self, small_task):
        # no errstate around the call: the named error is the only signal
        train_ds, _ = small_task
        cfg = TrainConfig(hidden_widths=(8,), epochs=2, learning_rate=1e12)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TrainingDivergedError):
                train(train_ds, cfg)

    def test_last_step_divergence_raises(self):
        # every batch loss is finite, but the model the last step leaves
        # behind has a non-finite training loss
        ds = generate(4, 10, 4, seed=0)
        cfg = TrainConfig(epochs=3, learning_rate=1e6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TrainingDivergedError) as info:
                train(ds, cfg)
        assert (info.value.epoch, info.value.batch) == (3, 0)
        assert "after epoch 2" in str(info.value)

    @pytest.mark.parametrize("field", ["init_seed", "shuffle_seed"])
    def test_negative_seed_is_named(self, field):
        with pytest.raises(ConfigurationError, match=f"^{field} must be >= 0"):
            TrainConfig(**{field: -1})

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(hidden_widths=())
        with pytest.raises(ConfigurationError):
            TrainConfig(hidden_widths=(0,))
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=-1)
        with pytest.raises(ConfigurationError):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize("lr", [-0.5, 0.0, float("nan"), float("inf")])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ConfigurationError, match="learning_rate"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("momentum", [5.0, 1.0, -0.1, float("nan")])
    def test_momentum_must_be_below_one(self, momentum):
        with pytest.raises(ConfigurationError, match="momentum"):
            TrainConfig(momentum=momentum)

    def test_step_size_edges_accepted(self):
        TrainConfig(learning_rate=1e-9, momentum=0.0)
        TrainConfig(learning_rate=1e12, momentum=0.999)

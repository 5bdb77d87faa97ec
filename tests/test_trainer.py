"""SGD trainer, loss and accuracy evaluation, seed handling."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuselab import (
    Activation,
    ConfigurationError,
    DenseLayer,
    FuselabError,
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
    train_many,
)
from fuselab import model as model_module
from fuselab import trainer
from fuselab.model import _openblas
from fuselab.trainer import SHUFFLE_SEED_OFFSET, _log_softmax
from _helpers import model_bytes


# the serial loop train_many replaced, kept as the oracle for its bytes and
# its divergence errors
@np.errstate(over="ignore", invalid="ignore")
def serial_train(ds, cfg):
    model = init_model(
        ds.dim,
        cfg.hidden_widths,
        ds.num_classes,
        cfg.init_seed,
        seed_tag=f"init{cfg.init_seed}.shuf{cfg.shuffle_seed}",
    )
    weights = [layer.weights.copy() for layer in model.layers]
    biases = [layer.bias.copy() for layer in model.layers]
    acts = [layer.activation for layer in model.layers]
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    n_layers = len(weights)

    shuffle_rng = np.random.default_rng(int(cfg.shuffle_seed))
    onehot = np.eye(ds.num_classes)
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(ds.m)
        for batch_no, start in enumerate(range(0, ds.m, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            x = ds.features[idx]
            y = ds.labels[idx]

            pre = []
            post = [x]
            h = x
            for i in range(n_layers):
                z = h @ weights[i].T + biases[i]
                pre.append(z)
                h = acts[i].apply(z)
                post.append(h)

            logp = _log_softmax(pre[-1])
            loss = -logp[np.arange(idx.size), y].mean()
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, batch_no)

            delta = (np.exp(logp) - onehot[y]) / idx.size
            for i in range(n_layers - 1, -1, -1):
                gw = delta.T @ post[i]
                gb = delta.sum(axis=0)
                if i > 0:
                    delta = (delta @ weights[i]) * (pre[i - 1] > 0)
                vel_w[i] = cfg.momentum * vel_w[i] - cfg.learning_rate * gw
                vel_b[i] = cfg.momentum * vel_b[i] - cfg.learning_rate * gb
                weights[i] += vel_w[i]
                biases[i] += vel_b[i]

    layers = tuple(
        DenseLayer(w, b, a) for w, b, a in zip(weights, biases, acts)
    )
    model = MlpModel(layers, ds.dim, model.seed_tag)
    if ds.m and not np.isfinite(cross_entropy_accuracy(model, ds)[0]):
        raise TrainingDivergedError(
            cfg.epochs, 0,
            f"non-finite training loss after epoch {cfg.epochs - 1}",
        )
    return model


def serial_outcome(ds, cfgs):
    """(model bytes and tags) of serial training, or (the model_index a pool
    should name, error) for the first config whose training raises."""
    trained = []
    for k, cfg in enumerate(cfgs):
        try:
            trained.append(serial_train(ds, cfg))
        except FuselabError as exc:
            named = len(cfgs) > 1 and isinstance(exc, TrainingDivergedError)
            return (k if named else None), exc
    return [(model_bytes(m), m.seed_tag) for m in trained]


def pool_outcome(ds, cfgs):
    try:
        models = train_many(ds, cfgs)
    except FuselabError as exc:
        return getattr(exc, "model_index", None), exc
    return [(model_bytes(m), m.seed_tag) for m in models]


def same_outcome(got, expect):
    if isinstance(expect, list):
        assert got == expect
        return
    assert not isinstance(got, list), f"expected {expect[1]!r}"
    (k_got, got), (k_expect, expect) = got, expect
    assert type(got) is type(expect)
    assert k_got == k_expect
    if isinstance(expect, TrainingDivergedError):
        assert (got.epoch, got.batch) == (expect.epoch, expect.batch)


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
    def test_empty_training_set_rejected(self):
        ds = generate(2, 3, 2, seed=1).subset([])
        with pytest.raises(ValidationError, match="^training set has no rows$"):
            train(ds, TrainConfig(hidden_widths=(4,), epochs=1))

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

    @pytest.mark.parametrize(
        "field, value, name",
        [("epochs", 2.5, "epochs"), ("batch_size", 1.5, "batch_size"),
         ("hidden_widths", (4, 2.5), "hidden width"),
         ("init_seed", 1.5, "init_seed"), ("shuffle_seed", 2.0, "shuffle_seed")],
    )
    def test_non_integer_count_is_named(self, field, value, name):
        with pytest.raises(ConfigurationError,
                           match=f"^{name} must be an integer, got"):
            TrainConfig(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = TrainConfig(hidden_widths=(np.int32(3),), epochs=np.int64(2),
                          batch_size=np.uint8(4), init_seed=np.int64(1))
        assert cfg.hidden_widths == (3,) and type(cfg.hidden_widths[0]) is int

    def test_unsigned_batch_size_trains_like_an_int(self):
        # start + np.uint8(4) would wrap, or overflow, past 255 rows
        ds = generate(4, 70, 3, seed=0)
        a, b = (train(ds, TrainConfig(hidden_widths=(4,), epochs=1, batch_size=bs))
                for bs in (np.uint8(4), 4))
        assert model_bytes(a) == model_bytes(b)

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


def pool_configs(n, seed, **shared):
    return [
        TrainConfig(init_seed=seed + k, shuffle_seed=seed + 7 * k + 1, **shared)
        for k in range(n)
    ]


class TestTrainMany:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 5),
        widths=st.lists(st.integers(1, 9), min_size=1, max_size=3),
        rows=st.integers(2, 30),
        batch=st.sampled_from(["one", "short-by-one", "any"]),
        any_batch=st.integers(1, 40),
        epochs=st.integers(0, 3),
        momentum=st.sampled_from([0.0, 0.9]),
        seed=st.integers(0, 1000),
    )
    def test_models_match_the_serial_oracle(
        self, n, widths, rows, batch, any_batch, epochs, momentum, seed
    ):
        # "short-by-one" leaves a 1-row last batch
        batch_size = {"one": 1, "short-by-one": max(rows - 1, 1),
                      "any": any_batch}[batch]
        ds = generate(3, 10, 4, seed=seed).subset(np.arange(rows))
        cfgs = pool_configs(n, seed, hidden_widths=tuple(widths),
                            epochs=epochs, batch_size=batch_size,
                            momentum=momentum)
        expect = serial_outcome(ds, cfgs)
        assert pool_outcome(ds, cfgs) == expect
        assert [(model_bytes(m), m.seed_tag)
                for m in map(train, [ds] * n, cfgs)] == expect

    # about a quarter of these pools mix diverging and healthy models
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 4),
        widths=st.sampled_from([(32, 32), (64, 64)]),
        learning_rate=st.sampled_from([1e2, 1e3, 1e4, 1e6]),
        epochs=st.integers(1, 3),
        batch_size=st.sampled_from([8, 13]),
        seed=st.integers(0, 50),
    )
    def test_divergence_matches_the_serial_oracle(
        self, n, widths, learning_rate, epochs, batch_size, seed
    ):
        # no errstate here: a numpy warning from a model that has already
        # diverged would fail the test
        ds = generate(4, 10, 4, seed=0)
        cfgs = pool_configs(n, seed, hidden_widths=widths, epochs=epochs,
                            batch_size=batch_size, learning_rate=learning_rate)
        same_outcome(pool_outcome(ds, cfgs), serial_outcome(ds, cfgs))

    @pytest.mark.parametrize(
        "seeds, expect",
        [
            # model 1 diverges at (1, 0), before model 0 does at (1, 1)
            ((0, 3), (0, 1, 1)),
            # model 0 never diverges; model 1 does at (1, 1)
            ((1, 0), (1, 1, 1)),
        ],
    )
    def test_first_model_in_order_names_the_divergence(self, seeds, expect):
        ds = generate(4, 10, 4, seed=0)
        widths = (64, 64) if seeds == (0, 3) else (16, 16)
        cfgs = [TrainConfig(hidden_widths=widths, epochs=3, batch_size=8,
                            learning_rate=1e6, init_seed=s, shuffle_seed=s + 7)
                for s in seeds]
        with pytest.raises(TrainingDivergedError) as info:
            train_many(ds, cfgs)
        err = info.value
        assert (err.model_index, err.epoch, err.batch) == expect
        k = expect[0]
        tag = f"init{seeds[k]}.shuf{seeds[k] + 7}"
        assert str(err).startswith(f"model {k} ({tag}): non-finite loss")
        same_outcome(pool_outcome(ds, cfgs), serial_outcome(ds, cfgs))

    def test_single_model_error_is_not_named(self):
        ds = generate(4, 10, 4, seed=0)
        with pytest.raises(TrainingDivergedError) as info:
            train_many(ds, [TrainConfig(epochs=3, learning_rate=1e6)])
        assert info.value.model_index is None
        assert str(info.value) == "non-finite training loss after epoch 2"

    @pytest.mark.parametrize(
        "field, value",
        [("hidden_widths", (8,)), ("epochs", 2), ("batch_size", 5),
         ("learning_rate", 0.1), ("momentum", 0.5)],
    )
    def test_shared_fields_must_agree(self, small_task, field, value):
        base = TrainConfig(hidden_widths=(4,), epochs=1)
        # the seeds may differ; a later field differing too is not named
        changes = {"init_seed": 5, "shuffle_seed": 6, "momentum": 0.1}
        other = dataclasses.replace(base, **{**changes, field: value})
        with pytest.raises(ConfigurationError,
                           match=f"^pooled configs differ in {field}$"):
            train_many(small_task[0], [base, base, other])

    def test_empty_pool_rejected(self, small_task):
        with pytest.raises(ConfigurationError, match="at least one config"):
            train_many(small_task[0], [])


@pytest.fixture
def blas_threads():
    """The getter of the bundled OpenBLAS's thread count, or None when it is
    not found. The count is set to 2 for the test, a count the SGD loop's
    pin must change and then restore."""
    lib = _openblas()
    if lib is None:
        yield None
        return
    get, set_ = (lib.scipy_openblas_get_num_threads64_,
                 lib.scipy_openblas_set_num_threads64_)
    before = get()
    set_(2)
    yield get
    set_(before)


class TestOneBlasThread:
    @pytest.mark.usefixtures("blas_threads")
    @pytest.mark.parametrize("n", [1, 3])
    def test_models_do_not_depend_on_the_pin(self, monkeypatch, n):
        # (128, 128) at batch 32 is wide enough for OpenBLAS to thread
        ds = generate(16, 125, 32, seed=0)
        cfgs = pool_configs(n, 5, hidden_widths=(128, 128), epochs=2,
                            batch_size=32)
        pinned = [model_bytes(m) for m in train_many(ds, cfgs)]
        monkeypatch.setattr(model_module, "_openblas", lambda: None)
        assert [model_bytes(m) for m in train_many(ds, cfgs)] == pinned

    def test_loop_runs_on_one_thread_and_restores_the_count(
        self, blas_threads, monkeypatch
    ):
        if blas_threads is None:
            pytest.skip("numpy's bundled OpenBLAS was not found")
        seen = []

        def spy(logits):
            seen.append(blas_threads())
            return _log_softmax(logits)

        monkeypatch.setattr(trainer, "_log_softmax", spy)
        ds = generate(4, 10, 4, seed=0)  # 40 rows: 2 batches of 32
        train(ds, TrainConfig(hidden_widths=(8,), epochs=1))
        # the loop's batches on one thread, the final score on the caller's
        assert seen == [1, 1, 2]
        assert blas_threads() == 2
        train_many(ds, pool_configs(3, 0, hidden_widths=(8,), epochs=1))
        assert blas_threads() == 2

    @pytest.mark.parametrize("seeds", [(0,), (0, 3)])
    def test_count_is_restored_when_the_loop_raises(self, blas_threads,
                                                    seeds):
        if blas_threads is None:
            pytest.skip("numpy's bundled OpenBLAS was not found")
        ds = generate(4, 10, 4, seed=0)
        cfgs = [TrainConfig(hidden_widths=(64, 64), epochs=3, batch_size=8,
                            learning_rate=1e6, init_seed=s, shuffle_seed=s + 7)
                for s in seeds]
        with pytest.raises(TrainingDivergedError) as info:
            train_many(ds, cfgs)
        assert (info.value.epoch, info.value.batch) == (1, 1)  # mid-loop
        assert blas_threads() == 2

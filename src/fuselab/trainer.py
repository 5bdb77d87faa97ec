"""Mini-batch SGD training for the ReLU MLPs, all in float64 numpy.

Determinism is the contract here: the init stream and the epoch-shuffle
stream are separate generators seeded independently, every reduction is a
plain numpy sum, and the same (dataset, config) pair always yields the same
model bit for bit, whether it trains alone or in a lockstep pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    ShapeError,
    TrainingDivergedError,
    ValidationError,
)
from .model import Activation, DenseLayer, MlpModel, _check_number, forward

DEFAULT_HIDDEN_WIDTHS = (64, 64)
DEFAULT_EPOCHS = 30
DEFAULT_BATCH_SIZE = 32
DEFAULT_LEARNING_RATE = 0.05
DEFAULT_MOMENTUM = 0.9

# experiment-level convention: one user seed s gives init_seed = s and
# shuffle_seed = s + SHUFFLE_SEED_OFFSET, so sibling models differ in both
SHUFFLE_SEED_OFFSET = 1000003


@dataclass(frozen=True)
class TrainConfig:
    hidden_widths: tuple = DEFAULT_HIDDEN_WIDTHS
    epochs: int = DEFAULT_EPOCHS
    batch_size: int = DEFAULT_BATCH_SIZE
    learning_rate: float = DEFAULT_LEARNING_RATE
    momentum: float = DEFAULT_MOMENTUM
    init_seed: int = 0
    shuffle_seed: int = SHUFFLE_SEED_OFFSET

    def __post_init__(self):
        # numpy's generators take only non-negative integer seeds; counts
        # are kept as Python ints, as a numpy uint8 would wrap in training
        for name, low in (("init_seed", 0), ("shuffle_seed", 0), ("epochs", 0),
                          ("batch_size", 1)):
            value = _check_number(name, getattr(self, name), low)
            object.__setattr__(self, name, value)
        _check_number("learning_rate", self.learning_rate, 0, real=True,
                      above=True)
        _check_number("momentum", self.momentum, 0, 1, real=True)
        object.__setattr__(self, "hidden_widths", _widths(self.hidden_widths))


def _widths(hidden_widths):
    """hidden_widths as a tuple of Python ints, each checked."""
    if not isinstance(hidden_widths, (tuple, list)) or not hidden_widths:
        raise ConfigurationError(
            f"hidden widths must be a non-empty tuple, got {hidden_widths!r}"
        )
    return tuple(_check_number("hidden width", w, 1) for w in hidden_widths)


def seeds_for(seed):
    """(init_seed, shuffle_seed) derived from one user-facing seed."""
    return int(seed), int(seed) + SHUFFLE_SEED_OFFSET


def init_model(input_dim, hidden_widths, num_classes, init_seed, seed_tag=None):
    """Uniform +-1/sqrt(fan_in) weights, zero biases."""
    rng = np.random.default_rng(_check_number("init_seed", init_seed, 0))
    dims = [_check_number("input_dim", input_dim, 1), *_widths(hidden_widths),
            _check_number("num_classes", num_classes, 1)]
    layers = []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        b = np.zeros(fan_out)
        act = Activation.RELU if i < len(dims) - 2 else Activation.IDENTITY
        layers.append(DenseLayer(w, b, act))
    return MlpModel(tuple(layers), dims[0], seed_tag)


def _log_softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _check_scorable(model, ds):
    if ds.m == 0:
        raise ValidationError("dataset has no rows")
    if model.out_dim != ds.num_classes:
        raise ShapeError(
            f"model has {model.out_dim} output classes but the dataset "
            f"has {ds.num_classes}"
        )


def cross_entropy_accuracy(model, ds):
    """(mean cross-entropy, accuracy) on a dataset; prediction ties resolve
    toward the lowest class index (argmax)."""
    _check_scorable(model, ds)
    return _scores(forward(model, ds.features), ds.labels)


def _scores(logits, labels):
    """cross_entropy_accuracy of logits already computed."""
    logp = _log_softmax(logits)
    loss = float(-logp[np.arange(labels.size), labels].mean())
    return loss, float((logits.argmax(axis=1) == labels).mean())


def _check_rows(ds):
    if ds.m == 0:
        raise ValidationError("training set has no rows")


# a diverging run is caught by its non-finite loss, not by numpy's warnings
@np.errstate(over="ignore", invalid="ignore")
def train_scored(ds, cfgs):
    """train_many's models as (model, cross_entropy_accuracy on ds) pairs."""
    if not cfgs:
        raise ConfigurationError("train_many needs at least one config")
    _check_rows(ds)
    cfg = cfgs[0]
    for field in ("hidden_widths", "epochs", "batch_size", "learning_rate",
                  "momentum"):
        if any(getattr(c, field) != getattr(cfg, field) for c in cfgs):
            raise ConfigurationError(f"pooled configs differ in {field}")
    tags = [f"init{c.init_seed}.shuf{c.shuffle_seed}" for c in cfgs]
    # a divergence names its model only when there are several
    who = [{"model_index": k, "seed_tag": tag} if len(cfgs) > 1 else {}
           for k, tag in enumerate(tags)]
    inits = [init_model(ds.dim, cfg.hidden_widths, ds.num_classes, c.init_seed)
             for c in cfgs]
    # one flat buffer holds every parameter of the pool, so one momentum step
    # covers all layers; model k's layer i is weights[i][k], biases[i][k, 0]
    shapes = [(len(cfgs), *layer.weights.shape) for layer in inits[0].layers]
    shapes += [(len(cfgs), 1, shape[1]) for shape in shapes]
    ends = np.cumsum([np.prod(shape) for shape in shapes])
    params, grads, velocity = np.zeros((3, ends[-1]))
    views, grad_views = (
        [v.reshape(s) for v, s in zip(np.split(flat, ends[:-1]), shapes)]
        for flat in (params, grads)
    )
    n_layers = len(shapes) // 2
    weights, biases = views[:n_layers], views[n_layers:]
    for k, model in enumerate(inits):
        for i, layer in enumerate(model.layers):
            weights[i][k], biases[i][k] = layer.weights, layer.bias

    rngs = [np.random.default_rng(int(c.shuffle_seed)) for c in cfgs]
    pool = np.arange(len(cfgs))[:, None]
    failed = {}
    for epoch in range(cfg.epochs):
        order = np.stack([rng.permutation(ds.m) for rng in rngs])
        for batch_no, start in enumerate(range(0, ds.m, cfg.batch_size)):
            idx = order[:, start : start + cfg.batch_size]
            n = idx.shape[1]
            picked = (pool, np.arange(n), ds.labels[idx])
            # post[i] is layer i's input; ReLU keeps post > 0 where pre > 0
            post = [ds.features[idx]]
            for i in range(n_layers):
                z = post[i] @ weights[i].transpose(0, 2, 1)
                z += biases[i]
                post.append(np.maximum(z, 0.0, out=z) if i < n_layers - 1 else z)

            logp = _log_softmax(post.pop())
            # a sum is finite exactly when the mean is
            finite = np.isfinite(np.add.reduce(logp[picked], axis=1))
            if not finite[0]:
                raise TrainingDivergedError(epoch, batch_no, **who[0])
            for k in np.flatnonzero(~finite):
                failed.setdefault(k, (epoch, batch_no))

            # (softmax - onehot) / n, built in place
            delta = np.exp(logp)
            delta[picked] -= 1.0
            delta /= n
            for i in range(n_layers - 1, -1, -1):
                np.matmul(delta.transpose(0, 2, 1), post[i], out=grad_views[i])
                np.add.reduce(delta, axis=1, keepdims=True,
                              out=grad_views[n_layers + i])
                if i > 0:
                    delta = delta @ weights[i]
                    delta *= post[i] > 0
            # every gradient was taken at the old parameters
            velocity *= cfg.momentum
            grads *= cfg.learning_rate
            velocity -= grads
            params += velocity

    trained = []
    for k, init in enumerate(inits):
        if k in failed:
            raise TrainingDivergedError(*failed[k], **who[k])
        model = MlpModel(tuple(
            DenseLayer(w[k], b[k, 0], layer.activation)
            for w, b, layer in zip(weights, biases, init.layers)
        ), ds.dim, tags[k])
        scores = cross_entropy_accuracy(model, ds)
        # the last step's loss is never checked inside the loop
        if not np.isfinite(scores[0]):
            raise TrainingDivergedError(cfg.epochs, 0, "non-finite training "
                                        f"loss after epoch {cfg.epochs - 1}",
                                        **who[k])
        trained.append((model, scores))
    return trained


def train_many(ds, cfgs):
    """Models trained from cfgs in one lockstep SGD loop, each bit-identical
    to train(ds, cfg). The configs must share every field but the seeds;
    divergence raises what training them one by one, in order, would."""
    return [model for model, _ in train_scored(ds, cfgs)]


def train(ds, cfg):
    """SGD with momentum on softmax cross-entropy; returns the final model."""
    return train_many(ds, [cfg])[0]

"""Mini-batch SGD training for the ReLU MLPs, all in float64 numpy.

Determinism is the contract here: the init stream and the epoch-shuffle
stream are separate generators seeded independently, every reduction is a
plain numpy sum, and the same (dataset, config) pair always yields the same
model bit for bit.
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
from .model import Activation, DenseLayer, MlpModel, forward

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
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigurationError("epochs must be >= 0, batch_size >= 1")
        if not self.hidden_widths or any(w < 1 for w in self.hidden_widths):
            raise ConfigurationError("hidden widths must be positive")
        object.__setattr__(
            self, "hidden_widths", tuple(int(w) for w in self.hidden_widths)
        )


def seeds_for(seed):
    """(init_seed, shuffle_seed) derived from one user-facing seed."""
    return int(seed), int(seed) + SHUFFLE_SEED_OFFSET


def init_model(input_dim, hidden_widths, num_classes, init_seed, seed_tag=None):
    """Uniform +-1/sqrt(fan_in) weights, zero biases."""
    rng = np.random.default_rng(int(init_seed))
    dims = [input_dim, *hidden_widths, num_classes]
    layers = []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        b = np.zeros(fan_out)
        act = Activation.RELU if i < len(dims) - 2 else Activation.IDENTITY
        layers.append(DenseLayer(w, b, act))
    return MlpModel(tuple(layers), input_dim, seed_tag)


def _log_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def softmax(logits):
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def _check_scorable(model, ds):
    if ds.m == 0:
        raise ValidationError("dataset has no rows")
    if model.out_dim != ds.num_classes:
        raise ShapeError(
            f"model has {model.out_dim} output classes but the dataset "
            f"has {ds.num_classes}"
        )


def cross_entropy_accuracy(model, ds):
    """(mean cross-entropy, accuracy) on a dataset.

    Prediction ties resolve toward the lowest class index (argmax).
    """
    _check_scorable(model, ds)
    logits = forward(model, ds.features)
    logp = _log_softmax(logits)
    loss = float(-logp[np.arange(ds.m), ds.labels].mean())
    acc = float((logits.argmax(axis=1) == ds.labels).mean())
    return loss, acc


def train(ds, cfg):
    """SGD with momentum on softmax cross-entropy; returns the final model."""
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
    return MlpModel(layers, ds.dim, model.seed_tag)

"""Shared builders for the test suite."""

import importlib
import pkgutil
from collections import Counter

import numpy as np
from hypothesis import strategies as st

import fuselab
from fuselab import (
    Activation,
    AlignmentPlan,
    DenseLayer,
    LayerTransform,
    MethodTag,
    MlpModel,
    apply_plan,
    init_model,
)
from fuselab.activations import DEGENERATE_VARIANCE, CorrelationMatrix


def assert_models_allclose(a, b, atol=0.0, rtol=0.0):
    assert a.input_dim == b.input_dim
    assert len(a.layers) == len(b.layers)
    for i, (la, lb) in enumerate(zip(a.layers, b.layers)):
        np.testing.assert_allclose(
            la.weights, lb.weights, atol=atol, rtol=rtol,
            err_msg=f"weights differ at layer {i}",
        )
        np.testing.assert_allclose(
            la.bias, lb.bias, atol=atol, rtol=rtol,
            err_msg=f"bias differs at layer {i}",
        )


def random_model(input_dim, widths, num_classes, seed, tag=None):
    return init_model(input_dim, widths, num_classes, init_seed=seed, seed_tag=tag)


def random_permutation_plan(widths, seed, tag=MethodTag.PERMUTE):
    rng = np.random.default_rng(seed)
    transforms = []
    for i, w in enumerate(widths):
        transforms.append(
            LayerTransform.from_mapping(rng.permutation(w), i)
        )
    return AlignmentPlan(tuple(transforms), tag)


def random_monomial_plan(widths, seed, low=0.5, high=2.0):
    """Permutation times positive diagonal at every hidden layer."""
    rng = np.random.default_rng(seed)
    transforms = []
    for i, w in enumerate(widths):
        perm = np.zeros((w, w))
        perm[np.arange(w), rng.permutation(w)] = 1.0
        diag = np.diag(rng.uniform(low, high, size=w))
        transforms.append(LayerTransform.general(perm @ diag, i))
    return AlignmentPlan(tuple(transforms), MethodTag.CCA)


def random_case(draw, min_dim=1, max_rows=20, min_rows=10):
    """(model with random weights and biases, permutation plan, inputs),
    sized and seeded by a hypothesis draw."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = [
        draw(st.integers(min_dim, 6)),
        *draw(st.lists(st.integers(1, 10), min_size=1, max_size=3)),
        draw(st.integers(2, 4)),
    ]
    layers = tuple(
        DenseLayer(
            rng.standard_normal((fan_out, fan_in)),
            rng.standard_normal(fan_out),
            Activation.RELU if k < len(dims) - 2 else Activation.IDENTITY,
        )
        for k, (fan_in, fan_out) in enumerate(zip(dims, dims[1:]))
    )
    model = MlpModel(layers, dims[0])
    plan = random_permutation_plan(model.hidden_widths, int(rng.integers(2**32)))
    rows = draw(st.integers(min_rows, max_rows))
    return model, plan, rng.standard_normal((rows, dims[0]))


def permuted_twin(model, seed):
    """(plan, permuted copy) for a seeded hidden-layer shuffle."""
    plan = random_permutation_plan(model.hidden_widths, seed)
    return plan, apply_plan(model, plan)


def tiny_relu_model(weight_rows, bias_rows, head_w, head_b):
    """Two-layer model from explicit arrays, ReLU then Identity."""
    layers = (
        DenseLayer(np.asarray(weight_rows, float),
                   np.asarray(bias_rows, float), Activation.RELU),
        DenseLayer(np.asarray(head_w, float),
                   np.asarray(head_b, float), Activation.IDENTITY),
    )
    return MlpModel(layers, np.asarray(weight_rows).shape[1])


def correlations_oracle(a, b):
    """Pearson correlations of two centered activation blocks, formed from
    the blocks themselves rather than from pair statistics."""
    dead_a = a.variances() < DEGENERATE_VARIANCE
    dead_b = b.variances() < DEGENERATE_VARIANCE
    norm_a = np.linalg.norm(a.values, axis=0)
    norm_b = np.linalg.norm(b.values, axis=0)
    denom = np.outer(norm_a, norm_b)
    mask = np.logical_or.outer(dead_a, dead_b)
    denom[mask] = 1.0
    values = (a.values.T @ b.values) / denom
    values[mask] = 0.0
    return CorrelationMatrix(values, mask)


def topk_coverage_oracle(values, coeffs, k_corr, k_coeff):
    """topk_coefficient_coverage's percent, one row at a time: the column of
    row i's k_corr-th largest value against the k_coeff largest |coeffs|."""
    n = values.shape[0]
    hits = 0
    for i in range(n):
        # stable descending order; ties resolve toward the lower index
        want = int(np.argsort(-values[i], kind="stable")[k_corr - 1])
        if want in np.argsort(-np.abs(coeffs[i]), kind="stable")[:k_coeff]:
            hits += 1
    return float(100.0 * hits / n)


def count_calls(monkeypatch, names, calls=None):
    """Wrap every binding of the named functions in every fuselab module.

    A name fuselab does not export is taken from numpy.linalg (svd, eigh,
    ...), which fuselab looks up at call time. When calls is a list, each
    call's (name, args) is appended to it.
    """
    counts = Counter()
    modules = [fuselab] + [
        importlib.import_module(f"fuselab.{info.name}")
        for info in pkgutil.iter_modules(fuselab.__path__)
    ]
    for name in names:
        owners = modules if hasattr(fuselab, name) else [np.linalg]
        original = getattr(owners[0], name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            if calls is not None:
                calls.append((_name, args))
            return _fn(*args, **kwargs)

        for mod in owners:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return counts


def model_bytes(model):
    return b"".join(
        layer.weights.tobytes() + layer.bias.tobytes() for layer in model.layers
    )


def outcome(fn, *args):
    """fn's result, or the type of the fuselab error it raised."""
    try:
        return fn(*args)
    except fuselab.FuselabError as exc:
        return type(exc)


def blown_up(model, factor=1e3):
    """model with its first layer scaled: huge, badly conditioned scatter."""
    first = model.layers[0]
    layers = (
        DenseLayer(first.weights * factor, first.bias * factor, first.activation),
        *model.layers[1:],
    )
    return MlpModel(layers, model.input_dim)

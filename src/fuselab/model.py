"""MLP containers, per-layer transforms, and the model file format.

Models are plain fully connected stacks: every hidden layer uses ReLU and the
final layer is linear (Identity). A model is a value; every operation that
"changes" a model returns a new one. Transform application follows the rule
that a hidden layer's weights are multiplied by the layer's transform on the
left and by the previous transform's inverse on the right, with the identity
at both ends of the stack, so the network function is preserved exactly for
invertible transforms up to what the nonlinearity allows.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ConfigurationError, NumericalError, ParseError, ShapeError, ValidationError
)

INVERSE_ATOL = 1e-8
RCOND_FLOOR = 1e-12

MODEL_MAGIC = "fuselab-model"
MODEL_FORMAT_VERSION = 1


class Activation(Enum):
    RELU = "relu"
    IDENTITY = "identity"

    def apply(self, z):
        if self is Activation.RELU:
            return np.maximum(z, 0.0)
        return z


class MethodTag(Enum):
    """How an alignment plan was produced."""

    IDENTITY = "identity"
    PERMUTE = "permute"
    CCA = "cca"


def _as_matrix(a, name):
    arr = np.array(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class DenseLayer:
    """One affine layer plus its activation. weights has shape (out, in)."""

    weights: np.ndarray
    bias: np.ndarray
    activation: Activation

    def __post_init__(self):
        w = _as_matrix(self.weights, "weights")
        b = np.array(self.bias, dtype=np.float64)
        if b.ndim != 1:
            raise ShapeError(f"bias must be 1-d, got shape {b.shape}")
        if not np.all(np.isfinite(b)):
            raise ValidationError("bias contains non-finite entries")
        if b.shape[0] != w.shape[0]:
            raise ShapeError(
                f"bias length {b.shape[0]} != weight rows {w.shape[0]}"
            )
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def in_dim(self):
        return self.weights.shape[1]

    @property
    def out_dim(self):
        return self.weights.shape[0]

    def apply(self, inputs):
        """Post-activation output for a batch of row vectors."""
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(
                f"layer expects {self.in_dim} input columns, got {x.shape}"
            )
        z = x @ self.weights.T  # fresh, so the bias and ReLU go in place
        z += self.bias
        relu = self.activation is Activation.RELU
        return np.maximum(z, 0.0, out=z) if relu else z


def _check_seed_tag(tag):
    # the tag is one token of the ASCII manifest line "seed_tag <tag>"
    if tag is not None and not (
        isinstance(tag, str) and all("!" <= c <= "~" for c in tag)
    ):
        raise ValidationError(
            f"seed tag {tag!r} must be printable ASCII without whitespace"
        )


def _check_seed(name, value):
    # numpy's generators take only non-negative integer seeds
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True, eq=False)
class MlpModel:
    """Immutable MLP: ReLU hidden layers, Identity output layer."""

    layers: tuple
    input_dim: int
    seed_tag: str | None = None

    def __post_init__(self):
        layers = tuple(self.layers)
        if len(layers) < 2:
            raise ValidationError("a model needs at least 2 layers")
        prev = self.input_dim
        for i, layer in enumerate(layers):
            if not isinstance(layer, DenseLayer):
                raise ValidationError(f"layer {i} is not a DenseLayer")
            if layer.in_dim != prev:
                raise ShapeError(
                    f"layer {i} expects {layer.in_dim} inputs, previous "
                    f"width is {prev}"
                )
            prev = layer.out_dim
        for layer in layers[:-1]:
            if layer.activation is not Activation.RELU:
                raise ValidationError("hidden layers must use ReLU")
        if layers[-1].activation is not Activation.IDENTITY:
            raise ValidationError("the final layer must be linear (Identity)")
        _check_seed_tag(self.seed_tag)
        object.__setattr__(self, "layers", layers)

    @property
    def num_layers(self):
        return len(self.layers)

    @property
    def out_dim(self):
        return self.layers[-1].out_dim

    @property
    def hidden_widths(self):
        return tuple(layer.out_dim for layer in self.layers[:-1])

    def same_architecture(self, other):
        return (
            self.input_dim == other.input_dim
            and len(self.layers) == len(other.layers)
            and all(
                a.weights.shape == b.weights.shape
                and a.activation is b.activation
                for a, b in zip(self.layers, other.layers)
            )
        )


def forward(model, inputs):
    """Logits for a batch of row vectors."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ShapeError(
            f"model expects {model.input_dim} input columns, got "
            f"{x.shape} at layer 0"
        )
    if not np.all(np.isfinite(x)):
        raise ValidationError("inputs contain non-finite entries")
    return model.layers[-1].apply(hidden_outputs(model, x)[-1])


def hidden_outputs(model, inputs):
    """Post-activation outputs of every hidden layer, in order."""
    x = np.asarray(inputs, dtype=np.float64)
    outs = []
    for layer in model.layers[:-1]:
        x = layer.apply(x)
        outs.append(x)
    return outs


def _check_rcond(matrix, inverse, what, hint=""):
    """Raise NumericalError if matrix's 1-norm reciprocal condition is low."""
    norm = np.linalg.norm(matrix, 1) * np.linalg.norm(inverse, 1)
    rcond = 1.0 / norm if norm > 0 else 0.0
    if rcond < RCOND_FLOOR:
        raise NumericalError(
            f"{what} has reciprocal condition {rcond:.3e} below "
            f"{RCOND_FLOOR:g}{hint}"
        )


@dataclass(frozen=True, eq=False)
class LayerTransform:
    """Invertible map applied to one hidden layer's feature space.

    Both directions are stored as dense matrices, and construction fails
    unless forward @ inverse is the identity to within INVERSE_ATOL.
    """

    forward: np.ndarray
    inverse: np.ndarray
    layer_index: int

    def __post_init__(self):
        f = _as_matrix(self.forward, "transform")
        g = _as_matrix(self.inverse, "inverse transform")
        if f.shape[0] != f.shape[1] or f.shape != g.shape:
            raise ShapeError(
                f"transform must be square, got {f.shape} and {g.shape}"
            )
        n = f.shape[0]
        if n == 0:
            raise ShapeError(f"transform at layer {self.layer_index} has width 0")
        resid = np.max(np.abs(f @ g - np.eye(n)))
        if resid > INVERSE_ATOL:
            raise ValidationError(
                f"transform at layer {self.layer_index} is not inverted to "
                f"within {INVERSE_ATOL:g} (residual {resid:.3e})"
            )
        f.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "forward", f)
        object.__setattr__(self, "inverse", g)

    @property
    def width(self):
        return self.forward.shape[0]

    @classmethod
    def from_mapping(cls, mapping, layer_index):
        """Permutation P with P[i, mapping[i]] = 1, stored as (P, P.T)."""
        mapping = np.asarray(mapping)
        n = mapping.size
        if not (
            mapping.ndim == 1
            and n > 0
            and np.issubdtype(mapping.dtype, np.integer)
            and np.array_equal(np.sort(mapping), np.arange(n))
        ):
            raise ValidationError(
                f"mapping at layer {layer_index} is not a non-empty 1-d "
                "integer permutation: "
                f"{np.array2string(mapping, threshold=8)}"
            )
        m = np.zeros((n, n))
        m[np.arange(n), mapping] = 1.0
        return cls(m, m.T, layer_index)

    @classmethod
    def general(cls, matrix, layer_index):
        """Dense transform; the inverse comes from a pivoted solve."""
        m = _as_matrix(matrix, "transform")
        if m.shape[0] != m.shape[1]:
            raise ShapeError(f"transform must be square, got {m.shape}")
        try:
            inv = np.linalg.solve(m, np.eye(m.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"transform at layer {layer_index} is singular: {exc}"
            ) from exc
        _check_rcond(m, inv, f"transform at layer {layer_index}")
        return cls(m, inv, layer_index)

    def inverted(self):
        return LayerTransform(self.inverse, self.forward, self.layer_index)


@dataclass(frozen=True, eq=False)
class AlignmentPlan:
    """One transform per hidden layer, mapping a model into another's space."""

    transforms: tuple
    method_tag: MethodTag = MethodTag.IDENTITY

    def __post_init__(self):
        transforms = tuple(self.transforms)
        if not transforms:
            raise ValidationError("a plan needs at least one transform")
        for i, t in enumerate(transforms):
            if not isinstance(t, LayerTransform):
                raise ValidationError(f"plan entry {i} is not a LayerTransform")
            if t.layer_index != i:
                raise ValidationError(
                    f"plan entry {i} carries layer_index {t.layer_index}"
                )
        object.__setattr__(self, "transforms", transforms)

    def inverse(self):
        return AlignmentPlan(
            tuple(t.inverted() for t in self.transforms), self.method_tag
        )


def apply_plan(model, plan):
    """Rewrite a model's weights in the plan's target feature space.

    Hidden layer i becomes T_i W_i T_{i-1}^-1 (T at the input is the
    identity); the output layer only absorbs the last inverse. Every
    transform is applied through its stored dense pair, whatever built it.
    A permutation keeps the network function up to rounding; other
    transforms commute with ReLU only in special cases, so the function may
    change and callers are expected to know which regime they are in.
    """
    n_hidden = len(model.layers) - 1
    if len(plan.transforms) != n_hidden:
        raise ShapeError(
            f"plan has {len(plan.transforms)} transforms, model has "
            f"{n_hidden} hidden layers"
        )
    for i, t in enumerate(plan.transforms):
        if t.width != model.layers[i].out_dim:
            raise ShapeError(
                f"transform {i} has width {t.width}, layer {i} is "
                f"{model.layers[i].out_dim} wide"
            )
    new_layers = []
    for i, layer in enumerate(model.layers):
        w, b = layer.weights, layer.bias
        if i < n_hidden:
            t = plan.transforms[i].forward
            w = t @ w
            b = t @ b
        if i > 0:
            w = w @ plan.transforms[i - 1].inverse
        new_layers.append(DenseLayer(w, b, layer.activation))
    return MlpModel(tuple(new_layers), model.input_dim, model.seed_tag)


# --- file format ---------------------------------------------------------
#
# Text manifest (ASCII, one "key value..." line each, closed by "end"),
# then a raw payload: for every layer the weights row-major then the bias,
# all little-endian float64.


def save_model(model, path):
    lines = [
        f"{MODEL_MAGIC} {MODEL_FORMAT_VERSION}",
        f"input_dim {model.input_dim}",
        f"layers {model.num_layers}",
    ]
    for layer in model.layers:
        lines.append(
            f"layer {layer.out_dim} {layer.in_dim} {layer.activation.value}"
        )
    if model.seed_tag is not None:
        lines.append(f"seed_tag {model.seed_tag}")
    lines.append("end")
    chunks = [("\n".join(lines) + "\n").encode("ascii")]
    for layer in model.layers:
        chunks.append(np.ascontiguousarray(layer.weights, dtype="<f8").tobytes())
        chunks.append(np.ascontiguousarray(layer.bias, dtype="<f8").tobytes())
    _write_atomic(path, b"".join(chunks))


def _write_atomic(path, data):
    """Replace path with data in one step, via a temp file beside it.

    A failure at any point leaves whatever was at path untouched.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ConfigurationError(
                f"cannot write {path}: {exc.strerror or exc}"
            ) from exc
        raise


@contextlib.contextmanager
def _reading(path, kind):
    """The open file; a ParseError raised while decoding it names the file."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ParseError(f"cannot read {kind} {path}: {exc}") from exc
    with fh:
        try:
            yield fh
        except ParseError as exc:
            raise ParseError(f"{kind} {path}: {exc}") from exc


def _read_manifest(fh, magic, version=MODEL_FORMAT_VERSION):
    first = fh.readline().decode("ascii", errors="replace").strip()
    parts = first.split()
    if len(parts) != 2 or parts[0] != magic:
        raise ParseError(f"bad magic line {first!r}, expected {magic!r}")
    if parts[1] != str(version):
        raise ParseError(f"unsupported format_version {parts[1]!r}")
    fields = []
    while True:
        raw = fh.readline()
        if not raw:
            raise ParseError("manifest ended before 'end'")
        line = raw.decode("ascii", errors="replace").strip()
        if line == "end":
            return fields
        if not line:
            continue
        key, _, rest = line.partition(" ")
        # every field is given once, bar a model's one "layer" line per layer
        if key != "layer" and any(k == key for k, _ in fields):
            raise ParseError(f"duplicate manifest field {key!r}")
        fields.append((key, rest))


def _parse_int(value, name):
    if not (value.isascii() and value.isdigit()):
        raise ParseError(f"field {name} is not a count: {value!r}")
    return int(value)


def load_model(path):
    with _reading(path, "model") as fh:
        fields = _read_manifest(fh, MODEL_MAGIC)
        input_dim = None
        declared = None
        seed_tag = None
        shapes = []
        for key, rest in fields:
            if key == "input_dim":
                input_dim = _parse_int(rest, "input_dim")
            elif key == "layers":
                declared = _parse_int(rest, "layers")
            elif key == "layer":
                parts = rest.split()
                if len(parts) != 3:
                    raise ParseError(f"layer line needs 3 fields: {rest!r}")
                rows = _parse_int(parts[0], "layer rows")
                cols = _parse_int(parts[1], "layer cols")
                try:
                    act = Activation(parts[2])
                except ValueError:
                    raise ParseError(
                        f"unknown activation {parts[2]!r}"
                    ) from None
                shapes.append((rows, cols, act))
            elif key == "seed_tag":
                seed_tag = rest
            else:
                raise ParseError(f"unknown manifest field {key!r}")
        if input_dim is None:
            raise ParseError("missing field input_dim")
        if declared is None:
            raise ParseError("missing field layers")
        if declared != len(shapes):
            raise ParseError(
                f"layers says {declared}, manifest lists {len(shapes)}"
            )
        payload = fh.read()
        expect = sum(rows * cols + rows for rows, cols, _ in shapes) * 8
        if len(payload) != expect:
            raise ParseError(
                f"payload is {len(payload)} bytes, manifest implies {expect}"
            )
    buf = io.BytesIO(payload)
    try:
        layers = []
        for rows, cols, act in shapes:
            w = np.frombuffer(buf.read(rows * cols * 8), dtype="<f8")
            w = w.reshape(rows, cols)
            b = np.frombuffer(buf.read(rows * 8), dtype="<f8")
            layers.append(DenseLayer(w, b, act))
        return MlpModel(tuple(layers), input_dim, seed_tag)
    except (ShapeError, ValidationError) as exc:
        raise ParseError(f"model {path} is corrupt: {exc}") from exc

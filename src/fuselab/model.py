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
import ctypes
import functools
import io
import os
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError, NumericalError, ParseError, ShapeError, ValidationError
)

INVERSE_ATOL = 1e-8
RCOND_FLOOR = 1e-12
# forward's row blocks (see _block_rows)
FORWARD_ROWS = 512
FORWARD_CELLS = 8192
BLAS_PANEL = 192
BLAS_TILE = 8
BLOCK_CORES = ("SkylakeX", "Sandybridge")

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


def _check_number(name, value, low, high=None, *, real=False, above=False,
                  error=ConfigurationError):
    """value as a Python int, or with real a float, if it is a number of the
    field's kind in the field's range; otherwise error, naming the field.

    A count is an int or numpy integer in low..high, both ends included. A
    real may also be a float; it must be finite, > low with above, else >=
    low, and < high. A bool is neither, though Python counts it an int.
    """
    kinds = (int, float, np.integer, np.floating) if real else (int, np.integer)
    if isinstance(value, bool) or not isinstance(value, kinds):
        kind = "a number" if real else "an integer"
        raise error(f"{name} must be {kind}, got {value!r}")
    # written so that NaN, and an int too large for a float, fail too
    if real:
        if isinstance(value, np.floating):
            # compare as a Python float: a float32 compared with the float64
            # maximum would cast that maximum down and warn of overflow
            with np.errstate(over="ignore"):
                value = float(np.float64(value))
        fits = (value > low if above else value >= low) and (
            abs(value) <= sys.float_info.max and (high is None or value < high))
        bounds = (f"finite and {'>' if above else '>='} {low}" if high is None
                  else f"in [{low}, {high})")
    else:
        fits = low <= value and (high is None or value <= high)
        bounds = f">= {low}" if high is None else f"in {low}..{high}"
    if not fits:
        raise error(f"{name} must be {bounds}, got {value}")
    return float(value) if real else int(value)


def _as_array(name, value, ndim, copy=False, error=ValidationError, order="C"):
    """value as a float64 array with ndim dimensions and finite entries: with
    copy, a read-only copy in order, the one form a value keeps; else the
    input itself if it already is one. Otherwise error (ShapeError for the
    ndim) naming the field."""
    try:
        if np.iscomplexobj(value):  # the cast would drop the imaginary part
            raise TypeError("complex entries")
        arr = (np.array(value, dtype=np.float64, order=order) if copy
               else np.asarray(value, dtype=np.float64))
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{name} must be numeric ({exc})") from None
    if arr.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-d, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        verb = "contain" if name.endswith("s") else "contains"
        raise error(f"{name} {verb} non-finite entries")
    if copy:
        arr.setflags(write=False)
    return arr


def _check_kind(name, value, kind):
    """value if it is a kind (a class), else ValidationError naming the
    argument: a wrong object would fail on the first attribute it lacks."""
    if not isinstance(value, kind):
        raise ValidationError(
            f"{name} must be of type {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _check_list(name, value, low=0, high=None):
    """value if it is a list or tuple of low..high items, else
    ValidationError naming the argument."""
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{name} must be a list, got {type(value).__name__}")
    _check_number(f"{name} length", len(value), low, high, error=ValidationError)
    return value


@contextlib.contextmanager
def _allocating(what):
    """Numpy's refusal of an array too large to index or to allocate becomes
    ConfigurationError naming what, the counts that sized the array."""
    try:
        yield
    except (ValueError, MemoryError) as exc:
        raise ConfigurationError(f"{what} too large: {exc}") from None


def _as_permutation(what, mapping, empty=False):
    """mapping as a read-only intp array if it is a 1-d integer permutation
    of 0..n-1, n > 0 unless empty; otherwise ValidationError naming what."""
    try:
        m = np.array(mapping)
    except ValueError:  # ragged
        m = np.array(mapping, dtype=object)
    if not (m.ndim == 1 and (empty or m.size) and np.issubdtype(m.dtype, np.integer)
            and np.array_equal(np.sort(m), np.arange(m.size))):
        raise ValidationError(
            f"{what} is not a {'' if empty else 'non-empty '}1-d integer "
            f"permutation: {np.array2string(m, threshold=8)}"
        )
    m = m.astype(np.intp, copy=False)
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class DenseLayer:
    """One affine layer plus its activation. weights has shape (out, in)."""

    weights: np.ndarray
    bias: np.ndarray
    activation: Activation

    def __post_init__(self):
        _check_kind("activation", self.activation, Activation)
        w = _as_array("weights", self.weights, 2, copy=True)
        b = _as_array("bias", self.bias, 1, copy=True)
        if b.shape[0] != w.shape[0]:
            raise ShapeError(f"bias length {b.shape[0]} != weight rows {w.shape[0]}")
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
        x = _as_array("inputs", inputs, 2)
        if x.shape[1] != self.in_dim:
            raise ShapeError(
                f"layer expects {self.in_dim} input columns, got {x.shape}"
            )
        return _step(self, x)


def _preactivation(layer, x):
    z = x @ layer.weights.T  # fresh, so the bias goes in place
    return np.add(z, layer.bias, out=z)


def _step(layer, x):
    """layer.apply of rows x already checked: the hot paths' layer step."""
    z = _preactivation(layer, x)
    return np.maximum(z, 0.0, out=z) if layer.activation is Activation.RELU else z


def _check_seed_tag(tag):
    # the tag is one token of the ASCII manifest line "seed_tag <tag>"
    if tag is not None and not (
        isinstance(tag, str) and all("!" <= c <= "~" for c in tag)
    ):
        raise ValidationError(
            f"seed tag {tag!r} must be printable ASCII without whitespace"
        )


@dataclass(frozen=True, eq=False)
class MlpModel:
    """Immutable MLP: ReLU hidden layers, Identity output layer."""

    layers: tuple
    input_dim: int
    seed_tag: str | None = None

    def __post_init__(self):
        layers = tuple(_check_list("layers", self.layers, 2))
        prev = _check_number("input_dim", self.input_dim, 1, error=ValidationError)
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
    """Logits for a batch of row vectors.

    The layers run over near-equal blocks of rows, each block's logits
    written into one output array, so a forward holds one block's layer
    outputs rather than the whole set's. The bytes are the whole set's:
    each output row depends only on its own input row, and _block_rows
    keeps every block on the whole set's OpenBLAS kernel path.
    """
    _check_kind("model", model, MlpModel)
    x = _as_array("inputs", inputs, 2)
    if x.shape[1] != model.input_dim:
        raise ShapeError(
            f"model expects {model.input_dim} input columns, got "
            f"{x.shape} at layer 0"
        )
    m = x.shape[0]
    blocks = -(-m // _block_rows(model))
    out = np.empty((m, model.out_dim))
    for k in range(blocks):
        rows = slice(k * m // blocks, (k + 1) * m // blocks)
        h = x[rows]
        for layer in model.layers:
            h = _step(layer, h)
        out[rows] = h
    return out


def _block_rows(model):
    """The most rows forward puts in one block of model's layers.

    A row subset of x @ W.T keeps the whole set's bytes only on the whole
    set's kernel path (measured on OpenBLAS 0.3.31, SkylakeX kernels, at
    1, 2 and 4 threads). At most 1,200 rows x width takes a small kernel
    once the inner dimension reaches 32: the cap is raised until the
    narrowest layer reaches FORWARD_CELLS, and near-equal blocks keep at
    least half of it. gemv (a 1-wide layer), and a tail past BLAS_PANEL
    columns that is not a multiple of BLAS_TILE, change bytes with any row
    split: such a model runs whole. So does every model on a core outside
    BLOCK_CORES (Haswell's blocks broke these rules) or on another BLAS.
    """
    widths = [layer.out_dim for layer in model.layers]
    if _core() not in BLOCK_CORES or any(
            w == 1 or (w > BLAS_PANEL and w % BLAS_TILE) for w in widths):
        return sys.maxsize
    return max(FORWARD_ROWS, -(-FORWARD_CELLS // min(widths)))


@functools.cache
def _openblas():
    """The OpenBLAS library that numpy >= 2 wheels bundle, or None on any
    other build (numpy 1.x, MKL, Accelerate)."""
    here = Path(np.__file__).parent
    for path in (*here.parent.glob("numpy.libs/*openblas*"),
                 *here.glob(".dylibs/*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
        except (OSError, AttributeError):
            continue
        return lib


@functools.cache
def _core():
    """The bundled OpenBLAS's core, as it spells it, or None without it."""
    return (lib := _openblas()) and lib.scipy_openblas_get_corename64_().decode()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the caller's count.
    A matmul's bytes do not depend on it (LAPACK's may). The count is
    process-wide: blocks in several Python threads can leave it at one."""
    if (lib := _openblas()) is None:
        yield
        return
    threads = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(threads)


def _inverse(matrix, what, hint=""):
    """matrix's inverse by a pivoted solve; NumericalError naming `what`, then
    hint, if it is singular or its 1-norm reciprocal condition is low."""
    try:
        inverse = np.linalg.solve(matrix, np.eye(matrix.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what} is singular{hint}: {exc}") from exc
    norm = np.linalg.norm(matrix, 1) * np.linalg.norm(inverse, 1)
    rcond = 1.0 / norm if norm > 0 else 0.0
    if rcond < RCOND_FLOOR:
        raise NumericalError(
            f"{what} has reciprocal condition {rcond:.3e} below "
            f"{RCOND_FLOOR:g}{hint}"
        )
    return inverse


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
        _check_number("layer_index", self.layer_index, 0, error=ValidationError)
        # the one value kept in its input's order: a CCA transform arrives
        # F-ordered, and apply_plan's bytes depend on the order it reads (C
        # copies changed every merged model of bench's cca workloads)
        f = _as_array("transform", self.forward, 2, copy=True, order="K")
        g = _as_array("inverse transform", self.inverse, 2, copy=True, order="K")
        if f.shape[0] != f.shape[1] or f.shape != g.shape:
            raise ShapeError(f"transform must be square, got {f.shape} and {g.shape}")
        n = f.shape[0]
        if n == 0:
            raise ShapeError(f"transform at layer {self.layer_index} has width 0")
        resid = np.max(np.abs(f @ g - np.eye(n)))
        if resid > INVERSE_ATOL:
            raise ValidationError(
                f"transform at layer {self.layer_index} is not inverted to "
                f"within {INVERSE_ATOL:g} (residual {resid:.3e})"
            )
        object.__setattr__(self, "forward", f)
        object.__setattr__(self, "inverse", g)

    @property
    def width(self):
        return self.forward.shape[0]

    @classmethod
    def from_mapping(cls, mapping, layer_index):
        """Permutation P with P[i, mapping[i]] = 1, stored as (P, P.T)."""
        mapping = _as_permutation(f"mapping at layer {layer_index}", mapping)
        n = mapping.size
        m = np.zeros((n, n))
        m[np.arange(n), mapping] = 1.0
        return cls(m, m.T, layer_index)

    @classmethod
    def general(cls, matrix, layer_index):
        """Dense transform; the inverse comes from a pivoted solve."""
        m = _as_array("transform", matrix, 2)
        if m.shape[0] != m.shape[1]:
            raise ShapeError(f"transform must be square, got {m.shape}")
        return cls(m, _inverse(m, f"transform at layer {layer_index}"),
                   layer_index)

    def inverted(self):
        return LayerTransform(self.inverse, self.forward, self.layer_index)


@dataclass(frozen=True, eq=False)
class AlignmentPlan:
    """One transform per hidden layer, mapping a model into another's space."""

    transforms: tuple
    method_tag: MethodTag = MethodTag.IDENTITY

    def __post_init__(self):
        transforms = tuple(_check_list("transforms", self.transforms))
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
    _check_kind("model", model, MlpModel)
    _check_kind("plan", plan, AlignmentPlan)
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
# Text manifest (ASCII, one "key value" line each, closed by "end"), then a
# raw payload: for every layer the weights row-major then the bias, all
# little-endian float64. Every count in a manifest is plain ASCII digits.


def save_model(model, path):
    _check_kind("model", model, MlpModel)
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
    chunks += [p.astype("<f8", copy=False).tobytes()
               for layer in model.layers for p in (layer.weights, layer.bias)]
    _write_atomic(path, b"".join(chunks))


def _write_atomic(path, data):
    """Replace path with data in one step, via a temp file beside it.

    A failure at any point leaves whatever was at path untouched.
    """
    path = _as_path(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        # a missing temp file, or a path through a regular file
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ConfigurationError(
                f"cannot write {path}: {exc.strerror or exc}"
            ) from exc
        raise


def _as_path(path):
    """path as a str, from a str or an os.PathLike of one; otherwise
    ValidationError naming it, as open() would take an int for a file."""
    if isinstance(path, (str, os.PathLike)) and isinstance(text := os.fspath(path), str):
        return text
    raise ValidationError(f"path must be str or os.PathLike, got {type(path).__name__}")


@contextlib.contextmanager
def _reading(path, kind):
    """The open file; a ParseError raised while decoding it names the file."""
    try:
        fh = open(_as_path(path), "rb")
    except OSError as exc:
        raise ParseError(f"cannot read {kind} {path}: {exc}") from exc
    with fh:
        try:
            yield fh
        except ParseError as exc:
            raise ParseError(f"{kind} {path}: {exc}") from exc


def _read_manifest(fh, magic, counts, texts=(), layers=False,
                   version=MODEL_FORMAT_VERSION):
    """The manifest's fields, by key, from the magic line to "end".

    counts are required and parsed with _parse_int; texts are optional. With
    layers, each "layer <rows> <cols> <activation>" line appends its parsed
    (rows, cols, Activation) to fields["layer"]. Any other key, a key given
    twice and a missing count name the field in a ParseError.
    """
    first = fh.readline().decode("ascii", errors="replace").strip()
    parts = first.split()
    if len(parts) != 2 or parts[0] != magic:
        raise ParseError(f"bad magic line {first!r}, expected {magic!r}")
    if parts[1] != str(version):
        raise ParseError(f"unsupported format_version {parts[1]!r}")
    fields = {"layer": []} if layers else {}
    while True:
        raw = fh.readline()
        if not raw:
            raise ParseError("manifest ended before 'end'")
        line = raw.decode("ascii", errors="replace").strip()
        if line == "end":
            break
        if not line:
            continue
        key, _, rest = line.partition(" ")
        if layers and key == "layer":
            parts = rest.split()
            if len(parts) != 3:
                raise ParseError(f"layer line needs 3 fields: {rest!r}")
            rows = _parse_int(parts[0], "layer rows")
            cols = _parse_int(parts[1], "layer cols")
            try:
                fields[key].append((rows, cols, Activation(parts[2])))
            except ValueError:
                raise ParseError(f"unknown activation {parts[2]!r}") from None
        elif key not in counts and key not in texts:
            raise ParseError(f"unknown manifest field {key!r}")
        elif key in fields:
            raise ParseError(f"duplicate manifest field {key!r}")
        else:
            fields[key] = _parse_int(rest, key) if key in counts else rest
    for key in counts:
        if key not in fields:
            raise ParseError(f"missing field {key}")
    return fields


def _parse_int(value, name):
    if not (value.isascii() and value.isdigit()):
        raise ParseError(f"field {name} is not a count: {value!r}")
    return int(value)


def _read_payload(fh, expect):
    payload = fh.read()
    if len(payload) != expect:
        raise ParseError(
            f"payload is {len(payload)} bytes, manifest implies {expect}"
        )
    return payload


def load_model(path):
    with _reading(path, "model") as fh:
        fields = _read_manifest(
            fh, MODEL_MAGIC, ("input_dim", "layers"), ("seed_tag",),
            layers=True,
        )
        shapes = fields["layer"]
        if fields["layers"] != len(shapes):
            raise ParseError(
                f"layers says {fields['layers']}, manifest lists {len(shapes)}"
            )
        payload = _read_payload(
            fh, sum(rows * cols + rows for rows, cols, _ in shapes) * 8
        )
    buf = io.BytesIO(payload)
    try:
        layers = []
        for rows, cols, act in shapes:
            w = np.frombuffer(buf.read(rows * cols * 8), dtype="<f8")
            w = w.reshape(rows, cols)
            b = np.frombuffer(buf.read(rows * 8), dtype="<f8")
            layers.append(DenseLayer(w, b, act))
        return MlpModel(
            tuple(layers), fields["input_dim"], fields.get("seed_tag")
        )
    except (ShapeError, ValidationError) as exc:
        raise ParseError(f"model {path} is corrupt: {exc}") from exc

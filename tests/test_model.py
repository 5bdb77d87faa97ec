"""Model containers, forward rule, transforms, plan application, file IO."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuselab import (
    Activation,
    AlignmentPlan,
    Dataset,
    DenseLayer,
    FuselabError,
    LayerTransform,
    MethodTag,
    MlpModel,
    NumericalError,
    ParseError,
    ShapeError,
    ValidationError,
    apply_plan,
    forward,
    generate,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
)
from fuselab import model as model_module
from fuselab.activations import probe_matrix
from fuselab.matching import _score_matrix
from fuselab.model import hidden_outputs
from _helpers import (
    assert_models_allclose,
    model_bytes,
    permuted_twin,
    random_case,
    random_model,
    random_monomial_plan,
    tiny_relu_model,
)


class TestDenseLayerApply:
    def test_identity_layer_passes_through(self):
        layer = DenseLayer(np.eye(2), np.zeros(2), Activation.IDENTITY)
        np.testing.assert_array_equal(
            layer.apply(np.array([[3.0, -2.0]])), [[3.0, -2.0]]
        )

    def test_relu_clamps_negatives(self):
        layer = DenseLayer(np.eye(2), np.zeros(2), Activation.RELU)
        np.testing.assert_array_equal(
            layer.apply(np.array([[3.0, -2.0]])), [[3.0, 0.0]]
        )

    def test_affine_matches_hand_computation(self):
        w = np.array([[1.0, 2.0], [0.0, -1.0]])
        b = np.array([0.5, 1.0])
        layer = DenseLayer(w, b, Activation.IDENTITY)
        x = np.array([[2.0, 3.0]])
        np.testing.assert_allclose(layer.apply(x), [[2 + 6 + 0.5, -3 + 1.0]])


class TestModelValidation:
    def test_forward_matches_manual_loop(self, rng):
        model = random_model(5, (7, 6), 3, seed=2)
        x = rng.standard_normal((11, 5))
        expect = x
        for layer in model.layers:
            z = expect @ layer.weights.T + layer.bias
            expect = np.maximum(z, 0.0) if layer.activation is Activation.RELU else z
        np.testing.assert_allclose(forward(model, x), expect, atol=1e-12)

    def test_dimension_chain_enforced(self):
        good = DenseLayer(np.ones((3, 2)), np.zeros(3), Activation.RELU)
        bad = DenseLayer(np.ones((2, 4)), np.zeros(2), Activation.IDENTITY)
        with pytest.raises(ShapeError):
            MlpModel((good, bad), 2)

    def test_single_layer_rejected(self):
        layer = DenseLayer(np.eye(2), np.zeros(2), Activation.IDENTITY)
        with pytest.raises(ValidationError):
            MlpModel((layer,), 2)

    def test_hidden_layers_must_be_relu(self):
        l1 = DenseLayer(np.eye(2), np.zeros(2), Activation.IDENTITY)
        l2 = DenseLayer(np.eye(2), np.zeros(2), Activation.IDENTITY)
        with pytest.raises(ValidationError):
            MlpModel((l1, l2), 2)

    def test_non_finite_weights_rejected(self):
        with pytest.raises(ValidationError):
            DenseLayer(np.array([[np.nan, 0.0]]), np.zeros(1), Activation.RELU)

    def test_input_width_checked(self):
        model = random_model(4, (5,), 2, seed=0)
        with pytest.raises(ShapeError):
            forward(model, np.zeros((3, 7)))

    def test_layers_are_read_only(self):
        model = random_model(4, (5,), 2, seed=0)
        with pytest.raises(ValueError):
            model.layers[0].weights[0, 0] = 7.0

    @pytest.mark.parametrize("tag", ["a\nb", "\u00e9", "a b", "tab\t", 7])
    def test_bad_seed_tag_rejected(self, tag):
        layers = random_model(4, (5,), 2, seed=0).layers
        with pytest.raises(ValidationError, match=re.escape(repr(tag))):
            MlpModel(layers, 4, seed_tag=tag)


class TestInputLayout:
    """A constructor that keeps an array keeps a copy in the input's memory
    order: CCA transforms arrive F-ordered, and reordering one changes the
    bytes of the models built from it. A function that only reads an array
    takes a float64 ndarray as it is."""

    def test_kept_arrays_keep_fortran_order(self):
        rng = np.random.default_rng(0)
        f = np.asfortranarray(rng.normal(size=(3, 3)) + 3.0 * np.eye(3))
        kept = [
            DenseLayer(f, np.zeros(3), Activation.RELU).weights,
            LayerTransform(f, np.linalg.inv(f), 0).forward,
            LayerTransform.general(f, 0).forward,
            Dataset(f, [0, 1, 0], 2, 0).features,
        ]
        for arr in kept:
            assert arr.flags.f_contiguous and not arr.flags.c_contiguous
            assert not np.shares_memory(arr, f)
            np.testing.assert_array_equal(arr, f)

    def test_readers_do_not_copy_a_float64_array(self, monkeypatch):
        rng = np.random.default_rng(1)
        x, square = rng.normal(size=(4, 3)), rng.normal(size=(3, 3))
        seen = []
        inner = model_module.hidden_outputs
        monkeypatch.setattr(model_module, "hidden_outputs",
                            lambda m, inputs: seen.append(inputs) or inner(m, inputs))
        forward(random_model(3, (4,), 2, seed=0), x)
        assert np.shares_memory(seen[0], x)
        assert np.shares_memory(probe_matrix(x), x)
        assert np.shares_memory(_score_matrix(square), square)


class TestLayerTransform:
    def test_permutation_inverse_is_transpose(self):
        t = LayerTransform.from_mapping([2, 0, 1], 0)
        np.testing.assert_array_equal(t.inverse, t.forward.T)

    def test_permutation_structure_enforced(self):
        for mapping in [
            [-1, 0],  # negative: numpy would wrap it round to [1, 0]
            [0.7, 1.2],  # non-integer: a cast would truncate it to [0, 1]
            [1.0, 0.0],  # a permutation, but of floats
            [True, False],
            [0, 2],  # out of range
            [[0, 1]],  # not 1-d
            [0, 0],  # repeated
            np.array([], dtype=int),  # a permutation, but of nothing
        ]:
            with pytest.raises(ValidationError, match="mapping at layer 3 "):
                LayerTransform.from_mapping(mapping, 3)

    def test_general_round_trips(self, rng):
        m = rng.standard_normal((6, 6)) + 3 * np.eye(6)
        t = LayerTransform.general(m, 1)
        np.testing.assert_allclose(t.forward @ t.inverse, np.eye(6), atol=1e-8)

    def test_singular_matrix_rejected(self):
        m = np.ones((3, 3))
        with pytest.raises(NumericalError):
            LayerTransform.general(m, 0)

    def test_near_singular_rejected(self):
        m = np.diag([1.0, 1.0, 1e-15])
        with pytest.raises(NumericalError):
            LayerTransform.general(m, 0)

    def test_mismatched_inverse_rejected(self):
        for forward, inverse, error, message in [
            (np.eye(2), 2 * np.eye(2), ValidationError, "is not inverted"),
            (np.zeros((0, 0)), np.zeros((0, 0)), ShapeError, "has width 0"),
        ]:
            with pytest.raises(error, match=f"transform at layer 4 {message}"):
                LayerTransform(forward, inverse, 4)


class TestApplyPlan:
    def test_permutation_preserves_function(self, rng):
        model = random_model(6, (9, 9), 4, seed=5)
        plan, twin = permuted_twin(model, seed=8)
        x = rng.standard_normal((40, 6))
        np.testing.assert_allclose(
            forward(model, x), forward(twin, x), atol=1e-12
        )
        assert plan.method_tag is MethodTag.PERMUTE

    def test_monomial_transforms_preserve_function(self, rng):
        # positive scales commute with ReLU, so these also keep the function
        model = random_model(6, (9, 9), 4, seed=5)
        plan = random_monomial_plan(model.hidden_widths, seed=3)
        twin = apply_plan(model, plan)
        x = rng.standard_normal((40, 6))
        np.testing.assert_allclose(forward(model, x), forward(twin, x), atol=1e-9)

    def test_inverse_plan_recovers_weights(self):
        model = random_model(5, (8, 7), 3, seed=9)
        plan = random_monomial_plan(model.hidden_widths, seed=4)
        back = apply_plan(apply_plan(model, plan), plan.inverse())
        assert_models_allclose(back, model, atol=1e-8)

    def test_input_model_unchanged(self):
        model = random_model(5, (8,), 3, seed=9)
        before = [l.weights.copy() for l in model.layers]
        plan, _ = permuted_twin(model, seed=2)
        apply_plan(model, plan)
        for layer, snap in zip(model.layers, before):
            np.testing.assert_array_equal(layer.weights, snap)

    def test_wrong_transform_count_rejected(self):
        model = random_model(5, (8, 8), 3, seed=9)
        plan = AlignmentPlan(
            (LayerTransform.from_mapping(np.arange(8), 0),),
            MethodTag.IDENTITY,
        )
        with pytest.raises(ShapeError):
            apply_plan(model, plan)

    def test_plan_layer_indices_checked(self):
        t = LayerTransform.from_mapping(np.arange(4), 1)
        with pytest.raises(ValidationError):
            AlignmentPlan((t,), MethodTag.IDENTITY)


class TestPermutationProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_permutation_plan_preserves_forward(self, data):
        model, plan, x = random_case(data.draw)
        twin = apply_plan(model, plan)
        # every layer after the first sums its terms in permuted order, so
        # the logits agree to rounding, not bit for bit
        expect = forward(model, x)
        np.testing.assert_allclose(
            forward(twin, x), expect, rtol=0,
            atol=1e-12 * max(1.0, float(np.abs(expect).max())),
        )

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_inverse_plan_round_trips_bytes(self, data):
        model, plan, _ = random_case(data.draw)
        back = apply_plan(apply_plan(model, plan), plan.inverse())
        assert model_bytes(back) == model_bytes(model)


class TestLayerLoop:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_outputs_match_the_allocating_expression(self, data):
        # the in-place layer loop against the expression it replaced; the
        # draws include 3 hidden layers and 1-row inputs
        model, _, x = random_case(data.draw, min_rows=1)
        before = x.copy()
        expect, h = [], x
        for layer in model.layers:
            h = layer.activation.apply(h @ layer.weights.T + layer.bias)
            expect.append(h.tobytes())
        assert forward(model, x).tobytes() == expect[-1]
        assert [o.tobytes() for o in hidden_outputs(model, x)] == expect[:-1]
        assert x.tobytes() == before.tobytes()


class TestModelFile:
    def test_round_trip_bit_exact(self, tmp_path):
        model = random_model(5, (8, 7), 3, seed=13)
        path = tmp_path / "m.model"
        save_model(model, path)
        back = load_model(path)
        assert back.seed_tag == model.seed_tag
        assert back.input_dim == model.input_dim
        for la, lb in zip(model.layers, back.layers):
            assert la.activation is lb.activation
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)

    def test_seed_tag_round_trips(self, tmp_path):
        model = MlpModel(
            (
                DenseLayer(np.ones((2, 2)), np.zeros(2), Activation.RELU),
                DenseLayer(np.ones((1, 2)), np.zeros(1), Activation.IDENTITY),
            ),
            2,
            seed_tag="init3.shuf77",
        )
        save_model(model, tmp_path / "m.model")
        assert load_model(tmp_path / "m.model").seed_tag == "init3.shuf77"

    def test_truncated_payload_rejected(self, tmp_path):
        model = random_model(4, (5,), 2, seed=1)
        path = tmp_path / "m.model"
        save_model(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ParseError):
            load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_bytes(b"other-format 1\nend\n")
        with pytest.raises(ParseError):
            load_model(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_bytes(b"fuselab-model 1\ninput_dim 2\nlayers 0\nwhat 3\nend\n")
        with pytest.raises(ParseError):
            load_model(path)

    def test_layer_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_bytes(
            b"fuselab-model 1\ninput_dim 2\nlayers 2\nlayer 2 2 relu\nend\n"
        )
        with pytest.raises(ParseError):
            load_model(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        model = tiny_relu_model(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2))
        path = tmp_path / "m.model"
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        # overwrite the first payload float with NaN
        header_end = raw.index(b"end\n") + 4
        raw[header_end : header_end + 8] = np.array([np.nan]).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="m.model is corrupt"):
            load_model(path)

    def test_failed_save_leaves_existing_file(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(random_model(4, (5,), 2, seed=1), path)
        before = path.read_bytes()
        broken = random_model(4, (5,), 2, seed=2)
        # a payload that cannot be encoded fails after the manifest is made
        object.__setattr__(
            broken.layers[1], "bias", np.array(["x", "y"], dtype=object)
        )
        with pytest.raises(ValueError):
            save_model(broken, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.model"]


# --- corrupted files: decoding fails only with ParseError ---------------------

SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, 1e308]
MANIFEST_BYTES = list(b"0123456789- \n\t\x80\xff")


def _file_cases(kind, seed):
    """(object, its file bytes) for one freshly saved model or dataset."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f"
        if kind == "model":
            obj = random_model(3, (4, 5), 3, seed=seed, tag=f"s{seed}")
            save_model(obj, path)
        else:
            obj = generate(3, 2, 4, seed=seed)
            save_dataset(obj, path)
        return obj, path.read_bytes()


# fields a manifest may give only once (a model repeats "layer" per layer)
_SINGLE_FIELDS = {
    "model": (b"input_dim", b"layers", b"seed_tag"),
    "dataset": (b"m", b"d", b"seed"),
}


# every count a manifest holds under its own key
_COUNT_FIELDS = {
    "model": (b"input_dim", b"layers"),
    "dataset": (b"m", b"d", b"k", b"seed"),
}


def _load(kind, data):
    """Decode data from a file; a ParseError must name that file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f"
        path.write_bytes(data)
        try:
            return (load_model if kind == "model" else load_dataset)(path)
        except ParseError as exc:
            assert str(path) in str(exc), str(exc)
            raise


@st.composite
def corruptions(draw):
    kind = draw(st.sampled_from(["model", "dataset"]))
    obj, data = _file_cases(kind, draw(st.integers(0, 30)))
    raw = bytearray(data)
    header = raw.index(b"end\n") + 4
    floats = (len(raw) - header) // 8
    if kind == "dataset":
        floats = obj.m * obj.dim
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["byte", "manifest", "float", "label"]))
        if edit == "byte":
            pos = draw(st.integers(0, len(raw) - 1))
            raw[pos] = draw(st.integers(0, 255))
        elif edit == "manifest":
            pos = draw(st.integers(0, header - 1))
            raw[pos] = draw(st.sampled_from(MANIFEST_BYTES))
        elif edit == "float":
            at = header + 8 * draw(st.integers(0, floats - 1))
            value = draw(st.sampled_from(SPECIAL_FLOATS))
            raw[at : at + 8] = np.array([value], dtype="<f8").tobytes()
        elif kind == "dataset":
            at = header + 8 * floats + 4 * draw(st.integers(0, obj.m - 1))
            label = draw(st.sampled_from([obj.num_classes, 2**32 - 1]))
            raw[at : at + 4] = np.array([label], dtype="<u4").tobytes()
    return kind, obj, bytes(raw)


def _same_content(kind, a, b):
    if kind == "dataset":
        return (
            a.features.tobytes() == b.features.tobytes()
            and a.labels.tobytes() == b.labels.tobytes()
            and (a.num_classes, a.seed) == (b.num_classes, b.seed)
        )
    return (a.input_dim, a.seed_tag) == (b.input_dim, b.seed_tag) and all(
        la.activation is lb.activation
        and la.weights.tobytes() == lb.weights.tobytes()
        and la.bias.tobytes() == lb.bias.tobytes()
        for la, lb in zip(a.layers, b.layers, strict=True)
    )


class TestCorruptFiles:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["model", "dataset"]), st.integers(0, 30))
    def test_files_round_trip(self, kind, seed):
        obj, data = _file_cases(kind, seed)
        assert _same_content(kind, _load(kind, data), obj)

    @settings(max_examples=300, deadline=None)
    @given(corruptions())
    def test_corrupted_bytes_raise_only_parse_errors(self, case):
        kind, _, data = case
        try:
            _load(kind, data)
        except FuselabError as exc:
            assert isinstance(exc, ParseError), repr(exc)

    @pytest.mark.parametrize(
        "old, new",
        [(b"seed_tag s", b"seed_tag \x80"), (b"input_dim 3", b"input_dim 4")],
    )
    def test_decoded_model_errors_name_the_file(self, tmp_path, old, new):
        path = tmp_path / "bad.model"
        save_model(random_model(3, (4,), 3, seed=1, tag="s1"), path)
        path.write_bytes(path.read_bytes().replace(old, new))
        with pytest.raises(ParseError, match="bad.model is corrupt"):
            load_model(path)

    @pytest.mark.parametrize("kind", ["model", "dataset"])
    @pytest.mark.parametrize(
        "edit", ["magic", "field", "payload", "repeat0", "repeat1", "repeat2"]
    )
    def test_manifest_errors_name_the_file(self, tmp_path, kind, edit):
        _, data = _file_cases(kind, 0)
        expect = ""
        if edit == "magic":
            data = b"garbage\n" + data.split(b"\n", 1)[1]
        elif edit == "field":
            data = data.replace(b"\nend\n", b"\nwhat 3\nend\n", 1)
        elif edit.startswith("repeat"):
            # one field's line again, verbatim, just before "end"
            key = _SINGLE_FIELDS[kind][int(edit[-1])]
            head, end, payload = data.partition(b"\nend\n")
            line = next(
                x for x in head.split(b"\n") if x.split(b" ")[0] == key
            )
            data = head + b"\n" + line + end + payload
            expect = f"duplicate manifest field {key.decode()!r}"
        else:
            data = data[:-1]
        path = tmp_path / f"bad.{kind}"
        path.write_bytes(data)
        load = load_model if kind == "model" else load_dataset
        with pytest.raises(
            ParseError, match=re.escape(f"{kind} {path}: {expect}")
        ):
            load(path)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["model", "dataset"]), st.integers(0, 30), st.data()
    )
    def test_counts_are_plain_digits(self, kind, seed, data):
        _, raw = _file_cases(kind, seed)
        key = data.draw(st.sampled_from(_COUNT_FIELDS[kind]))
        edit = data.draw(st.sampled_from(["+", "0_", " ", "-", "delete"]))
        head, end, payload = raw.partition(b"\nend\n")
        lines = head.split(b"\n")
        at = next(i for i, x in enumerate(lines) if x.split(b" ")[0] == key)
        value = lines[at].split(b" ")[1]
        if edit == "delete":
            del lines[at]
            expect = f"missing field {key.decode()}"
        else:
            lines[at] = key + b" " + edit.encode() + value
            text = edit + value.decode()
            expect = f"field {key.decode()} is not a count: {text!r}"
        with pytest.raises(ParseError, match=re.escape(expect)):
            _load(kind, b"\n".join(lines) + end + payload)

    def test_labels_out_of_range_name_the_file(self, tmp_path):
        path = tmp_path / "bad.ds"
        save_dataset(generate(3, 2, 4, seed=0), path)
        path.write_bytes(path.read_bytes().replace(b"\nk 3\n", b"\nk 2\n"))
        with pytest.raises(ParseError, match="bad.ds is corrupt"):
            load_dataset(path)

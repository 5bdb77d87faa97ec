"""Model containers, forward rule, transforms, plan application, file IO."""

import re

import numpy as np
import pytest

from fuselab import (
    Activation,
    AlignmentPlan,
    DenseLayer,
    LayerTransform,
    MethodTag,
    MlpModel,
    NumericalError,
    ParseError,
    ShapeError,
    TransformKind,
    ValidationError,
    apply_plan,
    forward,
    load_model,
    save_model,
)
from _helpers import (
    assert_models_allclose,
    permuted_twin,
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


class TestLayerTransform:
    def test_permutation_inverse_is_transpose(self):
        t = LayerTransform.from_mapping([2, 0, 1], 0)
        np.testing.assert_array_equal(t.inverse, t.forward.T)
        assert t.kind is TransformKind.PERMUTATION

    def test_permutation_structure_enforced(self):
        with pytest.raises(ValidationError):
            LayerTransform.permutation(np.array([[1.0, 0.0], [1.0, 0.0]]), 0)
        with pytest.raises(ValidationError):
            LayerTransform.permutation(np.array([[0.5, 0.5], [0.5, 0.5]]), 0)

    def test_general_round_trips(self, rng):
        m = rng.standard_normal((6, 6)) + 3 * np.eye(6)
        t = LayerTransform.general(m, 1)
        np.testing.assert_allclose(t.forward @ t.inverse, np.eye(6), atol=1e-8)
        assert t.kind is TransformKind.GENERAL

    def test_singular_matrix_rejected(self):
        m = np.ones((3, 3))
        with pytest.raises(NumericalError):
            LayerTransform.general(m, 0)

    def test_near_singular_rejected(self):
        m = np.diag([1.0, 1.0, 1e-15])
        with pytest.raises(NumericalError):
            LayerTransform.general(m, 0)

    def test_mismatched_inverse_rejected(self):
        with pytest.raises(ValidationError):
            LayerTransform(np.eye(2), 2 * np.eye(2), TransformKind.GENERAL, 0)


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
        with pytest.raises(ValidationError):
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

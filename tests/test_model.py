"""Model containers, forward rule, transforms, plan application, file IO."""

import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuselab import (
    Activation,
    ActivationMatrix,
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
from fuselab.activations import capture, probe_matrix
from fuselab.matching import _score_matrix
from fuselab.model import BLOCK_CORES, FORWARD_CELLS, FORWARD_ROWS
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
    """A value that keeps an array keeps a read-only C-order float64 copy,
    so the order a caller built it in leaves no trace in any result. A
    LayerTransform alone keeps its input's order: CCA transforms arrive
    F-ordered, and reordering one changes the bytes of the models built
    from it. A function that only reads an array takes a float64 ndarray as
    it is."""

    def test_kept_arrays_are_read_only_c_copies(self):
        rng = np.random.default_rng(0)
        f = np.asfortranarray(rng.normal(size=(3, 3)) + 3.0 * np.eye(3))
        kept = [
            DenseLayer(f, np.zeros(3), Activation.RELU).weights,
            ActivationMatrix(f, np.zeros(3), 0, 3).values,
            Dataset(f, [0, 1, 0], 2, 0).features,
        ]
        for arr in kept:
            assert arr.flags.c_contiguous and not arr.flags.writeable
            assert not np.shares_memory(arr, f)
            np.testing.assert_array_equal(arr, f)

    def test_transforms_keep_fortran_order(self):
        rng = np.random.default_rng(0)
        f = np.asfortranarray(rng.normal(size=(3, 3)) + 3.0 * np.eye(3))
        for t in (LayerTransform(f, np.linalg.inv(f), 0),
                  LayerTransform.general(f, 0)):
            arr = t.forward
            assert arr.flags.f_contiguous and not arr.flags.c_contiguous
            assert not arr.flags.writeable and not np.shares_memory(arr, f)
            np.testing.assert_array_equal(arr, f)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_fortran_built_models_give_the_c_built_bytes(self, seed):
        # weights written as DenseLayer(W.T, ...) arrive F-ordered; the
        # logits match the C-built twin's, and still do once both models
        # have been saved and loaded
        rng = np.random.default_rng(seed)
        dims = rng.integers(2, 80, size=int(rng.integers(3, 5)))
        model = random_model(int(dims[0]), tuple(int(d) for d in dims[1:-1]),
                             int(dims[-1]), seed=int(rng.integers(2**31)))
        x = rng.standard_normal((int(rng.integers(1, 300)), int(dims[0])))
        expect = forward(model, x).tobytes()
        fortran = _built_in("F", model)
        assert forward(fortran, x).tobytes() == expect
        with tempfile.TemporaryDirectory() as d:
            for m, name in ((model, "c.model"), (fortran, "f.model")):
                save_model(m, Path(d) / name)
                assert forward(load_model(Path(d) / name), x).tobytes() == expect

    def test_readers_do_not_copy_a_float64_array(self, monkeypatch):
        rng = np.random.default_rng(1)
        x, square = rng.normal(size=(4, 3)), rng.normal(size=(3, 3))
        seen = []
        inner = model_module._step
        monkeypatch.setattr(model_module, "_step",
                            lambda layer, inputs: seen.append(inputs)
                            or inner(layer, inputs))
        forward(random_model(3, (4,), 2, seed=0), x)
        assert np.shares_memory(seen[0], x)
        assert np.shares_memory(probe_matrix(x, 3), x)
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


def _fold_forward(model, x):
    """forward as it stood before row blocks: one fold over the layers on
    the whole set at once, the oracle for the blocked forward's bytes."""
    for layer in model.layers:
        x = layer.apply(x)
    return x


def _built_in(order, model):
    """model rebuilt from copies of its weights in memory order (C or F)."""
    return MlpModel(tuple(
        DenseLayer(np.asarray(layer.weights, order=order), layer.bias,
                   layer.activation)
        for layer in model.layers), model.input_dim)


@st.composite
def block_edge_cases(draw):
    """(model, inputs): input dims 3-64, 1-2 hidden layers 1-600 wide, 2-16
    classes, and rows on both sides of a block edge, at FORWARD_ROWS or at
    the cap a narrow layer widens (a 1-wide one's rows are drawn as for 2:
    it runs whole), in C order, F order, or strided by rows or columns.
    Widths up to 192, and multiples of 8 above, are drawn more often: a
    model with any other width above 192 runs whole."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = (st.integers(1, 192) | st.integers(25, 75).map(lambda k: 8 * k)
             | st.integers(1, 600))
    dims = [draw(st.integers(3, 64)),
            *draw(st.lists(width, min_size=1, max_size=2)),
            draw(st.integers(2, 16))]
    layers = tuple(
        DenseLayer(rng.standard_normal((fan_out, fan_in)),
                   rng.standard_normal(fan_out),
                   Activation.RELU if k < len(dims) - 2 else Activation.IDENTITY)
        for k, (fan_in, fan_out) in enumerate(zip(dims, dims[1:]))
    )
    cap = max(FORWARD_ROWS, -(-FORWARD_CELLS // max(2, min(dims[1:]))))
    edge = draw(st.sampled_from([FORWARD_ROWS, cap]))
    rows = draw(st.sampled_from([edge - 1, edge + 1, 2 * edge + 1])
                | st.integers(1, 3 * edge))
    layout = draw(st.sampled_from(["C", "F", "rows", "columns"]))
    x = rng.standard_normal((rows * (1 + (layout == "rows")),
                             dims[0] * (1 + (layout == "columns"))))
    x = {"C": x, "F": np.asfortranarray(x), "rows": x[::2],
         "columns": x[:, ::2]}[layout]
    return MlpModel(layers, dims[0]), x


def kernel_edge_cases():
    """(model, inputs) on both sides of OpenBLAS's kernel edges.

    OpenBLAS's small kernel, which sums in another order, takes a product of
    at most about 1,150 rows x width: a 2-class output on 513-1,200 rows,
    and a 64-to-16 layer on a 1-96-row tail past a multiple of FORWARD_ROWS,
    would reach it in a short block. A 300-wide layer's tail columns change
    with any row split."""
    x = np.random.default_rng(0).normal(size=(2100, 32))
    two = random_model(32, (64,), 2, seed=1)
    narrow = random_model(32, (64, 16), 16, seed=2)
    wide = random_model(32, (300,), 16, seed=3)
    cases = [(two, m) for m in range(513, 1201)] + [
        (narrow, k * FORWARD_ROWS + t) for k in (1, 2) for t in range(1, 97)
    ] + [(wide, m) for m in (1025, 2049)]
    return [(model, x[:m]) for model, m in cases]


# run in a child process under another OpenBLAS core and thread count: the
# blocked forward against the whole-set fold, on drawn edge cases and on the
# kernel-edge grid; prints the core OpenBLAS chose
BLOCKS_ON_A_CORE = """
from hypothesis import given, settings
from fuselab import forward
from fuselab.model import _core
from test_model import _fold_forward, block_edge_cases, kernel_edge_cases
print(_core(), flush=True)

@settings(max_examples=25, deadline=None, database=None)
@given(block_edge_cases())
def blocks_match_the_fold(case):
    assert forward(*case).tobytes() == _fold_forward(*case).tobytes()

blocks_match_the_fold()
for model, x in kernel_edge_cases():
    assert forward(model, x).tobytes() == _fold_forward(model, x).tobytes(), (
        model.hidden_widths, len(x))
"""


@pytest.mark.skipif(model_module._openblas() is None,
                    reason="OPENBLAS_CORETYPE needs numpy's bundled OpenBLAS")
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("coretype", ["SkylakeX", "Haswell", "SandyBridge"])
def test_row_blocks_match_the_fold_on_each_core(coretype, threads):
    # OpenBLAS runs an older core's kernels when asked, and a host that
    # cannot run the asked core's instructions gets another: the child
    # names the core it checked
    run = subprocess.run(
        [sys.executable, "-c", BLOCKS_ON_A_CORE], capture_output=True,
        text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
             "OPENBLAS_CORETYPE": coretype, "OPENBLAS_NUM_THREADS": threads},
    )
    core = (run.stdout.splitlines() or ["no core"])[0]
    assert run.returncode == 0, (
        f"blocked forward differs from the whole-set fold on {core} kernels "
        f"({coretype} asked) at {threads} threads:\n{run.stderr}")


class TestLayerLoop:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_outputs_match_the_allocating_expression(self, data):
        # the in-place layer fold, and capture's centered outputs, against
        # the allocating expression; the draws include 3 hidden layers and
        # 1-row inputs (capture needs 2 rows)
        model, _, x = random_case(data.draw, min_rows=1)
        before = x.copy()
        expect, h = [], x
        for layer in model.layers:
            h = layer.activation.apply(h @ layer.weights.T + layer.bias)
            expect.append(h)
        assert forward(model, x).tobytes() == expect[-1].tobytes()
        if x.shape[0] >= 2:
            mats = capture(model, x)
            assert len(mats) == len(expect) - 1
            for mat, h in zip(mats, expect):
                mu = h.mean(axis=0)
                assert mat.column_means.tobytes() == mu.tobytes()
                assert mat.values.tobytes() == (h - mu).tobytes()
        assert x.tobytes() == before.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(block_edge_cases())
    def test_row_blocks_match_the_whole_set_fold(self, case):
        model, x = case
        got = forward(model, x).tobytes()
        assert got == _fold_forward(model, x).tobytes()
        # F-order weights are kept as C copies: the same blocks, the same bytes
        assert forward(_built_in("F", model), x).tobytes() == got

    def test_row_blocks_keep_to_the_whole_sets_kernels(self):
        # blocks run only on the cores whose kernels their rules were
        # measured on; elsewhere forward is the whole-set fold itself
        if model_module._core() not in BLOCK_CORES:
            pytest.skip(f"forward runs whole sets on {model_module._core()}")
        for model, x in kernel_edge_cases():
            got = forward(model, x).tobytes()
            assert got == _fold_forward(model, x).tobytes(), len(x)
        # a model built from F-order weights, whose products some row splits
        # would change, runs as its C-built twin
        twin = random_model(32, (71, 18), 13, seed=3)
        x = np.random.default_rng(0).normal(size=(2049, 32))
        for m in (1025, 2049):
            got = forward(_built_in("F", twin), x[:m]).tobytes()
            assert got == forward(twin, x[:m]).tobytes(), m

    @pytest.mark.parametrize("core", [None, "Haswell", "Zen", *BLOCK_CORES])
    def test_rows_split_only_on_measured_cores(self, monkeypatch, core):
        monkeypatch.setattr(model_module, "_core", lambda: core)
        model = random_model(32, (64, 64), 16, seed=5)
        rows = model_module._block_rows(model)
        assert rows == (FORWARD_ROWS if core in BLOCK_CORES else sys.maxsize)

    def test_forward_holds_a_block(self):
        # a (64, 64) model on 4,000 rows runs in blocks of 500 rows: the
        # forward peaks at 0.53 of one hidden output's bytes, where the
        # whole-set fold, which runs off BLOCK_CORES, holds two hidden
        # outputs at once (2.28)
        model = random_model(32, (64, 64), 16, seed=5)
        x = np.random.default_rng(0).normal(size=(4000, 32))
        forward(model, x)  # warm up numpy's and BLAS's own buffers
        tracemalloc.start()
        try:
            forward(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = 1.0 if model_module._core() in BLOCK_CORES else 2.5
        assert peak < held * (4000 * 64 * 8)

    def test_forward_holds_one_layer_at_a_time(self):
        # three 512-wide hidden layers on 2000 rows: the fold holds at most
        # two hidden outputs at once; a list of them would hold three
        model = random_model(8, (512, 512, 512), 4, seed=5)
        x = np.random.default_rng(0).normal(size=(2000, 8))
        forward(model, x)  # warm up numpy's and BLAS's own buffers
        tracemalloc.start()
        try:
            forward(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * (2000 * 512 * 8)


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

"""Maximum-score assignment and permutation-based alignment plans."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from fuselab import (
    Assignment,
    MethodTag,
    ShapeError,
    ValidationError,
    apply_plan,
    forward,
    identity_plan,
    linear_sum_assignment,
    permute_plan,
)
from fuselab.activations import ActivationMatrix, correlations
from fuselab.matching import SCORE_RTOL

from _helpers import permuted_twin, random_model


def _brute_force(m):
    """All optimal mappings by enumeration, lexicographically sorted."""
    n = m.shape[0]
    best = -np.inf
    winners = []
    for perm in itertools.permutations(range(n)):
        score = float(m[np.arange(n), perm].sum())
        if score > best:
            best, winners = score, [perm]
        elif score == best:
            winners.append(perm)
    return best, sorted(winners)


def _best_score(matrix):
    rows, cols = optimize.linear_sum_assignment(matrix, maximize=True)
    return float(matrix[rows, cols].sum())


def _greedy_oracle(c):
    """The full-matrix canonical assignment the fast path replaced.

    Fixes rows in order, each to the smallest column whose best completion
    still reaches the optimum: O(n^2) solver calls.
    """
    m = np.asarray(c, dtype=np.float64)
    n = m.shape[0]
    optimum = _best_score(m)
    tol = SCORE_RTOL * max(1.0, abs(optimum))
    available = list(range(n))
    mapping = np.empty(n, dtype=np.intp)
    prefix = 0.0
    for i in range(n):
        for j in available:
            rest_cols = [c_ for c_ in available if c_ != j]
            rest = _best_score(m[i + 1 :, rest_cols]) if rest_cols else 0.0
            if prefix + m[i, j] + rest >= optimum - tol:
                mapping[i] = j
                prefix += m[i, j]
                available.remove(j)
                break
        else:  # pragma: no cover - the optimum always extends
            raise ValidationError("assignment canonicalization failed")
    total = float(m[np.arange(n), mapping].sum())
    return Assignment(mapping, total)


@st.composite
def tie_heavy_matrices(draw):
    """Square score matrices built to contain many exactly tied optima."""
    n = draw(st.integers(1, 12))
    element = draw(
        st.sampled_from(
            [
                st.integers(0, 2).map(float),
                st.floats(-1.0, 1.0).map(lambda v: round(v, 1)),
            ]
        )
    )
    entries = draw(st.lists(element, min_size=n * n, max_size=n * n))
    m = np.array(entries, dtype=np.float64).reshape(n, n)
    index = st.integers(0, n - 1)
    # dead neurons give all-zero rows and columns of a correlation matrix
    m[draw(st.lists(index, max_size=n // 2)), :] = 0.0
    m[:, draw(st.lists(index, max_size=n // 2))] = 0.0
    for src, dst in draw(st.lists(st.tuples(index, index), max_size=n)):
        m[:, dst] = m[:, src]
    return m


class TestAgainstGreedyOracle:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_matrices())
    def test_fast_path_equals_oracle(self, m):
        out, oracle = linear_sum_assignment(m), _greedy_oracle(m)
        np.testing.assert_array_equal(out.mapping, oracle.mapping)
        assert out.total_score == oracle.total_score

    def test_wide_correlations_with_dead_neurons_equal_oracle(self):
        rng = np.random.default_rng(79)
        for _ in range(4):
            m = np.round(np.tanh(rng.normal(size=(40, 40))), 1)
            m[rng.integers(0, 40, size=5), :] = 0.0
            m[:, rng.integers(0, 40, size=5)] = 0.0
            out, oracle = linear_sum_assignment(m), _greedy_oracle(m)
            np.testing.assert_array_equal(out.mapping, oracle.mapping)
            assert out.total_score == oracle.total_score

    def test_tie_free_matrix_takes_one_solver_call(self, monkeypatch):
        calls = []
        solver = optimize.linear_sum_assignment

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return solver(*args, **kwargs)

        monkeypatch.setattr(optimize, "linear_sum_assignment", counted)
        m = np.random.default_rng(80).normal(size=(128, 128))
        out = linear_sum_assignment(m)
        assert calls == [(128, 128)]
        _, cols = solver(m, maximize=True)
        np.testing.assert_array_equal(out.mapping, cols)


def test_import_leaves_scipy_optimize_unloaded():
    code = "import sys, fuselab; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "False"


class TestLinearSumAssignment:
    def test_two_by_two(self):
        out = linear_sum_assignment(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_array_equal(out.mapping, [0, 1])
        assert out.total_score == 4.0

    def test_antidiagonal(self):
        out = linear_sum_assignment(np.array([[0.0, 5.0], [5.0, 0.0]]))
        np.testing.assert_array_equal(out.mapping, [1, 0])
        assert out.total_score == 10.0

    def test_tie_takes_lexicographically_smallest(self):
        out = linear_sum_assignment(np.ones((3, 3)))
        np.testing.assert_array_equal(out.mapping, [0, 1, 2])
        out = linear_sum_assignment(np.array([[2.0, 0.0], [2.0, 0.0]]))
        np.testing.assert_array_equal(out.mapping, [0, 1])

    def test_matches_brute_force_on_random_floats(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            m = rng.normal(size=(n, n))
            out = linear_sum_assignment(m)
            best, winners = _brute_force(m)
            assert out.total_score == best
            assert tuple(out.mapping) == winners[0]

    def test_matches_brute_force_on_tie_heavy_integers(self):
        # small integer entries force many exact ties, stressing the
        # canonicalization rather than the optimizer
        rng = np.random.default_rng(78)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            m = rng.integers(0, 3, size=(n, n)).astype(np.float64)
            out = linear_sum_assignment(m)
            best, winners = _brute_force(m)
            assert out.total_score == best
            assert tuple(out.mapping) == winners[0]

    def test_accepts_correlation_matrix(self, rng):
        x = rng.normal(size=(50, 4))
        a = ActivationMatrix(x - x.mean(axis=0), x.mean(axis=0), 0, 50)
        out = linear_sum_assignment(correlations(a, a))
        np.testing.assert_array_equal(out.mapping, [0, 1, 2, 3])

    def test_input_checks(self):
        with pytest.raises(ShapeError):
            linear_sum_assignment(np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            linear_sum_assignment(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_mapping_is_read_only(self):
        out = linear_sum_assignment(np.eye(2))
        with pytest.raises(ValueError):
            out.mapping[0] = 1


class TestIdentityPlan:
    def test_transforms_are_identity(self):
        model = random_model(3, (5, 4), 2, seed=0)
        plan = identity_plan(model)
        assert plan.method_tag is MethodTag.IDENTITY
        assert len(plan.transforms) == 2
        np.testing.assert_array_equal(plan.transforms[0].forward, np.eye(5))
        np.testing.assert_array_equal(plan.transforms[1].forward, np.eye(4))

    def test_application_is_a_no_op(self, rng):
        model = random_model(3, (5, 4), 2, seed=0)
        out = apply_plan(model, identity_plan(model))
        x = rng.normal(size=(10, 3))
        np.testing.assert_array_equal(forward(out, x), forward(model, x))


class TestPermutePlan:
    def test_recovers_planted_permutation(self, rng):
        model = random_model(4, (8, 8), 3, seed=1)
        plan, twin = permuted_twin(model, seed=2)
        probes = rng.normal(size=(300, 4))
        found = permute_plan(model, twin, probes)
        assert found.method_tag is MethodTag.PERMUTE
        for t, planted in zip(found.transforms, plan.transforms):
            np.testing.assert_array_equal(t.inverse, t.forward.T)
            # aligning the twin back means inverting the planted shuffle
            np.testing.assert_array_equal(t.forward, planted.inverse)

    def test_aligned_twin_matches_original(self, rng):
        model = random_model(4, (8, 8), 3, seed=3)
        _, twin = permuted_twin(model, seed=4)
        probes = rng.normal(size=(300, 4))
        aligned = apply_plan(twin, permute_plan(model, twin, probes))
        x = rng.normal(size=(50, 4))
        np.testing.assert_allclose(forward(aligned, x), forward(model, x), atol=1e-10)

    def test_self_plan_is_identity(self, rng):
        model = random_model(4, (6, 6), 3, seed=5)
        probes = rng.normal(size=(200, 4))
        plan = permute_plan(model, model, probes)
        for t in plan.transforms:
            np.testing.assert_array_equal(t.forward, np.eye(6))


class TestAssignmentContainer:
    def test_fields_preserved(self):
        a = Assignment(np.array([1, 0]), 3.5)
        assert a.total_score == 3.5
        assert a.mapping.dtype == np.intp

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
from fuselab import matching
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


def _scipy_sigma(m):
    """scipy's optimum: the reference solver, used only in tests."""
    return optimize.linear_sum_assignment(m, maximize=True)[1]


def _best_score(matrix):
    return float(matrix[np.arange(len(matrix)), _scipy_sigma(matrix)].sum())


def _greedy(m, optimum, tol):
    """Lexicographically smallest mapping scoring within tol of optimum.

    Fixes rows in order, each to the smallest column whose best completion
    still reaches the optimum: O(n^2) solver calls.
    """
    n = m.shape[0]
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
    return mapping


def _greedy_oracle(c):
    """The canonical assignment by the greedy over the full matrix."""
    m = np.asarray(c, dtype=np.float64)
    optimum = _best_score(m)
    mapping = _greedy(m, optimum, SCORE_RTOL * max(1.0, abs(optimum)))
    return Assignment(mapping, float(m[np.arange(len(m)), mapping].sum()))


def _cheapest_cycles(m, sigma):
    """Cost of the cheapest exchange-graph cycle through each row, by
    Floyd-Warshall: only rows on a cycle costing at most the slack can tie.
    A cycle that rounds below zero compounds here, so its costs are valid
    only while every cycle reads >= -slack.
    """
    own = m[np.arange(m.shape[0]), sigma]
    d = own[:, None] - m[:, sigma]
    np.fill_diagonal(d, np.inf)
    step = np.empty_like(d)
    for k in range(d.shape[0]):  # one pivot row per round
        np.add(d[:, k, None], d[None, k, :], out=step)
        np.minimum(d, step, out=d)
    return np.diagonal(d)


def _slack(m, tol):
    """Twice the tolerance, plus rounding of a cycle's n terms."""
    eps = np.finfo(np.float64).eps
    return 2.0 * tol + 4.0 * m.shape[0] * eps * float(np.abs(m).max(initial=0.0))


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


@st.composite
def near_tie_matrices(draw):
    """2-8 wide matrices of 1-decimal entries, a third of the rows zeroed,
    under Gaussian jitter of about the tolerance, so that some assignments
    score just within tol of the optimum and some just beyond it."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = np.round(rng.uniform(-1.0, 1.0, size=(n, n)), 1)
    m[rng.integers(0, n, size=n // 3)] = 0.0
    jitter = draw(st.sampled_from([0.0, 1e-13, 1e-12, 3e-12, 1e-11]))
    return m + jitter * rng.normal(size=(n, n))


class TestAgainstGreedyOracle:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_matrices())
    def test_fast_path_equals_oracle(self, m):
        out, oracle = linear_sum_assignment(m), _greedy_oracle(m)
        np.testing.assert_array_equal(out.mapping, oracle.mapping)
        assert out.total_score == oracle.total_score

    @settings(max_examples=300, deadline=None)
    @given(near_tie_matrices())
    def test_near_ties_equal_oracle(self, m):
        # the tolerance bounds the whole mapping's shortfall, not each
        # exchange's
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


@st.composite
def wide_tie_matrices(draw):
    """1-128 wide correlation-like matrices with planted ties: rounded
    rows, dead (zeroed) rows and columns, duplicated columns and a
    constant block; few enough tied rows for the greedy to stay quick."""
    n = draw(st.integers(1, 128))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = np.tanh(rng.normal(size=(n, n)))
    index = st.integers(0, n - 1)
    rounded = draw(st.lists(index, max_size=12))
    m[rounded] = np.round(m[rounded], draw(st.sampled_from([0, 1])))
    m[draw(st.lists(index, max_size=6)), :] = 0.0
    m[:, draw(st.lists(index, max_size=6))] = 0.0
    for src, dst in draw(st.lists(st.tuples(index, index), max_size=6)):
        m[:, dst] = m[:, src]
    first = draw(index)
    size = draw(st.integers(0, min(6, n - first)))
    m[first : first + size, first : first + size] = 0.5
    return m


def _greedy_over(m, sigma, rows, tol):
    """sigma with the given rows canonicalized by the greedy."""
    mapping = sigma.astype(np.intp)
    if rows.size:
        cols = np.sort(sigma[rows])
        sub = m[np.ix_(rows, cols)]
        sub_optimum = float(m[rows, sigma[rows]].sum())
        mapping[rows] = cols[_greedy(sub, sub_optimum, tol)]
    return mapping


def _tenths(tenths, picos):
    """A matrix of tenths, each entry shifted by a whole number of 1e-12."""
    return np.array(tenths) / 10 + 1e-12 * np.array(picos)


class TestTieRows:
    """Against the greedy over the rows on Floyd-Warshall's cheap cycles."""

    @settings(max_examples=60, deadline=None)
    @given(wide_tie_matrices())
    def test_equals_greedy_over_cycle_rows(self, m):
        sigma = _scipy_sigma(m)
        optimum = float(m[np.arange(len(m)), sigma].sum())
        tol = SCORE_RTOL * max(1.0, abs(optimum))
        rows = np.flatnonzero(_cheapest_cycles(m, sigma) <= _slack(m, tol))
        mapping = _greedy_over(m, sigma, rows, tol)
        out = linear_sum_assignment(m)
        assert out.mapping.tobytes() == mapping.tobytes()
        assert out.total_score == float(m[np.arange(len(m)), mapping].sum())
        assert abs(out.total_score - optimum) <= tol

    @pytest.mark.parametrize(
        "entries",
        [
            # an exactly zero exchange cycle that rounds below zero under
            # the solver's optimum
            [[0.3, 0.2, 0.1], [0.1, 0.7, 0.6], [0.1, 0.2, 0.1]],
            # the same under scipy's optimum only
            [[0.1, 0.3, 0.7, 0.3], [0.2, 0.7, 0.6, 0.6],
             [0.2, 0.2, 0.3, 0.1], [0.3, 0.2, 0.3, 0.1]],
            # rows 0 and 1 lie on a cycle costing 1e-12, at the tolerance,
            # and one of its reduced costs rounds below zero: the filters
            # need their noise margin to keep the greedy's mapping
            [[0.250000000002, 0.249999999998, 0.25, 0.250000000002],
             [0.25, 0.0, 0.25, 0.249999999999],
             [-1e-12, 0.0, 0.25, 0.0],
             [0.0, 0.25, -5e-13, 0.2500000000015]],
            # the canonical mapping scores 3e-12 below the optimum, within
            # tol, and only potentials shifted by the owners before each
            # move find it
            _tenths([[9, 9, -2, 9, -9], [0, 0, 0, 0, 0], [4, 1, -1, -2, 7],
                     [-1, -9, 8, 1, -1], [-3, 8, -3, 8, -4]],
                    [[-2, -3, 0, 0, 0], [0, 2, -1, 0, 0], [2, -1, -1, 0, 0],
                     [-1, 0, -1, 0, 0], [1, 0, 0, -3, 0]]),
            # rows 1 and 3 may each give up 1e-12, but not both: tol is 1.2e-12
            _tenths([[1, 1, 2, 1], [-1, 5, 0, 5], [0, -2, 6, -9], [0, 0, 0, 0]],
                    [[0, 0, 0, 0], [0, 1, -3, 0], [0, -1, 0, 0], [0, 0, 0, -2]]),
        ],
        ids=["below-zero-3x3", "below-zero-4x4", "cycle-within-tol",
             "old-owners", "total-budget"],
    )
    def test_pinned_cases_equal_oracle(self, entries):
        out, oracle = linear_sum_assignment(entries), _greedy_oracle(entries)
        np.testing.assert_array_equal(out.mapping, oracle.mapping)
        assert out.total_score == oracle.total_score


def _solver_calls(monkeypatch):
    """The shapes that matching._shortest_augmenting_paths is called with."""
    calls = []
    solver = matching._shortest_augmenting_paths

    def counted(cost):
        calls.append(cost.shape)
        return solver(cost)

    monkeypatch.setattr(matching, "_shortest_augmenting_paths", counted)
    return calls


class TestAgainstScipy:
    """scipy's solver, a test-only dependency, as the reference optimum."""

    @pytest.mark.parametrize("n", [0, 129, 256, 512])
    def test_tie_free_matrix_takes_one_solver_call(self, monkeypatch, n):
        calls = _solver_calls(monkeypatch)
        m = np.tanh(np.random.default_rng(81).normal(size=(n, n)))
        out = linear_sum_assignment(m)
        assert calls == [(n, n)]
        np.testing.assert_array_equal(out.mapping, _scipy_sigma(m))

    def test_tied_matrix_takes_one_solver_call(self, monkeypatch):
        # rounding leaves 114 rows that can tie; breaking the ties needs
        # no second solve
        calls = _solver_calls(monkeypatch)
        m = np.round(np.tanh(np.random.default_rng(0).normal(size=(128, 128))), 1)
        out = linear_sum_assignment(m)
        assert calls == [(128, 128)]
        optimum = _best_score(m)
        assert abs(out.total_score - optimum) <= SCORE_RTOL * abs(optimum)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(13, 128),
        st.sampled_from([None, 1, 0]),
        st.integers(0, 2**32 - 1),
    )
    def test_numpy_solver_equals_scipy(self, n, decimals, seed):
        rng = np.random.default_rng(seed)
        m = np.tanh(rng.normal(size=(n, n)))
        if decimals is not None:  # rounding plants ties
            m = np.round(m, decimals)
        cols, _ = matching._shortest_augmenting_paths(-m)
        assert np.array_equal(np.sort(cols), np.arange(n))
        score = float(m[np.arange(n), cols].sum())
        optimum = _best_score(m)
        tol = SCORE_RTOL * max(1.0, abs(optimum))
        assert abs(score - optimum) <= tol
        assert abs(linear_sum_assignment(m).total_score - optimum) <= tol


# importing fuselab, then commands at the default widths (64, 64), at
# (128, 128) and at (256, 256); after each step, whether scipy.optimize is
# loaded
DEFAULT_WIDTH_RUNS = """
import contextlib, io, sys
import fuselab
from fuselab.cli import main

root = sys.argv[1]
data, loaded = root + "/train.ds", ["scipy.optimize" in sys.modules]


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0
    loaded.append("scipy.optimize" in sys.modules)


size = ["--classes", "4", "--per-class", "25", "--dim", "6"]
run("gen-data", *size, "--out", data)
models = [f"{root}/m{seed}.model" for seed in range(3)]
for seed, path in enumerate(models):
    run("train", "--data", data, "--seed", str(seed), "--epochs", "1",
        "--out", path)
run("merge", *models, "--method", "permute", "--probes", data,
    "--out", root + "/merged")
run("analyze", *models, "--probes", data)
run("experiment", *size, "--epochs", "1", "--test-per-class", "10",
    "--grid", "3", "--out", root + "/experiment")
wide = [f"{root}/w{seed}.model" for seed in range(3)]
for seed, path in enumerate(wide):
    run("train", "--data", data, "--seed", str(seed), "--epochs", "1",
        "--widths", "128,128", "--out", path)
run("merge", *wide, "--method", "permute", "--probes", data,
    "--out", root + "/merged-wide")
run("analyze", *wide, "--probes", data)
wider = [f"{root}/x{seed}.model" for seed in range(3)]
for seed, path in enumerate(wider):
    run("train", "--data", data, "--seed", str(seed), "--epochs", "1",
        "--widths", "256,256", "--out", path)
run("merge", *wider, "--method", "permute", "--probes", data,
    "--out", root + "/merged-wider")
run("analyze", *wider, "--probes", data)
print(loaded)
"""


def test_import_leaves_scipy_optimize_unloaded(tmp_path):
    # every assignment runs in numpy: 3-model permute merges and analyze,
    # at any width, and a default experiment never import scipy.optimize
    out = subprocess.run(
        [sys.executable, "-c", DEFAULT_WIDTH_RUNS, str(tmp_path)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == str([False] * 18)


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

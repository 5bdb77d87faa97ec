"""Maximum-score assignment and permutation-based alignment plans."""

import itertools
import os
import subprocess
import sys
from unittest.mock import patch

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


def _cheapest_cycles(m, sigma):
    """Cost of the cheapest exchange-graph cycle through each row.

    The Floyd-Warshall search the potential filter replaced. A cycle that
    rounds below zero compounds here, so its costs are valid only while
    every cycle reads >= -slack.
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
    """The slack for cycle costs that the search it replaced used."""
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
        m = np.random.default_rng(80).normal(size=(129, 129))
        out = linear_sum_assignment(m)
        assert calls == [(129, 129)]
        _, cols = solver(m, maximize=True)
        np.testing.assert_array_equal(out.mapping, cols)


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


class TestTieRows:
    """The potential filter against the Floyd-Warshall cycle search."""

    @settings(max_examples=60, deadline=None)
    @given(wide_tie_matrices())
    def test_filter_keeps_every_tied_row(self, m):
        outs = []
        for width in (matching.NUMPY_SOLVER_WIDTH, 0):  # numpy's, scipy's
            with patch.object(matching, "NUMPY_SOLVER_WIDTH", width):
                optimum, sigma, prices = matching._best_score(m)
                out = linear_sum_assignment(m)
            tol = SCORE_RTOL * max(1.0, abs(optimum))
            slack = _slack(m, tol)
            rows = matching._tie_rows(m, sigma, prices, tol)
            cycles = _cheapest_cycles(m, sigma)
            oracle = np.flatnonzero(cycles <= slack)
            if cycles.min(initial=0.0) >= -slack:
                assert set(oracle) <= set(rows)
            # the search it replaced: the greedy over the oracle's rows
            mapping = sigma.copy()
            if oracle.size:
                cols = np.sort(sigma[oracle])
                sub = m[np.ix_(oracle, cols)]
                sub_optimum = float(m[oracle, sigma[oracle]].sum())
                mapping[oracle] = cols[matching._greedy(sub, sub_optimum, tol)]
            assert out.mapping.tobytes() == mapping.astype(np.intp).tobytes()
            assert out.total_score == float(m[np.arange(len(m)), mapping].sum())
            outs.append(out)
        assert outs[0].mapping.tobytes() == outs[1].mapping.tobytes()
        assert outs[0].total_score == outs[1].total_score

    @pytest.mark.parametrize(
        "width, rows",
        [
            (128, [[0.3, 0.2, 0.1], [0.1, 0.7, 0.6], [0.1, 0.2, 0.1]]),
            (0, [[0.1, 0.3, 0.7, 0.3], [0.2, 0.7, 0.6, 0.6],
                 [0.2, 0.2, 0.3, 0.1], [0.3, 0.2, 0.3, 0.1]]),
        ],
    )
    def test_zero_cycle_rounded_below_zero(self, width, rows):
        # an exactly zero exchange cycle whose rounded cost is negative:
        # potentials along it keep falling, so only the sweeps' stop rule
        # and cap end the Bellman-Ford loop
        m = np.array(rows)
        with patch.object(matching, "NUMPY_SOLVER_WIDTH", width):
            _, sigma, _ = matching._best_score(m)
            out = linear_sum_assignment(m)
        assert _cheapest_cycles(m, sigma).min() < 0
        oracle = _greedy_oracle(m)
        np.testing.assert_array_equal(out.mapping, oracle.mapping)
        assert out.total_score == oracle.total_score


    def test_margin_keeps_a_cycle_costing_under_the_slack(self):
        # scipy's path starts from zero potentials, and the sweeps stop once
        # none falls by more than the slack (2e-12): edge 0 -> 1 reads
        # -1.5e-12. Rows 0 and 1 lie on a cycle costing 1e-12, so edge
        # 1 -> 0 reads 2.5e-12, above the slack; only the margin for negative
        # reduced costs keeps the two rows, and without them sigma stands
        m = np.array([
            [0.250000000002, 0.249999999998, 0.25, 0.250000000002],
            [0.25, 0.0, 0.25, 0.249999999999],
            [-1e-12, 0.0, 0.25, 0.0],
            [0.0, 0.25, -5e-13, 0.2500000000015],
        ])
        with patch.object(matching, "NUMPY_SOLVER_WIDTH", 0):
            optimum, sigma, prices = matching._best_score(m)
            out = linear_sum_assignment(m)
        tol = SCORE_RTOL * max(1.0, abs(optimum))
        rows = matching._tie_rows(m, sigma, prices, tol)
        cycles = _cheapest_cycles(m, sigma)
        assert set(np.flatnonzero(cycles <= _slack(m, tol))) <= set(rows)
        oracle = _greedy_oracle(m)
        assert not np.array_equal(sigma, oracle.mapping)
        np.testing.assert_array_equal(out.mapping, oracle.mapping)
        assert out.total_score == oracle.total_score


class TestSolverChoice:
    """Up to NUMPY_SOLVER_WIDTH the numpy solver runs, wider ones scipy's."""

    @pytest.mark.parametrize(
        "n, scipy_calls", [(128, []), (129, [(129, 129)]), (0, [])]
    )
    def test_width_picks_the_solver(self, monkeypatch, n, scipy_calls):
        assert matching.NUMPY_SOLVER_WIDTH == 128
        calls = []
        solver = optimize.linear_sum_assignment

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return solver(*args, **kwargs)

        monkeypatch.setattr(optimize, "linear_sum_assignment", counted)
        m = np.random.default_rng(81).normal(size=(n, n))
        out = linear_sum_assignment(m)
        assert calls == scipy_calls
        _, cols = solver(m, maximize=True)
        np.testing.assert_array_equal(out.mapping, cols)

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
        score, cols, _ = matching._best_score(m)
        assert np.array_equal(np.sort(cols), np.arange(n))
        rows, best = optimize.linear_sum_assignment(m, maximize=True)
        optimum = float(m[rows, best].sum())
        assert abs(score - optimum) <= SCORE_RTOL * max(1.0, abs(optimum))
        out = linear_sum_assignment(m)
        with patch.object(matching, "NUMPY_SOLVER_WIDTH", 0):
            via_scipy = linear_sum_assignment(m)
        np.testing.assert_array_equal(out.mapping, via_scipy.mapping)
        assert out.total_score == via_scipy.total_score


# importing fuselab, then commands at the default widths (64, 64) and at
# (128, 128); after each step, whether scipy.optimize is loaded
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
print(loaded)
"""


def test_import_leaves_scipy_optimize_unloaded(tmp_path):
    # assignments up to 128 wide run in numpy: 3-model permute merges,
    # analyze and a default experiment never import scipy.optimize either
    out = subprocess.run(
        [sys.executable, "-c", DEFAULT_WIDTH_RUNS, str(tmp_path)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == str([False] * 13)


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

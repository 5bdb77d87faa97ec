"""Canonical correlation alignment: whitening, solutions, ridge selection."""

import contextlib
import io
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuselab import (
    CcaSolution,
    DenseLayer,
    GammaSelectionError,
    MethodTag,
    MlpModel,
    NumericalError,
    ShapeError,
    ValidationError,
    accuracy,
    apply_plan,
    average_models,
    capture,
    cca_plan,
    default_gamma,
    format_report,
    forward,
    generate,
    inv_sqrt,
    load_model,
    merge_and_report,
    merge_many,
    merge_pair,
    save_dataset,
    save_model,
    select_gamma,
    solve_cca,
    solve_layers,
    strip_timestamp,
)
from fuselab import merge
from fuselab.activations import ActivationMatrix, _pair_stats, scatter
from fuselab.cca import (
    GAMMA_GRID_COEFFS,
    _grid,
    build_transform,
    plan_from_solutions,
)
from fuselab.cli import METHOD_NAMES, main, parse_args
from fuselab.evaluation import summaries_from_solutions

from _helpers import (
    blown_up,
    count_calls,
    model_bytes,
    outcome,
    permuted_twin,
    random_model,
    random_monomial_plan,
)


def _mat(values, layer_index=0):
    values = np.asarray(values, dtype=np.float64)
    mu = values.mean(axis=0)
    return ActivationMatrix(values - mu, mu, layer_index, values.shape[0])


def _random_spd(rng, n, jitter=0.1):
    a = rng.normal(size=(n, n))
    return a @ a.T + jitter * np.eye(n)


class TestInvSqrt:
    def test_diagonal_case(self):
        # diag(4, 9)^(-1/2) is diag(1/2, 1/3)
        out = inv_sqrt(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(out, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_defining_property(self, rng):
        for _ in range(20):
            s = _random_spd(rng, 5)
            r = inv_sqrt(s)
            np.testing.assert_allclose(r @ s @ r, np.eye(5), atol=1e-9)

    def test_square_equals_inverse(self, rng):
        s = _random_spd(rng, 4)
        r = inv_sqrt(s)
        np.testing.assert_allclose(r @ r, np.linalg.inv(s), atol=1e-9)

    def test_ridge_shifts_spectrum(self, rng):
        s = _random_spd(rng, 4)
        np.testing.assert_allclose(
            inv_sqrt(s, gamma=0.7), inv_sqrt(s + 0.7 * np.eye(4)), atol=1e-12
        )

    def test_rank_deficient_stays_finite(self):
        s = np.zeros((3, 3))
        s[0, 0] = 1.0
        out = inv_sqrt(s, gamma=0.0)
        assert np.all(np.isfinite(out))

    def test_input_checks(self, rng):
        with pytest.raises(ShapeError):
            inv_sqrt(np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            inv_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValidationError):
            inv_sqrt(np.eye(2), gamma=-1.0)
        with pytest.raises(ValidationError):
            inv_sqrt(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_non_finite_gamma_rejected(self):
        for gamma in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="gamma"):
                inv_sqrt(np.eye(2), gamma=gamma)


class TestSolveCca:
    def test_self_pair_is_identity(self, rng):
        a = _mat(rng.normal(size=(200, 6)))
        sol = solve_cca(scatter(a, a, gamma=0.0))
        np.testing.assert_allclose(sol.correlations, 1.0, atol=1e-8)
        np.testing.assert_allclose(sol.p_a, sol.p_b, atol=1e-8)
        t = build_transform(sol, 0)
        np.testing.assert_allclose(t.forward, np.eye(6), atol=1e-6)

    @pytest.mark.parametrize(
        "p_a, layer", [(np.zeros((3, 3)), 0), (np.diag([1.0, 1.0, 1e-15]), 2)]
    )
    def test_singular_projection_basis_is_named(self, p_a, layer):
        # singular for the solve, then below the reciprocal-condition floor
        sol = CcaSolution(p_a, np.eye(3), np.ones(3), 0.0)
        with pytest.raises(NumericalError) as info:
            build_transform(sol, layer)
        message = str(info.value)
        assert message.startswith(f"projection basis at layer {layer} ")
        assert "; increase gamma" in message

    def test_projections_whiten_the_scatter(self, rng):
        for _ in range(10):
            a = _mat(rng.normal(size=(300, 5)))
            b = _mat(rng.normal(size=(300, 5)))
            stats = scatter(a, b, gamma=0.0)
            sol = solve_cca(stats)
            np.testing.assert_allclose(
                sol.p_a.T @ stats.s_aa @ sol.p_a, np.eye(5), atol=1e-8
            )
            np.testing.assert_allclose(
                sol.p_b.T @ stats.s_bb @ sol.p_b, np.eye(5), atol=1e-8
            )

    def test_cross_scatter_diagonalized(self, rng):
        a = _mat(rng.normal(size=(300, 4)))
        b = _mat(rng.normal(size=(300, 4)))
        stats = scatter(a, b, gamma=0.0)
        sol = solve_cca(stats)
        cross = sol.p_a.T @ stats.s_ab @ sol.p_b
        np.testing.assert_allclose(cross, np.diag(sol.correlations), atol=1e-8)

    def test_correlations_sorted_and_bounded(self, rng):
        a = _mat(rng.normal(size=(100, 7)))
        b = _mat(rng.normal(size=(100, 7)))
        sol = solve_cca(scatter(a, b, gamma=0.0))
        assert np.all(sol.correlations >= 0.0)
        assert np.all(sol.correlations <= 1.0)
        assert np.all(np.diff(sol.correlations) <= 1e-12)

    def test_shared_signal_found(self, rng):
        z = rng.normal(size=(400, 1))
        a = _mat(np.hstack([z, rng.normal(size=(400, 1))]))
        b = _mat(np.hstack([rng.normal(size=(400, 1)), z]))
        sol = solve_cca(scatter(a, b, gamma=0.0))
        np.testing.assert_allclose(sol.correlations[0], 1.0, atol=1e-10)
        assert sol.correlations[1] < 0.3

    def test_two_dim_matches_angle_grid(self, rng):
        # brute-force oracle: scan unit directions on both sides and take
        # the best absolute correlation of the projected samples
        def grid_best(xa, xb, steps=600):
            angles = np.linspace(0.0, np.pi, steps, endpoint=False)
            dirs = np.stack([np.cos(angles), np.sin(angles)])
            ya = xa @ dirs
            yb = xb @ dirs
            ya = ya - ya.mean(axis=0)
            yb = yb - yb.mean(axis=0)
            ya /= np.linalg.norm(ya, axis=0)
            yb /= np.linalg.norm(yb, axis=0)
            return float(np.max(np.abs(ya.T @ yb)))

        for trial in range(3):
            xa = rng.normal(size=(250, 2))
            xb = 0.5 * xa @ rng.normal(size=(2, 2)) + rng.normal(size=(250, 2))
            sol = solve_cca(scatter(_mat(xa), _mat(xb), gamma=0.0))
            assert abs(sol.correlations[0] - grid_best(xa, xb)) < 1e-3

    def test_deterministic(self, rng):
        a = _mat(rng.normal(size=(80, 5)))
        b = _mat(rng.normal(size=(80, 5)))
        stats = scatter(a, b, gamma=1e-3)
        s1 = solve_cca(stats)
        s2 = solve_cca(stats)
        np.testing.assert_array_equal(s1.p_a, s2.p_a)
        np.testing.assert_array_equal(s1.p_b, s2.p_b)


class TestTransformRecovery:
    def test_invertible_mixing_recovered_exactly(self, rng):
        # when b's features are an invertible recombination of a's,
        # the aligned transform undoes that recombination
        for _ in range(10):
            n = 5
            xa = rng.normal(size=(400, n))
            g = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
            xb = xa @ g
            sol = solve_cca(scatter(_mat(xa), _mat(xb), gamma=0.0))
            t = build_transform(sol, 0)
            np.testing.assert_allclose(t.forward @ g.T, np.eye(n), atol=1e-6)
            # applying the transform to b's features restores a's
            np.testing.assert_allclose(
                (xb - xb.mean(axis=0)) @ t.forward.T,
                xa - xa.mean(axis=0),
                atol=1e-6,
            )

    def test_plan_recovers_monomially_mixed_twin(self, rng):
        model = random_model(3, (10, 10), 4, seed=5)
        plan = random_monomial_plan((10, 10), seed=6)
        twin = apply_plan(model, plan)
        probes = rng.normal(size=(800, 3))
        recovered = apply_plan(twin, cca_plan(model, twin, probes, gamma=1e-8))
        np.testing.assert_allclose(
            forward(recovered, probes), forward(model, probes), atol=1e-6
        )


class TestGammaHandling:
    def test_default_gamma_formula(self):
        s = np.diag([2.0, 4.0])
        assert default_gamma(s, s) == pytest.approx(1e-3 * 3.0)

    @pytest.mark.parametrize("s_aa, s_bb", [
        (np.ones(2), np.ones(2)),  # np.diag of a vector builds a matrix
        (np.eye(2), np.eye(3)),
        (np.ones((2, 3)), np.ones((2, 3))),
        (np.zeros((0, 0)), np.zeros((0, 0))),
    ], ids=["vectors", "mismatched", "not-square", "empty"])
    def test_default_gamma_needs_square_grams_of_one_shape(self, s_aa, s_bb):
        with pytest.raises(ShapeError):
            default_gamma(s_aa, s_bb)

    def test_solve_layers_records_gamma(self, small_pair, small_task):
        train_ds, _ = small_task
        a, b = small_pair
        probes = train_ds.features[:100]
        sols = solve_layers(a, b, probes, gamma=0.25)
        assert len(sols) == 2
        assert all(s.gamma == 0.25 for s in sols)
        auto = solve_layers(a, b, probes)
        assert all(s.gamma > 0 for s in auto)

    def test_gamma_grid_scales(self, small_pair, small_task):
        train_ds, _ = small_task
        a, b = small_pair
        grid = _grid(next(_pair_stats([a, b], 0, train_ds.features[:100])))
        assert grid == _gamma_grid_oracle(a, b, train_ds.features[:100])
        assert len(grid) == len(GAMMA_GRID_COEFFS)
        ratios = np.diff(np.log10(grid))
        np.testing.assert_allclose(ratios, 1.0, atol=1e-9)

    def test_select_gamma_tie_goes_to_larger(self, small_task):
        # a permuted twin merges back to the reference for any tiny ridge, so
        # the candidates score identically and the largest must win
        train_ds, _ = small_task
        model = random_model(train_ds.dim, (12, 12), train_ds.num_classes, seed=3)
        _, twin = permuted_twin(model, seed=4)
        picked = select_gamma(
            [1e-9, 1e-8, 1e-7], [(model, twin)], train_ds.features[:200], train_ds
        )
        assert picked == 1e-7

    def test_select_gamma_scores_a_repeat_once(self, monkeypatch):
        # candidates are told apart by their bits: -0.0 stays apart from 0.0
        scored = []

        def score(gamma, *_):
            scored.append(gamma.hex())
            return 0.5, None, (), None

        monkeypatch.setattr(merge, "_score", score)
        pair = SimpleNamespace(a=None)  # a stand-in: only its side a is read
        picked = merge._search([0.1, -0.0, 0.0, 0.1, -0.0], [pair], None)
        assert scored == [(-0.0).hex(), (0.0).hex(), (0.1).hex()]
        assert picked == (0.1, None)

    def test_select_gamma_rejects_empty(self, small_pair, small_task):
        train_ds, _ = small_task
        with pytest.raises(GammaSelectionError):
            select_gamma([], [small_pair], train_ds.features[:50], train_ds)
        with pytest.raises(GammaSelectionError):
            select_gamma([1e-3], [], train_ds.features[:50], train_ds)

    def test_select_gamma_all_failures_raise(self):
        # gamma 0 leans on the eigenvalue floor, which the blown-up partner's
        # rank-deficient scatter cannot pass
        reference = random_model(6, (8, 8), 4, seed=1)
        blown = blown_up(random_model(6, (8, 8), 4, seed=3))
        with pytest.raises(GammaSelectionError):
            select_gamma([0.0], [(reference, blown)], RANK_DEFICIENT, SEARCH_TASK)

    @pytest.mark.parametrize("candidates", [None, [1e-3, 1.0]],
                             ids=["auto", "explicit"])
    @pytest.mark.parametrize("bad, message", [
        ("nan", "probes contain non-finite entries"),
        ("one row", "need at least 2 probe rows"),
    ])
    def test_select_gamma_names_probes_it_cannot_capture(
        self, small_pair, small_task, candidates, bad, message
    ):
        # forming a pair is not a candidate's failure: its error comes out
        # as it is, whether the candidates are given or walked from the grid
        train_ds, _ = small_task
        probes = train_ds.features[:50].copy()
        if bad == "nan":
            probes[3, 1] = np.nan
        else:
            probes = probes[:1]
        with pytest.raises(ValidationError, match=message):
            select_gamma(candidates, [small_pair], probes, train_ds)


# --- the per-candidate search, kept as the oracle for the one-pass version --


def _solve_layers_oracle(model_a, model_b, probes, gamma=None):
    """Capture both models and form every scatter afresh, per call."""
    acts_a = capture(model_a, probes)
    acts_b = capture(model_b, probes)
    sols = []
    for a, b in zip(acts_a, acts_b):
        g = default_gamma(
            a.values.T @ a.values, b.values.T @ b.values
        ) if gamma is None else float(gamma)
        sols.append(solve_cca(scatter(a, b, g)))
    return sols


def _gamma_grid_oracle(model_a, model_b, probes):
    acts_a = capture(model_a, probes)
    acts_b = capture(model_b, probes)
    scale = float(
        np.mean(
            [
                np.mean(
                    (
                        np.diag(a.values.T @ a.values)
                        + np.diag(b.values.T @ b.values)
                    )
                    / 2.0
                )
                for a, b in zip(acts_a, acts_b)
            ]
        )
    )
    return [c * scale for c in GAMMA_GRID_COEFFS]


def _select_gamma_oracle(candidate_gammas, model_pairs, probes, eval_ds):
    """Candidates outer, pairs inner, every merge solved from scratch."""
    candidates = sorted(float(g) for g in candidate_gammas)
    if not all(np.isfinite(g) and g >= 0 for g in candidates):
        raise ValidationError("gamma must be finite and >= 0")
    best_gamma = None
    best_score = -np.inf
    for g in candidates:
        scores = []
        for model_a, model_b in model_pairs:
            try:
                plan = plan_from_solutions(
                    _solve_layers_oracle(model_a, model_b, probes, g)
                )
                merged = merge_pair(model_a, model_b, plan)
                scores.append(accuracy(merged, eval_ds))
            except (NumericalError, ValidationError):
                scores = None
                break
        if scores is None:
            continue
        score = float(np.mean(scores))
        if score >= best_score:
            best_gamma, best_score = g, score
    if best_gamma is None:
        raise GammaSelectionError("every candidate gamma failed")
    return best_gamma


SEARCH_TASK = generate(4, 30, 6, seed=5)
# fewer probe rows than neurons: every scatter is rank-deficient, so gamma 0
# leans on the eigenvalue floor and fails where the activations are large
RANK_DEFICIENT = SEARCH_TASK.features[:5]
GAMMAS = [0.0, 1e-6, 1e-3, 0.1, 1.0, 10.0, -1.0]


@st.composite
def gamma_search_cases(draw):
    n = draw(st.sampled_from([2, 3, 4, 4]))
    seeds = draw(
        st.lists(st.integers(0, 60), min_size=n, max_size=n, unique=True)
    )
    models = [random_model(6, (8, 8), 4, seed=s) for s in seeds]
    # partners only, so the reference stays healthy
    for i in range(1, n):
        if draw(st.booleans()):
            models[i] = blown_up(models[i])
    if draw(st.booleans()):
        pairs = [(models[0], m) for m in models[1:]]
    else:
        index_pairs = draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda ij: ij[0] != ij[1]
                ),
                min_size=1,
                max_size=4,
            )
        )
        pairs = [(models[i], models[j]) for i, j in index_pairs]
    candidates = draw(
        st.none() | st.lists(st.sampled_from(GAMMAS), min_size=1, max_size=4)
    )
    if candidates is not None and draw(st.booleans()):
        candidates.append(0.0)
    probes = draw(
        st.sampled_from([RANK_DEFICIENT, RANK_DEFICIENT, SEARCH_TASK.features])
    )
    return models, pairs, candidates, probes


def _oracle_merge(models, probes, gamma):
    reference, others = models[0], models[1:]
    aligned = [
        apply_plan(
            m,
            plan_from_solutions(_solve_layers_oracle(reference, m, probes, gamma)),
        )
        for m in others
    ]
    sols = _solve_layers_oracle(reference, others[0], probes, gamma)
    return average_models([reference, *aligned]), summaries_from_solutions(sols)


def _fast_merge(models, probes, gamma):
    merged, report, _ = merge_and_report(models, MethodTag.CCA, probes, gamma)
    return merged, report.layer_summaries


class TestOnePassSearchMatchesOracle:
    @settings(max_examples=100, deadline=None)
    @given(gamma_search_cases())
    def test_same_gamma_and_merged_bytes(self, case):
        models, pairs, candidates, probes = case
        oracle_candidates = candidates
        if candidates is None:
            oracle_candidates = _gamma_grid_oracle(*pairs[0], probes)
        chosen = outcome(select_gamma, candidates, pairs, probes, SEARCH_TASK)
        expect = outcome(
            _select_gamma_oracle, oracle_candidates, pairs, probes, SEARCH_TASK
        )
        assert chosen == expect
        merge_gammas = [None, 0.0, 1e-3]
        if isinstance(chosen, float):
            merge_gammas.append(chosen)
        for gamma in merge_gammas:
            fast = outcome(_fast_merge, models, probes, gamma)
            slow = outcome(_oracle_merge, models, probes, gamma)
            if isinstance(slow, type):
                assert fast is slow
                continue
            assert model_bytes(fast[0]) == model_bytes(slow[0])
            assert fast[1] == slow[1]

    def test_candidate_failing_on_one_pair_is_dropped(self):
        reference = random_model(6, (8, 8), 4, seed=1)
        healthy = random_model(6, (8, 8), 4, seed=2)
        blown = blown_up(random_model(6, (8, 8), 4, seed=3))
        probes = RANK_DEFICIENT
        cca_plan(reference, healthy, probes, 0.0)
        with pytest.raises(NumericalError):
            cca_plan(reference, blown, probes, 0.0)
        pairs = [(reference, healthy), (reference, blown)]
        candidates = [0.0, 1e-3, 1.0]
        chosen = select_gamma(candidates, pairs, probes, SEARCH_TASK)
        assert chosen != 0.0
        assert chosen == _select_gamma_oracle(
            candidates, pairs, probes, SEARCH_TASK
        )

    def test_auto_grid_is_gamma_grid_of_first_pair(self, small_pair, small_task):
        train_ds, _ = small_task
        probes = train_ds.features[:100]
        grid = _gamma_grid_oracle(*small_pair, probes)
        assert select_gamma(None, [small_pair], probes, train_ds) == select_gamma(
            grid, [small_pair], probes, train_ds
        )

    @pytest.mark.parametrize("method", [MethodTag.PERMUTE, MethodTag.IDENTITY])
    def test_summaries_of_other_methods_match_oracle(self, method):
        # the layer summaries reuse the first pair's capture
        models = [random_model(6, (8, 8), 4, seed=s) for s in (1, 2, 3)]
        probes = SEARCH_TASK.features
        merged, report, _ = merge_and_report(models, method, probes)
        expect = merge_many(models[0], models[1:], method, probes)
        assert model_bytes(merged) == model_bytes(expect)
        sols = _solve_layers_oracle(models[0], models[1], probes)
        assert report.layer_summaries == summaries_from_solutions(sols)

    def test_solve_layers_matches_oracle_bytes(self, small_pair, small_task):
        probes = small_task[0].features[:100]
        for gamma in (None, 0.0, 0.25):
            fast = solve_layers(*small_pair, probes, gamma)
            slow = _solve_layers_oracle(*small_pair, probes, gamma)
            for f, s in zip(fast, slow):
                assert f.gamma == s.gamma
                assert f.p_a.tobytes() == s.p_a.tobytes()
                assert f.p_b.tobytes() == s.p_b.tobytes()
                assert f.correlations.tobytes() == s.correlations.tobytes()


def _two_pass_search_merge(
    models, candidates, probe_limit, reference, repair, method="cca"
):
    """`merge --gamma-search` in two passes, the oracle: pick the ridge, then
    merge again at it."""
    probes = SEARCH_TASK.features[:probe_limit]
    pairs = [(models[reference], m) for i, m in enumerate(models) if i != reference]
    gamma = select_gamma(candidates, pairs, probes, SEARCH_TASK)
    merged, report, _ = merge_and_report(
        models, METHOD_NAMES[method], probes, gamma, repair, reference
    )
    items = report.to_items() + [("gamma_selected", gamma)]
    return (
        model_bytes(merged), merged.seed_tag, strip_timestamp(format_report(items))
    )


def _cli_search_merge(
    models, candidates, probe_limit, reference, repair, method="cca"
):
    """`merge --gamma-search` as the command runs it."""
    search = "auto" if candidates is None else ",".join(map(repr, candidates))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        save_dataset(SEARCH_TASK, root / "probes.ds")
        paths = [root / f"m{i}.model" for i in range(len(models))]
        for model, path in zip(models, paths):
            save_model(model, path)
        argv = ["merge", *paths, "--method", method, "--probes",
                root / "probes.ds", "--reference", reference,
                "--gamma-search", search, "--out", root / "out"]
        if probe_limit is not None:
            argv += ["--probe-limit", probe_limit]
        if repair:
            argv.append("--repair")
        args = parse_args([str(a) for a in argv])
        with contextlib.redirect_stdout(io.StringIO()):
            args.func(args)
        merged = load_model(root / "out" / "merged.model")
        report = (root / "out" / "merge_report.txt").read_text()
    return model_bytes(merged), merged.seed_tag, strip_timestamp(report)


def _with_random_biases(model, seed):
    rng = np.random.default_rng(seed)
    layers = tuple(
        DenseLayer(x.weights, rng.standard_normal(x.bias.shape), x.activation)
        for x in model.layers
    )
    return MlpModel(layers, model.input_dim, model.seed_tag)


@st.composite
def search_merge_cases(draw):
    n = draw(st.integers(2, 5))
    seeds = draw(
        st.lists(st.integers(0, 60), min_size=n, max_size=n, unique=True)
    )
    tags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    models = [
        _with_random_biases(
            random_model(6, (8, 8), 4, seed=s, tag=f"s{s}" if t else None), s
        )
        for s, t in zip(seeds, tags)
    ]
    reference = draw(st.integers(0, n - 1))
    # partners only, so the reference stays healthy
    for i in range(n):
        if i != reference and draw(st.booleans()):
            models[i] = blown_up(models[i])
    candidates = draw(
        st.none()
        | st.lists(st.sampled_from(GAMMAS[:-1]), min_size=1, max_size=4)
    )
    # 5 probe rows: rank-deficient scatters, so small ridges fail on the
    # blown-up partners
    probe_limit = draw(st.sampled_from([5, 5, None]))
    repair = draw(st.booleans())
    # the search makes the merge it writes, whatever the method
    method = draw(st.sampled_from(["cca", "cca", "permute", "direct"]))
    return models, candidates, probe_limit, reference, repair, method


class TestSearchMergeMatchesTwoPass:
    @settings(max_examples=60, deadline=None)
    @given(search_merge_cases())
    def test_same_model_bytes_and_report(self, case):
        fast = outcome(_cli_search_merge, *case)
        slow = outcome(_two_pass_search_merge, *case)
        assert fast == slow

    @pytest.mark.parametrize("candidates", [None, [1e-3, 1.0]])
    def test_negative_zero_weights(self, candidates):
        # np.mean sums from +0.0, so the merge of all -0.0 models has +0.0
        # where a sum started from a copy of the reference would keep -0.0
        models = [
            MlpModel(
                tuple(
                    DenseLayer(
                        np.full_like(x.weights, -0.0),
                        np.full_like(x.bias, -0.0),
                        x.activation,
                    )
                    for x in random_model(6, (8, 8), 4, seed=s).layers
                ),
                6,
            )
            for s in range(3)
        ]
        fast = _cli_search_merge(models, candidates, None, 1, False)
        assert fast == _two_pass_search_merge(models, candidates, None, 1, False)
        merged = np.frombuffer(fast[0], dtype=np.float64)
        assert merged.size > 0
        assert not np.signbit(merged).any()

    def test_candidate_failing_on_a_later_pair(self):
        # gamma 0 merges the first partner and fails on the blown-up second
        models = [
            random_model(6, (8, 8), 4, seed=1),
            random_model(6, (8, 8), 4, seed=2),
            blown_up(random_model(6, (8, 8), 4, seed=3)),
        ]
        probes = RANK_DEFICIENT
        cca_plan(models[0], models[1], probes, 0.0)
        with pytest.raises(NumericalError):
            cca_plan(models[0], models[2], probes, 0.0)
        case = (models, [0.0, 1e-3, 1.0], len(probes), 0, True)
        assert _cli_search_merge(*case) == _two_pass_search_merge(*case)

    def test_one_element_parameters_of_eight_models(self):
        # np.mean sums a one-element parameter of 8 or more models pairwise
        models = [
            _with_random_biases(random_model(6, (1, 8), 4, seed=s, tag=f"s{s}"), s)
            for s in range(20, 30)
        ]
        # with these seeds a running sum would differ in the last bit
        case = (models, [1e-3, 1.0], None, 1, False)
        assert _cli_search_merge(*case) == _two_pass_search_merge(*case)


@pytest.mark.parametrize("method", ["cca", "permute", "direct"])
def test_gamma_search_merge_captures_once_per_pair(
    tmp_path, monkeypatch, small_task, method
):
    train_ds, _ = small_task
    save_dataset(train_ds, tmp_path / "probes.ds")
    paths = []
    for seed in range(5):
        paths.append(tmp_path / f"m{seed}.model")
        save_model(
            random_model(train_ds.dim, (8, 8), train_ds.num_classes, seed=seed),
            paths[-1],
        )
    counts = count_calls(monkeypatch, ["capture", "inv_sqrt", "svd"])
    code = main(["merge", *map(str, paths), "--method", method,
                 "--gamma-search", "auto", "--probes", str(tmp_path / "probes.ds"),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    pairs, layers, candidates = 4, 2, len(GAMMA_GRID_COEFFS)
    # the search captures the reference once and every partner once, and
    # the merge it writes is its own, so nothing is redone
    assert counts["capture"] == 1 + pairs
    # the reference is whitened once per (layer, gamma); each partner once
    # per (layer, gamma) it is solved at
    assert counts["inv_sqrt"] == layers * candidates + pairs * layers * candidates
    assert counts["svd"] == pairs * layers * candidates


def test_gamma_search_merge_of_ten_models_with_a_width_one_layer(
    tmp_path, monkeypatch
):
    # the one-element biases of the width-1 layer are averaged as np.mean
    # averages them, inside the search, so its merge is still the one written
    save_dataset(SEARCH_TASK, tmp_path / "probes.ds")
    paths = []
    for seed in range(20, 30):
        paths.append(tmp_path / f"m{seed}.model")
        model = random_model(6, (1, 8), 4, seed=seed)
        save_model(_with_random_biases(model, seed), paths[-1])
    counts = count_calls(monkeypatch, ["capture"])
    code = main(["merge", *map(str, paths), "--method", "cca",
                 "--gamma-search", "auto",
                 "--probes", str(tmp_path / "probes.ds"),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    assert counts["capture"] == len(paths)

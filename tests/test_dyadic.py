import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from segnet import (
    ATTRIBUTE_NAMES,
    DEFAULT_AGE_BINS,
    DEFAULT_EDUCATION_BINS,
    FeatureSpec,
    RunConfig,
    build_dyad_design,
    build_graph,
    degree_missingness_ttest,
    fit_logistic,
    generate_dyad_sample,
    mean_local_clustering,
    sex_permutation_test,
    sex_permutation_tests,
)
from segnet import dyadic
from segnet.dyadic import _wald_p_values
from segnet.pipeline import _feature_spec

from .conftest import design_groups, labels_of, make_table, random_graph
from .oracles import (
    cross_product_odds_ratio,
    dyad_2x2,
    enumerate_dyads,
    exhaustive_sex_permutation,
    group_dyads,
    logistic_2x2,
    logistic_irls,
    sex_permutation_at_one_tolerance,
    tie_triple_by_loop,
    welch_t_closed_form,
)


def small_design():
    graph = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    table = make_table(range(4), caste=[0, 0, 3, 3], age=[20, 35, 50, 50])
    spec = FeatureSpec({"caste": "match", "age": "difference"})
    return build_dyad_design(graph, labels_of(table), spec)


def oracle_dyads(graph, table, spec, bins=None):
    """Enumerated dyads of ``graph`` from plain per-node values of ``table``,
    numeric ones binned by ``bins[attr]`` if given."""
    columns = []
    for attr, kind in spec.kinds.items():
        values = [None if v < 0 else v for v in getattr(table, attr).tolist()]
        columns.append((kind, values, (bins or {}).get(attr)))
    edges = zip(graph.edge_u.tolist(), graph.edge_v.tolist())
    return enumerate_dyads(graph.node_count, list(edges), columns)


class TestDyadDesign:
    def test_enumerates_every_unordered_pair_once(self):
        design = small_design()
        assert design.n_dyads == 6
        assert design.n_ties == 3
        assert int(design.pairs.min()) >= 1

    def test_features_and_ties_are_correct(self):
        design = small_design()
        # (caste match, age difference): (0,1) -> (1, 15) tied, (0,2), (0,3)
        # -> (0, 30), (1,2) -> (0, 15) tied, (1,3) -> (0, 15), (2,3) -> (1, 0) tied
        assert design.X.tolist() == [[0.0, 15.0], [0.0, 30.0], [1.0, 0.0], [1.0, 15.0]]
        assert design.pairs.tolist() == [2, 2, 1, 1]
        assert design.ties.tolist() == [1, 0, 1, 1]

    def test_binned_difference_uses_bin_distance(self):
        graph = build_graph(3, [(0, 1)])
        table = make_table(range(3), education=[0, 12, 15])
        labels = labels_of(table, {"education": (1.0, 10.0, 14.0, 16.0)})
        spec = FeatureSpec({"education": "difference"})
        # bins: 0 -> 0, 12 -> 2, 15 -> 3; pairs (1,2), (0,1) tied, (0,2)
        assert design_groups(build_dyad_design(graph, labels, spec)) == {
            (1.0,): (1, 0),
            (2.0,): (1, 1),
            (3.0,): (1, 0),
        }

    def test_only_complete_case_nodes_enter(self):
        graph = build_graph(3, [(0, 1), (1, 2)])
        table = make_table(range(3), caste=[0, -1, 3])
        design = build_dyad_design(graph, labels_of(table), FeatureSpec({"caste": "match"}))
        assert design.n_nodes == 2
        assert design.node_index.tolist() == [0, 2]
        assert design.n_ties == 0  # 0-2 is not an edge

    def test_needs_two_complete_case_nodes(self):
        graph = build_graph(2, [(0, 1)])
        table = make_table(range(2), caste=[0, -1])
        with pytest.raises(ValueError, match="complete-case"):
            build_dyad_design(graph, labels_of(table), FeatureSpec({"caste": "match"}))

    def test_complete_cases_need_every_feature_label(self):
        graph = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        table = make_table(
            range(4), sex=[0, 1, -1, 0], caste=[3, -1, 2, 0], age=[20, 30, 40, -1]
        )
        labels = labels_of(table)
        for kinds, complete in (
            ({"sex": "match"}, [0, 1, 3]),
            ({"sex": "match", "caste": "match"}, [0, 3]),
        ):
            design = build_dyad_design(graph, labels, FeatureSpec(kinds))
            assert design.node_index.tolist() == complete
        spec = FeatureSpec({"sex": "match", "caste": "match", "age": "match"})
        with pytest.raises(ValueError, match="found 1"):
            build_dyad_design(graph, labels, spec)

    def test_labels_of_attributes_outside_the_spec_are_ignored(self):
        graph = build_graph(3, [(0, 1), (1, 2)])
        labels = {"caste": np.array([0, 0, 3]), "sex": np.array([-1, -1, -1])}
        design = build_dyad_design(graph, labels, FeatureSpec({"caste": "match"}))
        assert design.n_nodes == 3
        assert design_groups(design) == {(0.0,): (2, 1), (1.0,): (1, 1)}


# name -> (feature spec, bins of its binned numeric attributes)
SPECS = {
    "match": (
        FeatureSpec({"caste": "match", "sex": "match", "age": "match"}),
        {"age": (18.0, 31.0, 41.0)},
    ),
    "binned_difference": (
        FeatureSpec({"religion": "match", "education": "difference"}),
        {"education": (1.0, 10.0, 14.0)},
    ),
    "raw_difference": (
        FeatureSpec({"caste": "match", "age": "difference", "education": "difference"}),
        {},
    ),
    "unbinned_match": (FeatureSpec({"age": "match"}), {}),
}


def random_table(rng, n, missing):
    """Every attribute drawn from a few values, each missing with probability ``missing``."""

    def codes(k):
        return np.where(rng.random(n) < missing, -1, rng.integers(0, k, n))

    def numbers(values):
        return np.where(rng.random(n) < missing, -1, rng.choice(values, n))

    return make_table(
        range(n),
        sex=codes(2),
        religion=codes(3),
        caste=codes(4),
        age=numbers([16, 18, 26, 30, 31, 47, 70]),
        education=numbers([0, 1, 4, 10, 12, 17]),
    )


def count_design_blocks(monkeypatch):
    """Record how many type-pair blocks each ``build_dyad_design`` call walks."""
    counts = []
    walk = dyadic._type_row_blocks

    def counted(n_types):
        counts.append(0)
        for block in walk(n_types):
            counts[-1] += 1
            yield block

    monkeypatch.setattr(dyadic, "_type_row_blocks", counted)
    return counts


class TestGroupedDesignAgainstPairEnumeration:
    # None keeps the module's chunk budget (one block here); 1 walks one
    # triangle row per block and 16 one or more rows per block.
    @pytest.mark.parametrize("budget", [None, 1, 16])
    @pytest.mark.parametrize("name", sorted(SPECS))
    @pytest.mark.parametrize("missing", [0.0, 0.3])
    def test_grouped_rows_equal_enumerated_pairs(self, name, missing, budget, monkeypatch):
        rng = np.random.default_rng(61)
        # sparse enough to leave isolates
        graph = random_graph(rng, 40, 0.04)
        assert (graph.degrees == 0).any()
        table = random_table(rng, 40, missing)
        spec, bins = SPECS[name]
        blocks = count_design_blocks(monkeypatch)
        if budget is not None:
            monkeypatch.setattr(dyadic, "_CHUNK_ELEMENTS", budget)
        design = build_dyad_design(graph, labels_of(table, bins), spec)
        assert blocks[0] == 1 if budget is None else blocks[0] >= 3
        rows = oracle_dyads(graph, table, spec, bins)
        assert design_groups(design) == group_dyads(rows)
        assert design.n_dyads == len(rows)
        assert design.X.tolist() == sorted(design.X.tolist())

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 14),
        p=st.floats(0.0, 1.0),
        missing=st.sampled_from([0.0, 0.2, 0.5]),
        name=st.sampled_from(sorted(SPECS)),
        seed=st.integers(0, 2**32 - 1),
        budget=st.sampled_from([None, 1, 5]),
    )
    def test_random_small_graphs(self, n, p, missing, name, seed, budget):
        rng = np.random.default_rng(seed)
        graph = random_graph(rng, n, p)
        table = random_table(rng, n, missing)
        spec, bins = SPECS[name]
        labels = labels_of(table, bins)
        rows = oracle_dyads(graph, table, spec, bins)
        with pytest.MonkeyPatch.context() as patch:
            if budget is not None:
                patch.setattr(dyadic, "_CHUNK_ELEMENTS", budget)
            if not rows:  # fewer than two complete-case nodes
                with pytest.raises(ValueError, match="complete-case"):
                    build_dyad_design(graph, labels, spec)
                return
            assert design_groups(build_dyad_design(graph, labels, spec)) == group_dyads(rows)

    def test_row_key_overflow_is_an_error(self, monkeypatch):
        rng = np.random.default_rng(61)
        graph = random_graph(rng, 40, 0.04)
        table = random_table(rng, 40, 0.0)
        spec, _ = SPECS["raw_difference"]
        # caste match (2 levels) times the distinct |x - y| of age and education
        n_levels = 2
        for attr in ("age", "education"):
            values = set(getattr(table, attr).tolist())
            n_levels *= len({abs(x - y) for x in values for y in values})
        monkeypatch.setattr(dyadic, "_MAX_ROW_KEY", n_levels + 1)
        rows = oracle_dyads(graph, table, spec)
        assert design_groups(build_dyad_design(graph, labels_of(table), spec)) == group_dyads(rows)
        monkeypatch.setattr(dyadic, "_MAX_ROW_KEY", n_levels)
        with pytest.raises(ValueError, match="too many distinct values"):
            build_dyad_design(graph, labels_of(table), spec)

    @pytest.mark.parametrize("name", ["match", "binned_difference", "raw_difference"])
    def test_grouped_fit_matches_irls_on_enumerated_pairs(self, name):
        spec, bins = SPECS[name]
        dataset = generate_dyad_sample(
            beta0=-1.5,
            betas={"caste": 0.9, "sex": 0.4},
            feature_law={
                "caste": {"general": 0.4, "obc": 0.3, "scheduled caste": 0.3},
                "sex": {"male": 0.5, "female": 0.5},
            },
            n_nodes=90,
            seed=67,
        )
        rng = np.random.default_rng(71)
        filler = random_table(rng, 90, 0.1)
        table = make_table(
            range(90),
            caste=dataset.attributes.caste,
            sex=dataset.attributes.sex,
            religion=filler.religion,
            age=filler.age,
            education=filler.education,
        )
        fit = fit_logistic(build_dyad_design(dataset.graph, labels_of(table, bins), spec))
        assert fit.converged
        beta, se = logistic_irls(oracle_dyads(dataset.graph, table, spec, bins))
        got_beta = np.concatenate([[fit.beta0], fit.beta])
        got_se = np.concatenate([[fit.intercept_se], fit.std_errors])
        np.testing.assert_allclose(got_beta, beta, rtol=1e-9, atol=0)
        np.testing.assert_allclose(got_se, se, rtol=1e-9, atol=0)


def test_default_spec_matches_every_attribute():
    cfg = RunConfig(corpus_dir="corpus", output_dir="out")
    spec = _feature_spec(cfg)
    assert spec.names == cfg.attributes
    assert sorted(spec.names) == sorted(ATTRIBUTE_NAMES)
    assert set(spec.kinds.values()) == {"match"}


@pytest.mark.parametrize(
    "kinds, message",
    [
        ({"caste": "difference"}, "difference encoding requires a numeric attribute"),
        ({"age": "ratio"}, "unknown feature kind 'ratio'"),
        ({"height": "match"}, "unknown attribute 'height'"),
    ],
)
def test_feature_spec_refuses_a_bad_entry(kinds, message):
    with pytest.raises(ValueError, match=message):
        FeatureSpec(kinds)


class TestLogisticFit:
    def sample(self, seed=5, n=80, beta0=-1.0, beta=1.2):
        dataset = generate_dyad_sample(
            beta0=beta0,
            betas={"caste": beta},
            feature_law={"caste": {"general": 0.5, "obc": 0.5}},
            n_nodes=n,
            seed=seed,
        )
        return dataset.graph, dataset.attributes, FeatureSpec({"caste": "match"})

    def sample_design(self):
        graph, table, spec = self.sample()
        return build_dyad_design(graph, labels_of(table), spec)

    def test_single_predictor_matches_closed_form(self):
        graph, table, spec = self.sample()
        fit = fit_logistic(build_dyad_design(graph, labels_of(table), spec))
        assert fit.converged
        stats_2x2 = dyad_2x2(group_dyads(oracle_dyads(graph, table, spec)))
        beta0, beta1, se1 = logistic_2x2(*stats_2x2)
        assert fit.beta0 == pytest.approx(beta0, abs=1e-6)
        assert fit.beta[0] == pytest.approx(beta1, abs=1e-6)
        assert fit.std_errors[0] == pytest.approx(se1, rel=1e-6)
        assert fit.odds_ratios[0] == pytest.approx(
            cross_product_odds_ratio(*stats_2x2), rel=1e-6
        )

    def test_wald_interval_and_p_value_construction(self):
        fit = fit_logistic(self.sample_design())
        lo, hi = fit.ci95[0]
        assert lo == pytest.approx(math.exp(fit.beta[0] - 1.96 * fit.std_errors[0]))
        assert hi == pytest.approx(math.exp(fit.beta[0] + 1.96 * fit.std_errors[0]))
        from scipy import stats as sps

        z = fit.beta[0] / fit.std_errors[0]
        assert fit.p_values[0] == pytest.approx(2 * sps.norm.sf(abs(z)), rel=1e-12)

    def test_two_feature_recovery_within_three_se(self):
        dataset = generate_dyad_sample(
            beta0=-1.5,
            betas={"caste": 1.1, "sex": 0.5},
            feature_law={
                "caste": {"general": 0.5, "obc": 0.5},
                "sex": {"male": 0.5, "female": 0.5},
            },
            n_nodes=120,
            seed=21,
        )
        spec = FeatureSpec({"caste": "match", "sex": "match"})
        fit = fit_logistic(build_dyad_design(dataset.graph, labels_of(dataset.attributes), spec))
        assert fit.converged
        for k, truth in enumerate([1.1, 0.5]):
            assert abs(fit.beta[k] - truth) < 3 * fit.std_errors[k]

    def test_constant_feature_is_an_error_naming_the_attribute(self):
        graph = build_graph(4, [(0, 1), (2, 3)])
        table = make_table(range(4), caste=[1, 1, 1, 1], sex=[0, 1, 0, 1])
        spec = FeatureSpec({"caste": "match", "sex": "match"})
        with pytest.raises(ValueError, match="caste"):
            fit_logistic(build_dyad_design(graph, labels_of(table), spec))

    def test_all_tied_or_none_tied_is_an_error(self):
        labels = labels_of(make_table(range(3), caste=[0, 1, 3]))
        spec = FeatureSpec({"caste": "match"})
        complete = build_graph(3, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(ValueError, match="tied and untied"):
            fit_logistic(build_dyad_design(complete, labels, spec))
        empty = build_graph(3, [])
        with pytest.raises(ValueError, match="tied and untied"):
            fit_logistic(build_dyad_design(empty, labels, spec))

    @staticmethod
    def separated_design():
        # ties exactly when castes match: the MLE diverges
        edges = [(0, 1), (2, 3), (4, 5)]
        graph = build_graph(6, edges)
        table = make_table(range(6), caste=[0, 0, 1, 1, 2, 2])
        return build_dyad_design(graph, labels_of(table), FeatureSpec({"caste": "match"}))

    def test_complete_separation_is_flagged_not_raised(self):
        fit = fit_logistic(self.separated_design())
        assert not fit.converged
        assert "separated" in fit.diagnostic

    def test_separation_on_a_difference_feature_is_flagged_not_raised(self):
        # ties exactly between equal ages: the age slope runs off to -inf, and
        # the 60-year gaps put the final information matrix's linear
        # predictor below -709.78, where exp(-x) overflows a double
        graph = build_graph(6, [(0, 1), (2, 3), (4, 5)])
        table = make_table(range(6), caste=[0, 1, 0, 1, 0, 0], age=[30, 30, 31, 31, 90, 90])
        spec = FeatureSpec({"caste": "match", "age": "difference"})
        design = build_dyad_design(graph, labels_of(table), spec)
        fit = fit_logistic(design)
        assert not fit.converged
        assert "separated" in fit.diagnostic
        assert (fit.beta0 + design.X @ fit.beta).min() < -710.0
        expected = 2.0 * stats.norm.sf(np.abs(fit.beta / fit.std_errors))
        np.testing.assert_array_equal(fit.p_values, expected, strict=True)

    def test_p_values_are_the_wald_normal_tail(self, monkeypatch):
        converged = fit_logistic(self.sample_design())
        diverging = fit_logistic(self.separated_design())
        # past the default bound the weights underflow and the information
        # matrix turns singular, so every standard error is NaN
        monkeypatch.setattr(dyadic, "_DIVERGENCE_BOUND", 1e3)
        singular = fit_logistic(self.separated_design())
        assert converged.converged and not diverging.converged
        assert np.isfinite(diverging.std_errors).all() and diverging.std_errors[0] > 1e3
        assert singular.diagnostic == "singular information matrix"
        assert np.isnan(singular.std_errors).all()
        for fit in (converged, diverging, singular):
            z = fit.beta / fit.std_errors
            np.testing.assert_array_equal(fit.p_values, _wald_p_values(z), strict=True)
            assert_scipy_normal_tail(fit.p_values, z)


def assert_scipy_normal_tail(p_values, z):
    """``p_values`` agree with scipy's ``2 sf(|z|)``: within 1e-13 relative where
    that is at least 1e-290, within 1e-300 below, and NaN where it is NaN.

    ``math.erfc`` and scipy's cephes ``ndtr`` differ in the last few bits
    (at most 5.7e-14 relative on 70k random z, at z = -32.4); 40-digit
    mpmath in ``tests/test_special.py`` is the arbiter of accuracy.
    """
    expected = 2.0 * stats.norm.sf(np.abs(z))
    assert p_values.dtype == np.float64 and p_values.shape == expected.shape
    np.testing.assert_array_equal(np.isnan(p_values), np.isnan(expected))
    normal, tiny = expected >= 1e-290, expected < 1e-290
    np.testing.assert_allclose(p_values[normal], expected[normal], rtol=1e-13, atol=0)
    np.testing.assert_allclose(p_values[tiny], expected[tiny], rtol=0, atol=1e-300)


def test_wald_p_values_match_the_normal_tail_at_extremes():
    # 2 * sf(37.5) is near the smallest normal double; 2 * sf(38.5) is subnormal
    z = np.array([0.0, -0.0, 37.5, -37.5, 38.5, -38.5, 40.0, -40.0, np.inf, -np.inf, np.nan])
    p_values = _wald_p_values(z)
    assert_scipy_normal_tail(p_values, z)
    assert p_values[0] == p_values[1] == 1.0
    assert p_values[8] == p_values[9] == 0.0


def _plain(value):
    """Arrays as lists and named tuples as tuples, so ``repr`` compares them bit for bit."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    return tuple(value) if isinstance(value, tuple) else value


def clique_with_pendants():
    """Male K8 with one female pendant per clique node: group mean degrees 8 and 1."""
    edges = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    edges += [(i, 8 + i) for i in range(8)]
    graph = build_graph(16, edges)
    return graph, np.array([0] * 8 + [1] * 8)


def random_sexed_graph():
    rng = np.random.default_rng(73)
    graph = random_graph(rng, 30, 0.15)
    return graph, np.where(rng.random(30) < 0.1, -1, rng.integers(0, 2, 30))


class TestSexPermutation:
    def test_observed_counts_match_loop_oracle(self, two_triangles):
        graph, table = two_triangles
        sex = table.labels("sex")
        result = sex_permutation_test(graph, sex, tolerance=0.05, target_replicates=20, seed=1)
        assert tuple(result.observed) == tie_triple_by_loop(graph, sex)
        assert tuple(result.observed) == (3, 0, 3)

    def test_every_replicate_respects_the_degree_constraint(self):
        # unequal degrees so the constraint actually bites
        edges = [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (1, 2)]
        graph = build_graph(6, edges)
        sex = np.array([0, 0, 1, 1, 0, 1])
        result = sex_permutation_test(graph, sex, tolerance=0.4, target_replicates=150, seed=3)
        lo_m, hi_m = result.male_degree_bounds
        lo_f, hi_f = result.female_degree_bounds
        assert (result.replicate_male_mean_degrees >= lo_m).all()
        assert (result.replicate_male_mean_degrees <= hi_m).all()
        assert (result.replicate_female_mean_degrees >= lo_f).all()
        assert (result.replicate_female_mean_degrees <= hi_f).all()
        # and the counts columns are mm, mf, ff sums of the 6 edges
        assert (result.replicate_counts.sum(axis=1) == graph.edge_count).all()

    def test_expected_counts_approach_exhaustive_enumeration(self, two_triangles):
        graph, table = two_triangles
        sex = table.labels("sex")
        counts, p_exact, expected = exhaustive_sex_permutation(graph, sex, tolerance=0.05)
        assert len(counts["mm"]) == 20  # every assignment is valid here
        assert p_exact == {"mm": 0.2, "mf": 0.2, "ff": 0.2}
        assert expected == {"mm": 1.2, "mf": 3.6, "ff": 1.2}
        result = sex_permutation_test(graph, sex, tolerance=0.05, target_replicates=2000, seed=7)
        assert result.expected_mean.mm == pytest.approx(1.2, abs=0.1)
        assert result.expected_mean.mf == pytest.approx(3.6, abs=0.2)
        assert result.p_values.mm == pytest.approx(0.2, abs=0.05)
        assert result.verdicts == ("ns", "ns", "ns")

    def test_verdicts_follow_sign_and_significance(self):
        # two male hubs tied to each other and most females isolated pairs:
        # make mm ties overwhelmingly likely under any valid permutation
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (5, 6), (7, 8)]
        graph = build_graph(10, edges)
        # node 9 has no sex recorded and degree 0
        sex = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1, -1])
        result = sex_permutation_test(graph, sex, tolerance=5.0, target_replicates=400, seed=11)
        assert result.observed.mm == 3
        if result.p_values.mm < 0.05:
            assert result.verdicts.mm == "assortative"
        assert result.n_replicates == 400

    def test_replicate_counts_match_per_row_computation(self, monkeypatch):
        graph, sex = random_sexed_graph()
        seed, batch, target = 19, 64, 150
        monkeypatch.setattr(dyadic, "_BATCH_SIZE", batch)
        result = sex_permutation_test(
            graph, sex, tolerance=0.1, target_replicates=target, seed=seed
        )
        assert result.n_attempts > batch  # the replicates span several batches
        # Replay the candidate stream: batch b permutes the sex-observed nodes
        # by argsort of uniform keys drawn from SeedSequence([seed, b]).
        observed_idx = np.flatnonzero(sex >= 0)
        male = sex[observed_idx] == 0
        deg = graph.degrees[observed_idx].astype(float)
        lo, hi = result.male_degree_bounds
        flo, fhi = result.female_degree_bounds
        expected_counts, expected_md = [], []
        for b in range(result.n_attempts // batch):
            keys = np.random.default_rng(np.random.SeedSequence([seed, b])).random(
                (batch, observed_idx.size)
            )
            for order in np.argsort(keys, axis=1):
                male_perm = male[order]
                md = deg[male_perm].sum() / male.sum()
                fd = deg[~male_perm].sum() / (~male).sum()
                if lo <= md <= hi and flo <= fd <= fhi and len(expected_md) < target:
                    labels = np.full(30, -1)
                    labels[observed_idx] = np.where(male_perm, 0, 1)
                    expected_counts.append(tie_triple_by_loop(graph, labels))
                    expected_md.append(md)
        assert result.replicate_counts.tolist() == [list(c) for c in expected_counts]
        np.testing.assert_allclose(result.replicate_male_mean_degrees, expected_md, rtol=1e-12)

    def test_single_sex_network_is_an_error(self):
        graph = build_graph(2, [(0, 1)])
        with pytest.raises(ValueError, match="both sexes"):
            sex_permutation_test(graph, np.array([0, 0]), tolerance=0.1)

    def test_hopeless_acceptance_rate_raises(self, monkeypatch):
        # group mean degrees differ so much that almost no permutation is
        # valid at 5% tolerance
        graph, sex = clique_with_pendants()
        monkeypatch.setattr(dyadic, "_MAX_ATTEMPTS", 2048)
        with pytest.raises(ValueError, match="acceptance rate"):
            sex_permutation_test(graph, sex, tolerance=0.05, target_replicates=50, seed=13)

    def test_two_sided_p_never_exceeds_one(self, two_triangles):
        graph, table = two_triangles
        sex = table.labels("sex")
        result = sex_permutation_test(graph, sex, tolerance=1.0, target_replicates=99, seed=17)
        for p in result.p_values:
            assert 0.0 < p <= 1.0


def record_draws(monkeypatch):
    """From now on, log the rows of every ``random_raw((rows, n))`` draw, one list per generator."""
    log = []
    make = np.random.default_rng

    class Recording:
        def __init__(self, seed):
            self._rng = make(seed)
            self.bit_generator = self
            self.rows = []
            log.append(self.rows)

        @property
        def state(self):
            return self._rng.bit_generator.state

        def random_raw(self, size):
            self.rows.append(size[0])
            return self._rng.bit_generator.random_raw(size)

        def random(self, size):
            return self._rng.random(size)

    monkeypatch.setattr(np.random, "default_rng", Recording)
    return log


def set_stream(monkeypatch, max_attempts, batch_size):
    """Set the permutation stream's attempt limit and batch size."""
    monkeypatch.setattr(dyadic, "_MAX_ATTEMPTS", max_attempts)
    monkeypatch.setattr(dyadic, "_BATCH_SIZE", batch_size)


def set_chunk_rows(monkeypatch, sex, chunk_rows):
    """Chunk budget giving ``chunk_rows`` candidate rows per chunk (None keeps the module's)."""
    if chunk_rows is not None:
        monkeypatch.setattr(dyadic, "_CHUNK_ELEMENTS", chunk_rows * int((sex >= 0).sum()))


def assert_equals_one_stream_per_tolerance(graph, sex, tolerances, options, stream):
    """Each ``sex_permutation_tests`` outcome equals the one-tolerance oracle, bit for
    bit; returns the outcomes."""
    outcomes = sex_permutation_tests(graph, sex, tolerances, **options)
    for tolerance, outcome in zip(tolerances, outcomes):
        try:
            expected = sex_permutation_at_one_tolerance(graph, sex, tolerance, **options, **stream)
        except ValueError as exc:
            assert str(outcome) == str(exc)
            continue
        for name, value in expected.items():
            assert repr(_plain(getattr(outcome, name))) == repr(_plain(value)), name
    return outcomes


class TestSharedPermutationStream:
    # None keeps the module's budget (one chunk per batch here); 5 rows do
    # not divide either batch size; 1-row chunks are the smallest.
    @pytest.mark.parametrize("chunk_rows", [None, 5, 1])
    @pytest.mark.parametrize(
        "make, tolerances, options, stream, failing",
        [
            (
                random_sexed_graph,
                (0.02, 0.1, 0.3),
                dict(target_replicates=150, seed=19),
                dict(max_attempts=1_000_000, batch_size=64),
                (False, False, False),
            ),
            # 0.05 admits about one permutation in 12870 and fails at 2048
            # attempts; 1.0 (~0.5% valid) keeps drawing after that.
            (
                clique_with_pendants,
                (0.05, 1.0, 5.0),
                dict(target_replicates=20, seed=13),
                dict(max_attempts=2048, batch_size=256),
                (True, False, False),
            ),
        ],
    )
    def test_equals_one_stream_per_tolerance(
        self, make, tolerances, options, stream, failing, chunk_rows, monkeypatch
    ):
        graph, sex = make()
        set_stream(monkeypatch, **stream)
        set_chunk_rows(monkeypatch, sex, chunk_rows)
        outcomes = assert_equals_one_stream_per_tolerance(graph, sex, tolerances, options, stream)
        assert [isinstance(o, ValueError) for o in outcomes] == list(failing)

    @pytest.mark.parametrize("chunk_rows", [5, 1])
    def test_batch_stops_once_every_open_tolerance_is_complete(self, chunk_rows, monkeypatch):
        graph, sex = random_sexed_graph()
        options = dict(target_replicates=150, seed=19)
        stream = dict(max_attempts=1_000_000, batch_size=64)
        set_stream(monkeypatch, **stream)
        set_chunk_rows(monkeypatch, sex, chunk_rows)
        drawn_rows = record_draws(monkeypatch)
        (alone,) = sex_permutation_tests(graph, sex, (0.3,), **options)
        # 0.3 completes mid-batch: its last batch is cut short, the others are whole
        assert [sum(rows) for rows in drawn_rows[:-1]] == [64] * (len(drawn_rows) - 1)
        assert sum(drawn_rows[-1]) < 64
        whole = [min(chunk_rows, 64 - start) for start in range(0, 64, chunk_rows)]
        assert drawn_rows[:-1] == [whole] * (len(drawn_rows) - 1)
        assert alone.n_attempts == 64 * len(drawn_rows)
        drawn_rows.clear()
        narrow, wide = sex_permutation_tests(graph, sex, (0.02, 0.3), **options)
        # 0.3 completed mid-batch while 0.02 kept drawing whole batches
        assert wide.n_attempts == alone.n_attempts < narrow.n_attempts
        assert [sum(rows) for rows in drawn_rows[:-1]] == [64] * (len(drawn_rows) - 1)
        assert narrow.n_attempts == 64 * len(drawn_rows)
        for tolerance, outcome in ((0.02, narrow), (0.3, wide), (0.3, alone)):
            expected = sex_permutation_at_one_tolerance(graph, sex, tolerance, **options, **stream)
            for name, value in expected.items():
                assert repr(_plain(getattr(outcome, name))) == repr(_plain(value)), name

    def test_single_tolerance_call_raises_the_tolerance_error(self, monkeypatch):
        graph, sex = clique_with_pendants()
        set_stream(monkeypatch, max_attempts=2048, batch_size=256)
        options = dict(target_replicates=20, seed=13)
        (failed, _) = sex_permutation_tests(graph, sex, (0.05, 1.0), **options)
        with pytest.raises(ValueError) as info:
            sex_permutation_test(graph, sex, 0.05, **options)
        assert str(info.value) == str(failed)

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.nan])
    def test_non_positive_tolerance_is_an_error(self, two_triangles, bad, monkeypatch):
        graph, table = two_triangles
        drawn_rows = record_draws(monkeypatch)
        with pytest.raises(ValueError, match="tolerance must be positive"):
            sex_permutation_tests(graph, table.labels("sex"), (0.1, bad))
        assert drawn_rows == []  # raised before drawing a candidate


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 24),
    p=st.floats(0.05, 0.6),
    seed=st.integers(0, 2**64 - 1),
    chunk_rows=st.sampled_from([None, 5, 1]),
)
def test_random_graphs_equal_one_stream_per_tolerance(n, p, seed, chunk_rows):
    rng = np.random.default_rng(seed % 2**32)
    graph = random_graph(rng, n, p)
    sex = np.where(rng.random(n) < 0.1, -1, rng.integers(0, 2, n))
    if not ((sex == 0).any() and (sex == 1).any()):
        return
    stream = dict(max_attempts=256, batch_size=32)
    with pytest.MonkeyPatch.context() as patch:
        set_stream(patch, **stream)
        set_chunk_rows(patch, sex, chunk_rows)
        options = dict(target_replicates=40, seed=seed)
        assert_equals_one_stream_per_tolerance(graph, sex, (0.05, 0.3), options, stream)


@pytest.mark.parametrize("seed", [0, 411, 2**63 - 1])
def test_raw_draws_are_the_uniform_keys(seed):
    # The packed-key sort relies on Generator.random being (raw >> 11) * 2**-53.
    sequence = np.random.SeedSequence([seed, 3])
    keys = np.random.default_rng(sequence).random((7, 33))
    raw = np.random.default_rng(sequence).bit_generator.random_raw((7, 33))
    assert np.array_equal((raw >> np.uint64(11)) * 2.0**-53, keys)


def test_packed_key_sort_equals_the_argsort_of_the_keys():
    male = np.random.default_rng(5).random(40) < 0.4
    sequence = np.random.SeedSequence([9, 1])
    packed_rng, float_rng = np.random.default_rng(sequence), np.random.default_rng(sequence)
    for rows in (1, 5, 64):
        permuted = dyadic._permuted_males(packed_rng, (rows, male.size), male)
        expected = male[np.argsort(float_rng.random((rows, male.size)), axis=1)]
        assert np.array_equal(permuted, expected)
    assert packed_rng.bit_generator.state == float_rng.bit_generator.state


def coarse_keys(monkeypatch, kept_bits):
    """From now on, generators keep the top ``kept_bits`` bits of each raw draw,
    so keys tie often; returns a log with ``"raw"`` for each ``random_raw``
    draw and ``"float"`` for each ``random`` draw."""
    draws = []
    make = np.random.default_rng
    dropped = np.uint64(64 - kept_bits)

    class Coarse:
        def __init__(self, seed):
            self._bits = make(seed).bit_generator
            self.bit_generator = self

        @property
        def state(self):
            return self._bits.state

        @state.setter
        def state(self, value):
            self._bits.state = value

        def random_raw(self, size):
            draws.append("raw")
            return self._bits.random_raw(size) >> dropped << dropped

        def random(self, size):
            draws.append("float")
            return (self._bits.random_raw(size) >> dropped << dropped >> np.uint64(11)) * 2.0**-53

    monkeypatch.setattr(np.random, "default_rng", Coarse)
    return draws


@pytest.mark.parametrize("chunk_rows", [None, 5, 1])
def test_tied_keys_fall_back_to_the_argsort(chunk_rows, monkeypatch):
    # With 15-bit keys, about one row in 100 of the 27 sex-observed nodes'
    # keys holds a tie, so some chunks are sorted packed and others fall back.
    graph, sex = random_sexed_graph()
    stream = dict(max_attempts=1_000_000, batch_size=64)
    set_stream(monkeypatch, **stream)
    set_chunk_rows(monkeypatch, sex, chunk_rows)
    draws = coarse_keys(monkeypatch, kept_bits=15)
    options = dict(target_replicates=150, seed=19)
    tolerances = (0.02, 0.1, 0.3)
    sex_permutation_tests(graph, sex, tolerances, **options)
    assert 0 < draws.count("float") < draws.count("raw")
    assert_equals_one_stream_per_tolerance(graph, sex, tolerances, options, stream)


def survey_scale_village(n=1200, mean_degree=8.0, seed=411):
    """Random graph with all seven attributes observed at 4% missingness."""
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n, mean_degree / (n - 1))

    def codes(k):
        return np.where(rng.random(n) < 0.04, -1, rng.integers(0, k, n))

    def numbers(lo, hi):
        return np.where(rng.random(n) < 0.04, -1, rng.integers(lo, hi, n))

    table = make_table(
        range(n),
        sex=codes(2),
        age=numbers(18, 80),
        religion=codes(3),
        caste=codes(4),
        education=numbers(0, 17),
        workflag=codes(2),
        savings=codes(2),
    )
    return graph, table


def star_around_node_zero(n_leaves=3000):
    """Star whose hub, node 0, has ``n_leaves`` leaves and no attributes."""
    star = build_graph(n_leaves + 1, [(0, i) for i in range(1, n_leaves + 1)])
    return star, None


@pytest.mark.parametrize(
    "kernel, village, bound_mb",
    [
        pytest.param(
            lambda graph, table: build_dyad_design(
                graph,
                labels_of(table, {"age": DEFAULT_AGE_BINS, "education": DEFAULT_EDUCATION_BINS}),
                _feature_spec(RunConfig(corpus_dir="corpus", output_dir="out")),
            ),
            survey_scale_village,
            1,
            id="build_dyad_design",
        ),
        pytest.param(
            lambda graph, table: sex_permutation_tests(
                graph, table.labels("sex"), (0.05, 0.2), seed=411
            ),
            survey_scale_village,
            6,
            id="sex_permutation_tests",
        ),
        pytest.param(
            lambda graph, table: mean_local_clustering(graph),
            survey_scale_village,
            2,
            id="mean_local_clustering",
        ),
        pytest.param(
            lambda graph, table: mean_local_clustering(graph),
            star_around_node_zero,
            2,
            id="mean_local_clustering_star",
        ),
    ],
)
def test_kernel_peak_memory_does_not_grow_with_the_village(kernel, village, bound_mb):
    # Building every type pair or a whole 512-row candidate batch at once
    # peaks at 12-17 MB on the 1200-node village; design blocks of 65,536
    # pairs with their unreduced temporaries peaked at 3.5 MB.  A sparse
    # A @ A for clustering holds deg^2 entries per hub: 206 MB on the star.
    graph, table = village()
    tracemalloc.start()
    try:
        kernel(graph, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2**20


class TestDegreeMissingnessTtest:
    def test_matches_closed_form_welch(self):
        rng = np.random.default_rng(51)
        edges = [(i, j) for i in range(12) for j in range(i + 1, 12) if rng.random() < 0.4]
        graph = build_graph(12, edges)
        caste = np.array([3] * 7 + [-1] * 5)
        t, p = degree_missingness_ttest(graph, caste)
        deg = graph.degrees
        t_ref, p_ref = welch_t_closed_form(deg[caste >= 0], deg[caste < 0])
        assert t == pytest.approx(t_ref, rel=1e-12)
        assert p == pytest.approx(p_ref, rel=1e-10)

    def test_sign_convention_observed_minus_missing(self):
        graph = build_graph(5, [(0, 1), (0, 2), (0, 3), (1, 2)])
        t, _ = degree_missingness_ttest(graph, np.array([3, 3, 3, -1, -1]))
        assert t > 0  # observed nodes have higher degrees here

    def test_zero_variance_cases(self):
        graph = build_graph(4, [(0, 1), (2, 3)])
        assert degree_missingness_ttest(graph, np.array([3, 3, -1, -1])) == (0.0, 1.0)
        # two observed hubs of equal degree vs six missing leaves: both groups
        # have zero variance but different means
        twin_stars = build_graph(8, [(0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)])
        t, p = degree_missingness_ttest(twin_stars, np.array([3, 3, -1, -1, -1, -1, -1, -1]))
        assert t == math.inf and p == 0.0

    def test_requires_both_groups(self):
        graph = build_graph(2, [(0, 1)])
        with pytest.raises(ValueError, match="both groups need at least 2 nodes"):
            degree_missingness_ttest(graph, np.array([3, 3]))

    @settings(max_examples=300, deadline=None)
    @given(
        star_sizes=st.lists(st.integers(0, 7), min_size=1, max_size=8),
        extra=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=8),
        present=st.lists(st.booleans(), min_size=64, max_size=64),
    )
    # One group holds only leaves of degree 1 (constant), the other does not.
    @example(star_sizes=[6, 3], extra=[], present=[False] + [True] * 6 + [False] * 57)
    def test_equals_scipy_welch(self, star_sizes, extra, present):
        edges, start = [], 0
        for size in star_sizes:
            edges += [(start, start + 1 + i) for i in range(size)]
            start += size + 1
        n = start
        edges += [(u % n, v % n) for u, v in extra]
        graph = build_graph(n, edges)
        observed = np.array(present[:n])
        caste = np.where(observed, 3, -1)
        deg = graph.degrees.astype(float)
        a, b = deg[observed], deg[~observed]
        if a.size < 2 or b.size < 2:
            with pytest.raises(ValueError, match="both groups need at least 2 nodes"):
                degree_missingness_ttest(graph, caste)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = degree_missingness_ttest(graph, caste)
        if a.min() == a.max() and b.min() == b.max():
            if a[0] == b[0]:
                assert result == (0.0, 1.0)
            else:
                assert result == ((math.inf, 0.0) if a[0] > b[0] else (-math.inf, 0.0))
            return
        with warnings.catch_warnings():
            # scipy warns of precision loss when a group is constant.
            warnings.simplefilter("ignore", RuntimeWarning)
            reference = stats.ttest_ind(a, b, equal_var=False)
        assert result[0] == float(reference.statistic)
        # The p-value's Student t CDF is segnet's own, not scipy's: on this
        # domain (df <= 62) the two agreed within 3.3e-14 relative on 30k
        # draws, and test_special bounds segnet's against mpmath.
        assert result[1] == pytest.approx(float(reference.pvalue), rel=1e-13, abs=0.0)

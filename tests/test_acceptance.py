"""End-to-end acceptance checks.

The first five criteria run on synthetic data and analytic fixtures and are
always active.  Criteria six through ten replicate the headline numbers of
the Karnataka village survey and only run when the environment variable
``SEGNET_KARNATAKA_CORPUS`` points at that corpus in the canonical layout.
"""

import json
import math
import os

import numpy as np
import pytest
from scipy.stats import binom

from segnet import (
    AttributedSbmConfig,
    FeatureSpec,
    Partition,
    RunConfig,
    build_dyad_design,
    fit_logistic,
    generate_attribute_sbm,
    generate_dyad_sample,
    louvain,
    modularity_of_partition,
    nmi,
    run_pipeline,
    segregation_report,
    sex_permutation_test,
    summarize_corpus,
)

from .conftest import design_groups, labels_of, random_graph
from .oracles import (
    cross_product_odds_ratio,
    dyad_2x2,
    exhaustive_sex_permutation,
    naive_attribute_modularity,
    naive_partition_modularity,
    naive_within_between,
)

CORPUS_ENV = "SEGNET_KARNATAKA_CORPUS"
needs_corpus = pytest.mark.skipif(
    not os.environ.get(CORPUS_ENV),
    reason=f"set {CORPUS_ENV} to the survey corpus directory to enable",
)


def _criterion(number: int, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_fast_estimators_match_exhaustive_oracles():
    rng = np.random.default_rng(202)
    diffs = {"partition": [], "attribute": [], "within": [], "between": []}
    graphs = 0
    while graphs < 200:
        n = int(rng.integers(4, 61))
        graph = random_graph(rng, n, float(rng.uniform(0.05, 0.5)))
        if graph.edge_count < 1:
            continue
        graphs += 1
        n_comms = int(rng.integers(2, 6))
        partition = Partition.from_assignment(
            graph, rng.integers(1, n_comms + 1, size=n)
        )
        diffs["partition"].append(
            abs(
                modularity_of_partition(graph, partition)
                - naive_partition_modularity(graph, partition.assignment)
            )
        )
        labels = rng.integers(-1, 4, size=n)
        try:
            report = segregation_report(graph, labels, partition)
        except ValueError:
            continue  # no labeled edge, or none within or across communities, on this draw
        diffs["attribute"].append(
            abs(report.q_attr - naive_attribute_modularity(graph, labels))
        )
        slow = naive_within_between(graph, labels, partition.assignment)
        diffs["within"].append(abs(report.q_within - slow["q_within"]))
        diffs["within"].append(abs(report.q_within_norm - slow["q_within_norm"]))
        diffs["between"].append(abs(report.q_between - slow["q_between"]))
        diffs["between"].append(abs(report.q_between_norm - slow["q_between_norm"]))
    worst = {name: max(values) for name, values in diffs.items()}
    coverage_ok = all(len(values) >= 100 for values in diffs.values())
    _criterion(
        1,
        coverage_ok and max(worst.values()) <= 1e-12,
        f"max |fast - naive| over {graphs} graphs: "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()),
    )


def test_analytic_fixture_values_are_exact(bridged_triangles):
    graph, labels, partition = bridged_triangles
    uniform_exact = segregation_report(graph, np.zeros(6, dtype=int), partition).q_attr == 0.0
    report = segregation_report(graph, labels, partition)
    q_attr, q_within_norm, q_between = report.q_attr, report.q_within_norm, report.q_between
    _criterion(
        2,
        uniform_exact
        and abs(q_attr - 5.0 / 14.0) <= 1e-12
        and abs(q_within_norm - 1.0) <= 1e-12
        and q_between == 0.0,
        f"uniform exact zero: {uniform_exact}, q_attr={q_attr!r}, "
        f"q_within_norm={q_within_norm!r}, q_between={q_between!r}",
    )


def test_logistic_recovery_within_three_standard_errors():
    true_intercept = math.log(0.25)
    true_slope = math.log(16.0)
    spec = FeatureSpec({"caste": "match"})
    hits = 0
    for seed in range(100):
        dataset = generate_dyad_sample(
            beta0=true_intercept,
            betas={"caste": true_slope},
            feature_law={"caste": {"general": 0.5, "obc": 0.5}},
            n_nodes=142,
            seed=seed,
        )
        design = build_dyad_design(dataset.graph, labels_of(dataset.attributes), spec)
        assert design.n_dyads == 142 * 141 // 2
        fit = fit_logistic(design)
        if fit.converged and abs(fit.beta[0] - true_slope) <= 3.0 * fit.std_errors[0]:
            hits += 1
        table = dyad_2x2(design_groups(design))
        assert math.isclose(
            fit.odds_ratios[0], cross_product_odds_ratio(*table), rel_tol=1e-6
        )
    _criterion(3, hits >= 99, f"{hits}/100 slope estimates within 3 standard errors")


def test_permutation_pvalues_track_exhaustive_enumeration(two_triangles):
    graph, table = two_triangles
    counts, p_exact, expected = exhaustive_sex_permutation(
        graph, table.labels("sex"), tolerance=0.05
    )
    assert all(len(v) == 20 for v in counts.values())  # every assignment is valid
    assert p_exact == {"mm": 0.2, "mf": 0.2, "ff": 0.2}
    assert expected == {"mm": 1.2, "mf": 3.6, "ff": 1.2}

    # With 1000 replicates the extreme-count tally is Binomial(1000, 0.1);
    # map its central 99% interval through the +1-corrected estimator.
    lo_count = int(binom.ppf(0.005, 1000, 0.1))
    hi_count = int(binom.ppf(0.995, 1000, 0.1))
    lo_p = 2.0 * (lo_count + 1) / 1001.0
    hi_p = 2.0 * (hi_count + 1) / 1001.0

    successes = 0
    for seed in range(100):
        result = sex_permutation_test(
            graph, table.labels("sex"), tolerance=0.05, target_replicates=1000, seed=seed
        )
        assert result.n_replicates == 1000
        lo_m, hi_m = result.male_degree_bounds
        lo_f, hi_f = result.female_degree_bounds
        assert (
            (result.replicate_male_mean_degrees >= lo_m)
            & (result.replicate_male_mean_degrees <= hi_m)
        ).all()
        assert (
            (result.replicate_female_mean_degrees >= lo_f)
            & (result.replicate_female_mean_degrees <= hi_f)
        ).all()
        ps = result.p_values
        if all(lo_p <= p <= hi_p for p in (ps.mm, ps.mf, ps.ff)):
            successes += 1
    _criterion(
        4,
        successes >= 95,
        f"{successes}/100 Monte Carlo p-values inside the 99% band "
        f"[{lo_p:.4f}, {hi_p:.4f}] around the exact 0.2",
    )


def test_louvain_recovers_planted_blocks_and_nmi_bounds():
    labels = np.repeat(np.arange(4), 25)
    assert nmi(labels, labels).value == 1.0
    half = np.repeat([0, 1], 50)
    alternating = np.tile([0, 1], 50)
    assert nmi(half, alternating).value == 0.0

    rules = ("general", "obc", "scheduled caste", "scheduled tribe")
    hits = 0
    for seed in range(100):
        config = AttributedSbmConfig(
            block_sizes=(50, 50, 50, 50),
            p_in=0.3,
            p_out=0.01,
            attribute_rule=rules,
            seed=seed,
        )
        dataset, planted = generate_attribute_sbm(config)
        found = louvain(dataset.graph, seed=seed)
        if nmi(planted.assignment, found.assignment).value >= 0.95:
            hits += 1
    _criterion(5, hits >= 95, f"{hits}/100 planted partitions recovered at NMI >= 0.95")


@pytest.fixture(scope="module")
def corpus_tables(tmp_path_factory):
    corpus = os.environ[CORPUS_ENV]
    out = tmp_path_factory.mktemp("corpus_out")
    cfg = RunConfig(corpus_dir=corpus, output_dir=str(out))
    result = run_pipeline(cfg)
    assert result.n_villages > 0, "corpus directory contains no villages"
    assert result.n_failed == 0, f"failed villages: {result.failures}"
    bundles = [
        json.loads(p.read_text(encoding="utf-8"))
        for p in sorted((out / "bundles").glob("*.json"))
    ]
    return summarize_corpus(bundles)


@needs_corpus
def test_corpus_network_size_medians(corpus_tables):
    rows = {(r["scope"], r["metric"]): r for r in corpus_tables["network"]}
    n_median = rows[("full", "n_nodes")]["median"]
    m_median = rows[("full", "n_edges")]["median"]
    degree_median = rows[("full", "mean_degree")]["median"]
    lcc_median = rows[("full", "lcc_node_fraction")]["median"]
    _criterion(
        6,
        n_median == 869
        and m_median == 3750
        and abs(degree_median - 8.4) <= 0.2
        and abs(lcc_median - 0.98) <= 0.01,
        f"median nodes={n_median}, edges={m_median}, "
        f"mean degree={degree_median:.3f}, lcc fraction={lcc_median:.3f}",
    )


@needs_corpus
def test_corpus_caste_odds_ratio(corpus_tables):
    row = next(r for r in corpus_tables["dyadic"] if r["attribute"] == "caste")
    or_median = row["or_median"]
    pct_significant = row["pct_significant"]
    _criterion(
        7,
        abs(or_median / 5.06 - 1.0) <= 0.10 and pct_significant >= 95.0,
        f"caste odds-ratio median={or_median:.3f}, significant in "
        f"{pct_significant:.1f}% of villages",
    )


@needs_corpus
def test_corpus_sex_tie_verdicts(corpus_tables):
    rows = {
        (r["tolerance"], r["tie_type"]): r for r in corpus_tables["permutation"]
    }
    mm = rows[(0.05, "mm")]["pct_assortative"]
    mf = rows[(0.05, "mf")]["pct_dissortative"]
    _criterion(
        8,
        mm >= 90.0 and mf >= 90.0,
        f"male-male assortative in {mm:.1f}%, cross-sex dissortative in {mf:.1f}%",
    )


@needs_corpus
def test_corpus_attribute_community_alignment(corpus_tables):
    by_attr = {r["attribute"]: r for r in corpus_tables["dyadic"]}
    caste_nmi = by_attr["caste"]["nmi_mean"]
    sex_nmi = by_attr["sex"]["nmi_mean"]
    _criterion(
        9,
        abs(caste_nmi - 0.39) <= 0.05 and sex_nmi <= 0.05,
        f"mean NMI caste={caste_nmi:.3f}, sex={sex_nmi:.3f}",
    )


@needs_corpus
def test_corpus_within_between_mixing(corpus_tables):
    row = next(r for r in corpus_tables["segregation"] if r["attribute"] == "caste")
    within_mean = row["q_within_norm_mean"]
    pct_between_positive = row["pct_between_positive"]
    _criterion(
        10,
        abs(within_mean - 0.37) <= 0.05 and pct_between_positive >= 90.0,
        f"mean normalized within-community segregation={within_mean:.3f}, "
        f"between-community term positive in {pct_between_positive:.1f}% of villages",
    )

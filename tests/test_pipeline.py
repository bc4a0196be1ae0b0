import copy
import functools
import importlib.util
import json
import math
import multiprocessing
import os
import shutil
import string
import subprocess
import sys
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import segnet
from segnet import (
    AttributedSbmConfig,
    FeatureSpec,
    RunConfig,
    analyze_village,
    build_dyad_design,
    build_graph,
    config_sha256,
    degree_missingness_ttest,
    default_config_text,
    fit_logistic,
    generate_attribute_sbm,
    largest_connected_component,
    load_run_config,
    nmi,
    parse_run_config,
    run_pipeline,
    save_village,
    summarize_corpus,
    summarize_output_directory,
)
from segnet import pipeline
from segnet.cli import main
from segnet.config import MAX_WORKERS, _format_value
from segnet.pipeline import _dropped_features, _json_safe
from segnet.segregation import community_network_to_dot
from segnet.vocabulary import ATTRIBUTE_NAMES

from .conftest import labels_of, load_benchmark_villages, make_table
from .oracles import constant_feature_screen


def small_config(corpus: Path, out: Path, **overrides) -> RunConfig:
    defaults = dict(
        corpus_dir=str(corpus),
        output_dir=str(out),
        attributes=("caste", "sex"),
        community_network_attributes=("caste",),
        permutation_replicates=100,
        permutation_tolerances=(0.05, 0.2),
        workers=1,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def synth_village(seed: int, missing_rate: float = 0.0):
    config = AttributedSbmConfig(
        block_sizes=(14, 14),
        p_in=0.55,
        p_out=0.08,
        attribute_rule=("general", "obc"),
        seed=seed,
        extra_attribute_laws={"sex": {"male": 0.5, "female": 0.5}},
        missing_rate=missing_rate,
    )
    dataset, _ = generate_attribute_sbm(config)
    return dataset


def make_corpus(root: Path, n: int = 3, missing_rate: float = 0.0) -> Path:
    corpus = root / "corpus"
    corpus.mkdir()
    for i in range(n):
        save_village(synth_village(100 + i, missing_rate), corpus / f"v{i:02d}")
    return corpus


class TestParseRunConfig:
    def test_full_parse_with_comments_and_lists(self, tmp_path):
        text = "\n".join(
            [
                "# run settings",
                "corpus_dir = data/corpus  # inline comment",
                "output_dir = results",
                "attributes = caste, sex",
                "permutation_tolerances = 0.05, 0.2",
                "permutation_replicates = 250",
                "joint_model = false",
                "community_network_attributes = caste",
                "",
            ]
        )
        cfg = parse_run_config(text, base_dir=tmp_path)
        assert cfg.corpus_dir == str(tmp_path / "data/corpus")
        assert cfg.output_dir == str(tmp_path / "results")
        assert cfg.attributes == ("caste", "sex")
        assert cfg.permutation_tolerances == (0.05, 0.2)
        assert cfg.permutation_replicates == 250
        assert cfg.joint_model is False
        # untouched keys keep their defaults
        assert cfg.louvain_seed == 1
        assert cfg.community_node_min == 0.05

    def test_absolute_paths_pass_through(self, tmp_path):
        cfg = parse_run_config(
            f"corpus_dir = /abs/corpus\noutput_dir = {tmp_path}/out\n", base_dir="/elsewhere"
        )
        assert cfg.corpus_dir == "/abs/corpus"
        assert cfg.output_dir == f"{tmp_path}/out"

    def test_empty_list_value(self):
        cfg = parse_run_config(
            "corpus_dir = c\noutput_dir = o\nvillage_ids =\nage_bins =\n"
        )
        assert cfg.village_ids == ()
        assert cfg.age_bins == ()

    def test_missing_required_key(self):
        with pytest.raises(ValueError, match="missing required key 'output_dir'"):
            parse_run_config("corpus_dir = c\n")

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="config line 2: unknown key 'colour'"):
            parse_run_config("corpus_dir = c\ncolour = red\n")

    def test_duplicate_key(self):
        with pytest.raises(ValueError, match="config line 3: duplicate key"):
            parse_run_config("corpus_dir = c\noutput_dir = o\noutput_dir = p\n")

    def test_line_without_equals(self):
        with pytest.raises(ValueError, match="config line 1: expected 'key = value'"):
            parse_run_config("just words\n")

    def test_bool_values_are_strict(self):
        with pytest.raises(ValueError, match="bad value for 'joint_model'"):
            parse_run_config("corpus_dir = c\noutput_dir = o\njoint_model = yes\n")

    def test_bad_numeric_value(self):
        with pytest.raises(ValueError, match="bad value for 'permutation_replicates'"):
            parse_run_config(
                "corpus_dir = c\noutput_dir = o\npermutation_replicates = many\n"
            )

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("permutation_tolerances =", "at least one permutation tolerance"),
            ("attributes = height", "unknown attribute"),
            (
                "attributes = caste\ncommunity_network_attributes = sex",
                "community network attribute 'sex' not among attributes",
            ),
            ("permutation_tolerances = 0.05, 0", "permutation tolerances must be positive"),
            ("permutation_replicates = 0", "permutation_replicates must be at least 1"),
            ("age_encoding = diff", "age_encoding must be 'match' or 'difference'"),
            ("education_encoding = bins", "education_encoding must be 'match' or 'difference'"),
        ],
        ids=[
            "no-tolerance",
            "unknown-attribute",
            "community-attribute-not-analyzed",
            "zero-tolerance",
            "no-replicates",
            "age-encoding",
            "education-encoding",
        ],
    )
    def test_validation_errors_surface(self, lines, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            parse_run_config(f"corpus_dir = c\noutput_dir = o\n{lines}\n")

    @pytest.mark.parametrize(
        "line, key",
        [
            ("attributes = caste, caste, sex", "attributes"),
            ("community_network_attributes = caste, caste", "community_network_attributes"),
            ("permutation_tolerances = 0.2, 0.20", "permutation_tolerances"),
        ],
    )
    def test_duplicate_list_entries_are_errors(self, line, key):
        # A repeated entry would repeat its rows in the summary tables.
        with pytest.raises(ValueError, match=f"duplicate entries in '{key}'"):
            parse_run_config(f"corpus_dir = c\noutput_dir = o\n{line}\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            (
                "permutation_tolerances = 0.05, nan",
                "permutation_tolerances must be a tuple of finite numbers",
            ),
            ("community_node_min = nan", "community_node_min must be a finite number"),
            ("community_edge_min = nan", "community_edge_min must be a finite number"),
            ("between_cutoff = nan", "between_cutoff must be a finite number"),
            ("within_cutoff = NaN", "within_cutoff must be a finite number"),
            ("community_node_min = 5", "community_node_min must be between 0 and 1"),
            ("community_node_min = -0.01", "community_node_min must be between 0 and 1"),
            ("community_edge_min = 1.5", "community_edge_min must be between 0 and 1"),
        ],
    )
    def test_nan_settings_are_errors(self, line, message):
        # Every comparison with NaN is False: a NaN tolerance would draw to
        # the attempt limit in every village, a NaN cutoff would empty its tables.
        # A community threshold above 1 (5, meant as 5%) would leave every
        # village without a community network.
        with pytest.raises(ValueError, match=message):
            parse_run_config(f"corpus_dir = c\noutput_dir = o\n{line}\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("within_cutoff = inf", "within_cutoff must be a finite number"),
            ("between_cutoff = -inf", "between_cutoff must be a finite number"),
            ("community_node_min = inf", "community_node_min must be a finite number"),
            ("community_edge_min = -inf", "community_edge_min must be a finite number"),
            (
                "permutation_tolerances = 0.05, inf",
                "permutation_tolerances must be a tuple of finite numbers",
            ),
        ],
    )
    def test_infinite_settings_are_errors(self, line, message):
        # JSON has no infinity: the bundles and the manifest would hold null,
        # and the run's own output directory could not be summarized.
        with pytest.raises(ValueError, match=message):
            parse_run_config(f"corpus_dir = c\noutput_dir = o\n{line}\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("age_bins = 18, nan, 41", "age_bins must be a tuple of finite numbers"),
            ("education_bins = 1, inf", "education_bins must be a tuple of finite numbers"),
            ("age_bins = -inf, 18", "age_bins must be a tuple of finite numbers"),
            ("age_bins = 18, 41, 31", "age_bins must be strictly increasing"),
            ("education_bins = 1, 10, 10, 14", "education_bins must be strictly increasing"),
        ],
    )
    def test_bin_edges_must_be_finite_and_increasing(self, line, message):
        # A NaN edge misorders every bin (ages 10 and 20 above age 50), and
        # unsorted edges fail every village late inside np.digitize.
        with pytest.raises(ValueError, match=message):
            parse_run_config(f"corpus_dir = c\noutput_dir = o\n{line}\n")

    def test_default_text_round_trips(self, tmp_path):
        text = default_config_text(corpus_dir="corpus", output_dir="out")
        cfg = parse_run_config(text, base_dir=".")
        assert cfg == RunConfig(corpus_dir="corpus", output_dir="out")

    def test_load_run_config_resolves_against_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("corpus_dir = corpus\noutput_dir = out\n", encoding="utf-8")
        cfg = load_run_config(path)
        assert cfg.corpus_dir == str(tmp_path / "corpus")
        assert cfg.output_dir == str(tmp_path / "out")


class TestConfigHash:
    def test_default_hash_is_pinned(self):
        assert config_sha256(RunConfig(corpus_dir="c", output_dir="o")) == (
            "a558220b89bc566371502ad111f849efe97e950b6e8e29948ebabf319572fd64"
        )

    def test_paths_and_workers_do_not_affect_hash(self):
        a = RunConfig(corpus_dir="/a", output_dir="/oa", workers=1)
        b = RunConfig(corpus_dir="/b", output_dir="/ob", workers=7)
        assert config_sha256(a) == config_sha256(b)

    def test_substantive_fields_change_hash(self):
        base = RunConfig(corpus_dir="c", output_dir="o")
        changed = RunConfig(corpus_dir="c", output_dir="o", louvain_seed=2)
        assert config_sha256(base) != config_sha256(changed)

    def test_hash_ignores_int_versus_float_literals(self):
        parsed = parse_run_config(default_config_text(), base_dir=".")
        constructed = RunConfig(corpus_dir="corpus", output_dir="out")
        assert config_sha256(parsed) == config_sha256(constructed)

    def test_embedded_config_omits_machine_fields(self, tmp_path):
        corpus = make_corpus(tmp_path, n=1)
        cfg = small_config(corpus, tmp_path / "out")
        bundle, _ = analyze_village(synth_village(seed=100), cfg)
        for key in ("corpus_dir", "output_dir", "workers"):
            assert key not in bundle["config"]


# Values of each kind a setting might be given; a tuple's kind is its entries'.
KIND_VALUES = {
    "bool": st.booleans(),
    "int": st.integers(-(10**6), 10**6),
    "int beyond float": st.integers(2**1024, 2**1100) | st.integers(-(2**1100), -(2**1024)),
    "float": st.floats(-1e6, 1e6),
    "non-finite": st.sampled_from([math.nan, math.inf, -math.inf]),
    "str": st.text(max_size=5),
    "None": st.none(),
    "list": st.lists(st.integers(0, 5) | st.text(max_size=2), max_size=3),
    "dict": st.dictionaries(st.text(max_size=2), st.integers(0, 5), max_size=2),
    "()": st.just(()),
    "tuple[str]": st.lists(st.text(max_size=3), min_size=1, max_size=3).map(tuple),
    "tuple[int]": st.lists(st.integers(0, 50), min_size=1, max_size=3).map(tuple),
    "tuple[float]": st.lists(st.floats(0, 50), min_size=1, max_size=3).map(tuple),
    "tuple[non-finite]": st.sampled_from([(0.05, math.inf), (math.nan,), (18, -math.inf)]),
    "tuple[bool]": st.lists(st.booleans(), min_size=1, max_size=3).map(tuple),
    "tuple[list]": st.lists(st.lists(st.integers(0, 5)), min_size=1, max_size=2).map(tuple),
}
# A setting's annotation -> the kinds it takes: a bool is not an int nor an
# int a bool, a float may be an int but must be finite, and a list is not a tuple.
ACCEPTED_KINDS = {
    "str": {"str"},
    "int": {"int", "int beyond float"},
    "float": {"int", "float"},
    "bool": {"bool"},
    "tuple[str, ...]": {"()", "tuple[str]"},
    "tuple[float, ...]": {"()", "tuple[int]", "tuple[float]"},
}


@st.composite
def wrong_kind_settings(draw):
    """A ``RunConfig`` field name and a value of a kind that field does not take."""
    field = draw(st.sampled_from(fields(RunConfig)))
    kind = draw(st.sampled_from(sorted(KIND_VALUES.keys() - ACCEPTED_KINDS[field.type])))
    return field.name, draw(KIND_VALUES[kind])


# Names the key = value format holds unchanged: no comma, "#", "=" or blank.
PLAIN_NAMES = st.text(string.ascii_letters + string.digits + "_-.", min_size=1, max_size=8)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def accepted_settings(draw):
    """The content-affecting settings of a ``RunConfig`` that builds."""
    attributes = draw(st.lists(st.sampled_from(ATTRIBUTE_NAMES), unique=True))
    edges = st.lists(st.integers(-100, 100) | FINITE, unique=True, max_size=4).map(
        lambda e: tuple(sorted(e))
    )
    fraction = st.floats(0, 1) | st.integers(0, 1)
    return dict(
        attributes=tuple(attributes),
        age_bins=draw(edges),
        education_bins=draw(edges),
        age_encoding=draw(st.sampled_from(("match", "difference"))),
        education_encoding=draw(st.sampled_from(("match", "difference"))),
        joint_model=draw(st.booleans()),
        permutation_tolerances=tuple(
            draw(
                st.lists(
                    st.floats(0, 10, exclude_min=True) | st.integers(1, 3),
                    min_size=1,
                    max_size=3,
                    unique=True,
                )
            )
        ),
        permutation_replicates=draw(st.integers(1, 20)),
        permutation_seed=draw(st.integers(-(2**70), 2**70)),
        louvain_seed=draw(st.integers(-(2**70), 2**70)),
        community_network_attributes=tuple(
            draw(st.lists(st.sampled_from(attributes), unique=True)) if attributes else ()
        ),
        community_node_min=draw(fraction),
        community_edge_min=draw(fraction),
        between_cutoff=draw(FINITE | st.integers(-5, 5)),
        within_cutoff=draw(FINITE | st.integers(-5, 5)),
        coerce_unknown_categories=draw(st.booleans()),
    )


@pytest.fixture(scope="module")
def one_village_corpus(tmp_path_factory):
    return make_corpus(tmp_path_factory.mktemp("kinds"), n=1)


class TestSettingKinds:
    @settings(deadline=None)
    @given(wrong_kind_settings())
    @example(("louvain_seed", 1.5))
    @example(("coerce_unknown_categories", 1))
    @example(("joint_model", "yes"))
    @example(("village_ids", "v001"))
    @example(("permutation_replicates", 10.5))
    @example(("attributes", 5))
    @example(("within_cutoff", "0.3"))
    @example(("permutation_tolerances", "ab"))
    @example(("workers", 1.5))
    @example(("workers", True))
    @example(("age_bins", [18, 30]))
    def test_a_wrong_kind_is_a_value_error_naming_the_setting(self, setting):
        name, value = setting
        with pytest.raises(ValueError, match=f"^{name} must be "):
            RunConfig(**{"corpus_dir": "c", "output_dir": "o", name: value})

    @settings(deadline=None)
    @given(
        accepted_settings(),
        st.lists(PLAIN_NAMES, unique=True, max_size=3),
        PLAIN_NAMES,
        st.integers(-3, MAX_WORKERS),
    )
    @example(dict(age_bins=(18, 30.5), within_cutoff=1), [], "c", 0)
    def test_the_file_format_holds_every_accepted_config(
        self, chosen, village_ids, corpus_dir, workers
    ):
        cfg = RunConfig(corpus_dir, "out", workers=workers, village_ids=tuple(village_ids), **chosen)
        text = "".join(f"{f.name} = {_format_value(getattr(cfg, f.name))}\n" for f in fields(cfg))
        parsed = parse_run_config(text)
        assert parsed == cfg
        assert config_sha256(parsed) == config_sha256(cfg)

    @settings(max_examples=10, deadline=None)
    @given(accepted_settings())
    @example({"louvain_seed": 1.5})
    @example({"coerce_unknown_categories": 1})
    def test_a_library_run_writes_output_summarize_accepts(
        self, one_village_corpus, tmp_path_factory, chosen
    ):
        out = tmp_path_factory.mktemp("out")
        try:
            cfg = RunConfig(str(one_village_corpus), str(out), workers=1, **chosen)
        except ValueError as exc:
            # A setting of the wrong kind is refused before anything runs.
            assert any(str(exc).startswith(f"{name} must be ") for name in chosen)
            return
        assert run_pipeline(cfg).exit_code == 0
        assert summarize_output_directory(out)["network"]


@pytest.fixture(scope="module")
def bundle_and_config(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("analyze")
    cfg = small_config(tmp / "corpus", tmp / "out")
    dataset = synth_village(seed=200)
    bundle, partition_rows = analyze_village(dataset, cfg)
    return bundle, cfg, dataset, partition_rows


class TestAnalyzeVillage:
    def test_identity_and_network_sections(self, bundle_and_config):
        bundle, cfg, dataset, _ = bundle_and_config
        assert bundle["schema_version"] == 1
        assert bundle["config_sha256"] == config_sha256(cfg)
        assert bundle["village_id"] == dataset.village_id
        assert bundle["relation_layers"] == {"sbm": dataset.graph.edge_count}
        for scope in ("full", "lcc"):
            stats = bundle["network"][scope]
            assert set(stats) == {
                "n_nodes",
                "n_edges",
                "density",
                "mean_degree",
                "mean_clustering",
                "n_components",
                "lcc_node_fraction",
                "lcc_edge_fraction",
            }
        assert bundle["network"]["lcc"]["n_components"] == 1

    def test_dyadic_section(self, bundle_and_config):
        bundle, _, _, _ = bundle_and_config
        dyadic = bundle["dyadic"]
        assert dyadic["model"] == "joint"
        assert dyadic["converged"] is True
        assert set(dyadic["per_attribute"]) == {"caste", "sex"}
        for entry in dyadic["per_attribute"].values():
            assert entry["odds_ratio"] > 0
            assert entry["ci_low"] <= entry["odds_ratio"] <= entry["ci_high"]
            assert 0 <= entry["p_value"] <= 1

    def test_permutation_keys_are_tolerance_reprs(self, bundle_and_config):
        bundle, _, _, _ = bundle_and_config
        assert set(bundle["sex_permutation"]) == {"0.05", "0.2"}
        for entry in bundle["sex_permutation"].values():
            assert set(entry["verdicts"]) == {"mm", "mf", "ff"}
            assert entry["n_replicates"] == 100

    def test_partition_and_per_attribute_sections(self, bundle_and_config):
        bundle, _, _, _ = bundle_and_config
        part = bundle["partition"]
        assert part["n_communities"] == len(part["sizes"])
        assert part["m_within"] + part["m_between"] == bundle["network"]["lcc"]["n_edges"]
        assert set(bundle["nmi"]) == {"caste", "sex"}
        assert 0.0 <= bundle["nmi"]["caste"]["value"] <= 1.0
        seg = bundle["segregation"]["caste"]
        assert {"q_attr", "q_within", "q_between", "q_within_norm", "q_between_norm"} <= set(seg)
        net = bundle["community_networks"]["caste"]
        assert "error" not in net
        assert net["node_fraction_retained"] > 0

    def test_failed_tolerance_gets_its_own_error_entry(self, tmp_path, monkeypatch):
        shared_stream = pipeline.sex_permutation_tests

        def first_fails(*args, **kwargs):
            return [ValueError("acceptance rate too low"), *shared_stream(*args, **kwargs)[1:]]

        monkeypatch.setattr(pipeline, "sex_permutation_tests", first_fails)
        cfg = small_config(
            tmp_path / "corpus", tmp_path / "out", permutation_tolerances=(0.01, 0.2)
        )
        entries = analyze_village(synth_village(seed=200), cfg)[0]["sex_permutation"]
        assert entries["0.01"] == {"tolerance": 0.01, "error": "acceptance rate too low"}
        assert entries["0.2"]["tolerance"] == 0.2
        assert entries["0.2"]["n_replicates"] == 100

    def test_partition_rows_pair_each_lcc_node_with_its_community(self, bundle_and_config):
        bundle, _, dataset, partition_rows = bundle_and_config
        lcc, nodes = largest_connected_component(dataset.graph)
        node_ids, communities = zip(*partition_rows)
        assert node_ids == dataset.attributes.take(nodes).node_ids
        assert all(type(c) is int for c in communities)
        sizes = np.bincount(communities)[1:].tolist()
        assert sizes == bundle["partition"]["sizes"]
        assert len(sizes) == bundle["partition"]["n_communities"]
        assert len(node_ids) == lcc.node_count == bundle["network"]["lcc"]["n_nodes"]

    def test_constant_feature_is_reported_as_dropped(self, tmp_path):
        cfg = small_config(tmp_path / "c", tmp_path / "o")
        bundle, _ = analyze_village(caste_constant_village(), cfg)
        dyadic = bundle["dyadic"]
        assert dyadic["dropped"] == {"caste": "every pair matches (single observed value)"}
        assert set(dyadic["per_attribute"]) == {"sex"}
        # missingness t-test cannot run when nothing is missing
        assert "error" in bundle["degree_missingness_ttests"]["caste"]


def caste_constant_village():
    """One block of 20 nodes, all of caste "general"; sex is drawn half and half."""
    config = AttributedSbmConfig(
        block_sizes=(20,),
        p_in=0.4,
        p_out=0.0,
        attribute_rule=("general",),
        seed=7,
        extra_attribute_laws={"sex": {"male": 0.5, "female": 0.5}},
    )
    dataset, _ = generate_attribute_sbm(config)
    return dataset


# message -> (attribute -> (encoding kind, value per node; None = missing))
SCREEN_CASES = {
    "every pair matches (single observed value)": {
        "caste": ("match", [1, 1, 1, 1]),
        "sex": ("match", [0, 1, 0, 1]),
    },
    "no pair matches (all values distinct)": {
        "religion": ("match", [0, 1, 2, None]),
        "sex": ("match", [0, 0, 1, 1]),
    },
    "all values equal": {
        "age": ("difference", [30, 30, 30, 30]),
        "sex": ("match", [0, 1, 1, 0]),
    },
    "only one dyad; feature is constant": {
        "age": ("difference", [20, 45, None, 50]),
        "caste": ("match", [0, 3, 3, None]),
    },
}


@pytest.mark.parametrize("message", sorted(SCREEN_CASES))
def test_constant_feature_screen_matches_per_attribute_screen(message):
    case = SCREEN_CASES[message]
    table = make_table(
        range(4),
        **{attr: [-1 if v is None else v for v in values] for attr, (_, values) in case.items()},
    )
    graph = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    spec = FeatureSpec({attr: kind for attr, (kind, _) in case.items()})
    dropped = _dropped_features(build_dyad_design(graph, labels_of(table), spec), spec)

    complete = [i for i in range(4) if all(v[i] is not None for _, v in case.values())]
    expected = constant_feature_screen(
        {attr: (kind, [values[i] for i in complete]) for attr, (kind, values) in case.items()}
    )
    assert dropped == expected
    assert message in dropped.values()


class TestRunPipeline:
    def test_full_run_writes_all_artifacts(self, tmp_path):
        corpus = make_corpus(tmp_path)
        out = tmp_path / "out"
        cfg = small_config(corpus, out)
        result = run_pipeline(cfg)
        assert result.exit_code == 0
        assert result.n_villages == 3
        assert result.n_failed == 0

        for vid in ("v00", "v01", "v02"):
            assert (out / "bundles" / f"{vid}.json").is_file()
            assert (out / "partitions" / f"{vid}.csv").is_file()
            assert (out / "community_networks" / f"{vid}__caste.dot").is_file()
            assert (out / "community_networks" / f"{vid}__caste.json").is_file()
        for name in (
            "network_stats.csv",
            "dyadic_results.csv",
            "permutation_results.csv",
            "nmi_matrix.csv",
            "segregation_results.csv",
            "summary_network.csv",
            "summary_dyadic.csv",
            "summary_permutation.csv",
            "summary_segregation.csv",
            "summary_community_networks.csv",
        ):
            assert (out / name).is_file()

        config_hash = config_sha256(cfg)
        meta = f"# segnet schema=1 config_sha256={config_hash}"
        assert (out / "network_stats.csv").read_text().splitlines()[0] == meta
        assert (out / "partitions" / "v00.csv").read_text().splitlines()[0] == meta
        dot_first = (out / "community_networks" / "v00__caste.dot").read_text().splitlines()[0]
        assert dot_first == f"// segnet schema=1 config_sha256={config_hash}"

        assert json.loads((out / "errors.json").read_text()) == {}
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["villages_analyzed"] == ["v00", "v01", "v02"]
        assert manifest["villages_failed"] == []
        assert manifest["config_sha256"] == config_hash

        # The files are what analyze_village returns.
        dataset = pipeline._load_village_dir(corpus / "v00", cfg)
        bundle, partition_rows = analyze_village(dataset, cfg)
        saved = json.loads((out / "bundles" / "v00.json").read_text())
        assert saved == json.loads(json.dumps(_json_safe(bundle)))
        partition_lines = (out / "partitions" / "v00.csv").read_text().splitlines()
        assert partition_lines[2:] == [f"{node_id},{c}" for node_id, c in partition_rows]

    def test_failed_village_is_recorded_and_others_survive(self, tmp_path):
        corpus = make_corpus(tmp_path, n=2)
        broken = corpus / "vbad"
        broken.mkdir()
        (broken / "attributes.csv").write_text(
            "node_id,sex,age,religion,caste,education,workflag,savings\n", encoding="utf-8"
        )
        out = tmp_path / "out"
        result = run_pipeline(small_config(corpus, out))
        assert result.exit_code == 1
        assert result.n_failed == 1
        assert "vbad" in result.failures
        errors = json.loads((out / "errors.json").read_text())
        assert "no relation layer files" in errors["vbad"]
        assert (out / "bundles" / "v00.json").is_file()
        assert (out / "bundles" / "v01.json").is_file()

    def test_rerun_removes_artifacts_of_a_village_that_now_fails(self, tmp_path):
        corpus = make_corpus(tmp_path)
        out = tmp_path / "out"
        cfg = small_config(corpus, out)
        assert run_pipeline(cfg).exit_code == 0
        assert list(out.rglob("v01*"))
        (corpus / "v01" / "attributes.csv").write_text("not,a,header\n", encoding="utf-8")
        result = run_pipeline(cfg)
        assert set(result.failures) == {"v01"}
        assert not list(out.rglob("v01*"))
        assert (out / "bundles" / "v00.json").is_file()
        tables = summarize_output_directory(out)
        assert {row["n_villages"] for row in tables["network"]} == {2}

    def test_community_network_error_entry_writes_no_files(self, tmp_path):
        corpus = make_corpus(tmp_path)
        out = tmp_path / "out"
        assert run_pipeline(small_config(corpus, out)).exit_code == 0
        assert len(list((out / "community_networks").iterdir())) == 6
        # No Louvain community of a two-block village holds 99% of its nodes.
        cfg = small_config(corpus, out, community_node_min=0.99)
        assert run_pipeline(cfg).exit_code == 0
        for vid in ("v00", "v01", "v02"):
            bundle = json.loads((out / "bundles" / f"{vid}.json").read_text())
            error = {"error": "no community reaches the size threshold"}
            assert bundle["community_networks"] == {"caste": error}
        # The rerun wrote exactly its own artifacts: none of the first run's networks.
        assert not list((out / "community_networks").iterdir())
        lines = (out / "summary_community_networks.csv").read_text().splitlines()
        assert lines[2:] == ["caste,0,,"]

    def test_rerun_deletes_leftover_temporary_files(self, tmp_path):
        corpus = make_corpus(tmp_path, n=2)
        out = tmp_path / "out"
        cfg = small_config(corpus, out)
        assert run_pipeline(cfg).exit_code == 0
        assert not list(out.rglob("*.tmp"))
        # What a run killed between writing a temporary file and moving it leaves.
        leftovers = [out / "bundles" / "v00.json.tmp", out / "summary_network.csv.tmp"]
        for path in leftovers:
            path.write_text("partial", encoding="utf-8")
        assert run_pipeline(cfg).exit_code == 0
        assert not list(out.rglob("*.tmp"))

    def test_rerun_where_every_village_fails_leaves_no_summaries(self, tmp_path):
        corpus = make_corpus(tmp_path, n=2)
        out = tmp_path / "out"
        cfg = small_config(corpus, out)
        assert run_pipeline(cfg).exit_code == 0
        assert list(out.glob("summary_*.csv"))
        for vid in ("v00", "v01"):
            (corpus / vid / "attributes.csv").write_text("not,a,header\n", encoding="utf-8")
        result = run_pipeline(cfg)
        assert result.exit_code == 1
        assert set(result.failures) == {"v00", "v01"}
        assert not list(out.glob("summary_*.csv"))
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["villages_analyzed"] == []
        with pytest.raises(ValueError, match="no bundles found under"):
            summarize_output_directory(out)

    def test_empty_corpus_after_a_full_run_leaves_no_village_artifacts(self, tmp_path):
        corpus = make_corpus(tmp_path, n=2)
        out = tmp_path / "out"
        assert run_pipeline(small_config(corpus, out)).exit_code == 0
        empty = tmp_path / "empty"
        empty.mkdir()
        cfg = small_config(empty, out)
        result = run_pipeline(cfg)
        assert result.exit_code == 1
        assert json.loads((out / "errors.json").read_text()) == {"corpus": "no villages found"}
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config_sha256"] == config_sha256(cfg)
        assert manifest["villages_analyzed"] == []
        assert manifest["villages_failed"] == []
        assert not list(out.glob("summary_*.csv"))
        for sub in ("bundles", "partitions", "community_networks"):
            assert not list((out / sub).iterdir())
        # the corpus tables are rewritten with their headers only
        assert (out / "network_stats.csv").read_text().splitlines()[2:] == []

    def test_killed_worker_is_recorded_as_a_village_failure(self, tmp_path, monkeypatch):
        self._check_only_the_dead_village_fails(tmp_path, monkeypatch, "v02")

    @pytest.mark.parametrize("dead", ["v00", "v01"])
    def test_killed_worker_fails_only_its_own_village(self, tmp_path, monkeypatch, dead):
        # v00 and v01 die while other villages are running or pending.
        self._check_only_the_dead_village_fails(tmp_path, monkeypatch, dead)

    @staticmethod
    def _check_only_the_dead_village_fails(tmp_path, monkeypatch, dead):
        corpus = make_corpus(tmp_path)
        out = tmp_path / "out"
        analyze = pipeline.analyze_village

        def exit_on_dead(dataset, cfg):
            if dataset.village_id == dead:
                os._exit(3)
            return analyze(dataset, cfg)

        # Forked workers inherit the patched module on every platform.
        monkeypatch.setattr(pipeline, "analyze_village", exit_on_dead)
        monkeypatch.setattr(
            pipeline,
            "ProcessPoolExecutor",
            functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")),
        )
        result = run_pipeline(small_config(corpus, out, workers=2))
        assert result.exit_code == 1
        errors = json.loads((out / "errors.json").read_text())
        assert list(errors) == [dead]
        assert errors[dead].startswith("BrokenProcessPool: ")
        assert errors == dict(result.failures)
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["villages_failed"] == [dead]
        # Villages lost with the broken pool rerun in fresh pools of their own.
        survivors = [v for v in ("v00", "v01", "v02") if v != dead]
        assert manifest["villages_analyzed"] == survivors
        for vid in ("v00", "v01", "v02"):
            assert (out / "bundles" / f"{vid}.json").is_file() == (vid != dead)

    @pytest.mark.parametrize("exists", [True, False], ids=["empty", "missing"])
    def test_empty_corpus_exits_nonzero(self, tmp_path, exists):
        corpus = tmp_path / "corpus"
        if exists:
            corpus.mkdir()
        out = tmp_path / "out"
        result = run_pipeline(small_config(corpus, out))
        assert result.exit_code == 1
        assert result.n_villages == 0
        errors = json.loads((out / "errors.json").read_text())
        assert errors == {"corpus": "no villages found"}

    def test_village_ids_filter(self, tmp_path):
        corpus = make_corpus(tmp_path)
        out = tmp_path / "out"
        result = run_pipeline(small_config(corpus, out, village_ids=("v01",)))
        assert result.exit_code == 0
        assert result.n_villages == 1
        assert (out / "bundles" / "v01.json").is_file()
        assert not (out / "bundles" / "v00.json").exists()
        # A requested id without a village directory is a failed village.
        result = run_pipeline(small_config(corpus, out, village_ids=("v01", "v999")))
        assert result.exit_code == 1
        assert (result.n_villages, result.n_failed) == (2, 1)
        errors = json.loads((out / "errors.json").read_text())
        assert list(errors) == ["v999"]
        assert errors["v999"].startswith("FileNotFoundError: no village directory")
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["villages_analyzed"] == ["v01"]
        assert manifest["villages_failed"] == ["v999"]
        assert (out / "bundles" / "v01.json").is_file()


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestReproducibility:
    def test_reruns_are_byte_identical(self, tmp_path):
        corpus = make_corpus(tmp_path)
        out_a, out_b = tmp_path / "out_a", tmp_path / "out_b"
        assert run_pipeline(small_config(corpus, out_a)).exit_code == 0
        assert run_pipeline(small_config(corpus, out_b)).exit_code == 0
        assert _tree_bytes(out_a) == _tree_bytes(out_b)

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        corpus = make_corpus(tmp_path)
        out_serial, out_parallel = tmp_path / "serial", tmp_path / "parallel"
        assert run_pipeline(small_config(corpus, out_serial, workers=1)).exit_code == 0
        assert run_pipeline(small_config(corpus, out_parallel, workers=2)).exit_code == 0
        assert _tree_bytes(out_serial) == _tree_bytes(out_parallel)


class TestWorkerPool:
    @staticmethod
    def record_pools(monkeypatch):
        """Replace the process pool by one that runs each task in this process
        and records the ``max_workers`` it was asked for."""
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", InProcessPool)
        return sizes

    @pytest.mark.parametrize("workers, expected", [(2, [2]), (3, [3]), (MAX_WORKERS, [3]), (1, [])])
    def test_pool_is_no_larger_than_the_corpus(self, tmp_path, monkeypatch, workers, expected):
        corpus = make_corpus(tmp_path)  # three villages
        sizes = self.record_pools(monkeypatch)
        result = run_pipeline(small_config(corpus, tmp_path / "out", workers=workers))
        assert result.exit_code == 0
        assert sizes == expected

    def test_workers_above_the_cap_are_refused(self):
        with pytest.raises(ValueError, match=f"workers must be at most {MAX_WORKERS}"):
            RunConfig(corpus_dir="c", output_dir="o", workers=MAX_WORKERS + 1)
        with pytest.raises(ValueError, match=f"workers must be at most {MAX_WORKERS}"):
            parse_run_config(f"corpus_dir = c\noutput_dir = o\nworkers = {10**20}\n")


def sex_constant_where_caste_is_observed():
    """Nodes 0-9 female with caste missing, the rest male.

    On caste's complete cases sex is constant, so a joint fit drops it; sex's
    own complete cases are every node.
    """
    dataset = synth_village(seed=200)
    first = np.arange(dataset.attributes.n) < 10
    attributes = replace(
        dataset.attributes,
        caste=np.where(first, -1, dataset.attributes.caste),
        sex=first.astype(np.int64),
    )
    return replace(dataset, attributes=attributes)


def religion_constant():
    dataset = synth_village(seed=200)
    religion = np.zeros(dataset.attributes.n, dtype=np.int64)
    return replace(dataset, attributes=replace(dataset.attributes, religion=religion))


# case -> (village, attributes, the error entry of each attribute that cannot be fitted)
SINGLE_MODEL_CASES = {
    "missing_values": (lambda: synth_village(seed=200, missing_rate=0.1), ("caste", "sex"), {}),
    "sex_constant_where_caste_is_observed": (
        sex_constant_where_caste_is_observed,
        ("caste", "sex"),
        {},
    ),
    "one_attribute_cannot_be_fitted": (
        religion_constant,
        ("caste", "sex", "religion"),
        {
            "religion": {
                "n_complete_case_nodes": 28,
                "dropped": {"religion": "every pair matches (single observed value)"},
                "error": "every dyad feature is constant",
            }
        },
    ),
}


def test_dyadic_and_community_sections_read_the_labels_binned_once():
    # Ages 20 and 25 share the bin [18, 31), so a binned and a raw age match differ.
    config = AttributedSbmConfig(
        block_sizes=(20, 20),
        p_in=0.5,
        p_out=0.08,
        attribute_rule=("general", "obc"),
        seed=7,
        extra_attribute_laws={
            "age": {"20": 0.3, "25": 0.3, "45": 0.4},
            "education": {"0": 0.4, "12": 0.3, "16": 0.3},
        },
        missing_rate=0.1,
    )
    dataset, _ = generate_attribute_sbm(config)
    cfg = RunConfig(corpus_dir="c", output_dir="o", attributes=("caste", "age", "education"))
    bundle, partition_rows = analyze_village(dataset, cfg)
    lcc, nodes = largest_connected_component(dataset.graph)
    labels = labels_of(
        dataset.attributes.take(nodes), {"age": cfg.age_bins, "education": cfg.education_bins}
    )
    fit = fit_logistic(build_dyad_design(lcc, labels, pipeline._feature_spec(cfg)))
    assert bundle["dyadic"]["per_attribute"] == pipeline._fit_to_dict(fit)["per_attribute"]
    assignment = [community for _, community in partition_rows]
    for attr in ("age", "education"):
        assert bundle["nmi"][attr] == asdict(nmi(labels[attr], assignment))
        t, p = degree_missingness_ttest(lcc, labels[attr])
        assert bundle["degree_missingness_ttests"][attr] == {"t": t, "p_value": p}
    raw_age = labels_of(dataset.attributes.take(nodes))["age"]
    assert bundle["nmi"]["age"] != asdict(nmi(raw_age, assignment))


class TestSingleModel:
    """``joint_model = false``: one logistic fit per attribute instead of a joint one."""

    @pytest.mark.parametrize("case", sorted(SINGLE_MODEL_CASES))
    def test_each_entry_equals_a_standalone_single_attribute_fit(self, tmp_path, case):
        make_village, attributes, errors = SINGLE_MODEL_CASES[case]
        dataset = make_village()
        cfg = small_config(
            tmp_path / "corpus", tmp_path / "out", attributes=attributes, joint_model=False
        )
        dyadic = analyze_village(dataset, cfg)[0]["dyadic"]
        assert list(dyadic) == ["model", "per_attribute"]
        assert dyadic["model"] == "single"
        assert list(dyadic["per_attribute"]) == list(attributes)
        lcc, nodes = largest_connected_component(dataset.graph)
        table = dataset.attributes.take(nodes)
        fitted = [attr for attr in attributes if attr not in errors]
        for attr in fitted:
            design = build_dyad_design(lcc, labels_of(table), FeatureSpec({attr: "match"}))
            fit = fit_logistic(design)
            assert dyadic["per_attribute"][attr] == {
                "n_complete_case_nodes": design.n_nodes,
                "dropped": {},
                "n_dyads": fit.n_dyads,
                "n_ties": fit.n_ties,
                "converged": fit.converged,
                "n_iterations": fit.n_iterations,
                "diagnostic": fit.diagnostic,
                "intercept": {"beta": fit.beta0, "se": fit.intercept_se},
                "beta": float(fit.beta[0]),
                "se": float(fit.std_errors[0]),
                "odds_ratio": float(fit.odds_ratios[0]),
                "ci_low": float(fit.ci95[0, 0]),
                "ci_high": float(fit.ci95[0, 1]),
                "p_value": float(fit.p_values[0]),
            }
            assert fit.converged
        for attr, entry in errors.items():
            assert dyadic["per_attribute"][attr] == entry

        # An attribute that cannot be fitted has no row; the others keep theirs.
        save_village(dataset, tmp_path / "corpus" / "v00")
        assert run_pipeline(cfg).exit_code == 0
        rows = (tmp_path / "out" / "dyadic_results.csv").read_text().splitlines()[2:]
        assert [row.split(",")[1] for row in rows] == fitted
        summary = summarize_output_directory(tmp_path / "out")["dyadic"]
        assert {r["attribute"]: r["n_fits"] for r in summary} == {
            attr: int(attr in fitted) for attr in attributes
        }

    def test_output_is_byte_identical_across_reruns_and_workers(self, tmp_path):
        corpus = make_corpus(tmp_path, missing_rate=0.1)
        trees = []
        for name, workers in (("first", 1), ("rerun", 1), ("two_workers", 2)):
            cfg = small_config(corpus, tmp_path / name, joint_model=False, workers=workers)
            assert run_pipeline(cfg).exit_code == 0
            trees.append(_tree_bytes(tmp_path / name))
        assert json.loads(trees[0]["bundles/v00.json"])["dyadic"]["model"] == "single"
        assert trees[0] == trees[1] == trees[2]


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("summaries")
    corpus = make_corpus(tmp)
    out = tmp / "out"
    cfg = small_config(corpus, out)
    assert run_pipeline(cfg).exit_code == 0
    return out, cfg


class TestSummaries:
    def test_summarize_output_directory_matches_in_memory_path(self, finished_run):
        out, _ = finished_run
        bundles = [
            json.loads(p.read_text()) for p in sorted((out / "bundles").glob("*.json"))
        ]
        assert summarize_output_directory(out) == summarize_corpus(bundles)

    def test_summary_tables_have_expected_shape(self, finished_run):
        out, _ = finished_run
        tables = summarize_output_directory(out)
        assert set(tables) == {
            "network",
            "dyadic",
            "permutation",
            "segregation",
            "community_networks",
        }
        for row in tables["network"]:
            assert row["n_villages"] == 3
            assert row["min"] <= row["median"] <= row["max"]
        assert [r["attribute"] for r in tables["dyadic"]] == ["caste", "sex"]
        assert len(tables["permutation"]) == 2 * 3  # tolerances x tie types
        assert [r["attribute"] for r in tables["community_networks"]] == ["caste"]

    def test_summary_numbers_by_hand(self, finished_run, tmp_path):
        # Three villages whose values tell the median from the mean and the
        # sample standard deviation (ddof=1) from the population one.
        out = tmp_path / "out"
        shutil.copytree(finished_run[0], out)
        network = {"count": (1, 2, 6), "float": (0.1, 0.2, 0.6)}
        edits = {
            "odds_ratio": (1.5, 2.0, 4.5),
            "p_value": (0.01, 0.2, 0.03),
            "nmi": (0.1, 0.2, 0.6),
            "q_attr": (0.1, 0.2, 0.3),
            "q_within_norm": (0.1, 0.2, 0.6),
            "q_between_norm": (-0.1, 0.25, 0.4),
            "verdict": ("assortative", "dissortative", "ns"),
            "node_fraction_retained": (0.5, 1.0, 0.75),
            "tie_fraction_retained": (0.1, 0.2, 0.3),
        }
        for i, path in enumerate(sorted((out / "bundles").glob("*.json"))):
            bundle = json.loads(path.read_text())
            for stats in bundle["network"].values():
                for metric, value in stats.items():
                    stats[metric] = network["count" if type(value) is int else "float"][i]
            assert bundle["dyadic"]["converged"]
            caste_fit = bundle["dyadic"]["per_attribute"]["caste"]
            caste_fit["odds_ratio"] = edits["odds_ratio"][i]
            caste_fit["p_value"] = edits["p_value"][i]
            bundle["nmi"]["caste"]["value"] = edits["nmi"][i]
            for key in ("q_attr", "q_within_norm", "q_between_norm"):
                bundle["segregation"]["caste"][key] = edits[key][i]
            bundle["sex_permutation"]["0.05"]["verdicts"]["mm"] = edits["verdict"][i]
            for key in ("node_fraction_retained", "tie_fraction_retained"):
                bundle["community_networks"]["caste"][key] = edits[key][i]
            path.write_text(json.dumps(bundle))
        tables = summarize_output_directory(out)

        int_range, float_range = (3, 1.0, 2.0, 6.0), (3, 0.1, 0.2, 0.6)
        rows = {
            ("full", "n_nodes"): int_range,
            ("full", "n_edges"): int_range,
            ("full", "density"): float_range,
            ("full", "mean_degree"): float_range,
            ("full", "mean_clustering"): float_range,
            ("full", "n_components"): int_range,
            ("full", "lcc_node_fraction"): float_range,
            ("full", "lcc_edge_fraction"): float_range,
            ("lcc", "n_nodes"): int_range,
            ("lcc", "n_edges"): int_range,
            ("lcc", "density"): float_range,
            ("lcc", "mean_degree"): float_range,
            ("lcc", "mean_clustering"): float_range,
        }
        found = {(r["scope"], r["metric"]): tuple(r.values())[2:] for r in tables["network"]}
        assert found == {key: pytest.approx(value, rel=1e-12) for key, value in rows.items()}
        third, two_thirds = 100.0 / 3.0, 200.0 / 3.0
        sd = math.sqrt(0.07)  # of (0.1, 0.2, 0.6) with ddof=1; ddof=0 gives sqrt(0.14 / 3)
        dyadic = tables["dyadic"][0]
        assert dyadic == pytest.approx({
            "attribute": "caste", "n_fits": 3, "pct_significant": two_thirds,
            "pct_assortative": two_thirds, "or_min": 1.5, "or_median": 2.0, "or_max": 4.5,
            "nmi_mean": 0.3, "nmi_sd": sd,
        }, rel=1e-12)
        segregation = tables["segregation"][0]
        assert segregation == pytest.approx({
            "attribute": "caste", "n_villages": 3, "q_attr_mean": 0.2,
            "q_within_norm_mean": 0.3, "q_within_norm_sd": sd, "pct_within_above_cutoff": third,
            "q_between_norm_mean": 0.55 / 3.0, "q_between_norm_sd": math.sqrt(0.395 / 6),
            "pct_between_positive": two_thirds, "pct_between_above_cutoff": two_thirds,
        }, rel=1e-12)
        assert tables["permutation"][0] == pytest.approx({
            "tolerance": 0.05, "tie_type": "mm", "n_villages": 3, "pct_assortative": third,
            "pct_dissortative": third,
        }, rel=1e-12)
        assert tables["community_networks"] == [
            pytest.approx({"attribute": "caste", "n_villages": 3, "node_fraction_mean": 0.75,
                           "tie_fraction_mean": 0.2}, rel=1e-12)
        ]

    def test_refuses_mixed_configurations(self, finished_run):
        out, _ = finished_run
        bundles = [
            json.loads(p.read_text()) for p in sorted((out / "bundles").glob("*.json"))
        ]
        bundles[1]["config_sha256"] = "0" * 64
        with pytest.raises(ValueError, match="different configurations"):
            summarize_corpus(bundles)

    def test_refuses_bundles_missing_from_the_manifest(self, finished_run, tmp_path):
        out, _ = finished_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        shutil.copy(copy / "bundles" / "v00.json", copy / "bundles" / "v99.json")
        with pytest.raises(ValueError, match=r"not in the manifest \['v99'\], missing \[\]"):
            summarize_output_directory(copy)
        (copy / "bundles" / "v99.json").unlink()
        (copy / "bundles" / "v01.json").unlink()
        with pytest.raises(ValueError, match=r"not in the manifest \[\], missing \['v01'\]"):
            summarize_output_directory(copy)
        (copy / "run_manifest.json").unlink()
        with pytest.raises(ValueError, match="no run manifest at"):
            summarize_output_directory(copy)

    def test_empty_inputs_are_errors(self, tmp_path):
        with pytest.raises(ValueError, match="no bundles to summarize"):
            summarize_corpus([])
        (tmp_path / "bundles").mkdir()
        with pytest.raises(ValueError, match="no bundles found under"):
            summarize_output_directory(tmp_path)


# The column layout of every corpus and summary CSV, as readers of the
# output directory rely on it.
TABLE_HEADERS = {
    "network_stats.csv": "village,scope,n_nodes,n_edges,density,mean_degree,mean_clustering,"
    "n_components,lcc_node_fraction,lcc_edge_fraction",
    "dyadic_results.csv": "village,attribute,odds_ratio,ci_low,ci_high,p_value",
    "permutation_results.csv": "village,tolerance,tie_type,observed,expected,ratio,p_value,verdict",
    "nmi_matrix.csv": "village,caste,sex",
    "segregation_results.csv": "village,attribute,q_attr,q_within,q_between,q_within_norm,"
    "q_between_norm,n_used",
    "summary_network.csv": "scope,metric,n_villages,min,median,max",
    "summary_dyadic.csv": "attribute,n_fits,pct_significant,pct_assortative,or_min,or_median,"
    "or_max,nmi_mean,nmi_sd",
    "summary_permutation.csv": "tolerance,tie_type,n_villages,pct_assortative,pct_dissortative",
    "summary_segregation.csv": "attribute,n_villages,q_attr_mean,q_within_norm_mean,"
    "q_within_norm_sd,pct_within_above_cutoff,q_between_norm_mean,q_between_norm_sd,"
    "pct_between_positive,pct_between_above_cutoff",
    "summary_community_networks.csv": "attribute,n_villages,node_fraction_mean,tie_fraction_mean",
}


class TestTableLayouts:
    def test_csv_header_rows(self, finished_run):
        out, cfg = finished_run
        for name, header in TABLE_HEADERS.items():
            lines = (out / name).read_text(encoding="utf-8").splitlines()
            assert lines[0] == f"# segnet schema=1 config_sha256={config_sha256(cfg)}"
            assert lines[1] == header, name

    def test_summarize_prints_tables_in_order(self, finished_run, capsys):
        out, _ = finished_run
        assert main(["summarize", str(out)]) == 0
        titles = [
            line for line in capsys.readouterr().out.splitlines() if line.startswith("== ")
        ]
        assert titles == [
            "== network ==",
            "== dyadic ==",
            "== permutation ==",
            "== segregation ==",
            "== community networks ==",
        ]

    def test_dot_file_is_header_plus_rendered_network(self, tmp_path):
        # Each .json is its bundle entry, and each .dot renders that saved JSON.
        out = tmp_path / "out"
        corpus = make_corpus(tmp_path)
        cfg = small_config(corpus, out, community_network_attributes=("caste", "sex"))
        assert run_pipeline(cfg).exit_code == 0
        header = f"// segnet schema=1 config_sha256={config_sha256(cfg)}\n"
        expected_files = set()
        for bundle_path in sorted((out / "bundles").glob("*.json")):
            bundle = json.loads(bundle_path.read_text())
            village = bundle["village_id"]
            assert list(bundle["community_networks"]) == ["caste", "sex"]
            for attr, entry in bundle["community_networks"].items():
                assert "error" not in entry
                stem = out / "community_networks" / f"{village}__{attr}"
                saved = json.loads(stem.with_suffix(".json").read_text())
                assert saved == entry
                expected = header + community_network_to_dot(saved, f"v_{village}")
                assert stem.with_suffix(".dot").read_text() == expected
                expected_files |= {f"{stem.name}.json", f"{stem.name}.dot"}
        assert len(expected_files) == 12
        assert {p.name for p in (out / "community_networks").iterdir()} == expected_files


def test_json_safe_scrubs_non_finite_floats_and_tuples():
    payload = {"a": 1.5, "c": float("nan"), "d": float("-inf"), "g": (1, (2, float("inf")))}
    cleaned = _json_safe(payload)
    assert cleaned == {"a": 1.5, "c": None, "d": None, "g": [1, [2, None]]}
    assert json.loads(json.dumps(cleaned, allow_nan=False)) == cleaned


def assert_json_native(obj, where=""):
    """Containers are dicts with str keys, lists or tuples; leaves are JSON scalars.

    Types are matched exactly: ``np.float64`` subclasses ``float``, and ``_json_safe``
    passes numpy values through unconverted.
    """
    if type(obj) is dict:
        for key, value in obj.items():
            assert type(key) is str, f"{where}: key {key!r}"
            assert_json_native(value, f"{where}.{key}")
    elif type(obj) in (list, tuple):
        for value in obj:
            assert_json_native(value, f"{where}[]")
    else:
        assert type(obj) in (str, int, float, bool, type(None)), f"{where}: {type(obj).__name__}"


def json_native_configs():
    """The default config; one with per-attribute fits, age differences, three
    tolerances and three community networks; and one with unbinned ages and
    education, education differences and community networks over both."""
    default = RunConfig(corpus_dir="c", output_dir="o")
    return (
        default,
        replace(
            default,
            joint_model=False,
            age_encoding="difference",
            permutation_tolerances=(0.02, 0.05, 0.2),
            community_network_attributes=("caste", "sex", "age"),
        ),
        replace(
            default,
            age_bins=(),
            education_bins=(),
            education_encoding="difference",
            community_network_attributes=("caste", "age", "education"),
        ),
    )


@pytest.mark.parametrize("workload", ["survey", "small_villages"])
def test_benchmark_bundles_are_json_native(workload, tmp_path, monkeypatch):
    for dataset in load_benchmark_villages(workload, tmp_path, monkeypatch):
        for cfg in json_native_configs():
            assert_json_native(analyze_village(dataset, cfg)[0], dataset.village_id)


def all_male_village():
    dataset = synth_village(seed=201)
    sex = np.zeros(dataset.attributes.n, dtype=np.int64)  # code 0 is male
    return replace(dataset, attributes=replace(dataset.attributes, sex=sex))


@pytest.mark.parametrize(
    "village", [caste_constant_village, sex_constant_where_caste_is_observed, all_male_village]
)
def test_degenerate_bundles_are_json_native(village):
    dataset = village()
    for cfg in json_native_configs():
        bundle, _ = analyze_village(dataset, cfg)
        assert_json_native(bundle, village.__name__)
        if village is all_male_village:
            assert all("error" in entry for entry in bundle["sex_permutation"].values())


def schema_configs():
    """Joint and single fits, match and difference encodings, one to three
    tolerances and one to three community networks, the last with a size
    threshold no community passes."""
    base = RunConfig(corpus_dir="c", output_dir="o", permutation_replicates=50)
    return (
        replace(base, permutation_tolerances=(0.2,)),
        replace(
            base,
            joint_model=False,
            age_encoding="difference",
            permutation_tolerances=(0.05, 0.2),
            community_network_attributes=("caste", "sex"),
        ),
        replace(
            base,
            education_encoding="difference",
            permutation_tolerances=(0.02, 0.05, 0.2),
            community_network_attributes=("caste", "sex", "age"),
            community_node_min=1.0,
        ),
    )


def sections_with_an_error_entry(bundle):
    def holds_error(value):
        return isinstance(value, dict) and (
            "error" in value or any(holds_error(v) for v in value.values())
        )

    return {key for key, value in bundle.items() if holds_error(value)}


def test_every_bundle_analyze_village_returns_fits_the_schema(monkeypatch):
    shared_stream = pipeline.sex_permutation_tests

    def first_fails(*args, **kwargs):
        return [ValueError("acceptance rate too low"), *shared_stream(*args, **kwargs)[1:]]

    monkeypatch.setattr(pipeline, "sex_permutation_tests", first_fails)
    villages = (
        lambda: synth_village(seed=200, missing_rate=0.1),
        caste_constant_village,
        sex_constant_where_caste_is_observed,
        religion_constant,
        all_male_village,
    )
    with_errors = set()
    for cfg in schema_configs():
        on_disk = []
        for make_village in villages:
            dataset = make_village()
            bundle, _ = analyze_village(dataset, cfg)
            path = Path(f"{dataset.village_id}.json")
            pipeline._check_bundle(path, bundle)
            on_disk.append(json.loads(json.dumps(_json_safe(bundle))))
            pipeline._check_bundle(path, on_disk[-1])
            with_errors |= sections_with_an_error_entry(bundle)
        summarize_corpus(on_disk)
    assert with_errors == {
        "degree_missingness_ttests", "dyadic", "sex_permutation", "nmi", "segregation",
        "community_networks",
    }


@pytest.fixture(scope="module")
def bundle_on_disk():
    cfg = RunConfig(
        corpus_dir="c",
        output_dir="o",
        attributes=("caste", "sex", "religion"),
        permutation_replicates=50,
        community_network_attributes=("caste", "sex"),
    )
    bundle, _ = analyze_village(synth_village(seed=200, missing_rate=0.1), cfg)
    return json.loads(json.dumps(_json_safe(bundle)))


REPLACEMENTS = (None, -1, 0, 2.5, float("nan"), True, "x", "ns", [], [1], {}, {"error": "x"})


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_bundle_the_schema_accepts_can_be_summarized(bundle_on_disk, data):
    """Edit one place of a valid bundle; ``_check_bundle`` raises ``ValueError`` or the
    summaries read the bundle without raising."""
    bundle = copy.deepcopy(bundle_on_disk)
    parent, key = None, None
    node = bundle
    while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        parent, key = node, data.draw(st.sampled_from(keys))
        node = parent[key]
    if parent is None:
        return
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(REPLACEMENTS)))
    bundle["config_sha256"] = pipeline._hash_config_dict(bundle.get("config"))
    try:
        pipeline._check_bundle(Path(f"{bundle_on_disk['village_id']}.json"), bundle)
    except ValueError:
        return
    summarize_corpus([bundle])


# segnet's runtime is numpy only.  scipy.special alone added ~21 MB RSS and
# 280 modules to a fresh `import segnet`, the largest part of every worker's
# memory; no scipy module may load.
FOOTPRINT_SCRIPT = """
import json, sys
import segnet
result = segnet.run_pipeline(segnet.load_run_config(sys.argv[1]))
scipy_modules = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"exit_code": result.exit_code, "scipy_modules": scipy_modules}))
"""


def test_benchmark_hook_names_exist_in_pipeline():
    # perfbench/spans.py wraps these names in the segnet.pipeline namespace;
    # a name missing there would stop the benchmark's traced runs.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert [name for name in spans.WRAPPED if not hasattr(pipeline, name)] == []


def test_import_and_run_load_no_heavy_scipy_module(tmp_path):
    corpus = make_corpus(tmp_path, missing_rate=0.2)
    config = tmp_path / "run.cfg"
    config.write_text(
        "corpus_dir = corpus\noutput_dir = out\nattributes = caste, sex\n"
        "permutation_replicates = 100\nworkers = 1\n",
        encoding="utf-8",
    )
    # a fresh interpreter, so modules this test session imported do not count
    env = dict(os.environ, PYTHONPATH=str(Path(segnet.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT, str(config)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {"exit_code": 0, "scipy_modules": []}
    bundles = sorted((tmp_path / "out" / "bundles").iterdir())
    assert len(bundles) == len(list(corpus.iterdir()))
    for path in bundles:
        # the run reached the Wald and Welch p-values and the component labels
        bundle = json.loads(path.read_text(encoding="utf-8"))
        assert bundle["dyadic"]["converged"]
        assert 0.0 < bundle["degree_missingness_ttests"]["caste"]["p_value"] <= 1.0
        assert bundle["network"]["full"]["n_components"] >= 1

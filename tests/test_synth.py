import hashlib
import json

import numpy as np
import pytest

from segnet import (
    AttributedSbmConfig,
    FeatureSpec,
    build_dyad_design,
    generate_attribute_sbm,
    generate_dyad_sample,
)
from segnet.attributes import CASTE_CATEGORIES
from segnet.cli import main

from .conftest import design_groups, labels_of
from .oracles import dyad_2x2


def test_planted_partition_matches_block_sizes():
    config = AttributedSbmConfig(
        block_sizes=(30, 20, 10),
        p_in=0.4,
        p_out=0.02,
        attribute_rule=("general", "obc", "scheduled caste"),
        seed=3,
    )
    dataset, planted = generate_attribute_sbm(config)
    assert dataset.graph.node_count == 60
    assert planted.sizes.tolist() == [30, 20, 10]
    assert planted.assignment[:30].tolist() == [1] * 30
    assert "sbm" in dataset.relation_layers


def test_fixed_rule_blocks_are_attribute_pure():
    config = AttributedSbmConfig(
        block_sizes=(15, 15),
        p_in=0.4,
        p_out=0.05,
        attribute_rule=("general", "scheduled tribe"),
        seed=5,
    )
    dataset, _ = generate_attribute_sbm(config)
    caste = dataset.attributes.labels("caste")
    assert set(caste[:15].tolist()) == {CASTE_CATEGORIES.index("general")}
    assert set(caste[15:].tolist()) == {CASTE_CATEGORIES.index("scheduled tribe")}


def test_distribution_rule_draws_only_listed_categories():
    config = AttributedSbmConfig(
        block_sizes=(200,),
        p_in=0.05,
        p_out=0.0,
        attribute_rule=({"obc": 0.5, "general": 0.5},),
        seed=7,
    )
    dataset, _ = generate_attribute_sbm(config)
    codes = set(dataset.attributes.labels("caste").tolist())
    allowed = {CASTE_CATEGORIES.index("obc"), CASTE_CATEGORIES.index("general")}
    assert codes <= allowed
    assert len(codes) == 2  # both appear at this size


def test_extra_attribute_laws_and_missing_rate():
    config = AttributedSbmConfig(
        block_sizes=(120,),
        p_in=0.05,
        p_out=0.0,
        attribute_rule=("general",),
        seed=11,
        extra_attribute_laws={
            "sex": {"male": 0.5, "female": 0.5},
            "age": {"20": 0.5, "40": 0.5},
        },
        missing_rate=0.3,
    )
    dataset, _ = generate_attribute_sbm(config)
    sex = dataset.attributes.labels("sex")
    age = dataset.attributes.labels("age")
    assert (sex == -1).sum() > 0
    assert (age == -1).sum() > 0
    assert set(age[age >= 0].tolist()) <= {20, 40}
    # caste is also thinned by the same rate
    assert (dataset.attributes.labels("caste") == -1).sum() > 0


def test_no_missing_when_rate_is_zero():
    config = AttributedSbmConfig(
        block_sizes=(40,),
        p_in=0.2,
        p_out=0.0,
        attribute_rule=("obc",),
        seed=13,
        extra_attribute_laws={"sex": {"male": 0.6, "female": 0.4}},
    )
    dataset, _ = generate_attribute_sbm(config)
    assert (dataset.attributes.labels("caste") >= 0).all()
    assert (dataset.attributes.labels("sex") >= 0).all()


def test_same_seed_reproduces_dataset():
    config = AttributedSbmConfig(
        block_sizes=(25, 25),
        p_in=0.3,
        p_out=0.02,
        attribute_rule=("general", "obc"),
        seed=17,
        extra_attribute_laws={"sex": {"male": 0.5, "female": 0.5}},
        missing_rate=0.1,
    )
    first, _ = generate_attribute_sbm(config)
    second, _ = generate_attribute_sbm(config)
    assert first.equals(second)


def test_sparse_model_warns_about_fragmentation():
    config = AttributedSbmConfig(
        block_sizes=(100,),
        p_in=0.005,  # expected degree ~0.5, far below 2 ln 2
        p_out=0.0,
        attribute_rule=("general",),
        seed=19,
    )
    with pytest.warns(UserWarning, match="largest component"):
        generate_attribute_sbm(config)


def test_config_validation():
    with pytest.raises(ValueError):
        AttributedSbmConfig(
            block_sizes=(), p_in=0.1, p_out=0.1, attribute_rule=(), seed=0
        )
    with pytest.raises(ValueError):
        AttributedSbmConfig(
            block_sizes=(5,), p_in=1.5, p_out=0.1, attribute_rule=("general",), seed=0
        )
    with pytest.raises(ValueError, match="one entry per block"):
        AttributedSbmConfig(
            block_sizes=(5, 5), p_in=0.1, p_out=0.1, attribute_rule=("general",), seed=0
        )
    with pytest.raises(ValueError, match="already driven"):
        generate_attribute_sbm(
            AttributedSbmConfig(
                block_sizes=(5,),
                p_in=0.9,
                p_out=0.0,
                attribute_rule=("general",),
                seed=0,
                extra_attribute_laws={"caste": {"obc": 1.0}},
            )
        )


class TestDyadSample:
    def test_tie_rate_tracks_the_model(self):
        # beta0 = logit(0.2); matches add log(3)
        import math

        dataset = generate_dyad_sample(
            beta0=math.log(0.25),
            betas={"caste": math.log(3.0)},
            feature_law={"caste": {"general": 0.5, "obc": 0.5}},
            n_nodes=300,
            seed=23,
        )
        design = build_dyad_design(
            dataset.graph, labels_of(dataset.attributes), FeatureSpec({"caste": "match"})
        )
        match_ties, match_total, diff_ties, diff_total = dyad_2x2(design_groups(design))
        # non-match odds 0.25 -> p = 0.2; match odds 0.75 -> p = 3/7
        assert diff_ties / diff_total == pytest.approx(0.2, abs=0.02)
        assert match_ties / match_total == pytest.approx(3.0 / 7.0, abs=0.02)

    def test_deterministic_given_seed(self):
        kwargs = dict(
            beta0=-1.0,
            betas={"sex": 0.8},
            feature_law={"sex": {"male": 0.5, "female": 0.5}},
            n_nodes=60,
            seed=29,
        )
        assert generate_dyad_sample(**kwargs).equals(generate_dyad_sample(**kwargs))

    def test_saturating_probabilities_are_rejected(self):
        with pytest.raises(ValueError, match="saturate"):
            generate_dyad_sample(
                beta0=800.0,
                betas={"caste": 0.0},
                feature_law={"caste": {"general": 0.5, "obc": 0.5}},
                n_nodes=20,
                seed=31,
            )

    def test_unknown_feature_rejected(self):
        with pytest.raises(ValueError):
            generate_dyad_sample(
                beta0=-1.0,
                betas={"height": 1.0},
                feature_law={"height": {"1": 0.5, "2": 0.5}},
                n_nodes=20,
                seed=37,
            )

    def test_unknown_attribute_is_named_before_its_law_is_drawn(self):
        # the law is malformed too, so drawing it first would fail on that
        with pytest.raises(ValueError, match="unknown attribute 'bogus'"):
            generate_dyad_sample(
                beta0=-1.0,
                betas={"sex": 0.8},
                feature_law={"sex": {"male": 0.5, "female": 0.5}, "bogus": {"x": 0.5}},
                n_nodes=20,
                seed=37,
            )


def test_law_cells_follow_the_ingest_codec():
    config = AttributedSbmConfig(
        block_sizes=(40,),
        p_in=0.2,
        p_out=0.0,
        attribute_rule=("General",),
        seed=41,
        extra_attribute_laws={"age": {"": 0.5, "30": 0.5}, "sex": {"": 0.5, "Male": 0.5}},
    )
    attributes = generate_attribute_sbm(config)[0].attributes
    assert set(attributes.labels("caste").tolist()) == {CASTE_CATEGORIES.index("general")}
    assert set(attributes.labels("sex").tolist()) == {-1, 0}
    assert set(attributes.labels("age").tolist()) == {-1, 30}
    negative = AttributedSbmConfig(
        block_sizes=(5,), p_in=0.9, p_out=0.0, attribute_rule=("-3",), seed=0, attribute_name="age"
    )
    with pytest.raises(ValueError, match="negative age value -3"):
        generate_attribute_sbm(negative)


# README's example synth config.  The digests pin the bytes of every file it
# writes, so a change to a generator, the codec or ``save_village`` that moves
# a generated corpus fails here, naming the file.  The bytes depend only on
# seeded draws, per-element ``math.exp`` and one dyad coefficient, so they do
# not depend on the CPU or the BLAS build.
README_SYNTH_CONFIG = {
    "output_dir": "corpus",
    "seed": 7,
    "villages": [
        {"kind": "sbm", "village_id": "v001",
         "block_sizes": [60, 60], "p_in": 0.25, "p_out": 0.02,
         "block_rules": ["general", {"obc": 0.5, "scheduled caste": 0.5}],
         "extra_attributes": {"sex": {"male": 0.5, "female": 0.5}},
         "missing_rate": 0.05},
        {"kind": "dyad", "village_id": "v002", "n_nodes": 140,
         "beta0": -1.4, "betas": {"caste": 1.6},
         "attribute_law": {"caste": {"general": 0.6, "obc": 0.4}}},
    ],
}

README_SYNTH_SHA256 = {
    "v001/attributes.csv": "24bb4bc1946bd94a08feeb0ab8c3268176da0e1b94f91dedf412dcc33aaffcbf",
    "v001/nodes.csv": "88c360b0dd07906062b71f20af667a47918590ae12a21e5d05e8fef484742e65",
    "v001/sbm.csv": "f86c0d892a480016d0a3ac29428cc164717930ca22cabce2b7d89499d6cd33cc",
    "v002/attributes.csv": "c00cfb8c12b1baa3016c2f4420428147532c6e55f9d4ebda20785048dc055986",
    "v002/dyads.csv": "757cc3f8c6885917da2267a41117b73cf5654d9b8ebbe9845124038d322a250a",
    "v002/nodes.csv": "6d631df7e64ff87c6a7c08ed785985ea5e4b8d8ac9830b0724a13660fe297dc4",
}


def test_readme_synth_corpus_bytes_are_pinned(tmp_path, capsys):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(README_SYNTH_CONFIG), encoding="utf-8")
    assert main(["synth", "--config", str(config)]) == 0
    corpus = tmp_path / "corpus"
    digests = {
        path.relative_to(corpus).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(corpus.rglob("*"))
        if path.is_file()
    }
    assert sorted(digests) == sorted(README_SYNTH_SHA256)
    for name, digest in README_SYNTH_SHA256.items():
        assert digests[name] == digest, name

import numpy as np
import pytest

from segnet import (
    AttributedSbmConfig,
    FeatureEncoding,
    FeatureSpec,
    build_dyad_design,
    generate_attribute_sbm,
    generate_dyad_sample,
)
from segnet.attributes import CASTE_CATEGORIES

from .conftest import design_groups
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
    age = dataset.attributes.values("age")
    assert (sex == -1).sum() > 0
    assert np.isnan(age).sum() > 0
    observed_ages = set(age[~np.isnan(age)].tolist())
    assert observed_ages <= {20.0, 40.0}
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
            dataset.graph,
            dataset.attributes,
            FeatureSpec({"caste": FeatureEncoding("match")}),
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

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import segnet
from segnet.cli import main
from segnet.config import _hash_config_dict, default_config_text
from segnet.pipeline import summarize_corpus


def write_synth_config(tmp_path, villages, seed=5):
    path = tmp_path / "synth.json"
    path.write_text(
        json.dumps({"output_dir": "corpus", "seed": seed, "villages": villages}),
        encoding="utf-8",
    )
    return path


SBM_VILLAGES = [
    {
        "kind": "sbm",
        "village_id": "v001",
        "block_sizes": [15, 15],
        "p_in": 0.5,
        "p_out": 0.06,
        "block_rules": ["general", {"obc": 0.7, "scheduled caste": 0.3}],
        "extra_attributes": {"sex": {"male": 0.5, "female": 0.5}},
    },
    {
        "kind": "sbm",
        "village_id": "v002",
        "block_sizes": [12, 12],
        "p_in": 0.55,
        "p_out": 0.05,
        "block_rules": ["scheduled tribe", "general"],
        "extra_attributes": {"sex": {"male": 0.4, "female": 0.6}},
        "missing_rate": 0.05,
    },
    {
        "kind": "dyad",
        "village_id": "v003",
        "n_nodes": 60,
        "beta0": -1.5,
        "betas": {"caste": math.log(3.0)},
        "attribute_law": {"caste": {"general": 0.5, "obc": 0.5}},
    },
]


def test_synth_run_summarize_round_trip(tmp_path, capsys):
    synth_cfg = write_synth_config(tmp_path, SBM_VILLAGES)
    assert main(["synth", "--config", str(synth_cfg)]) == 0
    out_line = capsys.readouterr().out
    assert f"wrote 3 village(s) under {tmp_path / 'corpus'}" in out_line
    for vid in ("v001", "v002", "v003"):
        village = tmp_path / "corpus" / vid
        assert (village / "attributes.csv").is_file()
        assert (village / "nodes.csv").is_file()

    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(
        "corpus_dir = corpus\n"
        "output_dir = out\n"
        "attributes = caste, sex\n"
        "permutation_replicates = 100\n"
        "workers = 1\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(run_cfg)]) == 0
    captured = capsys.readouterr()
    assert "analyzed 3 of 3 village(s)" in captured.out
    assert captured.err == ""
    out_dir = tmp_path / "out"
    assert (out_dir / "bundles" / "v003.json").is_file()
    # the dyad village carries no sex data: soft errors inside the bundle,
    # not a run failure
    bundle = json.loads((out_dir / "bundles" / "v003.json").read_text())
    assert "error" in bundle["sex_permutation"]["0.05"]

    assert main(["summarize", str(out_dir)]) == 0
    text = capsys.readouterr().out
    for header in ("== network ==", "== dyadic ==", "== permutation ==", "== segregation =="):
        assert header in text
    assert "caste" in text


def test_run_with_default_config_text(tmp_path, capsys):
    synth_cfg = write_synth_config(tmp_path, SBM_VILLAGES[:2])
    assert main(["synth", "--config", str(synth_cfg)]) == 0
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(default_config_text(corpus_dir="corpus", output_dir="out"))
    assert main(["run", "--config", str(run_cfg)]) == 0
    assert "analyzed 2 of 2" in capsys.readouterr().out
    # default attribute list includes columns the synth villages never carry;
    # those analyses degrade to per-attribute soft errors
    bundle = json.loads((tmp_path / "out" / "bundles" / "v001.json").read_text())
    assert "error" in bundle["dyadic"]
    assert "error" in bundle["nmi"]["religion"]


def test_run_reports_failed_villages_on_stderr(tmp_path, capsys):
    synth_cfg = write_synth_config(tmp_path, SBM_VILLAGES[:1])
    assert main(["synth", "--config", str(synth_cfg)]) == 0
    broken = tmp_path / "corpus" / "vbad"
    broken.mkdir()
    (broken / "attributes.csv").write_text(
        "node_id,sex,age,religion,caste,education,workflag,savings\n", encoding="utf-8"
    )
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(
        "corpus_dir = corpus\noutput_dir = out\nattributes = caste, sex\n"
        "permutation_replicates = 50\nworkers = 1\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(run_cfg)]) == 1
    captured = capsys.readouterr()
    assert "analyzed 1 of 2 village(s)" in captured.out
    assert "failed vbad:" in captured.err


def corpus_tree(corpus):
    """Every path under ``corpus`` with its bytes (``None`` for a directory)."""
    return {
        p.relative_to(corpus).as_posix(): p.read_bytes() if p.is_file() else None
        for p in corpus.rglob("*")
    }


def write_run_config(tmp_path, output_dir):
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(
        f"corpus_dir = corpus\noutput_dir = {output_dir}\nattributes = caste, sex\n"
        "permutation_replicates = 20\nworkers = 1\n",
        encoding="utf-8",
    )
    return run_cfg


@pytest.mark.parametrize(
    "village_id",
    [
        "v001",
        "bundles",
        "partitions",
        "community_networks",
        "errors.json",
        "run_manifest.json",
        "network_stats.csv",
        "summary_network.csv",
    ],
)
def test_run_refuses_an_output_dir_that_is_a_village_directory(tmp_path, capsys, village_id):
    villages = [dict(SBM_VILLAGES[0], village_id=village_id), SBM_VILLAGES[1]]
    assert main(["synth", "--config", str(write_synth_config(tmp_path, villages))]) == 0
    corpus = tmp_path / "corpus"
    before = corpus_tree(corpus)
    capsys.readouterr()
    if village_id == "v001":
        # Its tables would be read as relation layers of v001 on the next run.
        run_cfg = write_run_config(tmp_path, "corpus/v001")
        refusal = f"output_dir {corpus / 'v001'} is a village directory: it holds an attributes.csv"
    elif "." in village_id:
        # The run would fail to write its own file of that name, after analyzing.
        run_cfg = write_run_config(tmp_path, "corpus")
        refusal = f"output_dir {corpus} writes the file {corpus / village_id}, which is a directory"
    else:
        # The run would write its files into that village and delete its tables.
        run_cfg = write_run_config(tmp_path, "corpus")
        refusal = f"output_dir {corpus} writes into {corpus / village_id}, a village directory: "
        refusal += "it holds an attributes.csv"
    assert main(["run", "--config", str(run_cfg)]) == 1
    assert capsys.readouterr().err == f"segnet run: {refusal}\n"
    assert corpus_tree(corpus) == before


@pytest.mark.parametrize(
    "output_dir, village_ids",
    [
        ("corpus", ("v001", "v002")),
        ("corpus/v001/out", ("v001", "v002")),
        # Village names that match the run's stale-file globs ``*.tmp`` and ``summary_*.csv``.
        ("corpus", ("x.tmp", "summary_extra.csv")),
    ],
    ids=["corpus", "corpus/v001/out", "names-matching-globs"],
)
def test_run_into_the_corpus_outside_village_directories_reruns(
    tmp_path, capsys, output_dir, village_ids
):
    villages = [dict(v, village_id=vid) for v, vid in zip(SBM_VILLAGES, village_ids)]
    assert main(["synth", "--config", str(write_synth_config(tmp_path, villages))]) == 0
    corpus = tmp_path / "corpus"
    before = {vid: corpus_tree(corpus / vid) for vid in village_ids}
    run_cfg = write_run_config(tmp_path, output_dir)
    for _ in range(2):
        assert main(["run", "--config", str(run_cfg)]) == 0
        assert "analyzed 2 of 2 village(s)" in capsys.readouterr().out
        if output_dir == "corpus":
            assert {vid: corpus_tree(corpus / vid) for vid in village_ids} == before


def test_run_with_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 1
    assert "segnet run:" in capsys.readouterr().err


# A fresh interpreter, so modules this test session imported do not count.
BAD_RUN_SCRIPT = """
import sys
from segnet.cli import main
code = main(["run", "--config", sys.argv[1]])
print(code, "numpy" in sys.modules)
"""


@pytest.mark.parametrize(
    "config_text",
    [None, "corpus_dir = c\n", "corpus_dir = c\noutput_dir = o\nworkers = many\n"],
    ids=["missing", "incomplete", "bad_value"],
)
def test_bad_run_config_fails_before_numpy_loads(tmp_path, config_text):
    config = tmp_path / "run.cfg"
    if config_text is not None:
        config.write_text(config_text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(segnet.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", BAD_RUN_SCRIPT, str(config)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert done.stdout.split() == ["1", "False"]
    assert done.stderr.startswith("segnet run:")


def test_summarize_without_bundles(tmp_path, capsys):
    assert main(["summarize", str(tmp_path / "nothing")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("segnet summarize: no bundles found under")


def finished_synth_run(tmp_path):
    """Output directory of a one-village run whose summaries are then overwritten."""
    assert main(["synth", "--config", str(write_synth_config(tmp_path, SBM_VILLAGES[:1]))]) == 0
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(
        "corpus_dir = corpus\noutput_dir = out\nattributes = caste\n"
        "permutation_replicates = 20\nworkers = 1\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(run_cfg)]) == 0
    out_dir = tmp_path / "out"
    summaries = sorted(out_dir.glob("summary_*.csv"))
    assert summaries
    for path in summaries:
        path.write_text("stale\n", encoding="utf-8")
    return out_dir, summaries


def assert_summarize_refuses(out_dir, summaries, capsys, message):
    """``segnet summarize`` exits 1 with one message line and leaves the summaries alone."""
    capsys.readouterr()
    assert main(["summarize", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("segnet summarize: ")
    assert message in err
    assert all(path.read_text(encoding="utf-8") == "stale\n" for path in summaries)


@pytest.mark.parametrize(
    "target, content, message",
    [
        ("run_manifest.json", "{}", "run_manifest.json: 'villages_analyzed' is not a list"),
        ("bundles/v001.json", "[]", "v001.json: not a bundle of schema version 1"),
    ],
)
def test_summarize_refuses_a_malformed_output_directory(tmp_path, capsys, target, content, message):
    out_dir, summaries = finished_synth_run(tmp_path)
    (out_dir / target).write_text(content, encoding="utf-8")
    assert_summarize_refuses(out_dir, summaries, capsys, message)


def _keep_only_the_schema_version(bundle):
    bundle.clear()
    bundle["schema_version"] = 1


def _drop_config_attributes(bundle):
    del bundle["config"]["attributes"]


def _set_config(**settings):
    """An edit that changes config settings and, so the hash still matches, config_sha256."""

    def edit(bundle):
        bundle["config"].update(settings)
        bundle["config_sha256"] = _hash_config_dict(bundle["config"])

    return edit


VERDICT_WORDS = "['assortative', 'dissortative', 'ns']"


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            _keep_only_the_schema_version,
            "v001.json: config_sha256 is not the hash of the bundle's config",
        ),
        (lambda bundle: bundle.update(extra=1), "v001.json: unexpected ['extra']"),
        (
            _drop_config_attributes,
            "v001.json: config_sha256 is not the hash of the bundle's config",
        ),
        (lambda bundle: bundle.update(nmi=[]), "v001.json: nmi: expected an object, not []"),
        (
            lambda bundle: bundle["nmi"].update(caste=5),
            "v001.json: nmi.caste: expected an object, not 5",
        ),
        (
            lambda bundle: bundle["nmi"]["caste"].update(value="x"),
            "v001.json: nmi.caste.value: expected a number or null, not 'x'",
        ),
        (
            lambda bundle: bundle["dyadic"]["per_attribute"].update(caste=5),
            "v001.json: dyadic.per_attribute.caste: expected an object, not 5",
        ),
        (
            lambda bundle: bundle["dyadic"].pop("model"),
            "v001.json: dyadic: missing ['model']",
        ),
        (
            lambda bundle: [e.update(verdicts=5) for e in bundle["sex_permutation"].values()],
            "v001.json: sex_permutation.0.05.verdicts: expected an object, not 5",
        ),
        (
            lambda bundle: bundle["segregation"]["caste"].pop("q_within"),
            "v001.json: segregation.caste: missing ['q_within']",
        ),
        (
            lambda bundle: bundle["nmi"]["caste"].pop("mutual_information"),
            "v001.json: nmi.caste: missing ['mutual_information']",
        ),
        (
            lambda bundle: bundle["partition"].update(extra=1),
            "v001.json: partition: unexpected ['extra']",
        ),
        (
            lambda bundle: bundle["sex_permutation"]["0.2"]["verdicts"].update(mm="maybe"),
            f"v001.json: sex_permutation.0.2.verdicts.mm: expected one of {VERDICT_WORDS}, "
            "not 'maybe'",
        ),
        (
            lambda bundle: bundle["segregation"]["caste"].update(q_within_norm="0.5"),
            "v001.json: segregation.caste.q_within_norm: expected a number or null, not '0.5'",
        ),
        (
            lambda bundle: bundle.update(village_id="v039"),
            "v001.json: village_id: expected 'v001', not 'v039'",
        ),
        (
            lambda bundle: bundle["relation_layers"].update(sbm="122"),
            "v001.json: relation_layers.sbm: expected a count, not '122'",
        ),
        (
            lambda bundle: bundle.update(n_unmatched_attribute_rows=-3),
            "v001.json: n_unmatched_attribute_rows: expected a count, not -3",
        ),
        (
            lambda bundle: bundle["partition"].update(sizes="15, 15"),
            "v001.json: partition.sizes: expected a list, not '15, 15'",
        ),
        (
            lambda bundle: bundle["community_networks"]["caste"]["nodes"][0].update(size=1.5),
            "v001.json: community_networks.caste.nodes[0].size: expected a count, not 1.5",
        ),
        (
            lambda bundle: bundle["degree_missingness_ttests"]["caste"].update(foo=1),
            "v001.json: degree_missingness_ttests.caste: unexpected ['foo']",
        ),
        (
            lambda bundle: bundle["degree_missingness_ttests"]["caste"].update(error=1),
            "v001.json: degree_missingness_ttests.caste.error: expected a string, not 1",
        ),
        (
            lambda bundle: bundle["dyadic"].update(model="single"),
            "v001.json: dyadic.model: expected one of ['joint'], not 'single'",
        ),
        (
            _set_config(joint_model=False),
            "v001.json: dyadic: unexpected ['converged', 'diagnostic', 'dropped', 'intercept',",
        ),
        (_set_config(joint_model="yes"), "v001.json: joint_model must be true or false, got 'yes'"),
        (_set_config(attributes=5), "v001.json: attributes must be a tuple of strings, got 5"),
        (_set_config(workers=2), "v001.json: config: not the settings of a valid run"),
        (_set_config(colour="red"), "v001.json: config: unexpected ['colour']"),
        (_set_config(louvain_seed=1.5), "v001.json: louvain_seed must be an integer, got 1.5"),
        (_set_config(corpus_dir="c"), "v001.json: config: not the settings of a valid run"),
        (
            _set_config(within_cutoff=10**400),
            "v001.json: within_cutoff must be a finite number, got 10000",
        ),
    ],
    ids=[
        "schema-version-only", "extra-key", "config-without-attributes", "nmi-list",
        "nmi-entry-int", "nmi-value-str", "per-attribute-int", "no-model", "verdicts-int",
        "no-q-within", "no-mutual-information", "partition-extra-key", "verdict-maybe",
        "q-within-norm-str", "other-village-id", "layer-count-str", "unmatched-negative",
        "sizes-str", "node-size-float", "ttest-error-entry-extra-key", "error-not-str",
        "model-single", "config-single", "config-bool-str", "config-attributes-int",
        "config-workers", "config-unknown-key", "config-seed-float", "config-corpus-dir",
        "config-cutoff-beyond-float",
    ],
)
def test_summarize_refuses_a_bundle_it_cannot_read(tmp_path, capsys, edit, message):
    out_dir, summaries = finished_synth_run(tmp_path)
    path = out_dir / "bundles" / "v001.json"
    bundle = json.loads(path.read_text(encoding="utf-8"))
    edit(bundle)
    path.write_text(json.dumps(bundle), encoding="utf-8")
    assert_summarize_refuses(out_dir, summaries, capsys, message)


def test_summarize_reads_a_null_number_as_the_nan_it_stands_for(tmp_path, capsys):
    # NaN and infinities are written to bundles as null, so every float field
    # may be null; the summaries treat it as the run's NaN did.
    out_dir, _ = finished_synth_run(tmp_path)
    path = out_dir / "bundles" / "v001.json"
    bundle = json.loads(path.read_text(encoding="utf-8"))
    bundle["segregation"]["caste"]["q_within_norm"] = None
    path.write_text(json.dumps(bundle), encoding="utf-8")
    assert main(["summarize", str(out_dir)]) == 0
    bundle["segregation"]["caste"]["q_within_norm"] = math.nan
    row = summarize_corpus([bundle])["segregation"][0]
    assert math.isnan(row["q_within_norm_mean"]) and row["pct_within_above_cutoff"] == 0.0
    summary = (out_dir / "summary_segregation.csv").read_text(encoding="utf-8").splitlines()
    assert summary[2].split(",")[3:6] == ["", "", "0.0"]


@pytest.mark.parametrize("target", ["run_manifest.json", "bundles/v001.json"])
@pytest.mark.parametrize("data", [b"{", b"\xff{}"], ids=["truncated", "not-utf-8"])
def test_summarize_names_a_file_that_is_not_json(tmp_path, capsys, target, data):
    out_dir, summaries = finished_synth_run(tmp_path)
    (out_dir / target).write_bytes(data)
    assert_summarize_refuses(out_dir, summaries, capsys, f"{out_dir / target}: not a JSON file: ")


class TestSynthErrors:
    def run_synth(self, tmp_path, capsys, villages):
        cfg = write_synth_config(tmp_path, villages)
        code = main(["synth", "--config", str(cfg)])
        return code, capsys.readouterr().err

    def test_empty_village_list(self, tmp_path, capsys):
        code, err = self.run_synth(tmp_path, capsys, [])
        assert code == 1
        assert "needs a non-empty 'villages' list" in err

    def test_duplicate_village_id(self, tmp_path, capsys):
        village = dict(SBM_VILLAGES[0])
        code, err = self.run_synth(tmp_path, capsys, [village, dict(village)])
        assert code == 1
        assert "villages[1]: duplicate village_id 'v001'" in err

    def test_unknown_kind(self, tmp_path, capsys):
        code, err = self.run_synth(
            tmp_path, capsys, [{"kind": "mystery", "village_id": "x"}]
        )
        assert code == 1
        assert "villages[0]: unknown village kind 'mystery'" in err

    def test_missing_key(self, tmp_path, capsys):
        village = {k: v for k, v in SBM_VILLAGES[0].items() if k != "block_sizes"}
        code, err = self.run_synth(tmp_path, capsys, [village])
        assert code == 1
        assert "villages[0]: missing key 'block_sizes'" in err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ([], "synth config must be a JSON object"),
            ({"villages": {"kind": "sbm"}}, "synth config needs a non-empty 'villages' list"),
            ({"villages": [3]}, "villages[0]: village entry must be a JSON object"),
            (
                {"villages": [dict(SBM_VILLAGES[2], betas=[1])]},
                "villages[0]: betas must be a JSON object",
            ),
            (
                {"villages": [dict(SBM_VILLAGES[2], attribute_law=[["caste", {"obc": 1.0}]])]},
                "villages[0]: attribute_law must be a JSON object",
            ),
            (
                {"villages": [dict(SBM_VILLAGES[2], attribute_law={"caste": [1]})]},
                "villages[0]: attribute_law['caste'] must be a JSON object",
            ),
            (
                {"villages": [dict(SBM_VILLAGES[0], extra_attributes=["sex"])]},
                "villages[0]: extra_attributes must be a JSON object",
            ),
            (
                {"villages": [dict(SBM_VILLAGES[0], extra_attributes={"sex": "male"})]},
                "villages[0]: extra_attributes['sex'] must be a JSON object",
            ),
            (
                {"villages": [dict(SBM_VILLAGES[0], block_rules=["general", 3])]},
                "villages[0]: block_rules[1] must be a JSON object",
            ),
            (
                {"villages": [SBM_VILLAGES[0], dict(SBM_VILLAGES[1], p_in=2.0)]},
                "villages[1]: need 0 <= p_out <= p_in <= 1",
            ),
            (
                {"villages": [dict(SBM_VILLAGES[0], p_in=[0.5])]},
                "villages[0]: p_in must be a finite number, got [0.5]",
            ),
            (
                {"villages": [dict(SBM_VILLAGES[1], missing_rate=1.0)]},
                "villages[0]: missing_rate must be in [0, 1)",
            ),
            (
                {"villages": [dict(SBM_VILLAGES[2], attribute_law={"caste": {"obc": 0.7}})]},
                "villages[0]: category probabilities must be non-negative and sum to 1",
            ),
            (
                {"villages": [dict(SBM_VILLAGES[2], n_nodes=1)]},
                "villages[0]: need at least 2 nodes",
            ),
            (
                {"villages": [dict(SBM_VILLAGES[2], betas={"caste": 1.0, "sex": 0.5})]},
                "villages[0]: no feature law for attribute(s): sex",
            ),
            (
                {"villages": [dict(SBM_VILLAGES[0], block_sizes=[[30], 30])]},
                "villages[0]: block_sizes[0] must be an integer, got [30]",
            ),
            ({"seed": [1], "villages": SBM_VILLAGES}, "seed must be an integer, got [1]"),
            ({"seed": 3.7, "villages": SBM_VILLAGES}, "seed must be an integer, got 3.7"),
            ({"seed": True, "villages": SBM_VILLAGES}, "seed must be an integer, got True"),
            ({"seed": "7", "villages": SBM_VILLAGES}, "seed must be an integer, got '7'"),
            (
                {"villages": [SBM_VILLAGES[0], dict(SBM_VILLAGES[1], seed=3.7)]},
                "villages[1]: seed must be an integer, got 3.7",
            ),
            (
                {"villages": [dict(SBM_VILLAGES[2], n_nodes=30.0)]},
                "villages[0]: n_nodes must be an integer, got 30.0",
            ),
            (
                {"villages": [dict(SBM_VILLAGES[0], block_sizes=[15, True])]},
                "villages[0]: block_sizes[1] must be an integer, got True",
            ),
            (
                {"villages": [dict(SBM_VILLAGES[2], beta0="-1.4")]},
                "villages[0]: beta0 must be a finite number, got '-1.4'",
            ),
            (
                {"villages": [dict(SBM_VILLAGES[2], betas={"caste": False})]},
                "villages[0]: betas['caste'] must be a finite number, got False",
            ),
            (
                {"villages": [dict(SBM_VILLAGES[0], p_out=math.inf)]},
                "villages[0]: p_out must be a finite number, got inf",
            ),
            (
                {"villages": [dict(SBM_VILLAGES[1], missing_rate=math.nan)]},
                "villages[0]: missing_rate must be a finite number, got nan",
            ),
            ({"output_dir": 5, "villages": SBM_VILLAGES}, "output_dir must be a string, got 5"),
            *(
                (
                    {"villages": [SBM_VILLAGES[0], dict(SBM_VILLAGES[1], village_id=village_id)]},
                    f"villages[1]: village_id must name one directory, got {village_id!r}",
                )
                for village_id in [5, "", ".", "..", "../escape", "a/b", "a\\b", "v2\0x"]
            ),
        ],
        ids=[
            "top_level_list",
            "villages_object",
            "village_number",
            "betas_list",
            "attribute_law_list",
            "attribute_law_value_list",
            "extra_attributes_list",
            "extra_attributes_value_string",
            "block_rule_number",
            "second_village_invalid",
            "p_in_list",
            "missing_rate_one",
            "law_sums_below_one",
            "dyad_one_node",
            "beta_without_law",
            "block_size_list",
            "seed_list",
            "seed_float",
            "seed_bool",
            "seed_str",
            "village_seed_float",
            "n_nodes_float",
            "block_size_bool",
            "beta0_str",
            "beta_bool",
            "p_out_inf",
            "missing_rate_nan",
            "output_dir_number",
            "village_id_number",
            "village_id_empty",
            "village_id_dot",
            "village_id_dotdot",
            "village_id_escapes",
            "village_id_nested",
            "village_id_backslash",
            "village_id_nul",
        ],
    )
    def test_malformed_config_is_reported_not_raised(self, tmp_path, capsys, spec, message):
        path = tmp_path / "synth.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["synth", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"segnet synth: {message}\n"
        assert not (tmp_path / "corpus").exists()
        assert [p.name for p in tmp_path.iterdir()] == ["synth.json"]

    def test_stale_layer_file_is_refused_before_any_write(self, tmp_path, capsys):
        sbm = SBM_VILLAGES[0]
        dyad = dict(SBM_VILLAGES[2], village_id="v001")
        assert self.run_synth(tmp_path, capsys, [sbm]) == (0, "")
        corpus = tmp_path / "corpus"
        before = {p.name: p.read_bytes() for p in (corpus / "v001").iterdir()}
        assert sorted(before) == ["attributes.csv", "nodes.csv", "sbm.csv"]
        # v000 would save cleanly, but v001 would leave sbm.csv beside dyads.csv
        code, err = self.run_synth(tmp_path, capsys, [dict(dyad, village_id="v000"), dyad])
        assert code == 1
        assert err == (
            f"segnet synth: {corpus / 'v001'} holds sbm.csv, which saving village 'v001' "
            "would not overwrite; remove it or save elsewhere\n"
        )
        assert sorted(p.name for p in corpus.iterdir()) == ["v001"]
        assert {p.name: p.read_bytes() for p in (corpus / "v001").iterdir()} == before

    def test_generator_errors_carry_village_index(self, tmp_path, capsys):
        village = dict(SBM_VILLAGES[0], p_in=2.0)
        code, err = self.run_synth(tmp_path, capsys, [village])
        assert code == 1
        assert "villages[0]: need 0 <= p_out <= p_in <= 1" in err


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 2


def readme_block(heading, language):
    """The first ``language`` code block after ``heading`` in README.md."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text[text.index(f"\n{heading}\n") :]
    start = section.index(f"```{language}\n") + len(f"```{language}\n")
    return section[start : section.index("```", start)]


def test_readme_library_example_runs_as_written(tmp_path, capsys, monkeypatch):
    sbm, _ = segnet.generate_attribute_sbm(
        segnet.AttributedSbmConfig(
            block_sizes=(15, 15),
            p_in=0.5,
            p_out=0.06,
            attribute_rule=("general", {"obc": 0.7, "scheduled caste": 0.3}),
            seed=5,
            extra_attribute_laws={"sex": {"male": 0.5, "female": 0.5}},
        )
    )
    # Node 0 loses its ties: an isolated respondent, kept only by nodes.csv.
    layers = {name: p[(p != 0).all(axis=1)] for name, p in sbm.layer_pairs.items()}
    village = segnet.VillageDataset("vil001", sbm.attributes, layers)
    segnet.save_village(village, tmp_path / "corpus" / "vil001")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(readme_block("## Library use", "python"), "README.md", "exec"), namespace)
    printed = capsys.readouterr().out.split()
    # q_attr, q_within_norm and q_between_norm, the NMI, the caste and sex
    # odds ratios, then the mm, mf and ff permutation p-values
    assert len(printed) == 9
    assert all(math.isfinite(float(value)) for value in printed)
    assert namespace["data"].equals(village)

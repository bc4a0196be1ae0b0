import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import segnet
from segnet.cli import main
from segnet.config import default_config_text


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


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            _keep_only_the_schema_version,
            "v001.json: bundle keys missing ['community_networks', 'config', 'config_sha256',",
        ),
        (
            lambda bundle: bundle.update(extra=1),
            "v001.json: bundle keys missing [], unexpected ['extra']",
        ),
        (
            _drop_config_attributes,
            "v001.json: config_sha256 is not the hash of the bundle's config",
        ),
        (
            lambda bundle: bundle.update(nmi=[]),
            "v001.json: bundle section 'nmi' is not a JSON object",
        ),
        (
            lambda bundle: bundle["nmi"].update(caste=5),
            "v001.json: bundle entry nmi.caste is not a JSON object",
        ),
        (
            lambda bundle: bundle["nmi"]["caste"].update(value="x"),
            "v001.json: bundle cannot be summarized: ",
        ),
        (
            lambda bundle: bundle["dyadic"]["per_attribute"].update(caste=5),
            "v001.json: bundle cannot be summarized: TypeError: ",
        ),
        (
            lambda bundle: bundle["dyadic"].pop("model"),
            "v001.json: bundle cannot be summarized: KeyError: 'model'",
        ),
        (
            lambda bundle: [e.update(verdicts=5) for e in bundle["sex_permutation"].values()],
            "v001.json: bundle cannot be summarized: TypeError: ",
        ),
        (
            lambda bundle: bundle["segregation"]["caste"].update(q_within_norm=None),
            "v001.json: bundle cannot be summarized: TypeError: ",
        ),
    ],
    ids=[
        "schema-version-only", "extra-key", "config-without-attributes", "nmi-list",
        "nmi-entry-int", "nmi-value-str", "per-attribute-int", "no-model", "verdicts-int",
        "q-within-norm-null",
    ],
)
def test_summarize_refuses_a_bundle_it_cannot_read(tmp_path, capsys, edit, message):
    out_dir, summaries = finished_synth_run(tmp_path)
    path = out_dir / "bundles" / "v001.json"
    bundle = json.loads(path.read_text(encoding="utf-8"))
    edit(bundle)
    path.write_text(json.dumps(bundle), encoding="utf-8")
    assert_summarize_refuses(out_dir, summaries, capsys, message)


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
                "villages[0]: float() argument must be a string or a real number, not 'list'",
            ),
            (
                {"villages": [dict(SBM_VILLAGES[0], block_sizes=[[30], 30])]},
                "villages[0]: int() argument must be a string, a bytes-like object or a real"
                " number, not 'list'",
            ),
            ({"seed": [1], "villages": SBM_VILLAGES}, "seed must be an integer, got [1]"),
            ({"output_dir": 5, "villages": SBM_VILLAGES}, "output_dir must be a string, got 5"),
            *(
                (
                    {"villages": [SBM_VILLAGES[0], dict(SBM_VILLAGES[1], village_id=village_id)]},
                    f"villages[1]: village_id must name one directory, got {village_id!r}",
                )
                for village_id in [5, "", ".", "..", "../escape", "a/b"]
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
            "block_size_list",
            "seed_list",
            "output_dir_number",
            "village_id_number",
            "village_id_empty",
            "village_id_dot",
            "village_id_dotdot",
            "village_id_escapes",
            "village_id_nested",
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

"""The command-line scripts under ``scripts/``, run in process on small inputs."""

import dataclasses
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from segnet import IngestConfig, load_run_config, load_village, run_pipeline

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(monkeypatch, name, *args):
    module = load_script(name)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *map(str, args)])
    module.main()
    return module


def load_saved_village(directory):
    layers = sorted(p for p in directory.glob("*.csv") if p.stem not in ("attributes", "nodes"))
    return load_village(
        layers, directory / "attributes.csv", IngestConfig(nodes_file=directory / "nodes.csv")
    )


# Two villages of a raw release: key-file ids, and per layer a 0/1 matrix
# whose row i is key line i (asymmetric entries mean a one-way answer).
RAW_VILLAGES = {
    "1": (
        ["101", "102", "103", "104", "105"],
        {
            "visit": [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [1, 0, 0, 0, 0]],
            "borrow": [[0, 0, 0, 1, 0], [0, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]],
        },
    ),
    "2": (
        ["201", "202", "203"],
        {
            "visit": [[0, 1, 1], [1, 0, 0], [1, 0, 0]],
            "borrow": [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
        },
    ),
}
CHARACTERISTICS = [
    "village,pid,resp_gend,age,religion,caste,educ,workflag,savings",
    "1,101,1,34,HINDUISM,OBC,7,1,2",
    "1,102,2,NA,Islam,SCHEDULED CASTE,-1,2,1",
    "1,103,1,5.5,hinduism,NOBLE,12,0,0",
    "1,104,3,-1,,General,5.5,7,",
    # 105 is a non-respondent: in the key file, absent here.
    "2,201,2,41,CHRISTIANITY,Scheduled Tribe,0,1,1",
    "2,202,1,27,hinduism,obc,10,2,2",
    "2,203,2,19,islam,general,NA,1,0",
    "3,301,1,50,hinduism,obc,4,1,1",  # a village without matrices
]


def write_raw_release(raw, layer_names=None):
    raw.mkdir()
    for village, (pids, layers) in RAW_VILLAGES.items():
        (raw / f"key_vilno_{village}.csv").write_text("\n".join(pids) + "\n", encoding="utf-8")
        for layer, matrix in layers.items():
            name = (layer_names or {}).get(layer, layer)
            lines = [",".join(map(str, row)) for row in matrix]
            (raw / f"adj_{name}_vilno_{village}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (raw / "individual_characteristics.csv").write_text(
        "\n".join(CHARACTERISTICS) + "\n", encoding="utf-8"
    )


def test_adapted_villages_load_with_rejected_cells_missing(tmp_path, monkeypatch):
    write_raw_release(tmp_path / "raw")
    out = tmp_path / "corpus"
    run_script(monkeypatch, "adapt_karnataka", "--raw", tmp_path / "raw", "--out", out)
    assert sorted(p.name for p in out.iterdir()) == ["vil001", "vil002"]

    for village, (pids, layers) in RAW_VILLAGES.items():
        dataset = load_saved_village(out / f"vil{int(village):03d}")
        assert dataset.node_ids == tuple(pids)
        assert dataset.unmatched_attribute_ids == ()
        union = np.zeros((len(pids), len(pids)), dtype=bool)
        for matrix in layers.values():
            union |= np.asarray(matrix, dtype=bool)
        union |= union.T
        expected = {(pids[i], pids[j]) for i, j in zip(*np.nonzero(np.triu(union, k=1)))}
        graph = dataset.graph
        assert set(zip(graph.edge_u.tolist(), graph.edge_v.tolist())) == {
            (pids.index(a), pids.index(b)) for a, b in expected
        }
        assert sorted(dataset.relation_layers) == sorted(layers)

    # Unknown codes and categories, blanks, and numbers that are not whole or
    # are negative load as missing; 105 answered nothing.
    table = load_saved_village(out / "vil001").attributes
    nan = math.nan
    assert table.labels("sex").tolist() == [0, 1, 0, -1, -1]
    assert table.labels("religion").tolist() == [0, 1, 0, -1, -1]
    assert table.labels("caste").tolist() == [2, 0, -1, 3, -1]  # obc, scheduled caste, general
    assert table.labels("workflag").tolist() == [1, 0, 0, -1, -1]
    assert table.labels("savings").tolist() == [0, 1, 0, -1, -1]
    np.testing.assert_array_equal(table.values("age"), [34.0, nan, nan, nan, nan])
    np.testing.assert_array_equal(table.values("education"), [7.0, nan, 12.0, nan, nan])


@pytest.mark.parametrize("reserved", ["nodes", "attributes"])
def test_adapter_refuses_a_layer_named_like_a_table_file(tmp_path, monkeypatch, reserved):
    write_raw_release(tmp_path / "raw", layer_names={"borrow": reserved})
    with pytest.raises(SystemExit, match=f"relation layer name '{reserved}' is reserved"):
        run_script(monkeypatch, "adapt_karnataka", "--raw", tmp_path / "raw", "--out", tmp_path / "corpus")
    assert not (tmp_path / "corpus" / "vil001").exists()


def test_adapter_refuses_a_key_file_that_repeats_an_id(tmp_path, monkeypatch):
    write_raw_release(tmp_path / "raw")
    (tmp_path / "raw" / "key_vilno_1.csv").write_text("101\n102\n103\n104\n101\n", encoding="utf-8")
    with pytest.raises(SystemExit, match="^village 1: duplicate node id '101'"):
        run_script(monkeypatch, "adapt_karnataka", "--raw", tmp_path / "raw", "--out", tmp_path / "corpus")
    assert not (tmp_path / "corpus" / "vil001").exists()


def test_synthetic_corpus_runs_without_dyadic_errors(tmp_path, monkeypatch):
    demo = tmp_path / "demo"
    run_script(monkeypatch, "make_synthetic_corpus", "--villages", 2, "--out", demo)
    cfg = dataclasses.replace(load_run_config(demo / "run.cfg"), workers=1)
    assert "education" not in cfg.attributes and "savings" not in cfg.attributes
    assert run_pipeline(cfg).exit_code == 0
    bundles = sorted((demo / "out" / "bundles").glob("*.json"))
    assert [p.stem for p in bundles] == ["v000", "v001"]
    for path in bundles:
        assert "error" not in json.loads(path.read_text())["dyadic"]


def test_synthetic_corpus_fails_without_an_attributes_line(tmp_path, monkeypatch):
    module = load_script("make_synthetic_corpus")
    monkeypatch.setattr(module, "default_config_text", lambda **kwargs: "corpus_dir = c\noutput_dir = o\n")
    monkeypatch.setattr(sys, "argv", ["make_synthetic_corpus.py", "--villages", "1", "--out", str(tmp_path)])
    with pytest.raises(SystemExit, match="no single 'attributes' line"):
        module.main()
    assert not (tmp_path / "run.cfg").exists()

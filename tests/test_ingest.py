import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segnet import (
    ATTRIBUTE_NAMES,
    IngestConfig,
    IngestError,
    VillageDataset,
    adapt_adjacency_matrix,
    build_graph,
    load_village,
    save_village,
)

from .conftest import make_table
from .oracles import build_graph_by_set, load_village_by_rows


def write_village(tmp_path, layers, attribute_rows, nodes=None):
    """Materialize a village directory from plain data and return its paths."""
    village = tmp_path / "v1"
    village.mkdir(exist_ok=True)
    edge_files = []
    for name, pairs in layers.items():
        path = village / f"{name}.csv"
        lines = ["source,target"] + [f"{a},{b}" for a, b in pairs]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        edge_files.append(path)
    header = "node_id,sex,age,religion,caste,education,workflag,savings"
    attr_path = village / "attributes.csv"
    attr_path.write_text("\n".join([header] + attribute_rows) + "\n", encoding="utf-8")
    nodes_path = None
    if nodes is not None:
        nodes_path = village / "nodes.csv"
        nodes_path.write_text("\n".join(["node_id"] + list(nodes)) + "\n", encoding="utf-8")
    return edge_files, attr_path, nodes_path


def test_load_basic_village(tmp_path):
    edge_files, attr_path, _ = write_village(
        tmp_path,
        {"visit": [("a", "b"), ("b", "c")], "borrow": [("a", "c")]},
        ["a,male,30,hinduism,obc,10,1,0", "b,female,25,islam,general,,0,", "c,,,,,,,"],
    )
    dataset = load_village(edge_files, attr_path)
    assert dataset.village_id == "v1"
    assert dataset.graph.node_count == 3
    assert dataset.graph.edge_count == 3
    assert sorted(dataset.relation_layers) == ["borrow", "visit"]
    assert dataset.attributes.labels("sex").tolist() == [0, 1, -1]
    assert dataset.attributes.labels("caste").tolist() == [2, 3, -1]
    assert dataset.attributes.values("age").tolist()[:2] == [30.0, 25.0]
    assert dataset.unmatched_attribute_ids == ()


def test_union_is_independent_of_layer_order(tmp_path):
    edge_files, attr_path, _ = write_village(
        tmp_path,
        {"x": [("a", "b")], "y": [("c", "a")], "z": [("b", "d")]},
        ["a,male,30,hinduism,obc,10,1,0"],
    )
    first = load_village(edge_files, attr_path)
    second = load_village(list(reversed(edge_files)), attr_path)
    assert first.equals(second)


def test_round_trip_through_save(tmp_path):
    edge_files, attr_path, nodes_path = write_village(
        tmp_path,
        {"visit": [("a", "b"), ("b", "c")], "help": [("c", "d"), ("d", "e")]},
        [
            "a,male,30,hinduism,obc,10,1,0",
            "b,female,25,islam,general,,0,",
            "d,male,61,christianity,scheduled tribe,0,1,1",
            "e,,,,,,,",
            "f,FEMALE,44,Islam,SCHEDULED CASTE,3,1,0",
        ],
        nodes=["a", "b", "c", "d", "e", "f"],
    )
    dataset = load_village(edge_files, attr_path, IngestConfig(nodes_file=nodes_path))
    assert dataset.attributes.labels("caste").tolist() == [2, 3, -1, 1, -1, 0]
    assert not any(dataset.attributes.is_present(attr)[4] for attr in ATTRIBUTE_NAMES)
    out = save_village(dataset, tmp_path / "saved")
    reloaded = load_village(
        sorted(p for p in out.glob("*.csv") if p.stem not in ("attributes", "nodes")),
        out / "attributes.csv",
        IngestConfig(village_id=dataset.village_id, nodes_file=out / "nodes.csv"),
    )
    assert dataset.equals(reloaded)


def test_save_refuses_numbers_that_are_not_whole(tmp_path):
    dataset = VillageDataset("v1", make_table(["a", "b"], age=[5.5, 30.0]), {"visit": [(0, 1)]})
    with pytest.raises(ValueError, match=r"^invalid age value 5\.5$"):
        save_village(dataset, tmp_path / "saved")
    assert not (tmp_path / "saved").exists()


def test_save_refuses_a_directory_with_a_csv_it_would_not_write(tmp_path):
    dataset = VillageDataset("v1", make_table(["a", "b"], sex=[0, 1]), {"visit": [(0, 1)]})
    out = tmp_path / "saved"
    out.mkdir()
    (out / "visit.csv").write_text("old visit\n", encoding="utf-8")
    (out / "sbm.csv").write_text("source,target\nx,y\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"saved holds sbm\.csv, which saving village 'v1'"):
        save_village(dataset, out)
    assert sorted(p.name for p in out.iterdir()) == ["sbm.csv", "visit.csv"]
    assert (out / "visit.csv").read_text(encoding="utf-8") == "old visit\n"
    (out / "sbm.csv").unlink()
    save_village(dataset, out)  # the files it writes may already be there
    assert sorted(p.name for p in out.iterdir()) == ["attributes.csv", "nodes.csv", "visit.csv"]


@pytest.mark.parametrize("name", ["", ".", "..", "../escaped", "sub/layer", "back\\slash", "nul\0"])
def test_save_refuses_a_layer_name_that_is_not_one_file(tmp_path, name):
    dataset = VillageDataset("v1", make_table(["a", "b"]), {name: [(0, 1)]})
    with pytest.raises(ValueError, match="must name one file"):
        save_village(dataset, tmp_path / "out" / "v1")
    assert list(tmp_path.iterdir()) == []


def test_reversed_and_repeated_pairs_collapse_to_one():
    dataset = VillageDataset(
        "v1", make_table(["a", "b", "c"]), {"visit": [(2, 0), (0, 2), (1, 0), (0, 2), (0, 1)]}
    )
    pairs = dataset.layer_pairs["visit"]
    assert pairs.dtype == np.int64 and not pairs.flags.writeable
    assert pairs.tolist() == [[0, 1], [0, 2]]
    assert dataset.relation_layers == {"visit": 2}
    assert dataset.graph.edge_u.tolist() == [0, 0] and dataset.graph.edge_v.tolist() == [1, 2]


def test_a_self_pair_counts_in_its_layer_but_adds_no_edge(tmp_path):
    built = VillageDataset("v1", make_table(["a", "b"]), {"visit": [(1, 1), (0, 1)], "help": [(0, 0)]})
    assert built.layer_pairs["visit"].tolist() == [[0, 1], [1, 1]]
    assert built.relation_layers == {"visit": 2, "help": 1}
    assert built.graph.edge_count == 1
    edge_files, attr_path, _ = write_village(
        tmp_path, {"visit": [("b", "b"), ("a", "b")], "help": [("a", "a")]}, []
    )
    loaded = load_village(edge_files, attr_path)
    assert loaded.relation_layers == {"help": 1, "visit": 2}
    assert loaded.graph.edge_count == 1


@pytest.mark.parametrize("pair", [(0, 3), (-1, 1)])
def test_a_node_index_outside_the_table_is_refused(pair):
    with pytest.raises(ValueError, match=r"relation layer 'visit' holds a node index outside 0 \.\. 2"):
        VillageDataset("v1", make_table(["a", "b", "c"]), {"help": [(0, 1)], "visit": [pair]})


def test_replacing_the_attributes_rebuilds_an_equal_graph():
    dataset = VillageDataset("v1", make_table(["a", "b", "c"]), {"visit": [(0, 1), (2, 1)]})
    replaced = replace(dataset, attributes=make_table(["a", "b", "c"], sex=[0, 1, 0]))
    assert replaced.graph is not dataset.graph
    assert replaced.graph.equals(dataset.graph)
    assert np.array_equal(replaced.graph.indptr, dataset.graph.indptr)
    assert np.array_equal(replaced.graph.neighbors, dataset.graph.neighbors)


def test_save_writes_each_layer_in_node_index_order(tmp_path):
    edge_files, attr_path, nodes_path = write_village(
        tmp_path, {"visit": [("a", "b"), ("z", "a"), ("b", "z")]}, [], nodes=["z", "b", "a"]
    )
    dataset = load_village(edge_files, attr_path, IngestConfig(nodes_file=nodes_path))
    out = save_village(dataset, tmp_path / "saved")
    assert (out / "visit.csv").read_bytes() == b"source,target\r\nz,b\r\nz,a\r\nb,a\r\n"
    config = IngestConfig(village_id="v1", nodes_file=out / "nodes.csv")
    assert load_village([out / "visit.csv"], out / "attributes.csv", config).equals(dataset)


def test_byte_order_marks_are_accepted(tmp_path):
    edge_files, attr_path, nodes_path = write_village(
        tmp_path,
        {"visit": [("a", "b")], "help": [("b", "c")]},
        ["a,male,30,hinduism,obc,10,1,0", "c,female,,,,,,"],
        nodes=["a", "b", "c"],
    )
    config = IngestConfig(nodes_file=nodes_path)
    plain = load_village(edge_files, attr_path, config)
    for path in (*edge_files, attr_path, nodes_path):
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load_village(edge_files, attr_path, config).equals(plain)


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("visit.csv", "source,target\na,b\nb\n", "visit.csv:3: expected 2 fields, found 1"),
        ("nodes.csv", "node_id\na\na\nb\n", "nodes.csv:3: duplicate node id 'a'"),
        (
            "attributes.csv",
            "node_id,sex,age,religion,caste,education,workflag,savings\n"
            "a,male,30,,,,,\nb,female,thirty,,,,,\n",
            "attributes.csv:3: invalid age value 'thirty'",
        ),
    ],
)
def test_byte_order_mark_keeps_line_numbers(tmp_path, name, text, message):
    edge_files, attr_path, nodes_path = write_village(
        tmp_path, {"visit": [("a", "b")]}, ["a,male,30,,,,,"], nodes=["a", "b"]
    )
    bad = tmp_path / "v1" / name
    for prefix in (b"", b"\xef\xbb\xbf"):
        bad.write_bytes(prefix + text.encode("utf-8"))
        with pytest.raises(IngestError) as info:
            load_village(edge_files, attr_path, IngestConfig(nodes_file=nodes_path))
        assert str(info.value) == f"{bad.parent}/{message}"


@pytest.mark.parametrize(
    "name, data, line",
    [
        ("visit.csv", b"\xffsource,target\na,b\n", 1),
        ("nodes.csv", b"node_id\na\r\nb\xff\n", 3),
        (
            "attributes.csv",
            b'node_id,sex,age,religion,caste,education,workflag,savings\na,"ma\rle",30,,,,,\n\xfe\n',
            4,
        ),
    ],
)
def test_undecodable_bytes_are_an_error_naming_the_file(tmp_path, name, data, line):
    edge_files, attr_path, nodes_path = write_village(
        tmp_path, {"visit": [("a", "b")]}, ["a,male,30,,,,,"], nodes=["a", "b"]
    )
    bad = tmp_path / "v1" / name
    for prefix in (b"", b"\xef\xbb\xbf"):
        bad.write_bytes(prefix + data)
        with pytest.raises(IngestError) as info:
            load_village(edge_files, attr_path, IngestConfig(nodes_file=nodes_path))
        assert str(info.value) == f"{bad}:{line}: not UTF-8 text (invalid start byte)"


def test_duplicate_attribute_row_is_an_error_with_location(tmp_path):
    edge_files, attr_path, _ = write_village(
        tmp_path,
        {"visit": [("a", "b")]},
        ["a,male,30,hinduism,obc,10,1,0", "a,female,31,islam,general,,0,"],
    )
    with pytest.raises(IngestError, match=r"attributes\.csv:3.*duplicate"):
        load_village(edge_files, attr_path)


def test_unknown_category_is_an_error_unless_coerced(tmp_path):
    edge_files, attr_path, _ = write_village(
        tmp_path,
        {"visit": [("a", "b")]},
        ["a,male,30,hinduism,noble,10,1,0"],
    )
    with pytest.raises(IngestError, match=r"attributes\.csv:2"):
        load_village(edge_files, attr_path)
    dataset = load_village(
        edge_files, attr_path, IngestConfig(coerce_unknown_categories=True)
    )
    assert dataset.attributes.labels("caste").tolist()[0] == -1


def test_unmatched_attribute_rows_are_reported_sorted(tmp_path):
    edge_files, attr_path, _ = write_village(
        tmp_path,
        {"visit": [("a", "b")]},
        [
            "z,male,30,hinduism,obc,10,1,0",
            "a,female,31,islam,general,,0,",
            "q,male,40,hinduism,general,5,1,1",
        ],
    )
    dataset = load_village(edge_files, attr_path)
    assert dataset.unmatched_attribute_ids == ("q", "z")
    assert dataset.graph.node_count == 2


def test_nodes_file_fixes_the_universe_with_isolates(tmp_path):
    edge_files, attr_path, nodes_path = write_village(
        tmp_path,
        {"visit": [("a", "b")]},
        ["c,male,30,hinduism,obc,10,1,0"],
        nodes=["a", "b", "c"],
    )
    dataset = load_village(edge_files, attr_path, IngestConfig(nodes_file=nodes_path))
    assert dataset.graph.node_count == 3
    # the isolated respondent keeps its attributes
    assert dataset.attributes.labels("caste").tolist() == [-1, -1, 2]
    assert dataset.unmatched_attribute_ids == ()


def test_edge_referencing_node_outside_universe_is_an_error(tmp_path):
    edge_files, attr_path, nodes_path = write_village(
        tmp_path,
        {"visit": [("a", "b"), ("a", "x")]},
        ["a,male,30,hinduism,obc,10,1,0"],
        nodes=["a", "b"],
    )
    with pytest.raises(IngestError, match=r"visit\.csv:3.*outside the declared node list"):
        load_village(edge_files, attr_path, IngestConfig(nodes_file=nodes_path))


def test_malformed_rows_carry_file_and_line(tmp_path):
    village = tmp_path / "v1"
    village.mkdir()
    edge = village / "visit.csv"
    edge.write_text("source,target\na\n", encoding="utf-8")
    attrs = village / "attributes.csv"
    attrs.write_text(
        "node_id,sex,age,religion,caste,education,workflag,savings\n"
        "a,male,thirty,hinduism,obc,10,1,0\n",
        encoding="utf-8",
    )
    with pytest.raises(IngestError, match=r"visit\.csv:2"):
        load_village([edge], attrs)
    edge.write_text("source,target\na,b\n", encoding="utf-8")
    with pytest.raises(IngestError, match=r"attributes\.csv:2.*age"):
        load_village([edge], attrs)


@pytest.mark.parametrize(
    "rows, line",
    [
        # the bad age follows a record whose quoted id spans lines 2-3
        (['"a\nz",male,30,,,,,', "b,female,thirty,,,,,"], 4),
        # the bad age sits inside that record: name the line it starts on
        (['"a\nz",male,thirty,,,,,', "b,female,30,,,,,"], 2),
    ],
)
def test_errors_name_the_first_line_of_a_multi_line_record(tmp_path, rows, line):
    edge_files, attr_path, _ = write_village(tmp_path, {"visit": [("b", "c")]}, rows)
    with pytest.raises(IngestError, match=rf"attributes\.csv:{line}: invalid age value 'thirty'"):
        load_village(edge_files, attr_path)


def test_missing_or_wrong_header_is_an_error(tmp_path):
    village = tmp_path / "v1"
    village.mkdir()
    edge = village / "visit.csv"
    edge.write_text("from,to\na,b\n", encoding="utf-8")
    attrs = village / "attributes.csv"
    attrs.write_text(
        "node_id,sex,age,religion,caste,education,workflag,savings\n", encoding="utf-8"
    )
    with pytest.raises(IngestError, match="header"):
        load_village([edge], attrs)


def test_duplicate_layer_stems_rejected(tmp_path):
    village = tmp_path / "v1"
    other = tmp_path / "v2"
    village.mkdir()
    other.mkdir()
    for d in (village, other):
        (d / "visit.csv").write_text("source,target\na,b\n", encoding="utf-8")
    attrs = village / "attributes.csv"
    attrs.write_text(
        "node_id,sex,age,religion,caste,education,workflag,savings\n", encoding="utf-8"
    )
    with pytest.raises(IngestError, match="duplicate relation layer"):
        load_village([village / "visit.csv", other / "visit.csv"], attrs)


def test_save_village_refuses_reserved_layer_names(tmp_path):
    dataset = VillageDataset("v", make_table(["a", "b"], sex=[0, 1]), {"attributes": [(0, 1)]})
    with pytest.raises(ValueError, match="reserved"):
        save_village(dataset, tmp_path / "broken")


def test_adapt_adjacency_matrix_symmetrizes_by_or(tmp_path):
    path = tmp_path / "adj.csv"
    path.write_text("0,1,0\n0,0,1\n0,0,0\n", encoding="utf-8")
    assert adapt_adjacency_matrix(path) == [(0, 1), (1, 2)]


def test_adapt_adjacency_matrix_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "adj.csv"
    path.write_bytes(b"\xef\xbb\xbf0,1\n1,0\n")
    assert adapt_adjacency_matrix(path) == [(0, 1)]


def test_adapt_adjacency_matrix_validates_shape_and_values(tmp_path):
    bad_shape = tmp_path / "rect.csv"
    bad_shape.write_text("0,1,0\n1,0,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="square"):
        adapt_adjacency_matrix(bad_shape)
    bad_values = tmp_path / "weights.csv"
    bad_values.write_text("0,2\n2,0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"outside \{0, 1\}"):
        adapt_adjacency_matrix(bad_values)


def test_ingest_error_is_a_value_error():
    assert issubclass(IngestError, ValueError)


# " b" loads as "b", and "A" as an id of its own.
IDS = ("a", "b", "c", "d", "A", " b")
OUTSIDE_IDS = ("x", "y")
# attribute -> (valid cells, malformed cells)
CELLS = {
    "sex": (("male", "Female", ""), ("other",)),
    "age": (("30", "0", "", " 61"), ("-4", "thirty", "3.5")),
    "religion": (("hinduism", "islam", ""), ("jain",)),
    "caste": (("obc", "Scheduled Tribe", ""), ("noble",)),
    "education": (("10", ""), ("x1", "-1")),
    "workflag": (("0", "1", ""), ("2",)),
    "savings": (("0", "1", ""), ("yes",)),
}
MALFORMED_PAIRS = ("a", "a,b,c", ",b", "c, ")
FAULTS = ("header", "edge rows", "nodes", "attribute ids", "cells", "field count")


def _pick(draw, valid, malformed, allowed):
    return draw(st.sampled_from(valid + malformed if allowed else valid))


def _lines(draw, header, rows):
    """A file's lines: the header, then the rows with blank lines drawn in between."""
    lines = [header]
    for row in rows:
        lines.append(row)
        lines.extend(draw(st.sampled_from(((), ("",), ("  ",)))))
    return lines


@st.composite
def village_files(draw):
    """Text of a village's files: ``(layers, attributes, nodes or None, coerce)``.

    A village holds any subset of ``FAULTS``: bad headers, bad edge rows,
    ``nodes.csv`` rows that repeat an id, miss an endpoint or hold two
    fields, empty or repeated attribute ids, unknown or bad cells, and
    attribute rows one field short.
    """
    faults = draw(st.sets(st.sampled_from(FAULTS)))
    pairs = tuple(f"{a},{b}" for a in IDS for b in IDS)  # repeats, reversals, self loops
    names = draw(st.lists(st.sampled_from(("visit", "borrow", "help")), min_size=1, unique=True))
    layers = {}
    for name in names:
        header = _pick(draw, ("source,target", "Source, Target"), ("from,to",), "header" in faults)
        rows = [
            _pick(draw, pairs, MALFORMED_PAIRS, "edge rows" in faults)
            for _ in range(draw(st.integers(0, 8)))
        ]
        layers[name] = _lines(draw, header, rows)

    nodes = None
    if draw(st.booleans()):
        if "nodes" in faults:
            ids = draw(st.lists(st.sampled_from(IDS + OUTSIDE_IDS + ("a,b",)), max_size=8))
        else:
            ids = draw(st.permutations([i for i in IDS + OUTSIDE_IDS if i != " b"]))
        nodes = _lines(draw, "node_id", ids)

    unique_by = None if "attribute ids" in faults else str.strip
    pool = IDS + OUTSIDE_IDS + (("",) if "attribute ids" in faults else ())
    rows = []
    for nid in draw(st.lists(st.sampled_from(pool), max_size=8, unique_by=unique_by)):
        row = [nid] + [_pick(draw, *cells, "cells" in faults) for cells in CELLS.values()]
        if "field count" in faults and draw(st.booleans()):
            row = row[:-1]
        rows.append(",".join(row))
    attributes = _lines(draw, "node_id,sex,age,religion,caste,education,workflag,savings", rows)
    return layers, attributes, nodes, draw(st.booleans())


def _outcome(load, *args):
    try:
        return load(*args)
    except IngestError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(village_files())
def test_load_village_matches_row_at_a_time_reader(files):
    layers, attributes, nodes, coerce = files
    with tempfile.TemporaryDirectory() as tmp:
        village = Path(tmp) / "v1"
        village.mkdir()
        edge_files = []
        for name, lines in layers.items():
            edge_files.append(village / f"{name}.csv")
            edge_files[-1].write_text("\n".join(lines) + "\n", encoding="utf-8")
        attr_path = village / "attributes.csv"
        attr_path.write_text("\n".join(attributes) + "\n", encoding="utf-8")
        nodes_path = None
        if nodes is not None:
            nodes_path = village / "nodes.csv"
            nodes_path.write_text("\n".join(nodes) + "\n", encoding="utf-8")
        config = IngestConfig(nodes_file=nodes_path, coerce_unknown_categories=coerce)
        new = _outcome(load_village, edge_files, attr_path, config)
        old = _outcome(load_village_by_rows, edge_files, attr_path, config)
    if isinstance(new, str) or isinstance(old, str):
        assert new == old
        return
    dataset, layers, graph = old
    assert new.equals(dataset)
    # Each layer is its distinct unordered pairs in index order, the graph their union.
    index = {nid: k for k, nid in enumerate(new.node_ids)}
    assert new.layer_pairs.keys() == layers.keys()
    for name, pairs in layers.items():
        expected = sorted({tuple(sorted((index[a], index[b]))) for a, b in pairs})
        assert new.layer_pairs[name].tolist() == [list(pair) for pair in expected]
    assert new.graph.equals(graph)
    assert np.array_equal(new.graph.indptr, graph.indptr)
    assert np.array_equal(new.graph.neighbors, graph.neighbors)


def _assert_same_build(edge_list, node_ids=None):
    try:
        graph, index = build_graph(edge_list, node_ids=node_ids)
    except ValueError as exc:
        with pytest.raises(ValueError) as old:
            build_graph_by_set(edge_list, node_ids=node_ids)
        assert str(exc) == str(old.value)
        return
    ref_graph, ref_index = build_graph_by_set(edge_list, node_ids=node_ids)
    assert graph.equals(ref_graph)
    assert np.array_equal(graph.indptr, ref_graph.indptr)
    assert np.array_equal(graph.neighbors, ref_graph.neighbors)
    assert list(index.items()) == list(ref_index.items())


@pytest.mark.parametrize(
    "edge_list, node_ids",
    [
        ([(3, 1), (1, 3), (1, 1), (0, 2), (2, 0), (2, 3)], None),
        ([(3, 1), (1, 3), (1, 1), (0, 2)], [3, 2, 1, 0, 9]),
        ([("b", "a"), ("a", "b"), ("c", "c"), ("c", "a")], None),
        ([("b", "a"), ("c", "c")], ["c", "b", "a"]),
        ([], None),
        ([], ["a", "b"]),
        ([("a", "b"), ("b", "z"), ("y", "a")], ["a", "b"]),
        ([("a", "b")], ["a", "b", "a"]),
    ],
    ids=["int", "int-node-ids", "str", "str-node-ids", "empty", "empty-node-ids",
         "unknown-id", "duplicate-node-id"],
)
def test_build_graph_matches_set_based_dedup(edge_list, node_ids):
    _assert_same_build(edge_list, node_ids)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=40),
    st.booleans(),
)
def test_build_graph_matches_set_based_dedup_on_random_pairs(edge_list, with_node_ids):
    # With node ids, 13 is an unknown id.
    _assert_same_build(edge_list, list(range(12, -1, -1)) if with_node_ids else None)

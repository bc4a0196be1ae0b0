import numpy as np
import pytest

from segnet import (
    AttributedSbmConfig,
    AttributeTable,
    generate_attribute_sbm,
    generate_dyad_sample,
    load_village,
)
from segnet.attributes import (
    ATTRIBUTE_NAMES,
    MISSING,
    bin_codes,
    format_cell,
    parse_cell,
)

from .conftest import load_script, make_table


def test_cell_codec_parses_and_formats_each_kind():
    assert parse_cell("caste", "Scheduled Tribe") == 1
    assert parse_cell("sex", "Male") == 0
    assert parse_cell("sex", "FEMALE") == 1
    assert parse_cell("caste", "OBC") == 2
    assert parse_cell("religion", "christianity") == 2
    assert parse_cell("age", "42") == 42 and type(parse_cell("age", "42")) is int
    assert MISSING == -1
    for attr in ATTRIBUTE_NAMES:
        assert format_cell(attr, MISSING) == ""
        assert parse_cell(attr, "") == MISSING
    assert format_cell("caste", 1) == "scheduled tribe"
    assert format_cell("age", 42) == "42"


@pytest.mark.parametrize(
    "attr, text, message",
    [
        ("caste", "noble", "unknown caste value 'noble'"),
        ("sex", "Unknown", "unknown sex value 'Unknown'"),
        ("age", "NA", "invalid age value 'NA'"),
        ("education", "5.5", "invalid education value '5.5'"),
        ("age", "-3", "negative age value -3"),
        ("age", str(2**63), f"age value {2**63} exceeds {2**63 - 1}"),
        ("height", "3", "unknown attribute 'height'"),
    ],
)
def test_cell_codec_rejects_bad_cells(attr, text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_cell(attr, text)


def test_bin_codes_edges_and_missing():
    bins = (18.0, 31.0, 41.0)
    values = np.array([3, 17, 18, 30, 31, 99, -1])
    assert bin_codes(values, bins).tolist() == [0, 0, 1, 1, 2, 3, -1]
    # A float NaN would compare above every edge and land in the top bin.
    with pytest.raises(ValueError, match="^values to bin must be integers"):
        bin_codes(np.array([np.nan, 25.5, -1.0]), (18.0, 31.0))


def test_labels_for_categorical_and_binned_numeric():
    table = make_table(range(4), caste=[3, -1, 0, 3], age=[25, -1, 70, 10])
    assert table.labels("caste").tolist() == [3, -1, 0, 3]
    assert table.labels("age", (18.0, 31.0, 41.0, 51.0, 65.0)).tolist() == [1, -1, 5, 0]


def test_numeric_labels_without_bins_are_the_stored_column():
    table = make_table(range(3), age=[25, 26, -1])
    assert table.labels("age") is table.age
    assert table.labels("age").tolist() == [25, 26, -1]


@pytest.mark.parametrize("age", [[25.4, 25.6, 3.0], [25.0, np.nan, 3.0], [25.0, 26.0, 3.0]])
def test_float_columns_are_refused(age):
    with pytest.raises(ValueError, match="^age column must hold integers"):
        make_table(range(3), age=age)


def test_columns_are_read_only_and_validated():
    table = make_table(range(2), sex=[0, 1])
    with pytest.raises(ValueError):
        table.sex[0] = 1
    with pytest.raises(ValueError, match="codes out of range"):
        make_table(range(2), sex=[0, 2])
    with pytest.raises(ValueError, match="^age values must be non-negative, or -1 for missing$"):
        make_table(range(2), age=[-3, 4])
    with pytest.raises(ValueError, match="^sex values must be non-negative"):
        make_table(range(2), sex=[-2, 1])
    with pytest.raises(ValueError, match="column length"):
        make_table(range(2), caste=[1, 2, 3])


def test_empty_table_is_all_missing():
    table = AttributeTable.empty(["a", "b"])
    for attr in ATTRIBUTE_NAMES:
        assert table.labels(attr).tolist() == [-1, -1]


def test_take_reorders_rows_and_equals_detects_changes():
    table = make_table(["a", "b", "c"], sex=[0, 1, 0], age=[10, 20, 30])
    sub = table.take(np.array([2, 0]))
    assert sub.node_ids == ("c", "a")
    assert sub.labels("sex").tolist() == [0, 0]
    assert sub.labels("age").tolist() == [30, 10]
    assert table.equals(make_table(["a", "b", "c"], sex=[0, 1, 0], age=[10, 20, 30]))
    assert not table.equals(sub)
    assert not table.equals(make_table(["a", "b", "c"], sex=[0, 1, 1], age=[10, 20, 30]))
    assert not table.equals(make_table(["a", "b", "c"], sex=[0, 1, 0], age=[10, 20, -1]))


def loaded_with_an_empty_age(tmp_path):
    (tmp_path / "L.csv").write_text("source,target\na,b\n", encoding="utf-8")
    (tmp_path / "attributes.csv").write_text(
        "node_id," + ",".join(ATTRIBUTE_NAMES) + "\n"
        "a,male,,islam,obc,12,1,0\n"
        "b,female,40,hinduism,general,3,0,1\n",
        encoding="utf-8",
    )
    return load_village([tmp_path / "L.csv"], tmp_path / "attributes.csv").attributes, "age"


def sbm_with_missing_rate(tmp_path):
    config = AttributedSbmConfig(
        block_sizes=(40,),
        p_in=0.2,
        p_out=0.0,
        attribute_rule=({"obc": 0.5, "general": 0.5},),
        seed=3,
        extra_attribute_laws={"age": {"20": 0.5, "41": 0.5}},
        missing_rate=0.2,
    )
    return generate_attribute_sbm(config)[0].attributes, "age"


def dyad_sample(tmp_path):
    law = {"education": {"0": 0.5, "12": 0.5}, "sex": {"male": 0.5, "female": 0.5}}
    dataset = generate_dyad_sample(-1.0, {"sex": 0.5}, law, n_nodes=20, seed=4)
    return dataset.attributes, "age"  # no law: every age is missing


def adapted_with_a_rejected_cell(tmp_path):
    adapter = load_script("adapt_karnataka")
    matrix = tmp_path / "adj.csv"
    matrix.write_text("0,1\n1,0\n", encoding="utf-8")
    raw = {"sex": "2", "age": "5.5", "religion": "ISLAM", "caste": "obc", "education": "12"}
    row = tuple(adapter.column_value(attr, raw.get(attr, "1")) for attr in ATTRIBUTE_NAMES)
    return adapter.build_village("1", ["p1", "p2"], {"L": matrix}, {"p1": row}).attributes, "age"


def empty_table(tmp_path):
    return AttributeTable.empty(["a", "b"]), "age"


@pytest.mark.parametrize(
    "producer",
    [
        loaded_with_an_empty_age,
        sbm_with_missing_rate,
        dyad_sample,
        adapted_with_a_rejected_cell,
        empty_table,
    ],
)
def test_every_producer_gives_read_only_int64_columns(tmp_path, producer):
    table, missing_attr = producer(tmp_path)
    for attr in ATTRIBUTE_NAMES:
        column = getattr(table, attr)
        assert column.dtype == np.int64 and not column.flags.writeable, attr
        assert column.min() >= -1, attr
    assert (getattr(table, missing_attr) == -1).any()

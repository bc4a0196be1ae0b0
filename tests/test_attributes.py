import numpy as np
import pytest

from segnet import AttributeTable, complete_case_mask
from segnet.attributes import (
    ATTRIBUTE_NAMES,
    bin_codes,
    format_cell,
    missing_value,
    parse_cell,
)

from .conftest import make_table


def test_cell_codec_parses_and_formats_each_kind():
    assert parse_cell("caste", "Scheduled Tribe") == 1
    assert parse_cell("sex", "Male") == 0
    assert parse_cell("sex", "FEMALE") == 1
    assert parse_cell("caste", "OBC") == 2
    assert parse_cell("religion", "christianity") == 2
    assert parse_cell("age", "42") == 42.0
    for attr in ATTRIBUTE_NAMES:
        missing = missing_value(attr)
        assert format_cell(attr, missing) == ""
        assert np.array_equal(parse_cell(attr, ""), missing, equal_nan=True)
    assert format_cell("caste", 1) == "scheduled tribe"
    assert format_cell("age", 42.0) == "42"
    with pytest.raises(ValueError, match="unknown attribute 'height'"):
        missing_value("height")


@pytest.mark.parametrize(
    "attr, text, message",
    [
        ("caste", "noble", "unknown caste value 'noble'"),
        ("sex", "Unknown", "unknown sex value 'Unknown'"),
        ("age", "NA", "invalid age value 'NA'"),
        ("education", "5.5", "invalid education value '5.5'"),
        ("age", "-3", "negative age value -3"),
        ("height", "3", "unknown attribute 'height'"),
    ],
)
def test_cell_codec_rejects_bad_cells(attr, text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_cell(attr, text)


def test_bin_codes_edges_and_missing():
    bins = (18.0, 31.0, 41.0)
    values = np.array([3.0, 17.9, 18.0, 30.0, 31.0, 99.0, np.nan])
    assert bin_codes(values, bins).tolist() == [0, 0, 1, 1, 2, 3, -1]


def test_labels_for_categorical_and_binned_numeric():
    table = make_table(range(4), caste=[3, -1, 0, 3], age=[25.0, np.nan, 70.0, 10.0])
    assert table.labels("caste").tolist() == [3, -1, 0, 3]
    assert table.labels("age", (18.0, 31.0, 41.0, 51.0, 65.0)).tolist() == [1, -1, 5, 0]


def test_numeric_labels_without_bins_round_to_integers():
    table = make_table(range(3), age=[25.4, 25.6, np.nan])
    assert table.labels("age").tolist() == [25, 26, -1]


def test_columns_are_read_only_and_validated():
    table = make_table(range(2), sex=[0, 1])
    with pytest.raises(ValueError):
        table.sex[0] = 1
    with pytest.raises(ValueError, match="codes out of range"):
        make_table(range(2), sex=[0, 2])
    with pytest.raises(ValueError, match="must be non-negative"):
        make_table(range(2), age=[-3.0, 4.0])
    with pytest.raises(ValueError, match="column length"):
        make_table(range(2), caste=[1, 2, 3])


def test_empty_table_is_all_missing():
    table = AttributeTable.empty(["a", "b"])
    for attr in ("sex", "religion", "caste", "workflag", "savings"):
        assert table.labels(attr).tolist() == [-1, -1]
    assert np.isnan(table.values("age")).all()
    assert not table.is_present("age").any()


def test_complete_case_mask_requires_every_listed_attribute():
    table = make_table(
        range(4),
        sex=[0, 1, -1, 0],
        caste=[3, -1, 2, 0],
        age=[20.0, 30.0, 40.0, np.nan],
    )
    assert complete_case_mask(table, ["sex"]).tolist() == [True, True, False, True]
    assert complete_case_mask(table, ["sex", "caste"]).tolist() == [True, False, False, True]
    assert complete_case_mask(table, ["sex", "caste", "age"]).tolist() == [
        True,
        False,
        False,
        False,
    ]


def test_take_reorders_rows_and_equals_detects_changes():
    table = make_table(["a", "b", "c"], sex=[0, 1, 0], age=[10.0, 20.0, 30.0])
    sub = table.take(np.array([2, 0]))
    assert sub.node_ids == ("c", "a")
    assert sub.labels("sex").tolist() == [0, 0]
    assert sub.values("age").tolist() == [30.0, 10.0]
    assert table.equals(make_table(["a", "b", "c"], sex=[0, 1, 0], age=[10.0, 20.0, 30.0]))
    assert not table.equals(sub)
    assert not table.equals(make_table(["a", "b", "c"], sex=[0, 1, 1], age=[10.0, 20.0, 30.0]))

"""Per-node covariates with explicit missingness, category coding, and binning.

Categorical columns are stored as integer codes into the declared category
tuples (-1 = missing); numeric columns are float arrays with NaN = missing.

Every reader and writer of covariate cells shares one codec: ``parse_cell``,
``format_cell`` and ``missing_value``.  An empty cell is missing, categories
match case-insensitively, and numbers are whole and non-negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .vocabulary import ATTRIBUTE_NAMES

__all__ = [
    "ATTRIBUTE_NAMES",
    "CATEGORICAL_ATTRIBUTES",
    "NUMERIC_ATTRIBUTES",
    "SEX_CATEGORIES",
    "RELIGION_CATEGORIES",
    "CASTE_CATEGORIES",
    "BINARY_CATEGORIES",
    "AttributeTable",
    "bin_codes",
    "complete_case_mask",
    "format_cell",
    "missing_value",
    "parse_cell",
]

SEX_CATEGORIES = ("male", "female")
RELIGION_CATEGORIES = ("hinduism", "islam", "christianity")
CASTE_CATEGORIES = ("scheduled caste", "scheduled tribe", "obc", "general")
BINARY_CATEGORIES = ("0", "1")

CATEGORICAL_ATTRIBUTES: dict[str, tuple[str, ...]] = {
    "sex": SEX_CATEGORIES,
    "religion": RELIGION_CATEGORIES,
    "caste": CASTE_CATEGORIES,
    "workflag": BINARY_CATEGORIES,
    "savings": BINARY_CATEGORIES,
}
NUMERIC_ATTRIBUTES = ("age", "education")

_CATEGORY_CODES = {a: {c: k for k, c in enumerate(cs)} for a, cs in CATEGORICAL_ATTRIBUTES.items()}
_MISSING = {attr: -1 if attr in CATEGORICAL_ATTRIBUTES else math.nan for attr in ATTRIBUTE_NAMES}


def missing_value(attr: str) -> int | float:
    """The column value of a missing ``attr``: -1 for a category, NaN for a number."""
    try:
        return _MISSING[attr]
    except KeyError:
        raise ValueError(f"unknown attribute {attr!r}") from None


def parse_cell(attr: str, text: str) -> int | float:
    """Column value of one stripped cell of ``attr``; an empty cell is missing.

    Raises ``ValueError`` naming an unknown category, a cell that is not a
    whole number, or a negative number.
    """
    if not text:
        return missing_value(attr)
    codes = _CATEGORY_CODES.get(attr)
    if codes is not None:
        code = codes.get(text.lower())
        if code is None:
            raise ValueError(f"unknown {attr} value {text!r}")
        return code
    if attr not in NUMERIC_ATTRIBUTES:
        raise ValueError(f"unknown attribute {attr!r}")
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"invalid {attr} value {text!r}") from None
    if value < 0:
        raise ValueError(f"negative {attr} value {value}")
    return float(value)


def format_cell(attr: str, value: int | float) -> str:
    """Cell text of one column value of ``attr``; ``parse_cell`` reads it back.

    Raises ``ValueError`` on a number that is not whole, which no cell can hold.
    """
    categories = CATEGORICAL_ATTRIBUTES.get(attr)
    if categories is not None:
        return "" if value < 0 else categories[value]
    if math.isnan(value):
        return ""
    if not float(value).is_integer():
        raise ValueError(f"invalid {attr} value {value!r}")
    return str(int(value))


def bin_codes(values: np.ndarray, bins: Sequence[float]) -> np.ndarray:
    """Ordinal bin index for each value; NaN maps to -1."""
    v = np.asarray(values, dtype=float)
    codes = np.digitize(v, np.asarray(bins, dtype=float))
    return np.where(np.isnan(v), -1, codes).astype(np.int64)


def _as_code_array(values: Iterable[int], attr: str) -> np.ndarray:
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=np.int64)
    if arr.size and (arr.min() < -1 or arr.max() >= len(CATEGORICAL_ATTRIBUTES[attr])):
        raise ValueError(f"{attr} codes out of range")
    return arr


def _as_value_array(values: Iterable[float], attr: str) -> np.ndarray:
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
    finite = arr[~np.isnan(arr)]
    if finite.size and finite.min() < 0:
        raise ValueError(f"{attr} values must be non-negative")
    return arr


@dataclass(frozen=True)
class AttributeTable:
    """Covariate columns aligned with graph node indices."""

    node_ids: tuple[str, ...]
    sex: np.ndarray
    age: np.ndarray
    religion: np.ndarray
    caste: np.ndarray
    education: np.ndarray
    workflag: np.ndarray
    savings: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.node_ids)
        for name in ATTRIBUTE_NAMES:
            as_array = _as_code_array if name in CATEGORICAL_ATTRIBUTES else _as_value_array
            col = as_array(getattr(self, name), name)
            if col.shape != (n,):
                raise ValueError(f"{name} column length {col.shape} != {n} nodes")
            col.setflags(write=False)
            object.__setattr__(self, name, col)

    @classmethod
    def empty(cls, node_ids: Sequence[str]) -> "AttributeTable":
        n = len(node_ids)
        return cls(
            node_ids=tuple(node_ids),
            **{name: np.full(n, missing_value(name)) for name in ATTRIBUTE_NAMES},
        )

    @property
    def n(self) -> int:
        return len(self.node_ids)

    def is_present(self, attr: str) -> np.ndarray:
        """Boolean mask of nodes where ``attr`` is observed."""
        if attr in CATEGORICAL_ATTRIBUTES:
            return getattr(self, attr) >= 0
        if attr in NUMERIC_ATTRIBUTES:
            return ~np.isnan(getattr(self, attr))
        raise ValueError(f"unknown attribute {attr!r}")

    def values(self, attr: str) -> np.ndarray:
        """Numeric values (float, NaN = missing); only valid for numeric attributes."""
        if attr not in NUMERIC_ATTRIBUTES:
            raise ValueError(f"{attr!r} is not a numeric attribute")
        return getattr(self, attr)

    def labels(self, attr: str, bins: Sequence[float] | None = None) -> np.ndarray:
        """Integer label codes with -1 = missing.

        Categorical attributes return their category codes (``bins`` must be
        None).  Numeric attributes return bin indices when ``bins`` is given,
        otherwise the rounded integer values themselves serve as labels.
        """
        if attr in CATEGORICAL_ATTRIBUTES:
            if bins is not None:
                raise ValueError(f"bins not applicable to categorical attribute {attr!r}")
            return getattr(self, attr)
        if attr in NUMERIC_ATTRIBUTES:
            v = getattr(self, attr)
            if bins is not None:
                return bin_codes(v, bins)
            return np.where(np.isnan(v), -1, np.round(v)).astype(np.int64)
        raise ValueError(f"unknown attribute {attr!r}")

    def take(self, indices: Sequence[int] | np.ndarray) -> "AttributeTable":
        """Row subset/reorder aligned with a new node indexing."""
        idx = np.asarray(indices, dtype=np.int64)
        return AttributeTable(
            node_ids=tuple(self.node_ids[i] for i in idx.tolist()),
            **{name: getattr(self, name)[idx] for name in ATTRIBUTE_NAMES},
        )

    def equals(self, other: "AttributeTable") -> bool:
        if self.node_ids != other.node_ids:
            return False
        for name in ATTRIBUTE_NAMES:
            a, b = getattr(self, name), getattr(other, name)
            if a.dtype.kind == "f":
                if not np.array_equal(a, b, equal_nan=True):
                    return False
            elif not np.array_equal(a, b):
                return False
        return True


def complete_case_mask(table: AttributeTable, attrs: Sequence[str]) -> np.ndarray:
    """Mask of nodes observed on every attribute in ``attrs``."""
    names = tuple(attrs)
    if not names:
        raise ValueError("attrs must be non-empty")
    mask = np.ones(table.n, dtype=bool)
    for name in names:
        mask &= table.is_present(name)
    return mask

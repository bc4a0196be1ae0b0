"""Per-node covariates with explicit missingness, category coding, and binning.

Every column is one read-only int64 array with -1 for missing: a category
code into the declared category tuple, or a whole non-negative number for
``age`` and ``education``.

Every reader and writer of covariate cells shares one codec: ``parse_cell``,
``format_cell`` and ``MISSING``.  An empty cell is missing, categories match
case-insensitively, and numbers are whole and non-negative.

``AttributeTable.labels`` is the one place a numeric column is binned; the
analyses take the labels it gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .vocabulary import ATTRIBUTE_NAMES

__all__ = [
    "ATTRIBUTE_NAMES",
    "CATEGORICAL_ATTRIBUTES",
    "MISSING",
    "NUMERIC_ATTRIBUTES",
    "SEX_CATEGORIES",
    "RELIGION_CATEGORIES",
    "CASTE_CATEGORIES",
    "BINARY_CATEGORIES",
    "AttributeTable",
    "bin_codes",
    "format_cell",
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
MISSING = -1  # the column value of a missing cell, for every attribute

_CATEGORY_CODES = {a: {c: k for k, c in enumerate(cs)} for a, cs in CATEGORICAL_ATTRIBUTES.items()}
_MAX_NUMBER = int(np.iinfo(np.int64).max)  # the largest value an int64 column holds


def parse_cell(attr: str, text: str) -> int:
    """Column value of one stripped cell of ``attr``; an empty cell is missing.

    Raises ``ValueError`` naming an unknown category, a cell that is not a
    whole number, or a number outside ``0 .. 2**63 - 1``.
    """
    if not text:
        return MISSING
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
    if value > _MAX_NUMBER:
        raise ValueError(f"{attr} value {value} exceeds {_MAX_NUMBER}")
    return value


def format_cell(attr: str, value: int) -> str:
    """Cell text of one column value of ``attr``; ``parse_cell`` reads it back."""
    if value < 0:
        return ""
    categories = CATEGORICAL_ATTRIBUTES.get(attr)
    return str(value) if categories is None else categories[value]


def bin_codes(values: np.ndarray, bins: Sequence[float]) -> np.ndarray:
    """Ordinal bin index for each integer value; a negative (missing) value maps to -1.

    Floats raise ``ValueError``: a NaN would land in the top bin.
    """
    v = np.asarray(values)
    if v.dtype.kind not in "iu":
        raise ValueError(f"values to bin must be integers (-1 = missing), got {v.dtype}")
    codes = np.digitize(v, np.asarray(bins, dtype=float))
    return np.where(v < 0, -1, codes).astype(np.int64)


def _as_column(values: Iterable[int], attr: str, n: int) -> np.ndarray:
    """``values`` as a read-only int64 column of ``n`` entries, checked as in ``AttributeTable``."""
    arr = np.asarray(values if isinstance(values, np.ndarray) else list(values))
    if arr.size and not (arr.dtype.kind in "iu" and np.can_cast(arr.dtype, np.int64)):
        raise ValueError(f"{attr} column must hold integers (-1 = missing), got {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    if arr.shape != (n,):
        raise ValueError(f"{attr} column length {arr.shape} != {n} nodes")
    if n and arr.min() < -1:
        raise ValueError(f"{attr} values must be non-negative, or -1 for missing")
    categories = CATEGORICAL_ATTRIBUTES.get(attr)
    if n and categories is not None and arr.max() >= len(categories):
        raise ValueError(f"{attr} codes out of range")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class AttributeTable:
    """Covariate columns aligned with graph node indices.

    Each column is a read-only int64 array with -1 for missing: a category
    code, or a whole non-negative number for ``age`` and ``education``.
    Raises ``ValueError`` naming the attribute of a column that is not of an
    integer dtype or holds a value out of range.
    """

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
            object.__setattr__(self, name, _as_column(getattr(self, name), name, n))

    @classmethod
    def empty(cls, node_ids: Sequence[str]) -> "AttributeTable":
        n = len(node_ids)
        return cls(node_ids=tuple(node_ids), **{name: np.full(n, -1) for name in ATTRIBUTE_NAMES})

    @property
    def n(self) -> int:
        return len(self.node_ids)

    def labels(self, attr: str, bins: Sequence[float] | None = None) -> np.ndarray:
        """Integer labels with -1 = missing, the form every analysis takes.

        Categorical attributes return their category codes (``bins`` must be
        None).  Numeric attributes return bin indices when ``bins`` is given,
        otherwise the stored column of whole numbers itself.  This is the
        only place a column is binned.
        """
        if attr not in ATTRIBUTE_NAMES:
            raise ValueError(f"unknown attribute {attr!r}")
        if bins is None:
            return getattr(self, attr)
        if attr in CATEGORICAL_ATTRIBUTES:
            raise ValueError(f"bins not applicable to categorical attribute {attr!r}")
        return bin_codes(getattr(self, attr), bins)

    def take(self, indices: Sequence[int] | np.ndarray) -> "AttributeTable":
        """Row subset/reorder aligned with a new node indexing."""
        idx = np.asarray(indices, dtype=np.int64)
        return AttributeTable(
            node_ids=tuple(self.node_ids[i] for i in idx.tolist()),
            **{name: getattr(self, name)[idx] for name in ATTRIBUTE_NAMES},
        )

    def equals(self, other: "AttributeTable") -> bool:
        return self.node_ids == other.node_ids and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in ATTRIBUTE_NAMES
        )

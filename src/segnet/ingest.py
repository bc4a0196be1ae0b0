"""Village dataset I/O: relation edge layers plus a nodal covariate table.

Canonical on-disk layout for one village (all CSV, UTF-8):

* one or more relation layer files with header ``source,target``, one
  undirected edge per row;
* ``attributes.csv`` with header
  ``node_id,sex,age,religion,caste,education,workflag,savings`` where an
  empty string means missing;
* optionally ``nodes.csv`` (header ``node_id``) fixing the node universe,
  which is how isolated survey respondents stay part of the network.

Each file is read at once and checked column by column; blank rows are
skipped.  The cell rules (empty = missing, case-insensitive categories,
whole non-negative numbers) are the codec of ``segnet.attributes``:
``parse_cell`` reads each distinct cell of a column once and ``format_cell``
writes it back.  Bytes that are not UTF-8, a wrong header or field count, an
empty or duplicate id, an edge endpoint outside ``nodes.csv``, an unknown
category (unless ``coerce_unknown_categories``) or a bad or negative number
raise ``IngestError`` naming ``file:line`` of the first offending record, as
a row-by-row reader would.  Ids become node indices once, and each layer
is handed to ``VillageDataset`` as node-index pairs; the dataset reduces
each layer to its distinct unordered pairs and builds the union graph.

An adapter converts square 0/1 adjacency matrices into edge lists.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Container, Iterable, Mapping, Sequence

import numpy as np

from .attributes import (
    ATTRIBUTE_NAMES,
    CATEGORICAL_ATTRIBUTES,
    AttributeTable,
    format_cell,
    missing_value,
    parse_cell,
)
from .graph import UndirectedGraph, _simple_graph, _unique

__all__ = [
    "IngestError",
    "IngestConfig",
    "VillageDataset",
    "adapt_adjacency_matrix",
    "load_village",
    "save_village",
]

_ATTRIBUTE_HEADER = ("node_id",) + ATTRIBUTE_NAMES
_RESERVED_FILE_STEMS = {"attributes", "nodes"}


class IngestError(ValueError):
    """Malformed input file; the message carries file and line context."""


@dataclass(frozen=True)
class IngestConfig:
    """Loading options.

    ``nodes_file`` fixes the node universe explicitly; otherwise it is the
    union of edge endpoints.  ``coerce_unknown_categories`` loads categorical
    values outside the declared sets as missing instead of failing, which
    real survey exports occasionally need.
    """

    village_id: str | None = None
    nodes_file: str | Path | None = None
    coerce_unknown_categories: bool = False


@dataclass(frozen=True)
class VillageDataset:
    """One village: covariates, its relation layers as node-index pairs, and their union graph.

    Each layer is kept as a read-only int64 ``(m, 2)`` array of its distinct
    unordered pairs ``(min, max)`` in lexicographic order; a self-pair
    ``(a, a)`` stays in its layer.  ``graph`` is not passed but built here as
    the simple union of the layers, so self loops are dropped from it.  An
    index outside ``0 .. n - 1`` raises ``ValueError`` naming the layer.
    """

    village_id: str
    attributes: AttributeTable
    layer_pairs: Mapping[str, np.ndarray]
    unmatched_attribute_ids: tuple[str, ...] = ()
    graph: UndirectedGraph = field(init=False)

    def __post_init__(self) -> None:
        n = self.attributes.n
        layers = {}
        for name, pairs in self.layer_pairs.items():
            pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
            if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
                raise ValueError(f"relation layer {name!r} holds a node index outside 0 .. {n - 1}")
            keys = _unique(pairs.min(axis=1) * n + pairs.max(axis=1))
            layers[name] = np.column_stack([keys // n, keys % n])
            layers[name].setflags(write=False)
        union = np.concatenate([np.empty((0, 2), np.int64), *layers.values()])
        object.__setattr__(self, "layer_pairs", layers)
        object.__setattr__(self, "graph", _simple_graph(n, union[:, 0], union[:, 1]))

    @property
    def node_ids(self) -> tuple[str, ...]:
        return self.attributes.node_ids

    @property
    def relation_layers(self) -> dict[str, int]:
        """Relation name -> number of distinct undirected pairs in that layer."""
        return {name: len(pairs) for name, pairs in self.layer_pairs.items()}

    def equals(self, other: "VillageDataset") -> bool:
        return (
            self.village_id == other.village_id
            and self.attributes.equals(other.attributes)
            and self.layer_pairs.keys() == other.layer_pairs.keys()
            and all(np.array_equal(p, other.layer_pairs[k]) for k, p in self.layer_pairs.items())
            and self.unmatched_attribute_ids == other.unmatched_attribute_ids
        )


def _line_breaks(text: str) -> int:
    """Line breaks in ``text``, counted as a file opened with ``newline=""`` splits lines."""
    return text.count("\n") + text.count("\r") - text.count("\r\n")


class _CsvFile:
    """One CSV file read at once, as stripped columns of its data records.

    The header must match ``header`` case-insensitively; blank rows are
    skipped.  ``columns`` holds the records before the first one whose field
    count is wrong, so every column has ``size`` entries.
    """

    def __init__(self, path: Path, header: tuple[str, ...]) -> None:
        self.path = path
        data = path.read_bytes()
        try:
            # utf-8-sig drops a leading byte-order mark, as spreadsheet exports write.
            text = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            line = 1 + _line_breaks(exc.object[: exc.start].decode("utf-8"))
            raise IngestError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None
        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            self._rows = list(reader)
        except csv.Error as exc:
            raise IngestError(f"{path}:{reader.line_num}: {exc}") from None
        if not self._rows or tuple(h.strip().lower() for h in self._rows[0]) != header:
            raise IngestError(f"{path}:1: expected header {','.join(header)!r}")
        self._width = len(header)
        self._records = [row for row in self._rows[1:] if len(row) > 1 or row and row[0].strip()]
        lengths = np.fromiter(map(len, self._records), np.int64, len(self._records))
        wrong = np.flatnonzero(lengths != self._width)
        self.size = int(wrong[0]) if wrong.size else len(self._records)
        kept = self._records[: self.size]
        self.columns = [list(map(str.strip, col)) for col in zip(*kept)] or [[] for _ in header]

    def check(self, faults: Sequence[tuple[np.ndarray, Callable[[int], str]]]) -> None:
        """Raise the error of the first faulty record, as a row-by-row reader would.

        ``faults`` pairs a mask over the records in ``columns`` with the
        message for a record it marks, in the order a row's checks run.  A
        record whose field count is wrong comes after all of those records.
        """
        masks = np.array([mask for mask, _ in faults])
        if masks.any():
            k = int(masks.any(axis=0).argmax())
            raise self._error(k, faults[int(masks[:, k].argmax())][1](k))
        if self.size < len(self._records):
            expected = f"{self._width} field" + ("s" if self._width > 1 else "")
            found = len(self._records[self.size])
            raise self._error(self.size, f"expected {expected}, found {found}")

    def _error(self, k: int, message: str) -> IngestError:
        """``message`` for data record ``k``, located at the line the record starts on."""
        record = self._records[k]
        raw = next(r for r, row in enumerate(self._rows) if row is record)
        line = 1 + sum(1 + sum(map(_line_breaks, row)) for row in self._rows[:raw])
        return IngestError(f"{self.path}:{line}: {message}")


def _flags(values: Iterable[object], size: int) -> np.ndarray:
    return np.fromiter(values, bool, size)


def _repeats(ids: list[str]) -> np.ndarray:
    """Mask of the ids equal to an earlier one."""
    first = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))
    return np.fromiter(map(first.__getitem__, ids), np.int64, len(ids)) != np.arange(len(ids))


def _read_nodes_file(path: Path) -> tuple[str, ...]:
    table = _CsvFile(path, ("node_id",))
    (ids,) = table.columns
    table.check([(_repeats(ids), lambda k: f"duplicate node id {ids[k]!r}")])
    return tuple(ids)


def _read_edge_file(path: Path, universe: Container[str] | None) -> tuple[list[str], list[str]]:
    """The stripped source and target columns of a layer file."""
    table = _CsvFile(path, ("source", "target"))
    a, b = table.columns
    size = table.size
    faults = [(~_flags(map(all, zip(a, b)), size), lambda k: "empty node id")]
    if universe is not None:
        for ends in (a, b):
            faults.append((
                ~_flags(map(universe.__contains__, ends), size),
                lambda k, ends=ends: (
                    f"edge references node id {ends[k]!r} outside the declared node list"
                ),
            ))
    table.check(faults)
    return a, b


def _read_attribute_file(
    path: Path, index: Mapping[str, int], coerce: bool
) -> tuple[AttributeTable, tuple[str, ...]]:
    """Covariates aligned with ``index``, and the sorted ids outside it."""
    table = _CsvFile(path, _ATTRIBUTE_HEADER)
    ids, *texts = table.columns
    size = table.size
    faults = [
        (~_flags(map(bool, ids), size), lambda k: "empty node id"),
        (_repeats(ids), lambda k: f"duplicate node id {ids[k]!r}"),
    ]
    values = {}
    for attr, cells in zip(ATTRIBUTE_NAMES, texts):
        # Each distinct cell is parsed once; a coerced category is missing.
        parsed: dict[str, int | float] = {}
        errors: dict[str, str] = {}
        for text in dict.fromkeys(cells):
            try:
                parsed[text] = parse_cell(attr, text)
            except ValueError as exc:
                parsed[text] = missing_value(attr)
                if not (coerce and attr in CATEGORICAL_ATTRIBUTES):
                    errors[text] = str(exc)
        values[attr] = np.array(list(map(parsed.__getitem__, cells)))
        faults.append((
            _flags(map(errors.__contains__, cells), size),
            lambda k, cells=cells, errors=errors: errors[cells[k]],
        ))
    table.check(faults)

    n = len(index)
    # Row n takes the rows of ids outside the universe, which are dropped.
    pos = np.fromiter(map(index.get, ids, repeat(n, size)), np.int64, size)
    columns = {}
    for attr in ATTRIBUTE_NAMES:
        columns[attr] = np.full(n + 1, missing_value(attr))
        if size:
            columns[attr][pos] = values[attr]
    unmatched = sorted(ids[k] for k in np.flatnonzero(pos == n).tolist())
    attributes = AttributeTable(tuple(index), **{attr: col[:n] for attr, col in columns.items()})
    return attributes, tuple(unmatched)


def load_village(
    edge_files: Sequence[str | Path],
    attribute_file: str | Path,
    config: IngestConfig = IngestConfig(),
) -> VillageDataset:
    """Load one village from its relation layer files and covariate table.

    The union graph is independent of layer file order.  Nodes missing from
    the attribute file load with every field missing; attribute rows for ids
    outside the node universe are reported via ``unmatched_attribute_ids``.
    """
    if not edge_files:
        raise IngestError("at least one edge file is required")
    attribute_path = Path(attribute_file)
    node_ids = None if config.nodes_file is None else _read_nodes_file(Path(config.nodes_file))
    universe = None if node_ids is None else frozenset(node_ids)

    ends: dict[str, tuple[list[str], list[str]]] = {}
    for ef in edge_files:
        p = Path(ef)
        name = p.stem
        if name in ends:
            raise IngestError(f"duplicate relation layer name {name!r}")
        ends[name] = _read_edge_file(p, universe)

    if node_ids is None:
        node_ids = tuple(sorted(set().union(*chain.from_iterable(ends.values()))))
    index = dict(zip(node_ids, range(len(node_ids))))

    def indices(ids: list[str]) -> np.ndarray:
        return np.fromiter(map(index.__getitem__, ids), np.int64, len(ids))

    layer_pairs = {
        name: np.column_stack([indices(a), indices(b)]) for name, (a, b) in sorted(ends.items())
    }
    table, unmatched = _read_attribute_file(attribute_path, index, config.coerce_unknown_categories)
    village_id = config.village_id or attribute_path.parent.name or attribute_path.stem
    return VillageDataset(village_id, table, layer_pairs, unmatched)


def _refuse_stale_csv(dataset: VillageDataset, directory: Path) -> None:
    """Refuse a ``directory`` holding a ``.csv`` that saving ``dataset`` would not write:
    loading reads every ``.csv`` there, so a stale layer would join the village."""
    written = {f"{stem}.csv" for stem in (*_RESERVED_FILE_STEMS, *dataset.layer_pairs)}
    stale = sorted(p.name for p in directory.glob("*.csv") if p.name not in written)
    if stale:
        raise ValueError(
            f"{directory} holds {', '.join(stale)}, which saving village "
            f"{dataset.village_id!r} would not overwrite; remove it or save elsewhere"
        )


def save_village(dataset: VillageDataset, directory: str | Path) -> Path:
    """Serialize a dataset to the canonical layout; re-loading round-trips.

    Each layer's rows are its pairs in node-index order.  Raises
    ``ValueError``, before writing anything, on a reserved layer name or one
    that does not name one file in ``directory`` (empty, ``.``, ``..``, or
    holding ``/``, ``\\`` or NUL), a number that is not whole, or a ``.csv``
    in ``directory`` that it would not write.
    """
    for name in dataset.layer_pairs:
        if name in _RESERVED_FILE_STEMS:
            raise ValueError(f"relation layer name {name!r} is reserved")
        if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
            raise ValueError(f"relation layer name {name!r} must name one file")
    out = Path(directory)
    _refuse_stale_csv(dataset, out)
    table = dataset.attributes
    columns = [(attr, getattr(table, attr).tolist()) for attr in ATTRIBUTE_NAMES]
    attribute_rows = [
        [nid, *(format_cell(attr, col[i]) for attr, col in columns)]
        for i, nid in enumerate(table.node_ids)
    ]
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "nodes.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id"])
        for nid in dataset.node_ids:
            writer.writerow([nid])

    with open(out / "attributes.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_ATTRIBUTE_HEADER)
        writer.writerows(attribute_rows)

    ids = dataset.node_ids
    for name, pairs in dataset.layer_pairs.items():
        with open(out / f"{name}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["source", "target"])
            writer.writerows([ids[u], ids[v]] for u, v in pairs.tolist())
    return out


def adapt_adjacency_matrix(matrix_file: str | Path) -> list[tuple[int, int]]:
    """Convert a square 0/1 adjacency matrix CSV into an edge list.

    The matrix is OR-symmetrized; one edge is emitted per upper-triangle
    entry.  Row/column indices double as node ids.
    """
    path = Path(matrix_file)
    try:
        mat = np.loadtxt(path, delimiter=",", ndmin=2, encoding="utf-8-sig")
    except ValueError as exc:
        raise IngestError(f"{path}: cannot parse as a numeric matrix: {exc}") from None
    except OSError as exc:
        raise IngestError(f"{path}: {exc}") from None
    if mat.size == 0:
        raise IngestError(f"{path}: empty matrix")
    if mat.shape[0] != mat.shape[1]:
        raise IngestError(
            f"{path}: matrix is {mat.shape[0]}x{mat.shape[1]}, expected square"
        )
    values = np.unique(mat)
    if not np.isin(values, (0.0, 1.0)).all():
        bad = values[~np.isin(values, (0.0, 1.0))][0]
        raise IngestError(f"{path}: matrix entry {bad!r} outside {{0, 1}}")
    sym = np.triu(np.maximum(mat, mat.T), k=1)
    iu, ju = np.nonzero(sym)
    return [(int(i), int(j)) for i, j in zip(iu.tolist(), ju.tolist())]

"""Village dataset I/O: relation edge layers plus a nodal covariate table.

Canonical on-disk layout for one village (all CSV, UTF-8):

* one or more relation layer files with header ``source,target``, one
  undirected edge per row;
* ``attributes.csv`` with header
  ``node_id,sex,age,religion,caste,education,workflag,savings`` where an
  empty string means missing;
* optionally ``nodes.csv`` (header ``node_id``) fixing the node universe,
  which is how isolated survey respondents stay part of the network.

Each file is read once, row by row, and blank rows are skipped.  The cell
rules (empty = missing, case-insensitive categories, whole non-negative
numbers) are the codec of ``segnet.attributes``: ``parse_cell`` reads each
cell and ``format_cell`` writes it back.  A wrong header or field count, an
empty or duplicate id, an edge endpoint outside ``nodes.csv``, an unknown
category (unless ``coerce_unknown_categories``) or a bad or negative number
raises ``IngestError`` naming ``file:line``.  The layers' pairs are
deduplicated once, as the union graph is built.

An adapter converts square 0/1 adjacency matrices into edge lists.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .attributes import (
    ATTRIBUTE_NAMES,
    CATEGORICAL_ATTRIBUTES,
    AttributeTable,
    format_cell,
    missing_value,
    parse_cell,
)
from .graph import UndirectedGraph, build_graph

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
    """One village: union graph, covariates, and the per-layer edge lists."""

    village_id: str
    graph: UndirectedGraph
    attributes: AttributeTable
    layer_edges: Mapping[str, tuple[tuple[str, str], ...]]
    unmatched_attribute_ids: tuple[str, ...] = ()

    @property
    def node_ids(self) -> tuple[str, ...]:
        return self.attributes.node_ids

    @property
    def relation_layers(self) -> dict[str, int]:
        """Relation name -> number of distinct undirected pairs in that layer."""
        return {name: len(pairs) for name, pairs in self.layer_edges.items()}

    def equals(self, other: "VillageDataset") -> bool:
        return (
            self.village_id == other.village_id
            and self.graph.equals(other.graph)
            and self.attributes.equals(other.attributes)
            and dict(self.layer_edges) == dict(other.layer_edges)
            and self.unmatched_attribute_ids == other.unmatched_attribute_ids
        )


def _read_rows(path: Path, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, stripped fields)`` for each non-blank data record of ``path``.

    ``lineno`` is the physical line the record starts on (a quoted field may
    span lines).  The header must match ``header`` case-insensitively and
    every row must have one field per header column.
    """
    # utf-8-sig drops a leading byte-order mark, as spreadsheet exports write.
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or tuple(h.strip().lower() for h in first) != header:
            raise IngestError(f"{path}:1: expected header {','.join(header)!r}")
        expected = f"{len(header)} field" + ("s" if len(header) > 1 else "")
        next_line = reader.line_num + 1
        for row in reader:
            lineno, next_line = next_line, reader.line_num + 1
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise IngestError(f"{path}:{lineno}: expected {expected}, found {len(row)}")
            yield lineno, [text.strip() for text in row]


def _read_edge_file(path: Path, universe: frozenset[str] | None = None) -> tuple[tuple[str, str], ...]:
    pairs: set[tuple[str, str]] = set()
    for lineno, (a, b) in _read_rows(path, ("source", "target")):
        if not a or not b:
            raise IngestError(f"{path}:{lineno}: empty node id")
        if universe is not None:
            for nid in (a, b):
                if nid not in universe:
                    raise IngestError(
                        f"{path}:{lineno}: edge references node id {nid!r} "
                        "outside the declared node list"
                    )
        pairs.add((a, b) if a <= b else (b, a))
    return tuple(sorted(pairs))


def _read_nodes_file(path: Path) -> tuple[str, ...]:
    ids: dict[str, None] = {}  # an insertion-ordered set
    for lineno, (nid,) in _read_rows(path, ("node_id",)):
        if nid in ids:
            raise IngestError(f"{path}:{lineno}: duplicate node id {nid!r}")
        ids[nid] = None
    return tuple(ids)


def _read_attribute_file(
    path: Path, index: Mapping[str, int], coerce: bool
) -> tuple[AttributeTable, tuple[str, ...]]:
    """Covariates aligned with ``index``, and the sorted ids outside it."""
    n = len(index)
    # Row n takes the rows of ids outside the universe, which are parsed and
    # checked like the others and then dropped.
    columns = {attr: np.full(n + 1, missing_value(attr)) for attr in ATTRIBUTE_NAMES}
    seen: set[str] = set()
    unmatched: list[str] = []
    for lineno, (nid, *texts) in _read_rows(path, _ATTRIBUTE_HEADER):
        if not nid:
            raise IngestError(f"{path}:{lineno}: empty node id")
        if nid in seen:
            raise IngestError(f"{path}:{lineno}: duplicate node id {nid!r}")
        seen.add(nid)
        pos = index.get(nid, n)
        if pos == n:
            unmatched.append(nid)
        for attr, text in zip(ATTRIBUTE_NAMES, texts):
            try:
                columns[attr][pos] = parse_cell(attr, text)
            except ValueError as exc:
                # A coerced category keeps the missing value its column starts with.
                if not (coerce and attr in CATEGORICAL_ATTRIBUTES):
                    raise IngestError(f"{path}:{lineno}: {exc}") from None
    table = AttributeTable(tuple(index), **{attr: col[:n] for attr, col in columns.items()})
    return table, tuple(sorted(unmatched))


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

    layers: dict[str, tuple[tuple[str, str], ...]] = {}
    for ef in edge_files:
        p = Path(ef)
        name = p.stem
        if name in layers:
            raise IngestError(f"duplicate relation layer name {name!r}")
        layers[name] = _read_edge_file(p, universe)

    try:
        graph, index = build_graph(
            (pair for pairs in layers.values() for pair in pairs), node_ids=node_ids
        )
    except ValueError as exc:
        raise IngestError(str(exc)) from None

    table, unmatched = _read_attribute_file(attribute_path, index, config.coerce_unknown_categories)
    village_id = config.village_id or attribute_path.parent.name or attribute_path.stem
    return VillageDataset(
        village_id=village_id,
        graph=graph,
        attributes=table,
        layer_edges=dict(sorted(layers.items())),
        unmatched_attribute_ids=unmatched,
    )


def _refuse_stale_csv(dataset: VillageDataset, directory: Path) -> None:
    """Refuse a ``directory`` holding a ``.csv`` that saving ``dataset`` would not write:
    loading reads every ``.csv`` there, so a stale layer would join the village."""
    written = {f"{stem}.csv" for stem in (*_RESERVED_FILE_STEMS, *dataset.layer_edges)}
    stale = sorted(p.name for p in directory.glob("*.csv") if p.name not in written)
    if stale:
        raise ValueError(
            f"{directory} holds {', '.join(stale)}, which saving village "
            f"{dataset.village_id!r} would not overwrite; remove it or save elsewhere"
        )


def save_village(dataset: VillageDataset, directory: str | Path) -> Path:
    """Serialize a dataset to the canonical layout; re-loading round-trips.

    Raises ``ValueError``, before writing anything, on a reserved layer name,
    a number that is not whole, or a ``.csv`` in ``directory`` that it would
    not write.
    """
    for name in dataset.layer_edges:
        if name in _RESERVED_FILE_STEMS:
            raise ValueError(f"relation layer name {name!r} is reserved")
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

    for name, pairs in dataset.layer_edges.items():
        with open(out / f"{name}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["source", "target"])
            for a, b in pairs:
                writer.writerow([a, b])
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

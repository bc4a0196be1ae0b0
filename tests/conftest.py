import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from segnet import AttributeTable, IngestConfig, Partition, build_graph, load_village

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

BRIDGED_TRIANGLE_EDGES = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]


def make_table(node_ids, **columns):
    """AttributeTable with the given columns set and everything else missing.

    Categorical columns take integer codes, numeric columns floats; use -1
    and NaN for missing entries.
    """
    n = len(node_ids)
    base = {
        "sex": np.full(n, -1, dtype=np.int64),
        "age": np.full(n, np.nan),
        "religion": np.full(n, -1, dtype=np.int64),
        "caste": np.full(n, -1, dtype=np.int64),
        "education": np.full(n, np.nan),
        "workflag": np.full(n, -1, dtype=np.int64),
        "savings": np.full(n, -1, dtype=np.int64),
    }
    for name, values in columns.items():
        dtype = float if name in ("age", "education") else np.int64
        base[name] = np.asarray(values, dtype=dtype)
    return AttributeTable(node_ids=tuple(str(v) for v in node_ids), **base)


def design_groups(design):
    """``{features: (pairs, ties)}`` view of a grouped dyad design."""
    return {
        tuple(row): (int(pairs), int(ties))
        for row, pairs, ties in zip(design.X.tolist(), design.pairs, design.ties)
    }


def random_graph(rng, n, p):
    """Erdos-Renyi graph over integer node ids 0..n-1 (may be empty)."""
    iu, ju = np.triu_indices(n, k=1)
    hit = rng.random(iu.size) < p
    edges = list(zip(iu[hit].tolist(), ju[hit].tolist()))
    graph, _ = build_graph(edges, node_ids=range(n))
    return graph


def load_benchmark_villages(workload, directory, monkeypatch):
    """Generate a benchmark workload's corpus at seed 411 into ``directory`` and load each village.

    Reads ``perfbench/`` only; its dataclasses need a ``sys.modules`` entry.
    """
    modules = {}
    for name in ("corpus", "workloads"):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, modules[name])
        spec.loader.exec_module(modules[name])
    shape = modules["workloads"].WORKLOADS[workload]
    modules["corpus"].generate_corpus(directory, shape.villages, 411, shape.salt)
    villages = sorted(directory.iterdir())
    assert len(villages) == len(shape.villages)
    datasets = []
    for village in villages:
        layers = sorted(p for p in village.glob("*.csv") if p.stem not in ("attributes", "nodes"))
        config = IngestConfig(nodes_file=village / "nodes.csv")
        datasets.append(load_village(layers, village / "attributes.csv", config))
    return datasets


@pytest.fixture
def bridged_triangles():
    """Two attribute-pure triangles joined by one bridge, partitioned apart."""
    graph, _ = build_graph(BRIDGED_TRIANGLE_EDGES, node_ids=range(6))
    labels = np.array([0, 0, 0, 1, 1, 1])
    partition = Partition.from_assignment(graph, np.array([1, 1, 1, 2, 2, 2]))
    return graph, labels, partition


@pytest.fixture
def two_triangles():
    """Two disjoint triangles, males on one, females on the other."""
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    graph, _ = build_graph(edges, node_ids=range(6))
    table = make_table(range(6), sex=[0, 0, 0, 1, 1, 1])
    return graph, table


@pytest.fixture
def complete_bipartite_33():
    """K_{3,3} with the parts as attribute groups (fully dissortative)."""
    edges = [(i, j) for i in range(3) for j in range(3, 6)]
    graph, _ = build_graph(edges, node_ids=range(6))
    labels = np.array([0, 0, 0, 1, 1, 1])
    return graph, labels


@pytest.fixture
def clique_ring():
    """Four 4-cliques in a ring plus two label-matched bridges.

    Communities are the cliques; labels pair up opposite cliques, so the
    ring edges are label-mixed while the two extra bridges are label-pure.
    """
    edges = []
    for c in range(4):
        base = 4 * c
        edges += [
            (base + i, base + j) for i in range(4) for j in range(i + 1, 4)
        ]
    # ring of single edges between consecutive cliques
    edges += [(3, 4), (7, 8), (11, 12), (15, 0)]
    # bridges between opposite (same-label) cliques
    edges += [(1, 9), (5, 13)]
    graph, _ = build_graph(edges, node_ids=range(16))
    labels = np.repeat([0, 1, 0, 1], 4)
    partition = Partition.from_assignment(graph, np.repeat([1, 2, 3, 4], 4))
    return graph, labels, partition

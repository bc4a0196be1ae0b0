"""Attribute mixing measures on a partitioned graph.

``segregation_report`` is the one entry point: it computes the attribute
modularity ``q_attr`` and its within/between split in one pass over the
edges.  Every term is computed on the subgraph induced by the nodes whose
attribute is observed, with degrees and edge totals recomputed there.  The
structural partition is taken as given (found on the full graph) and
restricted to the same nodes.  The modularity formula and its edge and
degree terms are ``segnet.community``'s ``_modularity`` and ``_mixing``;
this module only picks their edges and groups and normalizes.

The within/between decomposition splits every edge by whether its endpoints
share a community, then measures attribute assortativity separately inside
communities and across them.  Normalized variants divide by the maximum
attainable value under the same degree null, so 1 means every (within or
between) edge joins same-attribute nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .community import Partition, _check_partition, _mixing, _modularity
from .graph import UndirectedGraph, _edges_within, _node_labels, _unique

__all__ = [
    "SegregationReport",
    "CommunityNetwork",
    "CommunityNode",
    "CommunityTie",
    "segregation_report",
    "build_community_network",
    "community_network_to_dot",
]


def _split_q(
    u: np.ndarray, v: np.ndarray, cells: np.ndarray, labels: np.ndarray | None = None
) -> tuple[float, float, float]:
    """Attribute assortativity of the within-community edges ``(u, v)``, or of
    the between-community ones when the node ``labels`` are given.

    ``cells`` codes each node's (community, label) cell.
    """
    same, totals = _mixing(u, v, cells)
    null_sq = float((totals.astype(float) ** 2).sum())
    if labels is not None:
        # No between edge joins one cell, and
        # sum_ij k_i k_j [x_i = x_j][h_i != h_j]
        #   = sum_a (sum_{x=a} k)^2 - sum_{c,a} (sum_{x=a,h=c} k)^2
        same, label_totals = _mixing(u, v, labels)
        null_sq = float((label_totals.astype(float) ** 2).sum()) - null_sq
    two_m = 2.0 * u.size
    null_term = null_sq / two_m
    q = (2.0 * same - null_term) / two_m
    q_max = (two_m - null_term) / two_m
    # q_max == 0 forces q == 0 (all relevant degree mass in one cell); the
    # natural limit of q/q_max is 0 there.
    return q, q_max, q / q_max if q_max > 0.0 else 0.0


@dataclass(frozen=True)
class SegregationReport:
    """Every mixing measure for one attribute on one partitioned graph."""

    q_attr: float
    q_within: float
    q_between: float
    q_within_max: float
    q_between_max: float
    q_within_norm: float
    q_between_norm: float
    n_used: int


def segregation_report(
    graph: UndirectedGraph,
    labels: Sequence[int] | np.ndarray,
    partition: Partition,
) -> SegregationReport:
    """Attribute, within and between modularity from one pass over the edges.

    ``labels`` holds one code per node, negative where it is missing.  On the
    subgraph of labeled nodes, ``q_attr`` is the modularity of the labeling
    (all ordered pairs); ``q_within`` and ``q_between`` are the attribute
    assortativity of the within- and the between-community edges, degrees
    counting only those edges.  Each ``_max`` is the largest value under the
    same degree null, ``_norm`` the term over it (0 where it is 0), and
    ``n_used`` the number of labeled nodes.  Raises ``ValueError``, in this
    order, if ``labels`` is not one integer per node, no node is labeled, no
    edge joins two labeled nodes, ``partition`` does not cover the graph,
    or no labeled edge lies within a community or none crosses one.
    """
    labels = _node_labels(labels, graph.node_count, "labels")
    labeled = labels >= 0
    nodes = np.flatnonzero(labeled)
    if nodes.size == 0:
        raise ValueError("no node carries the attribute")
    labels = labels[nodes]
    u, v = _edges_within(graph, labeled)
    if u.size == 0:
        raise ValueError("no edges join labeled nodes")
    q_attr = _modularity(u, v, labels)
    _check_partition(graph, partition)
    comm = partition.assignment[nodes]
    within = comm[u] == comm[v]
    if not within.any():
        raise ValueError("no within-community edges join labeled nodes")
    if within.all():
        raise ValueError("no between-community edges join labeled nodes")
    # Edges and degree totals are counted per (community, label) cell.
    cells = comm * (int(labels.max()) + 1) + labels
    q_w, q_w_max, q_w_norm = _split_q(u[within], v[within], cells)
    q_b, q_b_max, q_b_norm = _split_q(u[~within], v[~within], cells, labels)
    return SegregationReport(
        q_attr=q_attr,
        q_within=q_w,
        q_between=q_b,
        q_within_max=q_w_max,
        q_between_max=q_b_max,
        q_within_norm=q_w_norm,
        q_between_norm=q_b_norm,
        n_used=int(nodes.size),
    )


@dataclass(frozen=True)
class CommunityNode:
    """One retained community with its attribute composition.

    ``composition`` holds fractions over members whose attribute is observed;
    the unobserved share is reported separately as ``missing_fraction``.
    """

    community: int
    size: int
    node_fraction: float
    composition: Mapping[str, float]
    missing_fraction: float


@dataclass(frozen=True)
class CommunityTie:
    community_a: int
    community_b: int
    tie_count: int
    possible_ties: int
    density: float


@dataclass(frozen=True)
class CommunityNetwork:
    """Coarse community-level view of a partitioned graph."""

    nodes: tuple[CommunityNode, ...]
    ties: tuple[CommunityTie, ...]
    node_min_fraction: float
    edge_min_fraction: float
    node_fraction_retained: float
    tie_fraction_retained: float


def build_community_network(
    graph: UndirectedGraph,
    partition: Partition,
    labels: Sequence[int] | np.ndarray,
    node_min_fraction: float = 0.05,
    edge_min_fraction: float = 0.05,
    category_names: Sequence[str] | None = None,
) -> CommunityNetwork:
    """Collapse a partitioned graph to communities and their cross ties.

    Communities keep a node if their size is at least ``node_min_fraction``
    of the graph's nodes; a tie between two retained communities is kept if
    the number of cross edges is at least ``edge_min_fraction`` of the
    possible pairs between them.  ``labels`` holds one integer code per
    node, negative where it is missing.  Raises ``ValueError`` if
    ``partition`` does not cover the graph, ``labels`` is not one integer
    per node, or no community passes the size threshold.
    """
    _check_partition(graph, partition)
    labels = _node_labels(labels, graph.node_count, "labels")
    n = graph.node_count
    h0 = partition.assignment - 1
    is_retained = partition.sizes >= node_min_fraction * n
    retained = np.flatnonzero(is_retained)
    if retained.size == 0:
        raise ValueError("no community reaches the size threshold")

    def _name(code: int) -> str:
        if category_names is not None and 0 <= code < len(category_names):
            return category_names[code]
        return str(code)

    # Labeled members of every community per label code, from one bincount.
    labeled = labels >= 0
    n_labels = int(labels.max(initial=-1)) + 1
    by_label = np.bincount(
        h0[labeled] * n_labels + labels[labeled], minlength=partition.n_communities * n_labels
    ).reshape(partition.n_communities, n_labels)
    nodes = []
    for c in retained.tolist():
        size = int(partition.sizes[c])
        row = by_label[c].tolist()
        observed = sum(row)
        nodes.append(
            CommunityNode(
                community=c + 1,
                size=size,
                node_fraction=size / n,
                composition={_name(code): cnt / observed for code, cnt in enumerate(row) if cnt},
                missing_fraction=(size - observed) / size,
            )
        )

    ends = h0[np.column_stack([graph.edge_u, graph.edge_v])]
    cross = (ends[:, 0] != ends[:, 1]) & is_retained[ends].all(axis=1)
    k = partition.n_communities
    lo, hi = np.sort(ends[cross], axis=1).T
    key = lo * k + hi
    pair_key = _unique(key)
    pair_ties = np.bincount(np.searchsorted(pair_key, key), minlength=pair_key.size)
    pair_a, pair_b = np.divmod(pair_key, k)
    ties = []
    kept_tie_total = 0
    for a, b, count in zip(pair_a.tolist(), pair_b.tolist(), pair_ties.tolist()):
        possible = int(partition.sizes[a]) * int(partition.sizes[b])
        if count >= edge_min_fraction * possible:
            ties.append(
                CommunityTie(
                    community_a=a + 1,
                    community_b=b + 1,
                    tie_count=count,
                    possible_ties=possible,
                    density=count / possible,
                )
            )
            kept_tie_total += count

    retained_nodes = int(partition.sizes[retained].sum())
    return CommunityNetwork(
        nodes=tuple(nodes),
        ties=tuple(ties),
        node_min_fraction=node_min_fraction,
        edge_min_fraction=edge_min_fraction,
        node_fraction_retained=retained_nodes / n,
        tie_fraction_retained=kept_tie_total / graph.edge_count if graph.edge_count else 0.0,
    )


def community_network_to_dot(network: Mapping[str, Any], title: str = "communities") -> str:
    """Graphviz DOT rendering; node labels carry size and composition shares.

    ``network`` is a ``CommunityNetwork`` as a record (``asdict``), such as a
    bundle's ``community_networks`` entry or its saved JSON loaded back.
    """
    lines = [f"graph {_dot_id(title)} {{", "  node [shape=circle];"]
    for node in network["nodes"]:
        comp = " ".join(
            f"{name} {share:.0%}" for name, share in sorted(node["composition"].items())
        )
        label_parts = [f"c{node['community']}", f"n={node['size']}"]
        if comp:
            label_parts.append(comp)
        if node["missing_fraction"]:
            label_parts.append(f"missing {node['missing_fraction']:.0%}")
        label = "\\n".join(label_parts)
        lines.append(f'  c{node["community"]} [label="{label}"];')
    for tie in network["ties"]:
        lines.append(
            f'  c{tie["community_a"]} -- c{tie["community_b"]} [label="{tie["tie_count"]}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_id(text: str) -> str:
    safe = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in text)
    return safe if safe and not safe[0].isdigit() else f"g_{safe}"

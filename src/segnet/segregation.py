"""Attribute mixing measures on a partitioned graph.

All attribute-dependent quantities are computed on the subgraph induced by
the nodes whose attribute is observed, with degrees and edge totals
recomputed there.  The structural partition is taken as given (found on the
full graph) and restricted to the same nodes.

The within/between decomposition splits every edge by whether its endpoints
share a community, then measures attribute assortativity separately inside
communities and across them.  Normalized variants divide by the maximum
attainable value under the same degree null, so 1 means every (within or
between) edge joins same-attribute nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .community import Partition
from .graph import UndirectedGraph

__all__ = [
    "SegregationReport",
    "CommunityNetwork",
    "CommunityNode",
    "CommunityTie",
    "attribute_modularity",
    "within_community_modularity",
    "between_community_modularity",
    "segregation_report",
    "build_community_network",
    "community_network_to_dot",
    "community_network_to_json_dict",
]


class _LabeledEdges(NamedTuple):
    """The edges of a graph that join labeled nodes, with those nodes' labels.

    Endpoints are positions in ``nodes`` (the labeled nodes in index order),
    so degrees counted from these edges are the degrees of the subgraph
    induced by the labeled nodes.
    """

    nodes: np.ndarray
    labels: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def degrees(self, edges: np.ndarray | slice = slice(None)) -> np.ndarray:
        """Per labeled node, the number of the selected edges it touches."""
        k = self.nodes.size
        return np.bincount(self.u[edges], minlength=k) + np.bincount(self.v[edges], minlength=k)


def _labeled_edges(graph: UndirectedGraph, labels: Sequence[int] | np.ndarray) -> _LabeledEdges:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (graph.node_count,):
        raise ValueError("labels must cover every node (use negative codes for missing)")
    labeled = labels >= 0
    nodes = np.flatnonzero(labeled)
    if nodes.size == 0:
        raise ValueError("no node carries the attribute")
    position = np.cumsum(labeled) - 1
    keep = labeled[graph.edge_u] & labeled[graph.edge_v]
    return _LabeledEdges(
        nodes, labels[nodes], position[graph.edge_u[keep]], position[graph.edge_v[keep]]
    )


def _check_partition(graph: UndirectedGraph, partition: Partition) -> None:
    if partition.assignment.shape != (graph.node_count,):
        raise ValueError("partition does not cover this graph")


def _attribute_q(e: _LabeledEdges) -> float:
    m = e.u.size
    if m == 0:
        raise ValueError("no edges join labeled nodes")
    e_same = int((e.labels[e.u] == e.labels[e.v]).sum())
    deg_by_label = np.bincount(e.labels, weights=e.degrees())
    return float(e_same / m - ((deg_by_label / (2.0 * m)) ** 2).sum())


def _normalized(edge_term: float, null_term: float, two_m: float) -> tuple[float, float, float]:
    q = (edge_term - null_term) / two_m
    q_max = (two_m - null_term) / two_m
    # q_max == 0 forces q == 0 (all relevant degree mass in one cell); the
    # natural limit of q/q_max is 0 there.
    q_norm = q / q_max if q_max > 0.0 else 0.0
    return q, q_max, q_norm


def _split_q(e: _LabeledEdges, partition: Partition, within: bool) -> tuple[float, float, float]:
    """Attribute assortativity of the within- or the between-community edges."""
    comm = partition.assignment[e.nodes]
    same_comm = comm[e.u] == comm[e.v]
    side = same_comm if within else ~same_comm
    m_side = int(side.sum())
    if m_side == 0:
        kind = "within" if within else "between"
        raise ValueError(f"no {kind}-community edges join labeled nodes")
    edge_term = 2.0 * int((side & (e.labels[e.u] == e.labels[e.v])).sum())
    k = e.degrees(side)
    n_labels = int(e.labels.max()) + 1
    group_sums = np.bincount(comm * n_labels + e.labels, weights=k)
    null_sq = float((group_sums.astype(float) ** 2).sum())
    if not within:
        # sum_ij k_i k_j [x_i = x_j][h_i != h_j]
        #   = sum_a (sum_{x=a} k)^2 - sum_{c,a} (sum_{x=a,h=c} k)^2
        label_sums = np.bincount(e.labels, weights=k)
        null_sq = float((label_sums.astype(float) ** 2).sum()) - null_sq
    two_m = 2.0 * m_side
    return _normalized(edge_term, null_sq / two_m, two_m)


def attribute_modularity(graph: UndirectedGraph, labels: Sequence[int] | np.ndarray) -> float:
    """Modularity of the attribute labeling itself (all ordered pairs convention).

    Restricted to the subgraph induced by labeled nodes; raises if that
    subgraph has no edges.
    """
    return _attribute_q(_labeled_edges(graph, labels))


def within_community_modularity(
    graph: UndirectedGraph,
    labels: Sequence[int] | np.ndarray,
    partition: Partition,
) -> tuple[float, float, float]:
    """Attribute assortativity of within-community edges.

    Returns ``(q_within, q_within_max, q_within_norm)``.  Degrees count only
    within-community edges of the labeled subgraph; raises if there are none.
    """
    _check_partition(graph, partition)
    return _split_q(_labeled_edges(graph, labels), partition, within=True)


def between_community_modularity(
    graph: UndirectedGraph,
    labels: Sequence[int] | np.ndarray,
    partition: Partition,
) -> tuple[float, float, float]:
    """Attribute assortativity of between-community edges.

    Returns ``(q_between, q_between_max, q_between_norm)``.  Degrees count
    only community-crossing edges of the labeled subgraph; raises if there
    are none.
    """
    _check_partition(graph, partition)
    return _split_q(_labeled_edges(graph, labels), partition, within=False)


@dataclass(frozen=True)
class SegregationReport:
    """Every mixing measure for one attribute on one partitioned graph."""

    attribute: str
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
    attribute: str,
) -> SegregationReport:
    """Attribute, within and between modularity from one pass over the edges."""
    edges = _labeled_edges(graph, labels)
    q_attr = _attribute_q(edges)
    _check_partition(graph, partition)
    q_w, q_w_max, q_w_norm = _split_q(edges, partition, within=True)
    q_b, q_b_max, q_b_norm = _split_q(edges, partition, within=False)
    return SegregationReport(
        attribute=attribute,
        q_attr=q_attr,
        q_within=q_w,
        q_between=q_b,
        q_within_max=q_w_max,
        q_between_max=q_b_max,
        q_within_norm=q_w_norm,
        q_between_norm=q_b_norm,
        n_used=int(edges.nodes.size),
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
    possible pairs between them.  Raises if no community passes the size
    threshold.
    """
    if partition.assignment.shape != (graph.node_count,):
        raise ValueError("partition does not cover this graph")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (graph.node_count,):
        raise ValueError("labels must cover every node (use negative codes for missing)")
    n = graph.node_count
    h0 = partition.assignment - 1
    retained = np.flatnonzero(partition.sizes >= node_min_fraction * n)
    if retained.size == 0:
        raise ValueError("no community reaches the size threshold")
    retained_set = set(retained.tolist())

    def _name(code: int) -> str:
        if category_names is not None and 0 <= code < len(category_names):
            return category_names[code]
        return str(code)

    nodes = []
    for c in retained.tolist():
        members = np.flatnonzero(h0 == c)
        member_labels = labels[members]
        observed = member_labels[member_labels >= 0]
        if observed.size:
            counts = np.bincount(observed)
            composition = {
                _name(code): float(cnt / observed.size)
                for code, cnt in enumerate(counts.tolist())
                if cnt
            }
        else:
            composition = {}
        nodes.append(
            CommunityNode(
                community=int(c + 1),
                size=int(members.size),
                node_fraction=float(members.size / n),
                composition=composition,
                missing_fraction=float((members.size - observed.size) / members.size),
            )
        )

    cross: dict[tuple[int, int], int] = {}
    for u, v in zip(h0[graph.edge_u].tolist(), h0[graph.edge_v].tolist()):
        if u == v or u not in retained_set or v not in retained_set:
            continue
        key = (u, v) if u < v else (v, u)
        cross[key] = cross.get(key, 0) + 1
    ties = []
    kept_tie_total = 0
    for (a, b), count in sorted(cross.items()):
        possible = int(partition.sizes[a]) * int(partition.sizes[b])
        if count >= edge_min_fraction * possible:
            ties.append(
                CommunityTie(
                    community_a=int(a + 1),
                    community_b=int(b + 1),
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


def community_network_to_dot(network: CommunityNetwork, title: str = "communities") -> str:
    """Graphviz DOT rendering; node labels carry size and composition shares."""
    lines = [f"graph {_dot_id(title)} {{", "  node [shape=circle];"]
    for node in network.nodes:
        comp = " ".join(
            f"{name} {share:.0%}" for name, share in sorted(node.composition.items())
        )
        label_parts = [f"c{node.community}", f"n={node.size}"]
        if comp:
            label_parts.append(comp)
        if node.missing_fraction:
            label_parts.append(f"missing {node.missing_fraction:.0%}")
        label = "\\n".join(label_parts)
        lines.append(f'  c{node.community} [label="{label}"];')
    for tie in network.ties:
        lines.append(
            f'  c{tie.community_a} -- c{tie.community_b} [label="{tie.tie_count}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_id(text: str) -> str:
    safe = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in text)
    return safe if safe and not safe[0].isdigit() else f"g_{safe}"


def community_network_to_json_dict(network: CommunityNetwork) -> dict:
    """JSON-serializable view of a community network."""
    return {
        "node_min_fraction": network.node_min_fraction,
        "edge_min_fraction": network.edge_min_fraction,
        "node_fraction_retained": network.node_fraction_retained,
        "tie_fraction_retained": network.tie_fraction_retained,
        "nodes": [
            {
                "community": node.community,
                "size": node.size,
                "node_fraction": node.node_fraction,
                "composition": dict(sorted(node.composition.items())),
                "missing_fraction": node.missing_fraction,
            }
            for node in network.nodes
        ],
        "ties": [
            {
                "community_a": tie.community_a,
                "community_b": tie.community_b,
                "tie_count": tie.tie_count,
                "possible_ties": tie.possible_ties,
                "density": tie.density,
            }
            for tie in network.ties
        ],
    }

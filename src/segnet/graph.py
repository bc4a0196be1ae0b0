"""Immutable undirected simple graphs: construction, components, summary statistics.

Component labels come from numpy root hooking and pointer jumping over the
edge arrays; local clustering counts each node's triangles exactly from the
edge arrays, with edges oriented by degree rank.  Both use numpy alone.
Component labels follow first discovery by node index, and the clustering
mean adds its per-node terms left to right in node order, so both equal a
plain graph search and a plain loop over the nodes exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

__all__ = [
    "UndirectedGraph",
    "NetworkStats",
    "build_graph",
    "component_labels",
    "induced_subgraph",
    "largest_connected_component",
    "mean_local_clustering",
    "network_stats",
]

# Element budget of one chunk in the chunked kernels (triangle counting
# here, the design and permutation kernels in ``dyadic``): their largest
# transient arrays hold about this many entries per chunk, so a worker's
# working set does not grow with the village.
_CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph over dense node indices ``0 .. node_count - 1``.

    Edges are stored once as index pairs with ``edge_u < edge_v``, ordered
    lexicographically.  ``indptr``/``neighbors`` hold a CSR adjacency layout
    with every neighbor list sorted.  All arrays are frozen after
    construction so instances can be shared freely across workers.
    """

    node_count: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    indptr: np.ndarray
    neighbors: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.edge_u, self.edge_v, self.indptr, self.neighbors):
            arr.setflags(write=False)

    @property
    def edge_count(self) -> int:
        return int(self.edge_u.size)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def adjacency(self, node: int) -> np.ndarray:
        """Sorted neighbor indices of ``node``."""
        return self.neighbors[self.indptr[node] : self.indptr[node + 1]]

    def has_edge(self, i: int, j: int) -> bool:
        nbrs = self.adjacency(i)
        pos = int(np.searchsorted(nbrs, j))
        return pos < nbrs.size and int(nbrs[pos]) == j

    def equals(self, other: "UndirectedGraph") -> bool:
        return (
            self.node_count == other.node_count
            and np.array_equal(self.edge_u, other.edge_u)
            and np.array_equal(self.edge_v, other.edge_v)
        )


def _compile(node_count: int, eu: np.ndarray, ev: np.ndarray) -> UndirectedGraph:
    """Assemble a graph from deduplicated ``u < v`` edge arrays in increasing
    lexicographic order, as both callers pass them: ``_simple_graph`` from sorted
    unique keys, ``induced_subgraph`` by a monotone renumbering of sorted edges."""
    eu = np.asarray(eu, dtype=np.int64)
    ev = np.asarray(ev, dtype=np.int64)
    src = np.concatenate([eu, ev])
    dst = np.concatenate([ev, eu])
    perm = np.lexsort((dst, src))
    neighbors = dst[perm]
    counts = np.bincount(src, minlength=node_count)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return UndirectedGraph(node_count, eu, ev, indptr, neighbors)


def build_graph(
    edge_list: Iterable[tuple[Hashable, Hashable]],
    node_ids: Sequence[Hashable] | None = None,
) -> tuple[UndirectedGraph, dict[Hashable, int]]:
    """Build a simple graph from raw id pairs.

    Repeated and reversed pairs collapse to a single edge and self loops are
    dropped.  When ``node_ids`` is given it fixes the node universe and index
    order, and edges referencing ids outside it are rejected.  Otherwise the
    universe is the sorted set of endpoint ids (ids must then be mutually
    orderable).  Returns the graph together with the id -> index mapping,
    whose keys are in index order.
    """
    ends = [nid for a, b in edge_list for nid in (a, b)]
    if node_ids is not None:
        index: dict[Hashable, int] = {}
        for k, nid in enumerate(node_ids):
            if nid in index:
                raise ValueError(f"duplicate node id {nid!r} in node list")
            index[nid] = k
    else:
        index = {nid: k for k, nid in enumerate(sorted(set(ends)))}
    try:
        flat = np.array([index[nid] for nid in ends], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"edge references unknown node id {exc.args[0]!r}") from None
    return _simple_graph(len(index), flat[0::2], flat[1::2]), index


def _unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an integer array, flattened, as ``np.unique``
    gives them: a sort, then every value that differs from its predecessor.
    numpy's own ``np.unique`` hashes first and is several times slower on
    int64 keys."""
    ordered = np.sort(values, axis=None)
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def _simple_graph(node_count: int, u: np.ndarray, v: np.ndarray) -> UndirectedGraph:
    """The simple graph of the index pairs ``(u, v)``: repeated and reversed
    pairs collapse to one edge and self loops are dropped."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keep = lo < hi
    keys = _unique(lo[keep] * node_count + hi[keep])
    return _compile(node_count, keys // node_count, keys % node_count)


def component_labels(graph: UndirectedGraph) -> tuple[np.ndarray, int]:
    """Label connected components 0, 1, ... in order of first discovery by node index.

    Component ``c`` is the one whose smallest node index ranks ``c``-th
    among the components' smallest indices, so label 0 holds node 0.

    Every node points at a root, at first itself.  Each round hooks the
    larger root of every edge whose ends have different roots onto the
    smaller one, then jumps pointers (``root = root[root]``) until none
    changes.  A pointer stays inside its node's component and never exceeds
    the node's index.  The loop stops once every edge has one root at both
    ends, so each component then has one root, its smallest index, and
    ranking the roots gives the labels.  The loop terminates: a round that
    does not stop hooks at least one root onto a smaller one, so there are
    fewer rounds than nodes.
    """
    root = np.arange(graph.node_count, dtype=np.int64)
    u, v = graph.edge_u, graph.edge_v
    while True:
        ru, rv = root[u], root[v]
        differ = ru != rv
        if not differ.any():
            break
        # An edge whose ends share a root keeps sharing it, so drop it.
        u, v, ru, rv = u[differ], v[differ], ru[differ], rv[differ]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    # Each root is its component's smallest index, so ranking the roots in
    # index order labels the components in discovery order.
    is_root = root == np.arange(graph.node_count)
    return (np.cumsum(is_root) - 1)[root], int(is_root.sum())


def _edges_within(graph: UndirectedGraph, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges joining two nodes of boolean ``mask``, in edge order.

    Each endpoint is given as its position in ``np.flatnonzero(mask)``.  The
    renumbering is monotone, so the edges keep ``u < v`` and their
    lexicographic order.
    """
    position = np.cumsum(mask) - 1
    keep = mask[graph.edge_u] & mask[graph.edge_v]
    return position[graph.edge_u[keep]], position[graph.edge_v[keep]]


def induced_subgraph(
    graph: UndirectedGraph, nodes: Sequence[int] | np.ndarray
) -> tuple[UndirectedGraph, dict[int, int]]:
    """Subgraph induced by ``nodes``, renumbered densely in ascending original order.

    Returns the subgraph and the old-index -> new-index mapping, whose keys
    ascend, so ``list(mapping)`` lists the original index of each new node.
    """
    nodes = _unique(np.asarray(nodes, dtype=np.int64))
    if nodes.size == 0:
        raise ValueError("empty node selection")
    if nodes[0] < 0 or nodes[-1] >= graph.node_count:
        raise ValueError("node index out of range")
    mask = np.zeros(graph.node_count, dtype=bool)
    mask[nodes] = True
    sub = _compile(int(nodes.size), *_edges_within(graph, mask))
    mapping = {int(old): new for new, old in enumerate(nodes.tolist())}
    return sub, mapping


def largest_connected_component(
    graph: UndirectedGraph,
) -> tuple[UndirectedGraph, dict[int, int]]:
    """Extract the largest connected component.

    Ties between equal-size components resolve to the one containing the
    smallest original node index.  Raises on an empty graph.  Returns what
    :func:`induced_subgraph` returns: the mapping's keys ascend, so
    ``list(mapping)`` lists the original index of each component node.
    """
    if graph.node_count == 0:
        raise ValueError("cannot take the largest component of an empty graph")
    labels, n_comp = component_labels(graph)
    sizes = np.bincount(labels, minlength=n_comp)
    # Discovery order means the first maximal label contains the smallest index.
    best = int(np.argmax(sizes))
    return induced_subgraph(graph, np.flatnonzero(labels == best))


def _triangle_counts(graph: UndirectedGraph) -> np.ndarray:
    """Number of triangles through each node, as int64.

    Nodes are ranked by (degree, index) and each edge points from its
    lower-ranked end ``u`` to ``v``.  The candidates of edge ``(u, v)`` are
    ``u``'s out-neighbours ranked above ``v``; a candidate ``w`` closes a
    triangle when ``(v, w)`` is an edge.  So each triangle is found once,
    from its two lowest-ranked corners, and counted at all three.  Ranking
    by degree keeps every out-degree at most sqrt(2m), so a hub has few
    candidates (Latapy, Theor. Comput. Sci. 407, 2008).  The edges are
    walked in slices of about ``_CHUNK_ELEMENTS`` candidates.
    """
    n = graph.node_count
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(graph.degrees, kind="stable")] = np.arange(n)
    ru, rv = rank[graph.edge_u], rank[graph.edge_v]
    # Out-edges in rank space, sorted by (src, dst); ``keys`` looks them up.
    keys = np.sort(np.minimum(ru, rv) * n + np.maximum(ru, rv))
    src, dst = np.divmod(keys, n)
    # Edge e's candidates follow it in its source's slice of ``dst``.
    n_cand = np.searchsorted(src, src, side="right") - np.arange(keys.size) - 1
    done = np.cumsum(n_cand)
    counts = np.zeros(n, dtype=np.int64)
    start = 0
    while start < keys.size:
        before = int(done[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(done, before + _CHUNK_ELEMENTS, side="right")))
        per_edge = n_cand[start:stop]
        # Candidate j of the slice belongs to edge e and sits at position
        # e + 1 + (j - first[e]) of ``dst``, where first[e] counts the
        # slice's candidates before e's.
        first = done[start:stop] - per_edge - before
        edge = np.repeat(np.arange(start, stop), per_edge)
        w = dst[edge + 1 + np.arange(edge.size) - np.repeat(first, per_edge)]
        v = dst[edge]
        key = v * n + w
        found = keys.take(np.searchsorted(keys, key), mode="clip") == key
        corners = np.concatenate([src[edge[found]], v[found], w[found]])
        counts += np.bincount(corners, minlength=n)
        start = stop
    return counts[rank]


def mean_local_clustering(graph: UndirectedGraph) -> float:
    """Mean over all nodes of the local clustering coefficient.

    A node of degree < 2 contributes 0.  Node ``i`` of degree ``k`` lies on
    ``links`` triangles, one per linked pair of its neighbours, and
    contributes ``2 * links / (k * (k - 1))``.  The triangles are counted
    from the edge arrays in chunks of bounded size, so a hub costs no more
    memory than its edges.  The terms are added left to right in node order
    (a running sum, not ``np.sum``'s pairwise one), so the float equals that
    of a plain loop over the nodes.
    """
    if graph.node_count == 0:
        raise ValueError("empty graph")
    links = _triangle_counts(graph)
    k = graph.degrees
    terms = np.zeros(graph.node_count)
    wedge = k >= 2
    terms[wedge] = 2.0 * links[wedge] / (k[wedge] * (k[wedge] - 1))
    return float(np.cumsum(terms)[-1]) / graph.node_count


@dataclass(frozen=True)
class NetworkStats:
    """Whole-graph summary plus largest-component coverage fractions."""

    n_nodes: int
    n_edges: int
    density: float
    mean_degree: float
    mean_clustering: float
    n_components: int
    lcc_node_fraction: float
    lcc_edge_fraction: float


def network_stats(graph: UndirectedGraph, lcc: UndirectedGraph) -> NetworkStats:
    """Summary statistics of ``graph`` with coverage of its component ``lcc``."""
    if graph.node_count == 0:
        raise ValueError("empty graph")
    n, m = graph.node_count, graph.edge_count
    density = 2.0 * m / (n * (n - 1)) if n > 1 else 0.0
    _, n_comp = component_labels(graph)
    # An edgeless graph has nothing to cover; report the vacuous fraction 1.
    edge_fraction = lcc.edge_count / m if m else 1.0
    return NetworkStats(
        n_nodes=n,
        n_edges=m,
        density=density,
        mean_degree=2.0 * m / n,
        mean_clustering=mean_local_clustering(graph),
        n_components=n_comp,
        lcc_node_fraction=lcc.node_count / n,
        lcc_edge_fraction=edge_fraction,
    )

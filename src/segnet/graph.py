"""Immutable undirected simple graphs: construction from node-index pairs,
components, subgraphs, summary statistics.

A graph is stored in one form, its edge arrays: int64 pairs ``u < v`` in
lexicographic order.  Degrees and everything below are computed from them.
Component labels come from numpy root hooking and pointer jumping over the
edge arrays; local clustering counts each node's triangles exactly from the
edge arrays, with edges oriented by degree rank.  Both use numpy alone.
Component labels follow first discovery by node index, and the clustering
mean adds its per-node terms left to right in node order, so both equal a
plain graph search and a plain loop over the nodes exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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

    Its one stored form is the edge arrays: each edge once, as int64 index
    pairs with ``edge_u < edge_v`` in increasing lexicographic order.
    ``build_graph`` and ``induced_subgraph`` give that form, and a direct
    constructor must too: nothing checks it.  The arrays are frozen after
    construction so instances can be shared freely across workers.
    """

    node_count: int
    edge_u: np.ndarray
    edge_v: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.edge_u, self.edge_v):
            arr.setflags(write=False)

    @property
    def edge_count(self) -> int:
        return int(self.edge_u.size)

    @property
    def degrees(self) -> np.ndarray:
        return np.bincount(np.concatenate([self.edge_u, self.edge_v]), minlength=self.node_count)

    def equals(self, other: "UndirectedGraph") -> bool:
        return (
            self.node_count == other.node_count
            and np.array_equal(self.edge_u, other.edge_u)
            and np.array_equal(self.edge_v, other.edge_v)
        )


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


def _distinct_pairs(node_count: int, pairs: np.ndarray) -> np.ndarray:
    """The distinct unordered pairs ``(min, max)`` of an int64 ``(m, 2)`` array of
    indices below ``node_count``, in lexicographic order; self pairs stay."""
    # Two columns, not ``min(axis=1)``: numpy's reduction over rows of two is far slower.
    u, v = pairs.T
    keys = _unique(np.minimum(u, v) * node_count + np.maximum(u, v))
    return np.column_stack([keys // node_count, keys % node_count])


def _node_indices(
    values: Sequence | np.ndarray, node_count: int, what: str, pairs: bool = False
) -> np.ndarray:
    """``values`` as int64 node indices: an ``(m, 2)`` array if ``pairs``, else 1-D.

    Raises ``ValueError``, naming the input ``what``, on another shape, a
    dtype that is not integer or an index outside ``0 .. node_count - 1``.
    An empty input is valid whatever its shape or dtype.
    """
    array = np.asarray(values)
    if array.size == 0:
        return np.empty((0, 2) if pairs else 0, dtype=np.int64)
    if array.ndim != 1 + pairs or (pairs and array.shape[1] != 2):
        shape = "an (m, 2) array" if pairs else "one-dimensional"
        raise ValueError(f"{what} must be {shape}, not of shape {array.shape}")
    if not np.issubdtype(array.dtype, np.integer):
        raise ValueError(f"{what} must hold integer node indices, not {array.dtype}")
    if array.min() < 0 or array.max() >= node_count:
        raise ValueError(f"{what} holds a node index outside 0 .. {node_count - 1}")
    return array.astype(np.int64, copy=False)


def _node_labels(values: Sequence[int] | np.ndarray, node_count: int, what: str) -> np.ndarray:
    """``values`` as one int64 label per node, a negative label meaning missing.

    Raises ``ValueError`` naming ``what`` unless ``values`` has shape
    ``(node_count,)`` and, if not empty, an integer dtype int64 holds (not bool).
    """
    array = np.asarray(values)
    if array.shape != (node_count,):
        raise ValueError(f"{what} must be of shape ({node_count},), not {array.shape}")
    if array.size and not (array.dtype.kind in "iu" and np.can_cast(array.dtype, np.int64)):
        raise ValueError(f"{what} must hold integer labels, not {array.dtype}")
    return array.astype(np.int64, copy=False)


def build_graph(node_count: int, pairs: Sequence[Sequence[int]] | np.ndarray) -> UndirectedGraph:
    """The simple graph on nodes ``0 .. node_count - 1`` of the ``(m, 2)`` index pairs ``pairs``.

    Repeated and reversed pairs collapse to one edge and self loops are
    dropped.  Pairs of another shape or not of integers, or an index outside
    ``0 .. node_count - 1``, raise ``ValueError``.
    """
    pairs = _node_indices(pairs, node_count, "pair array", pairs=True)
    lo, hi = _distinct_pairs(node_count, pairs).T
    keep = lo < hi
    return UndirectedGraph(node_count, lo[keep], hi[keep])


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
) -> tuple[UndirectedGraph, np.ndarray]:
    """Subgraph induced by ``nodes``, renumbered densely in ascending original order.

    Returns the subgraph and its nodes: the sorted distinct indices of
    ``nodes`` as a read-only int64 array, so ``nodes[new] == old``.  A
    selection that is empty, not 1-D or not of integers, or an index outside
    the graph, raises ``ValueError``.
    """
    nodes = _unique(_node_indices(nodes, graph.node_count, "node selection"))
    if nodes.size == 0:
        raise ValueError("empty node selection")
    mask = np.zeros(graph.node_count, dtype=bool)
    mask[nodes] = True
    nodes.setflags(write=False)
    return UndirectedGraph(int(nodes.size), *_edges_within(graph, mask)), nodes


def largest_connected_component(graph: UndirectedGraph) -> tuple[UndirectedGraph, np.ndarray]:
    """Extract the largest connected component, as :func:`induced_subgraph` does.

    Ties between equal-size components resolve to the one containing the
    smallest original node index.  Raises on an empty graph.
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

"""Community structure: seeded Louvain, partition modularity, and label agreement.

Newman modularity (Newman & Girvan, Phys. Rev. E 69, 026113, 2004) is computed
here alone, by ``_modularity`` and its ``_mixing`` kernel, for Louvain, for
``modularity_of_partition`` and for every term of ``segnet.segregation``.

The agreement score between two labelings is mutual information normalized by
the larger of the two entropies; natural logarithms are used throughout (the
normalized value is base-independent by construction).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .graph import UndirectedGraph, _node_labels, _unique

__all__ = [
    "Partition",
    "NmiResult",
    "louvain",
    "modularity_of_partition",
    "nmi",
]

# A level of local moving + aggregation must improve modularity by more than
# this to justify another level.
_LEVEL_GAIN_THRESHOLD = 1e-10
# Once a sweep of local moving moves fewer than this share of the level's
# nodes, the level's later sweeps skip settled nodes (see ``louvain``).
_TRACK_MOVED_FRACTION = 0.1
# Guard against floating-point churn when comparing single-move gains.
_MOVE_GAIN_EPS = 1e-12


@dataclass(frozen=True)
class Partition:
    """Node partition with within/between edge counts.

    ``assignment`` holds contiguous community labels 1..n_communities.
    """

    assignment: np.ndarray
    n_communities: int
    sizes: np.ndarray
    m_within: int
    m_between: int
    modularity: float | None = None
    level_modularities: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for arr in (self.assignment, self.sizes):
            arr.setflags(write=False)

    @classmethod
    def from_assignment(
        cls, graph: UndirectedGraph, labels: Sequence[int] | np.ndarray
    ) -> "Partition":
        """Build a partition from one integer label per node (``ValueError`` otherwise).

        Labels are renumbered to contiguous 1-based ids in order of first
        appearance by node index.
        """
        raw = _node_labels(labels, graph.node_count, "assignment")
        uniques, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
        appearance_rank = np.argsort(np.argsort(first))
        assignment = appearance_rank[inverse] + 1
        h0 = assignment - 1
        n_comm = int(uniques.size)
        sizes = np.bincount(h0, minlength=n_comm)
        m_within = int((h0[graph.edge_u] == h0[graph.edge_v]).sum())
        return cls(
            assignment=assignment,
            n_communities=n_comm,
            sizes=sizes,
            m_within=m_within,
            m_between=graph.edge_count - m_within,
        )


def _check_partition(graph: UndirectedGraph, partition: Partition) -> None:
    if partition.assignment.shape != (graph.node_count,):
        raise ValueError("partition does not cover this graph")


def _mixing(u: np.ndarray, v: np.ndarray, groups: np.ndarray) -> tuple[int, np.ndarray]:
    """How many edges ``(u, v)`` join two nodes of one group (codes ``0 ..`` per
    node), and each group's degree total over those edges, for every code."""
    gu, gv = groups[u], groups[v]
    k = int(groups.max()) + 1
    return int((gu == gv).sum()), np.bincount(gu, minlength=k) + np.bincount(gv, minlength=k)


def _modularity(u: np.ndarray, v: np.ndarray, groups: np.ndarray) -> float:
    """Newman modularity of ``groups`` over the edges ``(u, v)``, of which there is at least one."""
    m = u.size
    same, totals = _mixing(u, v, groups)
    return float(same / m - ((totals / (2.0 * m)) ** 2).sum())


def modularity_of_partition(graph: UndirectedGraph, partition: Partition) -> float:
    """Newman modularity of a partition (all ordered pairs, i = j null term included)."""
    if graph.edge_count == 0:
        raise ValueError("modularity is undefined for an edgeless graph")
    _check_partition(graph, partition)
    return _modularity(graph.edge_u, graph.edge_v, partition.assignment - 1)


def _local_moving(
    adj: list[list[tuple[int, float]]], loops: list[float], m: float, rng: np.random.Generator
) -> list[int]:
    n = len(adj)
    deg = [sum(w for _, w in nbrs) + 2.0 * loops[i] for i, nbrs in enumerate(adj)]
    com = list(range(n))
    tot = deg.copy()
    order = np.arange(n)
    two_m = 2.0 * m
    # acc[c] sums the visited node's weight into community c; weights are
    # positive, so a zero marks a community not yet touched by this visit.
    acc = [0.0] * n
    # While tracking, settled[i] says that i's last visit kept it in place and
    # nothing that visit read has changed since; members[c] is community c.
    settled = [False] * n
    members: list[set[int]] | None = None
    while True:
        moved = 0
        rng.shuffle(order)
        for i in order.tolist():
            if settled[i]:
                continue
            ci = com[i]
            seen = []  # touched communities in first-touch (neighbour) order
            for j, w in adj[i]:
                cj = com[j]
                if not acc[cj]:
                    seen.append(cj)
                acc[cj] += w
            deg_i = deg[i]
            tot[ci] -= deg_i
            best_c = ci
            best_gain = acc[ci] - tot[ci] * deg_i / two_m
            for c in seen:
                if c != ci:
                    gain = acc[c] - tot[c] * deg_i / two_m
                    if gain > best_gain + _MOVE_GAIN_EPS:
                        best_gain = gain
                        best_c = c
                acc[c] = 0.0
            com[i] = best_c
            tot[best_c] += deg_i
            if best_c == ci:
                if members is not None:
                    settled[i] = True
                continue
            moved += 1
            if members is not None:
                # i's neighbours read com[i]; the members of ci and best_c and
                # their neighbours read tot[ci] or tot[best_c].
                for j, _ in adj[i]:
                    settled[j] = False
                members[ci].discard(i)
                for c in (ci, best_c):
                    for x in members[c]:
                        settled[x] = False
                        for j, _ in adj[x]:
                            settled[j] = False
                members[best_c].add(i)
        if moved == 0:
            return com
        if members is None and moved < _TRACK_MOVED_FRACTION * n:
            members = [set() for _ in range(n)]
            for i, c in enumerate(com):
                members[c].add(i)


def _aggregate(
    adj: list[list[tuple[int, float]]], loops: list[float], com: list[int]
) -> tuple[list[list[tuple[int, float]]], list[float]]:
    k = max(com) + 1
    new_adj: list[dict[int, float]] = [dict() for _ in range(k)]
    new_loops = [0.0] * k
    for i, nbrs in enumerate(adj):
        ci = com[i]
        new_loops[ci] += loops[i]
        for j, w in nbrs:
            if j < i:
                continue  # neighbour lists hold both directions; visit each pair once
            cj = com[j]
            if ci == cj:
                new_loops[ci] += w
            else:
                new_adj[ci][cj] = new_adj[ci].get(cj, 0.0) + w
                new_adj[cj][ci] = new_adj[cj].get(ci, 0.0) + w
    return [list(nbrs.items()) for nbrs in new_adj], new_loops


def louvain(graph: UndirectedGraph, seed: int) -> Partition:
    """Multi-level modularity maximization with a seeded node visit order.

    Local moving sweeps nodes in a shuffled order until no single move
    improves modularity, then communities are collapsed into supernodes and
    the procedure repeats.  The hierarchy stops once a level improves
    modularity by no more than 1e-10; the coarsest assignment is mapped back
    to the original nodes.  Level 0 groups the graph's edge arrays by node
    with a stable sort; as the edges are in lexicographic order, each node's
    neighbours are visited in ascending index order.

    Each level holds one ``(neighbour, weight)`` list per node.  A visit sums
    the node's weights per neighbouring community into one marker list
    indexed by community, kept for the whole level and cleared after each
    visit, and weighs the communities in the order the neighbours first
    touch them; the first best gain ``w - tot[c] * deg[i] / (2m)`` wins.

    Once a sweep moves fewer than a tenth of the level's nodes, the level's
    later sweeps skip *settled* nodes: those whose last visit left them in
    place.  Moving node ``i`` from community ``a`` to ``b`` unsettles every
    node whose visit reads something that changed: ``i``'s neighbours,
    which read ``com[i]``, and the members of ``a`` and ``b`` and their
    neighbours, which read ``tot[a]`` or ``tot[b]``.  A skipped visit would
    read the same communities, totals and weights as the visit that settled
    the node, and degrees and totals are integer-valued floats, so it would
    compute the same gains and keep the node in place: skipping changes no
    partition.  The order is still shuffled every sweep, so the seeded
    stream is unchanged.  Sweeps that move many nodes are not tracked,
    because there the bookkeeping costs more than the skips save.

    Each level's modularity is that of its assignment mapped back to the
    original graph, by the formula :func:`modularity_of_partition` uses; the
    returned ``modularity`` is the last level's and equals
    ``modularity_of_partition`` up to summation order.
    """
    if graph.node_count == 0:
        raise ValueError("empty graph")
    if graph.edge_count == 0:
        raise ValueError("graph has no edges")
    rng = np.random.default_rng(seed)
    m = float(graph.edge_count)
    # Group both ends of every edge by node, stably: node x's neighbours u < x
    # (edges ending at x) come first, then its v > x, each run ascending.
    order = np.argsort(np.concatenate([graph.edge_v, graph.edge_u]), kind="stable")
    neighbors = np.concatenate([graph.edge_u, graph.edge_v])[order].tolist()
    bounds = [0] + np.cumsum(graph.degrees).tolist()
    adj = [[(j, 1.0) for j in neighbors[lo:hi]] for lo, hi in zip(bounds, bounds[1:])]
    loops = [0.0] * graph.node_count
    assignment = np.arange(graph.node_count)
    q_prev = _modularity(graph.edge_u, graph.edge_v, assignment)
    level_qs: list[float] = []
    while True:
        com = np.asarray(_local_moving(adj, loops, m, rng))
        # Community ids are node indices of this level: rank the ones in use.
        used = np.zeros(len(adj), dtype=bool)
        used[com] = True
        com_dense = (np.cumsum(used) - 1)[com]
        n_communities = int(used.sum())
        assignment = com_dense[assignment]
        q = _modularity(graph.edge_u, graph.edge_v, assignment)
        level_qs.append(q)
        if q - q_prev <= _LEVEL_GAIN_THRESHOLD or n_communities == len(adj):
            break
        adj, loops = _aggregate(adj, loops, com_dense.tolist())
        q_prev = q
    partition = Partition.from_assignment(graph, assignment + 1)
    return replace(partition, modularity=level_qs[-1], level_modularities=tuple(level_qs))


@dataclass(frozen=True)
class NmiResult:
    """Normalized mutual information between two labelings.

    ``value`` is I / max(H_attr, H_comm); when both labelings are constant the
    maximum entropy is 0 and ``value`` is defined as 0 with ``degenerate`` set.
    """

    value: float
    mutual_information: float
    entropy_attr: float
    entropy_comm: float
    n_used: int
    degenerate: bool = False


def _entropy_from_counts(counts: np.ndarray, n: float) -> float:
    return float(((counts / n) * np.log(n / counts)).sum())


def nmi(labels_a: Sequence[int] | np.ndarray, labels_b: Sequence[int] | np.ndarray) -> NmiResult:
    """Max-entropy-normalized mutual information; negative codes mean missing.

    Nodes missing either label are excluded pairwise.  Raises ``ValueError``
    unless both are 1-D integers of one length, or if no node has both.
    """
    a = _node_labels(labels_a, np.size(labels_a), "labels_a")
    b = _node_labels(labels_b, a.size, "labels_b")
    mask = (a >= 0) & (b >= 0)
    n_used = int(mask.sum())
    if n_used == 0:
        raise ValueError("no node carries both labelings")
    a, b = a[mask], b[mask]
    a_values, b_values = _unique(a), _unique(b)
    a_codes, b_codes = np.searchsorted(a_values, a), np.searchsorted(b_values, b)
    n_a, n_b = a_values.size, b_values.size
    joint = np.bincount(a_codes * n_b + b_codes, minlength=n_a * n_b).astype(float)
    joint = joint.reshape(n_a, n_b)
    counts_a = joint.sum(axis=1)
    counts_b = joint.sum(axis=0)
    n = float(n_used)

    entropy_a = _entropy_from_counts(counts_a, n)
    entropy_b = _entropy_from_counts(counts_b, n)
    nz_a, nz_b = np.nonzero(joint)
    c_ab = joint[nz_a, nz_b]
    # Integer-product form keeps exact-count fixtures exact: the log argument
    # is a ratio of exact integers.
    mutual_information = float(
        ((c_ab / n) * np.log((c_ab * n) / (counts_a[nz_a] * counts_b[nz_b]))).sum()
    )
    if -1e-12 < mutual_information < 0.0:
        mutual_information = 0.0

    h_max = max(entropy_a, entropy_b)
    if h_max == 0.0:
        warnings.warn(
            "both labelings are constant; normalized mutual information defined as 0",
            stacklevel=2,
        )
        return NmiResult(0.0, mutual_information, entropy_a, entropy_b, n_used, degenerate=True)
    return NmiResult(
        value=mutual_information / h_max,
        mutual_information=mutual_information,
        entropy_attr=entropy_a,
        entropy_comm=entropy_b,
        n_used=n_used,
    )

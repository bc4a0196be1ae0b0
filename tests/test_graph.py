import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segnet import (
    build_graph,
    component_labels,
    induced_subgraph,
    largest_connected_component,
    mean_local_clustering,
    network_stats,
)
from segnet import graph as graph_module

from .conftest import load_benchmark_villages, random_graph
from .oracles import (
    component_labels_by_bfs,
    local_clustering_by_loop,
    local_clustering_by_sparse_product,
)


def test_build_collapses_duplicates_reversals_and_self_loops():
    graph, index = build_graph([("a", "b"), ("b", "a"), ("a", "b"), ("c", "c")])
    assert graph.edge_count == 1
    # the self loop is dropped but its endpoint still joins the universe
    assert graph.node_count == 3
    assert index == {"a": 0, "b": 1, "c": 2}
    assert graph.degrees.tolist() == [1, 1, 0]


def test_build_without_universe_sorts_endpoint_ids():
    graph, index = build_graph([(5, 2), (9, 2)])
    assert list(index) == [2, 5, 9]
    assert graph.has_edge(0, 1) and graph.has_edge(0, 2)


def test_explicit_universe_preserves_order_and_isolates():
    graph, index = build_graph([("x", "y")], node_ids=["z", "y", "x"])
    assert index == {"z": 0, "y": 1, "x": 2}
    assert graph.node_count == 3
    assert graph.degrees.tolist() == [0, 1, 1]


def test_explicit_universe_rejects_unknown_and_duplicate_ids():
    with pytest.raises(ValueError, match="unknown node id"):
        build_graph([("a", "q")], node_ids=["a", "b"])
    with pytest.raises(ValueError, match="duplicate node id"):
        build_graph([], node_ids=["a", "a"])


def test_edge_arrays_are_lexicographic_and_read_only():
    graph, _ = build_graph([(3, 1), (0, 2), (0, 1)], node_ids=range(4))
    pairs = list(zip(graph.edge_u.tolist(), graph.edge_v.tolist()))
    assert pairs == sorted(pairs)
    assert all(u < v for u, v in pairs)
    with pytest.raises(ValueError):
        graph.edge_u[0] = 7
    with pytest.raises(ValueError):
        graph.neighbors[0] = 7


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60),
    nodes=st.lists(st.integers(0, 19), min_size=1, max_size=20),
)
def test_both_graph_builders_give_edges_in_increasing_lexicographic_order(pairs, nodes):
    graph, _ = build_graph(pairs, node_ids=range(20))
    sub, _ = induced_subgraph(graph, nodes)
    for built in (graph, sub):
        edges = list(zip(built.edge_u.tolist(), built.edge_v.tolist()))
        assert all(u < v for u, v in edges)
        assert edges == sorted(set(edges))


@settings(max_examples=100, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40),
    kind=st.sampled_from(["empty", "full", "random"]),
    bits=st.lists(st.booleans(), min_size=12, max_size=12),
)
def test_edges_within_matches_a_loop_over_the_edges(pairs, kind, bits):
    graph, _ = build_graph(pairs, node_ids=range(12))
    mask = np.array({"empty": [False] * 12, "full": [True] * 12, "random": bits}[kind])
    position = {node: k for k, node in enumerate(np.flatnonzero(mask).tolist())}
    expected = [
        (position[u], position[v])
        for u, v in zip(graph.edge_u.tolist(), graph.edge_v.tolist())
        if mask[u] and mask[v]
    ]
    u, v = graph_module._edges_within(graph, mask)
    assert list(zip(u.tolist(), v.tolist())) == expected
    assert expected == sorted(expected)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-(2**62), 2**62), max_size=300),
    st.integers(1, 3),
)
def test_sort_based_unique_equals_numpy_unique(values, width):
    # A small value range repeats keys; ``width`` > 1 checks that 2-D input is flattened.
    arr = np.array(values[: len(values) // width * width], dtype=np.int64).reshape(-1, width)
    for keys in (arr, arr % 7 - 3):
        got = graph_module._unique(keys)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.unique(keys))


def test_sort_based_unique_of_empty_and_negative_keys():
    assert graph_module._unique(np.array([], dtype=np.int64)).tolist() == []
    keys = np.array([3, -5, 3, 0, -5, -1], dtype=np.int64)
    assert graph_module._unique(keys).tolist() == [-5, -1, 0, 3]


def test_neighbor_lists_are_sorted():
    rng = np.random.default_rng(5)
    graph = random_graph(rng, 30, 0.2)
    for i in range(graph.node_count):
        nbrs = graph.adjacency(i).tolist()
        assert nbrs == sorted(nbrs)
        assert i not in nbrs


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 19), st.integers(0, 19)),
        max_size=60,
    ),
    st.randoms(use_true_random=False),
)
def test_degree_sum_is_twice_edges_and_order_invariant(pairs, rnd):
    graph, _ = build_graph(pairs, node_ids=range(20))
    assert int(graph.degrees.sum()) == 2 * graph.edge_count
    shuffled = list(pairs)
    rnd.shuffle(shuffled)
    again, _ = build_graph(shuffled, node_ids=range(20))
    assert graph.equals(again)


def test_component_labels_follow_discovery_order():
    graph, _ = build_graph([(2, 3), (0, 1), (5, 6), (6, 7)], node_ids=range(8))
    labels, count = component_labels(graph)
    assert count == 4
    assert labels.tolist() == [0, 0, 1, 1, 2, 3, 3, 3]


def test_component_labels_of_the_empty_graph():
    graph, _ = build_graph([], node_ids=[])
    labels, count = component_labels(graph)
    assert count == 0
    assert labels.dtype == np.int64
    assert labels.size == 0


def _assert_labels_equal_bfs(graph):
    labels, count = component_labels(graph)
    expected_labels, expected_count = component_labels_by_bfs(graph)
    assert count == expected_count
    assert labels.dtype == np.int64
    assert np.array_equal(labels, expected_labels)


@st.composite
def scattered_components(draw):
    """Graph of up to 40 nodes: random blocks, edges only inside blocks, nodes shuffled.

    Blocks without edges leave isolates, and the shuffle interleaves the
    components' node indices.
    """
    sizes = []
    for size in draw(st.lists(st.integers(1, 12), max_size=12)):
        if sum(sizes) + size > 40:
            break
        sizes.append(size)
    n = sum(sizes)
    nodes = draw(st.permutations(range(n)))
    edges = []
    start = 0
    for size in sizes:
        block = nodes[start : start + size]
        start += size
        pairs = [(a, b) for i, a in enumerate(block) for b in block[i + 1 :]]
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges += [pair for pair, kept in zip(pairs, keep) if kept]
    graph, _ = build_graph(edges, node_ids=range(n))
    return graph


def _assert_clustering_equals_oracles(graph):
    value = mean_local_clustering(graph)
    assert value == local_clustering_by_sparse_product(graph)
    assert value == local_clustering_by_loop(graph)


@settings(max_examples=150, deadline=None)
@given(scattered_components(), st.sampled_from([None, 1, 7]))
def test_numpy_kernels_equal_the_oracles(graph, budget):
    _assert_labels_equal_bfs(graph)
    if graph.node_count:
        with pytest.MonkeyPatch.context() as patch:
            # None keeps the module's budget; 1 and 7 walk the triangle
            # candidates in many slices.
            if budget is not None:
                patch.setattr(graph_module, "_CHUNK_ELEMENTS", budget)
            _assert_clustering_equals_oracles(graph)


def _star_with_linked_leaves(n, centre):
    """Star on ``n`` nodes around ``centre``, with every other pair of leaves linked.

    The leaf links close triangles at the hub.
    """
    leaves = [i for i in range(n) if i != centre]
    edges = [(centre, leaf) for leaf in leaves]
    return edges + list(zip(leaves[0:-1:2], leaves[1::2]))


def _clique_with_pendants(k):
    """A k-clique on the last indices, each clique node with a pendant on the first ones."""
    clique = [(k + i, k + j) for i in range(k) for j in range(i + 1, k)]
    return clique + [(i, k + i) for i in range(k)]


@pytest.mark.parametrize(
    "edges",
    [
        [(0, i) for i in range(1, 400)],
        [(i, 399) for i in range(399)],
        _star_with_linked_leaves(400, 0),
        _star_with_linked_leaves(400, 399),
        _clique_with_pendants(40),
    ],
    ids=["star_first", "star_last", "wheel_first", "wheel_last", "clique_pendants"],
)
def test_clustering_of_hubs_equals_the_oracles(edges):
    graph, _ = build_graph(edges)
    _assert_clustering_equals_oracles(graph)


@pytest.mark.parametrize("workload", ["survey", "small_villages"])
def test_clustering_of_benchmark_graphs_equals_the_oracles(workload, tmp_path, monkeypatch):
    for data in load_benchmark_villages(workload, tmp_path, monkeypatch):
        _assert_clustering_equals_oracles(data.graph)
        _assert_clustering_equals_oracles(largest_connected_component(data.graph)[0])


def _path_order(kind, n):
    """Node sequence of a path through ``0 .. n - 1``."""
    ascending = np.arange(n)
    if kind == "ascending":
        return ascending
    if kind == "descending":
        return ascending[::-1]
    if kind == "shuffled":
        return np.random.default_rng(n).permutation(n)
    # zig-zag: 0, n - 1, 1, n - 2, ...
    order = np.empty(n, dtype=np.int64)
    order[0::2] = ascending[: (n + 1) // 2]
    order[1::2] = ascending[::-1][: n // 2]
    return order


@pytest.mark.parametrize("n", [2, 3, 64, 1001, 5000])
@pytest.mark.parametrize("kind", ["ascending", "descending", "shuffled", "zigzag"])
def test_component_labels_of_long_paths_equal_graph_search(kind, n):
    order = _path_order(kind, n)
    one_path, _ = build_graph(zip(order[:-1].tolist(), order[1:].tolist()), node_ids=range(n))
    _assert_labels_equal_bfs(one_path)
    # the same path twice over interleaved indices, plus an isolated last node
    evens, odds = 2 * order, 2 * order + 1
    edges = list(zip(evens[:-1].tolist(), evens[1:].tolist()))
    edges += list(zip(odds[:-1].tolist(), odds[1:].tolist()))
    two_paths, _ = build_graph(edges, node_ids=range(2 * n + 1))
    _assert_labels_equal_bfs(two_paths)


@pytest.mark.parametrize("n", [2, 3, 5000])
def test_component_labels_of_a_star_centred_on_the_last_index(n):
    star, _ = build_graph([(i, n - 1) for i in range(n - 1)], node_ids=range(n))
    _assert_labels_equal_bfs(star)
    assert component_labels(star)[1] == 1


def test_lcc_ties_break_toward_smallest_node_index():
    graph, _ = build_graph([(2, 3), (0, 1)], node_ids=range(4))
    lcc, mapping = largest_connected_component(graph)
    assert lcc.node_count == 2
    assert set(mapping) == {0, 1}


def test_induced_subgraph_keeps_internal_edges_only():
    graph, _ = build_graph([(0, 1), (1, 2), (2, 3), (3, 0)], node_ids=range(4))
    sub, mapping = induced_subgraph(graph, [0, 1, 3])
    assert sub.node_count == 3
    assert sub.edge_count == 2
    assert mapping == {0: 0, 1: 1, 3: 2}
    assert sub.has_edge(mapping[0], mapping[1])
    assert sub.has_edge(mapping[0], mapping[3])


def test_subgraph_mapping_keys_ascend_so_list_gives_the_node_order():
    graph, _ = build_graph([(4, 1), (1, 3), (0, 2), (3, 4)], node_ids=range(5))
    sub, mapping = induced_subgraph(graph, [4, 1, 3, 0])
    assert list(mapping) == [0, 1, 3, 4]
    assert list(mapping.values()) == list(range(sub.node_count))
    lcc, mapping = largest_connected_component(graph)
    assert list(mapping) == [1, 3, 4]
    assert list(mapping.values()) == [0, 1, 2]


def test_clustering_matches_triangle_count_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        graph = random_graph(rng, int(rng.integers(2, 40)), float(rng.uniform(0.05, 0.5)))
        # Exact: both add the per-node terms left to right in node order.
        assert mean_local_clustering(graph) == local_clustering_by_loop(graph)


def test_clustering_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(23)
    for _ in range(10):
        graph = random_graph(rng, 25, 0.25)
        g = nx.Graph()
        g.add_nodes_from(range(graph.node_count))
        g.add_edges_from(zip(graph.edge_u.tolist(), graph.edge_v.tolist()))
        assert mean_local_clustering(graph) == pytest.approx(
            nx.average_clustering(g, count_zeros=True), abs=1e-12
        )


def test_clustering_analytic_cases():
    triangle, _ = build_graph([(0, 1), (1, 2), (0, 2)])
    assert mean_local_clustering(triangle) == 1.0
    path, _ = build_graph([(0, 1), (1, 2)])
    assert mean_local_clustering(path) == 0.0
    star, _ = build_graph([(0, i) for i in range(1, 5)])
    assert mean_local_clustering(star) == 0.0
    # 298 common neighbors per pair: more than a narrow integer type holds
    clique, _ = build_graph([(i, j) for i in range(300) for j in range(i + 1, 300)])
    assert mean_local_clustering(clique) == 1.0


def test_network_stats_on_known_graph():
    graph, _ = build_graph([(0, 1), (1, 2), (0, 2), (3, 4)], node_ids=range(6))
    lcc, _ = largest_connected_component(graph)
    stats = network_stats(graph, lcc)
    assert stats.n_nodes == 6
    assert stats.n_edges == 4
    assert stats.density == pytest.approx(2 * 4 / (6 * 5))
    assert stats.mean_degree == pytest.approx(8 / 6)
    assert stats.n_components == 3
    assert stats.lcc_node_fraction == pytest.approx(0.5)
    assert stats.lcc_edge_fraction == pytest.approx(0.75)


def test_network_stats_edgeless_graph():
    graph, _ = build_graph([], node_ids=range(4))
    lcc, _ = largest_connected_component(graph)
    stats = network_stats(graph, lcc)
    assert stats.n_edges == 0
    assert stats.density == 0.0
    assert stats.mean_clustering == 0.0
    assert stats.n_components == 4
    # no edges anywhere means the component trivially holds all of them
    assert stats.lcc_edge_fraction == 1.0


def test_components_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(29)
    for _ in range(10):
        graph = random_graph(rng, 40, 0.04)
        g = nx.Graph()
        g.add_nodes_from(range(graph.node_count))
        g.add_edges_from(zip(graph.edge_u.tolist(), graph.edge_v.tolist()))
        _, count = component_labels(graph)
        assert count == nx.number_connected_components(g)
        lcc, _ = largest_connected_component(graph)
        assert lcc.node_count == len(max(nx.connected_components(g), key=len))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segnet import (
    FeatureSpec,
    Partition,
    build_community_network,
    build_dyad_design,
    build_graph,
    component_labels,
    degree_missingness_ttest,
    induced_subgraph,
    largest_connected_component,
    mean_local_clustering,
    network_stats,
    nmi,
    segregation_report,
    sex_permutation_tests,
)
from segnet import graph as graph_module

from .conftest import load_benchmark_villages, random_graph
from .oracles import (
    component_labels_by_bfs,
    degrees_by_loop,
    local_clustering_by_loop,
    local_clustering_by_sparse_product,
)


def test_build_collapses_duplicates_reversals_and_self_loops():
    graph = build_graph(3, [(0, 1), (1, 0), (0, 1), (2, 2)])
    assert graph.edge_count == 1
    # the self loop is dropped but its node stays
    assert graph.node_count == 3
    assert graph.degrees.tolist() == [1, 1, 0]


def test_build_keeps_nodes_without_pairs_as_isolates():
    graph = build_graph(3, np.array([[2, 1]]))
    assert graph.node_count == 3
    assert graph.degrees.tolist() == [0, 1, 1]


@pytest.mark.parametrize(
    "pairs, fault",
    [
        ([(0, 1, 2), (3, 4, 5)], r"must be an \(m, 2\) array, not of shape \(2, 3\)"),
        ([0, 1, 2, 3], r"must be an \(m, 2\) array, not of shape \(4,\)"),
        ([(0, 1.7)], "must hold integer node indices, not float64"),
        (np.array([[True, False]]), "must hold integer node indices, not bool"),
        ([(0, 6)], r"holds a node index outside 0 \.\. 5"),
    ],
    ids=["three-columns", "flat", "float", "bool", "index-at-n"],
)
def test_build_refuses_pairs_that_are_not_an_integer_index_array(pairs, fault):
    with pytest.raises(ValueError, match=f"^pair array {fault}$"):
        build_graph(6, pairs)


@pytest.mark.parametrize(
    "nodes, fault",
    [
        ([0.5, 1.7], "node selection must hold integer node indices, not float64"),
        ([[0, 1], [2, 3]], r"node selection must be one-dimensional, not of shape \(2, 2\)"),
        ([0, 4], r"node selection holds a node index outside 0 \.\. 3"),
        ([-1, 2], r"node selection holds a node index outside 0 \.\. 3"),
        ([], "empty node selection"),
    ],
    ids=["float", "two-dimensional", "index-at-n", "negative", "empty"],
)
def test_induced_subgraph_refuses_a_selection_that_is_not_node_indices(nodes, fault):
    graph = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match=f"^{fault}$"):
        induced_subgraph(graph, nodes)


# Every function that takes node labels, called on a 4-node path with the
# labels under test, and the input its error names.
LABEL_TAKERS = {
    "nmi": (lambda g, x: nmi([0, 0, 1, 1], x), "labels_b"),
    "Partition.from_assignment": (Partition.from_assignment, "assignment"),
    "segregation_report": (
        lambda g, x: segregation_report(g, x, Partition.from_assignment(g, [1, 1, 2, 2])),
        "labels",
    ),
    "build_community_network": (
        lambda g, x: build_community_network(g, Partition.from_assignment(g, [1, 1, 2, 2]), x),
        "labels",
    ),
    "build_dyad_design": (
        lambda g, x: build_dyad_design(g, {"caste": x}, FeatureSpec({"caste": "match"})),
        "caste labels",
    ),
    "sex_permutation_tests": (lambda g, x: sex_permutation_tests(g, x, (0.1,)), "sex"),
    "degree_missingness_ttest": (degree_missingness_ttest, "labels"),
}


@pytest.mark.parametrize("taker", sorted(LABEL_TAKERS))
@pytest.mark.parametrize(
    "labels, fault",
    [
        ([0.9, 0.2, 1.7, 1.1], "must hold integer labels"),
        (np.array([True, False, True, False]), "must hold integer labels"),
        ([[0, 1], [1, 0]], r"must be of shape \(4,\), not \(2, 2\)"),
        ([0, 1, 1], r"must be of shape \(4,\), not \(3,\)"),
    ],
    ids=["float", "bool", "two-dimensional", "wrong-length"],
)
def test_every_label_taker_refuses_malformed_labels(taker, labels, fault):
    call, what = LABEL_TAKERS[taker]
    graph = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match=f"^{what} {fault}"):
        call(graph, labels)


def test_sex_permutation_refuses_a_code_above_female():
    graph = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match=r"^sex codes must be 0 \(male\), 1 \(female\)"):
        sex_permutation_tests(graph, np.array([0, 1, 2, 1]), (0.1,))


def test_edge_arrays_are_lexicographic_and_read_only():
    graph = build_graph(4, [(3, 1), (0, 2), (0, 1)])
    pairs = list(zip(graph.edge_u.tolist(), graph.edge_v.tolist()))
    assert pairs == sorted(pairs)
    assert all(u < v for u, v in pairs)
    with pytest.raises(ValueError):
        graph.edge_u[0] = 7
    with pytest.raises(ValueError):
        graph.edge_v[0] = 7


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60),
    nodes=st.lists(st.integers(0, 19), min_size=1, max_size=20),
)
def test_both_graph_builders_give_edges_in_increasing_lexicographic_order(pairs, nodes):
    graph = build_graph(20, pairs)
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
    graph = build_graph(12, pairs)
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


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 19), st.integers(0, 19)),
        max_size=60,
    ),
    st.randoms(use_true_random=False),
)
def test_degree_sum_is_twice_edges_and_order_invariant(pairs, rnd):
    graph = build_graph(20, pairs)
    assert graph.degrees.dtype == np.int64
    assert graph.degrees.tolist() == degrees_by_loop(graph)
    assert int(graph.degrees.sum()) == 2 * graph.edge_count
    shuffled = list(pairs)
    rnd.shuffle(shuffled)
    again = build_graph(20, shuffled)
    assert graph.equals(again)


def test_component_labels_follow_discovery_order():
    graph = build_graph(8, [(2, 3), (0, 1), (5, 6), (6, 7)])
    labels, count = component_labels(graph)
    assert count == 4
    assert labels.tolist() == [0, 0, 1, 1, 2, 3, 3, 3]


def test_component_labels_of_the_empty_graph():
    graph = build_graph(0, [])
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
    graph = build_graph(n, edges)
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
    graph = build_graph(int(np.max(edges)) + 1, edges)
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
    one_path = build_graph(n, np.column_stack([order[:-1], order[1:]]))
    _assert_labels_equal_bfs(one_path)
    # the same path twice over interleaved indices, plus an isolated last node
    evens, odds = 2 * order, 2 * order + 1
    edges = list(zip(evens[:-1].tolist(), evens[1:].tolist()))
    edges += list(zip(odds[:-1].tolist(), odds[1:].tolist()))
    two_paths = build_graph(2 * n + 1, edges)
    _assert_labels_equal_bfs(two_paths)


@pytest.mark.parametrize("n", [2, 3, 5000])
def test_component_labels_of_a_star_centred_on_the_last_index(n):
    star = build_graph(n, [(i, n - 1) for i in range(n - 1)])
    _assert_labels_equal_bfs(star)
    assert component_labels(star)[1] == 1


def test_lcc_ties_break_toward_smallest_node_index():
    graph = build_graph(4, [(2, 3), (0, 1)])
    lcc, nodes = largest_connected_component(graph)
    assert lcc.node_count == 2
    assert nodes.tolist() == [0, 1]


def test_induced_subgraph_keeps_internal_edges_only():
    graph = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    sub, nodes = induced_subgraph(graph, [0, 1, 3])
    assert sub.node_count == 3
    assert sub.edge_count == 2
    assert nodes.tolist() == [0, 1, 3]
    assert list(zip(sub.edge_u.tolist(), sub.edge_v.tolist())) == [(0, 1), (0, 2)]


def test_subgraph_nodes_are_sorted_distinct_read_only_and_map_new_indices_to_old():
    graph = build_graph(5, [(4, 1), (1, 3), (0, 2), (3, 4)])
    sub, nodes = induced_subgraph(graph, [4, 1, 3, 4, 0, 1])
    assert nodes.dtype == np.int64
    assert nodes.tolist() == [0, 1, 3, 4]
    with pytest.raises(ValueError):
        nodes[0] = 2
    edges = zip(sub.edge_u.tolist(), sub.edge_v.tolist())
    assert sorted((int(nodes[u]), int(nodes[v])) for u, v in edges) == [(1, 3), (1, 4), (3, 4)]
    lcc, nodes = largest_connected_component(graph)
    assert nodes.tolist() == [1, 3, 4]
    assert lcc.edge_count == 3


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
    triangle = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert mean_local_clustering(triangle) == 1.0
    path = build_graph(3, [(0, 1), (1, 2)])
    assert mean_local_clustering(path) == 0.0
    star = build_graph(5, [(0, i) for i in range(1, 5)])
    assert mean_local_clustering(star) == 0.0
    # 298 common neighbors per pair: more than a narrow integer type holds
    clique = build_graph(300, [(i, j) for i in range(300) for j in range(i + 1, 300)])
    assert mean_local_clustering(clique) == 1.0


def test_network_stats_on_known_graph():
    graph = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
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
    graph = build_graph(4, [])
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

import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from segnet import (
    Partition,
    build_community_network,
    build_graph,
    community_network_to_dot,
    louvain,
    modularity_of_partition,
    segregation_report,
)

from .conftest import random_graph
from .oracles import (
    community_network_by_dicts,
    naive_attribute_modularity,
    naive_within_between,
    segregation_report_by_subgraph,
)


def test_uniform_labels_give_exactly_zero():
    graph = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    partition = Partition.from_assignment(graph, [1, 1, 2, 2])
    assert segregation_report(graph, np.zeros(4, dtype=int), partition).q_attr == 0.0


def test_bridged_triangles_analytic_values(bridged_triangles):
    graph, labels, partition = bridged_triangles
    report = segregation_report(graph, labels, partition)
    assert report.q_attr == pytest.approx(5 / 14, abs=1e-12)
    assert report.q_within == pytest.approx(0.5, abs=1e-12)
    assert report.q_within_max == pytest.approx(0.5, abs=1e-12)
    assert report.q_within_norm == 1.0  # perfectly sorted within communities
    assert report.q_between == 0.0
    assert report.q_between_max == 1.0
    assert report.q_between_norm == 0.0
    assert report.n_used == 6


def test_complete_bipartite_is_maximally_dissortative(complete_bipartite_33):
    graph, labels = complete_bipartite_33
    partition = Partition.from_assignment(graph, [1, 1, 1, 1, 2, 2])
    report = segregation_report(graph, labels, partition)
    assert report.q_attr == pytest.approx(-0.5, abs=1e-12)


def test_clique_ring_between_values(clique_ring):
    # 6 between-community edges, 2 of them label-pure: worked out by hand,
    # q_b = (4 - 3) / 12 and the degree null leaves q_max at 3/4.
    graph, labels, partition = clique_ring
    report = segregation_report(graph, labels, partition)
    assert report.q_between == pytest.approx(1 / 12, abs=1e-12)
    assert report.q_between_max == pytest.approx(3 / 4, abs=1e-12)
    assert report.q_between_norm == pytest.approx(1 / 9, abs=1e-12)


def test_fixture_values_agree_with_oracle(bridged_triangles, clique_ring):
    for graph, labels, partition in (bridged_triangles, clique_ring):
        slow = naive_within_between(graph, labels, partition.assignment)
        report = segregation_report(graph, labels, partition)
        assert report.q_within == pytest.approx(slow["q_within"], abs=1e-12)
        assert report.q_within_max == pytest.approx(slow["q_within_max"], abs=1e-12)
        assert report.q_between == pytest.approx(slow["q_between"], abs=1e-12)
        assert report.q_between_norm == pytest.approx(slow["q_between_norm"], abs=1e-12)


def test_random_graphs_match_double_loop_oracle():
    rng = np.random.default_rng(47)
    compared = 0
    while compared < 25:
        graph = random_graph(rng, int(rng.integers(6, 30)), float(rng.uniform(0.1, 0.4)))
        if graph.edge_count < 2:
            continue
        labels = rng.integers(-1, 3, size=graph.node_count)
        if (labels >= 0).sum() < 3:
            continue
        partition = louvain(graph, seed=compared)
        try:
            report = segregation_report(graph, labels, partition)
        except ValueError:
            continue
        assert report.q_attr == pytest.approx(naive_attribute_modularity(graph, labels), abs=1e-12)
        slow = naive_within_between(graph, labels, partition.assignment)
        assert report.q_within == pytest.approx(slow["q_within"], abs=1e-12)
        assert report.q_within_norm == pytest.approx(slow["q_within_norm"], abs=1e-12)
        assert report.q_between == pytest.approx(slow["q_between"], abs=1e-12)
        assert report.q_between_norm == pytest.approx(slow["q_between_norm"], abs=1e-12)
        compared += 1


def test_restriction_recomputes_degrees_on_labeled_subgraph():
    # node 4 is unlabeled; with it removed, the square loses a corner and the
    # remaining path has different degrees than the full graph
    graph = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 2)])
    labels = np.array([0, 0, 1, 1, -1])
    communities = [1, 1, 2, 2, 1]
    on_sub = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    report = segregation_report(graph, labels, Partition.from_assignment(graph, communities))
    on_sub_report = segregation_report(
        on_sub, labels[:4], Partition.from_assignment(on_sub, communities[:4])
    )
    for field, value in asdict(on_sub_report).items():
        assert getattr(report, field) == pytest.approx(value, abs=1e-12), field


def test_error_paths():
    graph = build_graph(3, [(0, 1), (1, 2)])
    split = Partition.from_assignment(graph, np.array([1, 1, 2]))
    with pytest.raises(ValueError, match="no node carries"):
        segregation_report(graph, np.array([-1, -1, -1]), split)
    with pytest.raises(ValueError, match="no edges join labeled"):
        segregation_report(graph, np.array([0, -1, 1]), split)
    singletons = Partition.from_assignment(graph, np.array([1, 2, 3]))
    with pytest.raises(ValueError, match="no within-community edges"):
        segregation_report(graph, np.array([0, 0, 1]), singletons)
    together = Partition.from_assignment(graph, np.array([1, 1, 1]))
    with pytest.raises(ValueError, match="no between-community edges"):
        segregation_report(graph, np.array([0, 0, 1]), together)
    short = Partition.from_assignment(graph, np.array([1, 1, 1]))
    other = build_graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="does not cover"):
        segregation_report(other, np.array([0, 1]), short)


@st.composite
def partitioned_graphs(draw):
    """(n, edges, labels with -1 for missing, community ids) of a small graph."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=30))
    labels = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    communities = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return n, edges, labels, communities


@settings(max_examples=300, deadline=None)
@given(case=partitioned_graphs())
@example(case=(3, [], [0, 1, 0], [1, 1, 2]))  # no edges
@example(case=(3, [(0, 1), (1, 2)], [-1, -1, -1], [1, 1, 2]))  # no labeled node
@example(case=(3, [(0, 1), (1, 2)], [0, -1, 1], [1, 1, 2]))  # no edge between labeled nodes
@example(case=(3, [(0, 1), (1, 2)], [0, 0, 1], [1, 2, 3]))  # no within-community edge
@example(case=(3, [(0, 1), (1, 2)], [0, 0, 1], [1, 1, 1]))  # no between-community edge
def test_report_equals_the_induced_subgraph_oracle(case):
    n, edges, labels, communities = case
    graph = build_graph(n, edges)
    partition = Partition.from_assignment(graph, communities)
    try:
        expected = segregation_report_by_subgraph(graph, labels, partition)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            segregation_report(graph, labels, partition)
        assert str(info.value) == str(exc)
        return
    report = asdict(segregation_report(graph, labels, partition))
    assert report == expected


@settings(max_examples=200, deadline=None)
@given(case=partitioned_graphs())
def test_attribute_modularity_of_the_partition_is_its_modularity(case):
    """With every node labelled by its community, both scores are one formula
    over the same edges and groups, so they agree to the last bit."""
    n, edges, _, communities = case
    graph = build_graph(n, edges)
    partition = Partition.from_assignment(graph, communities)
    # The report needs an edge within a community and one across.
    assume(0 < partition.m_within < graph.edge_count)
    report = segregation_report(graph, partition.assignment - 1, partition)
    assert report.q_attr == modularity_of_partition(graph, partition)


@settings(max_examples=300, deadline=None)
@given(
    case=partitioned_graphs(),
    node_min=st.floats(0.0, 1.0),
    edge_min=st.floats(0.0, 1.0),
    category_names=st.none() | st.lists(st.sampled_from(["a", "b", "2"]), max_size=4).map(tuple),
)
def test_community_network_equals_the_dict_oracle(case, node_min, edge_min, category_names):
    n, edges, labels, communities = case
    graph = build_graph(n, edges)
    partition = Partition.from_assignment(graph, communities)
    args = (graph, partition, labels, node_min, edge_min, category_names)
    try:
        oracle = community_network_by_dicts(*args)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            build_community_network(*args)
        assert str(info.value) == str(exc)
        return
    fast = build_community_network(*args)
    assert asdict(fast) == asdict(oracle)
    # the record is written as JSON: key order and value types count too
    assert repr(asdict(fast)) == repr(asdict(oracle))


class TestCommunityNetwork:
    @staticmethod
    def example():
        """Two 5-cliques and a 2-node appendage; 3 cross edges between cliques."""
        edges = []
        for base in (0, 5):
            edges += [(base + i, base + j) for i in range(5) for j in range(i + 1, 5)]
        edges += [(0, 5), (1, 6), (2, 7)]  # clique-to-clique ties
        edges += [(10, 11), (9, 10)]  # small appendage off the second clique
        graph = build_graph(12, edges)
        assignment = np.array([1] * 5 + [2] * 5 + [3, 3])
        partition = Partition.from_assignment(graph, assignment)
        labels = np.array([3, 3, 3, 3, 2, 0, 0, 0, 0, -1, 3, 3])
        return graph, partition, labels

    def test_retention_and_composition(self):
        graph, partition, labels = self.example()
        net = build_community_network(
            graph,
            partition,
            labels,
            node_min_fraction=0.25,
            edge_min_fraction=0.1,
            category_names=("scheduled caste", "scheduled tribe", "obc", "general"),
        )
        # the 2-node appendage falls below 0.25 * 12 = 3 nodes
        assert [node.community for node in net.nodes] == [1, 2]
        first = net.nodes[0]
        assert first.size == 5
        assert first.composition == {"general": 0.8, "obc": 0.2}
        assert first.missing_fraction == 0.0
        second = net.nodes[1]
        assert second.composition == {"scheduled caste": 1.0}
        assert second.missing_fraction == pytest.approx(0.2)
        # 3 cross ties >= 0.1 * 5 * 5
        assert len(net.ties) == 1
        assert (net.ties[0].community_a, net.ties[0].community_b) == (1, 2)
        assert net.ties[0].tie_count == 3
        assert net.node_fraction_retained == pytest.approx(10 / 12)
        assert net.tie_fraction_retained == pytest.approx(3 / graph.edge_count)

    def test_tie_threshold_prunes_sparse_links(self):
        graph, partition, labels = self.example()
        net = build_community_network(
            graph, partition, labels, node_min_fraction=0.25, edge_min_fraction=0.2
        )
        assert net.ties == ()  # 3 < 0.2 * 25

    def test_inclusive_node_threshold(self):
        graph, partition, labels = self.example()
        # exactly at the boundary: 2 nodes == 2/12 of 12
        net = build_community_network(
            graph, partition, labels, node_min_fraction=2 / 12, edge_min_fraction=0.9
        )
        assert [node.community for node in net.nodes] == [1, 2, 3]

    def test_error_when_nothing_passes(self):
        graph, partition, labels = self.example()
        with pytest.raises(ValueError, match="no community"):
            build_community_network(
                graph, partition, labels, node_min_fraction=0.9, edge_min_fraction=0.05
            )

    def test_json_and_dot_exports(self):
        graph, partition, labels = self.example()
        net = build_community_network(
            graph,
            partition,
            labels,
            node_min_fraction=0.25,
            edge_min_fraction=0.1,
            category_names=("scheduled caste", "scheduled tribe", "obc", "general"),
        )
        payload = asdict(net)
        loaded = json.loads(json.dumps(payload))  # must be serializable as-is
        assert loaded["nodes"][0]["size"] == 5
        assert loaded["node_fraction_retained"] == net.node_fraction_retained
        dot = community_network_to_dot(payload)
        assert community_network_to_dot(loaded) == dot
        assert dot.startswith("graph")
        assert "c1 -- c2" in dot
        assert "general 80%" in dot

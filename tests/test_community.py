import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from segnet import (
    Partition,
    build_graph,
    largest_connected_component,
    louvain,
    modularity_of_partition,
    nmi,
)
from segnet import community as community_module
from segnet.community import _local_moving, _modularity

from .conftest import load_benchmark_villages, random_graph
from .oracles import (
    _local_moving_by_dicts,
    entropy_of,
    louvain_by_level_dicts,
    naive_partition_modularity,
    nmi_by_counts,
    pairwise_complete,
)


def two_cliques_graph(k=5):
    edges = []
    for base in (0, k):
        edges += [(base + i, base + j) for i in range(k) for j in range(i + 1, k)]
    edges.append((k - 1, k))  # single bridge
    graph = build_graph(2 * k, edges)
    return graph


class TestPartition:
    def test_labels_are_contiguous_from_one_by_first_appearance(self):
        graph = build_graph(4, [(0, 1), (2, 3)])
        part = Partition.from_assignment(graph, np.array([7, 7, 3, 3]))
        assert part.assignment.tolist() == [1, 1, 2, 2]
        assert part.n_communities == 2
        assert part.sizes.tolist() == [2, 2]

    def test_edge_and_degree_bookkeeping(self):
        graph = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
        part = Partition.from_assignment(graph, np.array([1, 1, 1, 2, 2]))
        assert part.m_within == 4
        assert part.m_between == 1
        assert part.m_within + part.m_between == graph.edge_count

    def test_rejects_misaligned_assignment(self):
        graph = build_graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            Partition.from_assignment(graph, np.array([1, 1, 2]))


def test_single_community_modularity_is_exactly_zero():
    graph = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    part = Partition.from_assignment(graph, np.array([1, 1, 1]))
    assert modularity_of_partition(graph, part) == 0.0


def test_modularity_matches_double_loop_oracle():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 30:
        graph = random_graph(rng, int(rng.integers(3, 25)), float(rng.uniform(0.1, 0.6)))
        if graph.edge_count == 0:
            continue
        assignment = rng.integers(1, 4, size=graph.node_count)
        part = Partition.from_assignment(graph, assignment)
        fast = modularity_of_partition(graph, part)
        slow = naive_partition_modularity(graph, part.assignment)
        assert fast == pytest.approx(slow, abs=1e-12)
        checked += 1


class TestLouvain:
    def test_separates_two_bridged_cliques(self):
        graph = two_cliques_graph(5)
        part = louvain(graph, seed=0)
        assert part.n_communities == 2
        assert len(set(part.assignment[:5].tolist())) == 1
        assert len(set(part.assignment[5:].tolist())) == 1

    def test_merges_a_single_clique(self):
        graph = build_graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
        part = louvain(graph, seed=4)
        assert part.n_communities == 1
        assert part.modularity == 0.0

    def test_same_seed_reproduces_partition_exactly(self):
        rng = np.random.default_rng(8)
        graph = random_graph(rng, 60, 0.1)
        first = louvain(graph, seed=123)
        second = louvain(graph, seed=123)
        assert (first.assignment == second.assignment).all()
        assert first.level_modularities == second.level_modularities

    def test_level_modularities_never_decrease(self):
        rng = np.random.default_rng(13)
        for trial in range(8):
            graph = random_graph(rng, 50, 0.08)
            if graph.edge_count == 0:
                continue
            part = louvain(graph, seed=trial)
            levels = part.level_modularities
            assert all(b >= a - 1e-12 for a, b in zip(levels, levels[1:]))

    def test_reported_modularity_matches_direct_evaluation(self):
        rng = np.random.default_rng(19)
        for trial in range(8):
            graph = random_graph(rng, 40, 0.12)
            if graph.edge_count == 0:
                continue
            part = louvain(graph, seed=trial)
            assert part.modularity == pytest.approx(
                modularity_of_partition(graph, part), abs=1e-12
            )
            assert part.modularity == pytest.approx(
                naive_partition_modularity(graph, part.assignment), abs=1e-12
            )

    def test_rejects_empty_graph(self):
        graph = build_graph(3, [])
        with pytest.raises(ValueError):
            louvain(graph, seed=0)


def assert_same_as_level_dict_louvain(graph, seed):
    fast = louvain(graph, seed)
    slow = louvain_by_level_dicts(graph, seed)
    assert np.array_equal(fast.assignment, slow.assignment)
    assert len(fast.level_modularities) == len(slow.level_modularities)
    for q_fast, q_slow in zip(fast.level_modularities, slow.level_modularities):
        assert q_fast == pytest.approx(q_slow, abs=1e-12)
    assert fast.modularity == fast.level_modularities[-1]
    # Scored by the package's formula, every level is the dict port's exactly.
    exact = louvain_by_level_dicts(
        graph, seed, score=lambda a: _modularity(graph.edge_u, graph.edge_v, a)
    )
    assert fast.assignment.tolist() == exact.assignment.tolist()
    assert fast.level_modularities == exact.level_modularities


@st.composite
def graphs_with_isolates_and_components(draw):
    """0-60 nodes: random ties only within index classes mod ``blocks``, plus isolates."""
    n = draw(st.integers(0, 60))
    blocks = draw(st.integers(1, 5))
    isolates = draw(st.integers(0, min(n, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    iu, ju = np.triu_indices(n - isolates, k=1)
    hit = (iu % blocks == ju % blocks) & (rng.random(iu.size) < draw(st.floats(0.0, 0.6)))
    edges = list(zip(iu[hit].tolist(), ju[hit].tolist()))
    return build_graph(n, edges)


@st.composite
def weighted_levels(draw):
    """An aggregated level: 1-30 nodes, edge weights 1-4 and self-loop weights 0-29."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    iu, ju = np.triu_indices(n, k=1)
    hit = rng.random(iu.size) < draw(st.floats(0.05, 0.6))
    weights = rng.integers(1, 5, iu.size).astype(float)
    has_loop = rng.random(n) < draw(st.floats(0.0, 1.0))
    loops = (rng.integers(0, 30, n) * has_loop).astype(float).tolist()
    adj = [[] for _ in range(n)]
    for a, b, w in zip(iu[hit].tolist(), ju[hit].tolist(), weights[hit].tolist()):
        adj[a].append((b, w))
        adj[b].append((a, w))
    return adj, loops


# A level on which a settled node sits in a community without any of its
# neighbours, so only its own membership unsettles it when that community's
# total grows (seed 3, every later sweep tracked).
_MEMBER_READS_ITS_TOTAL = (
    [
        [(1, 1.0), (7, 1.0), (9, 1.0)], [(0, 1.0), (3, 1.0), (10, 1.0)],
        [(6, 1.0), (8, 1.0), (9, 1.0)], [(1, 1.0), (6, 1.0), (8, 1.0)], [],
        [(6, 1.0), (9, 1.0), (10, 1.0)], [(2, 1.0), (3, 1.0), (5, 1.0), (9, 1.0)],
        [(0, 1.0), (10, 1.0)], [(2, 1.0), (3, 1.0), (9, 1.0)],
        [(0, 1.0), (2, 1.0), (5, 1.0), (6, 1.0), (8, 1.0)], [(1, 1.0), (5, 1.0), (7, 1.0)],
    ],
    [0.0, 5.0, 8.0, 7.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0],
)


class TestLouvainMatchesLevelDicts:
    @settings(max_examples=150, deadline=None)
    @given(
        graphs_with_isolates_and_components(),
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
    )
    def test_random_graphs(self, graph, seeds):
        for seed in seeds:
            if graph.edge_count == 0:
                for run in (louvain, louvain_by_level_dicts):
                    with pytest.raises(ValueError):
                        run(graph, seed)
            else:
                assert_same_as_level_dict_louvain(graph, seed)

    @settings(max_examples=150, deadline=None)
    @given(
        graphs_with_isolates_and_components(),
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
    )
    def test_random_graphs_with_every_later_sweep_tracked(self, graph, seeds):
        # Every sweep moves fewer than 2n nodes, so each sweep after a level's
        # first skips settled nodes.
        if graph.edge_count == 0:
            return
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(community_module, "_TRACK_MOVED_FRACTION", 2.0)
            for seed in seeds:
                assert_same_as_level_dict_louvain(graph, seed)

    @settings(max_examples=300, deadline=None)
    @given(weighted_levels(), st.integers(0, 2**32 - 1), st.sampled_from([0.1, 2.0]))
    @example(level=_MEMBER_READS_ITS_TOTAL, seed=3, fraction=2.0)
    def test_local_moving_on_weighted_levels_with_loops(self, level, seed, fraction):
        adj, loops = level
        m = sum(w for nbrs in adj for _, w in nbrs) / 2 + sum(loops)
        if m == 0:
            return
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(community_module, "_TRACK_MOVED_FRACTION", fraction)
            com = _local_moving(adj, loops, m, np.random.default_rng(seed))
        dicts = [dict(nbrs) for nbrs in adj]
        assert com == _local_moving_by_dicts(dicts, loops, m, np.random.default_rng(seed))

    @pytest.mark.parametrize("workload", ["survey", "small_villages"])
    def test_benchmark_corpus_lccs(self, workload, tmp_path, monkeypatch):
        for data in load_benchmark_villages(workload, tmp_path, monkeypatch):
            lcc, _ = largest_connected_component(data.graph)
            for seed in (1, 2, 3):
                assert_same_as_level_dict_louvain(lcc, seed)


class TestNmi:
    def test_identical_labelings_score_exactly_one(self):
        labels = np.array([0, 0, 1, 1, 2, 2, 2])
        result = nmi(labels, labels + 5)
        assert result.value == 1.0

    def test_independent_balanced_labelings_score_exactly_zero(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([0, 1, 0, 1])
        result = nmi(a, b)
        assert result.value == 0.0
        assert result.mutual_information == 0.0

    def test_negative_codes_are_excluded_pairwise(self):
        a = np.array([0, 0, 1, 1, -1, 0])
        b = np.array([2, 2, 3, 3, 3, -1])
        result = nmi(a, b)
        assert result.n_used == 4
        assert result.value == 1.0

    def test_entropies_match_direct_computation(self):
        rng = np.random.default_rng(31)
        a = rng.integers(0, 4, size=200)
        b = rng.integers(0, 3, size=200)
        result = nmi(a, b)
        assert result.entropy_attr == pytest.approx(entropy_of(a), abs=1e-12)
        assert result.entropy_comm == pytest.approx(entropy_of(b), abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(-1, 4), min_size=2, max_size=60),
        st.integers(0, 2**31),
    )
    def test_symmetry_and_range(self, codes_a, seed):
        a = np.array(codes_a)
        b = np.random.default_rng(seed).integers(-1, 4, size=a.size)
        kept_a, kept_b = pairwise_complete(a, b)
        if kept_a.size == 0:
            with pytest.raises(ValueError):
                nmi(a, b)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # constant-both draws are fine here
            forward = nmi(a, b)
            backward = nmi(b, a)
        assert forward.value == pytest.approx(backward.value, abs=1e-12)
        assert -1e-12 <= forward.value <= 1.0 + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-1, 5), st.integers(-1, 2)), min_size=2, max_size=80)
    )
    @example([(0, 0), (1, 0), (2, 1), (3, 1), (-1, 0), (4, -1)])
    def test_matches_the_contingency_table_oracle(self, pairs):
        a, b = (np.array(codes) for codes in zip(*pairs))
        value, mutual_information, entropy_a, entropy_b, n_used = nmi_by_counts(a, b)
        # Unequal entropies tell max-entropy normalization from other means.
        assume(n_used > 0 and abs(entropy_a - entropy_b) > 1e-6)
        result = nmi(a, b)
        assert result.n_used == n_used
        assert result.entropy_attr == pytest.approx(entropy_a, abs=1e-12)
        assert result.entropy_comm == pytest.approx(entropy_b, abs=1e-12)
        assert result.mutual_information == pytest.approx(mutual_information, abs=1e-12)
        assert result.value == pytest.approx(value, abs=1e-12)

    def test_matches_sklearn_on_random_pairs(self):
        sk = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(37)
        for _ in range(25):
            n = int(rng.integers(5, 120))
            a = rng.integers(0, 5, size=n)
            b = rng.integers(0, 4, size=n)
            ours = nmi(a, b).value
            theirs = sk.normalized_mutual_info_score(a, b, average_method="max")
            assert ours == pytest.approx(theirs, abs=1e-10)

    def test_constant_both_is_degenerate_and_warns(self):
        a = np.zeros(5, dtype=int)
        with pytest.warns(UserWarning, match="both labelings are constant"):
            result = nmi(a, a)
        assert result.value == 0.0
        assert result.degenerate

    def test_one_constant_labeling_scores_zero_without_degeneracy(self):
        a = np.zeros(6, dtype=int)
        b = np.array([0, 1, 2, 0, 1, 2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = nmi(a, b)
        assert result.value == 0.0
        assert not result.degenerate

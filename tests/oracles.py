"""Independent reference implementations used only by the test suite.

Everything here trades speed for obviousness: plain double loops over node
pairs, exhaustive enumeration of permutations, and closed forms on
sufficient statistics.  Production code must agree with these within tight
tolerances.  None of this code shares logic with the package, apart from the
level score that a caller of ``louvain_by_level_dicts`` may pass in.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy import sparse, stats

from segnet import AttributeTable, IngestConfig, IngestError, Partition, VillageDataset
from segnet.attributes import ATTRIBUTE_NAMES, CATEGORICAL_ATTRIBUTES
from segnet.community import _LEVEL_GAIN_THRESHOLD, _MOVE_GAIN_EPS
from segnet.graph import UndirectedGraph
from segnet.segregation import CommunityNetwork, CommunityNode, CommunityTie


def _restrict(graph, labels):
    """Plain-data induced subgraph on nodes with non-negative labels."""
    labels = np.asarray(labels)
    keep = [i for i in range(graph.node_count) if labels[i] >= 0]
    pos = {v: i for i, v in enumerate(keep)}
    edges = []
    for u, v in zip(graph.edge_u.tolist(), graph.edge_v.tolist()):
        if u in pos and v in pos:
            edges.append((pos[u], pos[v]))
    return len(keep), edges, [int(labels[v]) for v in keep], keep


def _dense(n, edges):
    A = [[0] * n for _ in range(n)]
    deg = [0] * n
    for u, v in edges:
        A[u][v] += 1
        A[v][u] += 1
        deg[u] += 1
        deg[v] += 1
    return A, deg


def naive_partition_modularity(graph, assignment):
    """Structural modularity by the all-ordered-pairs double loop."""
    n = graph.node_count
    A, deg = _dense(n, list(zip(graph.edge_u.tolist(), graph.edge_v.tolist())))
    m = graph.edge_count
    if m == 0:
        raise ValueError("graph has no edges")
    com = np.asarray(assignment)
    q = 0.0
    for i in range(n):
        for j in range(n):
            if com[i] == com[j]:
                q += A[i][j] - deg[i] * deg[j] / (2.0 * m)
    return q / (2.0 * m)


def naive_attribute_modularity(graph, labels):
    """Attribute modularity on the labeled-node subgraph, by double loop."""
    n, edges, lab, _ = _restrict(graph, labels)
    m = len(edges)
    if m == 0:
        raise ValueError("no edges join labeled nodes")
    A, deg = _dense(n, edges)
    q = 0.0
    for i in range(n):
        for j in range(n):
            if lab[i] == lab[j]:
                q += A[i][j] - deg[i] * deg[j] / (2.0 * m)
    return q / (2.0 * m)


def naive_within_between(graph, labels, assignment):
    """Within- and between-community attribute assortativity by double loop.

    Returns a dict with q_within, q_within_max, q_within_norm and the three
    between counterparts, mirroring the production restriction rule but with
    none of its vectorized bookkeeping.
    """
    full_assignment = np.asarray(assignment)
    n, edges, lab, keep = _restrict(graph, labels)
    com = [int(full_assignment[v]) for v in keep]
    A, _ = _dense(n, edges)
    wdeg = [0] * n
    bdeg = [0] * n
    m_w = 0
    for u, v in edges:
        if com[u] == com[v]:
            m_w += 1
            wdeg[u] += 1
            wdeg[v] += 1
        else:
            bdeg[u] += 1
            bdeg[v] += 1
    m_b = len(edges) - m_w

    out = {}
    if m_w:
        edge_acc = 0.0
        null_acc = 0.0
        for i in range(n):
            for j in range(n):
                if com[i] == com[j] and lab[i] == lab[j]:
                    edge_acc += A[i][j]
                    null_acc += wdeg[i] * wdeg[j]
        two_m = 2.0 * m_w
        q = (edge_acc - null_acc / two_m) / two_m
        q_max = (two_m - null_acc / two_m) / two_m
        out["q_within"] = q
        out["q_within_max"] = q_max
        out["q_within_norm"] = q / q_max if q_max > 0 else 0.0
    if m_b:
        edge_acc = 0.0
        null_acc = 0.0
        for i in range(n):
            for j in range(n):
                if com[i] != com[j] and lab[i] == lab[j]:
                    edge_acc += A[i][j]
                    null_acc += bdeg[i] * bdeg[j]
        two_m = 2.0 * m_b
        q = (edge_acc - null_acc / two_m) / two_m
        q_max = (two_m - null_acc / two_m) / two_m
        out["q_between"] = q
        out["q_between_max"] = q_max
        out["q_between_norm"] = q / q_max if q_max > 0 else 0.0
    return out


def tie_triple_by_loop(graph, sex_codes):
    """(mm, mf, ff) tie counts among sex-observed endpoints, one edge at a time."""
    sex = np.asarray(sex_codes)
    mm = mf = ff = 0
    for u, v in zip(graph.edge_u.tolist(), graph.edge_v.tolist()):
        a, b = sex[u], sex[v]
        if a < 0 or b < 0:
            continue
        if a == 0 and b == 0:
            mm += 1
        elif a == 1 and b == 1:
            ff += 1
        else:
            mf += 1
    return mm, mf, ff


def exhaustive_sex_permutation(graph, sex_codes, tolerance):
    """Enumerate every assignment of the male count to observed positions.

    Returns (per-assignment count arrays keyed mm/mf/ff, exact two-sided
    p-values without Monte Carlo correction, expected counts), using only
    the assignments whose group mean degrees stay within the relative
    tolerance.
    """
    sex = np.asarray(sex_codes)
    observed_nodes = [i for i in range(graph.node_count) if sex[i] >= 0]
    n_male = sum(1 for i in observed_nodes if sex[i] == 0)
    deg = {i: 0 for i in observed_nodes}
    obs_set = set(observed_nodes)
    edges = []
    for u, v in zip(graph.edge_u.tolist(), graph.edge_v.tolist()):
        if u in obs_set and v in obs_set:
            edges.append((u, v))
        if u in obs_set:
            deg[u] += 1
        if v in obs_set:
            deg[v] += 1
    male_mean = np.mean([deg[i] for i in observed_nodes if sex[i] == 0])
    female_mean = np.mean([deg[i] for i in observed_nodes if sex[i] == 1])

    counts = {"mm": [], "mf": [], "ff": []}
    for males in itertools.combinations(observed_nodes, n_male):
        male_set = set(males)
        md = np.mean([deg[i] for i in observed_nodes if i in male_set])
        fd = np.mean([deg[i] for i in observed_nodes if i not in male_set])
        if abs(md / male_mean - 1.0) > tolerance or abs(fd / female_mean - 1.0) > tolerance:
            continue
        mm = mf = ff = 0
        for u, v in edges:
            inside = (u in male_set) + (v in male_set)
            if inside == 2:
                mm += 1
            elif inside == 0:
                ff += 1
            else:
                mf += 1
        counts["mm"].append(mm)
        counts["mf"].append(mf)
        counts["ff"].append(ff)

    observed_counts = dict(zip(("mm", "mf", "ff"), tie_triple_by_loop(graph, sex)))
    p_exact = {}
    expected = {}
    for key, values in counts.items():
        arr = np.asarray(values)
        upper = float((arr >= observed_counts[key]).mean())
        lower = float((arr <= observed_counts[key]).mean())
        p_exact[key] = min(1.0, 2.0 * min(upper, lower))
        expected[key] = float(arr.mean())
    return counts, p_exact, expected


def logistic_2x2(ties_match, n_match, ties_diff, n_diff):
    """Closed-form logistic MLE for a single binary match predictor.

    With a saturated 2x2 table the MLE is the empirical log-odds in each
    cell; the slope standard error is the classic square root of the summed
    reciprocal cell counts.
    """
    p1 = ties_match / n_match
    p0 = ties_diff / n_diff
    beta0 = math.log(p0 / (1.0 - p0))
    beta1 = math.log(p1 / (1.0 - p1)) - beta0
    se1 = math.sqrt(
        1.0 / ties_match
        + 1.0 / (n_match - ties_match)
        + 1.0 / ties_diff
        + 1.0 / (n_diff - ties_diff)
    )
    return beta0, beta1, se1


def cross_product_odds_ratio(ties_match, n_match, ties_diff, n_diff):
    return (ties_match * (n_diff - ties_diff)) / ((n_match - ties_match) * ties_diff)


def dyad_2x2(groups):
    """Sufficient statistics (ties_match, n_match, ties_diff, n_diff) from a
    single-feature ``{(x,): (pairs, ties)}`` grouping."""
    ties_match = n_match = ties_diff = n_diff = 0
    for (x,), (pairs, ties) in groups.items():
        if x == 1.0:
            n_match += pairs
            ties_match += ties
        else:
            n_diff += pairs
            ties_diff += ties
    return ties_match, n_match, ties_diff, n_diff


def _bin_index(value, bins):
    """Count of left bin edges at or below ``value`` (bin 0 lies below them all)."""
    return bisect.bisect_right(list(bins), value)


def enumerate_dyads(n, edges, columns):
    """Every unordered pair of complete-case nodes as ``(i, j, tie, features)``.

    ``columns`` lists ``(kind, values, bins)`` per feature, where ``values``
    holds one entry per node with None for missing, ``kind`` is "match" or
    "difference", and ``bins`` (or None) are left edges of the upper bins.
    """
    tied = {(min(u, v), max(u, v)) for u, v in edges}
    complete = [i for i in range(n) if all(values[i] is not None for _, values, _ in columns)]
    coded = []
    for _, values, bins in columns:
        if bins is not None:
            coded.append([None if v is None else _bin_index(v, bins) for v in values])
        else:
            coded.append(list(values))
    rows = []
    for a, i in enumerate(complete):
        for j in complete[a + 1 :]:
            features = []
            for (kind, _, _), code in zip(columns, coded):
                if kind == "match":
                    features.append(1.0 if code[i] == code[j] else 0.0)
                else:
                    features.append(float(abs(code[i] - code[j])))
            rows.append((i, j, (i, j) in tied, tuple(features)))
    return rows


def group_dyads(rows):
    """``{features: (pairs, ties)}`` from enumerated ``(i, j, tie, features)`` rows."""
    groups = {}
    for _, _, tie, features in rows:
        pairs, ties = groups.get(features, (0, 0))
        groups[features] = (pairs + 1, ties + int(tie))
    return groups


def logistic_irls(rows, tol=1e-13, max_iter=100):
    """Per-dyad logistic MLE by plain IRLS: (coefficients, standard errors),
    intercept first."""
    X = np.array([(1.0,) + features for _, _, _, features in rows])
    y = np.array([float(tie) for _, _, tie, _ in rows])
    beta = np.zeros(X.shape[1])
    for _ in range(max_iter):
        mu = 1.0 / (1.0 + np.exp(-(X @ beta)))
        info = X.T @ (X * (mu * (1.0 - mu))[:, None])
        step = np.linalg.solve(info, X.T @ (y - mu))
        beta = beta + step
        if np.abs(step).max() < tol:
            break
    mu = 1.0 / (1.0 + np.exp(-(X @ beta)))
    info = X.T @ (X * (mu * (1.0 - mu))[:, None])
    return beta, np.sqrt(np.diag(np.linalg.inv(info)))


def constant_feature_screen(columns):
    """``{attribute: reason}`` for dyad features that are constant over the
    nodes given.  ``columns`` maps attribute -> (kind, values) with one
    value per node (bin indices where the feature is binned)."""
    dropped = {}
    for attr, (kind, values) in columns.items():
        k = len(values)
        distinct = set(values)
        if kind == "match":
            if len(distinct) <= 1:
                dropped[attr] = "every pair matches (single observed value)"
            elif len(distinct) == k:
                dropped[attr] = "no pair matches (all values distinct)"
        elif len(distinct) <= 1:
            dropped[attr] = "all values equal"
        elif k == 2:
            dropped[attr] = "only one dyad; feature is constant"
    return dropped


def welch_t_closed_form(x, y):
    """Welch's t statistic and two-sided p from the textbook formulas."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx, ny = x.size, y.size
    vx = x.var(ddof=1)
    vy = y.var(ddof=1)
    se2 = vx / nx + vy / ny
    t = (x.mean() - y.mean()) / math.sqrt(se2)
    df = se2**2 / ((vx / nx) ** 2 / (nx - 1) + (vy / ny) ** 2 / (ny - 1))
    p = 2.0 * stats.t.sf(abs(t), df)
    return t, p


def entropy_of(labels):
    """Shannon entropy (nats) of a label vector, ignoring negatives."""
    arr = np.asarray(labels)
    arr = arr[arr >= 0]
    _, counts = np.unique(arr, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def nmi_by_counts(labels_a, labels_b):
    """Max-entropy normalized mutual information from the contingency table.

    Only nodes carrying both labels (non-negative codes) count.  Returns
    ``(value, mutual_information, entropy_a, entropy_b, n_used)`` in nats;
    the value is 0 when both entropies are 0.
    """
    pairs = [(a, b) for a, b in zip(labels_a, labels_b) if a >= 0 and b >= 0]
    n = len(pairs)
    cells = Counter(pairs)
    rows = Counter(a for a, _ in pairs)
    cols = Counter(b for _, b in pairs)
    mutual_information = sum(
        c / n * math.log(c * n / (rows[a] * cols[b])) for (a, b), c in cells.items()
    )
    entropy_a = -sum(c / n * math.log(c / n) for c in rows.values())
    entropy_b = -sum(c / n * math.log(c / n) for c in cols.values())
    h_max = max(entropy_a, entropy_b)
    value = mutual_information / h_max if h_max > 0 else 0.0
    return value, mutual_information, entropy_a, entropy_b, n


class RawStream:
    """The draws a PCG64 ``Generator`` makes, replayed from its bit generator's raw stream.

    Starts from a copy of ``generator``'s state and leaves the generator
    alone.  A 32-bit draw takes the low half of a raw 64-bit value and keeps
    the high half for the next one, as PCG64's ``has_uint32``/``uinteger``
    state does; a double is the top 53 bits of a raw value.
    """

    def __init__(self, generator):
        state = generator.bit_generator.state
        self.bits = type(generator.bit_generator)()
        self.bits.state = state
        self.has_uint32, self.uinteger = state["has_uint32"], state["uinteger"]

    def next_uint64(self):
        return int(self.bits.random_raw())

    def next_uint32(self):
        if self.has_uint32:
            self.has_uint32 = 0
            return self.uinteger
        raw = self.next_uint64()
        self.has_uint32, self.uinteger = 1, raw >> 32
        return raw & 0xFFFFFFFF

    def next_double(self):
        return (self.next_uint64() >> 11) * (1.0 / 9007199254740992.0)

    def interval(self, high):
        """Uniform on 0..high: masked draws, rejected until one is at most ``high``."""
        if high == 0:
            return 0
        mask = (1 << high.bit_length()) - 1
        draw = self.next_uint32 if high <= 0xFFFFFFFF else self.next_uint64
        while True:
            value = draw() & mask
            if value <= high:
                return value


def shuffle_by_raw_stream(stream, values):
    """``values`` shuffled as ``Generator.shuffle`` does: Fisher-Yates from the last item down."""
    out = list(values)
    for i in range(len(out) - 1, 0, -1):
        j = stream.interval(i)
        out[i], out[j] = out[j], out[i]
    return out


def choice_by_raw_stream(stream, size, p):
    """``Generator.choice(len(p), size, p=p)``: a uniform double per draw, found in the CDF."""
    sums = [float(x) for x in itertools.accumulate(p)]
    cdf = [s / sums[-1] for s in sums]
    return [bisect.bisect_right(cdf, stream.next_double()) for _ in range(size)]


def pairwise_complete(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    keep = (a >= 0) & (b >= 0)
    return a[keep], b[keep]


def local_clustering_by_loop(graph):
    """Mean local clustering via triangle counting over neighbor pairs."""
    adj = [set() for _ in range(graph.node_count)]
    for u, v in zip(graph.edge_u.tolist(), graph.edge_v.tolist()):
        adj[u].add(v)
        adj[v].add(u)
    total = 0.0
    for i in range(graph.node_count):
        nbrs = sorted(adj[i])
        k = len(nbrs)
        if k < 2:
            continue
        links = sum(
            1
            for a, b in itertools.combinations(nbrs, 2)
            if b in adj[a]
        )
        total += 2.0 * links / (k * (k - 1))
    return total / graph.node_count if graph.node_count else float("nan")


def local_clustering_by_sparse_product(graph):
    """Mean local clustering from the sparse product ``(A @ A).multiply(A)``.

    Row ``i`` of the product, summed and halved, counts the links among node
    ``i``'s neighbours.  The per-node terms are added left to right in node
    order, as in ``local_clustering_by_loop``.
    """
    n = graph.node_count
    # int64 entries: the product counts common neighbours.
    rows = np.concatenate([graph.edge_u, graph.edge_v])
    cols = np.concatenate([graph.edge_v, graph.edge_u])
    adj = sparse.csr_matrix((np.ones(rows.size, dtype=np.int64), (rows, cols)), shape=(n, n))
    links = np.asarray((adj @ adj).multiply(adj).sum(axis=1)).ravel() // 2
    k = graph.degrees
    terms = np.zeros(n)
    wedge = k >= 2
    terms[wedge] = 2.0 * links[wedge] / (k[wedge] * (k[wedge] - 1))
    return float(np.cumsum(terms)[-1]) / n


def degrees_by_loop(graph):
    """Each node's degree as a list, counted by a loop over the edges."""
    degrees = [0] * graph.node_count
    for u, v in zip(graph.edge_u.tolist(), graph.edge_v.tolist()):
        degrees[u] += 1
        degrees[v] += 1
    return degrees


def component_labels_by_bfs(graph):
    """Component labels 0, 1, ... in order of first discovery by node index, by graph search."""
    n = graph.node_count
    adjacency = [[] for _ in range(n)]
    for u, v in zip(graph.edge_u.tolist(), graph.edge_v.tolist()):
        adjacency[u].append(v)
        adjacency[v].append(u)
    labels = np.full(n, -1, dtype=np.int64)
    current = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = current
        stack = [start]
        while stack:
            node = stack.pop()
            for nb in adjacency[node]:
                if labels[nb] < 0:
                    labels[nb] = current
                    stack.append(nb)
        current += 1
    return labels, current


def sex_permutation_at_one_tolerance(
    graph, sex_codes, tolerance, target_replicates, seed, max_attempts, batch_size
):
    """The sex permutation test at one tolerance, with its own candidate stream.

    Batch ``b`` permutes the sex-observed nodes by the argsort of uniform
    keys from ``SeedSequence([seed, b])``; batches are drawn until
    ``target_replicates`` permutations keep both group mean degrees within
    the tolerance.  Returns the ``SexPermutationResult`` fields by name and
    raises ``ValueError`` when the acceptance rate is below 0.1% after
    ``max_attempts`` attempts.
    """
    sex = np.asarray(sex_codes)
    observed_idx = np.flatnonzero(sex >= 0)
    male = sex[observed_idx] == 0
    n_male = int(male.sum())
    n_female = int(observed_idx.size - n_male)
    deg = graph.degrees[observed_idx].astype(float)
    deg_total = float(deg.sum())
    male_mean = float(deg[male].mean())
    female_mean = float(deg[~male].mean())
    male_bounds = (male_mean * (1.0 - tolerance), male_mean * (1.0 + tolerance))
    female_bounds = (female_mean * (1.0 - tolerance), female_mean * (1.0 + tolerance))

    def counts_of(male_perm):
        labels = np.full(graph.node_count, -1)
        labels[observed_idx] = np.where(male_perm, 0, 1)
        return tie_triple_by_loop(graph, labels)

    observed = counts_of(male)
    counts, male_means, female_means = [], [], []
    attempts = valid_total = batch_index = 0
    while len(counts) < target_replicates:
        rng = np.random.default_rng(np.random.SeedSequence([int(seed) % (2**63), batch_index]))
        order = np.argsort(rng.random((batch_size, deg.size)), axis=1)
        male_mat = male[order]
        md = (male_mat * deg).sum(axis=1) / n_male
        fd = (deg_total - md * n_male) / n_female
        for row in range(batch_size):
            if not (
                male_bounds[0] <= md[row] <= male_bounds[1]
                and female_bounds[0] <= fd[row] <= female_bounds[1]
            ):
                continue
            valid_total += 1
            if len(counts) < target_replicates:
                counts.append(counts_of(male_mat[row]))
                male_means.append(md[row])
                female_means.append(fd[row])
        attempts += batch_size
        batch_index += 1
        if len(counts) < target_replicates and attempts >= max_attempts:
            rate = valid_total / attempts
            if rate < 0.001:
                raise ValueError(
                    f"valid-replicate acceptance rate {rate:.4%} below 0.1% after "
                    f"{attempts} attempts; consider a larger tolerance"
                )

    counts = np.array(counts, dtype=np.int64)
    expected = tuple(float(x) for x in counts.mean(axis=0))
    p_values, ratios, verdicts = [], [], []
    for k in range(3):
        column = counts[:, k]
        ge = int((column >= observed[k]).sum())
        le = int((column <= observed[k]).sum())
        p = min(1.0, 2.0 * min(ge + 1, le + 1) / (column.size + 1))
        p_values.append(p)
        ratios.append(observed[k] / expected[k] if expected[k] > 0 else float("nan"))
        if p < 0.05 and observed[k] != expected[k]:
            verdicts.append("assortative" if observed[k] > expected[k] else "dissortative")
        else:
            verdicts.append("ns")
    return {
        "observed": observed,
        "expected_mean": expected,
        "ratio": tuple(ratios),
        "p_values": tuple(p_values),
        "verdicts": tuple(verdicts),
        "n_replicates": target_replicates,
        "tolerance": tolerance,
        "n_attempts": attempts,
        "male_mean_degree": male_mean,
        "female_mean_degree": female_mean,
        "male_degree_bounds": male_bounds,
        "female_degree_bounds": female_bounds,
        "replicate_male_mean_degrees": np.array(male_means),
        "replicate_female_mean_degrees": np.array(female_means),
        "replicate_counts": counts,
    }


def segregation_report_by_subgraph(graph, labels, partition):
    """Attribute, within and between modularity, each on the compiled subgraph
    induced by the labeled nodes.

    Returns the ``SegregationReport`` fields by name and raises ``ValueError``
    with the production messages, in the same order.
    """
    from segnet import induced_subgraph

    def labeled_subgraph():
        lab = np.asarray(labels, dtype=np.int64)
        if lab.shape != (graph.node_count,):
            raise ValueError("labels must cover every node (use negative codes for missing)")
        nodes = np.flatnonzero(lab >= 0)
        if nodes.size == 0:
            raise ValueError("no node carries the attribute")
        sub, _ = induced_subgraph(graph, nodes)
        return sub, nodes, lab[nodes]

    def normalized(edge_term, null_term, two_m):
        q = (edge_term - null_term) / two_m
        q_max = (two_m - null_term) / two_m
        return q, q_max, q / q_max if q_max > 0.0 else 0.0

    def split(within):
        if partition.assignment.shape != (graph.node_count,):
            raise ValueError("partition does not cover this graph")
        sub, nodes, lab = labeled_subgraph()
        comm = partition.assignment[nodes]
        same_comm = comm[sub.edge_u] == comm[sub.edge_v]
        m_w = int(same_comm.sum())
        n = sub.node_count
        wdeg = np.bincount(sub.edge_u[same_comm], minlength=n) + np.bincount(
            sub.edge_v[same_comm], minlength=n
        )
        same_lab = lab[sub.edge_u] == lab[sub.edge_v]
        n_labels = int(lab.max()) + 1
        if within:
            if m_w == 0:
                raise ValueError("no within-community edges join labeled nodes")
            group_sums = np.bincount(comm * n_labels + lab, weights=wdeg)
            two_m = 2.0 * m_w
            null_term = float((group_sums.astype(float) ** 2).sum()) / two_m
            return normalized(2.0 * int((same_comm & same_lab).sum()), null_term, two_m)
        m_b = sub.edge_count - m_w
        if m_b == 0:
            raise ValueError("no between-community edges join labeled nodes")
        bdeg = sub.degrees - wdeg
        label_sums = np.bincount(lab, weights=bdeg)
        group_sums = np.bincount(comm * n_labels + lab, weights=bdeg)
        two_m = 2.0 * m_b
        null_term = (
            float((label_sums.astype(float) ** 2).sum())
            - float((group_sums.astype(float) ** 2).sum())
        ) / two_m
        return normalized(2.0 * int((~same_comm & same_lab).sum()), null_term, two_m)

    sub, nodes, lab = labeled_subgraph()
    m = sub.edge_count
    if m == 0:
        raise ValueError("no edges join labeled nodes")
    e_same = int((lab[sub.edge_u] == lab[sub.edge_v]).sum())
    deg_by_label = np.bincount(lab, weights=sub.degrees)
    q_attr = float(e_same / m - ((deg_by_label / (2.0 * m)) ** 2).sum())
    q_w, q_w_max, q_w_norm = split(within=True)
    q_b, q_b_max, q_b_norm = split(within=False)
    return {
        "q_attr": q_attr,
        "q_within": q_w,
        "q_between": q_b,
        "q_within_max": q_w_max,
        "q_between_max": q_b_max,
        "q_within_norm": q_w_norm,
        "q_between_norm": q_b_norm,
        "n_used": int(nodes.size),
    }


def community_network_by_dicts(
    graph, partition, labels, node_min_fraction, edge_min_fraction, category_names
):
    """``build_community_network`` by one member scan per community and a
    dict of cross-tie counts filled edge by edge."""
    labels = np.asarray(labels, dtype=np.int64)
    n = graph.node_count
    h0 = partition.assignment - 1
    retained = np.flatnonzero(partition.sizes >= node_min_fraction * n)
    if retained.size == 0:
        raise ValueError("no community reaches the size threshold")
    retained_set = set(retained.tolist())

    def _name(code):
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

    cross = {}
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


def build_graph_by_set(edge_list, node_ids=None):
    """The simple graph of id pairs, by a set of index pairs and plain neighbor lists.

    ``node_ids`` fixes the node universe and index order; without it the
    universe is the sorted endpoint ids.  An unknown or duplicate id raises
    ``ValueError``.  Returns the graph and the id -> index mapping.  With
    ``node_ids=range(n)`` it is the reference for ``build_graph(n, pairs)``;
    ``load_village_by_rows`` builds its union graph and id mapping with it.
    """
    pairs = list(edge_list)
    if node_ids is not None:
        ids = list(node_ids)
        index = {}
        for k, nid in enumerate(ids):
            if nid in index:
                raise ValueError(f"duplicate node id {nid!r} in node list")
            index[nid] = k
        for a, b in pairs:
            if a not in index:
                raise ValueError(f"edge references unknown node id {a!r}")
            if b not in index:
                raise ValueError(f"edge references unknown node id {b!r}")
    else:
        ids = sorted({nid for a, b in pairs for nid in (a, b)})
        index = {nid: k for k, nid in enumerate(ids)}
    dedup = set()
    for a, b in pairs:
        ia, ib = index[a], index[b]
        if ia != ib:
            dedup.add((min(ia, ib), max(ia, ib)))
    edges = sorted(dedup)
    graph = UndirectedGraph(
        len(ids),
        np.array([u for u, _ in edges], dtype=np.int64),
        np.array([v for _, v in edges], dtype=np.int64),
    )
    return graph, index



# The row-at-a-time village reader: one hand-written CSV loop per file kind,
# per-row attribute dicts, and a string-pair union set sorted before the graph
# is built by ``build_graph_by_set``.

_ATTRIBUTE_HEADER = ("node_id",) + ATTRIBUTE_NAMES


def _read_edge_file_by_rows(path, universe=None):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["source", "target"]:
            raise IngestError(f"{path}:1: expected header 'source,target'")
        pairs = set()
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise IngestError(f"{path}:{lineno}: expected 2 fields, found {len(row)}")
            a, b = row[0].strip(), row[1].strip()
            if not a or not b:
                raise IngestError(f"{path}:{lineno}: empty node id")
            if universe is not None:
                for nid in (a, b):
                    if nid not in universe:
                        raise IngestError(
                            f"{path}:{lineno}: edge references node id {nid!r} "
                            "outside the declared node list"
                        )
            pairs.add((a, b) if a <= b else (b, a))
    return tuple(sorted(pairs))


def _read_nodes_file_by_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["node_id"]:
            raise IngestError(f"{path}:1: expected header 'node_id'")
        ids = []
        seen = set()
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 1:
                raise IngestError(f"{path}:{lineno}: expected 1 field, found {len(row)}")
            nid = row[0].strip()
            if nid in seen:
                raise IngestError(f"{path}:{lineno}: duplicate node id {nid!r}")
            seen.add(nid)
            ids.append(nid)
    return tuple(ids)


def _parse_numeric_cell(text, attr, path, lineno):
    if text == "":
        return -1
    try:
        value = int(text)
    except ValueError:
        raise IngestError(f"{path}:{lineno}: invalid {attr} value {text!r}") from None
    if value < 0:
        raise IngestError(f"{path}:{lineno}: negative {attr} value {value}")
    return value


def _parse_categorical_cell(text, attr, path, lineno, coerce):
    categories = CATEGORICAL_ATTRIBUTES[attr]
    if text == "" or (coerce and text.lower() not in categories):
        return -1
    if text.lower() not in categories:
        raise IngestError(f"{path}:{lineno}: unknown {attr} value {text!r}")
    return categories.index(text.lower())


def _read_attribute_file_by_rows(path, coerce):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip().lower() for h in header) != _ATTRIBUTE_HEADER:
            raise IngestError(f"{path}:1: expected header {','.join(_ATTRIBUTE_HEADER)!r}")
        records = {}
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(_ATTRIBUTE_HEADER):
                raise IngestError(
                    f"{path}:{lineno}: expected {len(_ATTRIBUTE_HEADER)} fields, found {len(row)}"
                )
            nid = row[0].strip()
            if not nid:
                raise IngestError(f"{path}:{lineno}: empty node id")
            if nid in records:
                raise IngestError(f"{path}:{lineno}: duplicate node id {nid!r}")
            rec = {}
            for attr, text in zip(ATTRIBUTE_NAMES, (t.strip() for t in row[1:])):
                if attr in CATEGORICAL_ATTRIBUTES:
                    rec[attr] = _parse_categorical_cell(text, attr, path, lineno, coerce)
                else:
                    rec[attr] = _parse_numeric_cell(text, attr, path, lineno)
            records[nid] = rec
    return records


def load_village_by_rows(edge_files, attribute_file, config=IngestConfig()):
    """``segnet.load_village`` by the row-at-a-time readers above.

    Returns the dataset together with what it is built from: each layer's
    sorted distinct id pairs (each pair ordered as strings) and the union
    graph ``build_graph_by_set`` makes of them, so a caller can check the
    dataset's layers and graph against these rather than against its own
    constructor.
    """
    if not edge_files:
        raise IngestError("at least one edge file is required")
    attribute_path = Path(attribute_file)
    if config.nodes_file is not None:
        node_ids = _read_nodes_file_by_rows(Path(config.nodes_file))
        universe = frozenset(node_ids)
    else:
        node_ids = None
        universe = None

    layers = {}
    for ef in edge_files:
        p = Path(ef)
        name = p.stem
        if name in layers:
            raise IngestError(f"duplicate relation layer name {name!r}")
        layers[name] = _read_edge_file_by_rows(p, universe)

    union = set()
    for pairs in layers.values():
        union.update(pairs)
    try:
        graph, index = build_graph_by_set(sorted(union), node_ids=node_ids)
    except ValueError as exc:
        raise IngestError(str(exc)) from None
    ordered_ids = sorted(index, key=index.get)

    records = _read_attribute_file_by_rows(attribute_path, config.coerce_unknown_categories)
    table = AttributeTable.empty(ordered_ids)
    columns = {name: np.array(getattr(table, name)) for name in ATTRIBUTE_NAMES}
    unmatched = []
    for nid, rec in records.items():
        pos = index.get(nid)
        if pos is None:
            unmatched.append(nid)
            continue
        for attr in ATTRIBUTE_NAMES:
            columns[attr][pos] = rec[attr]
    table = AttributeTable(node_ids=tuple(ordered_ids), **columns)

    village_id = config.village_id or attribute_path.parent.name or attribute_path.stem
    layer_pairs = {
        name: [(index[a], index[b]) for a, b in pairs] for name, pairs in sorted(layers.items())
    }
    dataset = VillageDataset(village_id, table, layer_pairs, tuple(sorted(unmatched)))
    return dataset, layers, graph


# Louvain on adjacency dicts: level 0 is built by a loop over the edge list,
# local moving sums each visited node's weights per neighbour community in a
# dict, and every level is scored on its own (possibly aggregated) adjacency
# dicts.  The visit order, gain expression and tie-break are the algorithm's
# definition, so the package must reproduce the partitions exactly.


def _local_moving_by_dicts(adj, loops, m, rng):
    n = len(adj)
    deg = [sum(nbrs.values()) + 2.0 * loops[i] for i, nbrs in enumerate(adj)]
    com = list(range(n))
    tot = deg.copy()
    order = np.arange(n)
    two_m = 2.0 * m
    while True:
        moved = 0
        rng.shuffle(order)
        for i in order.tolist():
            ci = com[i]
            nbr_weight = {}
            for j, w in adj[i].items():
                cj = com[j]
                nbr_weight[cj] = nbr_weight.get(cj, 0.0) + w
            tot[ci] -= deg[i]
            best_c = ci
            best_gain = nbr_weight.get(ci, 0.0) - tot[ci] * deg[i] / two_m
            for c, w in nbr_weight.items():
                if c == ci:
                    continue
                gain = w - tot[c] * deg[i] / two_m
                if gain > best_gain + _MOVE_GAIN_EPS:
                    best_gain = gain
                    best_c = c
            com[i] = best_c
            tot[best_c] += deg[i]
            if best_c != ci:
                moved += 1
        if moved == 0:
            return com


def _aggregate_by_dicts(adj, loops, com):
    k = max(com) + 1
    new_adj = [dict() for _ in range(k)]
    new_loops = [0.0] * k
    for i, nbrs in enumerate(adj):
        ci = com[i]
        new_loops[ci] += loops[i]
        for j, w in nbrs.items():
            if j < i:
                continue
            cj = com[j]
            if ci == cj:
                new_loops[ci] += w
            else:
                new_adj[ci][cj] = new_adj[ci].get(cj, 0.0) + w
                new_adj[cj][ci] = new_adj[cj].get(ci, 0.0) + w
    return new_adj, new_loops


def _initial_level_by_edges(graph):
    adj = [dict() for _ in range(graph.node_count)]
    for u, v in zip(graph.edge_u.tolist(), graph.edge_v.tolist()):
        adj[u][v] = adj[u].get(v, 0.0) + 1.0
        adj[v][u] = adj[v].get(u, 0.0) + 1.0
    return adj, [0.0] * graph.node_count


def _level_modularity(adj, loops, com, m):
    # Q = sum_c [ in_c/(2m) - (tot_c/(2m))^2 ]; in_c counts both edge directions
    # plus twice the collapsed internal weight.
    totals = {}
    inners = {}
    for i, nbrs in enumerate(adj):
        ci = com[i]
        totals[ci] = totals.get(ci, 0.0) + 2.0 * loops[i]
        inners[ci] = inners.get(ci, 0.0) + 2.0 * loops[i]
        for j, w in nbrs.items():
            totals[ci] += w
            if com[j] == ci:
                inners[ci] += w
    two_m = 2.0 * m
    return sum(inners[c] / two_m - (totals[c] / two_m) ** 2 for c in totals)


def louvain_by_level_dicts(graph, seed, score=None):
    """``louvain`` with dict local moving and aggregation, an edge-loop level 0
    and per-level dict modularities.

    ``score``, when given, scores each level instead: it is called with the
    level's assignment mapped back to ``graph``'s nodes.
    """
    if graph.node_count == 0:
        raise ValueError("empty graph")
    if graph.edge_count == 0:
        raise ValueError("graph has no edges")
    rng = np.random.default_rng(seed)
    m = float(graph.edge_count)
    adj, loops = _initial_level_by_edges(graph)
    assignment = np.arange(graph.node_count)
    if score is None:
        q_prev = _level_modularity(adj, loops, list(range(len(adj))), m)
    else:
        q_prev = score(assignment)
    level_qs = []
    while True:
        com = _local_moving_by_dicts(adj, loops, m, rng)
        com_dense = np.unique(np.asarray(com, dtype=np.int64), return_inverse=True)[1]
        assignment = com_dense[assignment]
        if score is None:
            q = _level_modularity(adj, loops, com_dense.tolist(), m)
        else:
            q = score(assignment)
        level_qs.append(q)
        n_communities = int(com_dense.max()) + 1
        if q - q_prev <= _LEVEL_GAIN_THRESHOLD or n_communities == len(adj):
            break
        adj, loops = _aggregate_by_dicts(adj, loops, com_dense.tolist())
        q_prev = q
    partition = Partition.from_assignment(graph, assignment + 1)
    return replace(
        partition, modularity=float(level_qs[-1]), level_modularities=tuple(level_qs)
    )

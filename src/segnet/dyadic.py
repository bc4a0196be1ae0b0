"""Dyad-level assortativity: similarity features, logistic fits, permutation nulls.

Each attribute arrives as one int64 label per node, negative where missing,
already binned by the caller.  Every unordered pair of complete-case nodes
becomes one observation whose outcome is tie presence, with the match
indicator of each attribute's labels or, for a numeric one, their absolute
difference as features.  Pairs with the same feature row are grouped into
one binomial count (dyads, ties), so the logistic fit runs on at most 2^p
rows for p match features instead of on every pair, with the same
likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple, Sequence

import numpy as np

from ._special import expit, stdtr
from .attributes import CATEGORICAL_ATTRIBUTES, NUMERIC_ATTRIBUTES
from .graph import _CHUNK_ELEMENTS, UndirectedGraph, _edges_within, _node_labels, _unique

__all__ = [
    "FeatureSpec",
    "DyadDesign",
    "LogisticFit",
    "TieTriple",
    "SexPermutationResult",
    "build_dyad_design",
    "fit_logistic",
    "sex_permutation_test",
    "sex_permutation_tests",
    "degree_missingness_ttest",
]

# Design rows are keyed by an int64 mixed-radix number over feature levels.
_MAX_ROW_KEY = 1 << 62

# Newton/IRLS controls of the dyadic logistic fit.
_MAX_ITER = 100
_TOL = 1e-8
_DIVERGENCE_BOUND = 30.0

# The permutation null draws candidates in seeded batches of _BATCH_SIZE;
# the batch size fixes the candidate stream, so it is part of every result.
# A tolerance still below 0.1% valid after _MAX_ATTEMPTS attempts fails.
_BATCH_SIZE = 512
_MAX_ATTEMPTS = 1_000_000

@dataclass(frozen=True)
class FeatureSpec:
    """Ordered attribute -> feature kind mapping defining the dyad design columns.

    ``"match"`` yields 1 when both endpoints carry the same label;
    ``"difference"`` yields |label_i - label_j| and needs a numeric attribute.
    """

    kinds: Mapping[str, str]

    def __post_init__(self) -> None:
        for attr, kind in self.kinds.items():
            if attr not in CATEGORICAL_ATTRIBUTES and attr not in NUMERIC_ATTRIBUTES:
                raise ValueError(f"unknown attribute {attr!r}")
            if kind not in ("match", "difference"):
                raise ValueError(f"unknown feature kind {kind!r}")
            if kind == "difference" and attr not in NUMERIC_ATTRIBUTES:
                raise ValueError(f"difference encoding requires a numeric attribute, got {attr!r}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.kinds)

    def restrict(self, attrs: Sequence[str]) -> "FeatureSpec":
        return FeatureSpec({a: self.kinds[a] for a in attrs})


@dataclass(frozen=True)
class DyadDesign:
    """Unordered pairs of complete-case nodes, grouped by feature row.

    Row ``r`` of ``X`` is one distinct feature vector: ``pairs[r]`` dyads
    carry it and ``ties[r]`` of them are tied.  Rows are sorted
    lexicographically and each holds at least one dyad.
    """

    node_index: np.ndarray
    feature_names: tuple[str, ...]
    X: np.ndarray
    pairs: np.ndarray
    ties: np.ndarray

    @property
    def n_nodes(self) -> int:
        return int(self.node_index.size)

    @property
    def n_dyads(self) -> int:
        return int(self.pairs.sum())

    @property
    def n_ties(self) -> int:
        return int(self.ties.sum())

    def constant_features(self) -> dict[str, float]:
        """Features that take one value on every dyad, mapped to that value."""
        lo = self.X.min(axis=0)
        hi = self.X.max(axis=0)
        return {
            name: float(lo[c]) for c, name in enumerate(self.feature_names) if lo[c] == hi[c]
        }


def _pair_feature(kind: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Match indicator (bool) or absolute difference of paired values."""
    return a == b if kind == "match" else np.abs(a - b)


def _type_row_blocks(n_types: int):
    """Blocks of the type-pair triangle as ``(rows, 1)`` and ``(columns,)`` type indices.

    A block pairs types ``start .. stop - 1`` with types ``start ..
    n_types - 1``, so it covers every pair of its rows in the triangle.  Up
    to three arrays of one entry per pair are live at a time while a block
    is reduced, so each block spans as many rows as keep its pairs within
    ``_CHUNK_ELEMENTS // 3``, and at least one.
    """
    start = 0
    while start < n_types:
        stop = min(n_types, start + max(1, _CHUNK_ELEMENTS // 3 // (n_types - start)))
        yield np.arange(start, stop)[:, None], np.arange(start, n_types)
        start = stop


def build_dyad_design(
    graph: UndirectedGraph, labels: Mapping[str, np.ndarray], spec: FeatureSpec
) -> DyadDesign:
    """Assemble the grouped dyad design over complete-case nodes of ``graph``.

    ``labels`` maps each attribute of ``spec``, and maybe others, to its node
    labels; a complete case is a node labelled >= 0 on every feature.
    Nodes with identical feature values form a type.  Each unordered pair of
    types (a type with itself included) holds n_a * n_b dyads, or
    C(n_a, 2) within one type, and all of them share one feature row; type
    pairs with equal rows are merged.  The type-pair triangle is walked in
    blocks of whole rows (see ``_type_row_blocks``), each reduced to its
    distinct rows before the next, so the working set beyond the graph, the
    types and the grouped rows does not grow with the number of types.
    Ties are counted in one pass over the edges.  Raises ``ValueError`` on
    a feature's labels that are not one integer per node, if fewer than two
    nodes are observed on every attribute in the spec, or if the feature
    rows take too many distinct values to be keyed in 62 bits.
    """
    names = spec.names
    if not names:
        raise ValueError("feature spec is empty")
    node_labels = [_node_labels(labels[a], graph.node_count, f"{a} labels") for a in names]
    mask = np.logical_and.reduce([column >= 0 for column in node_labels])
    node_index = np.flatnonzero(mask)
    k = int(node_index.size)
    if k < 2:
        raise ValueError(f"need at least 2 complete-case nodes, found {k}")

    kinds = [spec.kinds[attr] for attr in names]
    columns = [column[node_index] for column in node_labels]
    types, node_type, type_size = np.unique(
        np.column_stack(columns), axis=0, return_inverse=True, return_counts=True
    )
    n_types = type_size.size

    # Sorted feature values per column: 0/1 for a match, every |x - y| over
    # the column's distinct values for a difference.  A row's key is the
    # mixed-radix number of its level codes, so equal keys <=> equal rows
    # and key order is the rows' lexicographic order.
    levels = []
    for kind, col in zip(kinds, types.T):
        if kind == "match":
            levels.append(np.array([0.0, 1.0]))
        else:
            distinct = np.unique(col)
            levels.append(np.unique(np.abs(distinct[:, None] - distinct)))
    if math.prod(lv.size for lv in levels) >= _MAX_ROW_KEY:
        raise ValueError(
            "dyad features take too many distinct values to key the design rows; "
            "bin the numeric difference features"
        )

    def pair_keys(ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
        key = np.zeros(np.broadcast_shapes(ta.shape, tb.shape), dtype=np.int64)
        for kind, col, lv in zip(kinds, types.T, levels):
            key *= lv.size
            feature = _pair_feature(kind, col[ta], col[tb])
            # A match is its own level code: False is level 0, True level 1.
            key += feature if kind == "match" else np.searchsorted(lv, feature)
        return key

    block_keys = []
    block_pairs = []
    size = type_size.astype(float)
    for ta, tb in _type_row_blocks(n_types):
        key = pair_keys(ta, tb)
        distinct = _unique(key)
        row_of = np.searchsorted(distinct, key).ravel()
        del key  # two per-pair arrays, not three, while the pair counts are built
        # Pairs below the diagonal mirror pairs above it: no dyad here.
        sa = size[ta]
        pairs = sa * size[tb]
        pairs[ta > tb] = 0.0
        diagonal = np.arange(ta.size)
        pairs[diagonal, diagonal] = sa[:, 0] * (sa[:, 0] - 1) / 2
        block_keys.append(distinct)
        block_pairs.append(np.bincount(row_of, weights=pairs.ravel(), minlength=distinct.size))
    keys = np.concatenate(block_keys)
    row_key = _unique(keys)
    row_of = np.searchsorted(row_key, keys)
    row_pairs = np.bincount(row_of, weights=np.concatenate(block_pairs)).astype(np.int64)
    # A type of one node paired with itself holds no dyad, nor does a row
    # that only mirrored pairs below the diagonal carry.
    held = row_pairs > 0
    row_key, row_pairs = row_key[held], row_pairs[held]

    node_type = node_type.reshape(-1)
    eu, ev = _edges_within(graph, mask)
    # Both pair features are symmetric, so an edge keys like its triangle pair.
    edge_key = pair_keys(node_type[eu], node_type[ev])
    row_ties = np.bincount(np.searchsorted(row_key, edge_key), minlength=row_key.size)

    X = np.empty((row_key.size, len(names)))
    rest = row_key
    for c in reversed(range(len(names))):
        rest, code = np.divmod(rest, levels[c].size)
        X[:, c] = levels[c][code]
    return DyadDesign(node_index, tuple(names), X, row_pairs, row_ties)


@dataclass(frozen=True)
class LogisticFit:
    """Maximum-likelihood logistic fit with Wald inference per feature."""

    feature_names: tuple[str, ...]
    beta0: float
    beta: np.ndarray
    intercept_se: float
    std_errors: np.ndarray
    odds_ratios: np.ndarray
    ci95: np.ndarray
    p_values: np.ndarray
    converged: bool
    n_iterations: int
    n_dyads: int
    n_ties: int
    diagnostic: str | None = None


def _information(
    design: DyadDesign, Xb: np.ndarray, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Information matrix and score of the grouped-binomial log-likelihood."""
    mu = expit(Xb @ beta)
    w = design.pairs * mu * (1.0 - mu)
    grad = Xb.T @ (design.ties - design.pairs * mu)
    H = (Xb * w[:, None]).T @ Xb
    return H, grad


def _wald_p_values(z: np.ndarray) -> np.ndarray:
    """Two-sided standard normal p-values ``2 * P(Z > |z|)``, as ``erfc(|z| / sqrt 2)``.

    Per element with ``math.erfc``, the C library's; ``tests/test_special.py``
    holds it to ``(64 + 2 |ln p|)`` ulp of a 40-digit reference.
    """
    return np.array([math.erfc(abs(v) * math.sqrt(0.5)) for v in z.tolist()], dtype=float)


def fit_logistic(design: DyadDesign) -> LogisticFit:
    """Fit tie probability on dyad features by Newton-Raphson (IRLS).

    Each design row is a binomial count of ties among its dyads, so the
    likelihood equals the one over individual dyads.  Convergence means
    every coefficient moved by less than ``_TOL`` in the last step.
    Runaway coefficients (complete separation) and a singular information
    matrix return a fit flagged ``converged=False`` with a diagnostic rather
    than raising.  A constant feature column is an error naming the
    attribute.
    """
    p = len(design.feature_names)
    if design.n_ties == 0 or design.n_ties == design.n_dyads:
        raise ValueError("dyad design needs both tied and untied pairs")
    constant = design.constant_features()
    if constant:
        bad = ", ".join(constant)
        raise ValueError(f"constant dyad feature column for attribute(s): {bad}")

    Xb = np.column_stack([np.ones(design.pairs.size), design.X])
    beta = np.zeros(p + 1)
    converged = False
    diagnostic: str | None = None
    iteration = 0
    for iteration in range(1, _MAX_ITER + 1):
        H, grad = _information(design, Xb, beta)
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            diagnostic = "singular information matrix"
            break
        beta = beta + step
        if np.abs(beta).max() > _DIVERGENCE_BOUND:
            diagnostic = "coefficients diverging; data are likely completely separated"
            break
        if np.abs(step).max() < _TOL:
            converged = True
            break
    else:
        diagnostic = f"no convergence within {_MAX_ITER} iterations"

    H, _ = _information(design, Xb, beta)
    try:
        covariance = np.linalg.inv(H)
        se = np.sqrt(np.diag(covariance))
    except np.linalg.LinAlgError:
        se = np.full(p + 1, np.nan)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = beta / se
        p_values = _wald_p_values(z)
        ci95 = np.column_stack(
            [np.exp(beta[1:] - 1.96 * se[1:]), np.exp(beta[1:] + 1.96 * se[1:])]
        )
    return LogisticFit(
        feature_names=design.feature_names,
        beta0=float(beta[0]),
        beta=beta[1:].copy(),
        intercept_se=float(se[0]),
        std_errors=se[1:].copy(),
        odds_ratios=np.exp(beta[1:]),
        ci95=ci95,
        p_values=p_values[1:].copy(),
        converged=converged,
        n_iterations=iteration,
        n_dyads=design.n_dyads,
        n_ties=design.n_ties,
        diagnostic=diagnostic,
    )


class TieTriple(NamedTuple):
    """Per tie-type values in the order male-male, male-female, female-female."""

    mm: float
    mf: float
    ff: float


@dataclass(frozen=True)
class SexPermutationResult:
    """Constrained permutation null for sex-typed tie counts.

    Valid replicates keep each permuted group's mean degree within a relative
    tolerance of its empirical value; per-replicate mean degrees and counts
    are retained so the constraint is verifiable afterwards.
    """

    observed: TieTriple
    expected_mean: TieTriple
    ratio: TieTriple
    p_values: TieTriple
    verdicts: TieTriple
    n_replicates: int
    tolerance: float
    n_attempts: int
    male_mean_degree: float
    female_mean_degree: float
    male_degree_bounds: tuple[float, float]
    female_degree_bounds: tuple[float, float]
    replicate_male_mean_degrees: np.ndarray
    replicate_female_mean_degrees: np.ndarray
    replicate_counts: np.ndarray


def _mc_two_sided(values: np.ndarray, observed: float) -> float:
    r = values.size
    ge = int((values >= observed).sum())
    le = int((values <= observed).sum())
    return min(1.0, 2.0 * min(ge + 1, le + 1) / (r + 1))


def _permutation_result(
    observed: TieTriple, counts: np.ndarray, **constraint: Any
) -> SexPermutationResult:
    """Summarize one tolerance's replicate counts; ``constraint`` holds the remaining fields."""
    expected = TieTriple(*(float(x) for x in counts.mean(axis=0)))
    p_values = TieTriple(*(_mc_two_sided(counts[:, k], observed[k]) for k in range(3)))
    ratios = []
    verdicts = []
    for k in range(3):
        exp = expected[k]
        ratios.append(observed[k] / exp if exp > 0 else float("nan"))
        if p_values[k] < 0.05 and observed[k] > exp:
            verdicts.append("assortative")
        elif p_values[k] < 0.05 and observed[k] < exp:
            verdicts.append("dissortative")
        else:
            verdicts.append("ns")

    return SexPermutationResult(
        observed=observed,
        expected_mean=expected,
        ratio=TieTriple(*ratios),
        p_values=p_values,
        verdicts=TieTriple(*verdicts),
        n_replicates=counts.shape[0],
        replicate_counts=counts,
        **constraint,
    )


# PCG64's ``Generator.random`` is ``(raw >> 11) * 2**-53`` of one raw draw
# per key, so the top 53 bits of the raw draws order the keys as the floats do.
_KEY_LOW_BITS = np.uint64(0x7FF)


def _permuted_males(
    rng: np.random.Generator, shape: tuple[int, int], male: np.ndarray
) -> np.ndarray:
    """``male[np.argsort(rng.random(shape), axis=1)]``, drawing the same stream.

    Each raw draw keeps its top 53 bits and takes its node's male bit as its
    lowest bit, so sorting the packed keys carries each male bit to its key's
    rank.  Two keys of a row tie only when adjacent sorted keys differ by at
    most 1, which a row of n keys does with probability about n**2 / 2**54;
    such a chunk is drawn again as floats and argsorted, ordering its ties as
    before.
    """
    bits = rng.bit_generator
    state = bits.state
    packed = bits.random_raw(shape)
    packed &= ~_KEY_LOW_BITS
    packed |= male
    packed.sort(axis=1)
    # Flattened, a row boundary can only flag a tie that is not there.
    if np.diff(packed.ravel()).min() <= 1:
        bits.state = state
        return male[np.argsort(rng.random(shape), axis=1)]
    packed &= np.uint64(1)
    return packed.astype(bool)


def sex_permutation_tests(
    graph: UndirectedGraph,
    sex: np.ndarray,
    tolerances: Sequence[float],
    target_replicates: int = 1000,
    seed: int = 0,
) -> list[SexPermutationResult | ValueError]:
    """Mean-degree-constrained permutation tests of sex-typed tie counts, one per tolerance.

    ``sex`` holds each node's code: 0 male, 1 female, negative missing.
    Sex labels are permuted among sex-observed nodes only; a replicate
    counts at a tolerance when both permuted group mean degrees satisfy
    ``|mean*/mean - 1| <= tolerance``.  Every tolerance filters the same
    seeded stream of candidate permutations, drawn in batches of
    ``_BATCH_SIZE`` until each tolerance has ``target_replicates``
    replicates or has failed, so a tolerance's result equals a test at that
    tolerance alone.  A candidate gives the sex-observed nodes' labels the
    order of their uniform keys: ``_permuted_males`` sorts the keys' raw
    draws packed with the male bits, which is exactly ``np.argsort`` of
    ``Generator.random`` keys, and a candidate's male degree total is one
    matrix-vector product.  Each batch is drawn and filtered in chunks of about
    ``_CHUNK_ELEMENTS`` keys, so the working set is bounded by that budget
    (times the mean degree for the tie counts) rather than by the batch
    size times the node count; a batch stops early once every tolerance
    open at its start is complete.  ``n_attempts`` counts whole batches:
    the attempts drawn when the tolerance finished, its last batch included
    in full.  Two-sided Monte Carlo p-values use the doubled smaller tail
    with add-one correction, capped at 1.

    Returns one entry per tolerance, in order: its result, or the
    ``ValueError`` when its valid-replicate acceptance rate is below 0.1%
    after ``_MAX_ATTEMPTS`` attempts.  Raises ``ValueError`` on a tolerance
    that is not positive (NaN included), on ``sex`` codes that are not one
    integer per node or include one above 1, and on a single-sex network.
    """
    if any(not t > 0 for t in tolerances):
        raise ValueError("tolerance must be positive")
    if target_replicates < 1:
        raise ValueError("target_replicates must be at least 1")
    sex = _node_labels(sex, graph.node_count, "sex")
    if (sex > 1).any():
        raise ValueError("sex codes must be 0 (male), 1 (female) or negative (missing)")
    observed_mask = sex >= 0
    observed_idx = np.flatnonzero(observed_mask)
    male = sex[observed_idx] == 0
    n_male = int(male.sum())
    n_female = int(observed_idx.size - n_male)
    if n_male == 0 or n_female == 0:
        raise ValueError("sex permutation test requires both sexes to be present")

    deg = graph.degrees[observed_idx].astype(float)
    deg_total = float(deg.sum())
    male_mean = float(deg[male].mean())
    female_mean = float(deg[~male].mean())

    eu_o, ev_o = _edges_within(graph, observed_mask)
    # Degrees within the ties among sex-observed nodes.
    inner_degree = np.bincount(np.concatenate([eu_o, ev_o]), minlength=observed_idx.size)

    def _tie_counts(male_rows: np.ndarray) -> np.ndarray:
        """(mm, mf, ff) tie counts for each row of a (replicates, nodes) male mask."""
        # Node-major, so each tie end gathers one contiguous row of replicates.
        by_node = np.ascontiguousarray(male_rows.T)
        mm = (by_node[eu_o] & by_node[ev_o]).sum(axis=0)
        # Summed inner degrees of the males count each mm tie twice, each mf tie once.
        mf = male_rows @ inner_degree - 2 * mm
        return np.column_stack([mm, mf, eu_o.size - mm - mf])

    observed = TieTriple(*(int(c) for c in _tie_counts(male[None, :])[0]))

    # Per tolerance: male low/high and female low/high mean-degree bounds,
    # the replicates taken so far and the valid candidates seen so far.
    tol = np.asarray(tolerances, dtype=float)
    scale = np.column_stack([1.0 - tol, 1.0 + tol])
    bounds = np.hstack([male_mean * scale, female_mean * scale])
    counts = np.empty((tol.size, target_replicates, 3), dtype=np.int64)
    male_means = np.empty((tol.size, target_replicates))
    female_means = np.empty((tol.size, target_replicates))
    collected = np.zeros(tol.size, dtype=np.int64)
    valid_total = np.zeros(tol.size, dtype=np.int64)
    outcomes: list[SexPermutationResult | ValueError | None] = [None] * tol.size
    pending = np.arange(tol.size)
    seed_entropy = int(seed) % (2**63)
    # Consecutive draws of chunk_rows rows reproduce the rows of one
    # (_BATCH_SIZE, n) draw, so the chunking does not change the stream.
    chunk_rows = max(1, min(_BATCH_SIZE, _CHUNK_ELEMENTS // deg.size))
    attempts = 0
    batch_index = 0
    while pending.size:
        rng = np.random.default_rng(np.random.SeedSequence([seed_entropy, batch_index]))
        for start in range(0, _BATCH_SIZE, chunk_rows):
            open_now = pending[collected[pending] < target_replicates]
            if not open_now.size:
                # No tolerance needs the rest of the batch, nor its valid count.
                break
            shape = (min(chunk_rows, _BATCH_SIZE - start), deg.size)
            male_mat = _permuted_males(rng, shape, male)
            # Exact: the degrees are integers and their sums stay below 2**53.
            md = male_mat @ deg / n_male
            fd = (deg_total - md * n_male) / n_female
            m_lo, m_hi, f_lo, f_hi = bounds[open_now].T[:, :, None]
            accept = (md >= m_lo) & (md <= m_hi) & (fd >= f_lo) & (fd <= f_hi)
            valid_total[open_now] += accept.sum(axis=1)
            # Each tolerance takes its valid rows while their running count
            # stays within the replicates it still needs.
            rank = np.cumsum(accept, axis=1)
            take = accept & (rank <= target_replicates - collected[open_now, None])
            t, rows = np.nonzero(take)
            # Tie counts once for every row some tolerance takes.
            union = np.flatnonzero(take.any(axis=0))
            k = open_now[t]
            slot = collected[k] + rank[t, rows] - 1
            counts[k, slot] = _tie_counts(male_mat[union])[np.searchsorted(union, rows)]
            male_means[k, slot] = md[rows]
            female_means[k, slot] = fd[rows]
            collected[open_now] += take.sum(axis=1)
        attempts += _BATCH_SIZE
        batch_index += 1
        for k in pending.tolist():
            valid_rate = int(valid_total[k]) / attempts
            if collected[k] == target_replicates:
                outcomes[k] = _permutation_result(
                    observed,
                    counts[k],
                    tolerance=tolerances[k],
                    n_attempts=attempts,
                    male_mean_degree=male_mean,
                    female_mean_degree=female_mean,
                    male_degree_bounds=tuple(bounds[k, :2].tolist()),
                    female_degree_bounds=tuple(bounds[k, 2:].tolist()),
                    replicate_male_mean_degrees=male_means[k],
                    replicate_female_mean_degrees=female_means[k],
                )
            elif attempts >= _MAX_ATTEMPTS and valid_rate < 0.001:
                outcomes[k] = ValueError(
                    f"valid-replicate acceptance rate {valid_rate:.4%} below 0.1% "
                    f"after {attempts} attempts; consider a larger tolerance"
                )
        pending = pending[[outcomes[k] is None for k in pending.tolist()]]
    return outcomes


def sex_permutation_test(
    graph: UndirectedGraph,
    sex: np.ndarray,
    tolerance: float,
    target_replicates: int = 1000,
    seed: int = 0,
) -> SexPermutationResult:
    """``sex_permutation_tests`` at one tolerance, raising its acceptance-rate error."""
    (outcome,) = sex_permutation_tests(graph, sex, (tolerance,), target_replicates, seed)
    if isinstance(outcome, ValueError):
        raise outcome
    return outcome


def _mean_and_variance(x: np.ndarray) -> tuple[float, float]:
    """Mean and unbiased variance in the steps ``scipy.stats.ttest_ind`` takes."""
    mean = x.mean()
    n = float(x.size)
    return mean, ((x - mean) ** 2).mean() * (n / (n - 1.0))


def degree_missingness_ttest(graph: UndirectedGraph, labels: np.ndarray) -> tuple[float, float]:
    """Welch two-sample t-test of degrees, nodes with a label >= 0 vs missing ones.

    ``labels`` holds one integer per node, negative where it is missing.
    Positive statistic means the observed group has the higher mean degree.
    Both groups must have at least 2 members.  The statistic is computed
    in closed form by the steps of
    ``scipy.stats.ttest_ind(a, b, equal_var=False)`` and equals its
    statistic.  The p-value uses segnet's own Student t CDF
    (``_special.stdtr``), so it differs from scipy's in the last digits
    (by at most ~3e-14 relative for df up to 62).
    """
    present = _node_labels(labels, graph.node_count, "labels") >= 0
    deg = graph.degrees.astype(float)
    a = deg[present]
    b = deg[~present]
    if a.size < 2 or b.size < 2:
        raise ValueError(
            f"both groups need at least 2 nodes (observed {a.size}, missing {b.size})"
        )
    mean_a, var_a = _mean_and_variance(a)
    mean_b, var_b = _mean_and_variance(b)
    if var_a == 0.0 and var_b == 0.0:
        # Degenerate Welch limit: zero pooled variability.
        if mean_a == mean_b:
            return 0.0, 1.0
        return (math.inf if mean_a > mean_b else -math.inf), 0.0
    vn_a = var_a / a.size
    vn_b = var_b / b.size
    # scipy maps a NaN df to 1; it is NaN only when both variances are 0,
    # which returned above, so df is finite here.
    df = (vn_a + vn_b) ** 2 / (vn_a**2 / (a.size - 1) + vn_b**2 / (b.size - 1))
    t = (mean_a - mean_b) / np.sqrt(vn_a + vn_b)
    return float(t), float(2 * stdtr(df, -abs(t)))

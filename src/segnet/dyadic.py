"""Dyad-level assortativity: similarity features, logistic fits, permutation nulls.

Every unordered pair of complete-case nodes becomes one observation whose
outcome is tie presence.  Discrete attributes contribute match indicators,
numeric ones absolute differences (optionally on binned values).  Pairs with
the same feature row are grouped into one binomial count (dyads, ties), so
the logistic fit runs on at most 2^p rows for p match features instead of
on every pair, with the same likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np
from scipy import stats
from scipy.special import expit, stdtr

from .attributes import (
    CATEGORICAL_ATTRIBUTES,
    NUMERIC_ATTRIBUTES,
    AttributeTable,
    complete_case_mask,
)
from .graph import UndirectedGraph

__all__ = [
    "FeatureEncoding",
    "FeatureSpec",
    "DyadDesign",
    "FitOptions",
    "LogisticFit",
    "TieTriple",
    "SexPermutationResult",
    "build_dyad_design",
    "default_feature_spec",
    "fit_logistic",
    "sex_permutation_test",
    "sex_permutation_tests",
    "degree_missingness_ttest",
]

@dataclass(frozen=True)
class FeatureEncoding:
    """How one attribute turns into a dyad feature.

    ``match`` yields 1 when both endpoints carry the same (possibly binned)
    value; ``difference`` yields |v_i - v_j| and is only meaningful for
    numeric attributes.
    """

    kind: str = "match"
    bins: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("match", "difference"):
            raise ValueError(f"unknown encoding kind {self.kind!r}")


@dataclass(frozen=True)
class FeatureSpec:
    """Ordered attribute -> encoding mapping defining the dyad design columns."""

    encodings: Mapping[str, FeatureEncoding]

    def __post_init__(self) -> None:
        for attr, enc in self.encodings.items():
            if attr not in CATEGORICAL_ATTRIBUTES and attr not in NUMERIC_ATTRIBUTES:
                raise ValueError(f"unknown attribute {attr!r}")
            if enc.kind == "difference" and attr not in NUMERIC_ATTRIBUTES:
                raise ValueError(f"difference encoding requires a numeric attribute, got {attr!r}")
            if enc.bins is not None and attr not in NUMERIC_ATTRIBUTES:
                raise ValueError(f"bins only apply to numeric attributes, got {attr!r}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.encodings)

    def restrict(self, attrs: Sequence[str]) -> "FeatureSpec":
        return FeatureSpec({a: self.encodings[a] for a in attrs})


def default_feature_spec(
    age_bins: Sequence[float] | None = None,
    education_bins: Sequence[float] | None = None,
) -> FeatureSpec:
    """Match indicators on every attribute, with age and education binned."""
    from .attributes import DEFAULT_AGE_BINS, DEFAULT_EDUCATION_BINS

    age = tuple(age_bins) if age_bins is not None else DEFAULT_AGE_BINS
    edu = tuple(education_bins) if education_bins is not None else DEFAULT_EDUCATION_BINS
    return FeatureSpec(
        {
            "sex": FeatureEncoding("match"),
            "age": FeatureEncoding("match", age),
            "religion": FeatureEncoding("match"),
            "caste": FeatureEncoding("match"),
            "education": FeatureEncoding("match", edu),
            "workflag": FeatureEncoding("match"),
            "savings": FeatureEncoding("match"),
        }
    )


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
    return (a == b).astype(float) if kind == "match" else np.abs(a - b)


def build_dyad_design(
    graph: UndirectedGraph, table: AttributeTable, spec: FeatureSpec
) -> DyadDesign:
    """Assemble the grouped dyad design over complete-case nodes of ``graph``.

    Nodes with identical feature values form a type.  Each unordered pair of
    types (a type with itself included) holds n_a * n_b dyads, or
    C(n_a, 2) within one type, and all of them share one feature row; type
    pairs with equal rows are merged.  Ties are counted in one pass over the
    edges.  Raises if fewer than two nodes are observed on every attribute
    in the spec.
    """
    if table.n != graph.node_count:
        raise ValueError("attribute table does not align with the graph")
    names = spec.names
    if not names:
        raise ValueError("feature spec is empty")
    mask = complete_case_mask(table, names)
    node_index = np.flatnonzero(mask)
    k = int(node_index.size)
    if k < 2:
        raise ValueError(f"need at least 2 complete-case nodes, found {k}")

    kinds = [spec.encodings[attr].kind for attr in names]
    columns = []
    for attr in names:
        enc = spec.encodings[attr]
        if enc.kind == "match" or enc.bins is not None:
            values = table.labels(attr, enc.bins).astype(float)
        else:
            values = table.values(attr)
        columns.append(values[node_index])
    types, node_type, type_size = np.unique(
        np.column_stack(columns), axis=0, return_inverse=True, return_counts=True
    )
    n_types = type_size.size
    ta, tb = np.triu_indices(n_types)
    pairs = np.where(ta == tb, type_size[ta] * (type_size[ta] - 1) // 2, type_size[ta] * type_size[tb])

    # Mixed-radix key over per-column value codes: equal keys <=> equal rows,
    # and key order is the rows' lexicographic order.
    key = np.zeros(ta.size, dtype=np.int64)
    radix = 1
    for kind, col in zip(kinds, types.T):
        feature = _pair_feature(kind, col[ta], col[tb])
        if kind == "match":
            n_levels, code = 2, feature.astype(np.int64)
        else:
            levels, code = np.unique(feature, return_inverse=True)
            n_levels = levels.size
        if radix * n_levels >= 2**62:  # re-rank so the key cannot overflow
            _, key = np.unique(key, return_inverse=True)
            radix = int(key.max()) + 1
        key = key * n_levels + code
        radix *= n_levels
    _, first, row_of = np.unique(key, return_index=True, return_inverse=True)
    row_pairs = np.bincount(row_of, weights=pairs).astype(np.int64)

    type_of = np.full(graph.node_count, -1, dtype=np.int64)
    type_of[node_index] = node_type.reshape(-1)
    tu = type_of[graph.edge_u]
    tv = type_of[graph.edge_v]
    keep = (tu >= 0) & (tv >= 0)
    lo = np.minimum(tu[keep], tv[keep])
    hi = np.maximum(tu[keep], tv[keep])
    # Position of type pair (lo, hi) in triu_indices order.
    tri = lo * n_types - lo * (lo - 1) // 2 + (hi - lo)
    row_ties = np.bincount(row_of[tri], minlength=first.size)

    X = np.column_stack(
        [_pair_feature(kind, col[ta[first]], col[tb[first]]) for kind, col in zip(kinds, types.T)]
    )
    # A type of one node paired with itself holds no dyad.
    held = row_pairs > 0
    return DyadDesign(node_index, tuple(names), X[held], row_pairs[held], row_ties[held])


@dataclass(frozen=True)
class FitOptions:
    """Newton/IRLS controls for the dyadic logistic model."""

    max_iter: int = 100
    tol: float = 1e-8
    divergence_bound: float = 30.0


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


def fit_logistic(design: DyadDesign, options: FitOptions = FitOptions()) -> LogisticFit:
    """Fit tie probability on dyad features by Newton-Raphson (IRLS).

    Each design row is a binomial count of ties among its dyads, so the
    likelihood equals the one over individual dyads.  Convergence means
    every coefficient moved by less than ``options.tol`` in the last step.
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
    for iteration in range(1, options.max_iter + 1):
        H, grad = _information(design, Xb, beta)
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            diagnostic = "singular information matrix"
            break
        beta = beta + step
        if np.abs(beta).max() > options.divergence_bound:
            diagnostic = "coefficients diverging; data are likely completely separated"
            break
        if np.abs(step).max() < options.tol:
            converged = True
            break
    else:
        diagnostic = f"no convergence within {options.max_iter} iterations"

    H, _ = _information(design, Xb, beta)
    try:
        covariance = np.linalg.inv(H)
        se = np.sqrt(np.diag(covariance))
    except np.linalg.LinAlgError:
        se = np.full(p + 1, np.nan)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = beta / se
        p_values = 2.0 * stats.norm.sf(np.abs(z))
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


@dataclass
class _Collection:
    """Replicates one tolerance has accepted so far from the shared candidate stream."""

    tolerance: float
    male_bounds: tuple[float, float]
    female_bounds: tuple[float, float]
    counts: np.ndarray
    male_means: np.ndarray
    female_means: np.ndarray
    collected: int = 0
    valid_total: int = 0


def _permutation_result(
    c: _Collection,
    observed: TieTriple,
    n_attempts: int,
    male_mean: float,
    female_mean: float,
) -> SexPermutationResult:
    counts = c.counts
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
        tolerance=c.tolerance,
        n_attempts=n_attempts,
        male_mean_degree=male_mean,
        female_mean_degree=female_mean,
        male_degree_bounds=c.male_bounds,
        female_degree_bounds=c.female_bounds,
        replicate_male_mean_degrees=c.male_means,
        replicate_female_mean_degrees=c.female_means,
        replicate_counts=counts,
    )


def sex_permutation_tests(
    graph: UndirectedGraph,
    table: AttributeTable,
    tolerances: Sequence[float],
    target_replicates: int = 1000,
    seed: int = 0,
    max_attempts: int = 1_000_000,
    batch_size: int = 512,
) -> list[SexPermutationResult | ValueError]:
    """Mean-degree-constrained permutation tests of sex-typed tie counts, one per tolerance.

    Sex labels are permuted among sex-observed nodes only; a replicate
    counts at a tolerance when both permuted group mean degrees satisfy
    ``|mean*/mean - 1| <= tolerance``.  Every tolerance filters the same
    seeded stream of candidate permutations, drawn batch by batch until
    each tolerance has ``target_replicates`` replicates or has failed, so a
    tolerance's result (``n_attempts`` included: the attempts drawn when it
    finished) equals a test at that tolerance alone.  Two-sided Monte Carlo
    p-values use the doubled smaller tail with add-one correction, capped
    at 1.

    Returns one entry per tolerance, in order: its result, or the
    ``ValueError`` when its valid-replicate acceptance rate is below 0.1%
    after ``max_attempts`` attempts.  Raises on a non-positive tolerance and
    on a single-sex network.
    """
    if any(t <= 0 for t in tolerances):
        raise ValueError("tolerance must be positive")
    if target_replicates < 1:
        raise ValueError("target_replicates must be at least 1")
    sex = table.labels("sex")
    if sex.shape != (graph.node_count,):
        raise ValueError("attribute table does not align with the graph")
    observed_idx = np.flatnonzero(sex >= 0)
    male = sex[observed_idx] == 0
    n_male = int(male.sum())
    n_female = int(observed_idx.size - n_male)
    if n_male == 0 or n_female == 0:
        raise ValueError("sex permutation test requires both sexes to be present")

    deg = graph.degrees[observed_idx].astype(float)
    deg_total = float(deg.sum())
    male_mean = float(deg[male].mean())
    female_mean = float(deg[~male].mean())

    pos = np.full(graph.node_count, -1, dtype=np.int64)
    pos[observed_idx] = np.arange(observed_idx.size)
    pu = pos[graph.edge_u]
    pv = pos[graph.edge_v]
    keep = (pu >= 0) & (pv >= 0)
    eu_o, ev_o = pu[keep], pv[keep]

    def _tie_counts(male_rows: np.ndarray) -> np.ndarray:
        """(mm, mf, ff) tie counts for each row of a (replicates, nodes) male mask."""
        a = male_rows[:, eu_o]
        b = male_rows[:, ev_o]
        mm = (a & b).sum(axis=1)
        ff = (~(a | b)).sum(axis=1)
        return np.column_stack([mm, eu_o.size - mm - ff, ff])

    observed = TieTriple(*(int(c) for c in _tie_counts(male[None, :])[0]))

    collections = [
        _Collection(
            tolerance=t,
            male_bounds=(male_mean * (1.0 - t), male_mean * (1.0 + t)),
            female_bounds=(female_mean * (1.0 - t), female_mean * (1.0 + t)),
            counts=np.empty((target_replicates, 3), dtype=np.int64),
            male_means=np.empty(target_replicates),
            female_means=np.empty(target_replicates),
        )
        for t in tolerances
    ]
    outcomes: list[SexPermutationResult | ValueError | None] = [None] * len(collections)
    pending = list(range(len(collections)))
    seed_entropy = int(seed) % (2**63)
    attempts = 0
    batch_index = 0
    while pending:
        rng = np.random.default_rng(np.random.SeedSequence([seed_entropy, batch_index]))
        keys = rng.random((batch_size, deg.size))
        order = np.argsort(keys, axis=1)
        male_mat = male[order]
        md = (male_mat * deg).sum(axis=1) / n_male
        fd = (deg_total - md * n_male) / n_female
        taken = {}
        for k in pending:
            c = collections[k]
            valid = (
                (md >= c.male_bounds[0])
                & (md <= c.male_bounds[1])
                & (fd >= c.female_bounds[0])
                & (fd <= c.female_bounds[1])
            )
            c.valid_total += int(valid.sum())
            taken[k] = np.flatnonzero(valid)[: target_replicates - c.collected]
        # Tie counts once for every row some tolerance takes.
        union = np.unique(np.concatenate(list(taken.values())))
        union_counts = _tie_counts(male_mat[union])
        attempts += batch_size
        batch_index += 1
        for k, rows in taken.items():
            c = collections[k]
            span = slice(c.collected, c.collected + rows.size)
            c.counts[span] = union_counts[np.searchsorted(union, rows)]
            c.male_means[span] = md[rows]
            c.female_means[span] = fd[rows]
            c.collected += rows.size
            if c.collected == target_replicates:
                outcomes[k] = _permutation_result(c, observed, attempts, male_mean, female_mean)
            elif attempts >= max_attempts and c.valid_total / attempts < 0.001:
                outcomes[k] = ValueError(
                    f"valid-replicate acceptance rate {c.valid_total / attempts:.4%} below 0.1% "
                    f"after {attempts} attempts; consider a larger tolerance"
                )
        pending = [k for k in pending if outcomes[k] is None]
    return outcomes


def sex_permutation_test(
    graph: UndirectedGraph,
    table: AttributeTable,
    tolerance: float,
    target_replicates: int = 1000,
    seed: int = 0,
    max_attempts: int = 1_000_000,
    batch_size: int = 512,
) -> SexPermutationResult:
    """``sex_permutation_tests`` at one tolerance, raising its acceptance-rate error."""
    (outcome,) = sex_permutation_tests(
        graph, table, (tolerance,), target_replicates, seed, max_attempts, batch_size
    )
    if isinstance(outcome, ValueError):
        raise outcome
    return outcome


def _mean_and_variance(x: np.ndarray) -> tuple[float, float]:
    """Mean and unbiased variance in the steps ``scipy.stats.ttest_ind`` takes."""
    mean = x.mean()
    n = float(x.size)
    return mean, ((x - mean) ** 2).mean() * (n / (n - 1.0))


def degree_missingness_ttest(
    graph: UndirectedGraph, table: AttributeTable, attr: str
) -> tuple[float, float]:
    """Welch two-sample t-test of degrees, attribute-observed vs missing nodes.

    Positive statistic means the observed group has the higher mean degree.
    Both groups must have at least 2 members.  The statistic and p-value
    are computed in closed form by the steps of
    ``scipy.stats.ttest_ind(a, b, equal_var=False)`` and equal its result.
    """
    present = table.is_present(attr)
    if present.shape != (graph.node_count,):
        raise ValueError("attribute table does not align with the graph")
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

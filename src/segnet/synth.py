"""Synthetic network generators with planted structure, for oracle testing.

Both generators return datasets in the same shape the ingest layer produces,
so the whole analysis pipeline runs on them unchanged.  Identical seeds give
bit-identical datasets.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ._special import expit
from .attributes import ATTRIBUTE_NAMES, AttributeTable, missing_value, parse_cell
from .community import Partition
from .ingest import VillageDataset

__all__ = [
    "AttributedSbmConfig",
    "generate_attribute_sbm",
    "generate_dyad_sample",
]

# Mean degree at which an Erdos-Renyi giant component is expected to cover
# half the nodes (solution of s = 1 - exp(-c s) at s = 1/2).
_HALF_COVERAGE_MEAN_DEGREE = 2.0 * math.log(2.0)


@dataclass(frozen=True)
class AttributedSbmConfig:
    """Stochastic block model with block-linked attribute values.

    ``attribute_rule`` gives, per block, either a single category value or a
    category -> probability mapping for ``attribute_name``.
    ``extra_attribute_laws`` optionally draws further attributes iid across
    nodes.  ``missing_rate`` blanks each generated attribute value
    independently.
    """

    block_sizes: tuple[int, ...]
    p_in: float
    p_out: float
    attribute_rule: tuple[str | Mapping[str, float], ...]
    seed: int
    attribute_name: str = "caste"
    village_id: str = "sbm"
    extra_attribute_laws: Mapping[str, Mapping[str, float]] = field(default_factory=dict)
    missing_rate: float = 0.0

    def __post_init__(self) -> None:
        if not self.block_sizes or any(s < 1 for s in self.block_sizes):
            raise ValueError("block sizes must be positive")
        if not (0.0 <= self.p_out <= self.p_in <= 1.0):
            raise ValueError("need 0 <= p_out <= p_in <= 1")
        if len(self.attribute_rule) != len(self.block_sizes):
            raise ValueError("attribute_rule must give one entry per block")
        if not (0.0 <= self.missing_rate < 1.0):
            raise ValueError("missing_rate must be in [0, 1)")


def _draw_column(
    rng: np.random.Generator, attr: str, law: Mapping[str, float], size: int
) -> list[int | float]:
    """``size`` iid draws from ``law`` (cell text -> probability) as ``attr`` column values."""
    texts = list(law)
    probs = np.asarray([law[k] for k in texts], dtype=float)
    if probs.min() < 0 or not math.isclose(float(probs.sum()), 1.0, abs_tol=1e-9):
        raise ValueError("category probabilities must be non-negative and sum to 1")
    picks = rng.choice(len(texts), size=size, p=probs / probs.sum())
    return [parse_cell(attr, texts[k].strip()) for k in picks.tolist()]


def generate_attribute_sbm(
    config: AttributedSbmConfig,
) -> tuple[VillageDataset, Partition]:
    """Sample an attributed stochastic block model.

    Returns the dataset together with the planted block partition on the
    generated graph.  Warns (never raises) when the expected mean degree is
    low enough that the largest component likely covers under half the nodes.
    """
    rng = np.random.default_rng(config.seed)
    sizes = np.asarray(config.block_sizes, dtype=np.int64)
    n = int(sizes.sum())
    block_of = np.repeat(np.arange(sizes.size), sizes)
    starts = np.concatenate([[0], np.cumsum(sizes)])

    expected_degree = float(
        (
            sizes / n * ((sizes - 1) * config.p_in + (n - sizes) * config.p_out)
        ).sum()
    )
    if expected_degree < _HALF_COVERAGE_MEAN_DEGREE:
        warnings.warn(
            f"expected mean degree {expected_degree:.3f} is below {_HALF_COVERAGE_MEAN_DEGREE:.3f}; "
            "the largest component will likely cover under half the nodes",
            stacklevel=2,
        )

    width = max(1, len(str(n - 1)))
    node_ids = tuple(f"n{i:0{width}d}" for i in range(n))
    pairs = [np.empty((0, 2), np.int64)]
    for a in range(sizes.size):
        lo_a, hi_a = int(starts[a]), int(starts[a + 1])
        iu, ju = np.triu_indices(hi_a - lo_a, k=1)
        if iu.size:
            hit = rng.random(iu.size) < config.p_in
            pairs.append(np.column_stack([iu[hit], ju[hit]]) + lo_a)
        for b in range(a + 1, sizes.size):
            lo_b, hi_b = int(starts[b]), int(starts[b + 1])
            hit = rng.random((hi_a - lo_a, hi_b - lo_b)) < config.p_out
            pairs.append(np.argwhere(hit) + [lo_a, lo_b])

    name = config.attribute_name
    columns = {attr: np.full(n, missing_value(attr)) for attr in ATTRIBUTE_NAMES}
    for b, rule in enumerate(config.attribute_rule):
        size = int(sizes[b])
        if isinstance(rule, str):
            values = [parse_cell(name, rule.strip())] * size
        else:
            values = _draw_column(rng, name, rule, size)
        columns[name][starts[b] : starts[b + 1]] = values
    for attr, law in config.extra_attribute_laws.items():
        if attr == name:
            raise ValueError(f"{attr!r} is already driven by the block rule")
        if attr not in ATTRIBUTE_NAMES:
            raise ValueError(f"unknown attribute {attr!r}")
        columns[attr][:] = _draw_column(rng, attr, law, n)
    if config.missing_rate > 0.0:
        for attr in (name, *config.extra_attribute_laws):
            columns[attr][rng.random(n) < config.missing_rate] = missing_value(attr)

    table = AttributeTable(node_ids=node_ids, **columns)
    dataset = VillageDataset(config.village_id, table, {"sbm": np.concatenate(pairs)})
    planted = Partition.from_assignment(dataset.graph, block_of + 1)
    return dataset, planted


def generate_dyad_sample(
    beta0: float,
    betas: Mapping[str, float],
    feature_law: Mapping[str, Mapping[str, float]],
    n_nodes: int,
    seed: int,
    village_id: str = "dyadic",
) -> VillageDataset:
    """Sample a network whose ties follow the dyadic logistic model exactly.

    Each node draws a value per attribute from ``feature_law``; every
    unordered pair then ties with probability
    ``logistic(beta0 + sum_d beta_d x_d)`` where ``x_d`` indicates that the
    pair matches on attribute ``d`` of ``betas``.  Raises if any tie
    probability saturates to 0 or 1 in floating point.
    """
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    missing_laws = [a for a in betas if a not in feature_law]
    if missing_laws:
        raise ValueError(f"no feature law for attribute(s): {', '.join(missing_laws)}")
    for attr in feature_law:
        if attr not in ATTRIBUTE_NAMES:
            raise ValueError(f"unknown attribute {attr!r}")
    rng = np.random.default_rng(seed)
    width = max(1, len(str(n_nodes - 1)))
    node_ids = tuple(f"n{i:0{width}d}" for i in range(n_nodes))

    columns = {attr: np.full(n_nodes, missing_value(attr)) for attr in ATTRIBUTE_NAMES}
    for attr, law in feature_law.items():
        columns[attr][:] = _draw_column(rng, attr, law, n_nodes)
    table = AttributeTable(node_ids=node_ids, **columns)

    beta_vec = np.array(list(betas.values()))
    iu, ju = np.triu_indices(n_nodes, k=1)
    matches = [lab[iu] == lab[ju] for lab in map(table.labels, betas)]
    X = np.column_stack(matches).astype(float) if matches else np.empty((iu.size, 0))
    # expit runs per element in Python; the pairs share few distinct linear
    # predictors (at most 2^p with p match features), so evaluate those once.
    eta, inverse = np.unique(beta0 + X @ beta_vec, return_inverse=True)
    prob = expit(eta)[inverse]
    if prob.min() <= 0.0 or prob.max() >= 1.0:
        raise ValueError("tie probabilities saturate at 0 or 1; rescale the coefficients")
    hit = rng.random(prob.size) < prob
    return VillageDataset(village_id, table, {"dyads": np.column_stack([iu[hit], ju[hit]])})

"""Batch corpus analysis: per-village bundles, corpus tables, summaries.

A corpus directory holds one subdirectory per village in the canonical ingest
layout.  ``run_pipeline`` analyzes every village (optionally in parallel),
writes one JSON bundle per village plus corpus-level CSVs, and finishes with
min/median/max style summary tables.  Identical configuration reproduces
every artifact byte for byte; the worker count never influences content.

``analyze_village`` computes a village's largest connected component,
attribute labels and Louvain partition once, then fills the bundle from the
ordered section list ``_SECTIONS`` (network, degree_missingness_ttests,
dyadic, sex_permutation, partition, nmi, segregation, community_networks).
An analysis that cannot run becomes an ``"error"`` entry in its section.
Each corpus CSV and summary table is one ``_Table``: name, columns, rows.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .attributes import CATEGORICAL_ATTRIBUTES, AttributeTable
from .community import Partition, louvain, modularity_of_partition, nmi
from .config import (
    RunConfig,
    _hash_config_dict,
    _substantive_config_dict,
    config_sha256,
    load_run_config,  # not called here; perfbench/runner.py reads it by this name
)
from .dyadic import (
    FeatureSpec,
    LogisticFit,
    SexPermutationResult,
    TieTriple,
    build_dyad_design,
    degree_missingness_ttest,
    fit_logistic,
    sex_permutation_test,  # not called here; perfbench/spans.py wraps it by this name
    sex_permutation_tests,
)
from .graph import NetworkStats, UndirectedGraph, largest_connected_component, network_stats
from .ingest import _RESERVED_FILE_STEMS, IngestConfig, VillageDataset, load_village
from .segregation import (
    build_community_network,
    community_network_to_dot,
    segregation_report,
)

__all__ = [
    "RunResult",
    "analyze_village",
    "load_run_config",
    "run_pipeline",
    "summarize_corpus",
    "summarize_output_directory",
    "write_summaries",
]

SCHEMA_VERSION = 1

_TIE_TYPES = TieTriple._fields
_TMP_SUFFIX = ".tmp"  # of a file being written; see _atomic_open


def _feature_spec(cfg: RunConfig) -> FeatureSpec:
    kinds = {"age": cfg.age_encoding, "education": cfg.education_encoding}
    return FeatureSpec({attr: kinds.get(attr, "match") for attr in cfg.attributes})


def _derived_seed(base: int, village_id: str, salt: int) -> int:
    digest = hashlib.sha256(village_id.encode("utf-8")).digest()
    village_hash = int.from_bytes(digest[:8], "big")
    seq = np.random.SeedSequence([int(base) % (2**63), village_hash, salt])
    return int(seq.generate_state(1, np.uint64)[0])


def _dropped_features(design, spec: FeatureSpec) -> dict[str, str]:
    """Why each constant dyad feature of ``design`` cannot be fitted."""
    dropped: dict[str, str] = {}
    for attr, value in design.constant_features().items():
        if spec.kinds[attr] == "match":
            dropped[attr] = (
                "every pair matches (single observed value)"
                if value == 1.0
                else "no pair matches (all values distinct)"
            )
        else:
            dropped[attr] = "all values equal" if value == 0.0 else "only one dyad; feature is constant"
    return dropped


_FIT_SCALARS = ("converged", "n_iterations", "n_dyads", "n_ties", "diagnostic")


def _fit_to_dict(fit: LogisticFit) -> dict[str, Any]:
    columns = {
        "beta": fit.beta,
        "se": fit.std_errors,
        "odds_ratio": fit.odds_ratios,
        "ci_low": fit.ci95[:, 0],
        "ci_high": fit.ci95[:, 1],
        "p_value": fit.p_values,
    }
    return {
        "intercept": {"beta": fit.beta0, "se": fit.intercept_se},
        **{name: getattr(fit, name) for name in _FIT_SCALARS},
        "per_attribute": {
            attr: {key: float(column[i]) for key, column in columns.items()}
            for i, attr in enumerate(fit.feature_names)
        },
    }


# bundle key -> SexPermutationResult field holding one value per tie type
_PERMUTATION_TRIPLES = {
    "observed": "observed",
    "expected": "expected_mean",
    "ratio": "ratio",
    "p_values": "p_values",
    "verdicts": "verdicts",
}
_PERMUTATION_SCALARS = (
    "n_replicates",
    "n_attempts",
    "tolerance",
    "male_mean_degree",
    "female_mean_degree",
)


def _permutation_to_dict(result: SexPermutationResult) -> dict[str, Any]:
    return {
        **{key: getattr(result, name)._asdict() for key, name in _PERMUTATION_TRIPLES.items()},
        **{name: getattr(result, name) for name in _PERMUTATION_SCALARS},
    }


@dataclass(frozen=True)
class _Village:
    """What every bundle section of one village reads."""

    dataset: VillageDataset
    cfg: RunConfig
    lcc: UndirectedGraph
    table: AttributeTable  # rows aligned with the LCC's nodes
    labels: dict[str, np.ndarray]  # per attribute, binned once for every analysis
    partition: Partition


def _or_error(
    compute: Callable[..., dict], *args: Any, partial: Mapping[str, Any] | None = None
) -> dict:
    """``compute(*args)``, or ``partial`` plus the message when it raises ``ValueError``."""
    try:
        return compute(*args)
    except ValueError as exc:
        return {**(partial or {}), "error": str(exc)}


def _network_section(v: _Village) -> dict[str, Any]:
    return {
        "full": asdict(network_stats(v.dataset.graph, v.lcc)),
        "lcc": asdict(network_stats(v.lcc, v.lcc)),
    }


def _ttests_section(v: _Village) -> dict[str, Any]:
    def entry(attr: str) -> dict[str, Any]:
        t, p = degree_missingness_ttest(v.lcc, v.labels[attr])
        return {"t": t, "p_value": p}

    return {attr: _or_error(entry, attr) for attr in v.cfg.attributes}


def _fit_record(v: _Village, spec: FeatureSpec) -> dict[str, Any]:
    """One logistic fit of ``spec``'s features over their complete cases, or its error entry.

    Constant features are dropped and the rest refitted, so nodes missing
    only a dropped attribute rejoin the fit.  Keys set before a failure
    stay in the error entry.
    """
    record: dict[str, Any] = {}

    def fit() -> dict[str, Any]:
        complete = np.logical_and.reduce([v.labels[attr] >= 0 for attr in spec.names])
        record["n_complete_case_nodes"] = int(complete.sum())
        design = build_dyad_design(v.lcc, v.labels, spec)
        dropped = record["dropped"] = _dropped_features(design, spec)
        kept = [attr for attr in spec.names if attr not in dropped]
        if not kept:
            raise ValueError("every dyad feature is constant")
        if dropped:
            design = build_dyad_design(v.lcc, v.labels, spec.restrict(kept))
        return {**record, **_fit_to_dict(fit_logistic(design))}

    return _or_error(fit, partial=record)


def _dyadic_section(v: _Village) -> dict[str, Any]:
    spec = _feature_spec(v.cfg)
    if v.cfg.joint_model:
        return {"model": "joint", **_fit_record(v, spec)}
    per_attribute: dict[str, Any] = {}
    for attr in spec.names:
        record = per_attribute[attr] = _fit_record(v, spec.restrict([attr]))
        # The attribute's coefficients join the rest of its own fit's record.
        record.update(record.pop("per_attribute", {}).get(attr, {}))
    return {"model": "single", "per_attribute": per_attribute}


def _permutation_section(v: _Village) -> dict[str, Any]:
    tolerances = v.cfg.permutation_tolerances
    try:
        outcomes = sex_permutation_tests(
            v.lcc,
            v.table.labels("sex"),
            tolerances,
            target_replicates=v.cfg.permutation_replicates,
            seed=_derived_seed(v.cfg.permutation_seed, v.dataset.village_id, 1),
        )
    except ValueError as exc:
        outcomes = [exc] * len(tolerances)
    return {
        repr(float(t)): (
            {"tolerance": t, "error": str(outcome)}
            if isinstance(outcome, ValueError)
            else _permutation_to_dict(outcome)
        )
        for t, outcome in zip(tolerances, outcomes)
    }


def _partition_section(v: _Village) -> dict[str, Any]:
    return {
        "n_communities": v.partition.n_communities,
        "sizes": v.partition.sizes.tolist(),
        "modularity": modularity_of_partition(v.lcc, v.partition),
        "m_within": v.partition.m_within,
        "m_between": v.partition.m_between,
    }


def _nmi_section(v: _Village) -> dict[str, Any]:
    def entry(attr: str) -> dict[str, Any]:
        return asdict(nmi(v.labels[attr], v.partition.assignment))

    return {attr: _or_error(entry, attr) for attr in v.cfg.attributes}


def _segregation_section(v: _Village) -> dict[str, Any]:
    def entry(attr: str) -> dict[str, Any]:
        return asdict(segregation_report(v.lcc, v.labels[attr], v.partition))

    return {attr: _or_error(entry, attr) for attr in v.cfg.attributes}


def _community_networks_section(v: _Village) -> dict[str, Any]:
    def entry(attr: str) -> dict[str, Any]:
        net = build_community_network(
            v.lcc,
            v.partition,
            v.labels[attr],
            node_min_fraction=v.cfg.community_node_min,
            edge_min_fraction=v.cfg.community_edge_min,
            category_names=CATEGORICAL_ATTRIBUTES.get(attr),
        )
        return asdict(net)

    return {attr: _or_error(entry, attr) for attr in v.cfg.community_network_attributes}


# Bundle sections in the order they are computed.  Each maps the village to
# its entry; an analysis that cannot run records an "error" entry instead.
_SECTIONS: tuple[tuple[str, Callable[[_Village], dict[str, Any]]], ...] = (
    ("network", _network_section),
    ("degree_missingness_ttests", _ttests_section),
    ("dyadic", _dyadic_section),
    ("sex_permutation", _permutation_section),
    ("partition", _partition_section),
    ("nmi", _nmi_section),
    ("segregation", _segregation_section),
    ("community_networks", _community_networks_section),
)


# Sections holding one JSON object per attribute, tolerance or graph scope.
_KEYED_SECTIONS = tuple(name for name, _ in _SECTIONS if name not in ("dyadic", "partition"))

# The keys of a bundle as written to disk: analyze_village's, less its two private ones.
_BUNDLE_KEYS = frozenset(
    ("schema_version", "config_sha256", "config", "village_id", "relation_layers",
     "n_unmatched_attribute_rows", *(name for name, _ in _SECTIONS))
)


def analyze_village(dataset: VillageDataset, cfg: RunConfig) -> dict[str, Any]:
    """Full single-village analysis; returns the JSON-ready bundle.

    Two keys starting with ``_`` carry what the artifact writer needs besides
    the bundle: ``_partition_assignment``, the Louvain community of each LCC
    node, and ``_lcc_node_ids``, those nodes' ids in the same order.
    """
    lcc, nodes = largest_connected_component(dataset.graph)
    table = dataset.attributes.take(nodes)
    bins = {"age": cfg.age_bins or None, "education": cfg.education_bins or None}
    village = _Village(
        dataset=dataset,
        cfg=cfg,
        lcc=lcc,
        table=table,
        labels={attr: table.labels(attr, bins.get(attr)) for attr in cfg.attributes},
        partition=louvain(lcc, _derived_seed(cfg.louvain_seed, dataset.village_id, 0)),
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "config_sha256": config_sha256(cfg),
        "config": _substantive_config_dict(cfg),
        "village_id": dataset.village_id,
        "relation_layers": dict(dataset.relation_layers),
        "n_unmatched_attribute_rows": len(dataset.unmatched_attribute_ids),
        **{name: section(village) for name, section in _SECTIONS},
        "_partition_assignment": village.partition.assignment.tolist(),
        "_lcc_node_ids": list(table.node_ids),
    }


def _json_safe(obj: Any) -> Any:
    """``obj`` with tuples made lists and NaN or infinite floats made ``None``."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


@contextmanager
def _atomic_open(path: Path, newline: str | None = None) -> Iterator[TextIO]:
    """A text file that replaces ``path`` only once it is completely written.

    Writes go to a temporary file next to ``path``, which ``os.replace``
    moves into place on success, so a reader sees the old file or the new
    one, never a partial write.  A temporary file left by an interrupted run
    is deleted by the next run (``_remove_stale_artifacts``).  ``newline`` is
    passed to ``open``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + _TMP_SUFFIX)
    with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
        yield fh
    os.replace(tmp, path)


def _write_json(path: Path, obj: Any) -> None:
    with _atomic_open(path) as fh:
        fh.write(json.dumps(_json_safe(obj), indent=2, sort_keys=True) + "\n")


def _meta_line(config_hash: str) -> str:
    return f"# segnet schema={SCHEMA_VERSION} config_sha256={config_hash}"


def _write_csv(
    path: Path, fieldnames: Sequence[str], rows: Sequence[Mapping[str, Any]], config_hash: str
) -> None:
    """The meta line, a header and each row's ``fieldnames``; absent, None, NaN or inf is blank."""
    with _atomic_open(path, newline="") as fh:
        fh.write(_meta_line(config_hash) + "\n")
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        writer.writerows(_json_safe([row.get(k) for k in fieldnames]) for row in rows)


def _discover_villages(cfg: RunConfig) -> list[Path]:
    corpus = Path(cfg.corpus_dir)
    if not corpus.is_dir():
        return []
    villages = sorted(p for p in corpus.iterdir() if (p / "attributes.csv").is_file())
    if cfg.village_ids:
        wanted = set(cfg.village_ids)
        villages = [p for p in villages if p.name in wanted]
    return villages


def _load_village_dir(village_dir: Path, cfg: RunConfig) -> VillageDataset:
    edge_files = sorted(p for p in village_dir.glob("*.csv") if p.stem not in _RESERVED_FILE_STEMS)
    if not edge_files:
        raise ValueError(f"{village_dir}: no relation layer files")
    nodes = village_dir / "nodes.csv"
    return load_village(
        edge_files,
        village_dir / "attributes.csv",
        IngestConfig(
            village_id=village_dir.name,
            nodes_file=nodes if nodes.is_file() else None,
            coerce_unknown_categories=cfg.coerce_unknown_categories,
        ),
    )


def _write_village_artifacts(bundle: dict[str, Any], cfg: RunConfig, config_hash: str) -> list[Path]:
    """Write one village's bundle, partition and community networks; return their paths.

    Each community-network entry without an ``"error"`` is saved as JSON and rendered to DOT.
    """
    out = Path(cfg.output_dir)
    village_id = bundle["village_id"]
    assignment = bundle.pop("_partition_assignment")
    node_ids = bundle.pop("_lcc_node_ids")
    bundle_path = out / "bundles" / f"{village_id}.json"
    _write_json(bundle_path, bundle)

    partition_path = out / "partitions" / f"{village_id}.csv"
    rows = [
        {"node_id": nid, "community": comm} for nid, comm in zip(node_ids, assignment)
    ]
    _write_csv(partition_path, ("node_id", "community"), rows, config_hash)
    written = [bundle_path, partition_path]

    for attr, network in bundle["community_networks"].items():
        if "error" in network:
            continue
        dot_path = out / "community_networks" / f"{village_id}__{attr}.dot"
        json_path = out / "community_networks" / f"{village_id}__{attr}.json"
        _write_json(json_path, network)
        dot = community_network_to_dot(network, f"v_{village_id}")
        with _atomic_open(dot_path) as fh:
            fh.write(f"// {_meta_line(config_hash)[2:]}\n{dot}")
        written += [json_path, dot_path]
    return written


# village id, bundle, error message, files written
_Outcome = tuple[str, dict[str, Any] | None, str | None, list[Path]]


def _failed(village_id: str, exc: Exception) -> _Outcome:
    """A hard per-village failure; its message lands in the errors manifest."""
    return village_id, None, f"{type(exc).__name__}: {exc}", []


def _process_village(args: tuple[str, RunConfig]) -> _Outcome:
    village_dir, cfg = args
    path = Path(village_dir)
    try:
        dataset = _load_village_dir(path, cfg)
        bundle = analyze_village(dataset, cfg)
        written = _write_village_artifacts(bundle, cfg, bundle["config_sha256"])
        return path.name, bundle, None, written
    except Exception as exc:
        return _failed(path.name, exc)


_ARTIFACT_DIRS = ("bundles", "partitions", "community_networks")
_RUN_ARTIFACT_GLOBS = (
    "bundles/*.json",
    "partitions/*.csv",
    "community_networks/*.dot",
    "community_networks/*.json",
    "summary_*.csv",
    f"*{_TMP_SUFFIX}",
    *(f"{d}/*{_TMP_SUFFIX}" for d in _ARTIFACT_DIRS),
)


def _remove_stale_artifacts(out: Path, written: set[Path]) -> None:
    """Delete artifacts this run does not write, e.g. from a village that now fails.

    Covers the per-village files, the summaries, which a run without any
    analyzed village does not write, and temporary files an interrupted
    write left behind.  Only regular files go: a directory whose name
    matches, such as a village ``x.tmp`` in a corpus that is also the
    output_dir, stays.
    """
    for pattern in _RUN_ARTIFACT_GLOBS:
        for path in out.glob(pattern):
            if path not in written and path.is_file():
                path.unlink()


def _pooled_outcome(task: tuple[str, RunConfig], future: Future, rerun: bool) -> _Outcome:
    """A pooled village's outcome.

    A worker that dies (say, killed for memory) breaks its pool, and every
    village not yet finished in that pool raises ``BrokenProcessPool``.  Such
    a village reruns alone in a fresh single-worker pool, so it fails only
    when the worker running it dies.
    """
    try:
        return future.result()
    except Exception as exc:
        if rerun and isinstance(exc, BrokenProcessPool):
            with ProcessPoolExecutor(max_workers=1) as pool:
                alone = pool.submit(_process_village, task)
            return _pooled_outcome(task, alone, rerun=False)
        return _failed(Path(task[0]).name, exc)


@dataclass(frozen=True)
class RunResult:
    exit_code: int
    output_dir: str
    n_villages: int
    n_failed: int
    failures: Mapping[str, str]


def run_pipeline(cfg: RunConfig) -> RunResult:
    """Analyze every village in the corpus and write all artifacts.

    Refuses, before writing anything, an ``output_dir`` holding an
    ``attributes.csv``: its tables would be read as relation layers of that
    village on the next run.  So too one whose ``bundles``, ``partitions``
    or ``community_networks`` directory holds one: the run would write into
    that village and delete its tables.  So too one where a file the run
    writes at the top (a corpus table, a summary, ``errors.json``,
    ``run_manifest.json`` or the temporary file of one) is a directory,
    such as a village of that name: the run would fail after analyzing.
    """
    out = Path(cfg.output_dir)
    if (out / "attributes.csv").is_file():
        raise ValueError(f"output_dir {out} is a village directory: it holds an attributes.csv")
    for name in _ARTIFACT_DIRS:
        if (out / name / "attributes.csv").is_file():
            raise ValueError(
                f"output_dir {out} writes into {out / name}, a village directory: "
                "it holds an attributes.csv"
            )
    top_files = [f"{table.name}.csv" for table in _corpus_tables(())]
    top_files += [f"summary_{table.name}.csv" for table in _SUMMARY_TABLES]
    for name in (*top_files, "errors.json", "run_manifest.json"):
        for path in (out / name, out / f"{name}{_TMP_SUFFIX}"):
            if path.is_dir():
                raise ValueError(f"output_dir {out} writes the file {path}, which is a directory")
    out.mkdir(parents=True, exist_ok=True)
    config_hash = config_sha256(cfg)
    villages = _discover_villages(cfg)
    tasks = [(str(p), cfg) for p in villages]
    missing = set(cfg.village_ids) - {p.name for p in villages}
    workers = min(cfg.workers if cfg.workers > 0 else min(os.cpu_count() or 1, 8), len(tasks))
    if workers <= 1:
        outcomes = [_process_village(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_process_village, t) for t in tasks]
        outcomes = [_pooled_outcome(t, f, rerun=True) for t, f in zip(tasks, futures)]
    no_dir = FileNotFoundError("no village directory with an attributes.csv in corpus_dir")
    outcomes += [_failed(village_id, no_dir) for village_id in missing]

    bundles = []
    failures: dict[str, str] = {}
    written: set[Path] = set()
    for village_id, bundle, error, paths in sorted(outcomes, key=lambda r: r[0]):
        if error is not None:
            failures[village_id] = error
        else:
            bundles.append(bundle)
        written.update(paths)
    tables = summarize_corpus(bundles) if bundles else {}
    written.update(out / f"summary_{name}.csv" for name in tables)
    _remove_stale_artifacts(out, written)

    _write_corpus_tables(bundles, out, config_hash)
    write_summaries(tables, out, config_hash)
    errors = failures if outcomes else {"corpus": "no villages found"}
    _write_json(out / "errors.json", errors)
    _write_json(
        out / "run_manifest.json",
        {
            "schema_version": SCHEMA_VERSION,
            "config_sha256": config_hash,
            "config": _substantive_config_dict(cfg),
            "villages_analyzed": [b["village_id"] for b in bundles],
            "villages_failed": sorted(failures),
        },
    )
    exit_code = 0 if bundles and not failures else 1
    return RunResult(exit_code, str(out), len(outcomes), len(failures), errors)


@dataclass(frozen=True)
class _Table:
    """One CSV: its name, its columns and the function that yields its rows."""

    name: str
    columns: tuple[str, ...]
    rows: Callable[..., Iterable]


_Bundles = Sequence[Mapping[str, Any]]
_NETWORK_FIELDS = tuple(f.name for f in fields(NetworkStats))


def _network_rows(bundle: Mapping[str, Any]) -> Iterable[dict]:
    for scope in ("full", "lcc"):
        yield {"scope": scope, **bundle["network"][scope]}


def _dyadic_rows(bundle: Mapping[str, Any]) -> Iterable[dict]:
    for attr, entry in bundle["dyadic"].get("per_attribute", {}).items():
        if "error" not in entry:
            yield {"attribute": attr, **entry}


# permutation_results.csv column -> bundle key of the per-tie-type values
_PERMUTATION_COLUMNS = {
    "observed": "observed",
    "expected": "expected",
    "ratio": "ratio",
    "p_value": "p_values",
    "verdict": "verdicts",
}


def _permutation_rows(bundle: Mapping[str, Any]) -> Iterable[dict]:
    for entry in bundle["sex_permutation"].values():
        if "error" in entry:
            continue
        for tie in _TIE_TYPES:
            yield {
                "tolerance": entry["tolerance"],
                "tie_type": tie,
                **{column: entry[key][tie] for column, key in _PERMUTATION_COLUMNS.items()},
            }


def _nmi_rows(bundle: Mapping[str, Any]) -> Iterable[dict]:
    yield {attr: entry.get("value") for attr, entry in bundle["nmi"].items()}


def _segregation_rows(bundle: Mapping[str, Any]) -> Iterable[dict]:
    for attr, entry in bundle["segregation"].items():
        if "error" not in entry:
            yield {"attribute": attr, **entry}


def _corpus_tables(attributes: tuple[str, ...]) -> tuple[_Table, ...]:
    """The per-village CSVs; rows come from one bundle and gain its ``village`` column."""
    return (
        _Table("network_stats", ("village", "scope", *_NETWORK_FIELDS), _network_rows),
        _Table(
            "dyadic_results",
            ("village", "attribute", "odds_ratio", "ci_low", "ci_high", "p_value"),
            _dyadic_rows,
        ),
        _Table(
            "permutation_results",
            ("village", "tolerance", "tie_type", *_PERMUTATION_COLUMNS),
            _permutation_rows,
        ),
        _Table("nmi_matrix", ("village", *attributes), _nmi_rows),
        _Table(
            "segregation_results",
            ("village", "attribute", "q_attr", "q_within", "q_between", "q_within_norm",
             "q_between_norm", "n_used"),
            _segregation_rows,
        ),
    )


def _write_corpus_tables(bundles: Sequence[dict], out: Path, config_hash: str) -> None:
    attributes = tuple(bundles[-1]["config"]["attributes"]) if bundles else ()
    for table in _corpus_tables(attributes):
        rows = [{"village": b["village_id"], **row} for b in bundles for row in table.rows(b)]
        _write_csv(out / f"{table.name}.csv", table.columns, rows, config_hash)


def _spread(values: Sequence[float]) -> tuple[float | None, float | None, float | None]:
    if not values:
        return None, None, None
    arr = np.asarray(values, dtype=float)
    return float(arr.min()), float(np.median(arr)), float(arr.max())


def _mean(values: Sequence[float]) -> float | None:
    return float(np.mean(values)) if values else None


def _sd(values: Sequence[float]) -> float | None:
    return float(np.std(values, ddof=1)) if len(values) > 1 else None


def _pct(flags: Sequence[bool]) -> float | None:
    return 100.0 * float(np.mean(flags)) if flags else None


def _entries(bundles: Sequence[Mapping[str, Any]], section: str, key: str) -> list[dict]:
    """The ``key`` entries of ``section`` over all bundles, skipping absent and failed ones."""
    entries = (b[section].get(key) for b in bundles)
    return [e for e in entries if e and "error" not in e]


def _summary_network(bundles: _Bundles, config: Mapping[str, Any]) -> Iterable[tuple]:
    for scope in ("full", "lcc"):
        # n_components and the LCC fractions are trivially 1 within the LCC.
        for metric in _NETWORK_FIELDS if scope == "full" else _NETWORK_FIELDS[:5]:
            values = [b["network"][scope][metric] for b in bundles]
            yield scope, metric, len(values), *_spread(values)


def _summary_dyadic(bundles: _Bundles, config: Mapping[str, Any]) -> Iterable[tuple]:
    for attr in config["attributes"]:
        fits = []
        for b in bundles:
            dyadic = b["dyadic"]
            entry = dyadic.get("per_attribute", {}).get(attr)
            # A single-model entry is its own fit's record; joint entries share the section's.
            fit = entry if dyadic["model"] == "single" else dyadic
            if entry is not None and fit.get("converged"):
                fits.append(entry)
        nmi_values = [e["value"] for e in _entries(bundles, "nmi", attr)]
        yield (
            attr,
            len(fits),
            _pct([e["p_value"] < 0.05 for e in fits]),
            _pct([e["p_value"] < 0.05 and e["odds_ratio"] > 1.0 for e in fits]),
            *_spread([e["odds_ratio"] for e in fits]),
            _mean(nmi_values),
            _sd(nmi_values),
        )


def _summary_permutation(bundles: _Bundles, config: Mapping[str, Any]) -> Iterable[tuple]:
    for tolerance in (float(t) for t in config["permutation_tolerances"]):
        entries = _entries(bundles, "sex_permutation", repr(tolerance))
        for tie in _TIE_TYPES:
            verdicts = [e["verdicts"][tie] for e in entries]
            n = len(verdicts)
            yield (
                tolerance,
                tie,
                n,
                100.0 * verdicts.count("assortative") / n if n else None,
                100.0 * verdicts.count("dissortative") / n if n else None,
            )


def _summary_segregation(bundles: _Bundles, config: Mapping[str, Any]) -> Iterable[tuple]:
    for attr in config["attributes"]:
        entries = _entries(bundles, "segregation", attr)
        within = [e["q_within_norm"] for e in entries]
        between = [e["q_between_norm"] for e in entries]
        yield (
            attr,
            len(entries),
            _mean([e["q_attr"] for e in entries]),
            _mean(within),
            _sd(within),
            _pct([q > float(config["within_cutoff"]) for q in within]),
            _mean(between),
            _sd(between),
            _pct([q > 0.0 for q in between]),
            _pct([q > float(config["between_cutoff"]) for q in between]),
        )


def _summary_community_networks(bundles: _Bundles, config: Mapping[str, Any]) -> Iterable[tuple]:
    for attr in config["community_network_attributes"]:
        entries = _entries(bundles, "community_networks", attr)
        yield (
            attr,
            len(entries),
            _mean([e["node_fraction_retained"] for e in entries]),
            _mean([e["tie_fraction_retained"] for e in entries]),
        )


# The summary tables in the order they are written and printed, each to
# ``summary_<name>.csv``.  Their rows are computed over all bundles and yielded
# as tuples in column order.
_SUMMARY_TABLES = (
    _Table("network", ("scope", "metric", "n_villages", "min", "median", "max"), _summary_network),
    _Table(
        "dyadic",
        ("attribute", "n_fits", "pct_significant", "pct_assortative", "or_min", "or_median",
         "or_max", "nmi_mean", "nmi_sd"),
        _summary_dyadic,
    ),
    _Table(
        "permutation",
        ("tolerance", "tie_type", "n_villages", "pct_assortative", "pct_dissortative"),
        _summary_permutation,
    ),
    _Table(
        "segregation",
        ("attribute", "n_villages", "q_attr_mean", "q_within_norm_mean", "q_within_norm_sd",
         "pct_within_above_cutoff", "q_between_norm_mean", "q_between_norm_sd",
         "pct_between_positive", "pct_between_above_cutoff"),
        _summary_segregation,
    ),
    _Table(
        "community_networks",
        ("attribute", "n_villages", "node_fraction_mean", "tie_fraction_mean"),
        _summary_community_networks,
    ),
)


def summarize_corpus(bundles: Sequence[Mapping[str, Any]]) -> dict[str, list[dict]]:
    """Corpus-level tables (same content ``segnet summarize`` recomputes from disk)."""
    if not bundles:
        raise ValueError("no bundles to summarize")
    if len({b["config_sha256"] for b in bundles}) > 1:
        raise ValueError("bundles were produced by different configurations")
    config = bundles[0]["config"]
    return {
        table.name: [dict(zip(table.columns, row)) for row in table.rows(bundles, config)]
        for table in _SUMMARY_TABLES
    }


def write_summaries(tables: Mapping[str, list[dict]], out: Path, config_hash: str) -> None:
    for table in _SUMMARY_TABLES:
        if table.name in tables:
            path = out / f"summary_{table.name}.csv"
            _write_csv(path, table.columns, tables[table.name], config_hash)


def _read_json(path: Path) -> Any:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # a JSON or a UTF-8 decode error
        raise ValueError(f"{path}: not a JSON file: {exc}") from None


def _check_bundle(path: Path, bundle: Any) -> None:
    """Refuse a bundle that ``summarize_corpus`` cannot read, naming its file."""
    if not isinstance(bundle, dict) or bundle.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"{path}: not a bundle of schema version {SCHEMA_VERSION}")
    if bundle.keys() != _BUNDLE_KEYS:
        raise ValueError(
            f"{path}: bundle keys missing {sorted(_BUNDLE_KEYS - bundle.keys())}, "
            f"unexpected {sorted(bundle.keys() - _BUNDLE_KEYS)}"
        )
    for name, _ in _SECTIONS:
        if not isinstance(bundle[name], dict):
            raise ValueError(f"{path}: bundle section {name!r} is not a JSON object")
    for name in _KEYED_SECTIONS:
        for key, entry in bundle[name].items():
            if not isinstance(entry, dict):
                raise ValueError(f"{path}: bundle entry {name}.{key} is not a JSON object")
    if bundle["config_sha256"] != _hash_config_dict(bundle["config"]):
        raise ValueError(f"{path}: config_sha256 is not the hash of the bundle's config")
    try:
        summarize_corpus([bundle])
    except (LookupError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"{path}: bundle cannot be summarized: {type(exc).__name__}: {exc}") from None


def summarize_output_directory(directory: str | Path) -> dict[str, list[dict]]:
    """Recompute summary tables from the bundles of the run recorded in an output directory.

    Refuses, naming the file, when the bundles on disk are not exactly the
    villages that ``run_manifest.json`` lists as analyzed, when a file is not
    JSON, or when a bundle is not one that ``analyze_village`` writes at this
    ``SCHEMA_VERSION``: other top-level keys, a section or a section's
    per-attribute entry that is not a JSON object, a ``config_sha256`` that
    is not its config's hash, or any value deeper down the summaries cannot read.
    """
    out = Path(directory)
    bundle_files = sorted((out / "bundles").glob("*.json"))
    if not bundle_files:
        raise ValueError(f"no bundles found under {out / 'bundles'}")
    manifest_path = out / "run_manifest.json"
    if not manifest_path.is_file():
        raise ValueError(f"no run manifest at {manifest_path}")
    manifest = _read_json(manifest_path)
    listed = manifest.get("villages_analyzed") if isinstance(manifest, dict) else None
    if not isinstance(listed, list) or not all(isinstance(vid, str) for vid in listed):
        raise ValueError(f"{manifest_path}: 'villages_analyzed' is not a list of village ids")
    listed = set(listed)
    found = {p.stem for p in bundle_files}
    if found != listed:
        raise ValueError(
            f"bundles under {out / 'bundles'} do not match {manifest_path.name}: "
            f"not in the manifest {sorted(found - listed)}, missing {sorted(listed - found)}"
        )
    bundles = [_read_json(p) for p in bundle_files]
    for path, bundle in zip(bundle_files, bundles):
        _check_bundle(path, bundle)
    tables = summarize_corpus(bundles)
    write_summaries(tables, out, bundles[0]["config_sha256"])
    return tables

"""Batch corpus analysis: per-village bundles, corpus tables, summaries.

A corpus directory holds one subdirectory per village in the canonical ingest
layout.  ``run_pipeline`` analyzes every village (optionally in parallel),
writes one JSON bundle per village plus corpus-level CSVs, and finishes with
min/median/max style summary tables.  Identical configuration reproduces
every artifact byte for byte; the worker count never influences content.

``analyze_village`` computes a village's largest connected component,
attribute labels and Louvain partition once, then fills the bundle from the
ordered table ``_BUNDLE``, which also declares each key's spec: the schema
that ``segnet summarize`` checks every bundle against.  An analysis that
cannot run becomes an ``"error"`` entry in its section.  Each corpus CSV and
summary table is one ``_Table``: name, columns, rows.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from collections import abc
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TextIO
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .attributes import CATEGORICAL_ATTRIBUTES, AttributeTable
from .community import NmiResult, Partition, louvain, modularity_of_partition, nmi
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
    CommunityNetwork,
    SegregationReport,
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
_SCOPES = ("full", "lcc")  # the graphs a bundle's network statistics describe
_TMP_SUFFIX = ".tmp"  # of a file being written; see _atomic_open


def _feature_spec(cfg: RunConfig) -> FeatureSpec:
    kinds = {"age": cfg.age_encoding, "education": cfg.education_encoding}
    return FeatureSpec({attr: kinds.get(attr, "match") for attr in cfg.attributes})


def _derived_seed(base: int, village_id: str, salt: int) -> int:
    digest = hashlib.sha256(village_id.encode("utf-8")).digest()
    village_hash = int.from_bytes(digest[:8], "big")
    seq = np.random.SeedSequence([base % (2**63), village_hash, salt])
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


def _tolerance_key(tolerance: float) -> str:
    return repr(float(tolerance))  # of the tolerance's sex_permutation entry


# The bundle schema, which ``_check`` walks.  A spec is one of:
# - a JSON kind: its name, then the Python types ``json.loads`` gives for it;
# - a frozenset: the words a string may be;
# - a dict: an object with exactly its keys; an ``_Entry`` may instead hold an
#   "error" message and any of its keys, as an analysis that failed leaves it;
# - a one-spec list: a list of that spec;
# - a function of the bundle's config and the value that returns the spec.
# A result record's spec comes from its dataclass's field annotations.
_STRING, _BOOL, _OBJECT = ("a string", str), ("a boolean", bool), ("an object", dict)
_COUNT = ("a count", int)  # every integer in a bundle counts or numbers something, so is >= 0
_FLOAT = ("a number or null", int, float, type(None))  # NaN and infinities are written as null
_HINTS = {str: _STRING, bool: _BOOL, int: _COUNT, float: _FLOAT,
          str | None: ("a string or null", str, type(None))}


class _Entry(dict):
    """An object spec whose value may instead be an error entry."""


def _map(item: Any) -> Callable:
    """An object with any keys, each holding ``item``."""
    return lambda config, value: dict.fromkeys(value if isinstance(value, dict) else (), item)


def _record(cls: type, names: Iterable[str] | None = None) -> dict[str, Any]:
    """The spec of the dataclass ``cls``, or of its fields ``names``, from their annotations."""
    hints = get_type_hints(cls)
    return {name: _spec(hints[name]) for name in (hints if names is None else names)}


def _spec(hint: Any) -> Any:
    """The spec of a field annotated ``hint``: a JSON kind, a record, or a list or map of one."""
    if hint in _HINTS:
        return _HINTS[hint]
    if get_origin(hint) is tuple:  # tuple[Record, ...]
        return [_spec(get_args(hint)[0])]
    return _map(_spec(get_args(hint)[1])) if get_origin(hint) is abc.Mapping else _record(hint)


def _scalars(cls: type, exclude: Iterable[str] = ()) -> tuple[str, ...]:
    """The fields of the dataclass ``cls`` that hold one JSON value, less ``exclude``."""
    return tuple(n for n, h in get_type_hints(cls).items() if h in _HINTS and n not in exclude)


# A fit record's keys besides LogisticFit's scalars, and the dyadic section's.
_N_COMPLETE, _DROPPED, _INTERCEPT, _PER_ATTRIBUTE, _MODEL = (
    "n_complete_case_nodes", "dropped", "intercept", "per_attribute", "model"
)
_MODELS = ("single", "joint")  # indexed by joint_model
# A coefficient's record; the intercept's holds the first two, from these LogisticFit fields.
_COEFFICIENTS = ("beta", "se", "odds_ratio", "ci_low", "ci_high", "p_value")
_INTERCEPT_FIELDS = ("beta0", "intercept_se")
_FIT_SCALARS = _scalars(LogisticFit, exclude=_INTERCEPT_FIELDS)
_FIT = {_N_COMPLETE: _COUNT, _DROPPED: _map(_STRING),
        _INTERCEPT: dict.fromkeys(_COEFFICIENTS[:2], _FLOAT), **_record(LogisticFit, _FIT_SCALARS)}


def _fit_to_dict(fit: LogisticFit) -> dict[str, Any]:
    columns = (fit.beta, fit.std_errors, fit.odds_ratios, *fit.ci95.T, fit.p_values)
    return {
        _INTERCEPT: {key: getattr(fit, f) for key, f in zip(_COEFFICIENTS, _INTERCEPT_FIELDS)},
        **{name: getattr(fit, name) for name in _FIT_SCALARS},
        _PER_ATTRIBUTE: {
            attr: {key: float(column[i]) for key, column in zip(_COEFFICIENTS, columns)}
            for i, attr in enumerate(fit.feature_names)
        },
    }


def _dyadic_spec(config: Mapping[str, Any], section: Any) -> dict[str, Any]:
    """One joint fit with coefficients for each attribute it kept, or one fit per attribute."""
    model = {_MODEL: frozenset({_MODELS[config["joint_model"]]})}
    coefficients = dict.fromkeys(_COEFFICIENTS, _FLOAT)
    if not config["joint_model"]:
        fits = {a: _Entry(_FIT, **coefficients) for a in config["attributes"]}
        return {**model, _PER_ATTRIBUTE: fits}
    dropped = section.get(_DROPPED) if isinstance(section, dict) else None
    kept = [a for a in config["attributes"] if not isinstance(dropped, dict) or a not in dropped]
    return _Entry(model, **_FIT, **{_PER_ATTRIBUTE: dict.fromkeys(kept, coefficients)})


# bundle key -> (SexPermutationResult field, permutation_results.csv column,
# kind) of the values per tie type
_PERMUTATION_TRIPLES = {
    "observed": ("observed", "observed", _FLOAT),
    "expected": ("expected_mean", "expected", _FLOAT),
    "ratio": ("ratio", "ratio", _FLOAT),
    "p_values": ("p_values", "p_value", _FLOAT),
    "verdicts": ("verdicts", "verdict", frozenset(("assortative", "dissortative", "ns"))),
}
_PERMUTATION_SCALARS = _scalars(SexPermutationResult)
_PERMUTATION = {
    **{key: dict.fromkeys(_TIE_TYPES, kind) for key, (_, _, kind) in _PERMUTATION_TRIPLES.items()},
    **_record(SexPermutationResult, _PERMUTATION_SCALARS),
}


def _permutation_to_dict(result: SexPermutationResult) -> dict[str, Any]:
    return {
        **{key: getattr(result, f)._asdict() for key, (f, _, _) in _PERMUTATION_TRIPLES.items()},
        **{name: getattr(result, name) for name in _PERMUTATION_SCALARS},
    }


_TTEST = ("t", "p_value")  # a degree_missingness_ttests entry, in degree_missingness_ttest's order
# The partition section, in the order _partition_section lists its values.
_PARTITION = {"n_communities": _COUNT, "sizes": [_COUNT], "modularity": _FLOAT,
              "m_within": _COUNT, "m_between": _COUNT}


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
    graphs = (v.dataset.graph, v.lcc)  # in _SCOPES order
    return {scope: asdict(network_stats(g, v.lcc)) for scope, g in zip(_SCOPES, graphs)}


def _keyed(setting: str, spec: dict, entry: Callable[[_Village, str], dict]) -> tuple:
    """A section with an ``entry(village, item)`` per item of the config list ``setting``.

    Returns the function that computes the section and the section's spec;
    an item whose analysis raises ``ValueError`` gets an error entry.
    """

    def compute(v: _Village) -> dict[str, Any]:
        return {item: _or_error(entry, v, item) for item in getattr(v.cfg, setting)}

    return compute, lambda config, value: {item: _Entry(spec) for item in config[setting]}


def _fit_record(v: _Village, spec: FeatureSpec) -> dict[str, Any]:
    """One logistic fit of ``spec``'s features over their complete cases, or its error entry.

    Constant features are dropped and the rest refitted, so nodes missing
    only a dropped attribute rejoin the fit.  Keys set before a failure
    stay in the error entry.
    """
    record: dict[str, Any] = {}

    def fit() -> dict[str, Any]:
        complete = np.logical_and.reduce([v.labels[attr] >= 0 for attr in spec.names])
        record[_N_COMPLETE] = int(complete.sum())
        design = build_dyad_design(v.lcc, v.labels, spec)
        dropped = record[_DROPPED] = _dropped_features(design, spec)
        kept = [attr for attr in spec.names if attr not in dropped]
        if not kept:
            raise ValueError("every dyad feature is constant")
        if dropped:
            design = build_dyad_design(v.lcc, v.labels, spec.restrict(kept))
        return {**record, **_fit_to_dict(fit_logistic(design))}

    return _or_error(fit, partial=record)


def _dyadic_section(v: _Village) -> dict[str, Any]:
    spec = _feature_spec(v.cfg)
    model = {_MODEL: _MODELS[v.cfg.joint_model]}
    if v.cfg.joint_model:
        return {**model, **_fit_record(v, spec)}
    per_attribute: dict[str, Any] = {}
    for attr in spec.names:
        record = per_attribute[attr] = _fit_record(v, spec.restrict([attr]))
        # The attribute's coefficients join the rest of its own fit's record.
        record.update(record.pop(_PER_ATTRIBUTE, {}).get(attr, {}))
    return {**model, _PER_ATTRIBUTE: per_attribute}


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
        _tolerance_key(t): (
            {"tolerance": t, "error": str(outcome)}
            if isinstance(outcome, ValueError)
            else _permutation_to_dict(outcome)
        )
        for t, outcome in zip(tolerances, outcomes)
    }


def _partition_section(v: _Village) -> dict[str, Any]:
    p = v.partition
    modularity = modularity_of_partition(v.lcc, p)
    values = (p.n_communities, p.sizes.tolist(), modularity, p.m_within, p.m_between)
    return dict(zip(_PARTITION, values))


def _community_network_entry(v: _Village, attr: str) -> dict[str, Any]:
    net = build_community_network(
        v.lcc,
        v.partition,
        v.labels[attr],
        node_min_fraction=v.cfg.community_node_min,
        edge_min_fraction=v.cfg.community_edge_min,
        category_names=CATEGORICAL_ATTRIBUTES.get(attr),
    )
    return asdict(net)


def _config_spec(config: Any, value: Any) -> tuple[type, ...]:
    """The config's spec: an object, or ``ValueError`` unless a run with valid settings writes it.

    ``RunConfig`` checks each setting's type and value; JSON lists stand for its tuples.
    """
    if isinstance(value, dict):
        if unexpected := sorted(value.keys() - {f.name for f in fields(RunConfig)}):
            raise ValueError(f"config: unexpected {unexpected}")
        settings = {k: tuple(v) if isinstance(v, list) else v for k, v in value.items()}
        rebuilt = RunConfig(**{"corpus_dir": "", "output_dir": "", **settings})
        if _substantive_config_dict(rebuilt) != value:
            raise ValueError("config: not the settings of a valid run")
    return _OBJECT


# The bundle, key by key in the order it is computed: the function that
# computes its value from the village, and its spec.  An analysis that cannot
# run records an error entry instead.
_BUNDLE: tuple[tuple[str, Callable[[_Village], Any], Any], ...] = (
    ("schema_version", lambda v: SCHEMA_VERSION, _COUNT),
    ("config_sha256", lambda v: config_sha256(v.cfg), _STRING),
    ("config", lambda v: _substantive_config_dict(v.cfg), _config_spec),
    ("village_id", lambda v: v.dataset.village_id, _STRING),
    ("relation_layers", lambda v: dict(v.dataset.relation_layers), _map(_COUNT)),
    ("n_unmatched_attribute_rows", lambda v: len(v.dataset.unmatched_attribute_ids), _COUNT),
    ("network", _network_section, dict.fromkeys(_SCOPES, _record(NetworkStats))),
    ("degree_missingness_ttests",
     *_keyed("attributes", dict.fromkeys(_TTEST, _FLOAT),
             lambda v, a: dict(zip(_TTEST, degree_missingness_ttest(v.lcc, v.labels[a]))))),
    ("dyadic", _dyadic_section, _dyadic_spec),
    ("sex_permutation", _permutation_section, lambda config, value: {
        _tolerance_key(t): _Entry(_PERMUTATION) for t in config["permutation_tolerances"]
    }),
    ("partition", _partition_section, _PARTITION),
    ("nmi", *_keyed("attributes", _record(NmiResult),
                    lambda v, a: asdict(nmi(v.labels[a], v.partition.assignment)))),
    ("segregation",
     *_keyed("attributes", _record(SegregationReport),
             lambda v, a: asdict(segregation_report(v.lcc, v.labels[a], v.partition)))),
    ("community_networks",
     *_keyed("community_network_attributes", _record(CommunityNetwork), _community_network_entry)),
)


def analyze_village(dataset: VillageDataset, cfg: RunConfig) -> tuple[dict[str, Any], list]:
    """Full single-village analysis: the JSON-ready bundle and the partition rows.

    The bundle is what a run writes to ``bundles/<village_id>.json``; the
    rows pair each LCC node's id with its Louvain community, as a run writes
    them to ``partitions/<village_id>.csv``.
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
    bundle = {key: compute(village) for key, compute, _ in _BUNDLE}
    return bundle, list(zip(table.node_ids, village.partition.assignment.tolist()))


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


def _write_village_artifacts(
    bundle: dict[str, Any], partition_rows: list[tuple[str, int]], cfg: RunConfig, config_hash: str
) -> list[Path]:
    """Write one village's bundle, partition and community networks; return their paths.

    Each community-network entry without an ``"error"`` is saved as JSON and rendered to DOT.
    """
    out = Path(cfg.output_dir)
    village_id = bundle["village_id"]
    bundle_path = out / "bundles" / f"{village_id}.json"
    _write_json(bundle_path, bundle)

    partition_path = out / "partitions" / f"{village_id}.csv"
    columns = ("node_id", "community")
    rows = [dict(zip(columns, row)) for row in partition_rows]
    _write_csv(partition_path, columns, rows, config_hash)
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
        bundle, partition_rows = analyze_village(dataset, cfg)
        written = _write_village_artifacts(bundle, partition_rows, cfg, bundle["config_sha256"])
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
    for scope in _SCOPES:
        yield {"scope": scope, **bundle["network"][scope]}


def _dyadic_rows(bundle: Mapping[str, Any]) -> Iterable[dict]:
    for attr, entry in bundle["dyadic"].get(_PER_ATTRIBUTE, {}).items():
        if "error" not in entry:
            yield {"attribute": attr, **entry}


def _permutation_rows(bundle: Mapping[str, Any]) -> Iterable[dict]:
    for entry in bundle["sex_permutation"].values():
        if "error" in entry:
            continue
        for tie in _TIE_TYPES:
            yield {
                "tolerance": entry["tolerance"],
                "tie_type": tie,
                **{column: entry[key][tie] for key, (_, column, _) in _PERMUTATION_TRIPLES.items()},
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
        _Table("dyadic_results", ("village", "attribute", *_COEFFICIENTS[2:]), _dyadic_rows),
        _Table(
            "permutation_results",
            ("village", "tolerance", "tie_type", *(c for _, c, _ in _PERMUTATION_TRIPLES.values())),
            _permutation_rows,
        ),
        _Table("nmi_matrix", ("village", *attributes), _nmi_rows),
        _Table(
            "segregation_results",
            # the terms and their normalized values, without the maxima
            ("village", "attribute",
             *(name for name in _scalars(SegregationReport) if not name.endswith("_max"))),
            _segregation_rows,
        ),
    )


def _write_corpus_tables(bundles: Sequence[dict], out: Path, config_hash: str) -> None:
    attributes = tuple(bundles[-1]["config"]["attributes"]) if bundles else ()
    for table in _corpus_tables(attributes):
        rows = [{"village": b["village_id"], **row} for b in bundles for row in table.rows(b)]
        _write_csv(out / f"{table.name}.csv", table.columns, rows, config_hash)


def _column(entries: Iterable[Mapping[str, Any]], key: str) -> np.ndarray:
    """The entries' ``key`` values as floats; null, a NaN or infinity in a bundle file, is NaN."""
    return np.asarray([e[key] for e in entries], dtype=float)


def _spread(values: np.ndarray) -> tuple[float | None, float | None, float | None]:
    if not len(values):
        return None, None, None
    return float(values.min()), float(np.median(values)), float(values.max())


def _mean(values: np.ndarray) -> float | None:
    return float(np.mean(values)) if len(values) else None


def _sd(values: np.ndarray) -> float | None:
    return float(np.std(values, ddof=1)) if len(values) > 1 else None


def _pct(flags: np.ndarray) -> float | None:
    return 100.0 * float(np.mean(flags)) if len(flags) else None


def _entries(bundles: Sequence[Mapping[str, Any]], section: str, key: str) -> list[dict]:
    """The ``key`` entries of ``section`` over all bundles, skipping absent and failed ones."""
    entries = (b[section].get(key) for b in bundles)
    return [e for e in entries if e and "error" not in e]


def _summary_network(bundles: _Bundles, config: Mapping[str, Any]) -> Iterable[tuple]:
    for scope in _SCOPES:
        # n_components and the LCC fractions are trivially 1 within the LCC.
        for metric in _NETWORK_FIELDS if scope == _SCOPES[0] else _NETWORK_FIELDS[:5]:
            values = _column((b["network"][scope] for b in bundles), metric)
            yield scope, metric, len(values), *_spread(values)


def _summary_dyadic(bundles: _Bundles, config: Mapping[str, Any]) -> Iterable[tuple]:
    for attr in config["attributes"]:
        fits = []
        for b in bundles:
            dyadic = b["dyadic"]
            entry = dyadic.get(_PER_ATTRIBUTE, {}).get(attr)
            # A single-model entry is its own fit's record; joint entries share the section's.
            fit = dyadic if config["joint_model"] else entry
            if entry is not None and fit.get("converged") and "error" not in fit:
                fits.append(entry)
        p_values, odds_ratios = _column(fits, "p_value"), _column(fits, "odds_ratio")
        nmi_values = _column(_entries(bundles, "nmi", attr), "value")
        yield (
            attr,
            len(fits),
            _pct(p_values < 0.05),
            _pct((p_values < 0.05) & (odds_ratios > 1.0)),
            *_spread(odds_ratios),
            _mean(nmi_values),
            _sd(nmi_values),
        )


def _summary_permutation(bundles: _Bundles, config: Mapping[str, Any]) -> Iterable[tuple]:
    for tolerance in (float(t) for t in config["permutation_tolerances"]):
        entries = _entries(bundles, "sex_permutation", _tolerance_key(tolerance))
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
        within = _column(entries, "q_within_norm")
        between = _column(entries, "q_between_norm")
        yield (
            attr,
            len(entries),
            _mean(_column(entries, "q_attr")),
            _mean(within),
            _sd(within),
            _pct(within > float(config["within_cutoff"])),
            _mean(between),
            _sd(between),
            _pct(between > 0.0),
            _pct(between > float(config["between_cutoff"])),
        )


def _summary_community_networks(bundles: _Bundles, config: Mapping[str, Any]) -> Iterable[tuple]:
    for attr in config["community_network_attributes"]:
        entries = _entries(bundles, "community_networks", attr)
        yield (
            attr,
            len(entries),
            _mean(_column(entries, "node_fraction_retained")),
            _mean(_column(entries, "tie_fraction_retained")),
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


def _check(value: Any, spec: Any, config: Any, where: str) -> None:
    """Raise ``ValueError`` naming the key path ``where`` unless ``value`` fits ``spec``."""
    if callable(spec):
        spec = spec(config, value)
    at, refuse = (f"{where}.", f"{where}: ") if where else ("", "")
    if isinstance(spec, dict) and isinstance(value, dict):
        failed = isinstance(spec, _Entry) and "error" in value
        declared = {**spec, "error": _STRING} if failed else spec
        if missing := [] if failed else sorted(spec.keys() - value.keys()):
            raise ValueError(f"{refuse}missing {missing}")
        if unexpected := sorted(value.keys() - declared.keys()):
            raise ValueError(f"{refuse}unexpected {unexpected}")
        for key, item in declared.items():
            if key in value:
                _check(value[key], item, config, at + key)
    elif isinstance(spec, list) and isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check(item, spec[0], config, f"{where}[{i}]")
    elif isinstance(spec, frozenset):
        if not (isinstance(value, str) and value in spec):
            raise ValueError(f"{refuse}expected one of {sorted(spec)}, not {value!r:.60}")
    elif isinstance(spec, (dict, list)):
        expected = "an object" if isinstance(spec, dict) else "a list"
        raise ValueError(f"{refuse}expected {expected}, not {value!r:.60}")
    elif isinstance(value, bool) != (spec == _BOOL) or not isinstance(value, spec[1:]) or (
        spec == _COUNT and value < 0
    ):
        raise ValueError(f"{refuse}expected {spec[0]}, not {value!r:.60}")


def _check_bundle(path: Path, bundle: Any) -> None:
    """Refuse a bundle that ``analyze_village`` does not write, naming its file and key path."""
    if not isinstance(bundle, dict) or bundle.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"{path}: not a bundle of schema version {SCHEMA_VERSION}")
    if bundle.get("config_sha256") != _hash_config_dict(bundle.get("config")):
        raise ValueError(f"{path}: config_sha256 is not the hash of the bundle's config")
    try:
        _check(bundle, {key: spec for key, _, spec in _BUNDLE}, bundle.get("config"), "")
        if bundle["village_id"] != path.stem:
            raise ValueError(f"village_id: expected {path.stem!r}, not {bundle['village_id']!r}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def summarize_output_directory(directory: str | Path) -> dict[str, list[dict]]:
    """Recompute summary tables from the bundles of the run recorded in an output directory.

    Refuses, naming the file, when the bundles on disk are not exactly the
    villages that ``run_manifest.json`` lists as analyzed, when a file is not
    JSON, or when a bundle is not one that ``analyze_village`` writes at this
    ``SCHEMA_VERSION``: a ``config_sha256`` that is not its config's hash, a
    config that a run with valid settings does not write, a ``village_id``
    other than the file's name, or, named by its key path, any key or value
    that the bundle schema does not declare.  A null number, a NaN or
    infinity the run wrote, is read as NaN.
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

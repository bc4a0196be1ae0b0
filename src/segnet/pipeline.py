"""Batch corpus analysis: run configuration, per-village bundles, summaries.

A corpus directory holds one subdirectory per village in the canonical ingest
layout.  ``run_pipeline`` analyzes every village (optionally in parallel),
writes one JSON bundle per village plus corpus-level CSVs, and finishes with
min/median/max style summary tables.  Identical configuration reproduces
every artifact byte for byte; the worker count never influences content.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .attributes import (
    ATTRIBUTE_NAMES,
    CATEGORICAL_ATTRIBUTES,
    DEFAULT_AGE_BINS,
    DEFAULT_EDUCATION_BINS,
    complete_case_mask,
)
from .community import louvain, modularity_of_partition, nmi
from .dyadic import (
    FeatureEncoding,
    FeatureSpec,
    build_dyad_design,
    degree_missingness_ttest,
    fit_logistic,
    sex_permutation_test,
)
from .graph import largest_connected_component, network_stats
from .ingest import IngestConfig, VillageDataset, load_village
from .segregation import (
    build_community_network,
    community_network_to_dot,
    community_network_to_json_dict,
    segregation_report,
)

__all__ = [
    "RunConfig",
    "RunResult",
    "analyze_village",
    "config_sha256",
    "default_config_text",
    "load_run_config",
    "parse_run_config",
    "run_pipeline",
    "summarize_corpus",
    "summarize_output_directory",
    "write_summaries",
]

SCHEMA_VERSION = 1
WORKERS_ENV_VAR = "SEGNET_WORKERS"

_TIE_TYPES = ("mm", "mf", "ff")


@dataclass(frozen=True)
class RunConfig:
    """Corpus run settings; see ``default_config_text`` for the file format."""

    corpus_dir: str
    output_dir: str
    attributes: tuple[str, ...] = ("caste", "sex", "age", "religion", "education", "workflag", "savings")
    age_bins: tuple[float, ...] = DEFAULT_AGE_BINS
    education_bins: tuple[float, ...] = DEFAULT_EDUCATION_BINS
    age_encoding: str = "match"
    education_encoding: str = "match"
    joint_model: bool = True
    permutation_tolerances: tuple[float, ...] = (0.05, 0.20)
    permutation_replicates: int = 1000
    permutation_seed: int = 1
    louvain_seed: int = 1
    community_network_attributes: tuple[str, ...] = ("caste",)
    community_node_min: float = 0.05
    community_edge_min: float = 0.05
    between_cutoff: float = 0.2
    within_cutoff: float = 0.3
    workers: int = 0
    village_ids: tuple[str, ...] = ()
    coerce_unknown_categories: bool = False

    def __post_init__(self) -> None:
        for attr in self.attributes:
            if attr not in ATTRIBUTE_NAMES:
                raise ValueError(f"unknown attribute {attr!r}")
        for attr in self.community_network_attributes:
            if attr not in self.attributes:
                raise ValueError(f"community network attribute {attr!r} not among attributes")
        if not self.permutation_tolerances:
            raise ValueError("at least one permutation tolerance is required")
        if any(t <= 0 for t in self.permutation_tolerances):
            raise ValueError("permutation tolerances must be positive")
        if self.permutation_replicates < 1:
            raise ValueError("permutation_replicates must be at least 1")
        if self.age_encoding not in ("match", "difference"):
            raise ValueError("age_encoding must be 'match' or 'difference'")
        if self.education_encoding not in ("match", "difference"):
            raise ValueError("education_encoding must be 'match' or 'difference'")


_LIST_STR_KEYS = {"attributes", "community_network_attributes", "village_ids"}
_LIST_FLOAT_KEYS = {"age_bins", "education_bins", "permutation_tolerances"}
_INT_KEYS = {"permutation_replicates", "permutation_seed", "louvain_seed", "workers"}
_FLOAT_KEYS = {"community_node_min", "community_edge_min", "between_cutoff", "within_cutoff"}
_BOOL_KEYS = {"joint_model", "coerce_unknown_categories"}
_STR_KEYS = {"corpus_dir", "output_dir", "age_encoding", "education_encoding"}
# Fields that never influence artifact content and stay out of the config hash:
# machine-local paths and the worker count.
_NON_SUBSTANTIVE_KEYS = {"corpus_dir", "output_dir", "workers"}


def parse_run_config(text: str, base_dir: str | Path = ".") -> RunConfig:
    """Parse the key = value run-config format.

    Lines starting with ``#`` and blank lines are ignored; list values are
    comma-separated.  Relative paths resolve against ``base_dir``.
    """
    values: dict[str, Any] = {}
    known = {f.name for f in fields(RunConfig)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        try:
            if key in _LIST_STR_KEYS:
                values[key] = tuple(v.strip() for v in value.split(",") if v.strip())
            elif key in _LIST_FLOAT_KEYS:
                values[key] = tuple(float(v) for v in value.split(",") if v.strip())
            elif key in _INT_KEYS:
                values[key] = int(value)
            elif key in _FLOAT_KEYS:
                values[key] = float(value)
            elif key in _BOOL_KEYS:
                if value.lower() not in ("true", "false"):
                    raise ValueError("expected true or false")
                values[key] = value.lower() == "true"
            elif key in _STR_KEYS:
                values[key] = value
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: bad value for {key!r}: {exc}") from None
    for required in ("corpus_dir", "output_dir"):
        if required not in values:
            raise ValueError(f"config is missing required key {required!r}")
    base = Path(base_dir)
    for key in ("corpus_dir", "output_dir"):
        p = Path(values[key])
        values[key] = str(p if p.is_absolute() else base / p)
    return RunConfig(**values)


def load_run_config(path: str | Path) -> RunConfig:
    p = Path(path)
    return parse_run_config(p.read_text(encoding="utf-8"), base_dir=p.parent)


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def default_config_text(corpus_dir: str = "corpus", output_dir: str = "out") -> str:
    """Render a complete config file with default values."""
    cfg = RunConfig(corpus_dir=corpus_dir, output_dir=output_dir)
    lines = ["# segnet run configuration"]
    for f in fields(RunConfig):
        lines.append(f"{f.name} = {_format_value(getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"


def _substantive_config_dict(cfg: RunConfig) -> dict[str, Any]:
    out = {}
    for f in fields(RunConfig):
        if f.name in _NON_SUBSTANTIVE_KEYS:
            continue
        value = getattr(cfg, f.name)
        # Canonicalize numerics so the hash does not depend on whether the
        # config came from a file (floats) or was constructed with int literals.
        if f.name in _LIST_FLOAT_KEYS:
            out[f.name] = [float(v) for v in value]
        elif f.name in _FLOAT_KEYS:
            out[f.name] = float(value)
        elif isinstance(value, tuple):
            out[f.name] = list(value)
        else:
            out[f.name] = value
    return out


def config_sha256(cfg: RunConfig) -> str:
    """Hash of every content-affecting config field."""
    canonical = json.dumps(_substantive_config_dict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _feature_spec(cfg: RunConfig) -> FeatureSpec:
    encodings: dict[str, FeatureEncoding] = {}
    for attr in cfg.attributes:
        if attr == "age":
            encodings[attr] = FeatureEncoding(cfg.age_encoding, tuple(cfg.age_bins) or None)
        elif attr == "education":
            encodings[attr] = FeatureEncoding(
                cfg.education_encoding, tuple(cfg.education_bins) or None
            )
        else:
            encodings[attr] = FeatureEncoding("match")
    return FeatureSpec(encodings)


def _attribute_labels(table, attr: str, cfg: RunConfig) -> np.ndarray:
    if attr == "age":
        return table.labels(attr, tuple(cfg.age_bins) or None)
    if attr == "education":
        return table.labels(attr, tuple(cfg.education_bins) or None)
    return table.labels(attr)


def _derived_seed(base: int, village_id: str, salt: int) -> int:
    digest = hashlib.sha256(village_id.encode("utf-8")).digest()
    village_hash = int.from_bytes(digest[:8], "big")
    seq = np.random.SeedSequence([int(base) % (2**63), village_hash, salt])
    return int(seq.generate_state(1, np.uint64)[0])


def _dropped_features(design, spec: FeatureSpec) -> dict[str, str]:
    """Why each constant dyad feature of ``design`` cannot be fitted."""
    dropped: dict[str, str] = {}
    for attr, value in design.constant_features().items():
        if spec.encodings[attr].kind == "match":
            dropped[attr] = (
                "every pair matches (single observed value)"
                if value == 1.0
                else "no pair matches (all values distinct)"
            )
        else:
            dropped[attr] = "all values equal" if value == 0.0 else "only one dyad; feature is constant"
    return dropped


def _fit_to_dict(fit, attr_order: Sequence[str]) -> dict[str, Any]:
    per_attribute = {}
    for i, attr in enumerate(fit.feature_names):
        per_attribute[attr] = {
            "beta": float(fit.beta[i]),
            "se": float(fit.std_errors[i]),
            "odds_ratio": float(fit.odds_ratios[i]),
            "ci_low": float(fit.ci95[i, 0]),
            "ci_high": float(fit.ci95[i, 1]),
            "p_value": float(fit.p_values[i]),
        }
    return {
        "intercept": {"beta": fit.beta0, "se": fit.intercept_se},
        "converged": fit.converged,
        "n_iterations": fit.n_iterations,
        "n_dyads": fit.n_dyads,
        "n_ties": fit.n_ties,
        "diagnostic": fit.diagnostic,
        "per_attribute": {a: per_attribute[a] for a in attr_order if a in per_attribute},
    }


def _permutation_to_dict(result) -> dict[str, Any]:
    return {
        "observed": dict(zip(_TIE_TYPES, (int(v) for v in result.observed))),
        "expected": dict(zip(_TIE_TYPES, (float(v) for v in result.expected_mean))),
        "ratio": dict(zip(_TIE_TYPES, (float(v) for v in result.ratio))),
        "p_values": dict(zip(_TIE_TYPES, (float(v) for v in result.p_values))),
        "verdicts": dict(zip(_TIE_TYPES, result.verdicts)),
        "n_replicates": result.n_replicates,
        "n_attempts": result.n_attempts,
        "tolerance": result.tolerance,
        "male_mean_degree": result.male_mean_degree,
        "female_mean_degree": result.female_mean_degree,
    }


def analyze_village(dataset: VillageDataset, cfg: RunConfig) -> dict[str, Any]:
    """Full single-village analysis; returns the JSON-ready bundle."""
    graph = dataset.graph
    lcc, mapping = largest_connected_component(graph)
    lcc_nodes = np.asarray(sorted(mapping, key=mapping.get), dtype=np.int64)
    table = dataset.attributes.take(lcc_nodes)

    bundle: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "config_sha256": config_sha256(cfg),
        "config": _substantive_config_dict(cfg),
        "village_id": dataset.village_id,
        "relation_layers": dict(dataset.relation_layers),
        "n_unmatched_attribute_rows": len(dataset.unmatched_attribute_ids),
        "network": {
            "full": asdict(network_stats(graph, lcc)),
            "lcc": asdict(network_stats(lcc, lcc)),
        },
    }

    ttests = {}
    for attr in cfg.attributes:
        try:
            t, p = degree_missingness_ttest(lcc, table, attr)
            ttests[attr] = {"t": t, "p_value": p}
        except ValueError as exc:
            ttests[attr] = {"error": str(exc)}
    bundle["degree_missingness_ttests"] = ttests

    spec = _feature_spec(cfg)
    dyadic: dict[str, Any] = {"model": "joint" if cfg.joint_model else "single"}
    try:
        dyadic["n_complete_case_nodes"] = int(complete_case_mask(table, spec.names).sum())
        design = build_dyad_design(lcc, table, spec)
        dropped = _dropped_features(design, spec)
        dyadic["dropped"] = dropped
        kept = [attr for attr in spec.names if attr not in dropped]
        if not kept:
            raise ValueError("every dyad feature is constant")
        if cfg.joint_model:
            if dropped:
                # Nodes missing only a dropped attribute rejoin the fit.
                design = build_dyad_design(lcc, table, spec.restrict(kept))
            fit = fit_logistic(design)
            dyadic.update(_fit_to_dict(fit, cfg.attributes))
        else:
            per_attribute: dict[str, Any] = {}
            meta: dict[str, Any] = {}
            for attr in kept:
                design = build_dyad_design(lcc, table, spec.restrict([attr]))
                fit = fit_logistic(design)
                entry = _fit_to_dict(fit, [attr])
                per_attribute[attr] = {
                    **entry["per_attribute"][attr],
                    "converged": fit.converged,
                    "intercept": entry["intercept"],
                }
                meta = {"n_dyads": fit.n_dyads, "n_ties": fit.n_ties}
            dyadic.update(meta)
            dyadic["converged"] = all(v["converged"] for v in per_attribute.values())
            dyadic["per_attribute"] = per_attribute
    except ValueError as exc:
        dyadic["error"] = str(exc)
    bundle["dyadic"] = dyadic

    permutation_seed = _derived_seed(cfg.permutation_seed, dataset.village_id, 1)
    permutations: dict[str, Any] = {}
    for tolerance in cfg.permutation_tolerances:
        key = repr(float(tolerance))
        try:
            result = sex_permutation_test(
                lcc,
                table,
                tolerance=tolerance,
                target_replicates=cfg.permutation_replicates,
                seed=permutation_seed,
            )
            permutations[key] = _permutation_to_dict(result)
        except ValueError as exc:
            permutations[key] = {"error": str(exc), "tolerance": tolerance}
    bundle["sex_permutation"] = permutations

    partition = louvain(lcc, _derived_seed(cfg.louvain_seed, dataset.village_id, 0))
    bundle["partition"] = {
        "n_communities": partition.n_communities,
        "sizes": partition.sizes.tolist(),
        "modularity": modularity_of_partition(lcc, partition),
        "m_within": partition.m_within,
        "m_between": partition.m_between,
    }
    bundle["_partition_assignment"] = partition.assignment.tolist()
    bundle["_lcc_node_ids"] = list(table.node_ids)

    nmi_section = {}
    segregation_section = {}
    for attr in cfg.attributes:
        labels = _attribute_labels(table, attr, cfg)
        try:
            r = nmi(labels, partition.assignment)
            nmi_section[attr] = {
                "value": r.value,
                "mutual_information": r.mutual_information,
                "entropy_attr": r.entropy_attr,
                "entropy_comm": r.entropy_comm,
                "n_used": r.n_used,
                "degenerate": r.degenerate,
            }
        except ValueError as exc:
            nmi_section[attr] = {"error": str(exc)}
        try:
            report = segregation_report(lcc, labels, partition, attr)
            segregation_section[attr] = {
                "q_attr": report.q_attr,
                "q_within": report.q_within,
                "q_between": report.q_between,
                "q_within_max": report.q_within_max,
                "q_between_max": report.q_between_max,
                "q_within_norm": report.q_within_norm,
                "q_between_norm": report.q_between_norm,
                "n_used": report.n_used,
            }
        except ValueError as exc:
            segregation_section[attr] = {"error": str(exc)}
    bundle["nmi"] = nmi_section
    bundle["segregation"] = segregation_section

    networks = {}
    for attr in cfg.community_network_attributes:
        labels = _attribute_labels(table, attr, cfg)
        try:
            net = build_community_network(
                lcc,
                partition,
                labels,
                node_min_fraction=cfg.community_node_min,
                edge_min_fraction=cfg.community_edge_min,
                category_names=CATEGORICAL_ATTRIBUTES.get(attr),
            )
            networks[attr] = community_network_to_json_dict(net)
        except ValueError as exc:
            networks[attr] = {"error": str(exc)}
    bundle["community_networks"] = networks
    return bundle


def _json_safe(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else None
    return obj


def _write_json(path: Path, obj: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_safe(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _meta_line(config_hash: str) -> str:
    return f"# segnet schema={SCHEMA_VERSION} config_sha256={config_hash}"


def _write_csv(
    path: Path, fieldnames: Sequence[str], rows: Sequence[Mapping[str, Any]], config_hash: str
) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_meta_line(config_hash) + "\n")
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames))
        writer.writeheader()
        for row in rows:
            out = {}
            for key in fieldnames:
                value = row.get(key)
                if value is None:
                    out[key] = ""
                elif isinstance(value, float):
                    out[key] = "" if not math.isfinite(value) else repr(value)
                else:
                    out[key] = value
            writer.writerow(out)


def _discover_villages(cfg: RunConfig) -> list[Path]:
    corpus = Path(cfg.corpus_dir)
    if not corpus.is_dir():
        return []
    villages = sorted(
        p for p in corpus.iterdir() if p.is_dir() and (p / "attributes.csv").is_file()
    )
    if cfg.village_ids:
        wanted = set(cfg.village_ids)
        villages = [p for p in villages if p.name in wanted]
    return villages


def _load_village_dir(village_dir: Path, cfg: RunConfig) -> VillageDataset:
    edge_files = sorted(
        p
        for p in village_dir.glob("*.csv")
        if p.stem not in ("attributes", "nodes")
    )
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
    """Write one village's bundle, partition and community networks; return their paths."""
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

    for attr, net in bundle["community_networks"].items():
        if "error" in net:
            continue
        dot_path = out / "community_networks" / f"{village_id}__{attr}.dot"
        json_path = out / "community_networks" / f"{village_id}__{attr}.json"
        dot_path.parent.mkdir(parents=True, exist_ok=True)
        _write_json(json_path, net)
        # Rebuild the DOT text from the JSON view to keep one source of truth.
        lines = [f"// {_meta_line(config_hash)[2:]}", f"graph v_{_safe_dot(village_id)} {{", "  node [shape=circle];"]
        for node in net["nodes"]:
            comp = " ".join(f"{k} {v:.0%}" for k, v in sorted(node["composition"].items()))
            parts = [f"c{node['community']}", f"n={node['size']}"]
            if comp:
                parts.append(comp)
            if node["missing_fraction"]:
                parts.append(f"missing {node['missing_fraction']:.0%}")
            label = "\\n".join(parts)
            lines.append(f"  c{node['community']} [label=\"{label}\"];")
        for tie in net["ties"]:
            lines.append(
                f"  c{tie['community_a']} -- c{tie['community_b']} [label=\"{tie['tie_count']}\"];"
            )
        lines.append("}")
        dot_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written += [json_path, dot_path]
    return written


def _safe_dot(text: str) -> str:
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in text)


def _process_village(
    args: tuple[str, RunConfig],
) -> tuple[str, dict[str, Any] | None, str | None, list[Path]]:
    village_dir, cfg = args
    path = Path(village_dir)
    try:
        dataset = _load_village_dir(path, cfg)
        bundle = analyze_village(dataset, cfg)
        written = _write_village_artifacts(bundle, cfg, bundle["config_sha256"])
        return path.name, bundle, None, written
    except Exception as exc:  # hard per-village failure lands in the errors manifest
        return path.name, None, f"{type(exc).__name__}: {exc}", []


_VILLAGE_ARTIFACT_GLOBS = (
    "bundles/*.json",
    "partitions/*.csv",
    "community_networks/*.dot",
    "community_networks/*.json",
)


def _remove_stale_artifacts(out: Path, written: set[Path]) -> None:
    """Delete per-village files this run did not write, e.g. from a village that now fails."""
    for pattern in _VILLAGE_ARTIFACT_GLOBS:
        for path in out.glob(pattern):
            if path not in written:
                path.unlink()


def _resolve_workers(cfg: RunConfig) -> int:
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            requested = int(env)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV_VAR} must be an integer, got {env!r}") from None
    else:
        requested = cfg.workers
    if requested <= 0:
        return min(os.cpu_count() or 1, 8)
    return requested


@dataclass(frozen=True)
class RunResult:
    exit_code: int
    output_dir: str
    n_villages: int
    n_failed: int
    failures: Mapping[str, str]


def run_pipeline(cfg: RunConfig) -> RunResult:
    """Analyze every village in the corpus and write all artifacts."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    config_hash = config_sha256(cfg)
    villages = _discover_villages(cfg)
    if not villages:
        _remove_stale_artifacts(out, set())
        _write_json(out / "errors.json", {"corpus": "no villages found"})
        return RunResult(1, str(out), 0, 0, {"corpus": "no villages found"})

    tasks = [(str(p), cfg) for p in villages]
    workers = _resolve_workers(cfg)
    if workers <= 1 or len(tasks) == 1:
        outcomes = [_process_village(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_process_village, tasks))

    bundles = []
    failures: dict[str, str] = {}
    written: set[Path] = set()
    for village_id, bundle, error, paths in sorted(outcomes, key=lambda r: r[0]):
        if error is not None:
            failures[village_id] = error
        else:
            bundles.append(bundle)
        written.update(paths)
    _remove_stale_artifacts(out, written)

    _write_corpus_tables(bundles, out, config_hash)
    tables = summarize_corpus(bundles) if bundles else {}
    write_summaries(tables, out, config_hash)
    _write_json(out / "errors.json", failures)
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
    return RunResult(exit_code, str(out), len(villages), len(failures), failures)


def _write_corpus_tables(bundles: Sequence[dict], out: Path, config_hash: str) -> None:
    stats_rows = []
    dyadic_rows = []
    permutation_rows = []
    nmi_rows = []
    segregation_rows = []
    attributes: tuple[str, ...] = ()
    for bundle in bundles:
        vid = bundle["village_id"]
        attributes = tuple(bundle["config"]["attributes"])
        for scope in ("full", "lcc"):
            row = {"village": vid, "scope": scope}
            row.update(bundle["network"][scope])
            stats_rows.append(row)
        per_attr = bundle["dyadic"].get("per_attribute", {})
        for attr, entry in per_attr.items():
            dyadic_rows.append(
                {
                    "village": vid,
                    "attribute": attr,
                    "odds_ratio": entry["odds_ratio"],
                    "ci_low": entry["ci_low"],
                    "ci_high": entry["ci_high"],
                    "p_value": entry["p_value"],
                }
            )
        for key, entry in bundle["sex_permutation"].items():
            if "error" in entry:
                continue
            for tie in _TIE_TYPES:
                permutation_rows.append(
                    {
                        "village": vid,
                        "tolerance": entry["tolerance"],
                        "tie_type": tie,
                        "observed": entry["observed"][tie],
                        "expected": entry["expected"][tie],
                        "ratio": entry["ratio"][tie],
                        "p_value": entry["p_values"][tie],
                        "verdict": entry["verdicts"][tie],
                    }
                )
        nmi_row = {"village": vid}
        for attr in attributes:
            entry = bundle["nmi"].get(attr, {})
            nmi_row[attr] = entry.get("value")
        nmi_rows.append(nmi_row)
        for attr in attributes:
            entry = bundle["segregation"].get(attr, {})
            if "error" in entry or not entry:
                continue
            segregation_rows.append(
                {
                    "village": vid,
                    "attribute": attr,
                    "q_attr": entry["q_attr"],
                    "q_within": entry["q_within"],
                    "q_between": entry["q_between"],
                    "q_within_norm": entry["q_within_norm"],
                    "q_between_norm": entry["q_between_norm"],
                    "n_used": entry["n_used"],
                }
            )

    stat_fields = (
        "village",
        "scope",
        "n_nodes",
        "n_edges",
        "density",
        "mean_degree",
        "mean_clustering",
        "n_components",
        "lcc_node_fraction",
        "lcc_edge_fraction",
    )
    _write_csv(out / "network_stats.csv", stat_fields, stats_rows, config_hash)
    _write_csv(
        out / "dyadic_results.csv",
        ("village", "attribute", "odds_ratio", "ci_low", "ci_high", "p_value"),
        dyadic_rows,
        config_hash,
    )
    _write_csv(
        out / "permutation_results.csv",
        ("village", "tolerance", "tie_type", "observed", "expected", "ratio", "p_value", "verdict"),
        permutation_rows,
        config_hash,
    )
    _write_csv(out / "nmi_matrix.csv", ("village",) + attributes, nmi_rows, config_hash)
    _write_csv(
        out / "segregation_results.csv",
        ("village", "attribute", "q_attr", "q_within", "q_between", "q_within_norm", "q_between_norm", "n_used"),
        segregation_rows,
        config_hash,
    )


def _spread(values: Sequence[float]) -> dict[str, float | None]:
    if not values:
        return {"min": None, "median": None, "max": None}
    arr = np.asarray(values, dtype=float)
    return {
        "min": float(arr.min()),
        "median": float(np.median(arr)),
        "max": float(arr.max()),
    }


def summarize_corpus(bundles: Sequence[Mapping[str, Any]]) -> dict[str, list[dict]]:
    """Corpus-level tables (same content ``segnet summarize`` recomputes from disk)."""
    if not bundles:
        raise ValueError("no bundles to summarize")
    config = bundles[0]["config"]
    hashes = {b["config_sha256"] for b in bundles}
    if len(hashes) > 1:
        raise ValueError("bundles were produced by different configurations")
    attributes = tuple(config["attributes"])
    within_cutoff = float(config["within_cutoff"])
    between_cutoff = float(config["between_cutoff"])

    network_rows = []
    metrics = (
        "n_nodes",
        "n_edges",
        "density",
        "mean_degree",
        "mean_clustering",
        "n_components",
        "lcc_node_fraction",
        "lcc_edge_fraction",
    )
    for scope in ("full", "lcc"):
        scope_metrics = metrics if scope == "full" else metrics[:5]
        for metric in scope_metrics:
            values = [b["network"][scope][metric] for b in bundles]
            network_rows.append(
                {"scope": scope, "metric": metric, "n_villages": len(values), **_spread(values)}
            )

    dyadic_rows = []
    for attr in attributes:
        odds = []
        significant = []
        assortative = []
        for b in bundles:
            entry = b["dyadic"].get("per_attribute", {}).get(attr)
            if entry is None:
                continue
            converged = entry.get("converged", b["dyadic"].get("converged", False))
            if not converged:
                continue
            odds.append(entry["odds_ratio"])
            significant.append(entry["p_value"] < 0.05)
            assortative.append(entry["p_value"] < 0.05 and entry["odds_ratio"] > 1.0)
        nmi_values = [
            b["nmi"][attr]["value"]
            for b in bundles
            if attr in b["nmi"] and "error" not in b["nmi"][attr]
        ]
        row = {
            "attribute": attr,
            "n_fits": len(odds),
            "pct_significant": 100.0 * float(np.mean(significant)) if significant else None,
            "pct_assortative": 100.0 * float(np.mean(assortative)) if assortative else None,
        }
        spread = _spread(odds)
        row.update(
            {
                "or_min": spread["min"],
                "or_median": spread["median"],
                "or_max": spread["max"],
            }
        )
        row["nmi_mean"] = float(np.mean(nmi_values)) if nmi_values else None
        row["nmi_sd"] = (
            float(np.std(nmi_values, ddof=1)) if len(nmi_values) > 1 else None
        )
        dyadic_rows.append(row)

    permutation_rows = []
    tolerances = [float(t) for t in config["permutation_tolerances"]]
    for tolerance in tolerances:
        key = repr(float(tolerance))
        for tie in _TIE_TYPES:
            verdicts = []
            for b in bundles:
                entry = b["sex_permutation"].get(key)
                if not entry or "error" in entry:
                    continue
                verdicts.append(entry["verdicts"][tie])
            n = len(verdicts)
            permutation_rows.append(
                {
                    "tolerance": tolerance,
                    "tie_type": tie,
                    "n_villages": n,
                    "pct_assortative": 100.0 * sum(v == "assortative" for v in verdicts) / n
                    if n
                    else None,
                    "pct_dissortative": 100.0 * sum(v == "dissortative" for v in verdicts) / n
                    if n
                    else None,
                }
            )

    segregation_rows = []
    for attr in attributes:
        q_within_norm = []
        q_between_norm = []
        q_attr_values = []
        for b in bundles:
            entry = b["segregation"].get(attr)
            if not entry or "error" in entry:
                continue
            q_attr_values.append(entry["q_attr"])
            q_within_norm.append(entry["q_within_norm"])
            q_between_norm.append(entry["q_between_norm"])
        n = len(q_within_norm)
        segregation_rows.append(
            {
                "attribute": attr,
                "n_villages": n,
                "q_attr_mean": float(np.mean(q_attr_values)) if n else None,
                "q_within_norm_mean": float(np.mean(q_within_norm)) if n else None,
                "q_within_norm_sd": float(np.std(q_within_norm, ddof=1)) if n > 1 else None,
                "pct_within_above_cutoff": 100.0
                * float(np.mean([v > within_cutoff for v in q_within_norm]))
                if n
                else None,
                "q_between_norm_mean": float(np.mean(q_between_norm)) if n else None,
                "q_between_norm_sd": float(np.std(q_between_norm, ddof=1)) if n > 1 else None,
                "pct_between_positive": 100.0
                * float(np.mean([v > 0.0 for v in q_between_norm]))
                if n
                else None,
                "pct_between_above_cutoff": 100.0
                * float(np.mean([v > between_cutoff for v in q_between_norm]))
                if n
                else None,
            }
        )

    community_rows = []
    for attr in tuple(config["community_network_attributes"]):
        node_fracs = []
        tie_fracs = []
        for b in bundles:
            entry = b["community_networks"].get(attr)
            if not entry or "error" in entry:
                continue
            node_fracs.append(entry["node_fraction_retained"])
            tie_fracs.append(entry["tie_fraction_retained"])
        community_rows.append(
            {
                "attribute": attr,
                "n_villages": len(node_fracs),
                "node_fraction_mean": float(np.mean(node_fracs)) if node_fracs else None,
                "tie_fraction_mean": float(np.mean(tie_fracs)) if tie_fracs else None,
            }
        )

    return {
        "network": network_rows,
        "dyadic": dyadic_rows,
        "permutation": permutation_rows,
        "segregation": segregation_rows,
        "community_networks": community_rows,
    }


_SUMMARY_FIELDS = {
    "network": ("scope", "metric", "n_villages", "min", "median", "max"),
    "dyadic": (
        "attribute",
        "n_fits",
        "pct_significant",
        "pct_assortative",
        "or_min",
        "or_median",
        "or_max",
        "nmi_mean",
        "nmi_sd",
    ),
    "permutation": ("tolerance", "tie_type", "n_villages", "pct_assortative", "pct_dissortative"),
    "segregation": (
        "attribute",
        "n_villages",
        "q_attr_mean",
        "q_within_norm_mean",
        "q_within_norm_sd",
        "pct_within_above_cutoff",
        "q_between_norm_mean",
        "q_between_norm_sd",
        "pct_between_positive",
        "pct_between_above_cutoff",
    ),
    "community_networks": ("attribute", "n_villages", "node_fraction_mean", "tie_fraction_mean"),
}


def write_summaries(tables: Mapping[str, list[dict]], out: Path, config_hash: str) -> None:
    for name, rows in tables.items():
        _write_csv(out / f"summary_{name}.csv", _SUMMARY_FIELDS[name], rows, config_hash)


def summarize_output_directory(directory: str | Path) -> dict[str, list[dict]]:
    """Recompute summary tables from the bundles in an output directory."""
    out = Path(directory)
    bundle_files = sorted((out / "bundles").glob("*.json"))
    if not bundle_files:
        raise ValueError(f"no bundles found under {out / 'bundles'}")
    bundles = [json.loads(p.read_text(encoding="utf-8")) for p in bundle_files]
    tables = summarize_corpus(bundles)
    write_summaries(tables, out, bundles[0]["config_sha256"])
    return tables

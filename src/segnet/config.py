"""Corpus run configuration: the ``key = value`` file format and its hash.

``RunConfig`` holds every run setting and checks them when built;
``parse_run_config``/``load_run_config`` read the file format that
``default_config_text`` renders, and ``config_sha256`` hashes the settings
that influence artifact content.  The module needs no numpy, so a job can
load and validate its configuration before any numeric layer is imported.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

from .vocabulary import ATTRIBUTE_NAMES

__all__ = [
    "DEFAULT_AGE_BINS",
    "DEFAULT_EDUCATION_BINS",
    "RunConfig",
    "config_sha256",
    "default_config_text",
    "load_run_config",
    "parse_run_config",
]

# Left edges of the upper bins; values below the first edge form bin 0.
DEFAULT_AGE_BINS = (18.0, 31.0, 41.0, 51.0, 65.0)
DEFAULT_EDUCATION_BINS = (1.0, 10.0, 14.0, 16.0)


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
        for key in ("attributes", "community_network_attributes", "permutation_tolerances"):
            values = getattr(self, key)
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(f"duplicate entries in {key!r}: {_format_value(tuple(repeated))}")
        for attr in self.attributes:
            if attr not in ATTRIBUTE_NAMES:
                raise ValueError(f"unknown attribute {attr!r}")
        for attr in self.community_network_attributes:
            if attr not in self.attributes:
                raise ValueError(f"community network attribute {attr!r} not among attributes")
        if not self.permutation_tolerances:
            raise ValueError("at least one permutation tolerance is required")
        if any(not t > 0 for t in self.permutation_tolerances):
            raise ValueError("permutation tolerances must be positive")
        for key in sorted(_FLOAT_KEYS):
            # Every comparison with NaN is False, so a NaN cutoff or minimum
            # would silently empty its tables.
            if math.isnan(getattr(self, key)):
                raise ValueError(f"{key} must be a number, not NaN")
        if self.permutation_replicates < 1:
            raise ValueError("permutation_replicates must be at least 1")
        if self.age_encoding not in ("match", "difference"):
            raise ValueError("age_encoding must be 'match' or 'difference'")
        if self.education_encoding not in ("match", "difference"):
            raise ValueError("education_encoding must be 'match' or 'difference'")
        for key in ("age_bins", "education_bins"):
            # np.digitize needs increasing edges, and a NaN edge misorders every bin.
            edges = getattr(self, key)
            if not all(math.isfinite(e) for e in edges):
                raise ValueError(f"{key} entries must be finite numbers")
            if any(b <= a for a, b in zip(edges, edges[1:])):
                raise ValueError(f"{key} must be strictly increasing")


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

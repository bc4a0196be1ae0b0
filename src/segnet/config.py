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
from typing import Any, Callable

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

# The most worker processes a run may ask for.  A run never starts more
# workers than it has villages.
MAX_WORKERS = 64

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
        # Every comparison with NaN is False, so a NaN setting would silently
        # empty its tables; an infinite one is written to JSON as null, and
        # the run's own output could not be summarized.
        if not all(0 < t < math.inf for t in self.permutation_tolerances):
            raise ValueError("permutation tolerances must be positive and finite")
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be a finite number")
        for key in ("community_node_min", "community_edge_min"):
            # Fractions of nodes and of possible ties: 5 meant as 5% would
            # leave every village without a community network.
            if not 0 <= getattr(self, key) <= 1:
                raise ValueError(f"{key} must be between 0 and 1")
        if self.workers > MAX_WORKERS:
            raise ValueError(f"workers must be at most {MAX_WORKERS}")
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


def _parse_bool(value: str) -> bool:
    if value.lower() not in ("true", "false"):
        raise ValueError("expected true or false")
    return value.lower() == "true"


def _as_is(value: Any) -> Any:
    return value


# RunConfig annotation -> (parser of a config-file value, canonical form for
# the hash).  Floats are canonicalized so the hash does not depend on
# whether the config came from a file or was built with int literals.
_SETTING_TYPES: dict[str, tuple[Callable[[str], Any], Callable[[Any], Any]]] = {
    "str": (str, _as_is),
    "int": (int, _as_is),
    "float": (float, float),
    "bool": (_parse_bool, _as_is),
    "tuple[str, ...]": (lambda v: tuple(s.strip() for s in v.split(",") if s.strip()), list),
    "tuple[float, ...]": (
        lambda v: tuple(float(s) for s in v.split(",") if s.strip()),
        lambda t: [float(x) for x in t],
    ),
}
# Fields that never influence artifact content and stay out of the config hash:
# machine-local paths and the worker count.
_NON_SUBSTANTIVE_KEYS = {"corpus_dir", "output_dir", "workers"}


def parse_run_config(text: str, base_dir: str | Path = ".") -> RunConfig:
    """Parse the key = value run-config format.

    Lines starting with ``#`` and blank lines are ignored; list values are
    comma-separated.  Relative paths resolve against ``base_dir``.
    """
    values: dict[str, Any] = {}
    known = {f.name: f.type for f in fields(RunConfig)}
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
        parse, _ = _SETTING_TYPES[known[key]]
        try:
            values[key] = parse(value)
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
    return {
        f.name: _SETTING_TYPES[f.type][1](getattr(cfg, f.name))
        for f in fields(RunConfig)
        if f.name not in _NON_SUBSTANTIVE_KEYS
    }


def _hash_config_dict(config: Any) -> str:
    """SHA-256 of the canonical JSON of a ``_substantive_config_dict``, as
    written into bundles, manifests and CSV headers."""
    canonical = json.dumps(config, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def config_sha256(cfg: RunConfig) -> str:
    """Hash of every content-affecting config field."""
    return _hash_config_dict(_substantive_config_dict(cfg))

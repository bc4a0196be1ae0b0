"""Span and counter recording around the layer calls ``segnet.pipeline`` makes.

The tracer replaces names in the ``segnet.pipeline`` module namespace with
timing wrappers, so every call the pipeline makes into a layer (and the
pipeline's own ``analyze_village``) opens a span.  Spans are kept in memory
and written out once, when the benchmark ends.  Counters are taken from each
call's arguments and results at the same boundary.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

Hook = Callable[[dict, tuple, dict, Any], None]


def _count_bytes_read(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    edge_files, attribute_file = args[0], args[1]
    config = args[2] if len(args) > 2 else kwargs.get("config")
    paths = list(edge_files) + [attribute_file]
    if config is not None and config.nodes_file is not None:
        paths.append(config.nodes_file)
    counts["ingest.bytes_read"] += sum(os.path.getsize(p) for p in paths)


def _count_lcc(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    lcc = result[0]
    counts["graph.lcc_nodes"] += lcc.node_count
    counts["graph.lcc_edges"] += lcc.edge_count


def _count_fit(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    counts["dyadic.dyads"] += result.n_dyads
    counts["dyadic.newton_iterations"] += result.n_iterations
    # One pass for the constant-column screen, one per Newton step, one for
    # the final information matrix.
    counts["dyadic.rows_streamed"] += result.n_dyads * (result.n_iterations + 2)
    counts["dyadic.fits_converged"] += int(bool(result.converged))


def _count_permutation(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    counts["dyadic.perm_attempts"] += result.n_attempts
    counts["dyadic.perm_replicates"] += result.n_replicates


def _count_louvain(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    counts["community.louvain_levels"] += len(result.level_modularities)


# segnet.pipeline attribute -> (layer, counter hook or None)
WRAPPED: dict[str, tuple[str, Hook | None]] = {
    "load_village": ("ingest", _count_bytes_read),
    "largest_connected_component": ("graph", _count_lcc),
    "network_stats": ("graph", None),
    "degree_missingness_ttest": ("dyadic", None),
    "build_dyad_design": ("dyadic", None),
    "fit_logistic": ("dyadic", _count_fit),
    "sex_permutation_test": ("dyadic", _count_permutation),
    "louvain": ("community", _count_louvain),
    "modularity_of_partition": ("community", None),
    "nmi": ("community", None),
    "segregation_report": ("segregation", None),
    "build_community_network": ("segregation", None),
    "run_pipeline": ("pipeline", None),
    "analyze_village": ("pipeline", None),
    "summarize_output_directory": ("pipeline", None),
}


def _village_of(args: tuple, kwargs: dict) -> str | None:
    """Village id of an ``analyze_village(dataset, ...)`` or ``load_village(..., config)`` call."""
    for value in (*args, *kwargs.values()):
        village_id = getattr(value, "village_id", None)
        if isinstance(village_id, str):
            return village_id
    return None


class Tracer:
    """Records spans (name, start, end, parent) and per-call counters for one run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._originals: dict[str, Callable] = {}

    def install(self, pipeline_module) -> None:
        for attr, (layer, hook) in WRAPPED.items():
            original = getattr(pipeline_module, attr)
            self._originals[attr] = original
            setattr(pipeline_module, attr, self._wrap(f"{layer}.{attr}", original, hook))

    def uninstall(self, pipeline_module) -> None:
        for attr, original in self._originals.items():
            setattr(pipeline_module, attr, original)
        self._originals.clear()

    def _wrap(self, name: str, fn: Callable, hook: Hook | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.spans[self._stack[-1]] if self._stack else None
            span = {
                "id": len(self.spans),
                "parent": parent["id"] if parent else None,
                "name": name,
                "village": _village_of(args, kwargs) or (parent["village"] if parent else None),
            }
            self.spans.append(span)
            self.counts[f"{name}_calls"] += 1
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return wrapper

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name, summed over calls.

        A span's self time is its duration minus that of its child spans.
        """
        inclusive: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            duration = span["end"] - span["start"]
            inclusive[span["name"]] += duration
            if span["parent"] is not None:
                child_time[span["parent"]] += duration
        self_time: dict[str, float] = defaultdict(float)
        for span in self.spans:
            self_time[span["name"]] += span["end"] - span["start"] - child_time[span["id"]]
        return dict(inclusive), dict(self_time)


def write_spans(path: Path, runs: list[list[dict]]) -> None:
    """Write the spans of every traced run as JSON lines, tagged with the run index."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for run_index, spans in enumerate(runs):
            for span in spans:
                fh.write(json.dumps({"run": run_index, **span}) + "\n")

"""Child process that imports segnet and times ``run_pipeline`` on a generated corpus.

Usage: ``python3 perfbench/runner.py <spec.json> <result.json>``.  The spec
comes from ``run.py``; the result holds per-run wall times and output-tree
hashes, the canary bundles, bundle facts for the correctness gate, peak
memory and, in traced mode, per-layer totals and counters.  Running the
pipeline in its own process keeps the parent's corpus generation out of the
memory peak.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy
import scipy

from corpus import tree_sha256
from spans import Tracer, write_spans

import segnet
from segnet import pipeline


def _tree_size(root: Path) -> tuple[int, int]:
    files = [p for p in root.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


def _bundles(out: Path) -> dict[str, dict]:
    return {
        p.stem: json.loads(p.read_text(encoding="utf-8"))
        for p in sorted((out / "bundles").glob("*.json"))
    }


def _gate_facts(bundle: dict) -> dict:
    """The bundle values the correctness gate looks at."""
    dyadic = bundle["dyadic"]
    caste = dyadic.get("per_attribute", {}).get("caste", {})
    return {
        "dyadic_error": dyadic.get("error"),
        "converged": dyadic.get("converged"),
        "caste_odds_ratio": caste.get("odds_ratio"),
        "caste_p_value": caste.get("p_value"),
    }


class Runner:
    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.base_cfg = pipeline.load_run_config(spec["config"])
        self.out_root = Path(spec["out_root"])
        self.runs: list[dict] = []
        self.traced: list[dict] = []
        self.span_runs: list[list[dict]] = []
        self.gate: dict[str, dict] = {}

    def run_once(self, workers: int, traced: bool) -> None:
        out = self.out_root / f"run{len(self.runs)}"
        cfg = dataclasses.replace(self.base_cfg, output_dir=str(out), workers=workers)
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install(pipeline)
        try:
            start = time.perf_counter()
            result = pipeline.run_pipeline(cfg)
            seconds = time.perf_counter() - start
            tree = tree_sha256(out)
            if tracer:
                pipeline.summarize_output_directory(out)
        finally:
            if tracer:
                tracer.uninstall(pipeline)
        record = {
            "traced": traced,
            "workers": workers,
            "seconds": seconds,
            "tree_sha256": tree,
            # summarize rewrites the summary tables; they must come out unchanged.
            "tree_after_summarize": tree_sha256(out) if tracer else tree,
            "n_villages": result.n_villages,
            "n_failed": result.n_failed,
            "failures": dict(result.failures),
        }
        if not self.gate:
            self.gate = {vid: _gate_facts(b) for vid, b in _bundles(out).items()}
        if tracer:
            inclusive, self_time = tracer.totals()
            bytes_written, files_written = _tree_size(out)
            village_times = {
                s["village"]: s["end"] - s["start"]
                for s in tracer.spans
                if s["name"] == "pipeline.analyze_village"
            }
            self.traced.append(
                {
                    "seconds": seconds,
                    "inclusive": inclusive,
                    "self": self_time,
                    "counts": {
                        **tracer.counts,
                        "pipeline.bytes_written": bytes_written,
                        "pipeline.files_written": files_written,
                    },
                    "village_seconds": village_times,
                }
            )
            self.span_runs.append(tracer.spans)
        shutil.rmtree(out)
        self.runs.append(record)

    def canary(self) -> dict:
        out = self.out_root / "canary"
        cfg = dataclasses.replace(
            pipeline.load_run_config(self.spec["canary_config"]), output_dir=str(out), workers=1
        )
        result = pipeline.run_pipeline(cfg)
        bundles = _bundles(out)
        shutil.rmtree(out)
        return {"n_failed": result.n_failed, "bundles": bundles}

    def measure(self) -> None:
        workers = self.spec["workers"]
        seconds = self.spec["seconds"]
        start = time.perf_counter()
        if not self.spec["trace"]:
            while len(self.runs) < 2 or time.perf_counter() - start < seconds:
                self.run_once(workers, traced=False)
            return
        if workers != 1:
            # Compared against the traced workers = 1 trees below.
            self.run_once(workers, traced=False)
        while len(self.traced) < 2 or time.perf_counter() - start < seconds:
            self.run_once(1, traced=False)
            self.run_once(1, traced=True)


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    if src not in Path(segnet.__file__).resolve().parents:
        print(f"segnet imported from {segnet.__file__}, not from {src}", file=sys.stderr)
        return 2
    runner = Runner(spec)
    canary = runner.canary()
    if spec["measure"]:
        runner.measure()
    if runner.span_runs:
        write_spans(Path(spec["spans_path"]), runner.span_runs)
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "canary": canary,
        "runs": runner.runs,
        "traced": runner.traced,
        "gate": runner.gate,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

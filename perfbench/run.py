#!/usr/bin/env python3
"""segnet corpus benchmark: one workload, one seed, one result line.

Run from the root of a segnet checkout::

    python3 perfbench/run.py --workload survey --seed 1 --seconds 45 --trace 0

Generates the workload's corpus from ``--seed``, times ``run_pipeline`` on it
in a child process for ``--seconds`` (untraced, ``--trace 0``) or records
per-layer spans and counters (``--trace 1``), checks the outputs, and prints
one JSON object as the last line of standard output.  Exits 1 when a
correctness check fails and 2 when the benchmark cannot run at all.
``--record-reference`` rewrites ``perfbench/reference/<workload>.json`` from
the canary corpus instead.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads here, and inherited by every child process.
_PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(_PINNED_THREADS)

import argparse
import json
import math
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from corpus import generate_corpus, tree_sha256
from workloads import REFERENCE_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0  # the whole run, set-up included, ends within 180 s
SETUP_PROBES = 3
# Canary bundle floats may move in the last digits (summation order); anything
# larger is a changed result.
REL_TOL = 1e-9
ABS_TOL = 1e-12

# per-layer time metric -> span name; each is the span's seconds summed over a run.
_LAYER_TIMES = {
    "dyadic.fit_logistic_s": "dyadic.fit_logistic",
    "dyadic.build_dyad_design_s": "dyadic.build_dyad_design",
    "dyadic.sex_permutation_test_s": "dyadic.sex_permutation_test",
    "dyadic.degree_missingness_ttest_s": "dyadic.degree_missingness_ttest",
    "graph.network_stats_s": "graph.network_stats",
    "graph.largest_connected_component_s": "graph.largest_connected_component",
    "community.louvain_s": "community.louvain",
    "community.nmi_s": "community.nmi",
    "community.modularity_of_partition_s": "community.modularity_of_partition",
    "segregation.segregation_report_s": "segregation.segregation_report",
    "segregation.build_community_network_s": "segregation.build_community_network",
    "ingest.load_village_s": "ingest.load_village",
    "pipeline.summarize_s": "pipeline.summarize_output_directory",
}
# per-layer count metric -> (tracer counter, unit)
_LAYER_COUNTS = {
    "dyadic.fit_calls": ("dyadic.fit_logistic_calls", "count"),
    "dyadic.dyads": ("dyadic.dyads", "count"),
    "dyadic.newton_iterations": ("dyadic.newton_iterations", "count"),
    "dyadic.rows_streamed": ("dyadic.rows_streamed", "rows"),
    "dyadic.perm_attempts": ("dyadic.perm_attempts", "count"),
    "dyadic.perm_replicates": ("dyadic.perm_replicates", "count"),
    "graph.network_stats_calls": ("graph.network_stats_calls", "count"),
    "graph.lcc_nodes": ("graph.lcc_nodes", "count"),
    "graph.lcc_edges": ("graph.lcc_edges", "count"),
    "community.louvain_levels": ("community.louvain_levels", "count"),
    "ingest.bytes_read": ("ingest.bytes_read", "B"),
    "pipeline.bytes_written": ("pipeline.bytes_written", "B"),
    "pipeline.files_written": ("pipeline.files_written", "count"),
}
# Counts that must repeat exactly between traced runs of one seed.
REPEATABLE_COUNTS = (
    "graph.network_stats_calls",
    "dyadic.dyads",
    "dyadic.newton_iterations",
    "dyadic.perm_attempts",
    "pipeline.bytes_written",
    "graph.lcc_nodes",
)
_TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def pinned_env(src: Path) -> dict[str, str]:
    """Child environment: thread pins (already in os.environ), no SEGNET_WORKERS, segnet from ``src``."""
    env = {k: v for k, v in os.environ.items() if k != "SEGNET_WORKERS"}
    env["PYTHONPATH"] = str(src)
    return env


def run_child(cmd: list[str], env: dict[str, str], timeout: float) -> int:
    """Run ``cmd`` in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def measure_setup(env: dict[str, str], config: Path) -> list[float]:
    """Wall seconds for fresh interpreters to import segnet and load the run config."""
    cmd = [sys.executable, "-c", "import sys, segnet; segnet.load_run_config(sys.argv[1])", str(config)]
    times = []
    for probe in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=60)
        if probe:  # the first probe fills the bytecode cache
            times.append(time.perf_counter() - start)
    return times


def compare_numbers(actual, expected, path: str, out: list[str]) -> None:
    """Append a line to ``out`` for each leaf where ``actual`` departs from ``expected``."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if actual.keys() != expected.keys():
            out.append(f"{path}: keys {sorted(actual)} != {sorted(expected)}")
            return
        for key in expected:
            compare_numbers(actual[key], expected[key], f"{path}.{key}", out)
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            out.append(f"{path}: length {len(actual)} != {len(expected)}")
            return
        for i, (a, e) in enumerate(zip(actual, expected)):
            compare_numbers(a, e, f"{path}[{i}]", out)
    elif isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        if not math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            out.append(f"{path}: {actual!r} != {expected!r}")
    elif actual != expected or type(actual) is not type(expected):
        out.append(f"{path}: {actual!r} != {expected!r}")


def check(workload: Workload, facts: dict, canary_facts: dict, result: dict, trace: bool) -> list[str]:
    """Every correctness failure of one benchmark run, as readable lines."""
    problems: list[str] = []
    reference_path = HERE / "reference" / f"{workload.name}.json"
    reference = json.loads(reference_path.read_text(encoding="utf-8"))
    if canary_facts["sha256"] != reference["corpus_sha256"]:
        problems.append("canary corpus differs from the recorded one: the generator changed")
    canary = result["canary"]
    if canary["n_failed"]:
        problems.append(f"canary: {canary['n_failed']} village(s) failed")
    mismatches: list[str] = []
    compare_numbers(canary["bundles"], reference["bundles"], "canary", mismatches)
    problems += mismatches[:10]

    expected = sorted(facts["villages"])
    for run in result["runs"]:
        if run["n_villages"] != len(expected) or run["n_failed"]:
            problems.append(
                f"run analyzed {run['n_villages'] - run['n_failed']} of {len(expected)} villages: "
                f"{run['failures']}"
            )
    if sorted(result["gate"]) != expected:
        problems.append(f"bundles for {sorted(result['gate'])}, expected {expected}")
    for vid, gate in sorted(result["gate"].items()):
        if gate["dyadic_error"] or gate["converged"] is not True:
            problems.append(f"{vid}: dyadic fit did not converge ({gate['dyadic_error']})")
        odds, p_value = gate["caste_odds_ratio"], gate["caste_p_value"]
        # Every generated village plants caste assortative.
        if not (odds is not None and odds > 1.0 and p_value is not None and p_value < 0.05):
            problems.append(
                f"{vid}: planted caste homophily not found "
                f"(OR {odds}, p {p_value})"
            )
    trees = {(r["tree_sha256"], r["tree_after_summarize"]) for r in result["runs"]}
    if len({h for pair in trees for h in pair}) != 1:
        problems.append(
            "output trees differ between runs (reruns, worker counts, tracing or summarize)"
        )
    if trace:
        for name in REPEATABLE_COUNTS:
            values = {t["counts"].get(_LAYER_COUNTS[name][0], 0) for t in result["traced"]}
            if len(values) != 1:
                problems.append(f"{name} differs between traced runs: {sorted(values)}")
    return problems


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(setup: list[float], result: dict) -> dict:
    runs = result["runs"]
    attempted = sum(r["n_villages"] for r in runs)
    failed = sum(r["n_failed"] for r in runs)
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        # The host's speed drifts by up to a third over tens of seconds; the
        # fastest of the identical runs is the one least slowed by it.
        "corpus_s": _metric(min(r["seconds"] for r in runs), "s"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        # The failure share n_failed / n_villages, reported as its complement
        # so that the metric is never 0.
        "villages_analyzed_frac": _metric(1.0 - failed / attempted, "fraction"),
    }


def _tail(values: list[float]) -> tuple[float, int]:
    """Highest listed percentile with at least ten samples above it (median if none)."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    for pct in _TAIL_PERCENTILES:
        if sum(v > cuts[pct - 1] for v in values) >= 10:
            return cuts[pct - 1], pct
    return statistics.median(values), 50


def layer_metrics(result: dict) -> dict:
    traced = result["traced"]
    counts = traced[0]["counts"]
    metrics = {
        name: _metric(statistics.median(t["inclusive"].get(span, 0.0) for t in traced), "s")
        for name, span in _LAYER_TIMES.items()
    }
    metrics.update(
        {name: _metric(counts.get(key, 0), unit) for name, (key, unit) in _LAYER_COUNTS.items()}
    )
    fits = counts.get("dyadic.fit_logistic_calls", 0)
    attempts = counts.get("dyadic.perm_attempts", 0)
    metrics["dyadic.fits_converged_frac"] = _metric(
        counts.get("dyadic.fits_converged", 0) / fits if fits else 0.0, "fraction"
    )
    metrics["dyadic.perm_accept_ratio"] = _metric(
        counts.get("dyadic.perm_replicates", 0) / attempts if attempts else 0.0, "ratio"
    )
    metrics["pipeline.self_s"] = _metric(
        statistics.median(
            t["self"].get("pipeline.run_pipeline", 0.0) + t["self"].get("pipeline.analyze_village", 0.0)
            for t in traced
        ),
        "s",
    )
    villages = sorted(traced[0]["village_seconds"])
    per_village = [statistics.median(t["village_seconds"][v] for t in traced) for v in villages]
    tail, pct = _tail(per_village)
    metrics["pipeline.analyze_village_p50_s"] = _metric(statistics.median(per_village), "s")
    metrics["pipeline.analyze_village_tail_s"] = _metric(tail, "s")
    metrics["pipeline.analyze_village_tail_pct"] = _metric(pct, "percentile")
    metrics["pipeline.analyze_village_count"] = _metric(len(per_village), "count")
    # Fastest runs on both sides, as for corpus_s.
    traced_s = min(t["seconds"] for t in traced)
    untraced_s = min(r["seconds"] for r in result["runs"] if not r["traced"] and r["workers"] == 1)
    metrics["trace.corpus_s"] = _metric(traced_s, "s")
    metrics["trace.overhead_s"] = _metric(traced_s - untraced_s, "s")
    return metrics


def environment(root: Path, versions: dict) -> dict:
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or None
    return {
        **versions,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": tree_sha256(root / "src" / "segnet", "*.py"),
        "pinned_threads": _PINNED_THREADS,
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record-reference", action="store_true")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    root = Path.cwd()
    src = root / "src"
    if not (src / "segnet" / "__init__.py").is_file():
        print(f"no segnet sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    env = pinned_env(src)
    work_root = root / ".perfbench_work"
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = work_root / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        facts = generate_corpus(work / "corpus", workload.villages, args.seed, workload.salt)
        canary_facts = generate_corpus(work / "canary", workload.canary, REFERENCE_SEED, workload.salt)
        config = work / "run.cfg"
        config.write_text(workload.config_text("corpus", "out"), encoding="utf-8")
        canary_config = work / "canary.cfg"
        canary_config.write_text(workload.config_text("canary", "out"), encoding="utf-8")
        setup = [] if args.trace or args.record_reference else measure_setup(env, config)

        spec = {
            "src": str(src),
            "config": str(config),
            "canary_config": str(canary_config),
            "workers": workload.workers,
            "trace": bool(args.trace),
            "seconds": args.seconds,
            "measure": not args.record_reference,
            "out_root": str(work / "out"),
            "spans_path": str(work_root / "traces" / f"{tag}.jsonl"),
        }
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        result_path = work / "result.json"
        remaining = DEADLINE_S - (time.perf_counter() - started)
        try:
            code = run_child(
                [sys.executable, str(HERE / "runner.py"), str(spec_path), str(result_path)],
                env,
                remaining,
            )
        except subprocess.TimeoutExpired:
            print(f"benchmark run exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
            return 2
        if code != 0:
            print(f"runner exited with code {code}", file=sys.stderr)
            return 2
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.record_reference:
        reference = {
            "corpus_sha256": canary_facts["sha256"],
            "bundles": result["canary"]["bundles"],
        }
        path = HERE / "reference" / f"{workload.name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)
        return 0

    problems = check(workload, facts, canary_facts, result, bool(args.trace))
    metrics = layer_metrics(result) if args.trace else end_to_end_metrics(setup, result)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(root, result["versions"]),
        "corpus": facts,
        "setup_probes_s": setup,
        "runs": result["runs"],
        "problems": problems,
        "metrics": metrics,
    }
    results_dir = work_root / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"environment: {json.dumps(record['environment'])}", file=sys.stderr)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{workload.name:>15} {name:<40} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    runs = result["runs"]
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(r["n_villages"] for r in runs),
                "failed": sum(r["n_failed"] for r in runs),
                "metrics": metrics,
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

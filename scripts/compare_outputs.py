#!/usr/bin/env python3
"""Check that two segnet source trees write byte-identical output trees.

Generates the benchmark's corpora (``perfbench/corpus.py``) at one seed for
each workload, runs ``run_pipeline`` and then ``segnet summarize`` on them
once with each source tree, each in its own interpreter, and compares the
output trees and the printed summaries::

    python3 scripts/compare_outputs.py /path/to/old/src src --seed 411
    python3 scripts/compare_outputs.py OLD_SRC src --set joint_model=false \\
        --set age_encoding=difference --set "permutation_tolerances=0.02, 0.05, 0.2"

``--set KEY=VALUE`` adds a run-config line to every workload's config.  When
the trees differ, the script lists the differing files and, for each bundle
key (list positions dropped), the largest relative difference between float
leaves over all villages.  Exits 0 when everything is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from corpus import generate_corpus  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Run in a fresh interpreter with PYTHONPATH set to one source tree:
# argv = config path, output directory, file for the printed summaries.
_CHILD = """
import contextlib, dataclasses, sys
from segnet import cli, load_run_config, run_pipeline
cfg = load_run_config(sys.argv[1])
run_pipeline(dataclasses.replace(cfg, output_dir=sys.argv[2]))
with open(sys.argv[3], "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
    cli.main(["summarize", sys.argv[2]])
"""


def run_tree(src: Path, config: Path, out: Path, printed: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, "-c", _CHILD, str(config), str(out), str(printed)], env=env, check=True
    )


def differing_files(a: Path, b: Path, rel: Path = Path()) -> list[str]:
    """Paths under ``a`` and ``b`` that exist in only one of them or differ in content."""
    cmp = filecmp.dircmp(a / rel, b / rel)
    out = [str(rel / name) for name in cmp.left_only + cmp.right_only + cmp.common_funny]
    _, mismatch, errors = filecmp.cmpfiles(a / rel, b / rel, cmp.common_files, shallow=False)
    out += [str(rel / name) for name in mismatch + errors]
    for sub in cmp.common_dirs:
        out += differing_files(a, b, rel / sub)
    return sorted(out)


def float_differences(a, b, key: str, out: dict[str, float]) -> None:
    """Record per key the largest relative difference between float leaves of ``a`` and ``b``."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in a.keys() & b.keys():
            float_differences(a[k], b[k], f"{key}.{k}" if key else k, out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            float_differences(x, y, key, out)
    elif isinstance(a, float) and isinstance(b, float) and a != b:
        scale = max(abs(a), abs(b))
        rel = abs(a - b) / scale if math.isfinite(scale) else math.inf
        out[key] = max(out.get(key, 0.0), rel)


def report_bundles(a: Path, b: Path) -> None:
    largest: dict[str, float] = defaultdict(float)
    for path in sorted((a / "bundles").glob("*.json")):
        other = b / "bundles" / path.name
        if other.is_file():
            float_differences(
                json.loads(path.read_text(encoding="utf-8")),
                json.loads(other.read_text(encoding="utf-8")),
                "",
                largest,
            )
    for key, rel in sorted(largest.items(), key=lambda kv: -kv[1]):
        print(f"    {rel:.3e}  {key}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path, help="first source tree (the directory above segnet/)")
    parser.add_argument("src_b", type=Path, help="second source tree")
    parser.add_argument("--seed", type=int, default=411)
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    args = parser.parse_args(argv)

    srcs = [args.src_a.resolve(), args.src_b.resolve()]
    for src in srcs:
        if not (src / "segnet" / "__init__.py").is_file():
            parser.error(f"no segnet package under {src}")
    extra = "".join(f"{line.replace('=', ' = ', 1)}\n" for line in args.set)
    identical = True
    with tempfile.TemporaryDirectory(prefix="segnet-compare-") as work:
        for name, workload in sorted(WORKLOADS.items()):
            base = Path(work) / name
            generate_corpus(base / "corpus", workload.villages, args.seed, workload.salt)
            config = base / "run.cfg"
            config.write_text(workload.config_text("corpus", "out") + extra, encoding="utf-8")
            outs = [base / "out_a", base / "out_b"]
            printed = [base / "printed_a.txt", base / "printed_b.txt"]
            for src, out, text in zip(srcs, outs, printed):
                run_tree(src, config, out, text)
            files = differing_files(*outs)
            same_print = printed[0].read_bytes() == printed[1].read_bytes()
            if not files and same_print:
                print(f"{name}: identical")
                continue
            identical = False
            printed_note = "" if same_print else ", printed summaries differ"
            print(f"{name}: {len(files)} file(s) differ{printed_note}")
            for path in files:
                print(f"    {path}")
            print("  largest relative float difference per bundle key:")
            report_bundles(*outs)
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())

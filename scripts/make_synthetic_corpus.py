#!/usr/bin/env python3
"""Generate a demonstration corpus of attributed villages with known structure.

Creates N stochastic-block-model villages whose blocks carry caste labels, plus
iid sex/religion/age columns, then writes a matching run config next to the
corpus.  Handy for exercising the full pipeline without any survey data:

    python scripts/make_synthetic_corpus.py --villages 8 --out demo
    segnet run --config demo/run.cfg
"""

from __future__ import annotations

import argparse
import json
import re
from pathlib import Path

from segnet.pipeline import default_config_text


def village_entry(index: int, rng_seed: int) -> dict:
    # Vary block counts and mixing so the corpus is not a single repeated graph.
    n_blocks = 2 + index % 3
    sizes = [40 + 10 * ((index + b) % 3) for b in range(n_blocks)]
    castes = ["general", "obc", "scheduled caste", "scheduled tribe"]
    rules = [castes[b % len(castes)] for b in range(n_blocks)]
    return {
        "kind": "sbm",
        "village_id": f"v{index:03d}",
        "block_sizes": sizes,
        "p_in": 0.22 + 0.02 * (index % 4),
        "p_out": 0.01,
        "block_rules": rules,
        "extra_attributes": {
            "sex": {"male": 0.5, "female": 0.5},
            "religion": {"hinduism": 0.75, "islam": 0.2, "christianity": 0.05},
            "age": {"22": 0.25, "33": 0.3, "45": 0.25, "62": 0.2},
            "workflag": {"0": 0.4, "1": 0.6},
        },
        "missing_rate": 0.04,
        "seed": rng_seed + index,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--villages", type=int, default=6)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--out", type=Path, default=Path("demo"))
    args = parser.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    synth = {
        "output_dir": "corpus",
        "seed": args.seed,
        "villages": [village_entry(i, args.seed) for i in range(args.villages)],
    }
    synth_path = args.out / "synth.json"
    synth_path.write_text(json.dumps(synth, indent=2) + "\n", encoding="utf-8")

    # The corpus has no education or savings columns, so the dyad fit must not ask for them.
    config_text, found = re.subn(
        r"^attributes\s*=.*$",
        "attributes = caste, sex, age, religion, workflag",
        default_config_text(corpus_dir="corpus", output_dir="out"),
        flags=re.MULTILINE,
    )
    if found != 1:
        raise SystemExit("the default run config has no single 'attributes' line to replace")
    (args.out / "run.cfg").write_text(config_text, encoding="utf-8")

    from segnet.cli import main as segnet_main

    code = segnet_main(["synth", "--config", str(synth_path)])
    if code != 0:
        raise SystemExit(code)
    print(f"corpus ready; next: segnet run --config {args.out / 'run.cfg'}")


if __name__ == "__main__":
    main()

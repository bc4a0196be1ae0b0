"""Command line front end.

Three subcommands:

``segnet run --config run.cfg``
    Analyze a corpus directory and write bundles, per-village CSVs, and
    summary tables.  Exits nonzero when any village fails or none is found,
    and refuses an ``output_dir`` that is a village directory.

``segnet summarize <output-dir>``
    Recompute and print the corpus summary tables from the JSON bundles in
    an existing output directory (rewrites the ``summary_*.csv`` files).
    Refuses bundles that differ from the run manifest's analyzed villages.

``segnet synth --config synth.json``
    Generate a synthetic corpus in the canonical on-disk layout.  The JSON
    config lists villages of kind ``sbm`` (attributed stochastic block model)
    or ``dyad`` (ties drawn from a dyadic logistic model), for example::

        {
          "output_dir": "corpus",
          "seed": 7,
          "villages": [
            {"kind": "sbm", "village_id": "v001",
             "block_sizes": [60, 60], "p_in": 0.25, "p_out": 0.02,
             "block_rules": ["general", {"obc": 0.5, "scheduled caste": 0.5}],
             "extra_attributes": {"sex": {"male": 0.5, "female": 0.5}},
             "missing_rate": 0.05},
            {"kind": "dyad", "village_id": "v002", "n_nodes": 140,
             "beta0": -1.4, "betas": {"caste": 1.6},
             "attribute_law": {"caste": {"general": 0.6, "obc": 0.4}}}
          ]
        }

    Relative ``output_dir`` resolves against the config file's directory.
    A village without a ``seed`` gets the top-level seed plus its index.
    Each ``village_id`` names one directory under ``output_dir``: not empty,
    ``.`` or ``..``, and without ``/``, ``\\`` or NUL.  Every
    village is generated and every directory checked before any is written,
    so a bad entry or a stale ``.csv`` (see ``save_village``) writes nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .config import _checked, load_run_config

if TYPE_CHECKING:
    from .ingest import VillageDataset
    from .synth import AttributedSbmConfig

__all__ = ["main"]

# Each handler imports the layers it runs, so help, usage errors and a bad
# run config are reported before numpy loads.


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    from .pipeline import run_pipeline

    result = run_pipeline(cfg)
    analyzed = result.n_villages - result.n_failed
    print(f"analyzed {analyzed} of {result.n_villages} village(s); output in {result.output_dir}")
    for village, message in sorted(result.failures.items()):
        print(f"  failed {village}: {message}", file=sys.stderr)
    return result.exit_code


def _format_cell(value: Any) -> str:
    if value is None or value == "":
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _print_table(title: str, rows: Sequence[Mapping[str, Any]]) -> None:
    print(f"\n== {title} ==")
    if not rows:
        print("(empty)")
        return
    columns = list(rows[0].keys())
    cells = [[_format_cell(row.get(c)) for c in columns] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in cells)) for i, c in enumerate(columns)]
    print("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    for r in cells:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)))


def _cmd_summarize(args: argparse.Namespace) -> int:
    from .pipeline import summarize_output_directory

    for name, rows in summarize_output_directory(args.directory).items():
        _print_table(name.replace("_", " "), rows)
    return 0


def _json_object(value: Any, what: str) -> dict[str, Any]:
    """``value`` when it is a JSON object; a ``ValueError`` naming ``what`` otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def _laws(value: Any, key: str) -> dict[str, dict[str, Any]]:
    """A JSON object of JSON objects, such as ``attribute_law``'s category shares."""
    return {k: dict(_json_object(v, f"{key}[{k!r}]")) for k, v in _json_object(value, key).items()}


def _build_sbm(entry: Mapping[str, Any], seed: int) -> AttributedSbmConfig:
    from .synth import AttributedSbmConfig

    rules = []
    for j, rule in enumerate(entry["block_rules"]):
        rules.append(rule if isinstance(rule, str) else _json_object(rule, f"block_rules[{j}]"))
    return AttributedSbmConfig(
        block_sizes=tuple(
            _checked(f"block_sizes[{j}]", s, "int") for j, s in enumerate(entry["block_sizes"])
        ),
        p_in=_checked("p_in", entry["p_in"], "float"),
        p_out=_checked("p_out", entry["p_out"], "float"),
        attribute_rule=tuple(rules),
        seed=seed,
        attribute_name=entry.get("attribute", "caste"),
        village_id=entry["village_id"],
        extra_attribute_laws=_laws(entry.get("extra_attributes", {}), "extra_attributes"),
        missing_rate=_checked("missing_rate", entry.get("missing_rate", 0.0), "float"),
    )


def _cmd_synth(args: argparse.Namespace) -> int:
    from .ingest import _names_one_file, _refuse_stale_csv, save_village
    from .synth import generate_attribute_sbm, generate_dyad_sample

    config_path = Path(args.config)
    spec = _json_object(json.loads(config_path.read_text(encoding="utf-8")), "synth config")
    villages = spec.get("villages")
    if not villages or not isinstance(villages, list):
        raise ValueError("synth config needs a non-empty 'villages' list")
    out_dir = Path(_checked("output_dir", spec.get("output_dir", "corpus"), "str"))
    if not out_dir.is_absolute():
        out_dir = config_path.parent / out_dir
    base_seed = _checked("seed", spec.get("seed", 0), "int")
    datasets: dict[str, VillageDataset] = {}
    for i, entry in enumerate(villages):
        try:
            entry = _json_object(entry, "village entry")
            village_id = entry["village_id"]
            if not _names_one_file(village_id):
                raise ValueError(f"village_id must name one directory, got {village_id!r}")
            if village_id in datasets:
                raise ValueError(f"duplicate village_id {village_id!r}")
            seed = _checked("seed", entry.get("seed", base_seed + i), "int")
            kind = entry.get("kind")
            if kind == "sbm":
                datasets[village_id], _ = generate_attribute_sbm(_build_sbm(entry, seed))
            elif kind == "dyad":
                betas = _json_object(entry["betas"], "betas")
                datasets[village_id] = generate_dyad_sample(
                    beta0=_checked("beta0", entry["beta0"], "float"),
                    betas={k: _checked(f"betas[{k!r}]", v, "float") for k, v in betas.items()},
                    feature_law=_laws(entry["attribute_law"], "attribute_law"),
                    n_nodes=_checked("n_nodes", entry["n_nodes"], "int"),
                    seed=seed,
                    village_id=village_id,
                )
            else:
                raise ValueError(f"unknown village kind {kind!r}")
        except KeyError as exc:
            raise ValueError(f"villages[{i}]: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"villages[{i}]: {exc}") from None
    for village_id, dataset in datasets.items():
        _refuse_stale_csv(dataset, out_dir / village_id)
    for village_id, dataset in datasets.items():
        save_village(dataset, out_dir / village_id)
    print(f"wrote {len(villages)} village(s) under {out_dir}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="segnet",
        description="Quantify attribute segregation in undirected social networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="analyze a corpus directory")
    run_parser.add_argument("--config", required=True, help="path to a key = value run config")

    summarize_parser = sub.add_parser(
        "summarize", help="recompute summary tables from an output directory"
    )
    summarize_parser.add_argument("directory", help="output directory of a previous run")

    synth_parser = sub.add_parser("synth", help="generate a synthetic corpus")
    synth_parser.add_argument("--config", required=True, help="path to a JSON synth config")

    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "summarize": _cmd_summarize, "synth": _cmd_synth}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"segnet {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Convert a raw village-survey release into the canonical corpus layout.

Expected raw layout (override the patterns if yours differs):

  raw/
    adj_<layer>_vilno_<K>.csv      0/1 adjacency matrix, one per relation layer
    key_vilno_<K>.csv              one person id per line; row i of every
                                   adjacency matrix for village K is key line i
    individual_characteristics.csv survey answers, one row per respondent

Character file defaults (every one has an override flag): the village column is
``village``, the person id column is ``pid``, sex is ``resp_gend`` coded 1=male
2=female, age is ``age``, religion is ``religion`` with values like HINDUISM,
caste is ``caste`` with values like OBC or SCHEDULED CASTE, education is
``educ``, and the binary columns ``workflag`` and ``savings`` are coded 1=yes
with 0 or 2 meaning no.  Every cell then goes through segnet's cell codec
(``segnet.attributes.parse_cell``), and the cells it rejects become missing
values: blank or unknown categories (matched case-insensitively), and numbers
that are not whole (``NA``, ``5.5``) or are negative (``-1``).  Key-file ids
without a survey row are kept with every attribute missing.

Output: <out>/<village>/, written by ``segnet.save_village``: one CSV per layer
(source,target pairs), nodes.csv fixing the node universe to the key file, and
attributes.csv.  A layer named ``nodes`` or ``attributes`` is refused.

Example:
  python scripts/adapt_karnataka.py --raw ~/data/raw --out corpus \
      --layers visitgo visitcome kerorice borrowmoney lendmoney \
      helpdecision keroricego keroricecome templecompany socialise
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
from collections import Counter, defaultdict
from pathlib import Path

from segnet.attributes import ATTRIBUTE_NAMES, AttributeTable, missing_value, parse_cell
from segnet.ingest import VillageDataset, adapt_adjacency_matrix, save_village

SEX_CODES = {"1": "male", "2": "female"}
BINARY_CODES = {"1": "1", "0": "0", "2": "0"}  # some releases code "no" as 2
# Raw codes, translated to the codec's cell text before it parses them.
RECODES = {"sex": SEX_CODES, "workflag": BINARY_CODES, "savings": BINARY_CODES}


def column_value(attr: str, raw: str) -> int | float:
    """The codec's value of one raw cell, or the missing value where it rejects the cell."""
    text = raw.strip()
    if attr in RECODES:
        text = RECODES[attr].get(text, "")
    try:
        return parse_cell(attr, text)
    except ValueError:
        return missing_value(attr)


def load_characteristics(
    path: Path, args: argparse.Namespace
) -> dict[str, dict[str, tuple[int | float, ...]]]:
    """village -> person id -> column values in ``ATTRIBUTE_NAMES`` order."""
    columns = [getattr(args, f"col_{attr}") for attr in ATTRIBUTE_NAMES]
    by_village: dict[str, dict[str, tuple[int | float, ...]]] = defaultdict(dict)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for row in csv.DictReader(fh):
            village = row.get(args.col_village, "").strip()
            pid = row.get(args.col_person, "").strip()
            if not village or not pid:
                continue
            by_village[village][pid] = tuple(
                column_value(attr, row.get(col, "")) for attr, col in zip(ATTRIBUTE_NAMES, columns)
            )
    return by_village


def build_village(
    village_id: str,
    pids: list[str],
    matrices: dict[str, Path],
    rows: dict[str, tuple[int | float, ...]],
) -> VillageDataset:
    """The village over the key-file ids: one layer per matrix, one attribute row per id."""
    repeated = [pid for pid, count in Counter(pids).items() if count > 1]
    if repeated:
        raise ValueError(f"duplicate node id {repeated[0]!r} in key file")
    layer_pairs = {layer: adapt_adjacency_matrix(path) for layer, path in sorted(matrices.items())}
    blank = tuple(missing_value(attr) for attr in ATTRIBUTE_NAMES)
    values = [rows.get(pid, blank) for pid in pids]
    table = AttributeTable(
        node_ids=tuple(pids),
        **{attr: [row[k] for row in values] for k, attr in enumerate(ATTRIBUTE_NAMES)},
    )
    return VillageDataset(village_id, table, layer_pairs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--raw", type=Path, required=True, help="raw release directory")
    parser.add_argument("--out", type=Path, required=True, help="corpus directory to create")
    parser.add_argument("--layers", nargs="*", default=None, help="layer names to keep (default: all found)")
    parser.add_argument("--villages", nargs="*", default=None, help="village numbers to keep (default: all found)")
    parser.add_argument("--characteristics", type=Path, default=None,
                        help="characteristics CSV (default <raw>/individual_characteristics.csv)")
    parser.add_argument("--adj-pattern", default=r"adj_(?P<layer>[A-Za-z0-9]+)_vilno_(?P<village>\d+)\.csv")
    parser.add_argument("--key-pattern", default="key_vilno_{village}.csv")
    parser.add_argument("--col-village", default="village")
    parser.add_argument("--col-person", default="pid")
    parser.add_argument("--col-sex", default="resp_gend")
    parser.add_argument("--col-age", default="age")
    parser.add_argument("--col-religion", default="religion")
    parser.add_argument("--col-caste", default="caste")
    parser.add_argument("--col-education", default="educ")
    parser.add_argument("--col-workflag", default="workflag")
    parser.add_argument("--col-savings", default="savings")
    args = parser.parse_args()

    adj_re = re.compile(args.adj_pattern)
    matrices: dict[str, dict[str, Path]] = defaultdict(dict)  # village -> layer -> path
    for path in sorted(args.raw.iterdir()):
        match = adj_re.fullmatch(path.name)
        if not match:
            continue
        layer, village = match.group("layer"), match.group("village")
        if args.layers and layer not in args.layers:
            continue
        if args.villages and village not in args.villages:
            continue
        matrices[village][layer] = path
    if not matrices:
        sys.exit(f"no adjacency matrices matching {args.adj_pattern!r} under {args.raw}")

    characteristics_path = args.characteristics or args.raw / "individual_characteristics.csv"
    people = load_characteristics(characteristics_path, args)

    for village, layers in sorted(matrices.items()):
        key_path = args.raw / args.key_pattern.format(village=village)
        if not key_path.is_file():
            print(f"skipping village {village}: missing {key_path.name}", file=sys.stderr)
            continue
        pids = [line.strip() for line in key_path.read_text(encoding="utf-8-sig").splitlines() if line.strip()]
        rows = people.get(village, {})
        try:
            dataset = build_village(f"vil{int(village):03d}", pids, layers, rows)
            save_village(dataset, args.out / dataset.village_id)
        except ValueError as exc:
            sys.exit(f"village {village}: {exc}")
        print(f"village {village}: {len(layers)} layer(s), {len(pids)} node(s), "
              f"{sum(1 for p in pids if p in rows)} respondent(s)")


if __name__ == "__main__":
    main()

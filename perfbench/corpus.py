"""Seeded village corpus generator for the benchmark.

Writes the canonical segnet corpus layout (``nodes.csv``, ``attributes.csv``
and one ``source,target`` file per relation layer) with plain numpy and
string formatting.  It deliberately imports nothing from ``segnet``, so a
change to the program can never change the benchmark's inputs.

Each village is a block model.  Blocks carry a dominant caste and tie more
within than across, so caste is planted assortative in every village.  Sex
is assigned in degree-sorted pairs (one male, one female per pair, order
drawn at random), which keeps the observed male and female mean degrees
close together; the permutation test's acceptance rate then depends on the
degree spread, not on a lucky draw.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

CASTES = ("scheduled caste", "scheduled tribe", "obc", "general")
RELIGIONS = ("hinduism", "islam", "christianity")
RELIGION_P = (0.82, 0.13, 0.05)
LAYERS = (("visit", 0.7), ("borrow", 0.5), ("advice", 0.3))
ATTRIBUTE_HEADER = "node_id,sex,age,religion,caste,education,workflag,savings"

# Shared by every village: ~8 ties per node, four blocks whose in-block tie
# rate is six times the cross-block rate, 85% of a block on its dominant
# caste, 3% isolated respondents and 4% missingness on every attribute.
MEAN_DEGREE = 8.0
N_BLOCKS = 4
IN_BLOCK_RATIO = 6.0
CASTE_DOMINANCE = 0.85
ISOLATE_FRACTION = 0.03
MISSING_RATE = 0.04


def _draw_edges(
    rng: np.random.Generator, n: int, block: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Independent tie draws, IN_BLOCK_RATIO times likelier within a block than across.

    Isolated respondents get no ties; the rate is scaled to MEAN_DEGREE.
    """
    active = np.ones(n)
    active[rng.choice(n, size=int(round(ISOLATE_FRACTION * n)), replace=False)] = 0.0
    block_mass = np.bincount(block, weights=active, minlength=N_BLOCKS)
    total = block_mass.sum()
    same = (block_mass**2).sum() - (active**2).sum()
    weighted_pairs = IN_BLOCK_RATIO * same + (total**2 - (block_mass**2).sum())
    scale = MEAN_DEGREE * n / weighted_pairs
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for i in range(n - 1):
        j = np.arange(i + 1, n)
        w = np.where(block[j] == block[i], IN_BLOCK_RATIO, 1.0)
        p = np.minimum(1.0, scale * active[i] * active[j] * w)
        hit = j[rng.random(j.size) < p]
        us.append(np.full(hit.size, i))
        vs.append(hit)
    return np.concatenate(us), np.concatenate(vs)


def _with_missing(rng: np.random.Generator, values: list[str]) -> list[str]:
    blank = rng.random(len(values)) < MISSING_RATE
    return ["" if b else v for v, b in zip(values, blank.tolist())]


def generate_village(directory: Path, n: int, seed: np.random.SeedSequence) -> dict:
    """Write one village of ``n`` respondents and return its node, tie and pair counts."""
    rng = np.random.default_rng(seed)
    block = np.sort(rng.integers(0, N_BLOCKS, size=n))
    eu, ev = _draw_edges(rng, n, block)
    degree = np.bincount(np.concatenate([eu, ev]), minlength=n)

    dominant = rng.permutation(len(CASTES))[np.arange(N_BLOCKS) % len(CASTES)]
    caste = np.where(
        rng.random(n) < CASTE_DOMINANCE,
        dominant[block],
        rng.integers(0, len(CASTES), size=n),
    )
    # Degree-sorted pairs, one male and one female each.
    order = np.lexsort((rng.random(n), degree))
    male = np.zeros(n, dtype=bool)
    flip = rng.random((n + 1) // 2) < 0.5
    for k, f in enumerate(flip.tolist()):
        pair = order[2 * k : 2 * k + 2]
        male[pair[0 if f else -1]] = True
    if n % 2:
        male[order[-1]] = rng.random() < 0.5

    columns = [
        _with_missing(rng, ["male" if m else "female" for m in male.tolist()]),
        _with_missing(rng, [str(a) for a in rng.integers(18, 80, size=n).tolist()]),
        _with_missing(rng, [RELIGIONS[r] for r in rng.choice(3, size=n, p=RELIGION_P).tolist()]),
        _with_missing(rng, [CASTES[c] for c in caste.tolist()]),
        _with_missing(rng, [str(e) for e in rng.integers(0, 17, size=n).tolist()]),
        _with_missing(rng, [str(w) for w in (rng.random(n) < 0.6).astype(int).tolist()]),
        _with_missing(rng, [str(s) for s in (rng.random(n) < 0.4).astype(int).tolist()]),
    ]

    ids = [f"p{i:05d}" for i in range(n)]
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "nodes.csv").write_text(
        "node_id\n" + "".join(f"{nid}\n" for nid in ids), encoding="utf-8"
    )
    rows = [ATTRIBUTE_HEADER] + [",".join(fields) for fields in zip(ids, *columns)]
    (directory / "attributes.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    # Every tie lands in at least one layer; some pairs are written reversed.
    membership = np.column_stack([rng.random(eu.size) < p for _, p in LAYERS])
    membership[~membership.any(axis=1), 0] = True
    reverse = rng.random(eu.size) < 0.5
    src = np.where(reverse, ev, eu)
    dst = np.where(reverse, eu, ev)
    for col, (name, _) in enumerate(LAYERS):
        pick = np.flatnonzero(membership[:, col])
        lines = [f"{ids[a]},{ids[b]}\n" for a, b in zip(src[pick].tolist(), dst[pick].tolist())]
        (directory / f"{name}.csv").write_text("source,target\n" + "".join(lines), encoding="utf-8")

    return {"n": n, "m": int(eu.size), "dyads": n * (n - 1) // 2}


def generate_corpus(corpus_dir: Path, sizes: tuple[int, ...], seed: int, salt: int) -> dict:
    """Write one village per size; return per-village facts and the corpus hash."""
    villages = {}
    for index, n in enumerate(sizes):
        village_id = f"v{index:03d}"
        village_seed = np.random.SeedSequence([int(seed) % 2**63, salt, index])
        villages[village_id] = generate_village(corpus_dir / village_id, n, village_seed)
    return {"villages": villages, "sha256": tree_sha256(corpus_dir)}


def tree_sha256(root: Path, pattern: str = "*") -> str:
    """SHA-256 over the relative path and bytes of each file matching ``pattern``, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob(pattern) if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()

"""The benchmark's workloads: corpus shapes and the run config each one uses.

Village sizes are fixed per workload and only the draws depend on the seed,
so the amount of work in a run changes little from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass

# Seed of the small canary corpus whose bundles are checked against the
# numbers recorded in ``reference/<workload>.json``.
REFERENCE_SEED = 20180529


@dataclass(frozen=True)
class Workload:
    name: str
    salt: int  # separates the workloads' random streams for one --seed
    villages: tuple[int, ...]  # respondents per village
    canary: tuple[int, ...]
    workers: int

    def config_text(self, corpus_dir: str, output_dir: str) -> str:
        """Run config with segnet's defaults for everything but paths and workers."""
        return f"corpus_dir = {corpus_dir}\noutput_dir = {output_dir}\nworkers = {self.workers}\n"


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="survey",
            salt=1,
            villages=(200, 500, 1200),
            canary=(120, 180),
            workers=1,
        ),
        Workload(
            name="small_villages",
            salt=2,
            villages=tuple(60 + (190 * k) // 39 for k in range(40)),
            canary=(60, 100),
            workers=2,
        ),
    )
}

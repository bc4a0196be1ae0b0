"""Segregation analysis for attributed undirected social networks.

The package measures how node attributes (caste, sex, religion, ...) shape
village relationship networks at three levels: individual dyads (logistic
tie models and constrained permutation nulls), node-to-community alignment
(Louvain partitions scored with normalized mutual information), and
community-to-community mixing (a within/between split of attribute
modularity).  ``segnet.pipeline`` batches the full analysis over a corpus
of villages; the ``segnet`` console script wraps it.

``import segnet`` loads none of the modules below: each public name and
submodule is imported on first use, so loading a run configuration
(``segnet.load_run_config``) needs no numpy.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "attributes": ("CATEGORICAL_ATTRIBUTES", "NUMERIC_ATTRIBUTES", "AttributeTable"),
    "community": ("NmiResult", "Partition", "louvain", "modularity_of_partition", "nmi"),
    "config": (
        "DEFAULT_AGE_BINS",
        "DEFAULT_EDUCATION_BINS",
        "RunConfig",
        "config_sha256",
        "default_config_text",
        "load_run_config",
        "parse_run_config",
    ),
    "dyadic": (
        "DyadDesign",
        "FeatureSpec",
        "LogisticFit",
        "SexPermutationResult",
        "TieTriple",
        "build_dyad_design",
        "degree_missingness_ttest",
        "fit_logistic",
        "sex_permutation_test",
        "sex_permutation_tests",
    ),
    "graph": (
        "NetworkStats",
        "UndirectedGraph",
        "build_graph",
        "component_labels",
        "induced_subgraph",
        "largest_connected_component",
        "mean_local_clustering",
        "network_stats",
    ),
    "ingest": (
        "IngestConfig",
        "IngestError",
        "VillageDataset",
        "adapt_adjacency_matrix",
        "load_village",
        "save_village",
    ),
    "pipeline": (
        "RunResult",
        "analyze_village",
        "run_pipeline",
        "summarize_corpus",
        "summarize_output_directory",
    ),
    "segregation": (
        "CommunityNetwork",
        "CommunityNode",
        "CommunityTie",
        "SegregationReport",
        "build_community_network",
        "community_network_to_dot",
        "segregation_report",
    ),
    "synth": ("AttributedSbmConfig", "generate_attribute_sbm", "generate_dyad_sample"),
    "vocabulary": ("ATTRIBUTE_NAMES",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli"})

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})

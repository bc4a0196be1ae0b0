"""Segregation analysis for attributed undirected social networks.

The package measures how node attributes (caste, sex, religion, ...) shape
village relationship networks at three levels: individual dyads (logistic
tie models and constrained permutation nulls), node-to-community alignment
(Louvain partitions scored with normalized mutual information), and
community-to-community mixing (a within/between split of attribute
modularity).  ``segnet.pipeline`` batches the full analysis over a corpus
of villages; the ``segnet`` console script wraps it.
"""

from .attributes import (
    ATTRIBUTE_NAMES,
    CATEGORICAL_ATTRIBUTES,
    DEFAULT_AGE_BINS,
    DEFAULT_EDUCATION_BINS,
    NUMERIC_ATTRIBUTES,
    AttributeTable,
    complete_case_mask,
)
from .community import NmiResult, Partition, louvain, modularity_of_partition, nmi
from .dyadic import (
    DyadDesign,
    FeatureEncoding,
    FeatureSpec,
    FitOptions,
    LogisticFit,
    SexPermutationResult,
    TieTriple,
    build_dyad_design,
    default_feature_spec,
    degree_missingness_ttest,
    fit_logistic,
    sex_permutation_test,
    sex_permutation_tests,
)
from .graph import (
    NetworkStats,
    UndirectedGraph,
    build_graph,
    component_labels,
    induced_subgraph,
    largest_connected_component,
    mean_local_clustering,
    network_stats,
)
from .ingest import (
    IngestConfig,
    IngestError,
    VillageDataset,
    adapt_adjacency_matrix,
    load_village,
    save_village,
)
from .pipeline import (
    RunConfig,
    RunResult,
    analyze_village,
    config_sha256,
    default_config_text,
    load_run_config,
    parse_run_config,
    run_pipeline,
    summarize_corpus,
    summarize_output_directory,
)
from .segregation import (
    CommunityNetwork,
    CommunityNode,
    CommunityTie,
    SegregationReport,
    attribute_modularity,
    between_community_modularity,
    build_community_network,
    community_network_to_dot,
    community_network_to_json_dict,
    segregation_report,
    within_community_modularity,
)
from .synth import AttributedSbmConfig, generate_attribute_sbm, generate_dyad_sample

__version__ = "0.1.0"

__all__ = [
    "ATTRIBUTE_NAMES",
    "AttributeTable",
    "AttributedSbmConfig",
    "CATEGORICAL_ATTRIBUTES",
    "CommunityNetwork",
    "CommunityNode",
    "CommunityTie",
    "DEFAULT_AGE_BINS",
    "DEFAULT_EDUCATION_BINS",
    "DyadDesign",
    "FeatureEncoding",
    "FeatureSpec",
    "FitOptions",
    "IngestConfig",
    "IngestError",
    "LogisticFit",
    "NUMERIC_ATTRIBUTES",
    "NetworkStats",
    "NmiResult",
    "Partition",
    "RunConfig",
    "RunResult",
    "SegregationReport",
    "SexPermutationResult",
    "TieTriple",
    "UndirectedGraph",
    "VillageDataset",
    "adapt_adjacency_matrix",
    "analyze_village",
    "attribute_modularity",
    "between_community_modularity",
    "build_community_network",
    "build_dyad_design",
    "build_graph",
    "community_network_to_dot",
    "community_network_to_json_dict",
    "complete_case_mask",
    "component_labels",
    "config_sha256",
    "default_config_text",
    "default_feature_spec",
    "degree_missingness_ttest",
    "fit_logistic",
    "generate_attribute_sbm",
    "generate_dyad_sample",
    "induced_subgraph",
    "largest_connected_component",
    "load_run_config",
    "load_village",
    "louvain",
    "mean_local_clustering",
    "modularity_of_partition",
    "network_stats",
    "nmi",
    "parse_run_config",
    "run_pipeline",
    "save_village",
    "segregation_report",
    "sex_permutation_test",
    "sex_permutation_tests",
    "summarize_corpus",
    "summarize_output_directory",
    "within_community_modularity",
]

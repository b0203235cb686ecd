"""Website-administration detection from publisher-specific IDs.

Pipeline: crawl ingestion -> identifier extraction -> site-identifier
bipartite graphs -> weighted site-site metagraph -> pruning and
Girvan-Newman communities, alongside distributional statistics and
longitudinal snapshot analysis.
"""

from .corpus import (
    CanonicalizationError,
    CrawlRecord,
    FormatError,
    PublicSuffixTable,
    canonicalize,
    load_category_map,
    load_rank_list,
    parse_har,
)
from .extractor import (
    CrawlExtraction,
    ExtractionSummary,
    IdKind,
    SiteIdProfile,
    Source,
    canonical_key,
    dump_profiles,
    extract_crawl,
    extract_profile,
    iter_profiles,
    load_blocklist,
    load_dictionary,
    summarize_extraction,
)
from .graphs import (
    BipartiteGraph,
    IdFamily,
    Metagraph,
    build_bipartite,
    build_metagraph,
    connected_components,
    family_normalizers,
    intermediary_keys,
    without_keys,
)
from .communities import (
    Partition,
    community_size_distribution,
    edge_betweenness,
    girvan_newman,
    modularity,
    prune_edges,
)
from .stats import (
    DiversityReport,
    PowerLawFit,
    PublisherRecord,
    RegressionFit,
    category_distribution,
    fit_power_law,
    linear_fit,
    loglikelihood_ratio,
    per_site_id_counts,
    poisson_sampling_baseline,
    popularity_by_size,
    publisher_sizes,
    richness_vs_baseline,
    shannon_diversity,
)
from .history import (
    PublisherClass,
    Snapshot,
    TransitionClass,
    TransitionRecord,
    class_population_series,
    classify_publisher,
    classify_transition,
    coverage_series,
    load_snapshot,
    load_snapshots,
    publisher_id_count_series,
    save_snapshot,
    top_publishers_series,
    transition_series,
)

__version__ = "0.1.0"

"""Spatial multi-criteria suitability analysis with ordered weighted
averaging, exhaustive decision-strategy space exploration and clustering of
the resulting suitability maps."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    ConfigError,
    DataError,
    NumericalError,
    OwaExplorerError,
)
from .grid import (  # noqa: F401
    CriterionStack,
    CriterionWeights,
    GridMeta,
    Raster,
    build_stack,
    parse_ascii_grid,
    write_ascii_grid,
)
from .strategy import (  # noqa: F401
    DecisionPoint,
    ExperimentalDesign,
    OrderWeights,
    generate_weights,
    generate_weights_batch,
    sample_design,
)
from .owa import (  # noqa: F401
    batch_compute,
    rank_pixels,
)
from .cluster import (  # noqa: F401
    MergeTree,
    cluster_summaries,
    cut,
    pairwise_euclidean,
    suggest_k,
    variance_ratio_curve,
    ward_linkage,
)

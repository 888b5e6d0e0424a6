"""Conformal prediction confidence bands for ROC curves.

Pipeline: `read_tu_table` reads a TU graph dataset as one edge table and its
labels, `dataset_diagrams` computes every graph's sublevel persistence under a
vertex filtration in one pass, `build_similarity_matrix` makes the pairwise
Wasserstein distances, and `cp_roc_bands` calibrates soft conformal intervals
for the graphs `load_scores` reads (globally or on K-nearest calibration
neighborhoods) and combines them into pointwise ROC bands with AUC intervals.
A synthetic harness with a known oracle probability validates band coverage.
"""

__version__ = "0.1.0"

from .baseline import BootstrapBand, bootstrap_bands
from .errors import (
    CprocError,
    DegenerateTestError,
    NumericalError,
    ParseError,
    ScoreIngestError,
    SeparationWarning,
    SplitError,
    StratumError,
)
from .graphdata import (
    ScoredDataset,
    SplitAssignment,
    load_scores,
    read_tu_table,
    split_dataset,
)
from .rocbands import (
    RocBand,
    RocCurve,
    band_from_intervals,
    cp_roc_bands,
    empirical_roc,
    oracle_rates,
)
from .similarity import (
    SimilarityMatrix,
    build_similarity_matrix,
    knn_indices,
    wasserstein_distance,
)
from .synthetic import (
    CoverageReport,
    FittedLogit,
    SyntheticSpec,
    coverage_experiment,
    fit_logistic,
    generate,
)
from .topology import (
    FiltrationKind,
    PersistenceDiagram,
    dataset_diagrams,
    persistence_image,
)

"""Conformal prediction confidence bands for ROC curves.

Pipeline: parse TU graph datasets, compute sublevel persistent homology under
vertex filtrations, build a pairwise Wasserstein similarity matrix, calibrate
soft conformal intervals for the latent class probability (globally or via
K-nearest calibration neighborhoods), and combine them into pointwise ROC
confidence bands with AUC intervals. A synthetic harness with a known oracle
probability validates band coverage empirically.
"""

__version__ = "0.1.0"

from .baseline import BootstrapBand, bootstrap_bands
from .conformal import conformal_intervals, score_table
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
    Graph,
    ScoredDataset,
    SplitAssignment,
    load_scores,
    parse_tu_dataset,
    split_dataset,
    write_tu_dataset,
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
    compute_filtration,
    persistence_image,
    sublevel_persistence,
)

"""Word-occurrence time statistics for dated text corpora.

Ingests a flat dated corpus into a word-by-day matrix, then measures
rank-frequency structure, waiting-time distributions per frequency
class, burstiness dispersion ratios, and dense-regime daily count
distributions, with seeded synthetic generators for every reference
process the measurements are compared against.
"""

__version__ = "0.1.0"

from .ensembles import EnsembleIndex, build_ensembles, select_dense, select_dilute
from .ingest import (
    CleaningReport,
    Post,
    ScanDay,
    ScanLog,
    bin_daily,
    clean_missing_scans,
    read_flat_corpus,
    tokenize,
)
from .matrix import WordDayMatrix, load_matrix, merge_matrices, save_matrix
from .nullmodels import SyntheticCorpusSpec, generate
from .rankstats import fit_modified_power_law, rank_curve
from .waiting import (
    RiskFunction,
    WaitingTimeDistribution,
    aggregate_distribution,
    ensemble_distribution,
    fit_stretched_exponential,
    max_exponential_deviation,
    max_pairwise_deviation,
    mean_waiting_check,
    rescale_time,
    rescaled_survival,
    risk_function,
    waiting_times,
    zeta,
    zeta_by_ensemble,
)

__all__ = [
    "__version__",
    "EnsembleIndex",
    "build_ensembles",
    "select_dense",
    "select_dilute",
    "CleaningReport",
    "Post",
    "ScanDay",
    "ScanLog",
    "bin_daily",
    "clean_missing_scans",
    "read_flat_corpus",
    "tokenize",
    "WordDayMatrix",
    "load_matrix",
    "merge_matrices",
    "save_matrix",
    "SyntheticCorpusSpec",
    "generate",
    "fit_modified_power_law",
    "rank_curve",
    "RiskFunction",
    "WaitingTimeDistribution",
    "aggregate_distribution",
    "ensemble_distribution",
    "fit_stretched_exponential",
    "max_exponential_deviation",
    "max_pairwise_deviation",
    "mean_waiting_check",
    "rescale_time",
    "rescaled_survival",
    "risk_function",
    "waiting_times",
    "zeta",
    "zeta_by_ensemble",
]

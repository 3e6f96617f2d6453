"""Word-occurrence time statistics for dated text corpora.

Ingests a flat dated corpus into a word-by-day matrix, then measures
rank-frequency structure, waiting-time distributions per frequency
class, burstiness dispersion ratios, and dense-regime daily count
distributions, with seeded synthetic generators for every reference
process the measurements are compared against.
"""
import importlib

__version__ = "0.1.0"

# each public name by the module that defines it, imported on first access (PEP 562), so importing
# the package, and the CLI's --version, --help and usage errors, load no numpy
_EXPORTS = {
    "ensembles": ("EnsembleIndex", "build_ensembles", "select_dense", "select_dilute"),
    "ingest": ("CleaningReport", "ScanDay", "ScanLog", "bin_daily", "clean_missing_scans", "read_flat_corpus",
               "tokenize"),
    "matrix": ("WordDayMatrix", "load_matrix", "save_matrix"),
    "nullmodels": ("SyntheticCorpusSpec", "generate"),
    "rankstats": ("fit_modified_power_law", "rank_curve"),
    "waiting": ("RiskFunction", "WaitingTimeDistribution", "aggregate_distribution", "ensemble_distribution",
                "fit_stretched_exponential", "max_exponential_deviation", "max_pairwise_deviation",
                "mean_waiting_check", "rescale_time", "rescaled_survival", "risk_function", "zeta",
                "zeta_by_ensemble"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)

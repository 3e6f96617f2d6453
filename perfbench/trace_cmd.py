"""Run one wordburst CLI command in-process with a span around every layer call.

Usage: python3 perfbench/trace_cmd.py SPANS_JSON CLI_ARGS...

The command runs through ``wordburst.cli.main`` itself, so the layer
functions are called exactly as the CLI calls them, in the same order.
Before the call, each layer function the CLI module imported is
replaced in the CLI's namespace by a wrapper that records a span (name,
start, end, parent, resident set size before and after).  Spans stay in memory
and are written to SPANS_JSON when the command returns.  The exit code
is the command's.
"""
from __future__ import annotations

import functools
import json
import re
import resource
import sys
import time

# name in wordburst.cli -> span name "<layer>.<stage>"
SPAN_NAMES = {
    "generate": "nullmodels.generate",
    "save_matrix": "matrix.save",
    "load_matrix": "matrix.load",
    "read_flat_corpus": "ingest.read",
    "bin_daily": "ingest.bin",
    "clean_missing_scans": "ingest.clean",
    "build_ensembles": "ensembles.build",
    "select_dilute": "ensembles.select",
    "ensemble_distribution": "waiting.class_dist",
    "risk_function": "waiting.class_dist",
    "rescale_time": "waiting.class_dist",
    "mean_waiting_check": "waiting.class_dist",
    "fit_stretched_exponential": "waiting.fit",
    "zeta_by_ensemble": "waiting.zeta",
    "aggregate_distribution": "waiting.aggregate",
    "log_binned_density": "waiting.aggregate",
    "rank_curve": "rankstats.curve",
    "fit_modified_power_law": "rankstats.fit",
    "fit_zipf": "rankstats.baselines",
    "fit_zipf_mandelbrot": "rankstats.baselines",
    "pool_rescaled": "dense.pool",
    "matched_poisson_null": "dense.null",
    "sigma_scaling": "dense.sigma",
    "fit_report_json": "cli.write",
}
WRITER = re.compile(r"_?write_")  # every output writer the CLI calls


def _rss_mb() -> float:
    """Current resident set size."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize() / 2**20


class Tracer:
    """Spans kept in memory; a span's parent is the span open when it started."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = {"id": len(self.spans), "name": name, "fn": fn.__name__,
                      "parent": self._open[-1] if self._open else None,
                      "rss_mb_before": _rss_mb(), "start": time.perf_counter()}
            self.spans.append(record)
            self._open.append(record["id"])
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                record["error"] = type(exc).__name__
                raise
            finally:
                record["end"] = time.perf_counter()
                record["rss_mb_after"] = _rss_mb()
                self._open.pop()
        return traced


def instrument(cli, tracer: Tracer) -> list[str]:
    """Wrap the layer functions in the CLI module's namespace; return their names."""
    wrapped = []
    for attr, value in sorted(vars(cli).items()):
        if not callable(value) or isinstance(value, type):
            continue
        name = SPAN_NAMES.get(attr) or ("cli.write" if WRITER.match(attr) else None)
        if name:
            setattr(cli, attr, tracer.span(name, value))
            wrapped.append(attr)
    return wrapped


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import wordburst.cli as cli
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    wrapped = instrument(cli, tracer)
    rc = tracer.span("cli.main", cli.main)(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "import_s": import_s, "module": cli.__file__,
                   "wrapped": wrapped, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

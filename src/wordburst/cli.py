"""Command-line pipelines: ingest, analyze, simulate.

Stages communicate only through files (the word-day matrix format plus
CSV/JSON reports), so each one can be run and tested in isolation.
Randomized analysis stages take ``--seed`` (default 0, recorded in the
manifest); reruns with an identical configuration produce byte-identical
outputs.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .dense import (
    BIN_WIDTH,
    WINDOW,
    matched_poisson_null,
    pool_rescaled,
    sigma_scaling,
    write_sigma_scaling_csv,
    write_xtilde_csv,
)
from .ensembles import build_ensembles, select_dense, select_dilute, write_spectrum_csv
from .errors import EmptySampleError, FitDidNotConverge, WordburstError
from .fileio import write_json, write_table
from .ingest import CleaningReport, ScanLog, bin_daily, clean_missing_scans, read_flat_corpus
from .matrix import load_matrix, save_matrix
from .nullmodels import SyntheticCorpusSpec, generate
from .rankstats import (
    fit_modified_power_law,
    fit_report_json,
    fit_zipf,
    fit_zipf_mandelbrot,
    rank_curve,
    rank_table,
    write_rank_csv,
)
from .waiting import (
    aggregate_distribution,
    ensemble_distribution,
    fit_stretched_exponential,
    log_binned_density,
    mean_waiting_check,
    rescale_time,
    risk_function,
    risk_rows,
    write_distribution_csv,
    write_rescaled_csv,
    write_zeta_csv,
    zeta_by_ensemble,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code this tool promises (1, not 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def seed(text: str) -> int:
    """argparse type of ``--seed``: an integer >= 0."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wordburst", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_ingest = sub.add_parser("ingest", help="flat corpus -> cleaned matrix + cleaning report")
    p_ingest.add_argument("--input", required=True, help="flat corpus file (date<TAB>feed_id<TAB>text)")
    p_ingest.add_argument("--scan-log", help="optional scan log JSON; days it marks as missed are cleaned")
    p_ingest.add_argument("--output", required=True, help="output directory")
    p_ingest.set_defaults(func=cmd_ingest)

    p_analyze = sub.add_parser("analyze", help="matrix -> CSV/JSON statistics for one mode")
    p_analyze.add_argument("--input", required=True, help="matrix file")
    p_analyze.add_argument("--mode", required=True, choices=("rank", "dilute", "dense"))
    p_analyze.add_argument("--k-min", type=int, help="lowest class k to include")
    p_analyze.add_argument("--k-max", type=int, help="highest class k to include")
    p_analyze.add_argument("--seed", type=seed, default=0, help="seed (>= 0) for randomized analysis stages")
    p_analyze.add_argument("--emit-plots", action="store_true", help="also write plot-ready column files")
    p_analyze.add_argument("--output", required=True, help="output directory")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="generator spec JSON -> synthetic matrix")
    p_sim.add_argument("--spec", required=True, help="generator spec JSON file")
    p_sim.add_argument("--output", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FitDidNotConverge as exc:
        print(f"wordburst: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (WordburstError, OSError, UnicodeDecodeError) as exc:
        print(f"wordburst: {exc}", file=sys.stderr)
        return EXIT_DATA


def cmd_ingest(args) -> int:
    log = None if args.scan_log is None else ScanLog.from_json(Path(args.scan_log).read_text(encoding="utf-8"))
    matrix = bin_daily(read_flat_corpus(args.input))  # every refusal comes before the directory is touched
    if log is None:  # nothing to clean: no per-day log, no copy of the matrix
        report = CleaningReport([], {}, matrix.horizon)
    else:
        matrix, report = clean_missing_scans(matrix, log)
    with _Outputs(args.output, [args.input, args.scan_log]) as out:
        save_matrix(matrix, out("matrix.tsv"))
        write_json(out("cleaning_report.json"), report.to_dict())
        _write_manifest(out, "ingest", {"input": args.input, "scan_log": args.scan_log})
    return EXIT_OK


def cmd_analyze(args) -> int:
    k_lo, k_hi = (1000, 2000) if args.mode == "dense" else (None, None)  # dense mode's default k-range
    args.k_lo = k_lo if args.k_min is None else args.k_min
    args.k_hi = k_hi if args.k_max is None else args.k_max
    if args.k_lo is not None and args.k_hi is not None and args.k_lo > args.k_hi:
        default = "dense mode's default "  # name a bound the user did not pass as that default
        problem = (f"--k-max {args.k_hi} is below {default}--k-min {args.k_lo}" if args.k_min is None else
                   f"--k-min {args.k_lo} exceeds {'' if args.k_max is not None else default}--k-max {args.k_hi}")
        print(f"wordburst: error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    config = {
        "input": args.input, "mode": args.mode, "k_min": args.k_min,
        "k_max": args.k_max, "seed": args.seed, "emit_plots": args.emit_plots,
    }
    with _Outputs(args.output, [args.input]) as out:
        {"rank": _analyze_rank, "dilute": _analyze_dilute, "dense": _analyze_dense}[args.mode](args.input, out, args)
        _write_manifest(out, "analyze", config)
    return EXIT_OK


def _analyze_rank(path, out, args) -> None:
    curve = rank_curve(load_matrix(path))
    fit = fit_modified_power_law(curve)
    zipf = fit_zipf(curve)
    zm = fit_zipf_mandelbrot(curve)
    write_rank_csv(out("rank.csv"), curve, fit)
    write_json(out("fit.json"), fit_report_json(fit, zipf, zm))
    if args.emit_plots:
        write_table(out("plot_rank.csv"), *rank_table(curve, fit), plot=True)


def _analyze_dilute(path, out, args) -> None:
    open(path, "rb").close()  # a missing input fails before any fit worker is forked
    with _fit_pool() as pool:
        queue, futures = _dilute_tables(load_matrix(path), out, args, pool)  # the matrix is freed before any fit
        fits = {}  # the workers take the queue from the front; the parent fits from the back, aggregate first
        for key in reversed(queue):
            future = futures.get(key)
            fits[key] = _fit_record(queue[key]) if future is None or future.cancel() else future.result()
        write_json(out("fits.json"), fits)  # keys sorted, whatever order the fits finished in


def _dilute_tables(matrix, out, args, pool) -> tuple[dict, dict]:
    """Write every dilute table but ``fits.json``; return its fit queue (key -> risk) and the workers' futures."""
    index = build_ensembles(matrix)
    selected = [e for e in select_dilute(index)
                if (args.k_lo is None or e.k >= args.k_lo)
                and (args.k_hi is None or e.k <= args.k_hi)]
    classes = []
    for ens in selected:
        try:
            dist = ensemble_distribution(ens, matrix)
        except EmptySampleError:
            continue
        classes.append((ens.k, dist, risk_function(dist)))
    queue = {str(k): risk for k, _, risk in classes}
    futures = {key: pool.submit(_fit_record, risk) for key, risk in queue.items()} if pool else {}
    write_distribution_csv(out("waiting.csv"), classes)
    rescaled = [rescale_time(risk, k) for k, _, risk in classes]
    write_rescaled_csv(out("rescaled.csv"), rescaled)
    rows = zeta_by_ensemble(selected, matrix, seed=args.seed)
    write_zeta_csv(out("zeta.csv"), rows)
    _write_meancheck_csv(out("meancheck.csv"), [mean_waiting_check(dist) for _, dist, _ in classes])
    write_spectrum_csv(index, out("spectrum.csv"))
    try:
        agg = aggregate_distribution(index, matrix)
        queue["aggregate"] = risk_function(agg)
        write_table(out("aggregate.csv"), ["tau", "f", "R"], risk_rows(agg, queue["aggregate"]))
        write_table(out("aggregate_binned.csv"), ["tau_lo", "tau_hi", "tau_center", "density"],
                    zip(*log_binned_density(np.repeat(agg.support, agg.counts))))
    except EmptySampleError:
        print("wordburst: warning: no waiting times in any sparse class", file=sys.stderr)
    if args.emit_plots:
        write_table(out("plot_rescaled.csv"), ["t_R", "R", "k"],
                    ((t, v, c.k) for c in rescaled for t, v in zip(c.t_r, c.values) if v > 0), plot=True)
    return queue, futures


def _fit_record(risk) -> dict:
    """The ``fits.json`` record of one risk function; runs in the parent or in a fit worker."""
    try:
        return asdict(fit_stretched_exponential(risk))
    except (EmptySampleError, FitDidNotConverge) as exc:
        return {"skipped": str(exc)}


@contextlib.contextmanager
def _fit_pool():
    """Dilute mode's fit workers, forked before the matrix load: they import scipy.special and scipy.linalg
    while the parent parses and hold none of the matrix.  Only the parent takes a Ctrl-C; a dead worker is a
    numeric failure; leaving cancels the queued fits and joins every worker, terminated first on an error."""
    # one per CPU besides the parent's; the cap bounds memory, as 200 fits of 20 ms gain little past four processes
    workers = min(len(os.sched_getaffinity(0)), 4) - 1 if hasattr(os, "sched_getaffinity") else 0
    if workers < 1:
        yield None
        return
    import multiprocessing
    import signal
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), __import__,
                               ("scipy", None, None, ("special", "linalg")))
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
    try:
        pool.submit(int)  # forks every worker now; each keeps SIGINT blocked
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield pool
    except BrokenProcessPool as exc:
        raise FitDidNotConverge(f"a fit worker process died: {exc}") from exc
    except BaseException:
        for worker in pool._processes.values():  # else shutdown waits for idle workers to import scipy
            worker.terminate()
        raise
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        pool.shutdown(cancel_futures=True)


def _analyze_dense(path, out, args) -> None:
    matrix = load_matrix(path)
    index = build_ensembles(matrix)
    selected = select_dense(index, args.k_lo, args.k_hi)
    empirical = pool_rescaled(selected, matrix)
    sidecar = {
        "k_min": args.k_lo, "k_max": args.k_hi, "seed": args.seed,
        "bin_width": BIN_WIDTH, "window": list(WINDOW),
        "word_count": empirical.word_count, "skipped_words": empirical.skipped_words,
        "clipped_values": empirical.clipped_count,
    }
    if empirical.word_count == 0:
        print(f"wordburst: warning: no words with totals in [{args.k_lo}, {args.k_hi}] and nonzero daily spread;"
              f" zero-spread words skipped: {empirical.skipped_words}", file=sys.stderr)
        null = empirical
    else:
        null = matched_poisson_null(selected, matrix.horizon, args.seed)
        try:
            table = sigma_scaling(index, matrix)
            write_sigma_scaling_csv(out("sigma_scaling.csv"), table)
            sidecar["sigma_exponent_rel"] = table.exponent_rel
            sidecar["sigma_exponent_abs"] = table.exponent_abs
        except ValueError as exc:
            sidecar["sigma_scaling_skipped"] = str(exc)
    write_xtilde_csv(out("xtilde.csv"), empirical, null)
    write_json(out("dense.json"), sidecar)
    if args.emit_plots:
        write_table(out("plot_xtilde.csv"), ["xtilde", "empirical", "null"],
                    zip(empirical.bin_centers, empirical.density, null.density), plot=True)


def cmd_simulate(args) -> int:
    spec = SyntheticCorpusSpec.from_json(Path(args.spec).read_text(encoding="utf-8"))
    with _Outputs(args.output, [args.spec]) as out:
        matrix = generate(spec)
        save_matrix(matrix, out("matrix.tsv"))
        write_json(out("spec.json"), spec.to_dict())
        _write_manifest(out, "simulate", {"spec": spec.to_dict()})
    return EXIT_OK


class _Outputs:
    """The files one command writes into its output directory.

    Entering creates the directory and deletes the files its previous
    manifest lists, so no result of an earlier run outlives this one.
    Every output path is handed out by calling the ledger with its name,
    which records the name for ``manifest.json``.  If the command fails,
    leaving deletes the files it handed out before the error propagates.
    Only plain file names inside the directory are deleted, and never one
    of the command's ``inputs``.
    """

    def __init__(self, path, inputs: list):
        self.dir = Path(path)
        self.names: list[str] = []
        self._keep = {Path(p).resolve() for p in inputs if p}

    def __call__(self, name: str) -> Path:
        self.names.append(name)
        return self.dir / name

    def __enter__(self) -> "_Outputs":
        self.dir.mkdir(parents=True, exist_ok=True)
        try:
            listed = json.loads((self.dir / "manifest.json").read_text(encoding="utf-8"))["outputs"]
        except (OSError, ValueError, KeyError, TypeError, RecursionError):
            return self
        for name in (listed if isinstance(listed, list) else []) + ["manifest.json"]:
            self._remove(name)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            for name in self.names:
                with contextlib.suppress(OSError):  # keep the command's own error
                    self._remove(name)

    def _remove(self, name) -> None:
        if isinstance(name, str) and name and Path(name).name == name:
            path = self.dir / name
            if path.is_file() and path.resolve() not in self._keep:
                path.unlink()


def _write_manifest(out: _Outputs, command: str, config: dict) -> None:
    write_json(out.dir / "manifest.json", {
        "tool": "wordburst",
        "version": __version__,
        "command": command,
        "config": config,
        "outputs": sorted(out.names),
    })


def _write_meancheck_csv(path, checks) -> None:
    write_table(path, ["k", "mean_tau", "expected", "deviation", "sample_count", "low_sample"],
                ((c.k, c.mean_tau, c.expected, c.deviation, c.sample_count, int(c.low_sample)) for c in checks))


if __name__ == "__main__":
    sys.exit(main())

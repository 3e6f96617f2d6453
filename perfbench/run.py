#!/usr/bin/env python3
"""End-to-end benchmark of the wordburst command-line pipeline.

Usage (from the root of a checkout that holds ``src/wordburst``):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``paper-dilute``, ``paper-dense``,
``text-ingest``.  Inputs are generated from ``--seed`` into
``.bench_work/<workload>/``.

The CLI runs as a user runs it: one ``python -m wordburst.cli`` process
per command, one command at a time, each starting when the previous one
exits (a closed loop with a single client).  Each workload builds a
matrix (``simulate`` or ``ingest``) and then analyzes it; the sequence
repeats until its commands have run for ``--seconds`` in total (at
least once), and the median repetition is reported.  Repetitions must
produce byte-identical outputs.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (the sequence),
``cells_per_s`` (matrix cells over ``wall_s``), ``peak_rss_mb`` (largest
max-RSS of any command), ``ops_ok`` (share of commands that did not
fail) and ``setup_s`` (median start-up, ``wordburst --version``).  Each
command's own wall time is a per-layer metric (``cli.build_s``,
``cli.analyze_s``): a single command of a few seconds varies too much
between runs on a shared 2-core machine to carry a regression bound.
``--trace 1`` runs the
sequence once untraced and once traced (``trace_cmd.py``: the same CLI
entry point in a child process with a span around each layer call),
checks that both produce byte-identical outputs, reruns the workload at
the pinned scale and seed against ``pins.json``, and prints the
per-layer metrics.  Spans go to ``.bench_work/<workload>/trace.json``
and the run record (commit, versions, nproc, seed, input sizes) to
``record.json`` next to it.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  A command fails if
it exits non-zero, prints a traceback, fails a correctness check or
repeats with different output bytes.

``--write-pins`` regenerates ``pins.json`` for the workload instead of
benchmarking it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
PINS = HERE / "pins.json"
DEFAULT_SEED = 1
PIN_SCALE = 0.05
SETUP_RUNS = 5
IMPORT_RUNS = 5
TRACEBACK = "Traceback (most recent call last)"


class Run:
    """Runs CLI commands as child processes and counts them."""

    def __init__(self, env: dict, logdir: Path):
        self.env = env
        self.logdir = logdir
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, argv: list[str], cwd: Path, label: str) -> dict:
        """Run one command to completion: wall time, peak RSS, exit code, output."""
        self.attempted += 1
        log = self.logdir / f"{self.attempted:04d}"
        with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"label": label, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "rc": proc.returncode,
                "stdout": Path(f"{log}.out").read_text(encoding="utf-8", errors="replace"),
                "stderr": Path(f"{log}.err").read_text(encoding="utf-8", errors="replace")}

    def cli(self, args: list[str], cwd: Path, kind: str | None = None) -> dict:
        cmd = self.spawn([sys.executable, "-m", "wordburst.cli", *args], cwd, " ".join(args))
        cmd.update(args=args, kind=kind)
        return cmd

    def fail(self, what: str, problems: list[str]) -> None:
        """Count a failed command once, however many problems it has."""
        self.failures.append(f"{what}: {'; '.join(problems)}")
        print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)

    def judge(self, cmd: dict, problems: list[str]) -> None:
        if cmd["rc"] != 0:
            problems = [f"exit code {cmd['rc']}"] + problems
        if TRACEBACK in cmd["stderr"]:
            problems = ["traceback on stderr"] + problems
        if problems:
            self.fail(cmd["label"], problems)


def make_inputs(workload: str, seed: int, scale: float, rundir: Path) -> dict:
    """Generate the inputs in a child process.  A child's max-RSS starts at
    its parent's, so this process must stay smaller than any command."""
    proc = subprocess.run([sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(scale), str(rundir)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def median(values):
    return statistics.median(values) if values else 0.0


def digests(rundir: Path, outdirs: list[str]) -> dict[str, str]:
    """sha256 of every file in the command output directories, keyed by relative path."""
    out = {}
    for d in outdirs:
        for path in sorted((rundir / d).rglob("*")):
            if path.is_file():
                with open(path, "rb") as fh:
                    out[path.relative_to(rundir).as_posix()] = hashlib.file_digest(fh, "sha256").hexdigest()
    return out


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def measure_setup(run: Run, cwd: Path) -> float:
    """CLI start-up: median wall time of ``wordburst --version``."""
    walls = []
    for _ in range(SETUP_RUNS):
        cmd = run.cli(["--version"], cwd)
        run.judge(cmd, [])
        walls.append(cmd["wall_s"])
    return median(walls)


def run_sequence(run: Run, workload: str, seed: int, rundir: Path) -> tuple[list[dict], dict | None]:
    """Run the workload's commands once, timed, then check their outputs."""
    cmds = [run.cli(argv, rundir, kind) for kind, argv in workloads.commands(workload, seed)]
    matrix = check_sequence(run, workload, rundir, cmds)
    return cmds, matrix


def check_sequence(run: Run, workload: str, rundir: Path, cmds: list[dict]) -> dict | None:
    try:
        matrix = workloads.read_matrix(rundir / workloads.matrix_path(workload))
    except (OSError, ValueError):
        matrix = None
    for cmd in cmds:
        problems = workloads.check_command(workload, cmd["kind"], cmd["args"], rundir, matrix) if cmd["rc"] == 0 else []
        run.judge(cmd, problems)
    return matrix


def outdirs(workload: str, seed: int) -> list[str]:
    return [workloads.output_dir(argv) for _, argv in workloads.commands(workload, seed)]


def compare(run: Run, what: str, reference: dict, observed: dict) -> None:
    differ = sorted(k for k in reference.keys() | observed.keys() if reference.get(k) != observed.get(k))
    if differ:
        run.fail(what, [f"output bytes differ: {', '.join(differ)}"])


def end_to_end(run: Run, workload: str, seed: int, seconds: float, rundir: Path) -> tuple[dict, dict, dict]:
    """Repeat the command sequence until ``seconds`` of commands have run."""
    setup_s = measure_setup(run, rundir)
    passes = []
    reference = None
    measured = 0.0
    while measured < seconds:
        cmds, matrix = run_sequence(run, workload, seed, rundir)
        # wall time of the whole command sequence; the checks are not timed
        wall = sum(c["wall_s"] for c in cmds)
        measured += wall
        observed = digests(rundir, outdirs(workload, seed))
        if reference is None:
            reference = observed
        else:
            compare(run, f"repetition {len(passes) + 1}", reference, observed)
        passes.append({"wall_s": wall, "cells": matrix["cells"] if matrix else 0,
                       "commands_s": [c["wall_s"] for c in cmds], "peak_rss_mb": max(c["rss_mb"] for c in cmds)})
    metrics = {
        "wall_s": (median([p["wall_s"] for p in passes]), "s"),
        "cells_per_s": (median([p["cells"] / p["wall_s"] for p in passes]), "1/s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, sizes(matrix), {"setup_s": setup_s, "passes": passes}


def sizes(matrix: dict | None) -> dict:
    if matrix is None:
        return {}
    return {"words": matrix["words"], "cells": matrix["cells"], "matrix_bytes": matrix["bytes"]}


# ---------------------------------------------------------------- traced run

def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def measure_import(run: Run, cwd: Path) -> float:
    """``import wordburst.cli`` in a fresh interpreter, median of several."""
    code = ("import time; t = time.perf_counter(); import wordburst.cli; "
            "print(repr(time.perf_counter() - t))")
    times = []
    for _ in range(IMPORT_RUNS):
        cmd = run.spawn([sys.executable, "-c", code], cwd, "import wordburst.cli")
        run.judge(cmd, [])
        if cmd["rc"] == 0:
            times.append(float(cmd["stdout"]))
    return median(times)


def traced(run: Run, workload: str, seed: int, rundir: Path, inputs: dict) -> tuple[dict, dict, dict]:
    """Untraced pass, traced pass on copies of the same inputs, pinned pass."""
    plain, matrix = run_sequence(run, workload, seed, rundir)

    tracedir = fresh_dir(rundir.parent / "traced")
    for name in ("spec.json", "corpus.txt", "scans.json"):
        if (rundir / name).exists():
            shutil.copyfile(rundir / name, tracedir / name)
    spans: list[list[dict]] = []  # per command; span ids are per command
    tcmds = []
    per_command = []
    for i, (kind, argv) in enumerate(workloads.commands(workload, seed)):
        span_file = tracedir / f"spans_{i}.json"
        cmd = run.spawn([sys.executable, str(HERE / "trace_cmd.py"), str(span_file), *argv], tracedir,
                        "traced " + " ".join(argv))
        cmd.update(args=argv, kind=kind)
        tcmds.append(cmd)
        try:
            data = json.loads(span_file.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            data = {"spans": [], "module": None, "wrapped": []}
        if data["module"] and not Path(data["module"]).resolve().is_relative_to(ROOT / "src"):
            run.fail(" ".join(argv), [f"traced run imported {data['module']}, not this checkout"])
        for s in data["spans"]:
            s.update(workload=workload, command=i)
        spans.append(data["spans"])
        per_command.append({"argv": argv, "untraced_wall_s": plain[i]["wall_s"], "traced_wall_s": cmd["wall_s"],
                            "wrapped": data["wrapped"]})
    check_sequence(run, workload, tracedir, tcmds)
    compare(run, "traced run vs CLI run",
            digests(rundir, outdirs(workload, seed)), digests(tracedir, outdirs(workload, seed)))

    pinned = pinned_pass(run, workload)
    pins = json.loads(PINS.read_text(encoding="utf-8")).get(workload, {})
    outputs_changed = sum(pins.get(k) != pinned.get(k) for k in pins.keys() | pinned.keys())

    metrics = layer_metrics(workload, spans, plain, tcmds, matrix, rundir, inputs)
    metrics["cli.import_s"] = (measure_import(run, rundir), "s")
    metrics["cli.outputs_changed"] = (outputs_changed, "count")
    flat = [s for command_spans in spans for s in command_spans]
    trace = {"workload": workload, "seed": seed, "commands": per_command,
             "layer_self_s": layer_self(spans), "spans": flat}
    return metrics, sizes(matrix), trace


def layer_self(spans: list[list[dict]]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for command_spans in spans:
        for s, own in zip(command_spans, self_times(command_spans)):
            layer = s["name"].split(".")[0]
            totals[layer] = totals.get(layer, 0.0) + own
    return totals


def layer_metrics(workload, spans, plain, traced_cmds, matrix, rundir, inputs) -> dict:
    stage_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    errors: dict[str, int] = {}
    load_rss = 0.0
    glue = overhead = 0.0
    for i, command_spans in enumerate(spans):
        own_times = self_times(command_spans)
        for s, own in zip(command_spans, own_times):
            stage_s[s["name"]] = stage_s.get(s["name"], 0.0) + own
            calls[s["name"]] = calls.get(s["name"], 0) + 1
            errors[s["name"]] = errors.get(s["name"], 0) + ("error" in s)
            if s["name"] == "matrix.load":
                load_rss += s["rss_mb_after"] - s["rss_mb_before"]
        if own_times:
            # the root span is cli.main; its self time is the CLI's own work between layer calls
            glue += own_times[0]
        overhead += traced_cmds[i]["wall_s"] - plain[i]["wall_s"]

    def t(name):
        return (stage_s.get(name, 0.0), "s")

    def count(value):
        return (value, "count")

    out = rundir / "out"
    cells = matrix["cells"] if matrix else 0
    simulated = workload != "text-ingest"
    m = {
        "cli.build_s": (plain[0]["wall_s"], "s"),
        "cli.analyze_s": (plain[1]["wall_s"], "s"),
        "cli.write_s": t("cli.write"),
        "cli.glue_s": (glue, "s"),
        "trace.overhead_s": (overhead, "s"),
        "nullmodels.generate_s": t("nullmodels.generate"),
        "nullmodels.words": count(matrix["words"] if simulated and matrix else 0),
        "nullmodels.cells": count(cells if simulated else 0),
        "matrix.save_s": t("matrix.save"),
        "matrix.load_s": t("matrix.load"),
        "matrix.file_mb": (matrix["bytes"] / 1e6 if matrix else 0.0, "MB"),
        "matrix.cells": count(cells),
        "matrix.load_rss_mb": (load_rss, "MB"),
        "matrix.bytes_per_cell": (load_rss * 2**20 / cells if cells else 0.0, "B/cell"),
        "ingest.read_s": t("ingest.read"),
        "ingest.bin_s": t("ingest.bin"),
        "ingest.clean_s": t("ingest.clean"),
        "ingest.posts": count(inputs.get("posts", 0)),
        "ingest.removed_days": count(0),
        "ensembles.build_s": t("ensembles.build"),
        "ensembles.classes": count(0),
        "waiting.class_dist_s": t("waiting.class_dist"),
        "waiting.fit_s": t("waiting.fit"),
        "waiting.fits_attempted": count(calls.get("waiting.fit", 0)),
        "waiting.fits_ok": count(calls.get("waiting.fit", 0) - errors.get("waiting.fit", 0)),
        "waiting.zeta_s": t("waiting.zeta"),
        "waiting.aggregate_s": t("waiting.aggregate"),
        "waiting.gaps": count(0),
        "rankstats.curve_s": t("rankstats.curve"),
        "rankstats.fit_s": t("rankstats.fit"),
        "rankstats.baselines_s": t("rankstats.baselines"),
        "dense.pool_s": t("dense.pool"),
        "dense.null_s": t("dense.null"),
        "dense.sigma_s": t("dense.sigma"),
        "dense.words": count(0),
        "dense.values": count(0),
    }
    # counts read back from the output files
    try:
        if workload == "text-ingest":
            report = json.loads((rundir / "ingested" / "cleaning_report.json").read_text(encoding="utf-8"))
            m["ingest.removed_days"] = count(len(report["removed_days"]))
        elif workload == "paper-dilute":
            m["ensembles.classes"] = count(len(workloads.read_csv_rows(out / "spectrum.csv")))
            m["waiting.gaps"] = count(sum(int(r["sample_count"]) for r in workloads.read_csv_rows(out / "meancheck.csv")))
        else:
            dense = json.loads((out / "dense.json").read_text(encoding="utf-8"))
            m["dense.words"] = count(dense["word_count"])
            m["dense.values"] = count(dense["word_count"] * matrix["horizon"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"warning: count not read back: {exc}", file=sys.stderr)
    return m


# ---------------------------------------------------------------- record

def run_record(workload: str, seed: int, seconds: float, trace: bool, inputs: dict, sizes: dict) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit, "python": platform.python_version(), **versions,
        "nproc": os.cpu_count(), "inputs": {**inputs, **sizes},
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one core per command: the benchmark runs everything serially
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def pinned_pass(run: Run, workload: str) -> dict[str, str]:
    """Run the workload at the pinned scale and seed; return its output digests."""
    pindir = fresh_dir(WORK / workload / "pinned")
    make_inputs(workload, DEFAULT_SEED, PIN_SCALE, pindir)
    cmds = [run.cli(argv, pindir, kind) for kind, argv in workloads.commands(workload, DEFAULT_SEED)]
    check_sequence(run, workload, pindir, cmds)
    return digests(pindir, outdirs(workload, DEFAULT_SEED))


def write_pins(workload: str) -> None:
    run = Run(child_env(), fresh_dir(WORK / workload / "logs"))
    pinned = pinned_pass(run, workload)
    if run.failures:
        raise SystemExit(f"not pinning {workload}: {run.failures}")
    pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}
    pins[workload] = pinned
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(pinned)} files for {workload}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor (self-test only)")
    parser.add_argument("--write-pins", action="store_true", help="regenerate pins.json for the workload")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wordburst" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'wordburst'} not found; run from a wordburst checkout", file=sys.stderr)
        return 2
    if args.write_pins:
        write_pins(args.workload)
        return 0

    base = WORK / args.workload
    run = Run(child_env(), fresh_dir(base / "logs"))
    rundir = fresh_dir(base / "run")
    inputs = make_inputs(args.workload, args.seed, args.scale, rundir)
    timings = {}
    if args.trace:
        metrics, input_sizes, trace = traced(run, args.workload, args.seed, rundir, inputs)
        (base / "trace.json").write_text(json.dumps(trace, indent=1) + "\n", encoding="utf-8")
    else:
        metrics, input_sizes, timings = end_to_end(run, args.workload, args.seed, args.seconds, rundir)
    failed = len(run.failures)
    if not args.trace:
        metrics["ops_ok"] = ((run.attempted - failed) / run.attempted, "ratio")
    record = run_record(args.workload, args.seed, args.seconds, bool(args.trace), inputs, input_sizes)
    record.update(timings=timings, failures=run.failures)
    (base / "record.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0, "attempted": run.attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

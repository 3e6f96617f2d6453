#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py          # tiny scale, about two minutes
    python3 perfbench/selftest.py --full   # also every workload once at full scale, seed 7

At a tiny input scale, for every workload: every metric named in
BENCHMARK.json is emitted (end-to-end with --trace 0, per-layer with
--trace 1), the run is correct, the workload's own layers report work,
and the pinned outputs are reproduced.  The spans of the three traced
runs together cover every pipeline stage.  Deliberately corrupted
outputs (a truncated xtilde.csv, a missing spectrum.csv, rank.csv out
of order) are counted as failed commands.  Without src/, the benchmark
exits non-zero and prints no result.  Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

TINY = 0.02
SEED = 7
# layers that must report work, per workload
OWN = {
    "paper-dilute": ["nullmodels.generate_s", "matrix.save_s", "matrix.load_s", "ensembles.build_s",
                     "ensembles.classes", "waiting.class_dist_s", "waiting.fit_s", "waiting.fits_ok",
                     "waiting.zeta_s", "waiting.aggregate_s", "waiting.gaps", "cli.write_s"],
    "paper-dense": ["nullmodels.generate_s", "matrix.save_s", "matrix.load_s", "dense.pool_s",
                    "dense.null_s", "dense.sigma_s", "dense.words", "dense.values", "cli.write_s"],
    "text-ingest": ["ingest.read_s", "ingest.bin_s", "ingest.clean_s", "ingest.posts", "ingest.removed_days",
                    "matrix.save_s", "matrix.load_s", "rankstats.curve_s", "rankstats.fit_s",
                    "rankstats.baselines_s", "cli.write_s"],
}
STAGES = ["nullmodels.generate", "matrix.save", "matrix.load", "ensembles.build", "waiting.class_dist",
          "waiting.fit", "waiting.zeta", "rankstats.fit", "dense.pool", "dense.null", "dense.sigma"]


def bench(workload: str, trace: int, scale: float, cwd: Path = run.ROOT) -> tuple[int, dict | None]:
    args = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace), "--scale", str(scale)]
    proc = subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if result is not None and "metrics" not in result:
        result = None
    return proc.returncode, result


def corrupted(workload: str, damage) -> int:
    """Failures counted after ``damage`` is applied to the last run's outputs."""
    rundir = run.WORK / workload / "run"
    damage(rundir / "out")
    probe = run.Run(run.child_env(), run.WORK / workload / "logs")
    cmds = [{"label": " ".join(argv), "rc": 0, "stderr": "", "args": argv, "kind": kind}
            for kind, argv in workloads.commands(workload, SEED)]
    run.check_sequence(probe, workload, rundir, cmds)
    return len(probe.failures)


def truncate(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def swap_rank_rows(out: Path) -> None:
    lines = (out / "rank.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1], lines[-1] = lines[-1], lines[1]
    (out / "rank.csv").write_text("".join(lines), encoding="utf-8")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    stages = set()
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, result = bench(workload, trace, TINY)
            expect(rc == 0 and result is not None and result["correct"] and result["failed"] == 0,
                   f"{workload} --trace {trace}: exit 0, correct, no failed command")
            names = {m["name"] for m in spec[key]}
            got = set(result["metrics"]) if result else set()
            expect(got == names, f"{workload} --trace {trace}: emits exactly the {key} metrics"
                                 f" (missing {sorted(names - got)}, extra {sorted(got - names)})")
            if trace and result:
                idle = [n for n in OWN[workload] if not result["metrics"][n]["value"] > 0]
                expect(not idle, f"{workload}: own layers report work (zero: {idle})")
                changed = result["metrics"]["cli.outputs_changed"]["value"]
                expect(changed == 0, f"{workload}: pinned outputs unchanged (changed: {changed})")
                trace_file = json.loads((run.WORK / workload / "trace.json").read_text(encoding="utf-8"))
                stages |= {s["name"] for s in trace_file["spans"]}
        if workload == "paper-dense":
            n = corrupted(workload, lambda out: truncate(out / "xtilde.csv"))
            expect(n == 1, f"truncated xtilde.csv counted as one failed command (got {n})")
        elif workload == "paper-dilute":
            n = corrupted(workload, lambda out: (out / "spectrum.csv").unlink())
            expect(n == 1, f"missing spectrum.csv counted as one failed command (got {n})")
        else:
            n = corrupted(workload, swap_rank_rows)
            expect(n == 1, f"rank.csv out of order counted as one failed command (got {n})")
    expect(set(STAGES) <= stages, f"spans cover every pipeline stage (missing {sorted(set(STAGES) - stages)})")

    bare = run.fresh_dir(run.WORK / "bare")
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    rc, result = bench("paper-dense", 0, TINY, cwd=bare)
    expect(rc != 0 and result is None, f"without src/: non-zero exit ({rc}) and no result")
    shutil.rmtree(bare)

    if "--full" in sys.argv[1:]:
        for workload in workloads.WORKLOADS:
            rc, result = bench(workload, 0, 1.0)
            expect(rc == 0 and result is not None and result["correct"],
                   f"{workload} at full scale, seed {SEED}: every correctness check holds")
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

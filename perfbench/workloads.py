"""Workload definitions: seeded inputs, CLI command sequences and output checks.

Every workload spans T = 214 days.  ``scale`` shrinks the input sizes
(word count, post count) for quick self-tests and for the small pinned
run; the benchmark itself always runs at scale 1.
"""
from __future__ import annotations

import csv
import datetime as dt
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

HORIZON = 214
PAPER_WORDS = 50_000
DENSE_K = (1000, 2000)
POSTS = 85_000
FEEDS = 50
TOKENS_PER_POST = 40
VOCABULARY = 100_000
ZIPF_S = 1.05
MISSED_DAYS = 10
EPOCH = dt.date(2006, 3, 1)

# why each workload exists: see BENCHMARK.json
WORKLOADS = ("paper-dilute", "paper-dense", "text-ingest")


def make_inputs(workload: str, seed: int, scale: float, rundir: Path) -> dict:
    """Write the workload's input files into ``rundir``; return their sizes."""
    rundir.mkdir(parents=True, exist_ok=True)
    if workload == "text-ingest":
        return _write_text_corpus(seed, max(1, round(POSTS * scale)), rundir)
    spec = {
        "process": "heterogeneous-poisson", "horizon": HORIZON,
        "n_words": max(1, round(PAPER_WORDS * scale)), "seed": seed,
        "rate_distribution": "log-uniform", "tau_min": 0.05, "tau_max": 2000.0,
    }
    (rundir / "spec.json").write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {"spec_words": spec["n_words"]}


def commands(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """The workload's CLI commands as ``(kind, argv)``, run in order from the run directory."""
    if workload == "text-ingest":
        return [
            ("ingest", ["ingest", "--input", "corpus.txt", "--scan-log", "scans.json", "--output", "ingested"]),
            ("analyze", ["analyze", "--input", "ingested/matrix.tsv", "--mode", "rank", "--output", "out"]),
        ]
    mode = ["--mode", "dilute"] if workload == "paper-dilute" else \
        ["--mode", "dense", "--k-min", str(DENSE_K[0]), "--k-max", str(DENSE_K[1])]
    return [
        ("simulate", ["simulate", "--spec", "spec.json", "--output", "sim"]),
        ("analyze", ["analyze", "--input", "sim/matrix.tsv", *mode, "--seed", str(seed), "--output", "out"]),
    ]


def output_dir(argv: list[str]) -> str:
    return argv[argv.index("--output") + 1]


def matrix_path(workload: str) -> str:
    return "ingested/matrix.tsv" if workload == "text-ingest" else "sim/matrix.tsv"


# ---------------------------------------------------------------- text corpus

def _pseudo_words(n: int) -> list[str]:
    """``n`` distinct lowercase words built from consonant-vowel syllables;
    lower indices (the frequent Zipf ranks) get shorter words."""
    syllables = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
    base = len(syllables)
    words = []
    for i in range(n):
        parts = []
        i += 1
        while i:
            i, r = divmod(i - 1, base)
            parts.append(syllables[r])
        words.append("".join(reversed(parts)))
    return words


def _write_text_corpus(seed: int, n_posts: int, rundir: Path) -> dict:
    rng = np.random.default_rng(seed)
    days = rng.integers(0, HORIZON, size=n_posts)
    days[0], days[-1] = 0, HORIZON - 1  # pin the epoch and the horizon
    missed = np.sort(rng.choice(np.arange(1, HORIZON - 1), size=MISSED_DAYS, replace=False))
    # posts of a missed day are picked up by the next scan that runs
    scanned = np.ones(HORIZON, dtype=bool)
    scanned[missed] = False
    next_scan = np.arange(HORIZON)
    for d in range(HORIZON - 2, -1, -1):
        if not scanned[d]:
            next_scan[d] = next_scan[d + 1]
    days = next_scan[days]
    order = np.argsort(days, kind="stable")
    days = days[order]

    ranks = np.arange(1, VOCABULARY + 1, dtype=float)
    p = ranks ** -ZIPF_S
    token_ids = rng.choice(VOCABULARY, size=(n_posts, TOKENS_PER_POST), p=p / p.sum())
    feeds = rng.integers(0, FEEDS, size=n_posts)
    markup = rng.random((n_posts, 4))
    spots = rng.integers(1, TOKENS_PER_POST - 1, size=(n_posts, 3))
    vocab = _pseudo_words(VOCABULARY)

    dates = [(EPOCH + dt.timedelta(days=int(d))).isoformat() for d in range(HORIZON)]
    lines = []
    for i in range(n_posts):
        toks = [vocab[j] for j in token_ids[i].tolist()]
        toks[0] = toks[0].capitalize()
        a, b, c = spots[i].tolist()
        if markup[i, 0] < 0.3:
            toks[a] = f"<b>{toks[a]}</b>"
        if markup[i, 1] < 0.2:
            toks[b] = f'<a href="https://example.org/{feeds[i]}/{i}">{toks[b]}</a>'
        if markup[i, 2] < 0.2:
            toks[c] = f"&quot;{toks[c]}&quot; &amp;"
        text = " ".join(toks)
        if markup[i, 3] < 0.3:
            text = f"<p>{text}</p>&nbsp;"
        lines.append(f"{dates[days[i]]}\tfeed{feeds[i]:02d}\t{text}\n")
    corpus = "".join(lines)
    (rundir / "corpus.txt").write_text(corpus, encoding="utf-8")

    per_day = np.bincount(days, minlength=HORIZON)
    log = {"days": [
        {"day_index": d, "scan_performed": bool(scanned[d]), "new_post_count": int(per_day[d])}
        for d in range(HORIZON)
    ]}
    (rundir / "scans.json").write_text(json.dumps(log) + "\n", encoding="utf-8")
    return {"posts": n_posts, "corpus_bytes": len(corpus.encode("utf-8")), "missed_days": MISSED_DAYS}


# ---------------------------------------------------------------- checks

def read_matrix(path: Path) -> dict:
    """Independent parse of a ``matrix.tsv``: horizon, per-word totals, cells, bytes."""
    totals = []
    cells = 0
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("#T="):
            raise ValueError("missing #T= header")
        horizon = int(header[3:])
        for line in fh:
            _, _, row = line.rstrip("\n").partition("\t")
            vals = row.replace(",", ":").split(":")
            totals.append(sum(map(int, vals[1::2])))
            cells += len(vals) // 2
    return {"horizon": horizon, "totals": totals, "words": len(totals), "cells": cells,
            "bytes": os.path.getsize(path)}


def read_csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_manifest(outdir: Path) -> list[str]:
    manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
    return [f"{outdir.name}/{name} listed in manifest.json but missing"
            for name in manifest["outputs"] if not (outdir / name).is_file()]


def check_command(workload: str, kind: str, argv: list[str], rundir: Path, matrix: dict | None) -> list[str]:
    """Correctness problems in one command's outputs (empty list when it is correct).

    ``matrix`` is :func:`read_matrix` of the workload's matrix, or None
    when it could not be read.
    """
    outdir = rundir / output_dir(argv)
    problems: list[str] = []
    try:
        problems += _check_manifest(outdir)
        if matrix is None:
            return problems + ["matrix.tsv unreadable"]
        if kind == "ingest":
            report = json.loads((outdir / "cleaning_report.json").read_text(encoding="utf-8"))
            retained = HORIZON - len(report["removed_days"])
            if report["retained_horizon"] != retained or matrix["horizon"] != retained:
                problems.append(f"retained_horizon {report['retained_horizon']} != {HORIZON} - removed days")
        elif kind == "analyze" and workload == "paper-dilute":
            n_k = sum(int(r["n_k"]) for r in read_csv_rows(outdir / "spectrum.csv"))
            if n_k != matrix["words"]:
                problems.append(f"spectrum n_k sums to {n_k}, vocabulary is {matrix['words']}")
            f_sum = math.fsum(float(r["f"]) for r in read_csv_rows(outdir / "aggregate.csv"))
            if abs(f_sum - 1.0) > 1e-6:
                problems.append(f"aggregate.csv f sums to {f_sum}")
        elif kind == "analyze" and workload == "paper-dense":
            rows = read_csv_rows(outdir / "xtilde.csv")
            x = [float(r["xtilde"]) for r in rows]
            width = (x[-1] - x[0]) / (len(x) - 1) if len(x) > 1 else 0.0
            for col in ("density_empirical", "density_null"):
                mass = math.fsum(float(r[col]) for r in rows) * width
                if abs(mass - 1.0) > 1e-6:
                    problems.append(f"xtilde.csv {col} integrates to {mass}")
            dense = json.loads((outdir / "dense.json").read_text(encoding="utf-8"))
            in_range = sum(DENSE_K[0] <= t <= DENSE_K[1] for t in matrix["totals"])
            if dense["word_count"] != in_range:
                problems.append(f"dense.json word_count {dense['word_count']} != {in_range} matrix words in range")
            rel = dense.get("sigma_exponent_rel")
            if rel is None or abs(rel + 0.5) > 0.05:
                problems.append(f"sigma_exponent_rel {rel} not within 0.05 of -0.5")
        elif kind == "analyze" and workload == "text-ingest":
            counts = [int(r["count"]) for r in read_csv_rows(outdir / "rank.csv")]
            if sum(counts) != sum(matrix["totals"]):
                problems.append(f"rank.csv counts sum to {sum(counts)}, matrix holds {sum(matrix['totals'])}")
            if any(b > a for a, b in zip(counts, counts[1:])):
                problems.append("rank.csv counts increase with rank")
    except (OSError, ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    return problems


if __name__ == "__main__":
    # python3 workloads.py WORKLOAD SEED SCALE DIR: write the inputs, print their sizes
    name, seed_arg, scale_arg, directory = sys.argv[1:]
    print(json.dumps(make_inputs(name, int(seed_arg), float(scale_arg), Path(directory))))

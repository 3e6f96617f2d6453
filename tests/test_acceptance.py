"""Acceptance suite: one test per shipping criterion, stated tolerances.

Every test prints one PASS/FAIL line (run pytest -s to see them all) and
enforces its runtime budget.  Synthetic corpora stand in for the
original feed collection, which is not reproducible at desk scale.
"""
import json
import time

import numpy as np
import pytest
from scipy import integrate, stats

from wordburst import stretched
from wordburst.cli import EXIT_OK, main
from wordburst.dense import pool_rescaled
from wordburst.ensembles import build_ensembles, select_dense, select_dilute
from wordburst.ingest import ScanDay, ScanLog, clean_missing_scans
from wordburst.matrix import save_matrix
from wordburst.nullmodels import SyntheticCorpusSpec, generate
from wordburst.rankstats import (
    RankCurve,
    fit_modified_power_law,
    fit_zipf,
    fit_zipf_mandelbrot,
)
from wordburst.waiting import (
    aggregate_distribution,
    distribution_from_sample,
    ensemble_distribution,
    fit_stretched_exponential,
    max_exponential_deviation,
    max_pairwise_deviation,
    mean_waiting_check,
    rescaled_survival,
    risk_function,
    zeta,
    zeta_by_ensemble,
)

from conftest import box_null, build_matrix, burst_matrix, union

HORIZON = 214


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:2d} {status}: {description}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def elapsed_ok(t0: float, budget: float) -> tuple[float, bool]:
    dt = time.time() - t0
    return dt, dt < budget


def test_criterion_01_poisson_dispersion_baseline():
    t0 = time.time()
    spec = SyntheticCorpusSpec(process="poisson", horizon=HORIZON, n_words=10_000,
                               seed=101, rate=0.07)
    m = generate(spec)
    dist = aggregate_distribution(build_ensembles(m), m)
    z = zeta(dist)
    dt, in_time = elapsed_ok(t0, 30.0)
    ok = dist.sample_count >= 100_000 and abs(z.zeta - 2.0) <= 0.15 and in_time
    report(1, "memoryless corpus dispersion ratio is 2 +/- 0.15",
           ok, f"zeta={z.zeta:.3f}, n={dist.sample_count}, {dt:.1f}s")


def test_criterion_02_stretched_closed_forms():
    t0 = time.time()
    a = 0.1
    pdf = lambda t: stretched.normalization(a, 0.5) * np.exp(-np.sqrt(a * t))
    norm, _ = integrate.quad(pdf, 0, np.inf)
    m1, _ = integrate.quad(lambda t: t * pdf(t), 0, np.inf, limit=200)
    m2, _ = integrate.quad(lambda t: t * t * pdf(t), 0, np.inf, limit=200)
    ratio = m2 / m1**2
    ok = (
        abs(norm - 1.0) < 1e-6
        and abs(m1 / (6 / a) - 1.0) < 1e-6
        and abs(m2 / (120 / a**2) - 1.0) < 1e-6
        and abs(ratio / (10 / 3) - 1.0) < 1e-6
    )
    dt, in_time = elapsed_ok(t0, 1.0)
    report(2, "quadrature reproduces the half-shape closed forms to 1e-6",
           ok and in_time, f"norm={norm:.9f}, <t>={m1:.6f}, <t2>={m2:.4f}, {dt:.2f}s")


def test_criterion_03_stretched_renewal_end_to_end():
    t0 = time.time()
    a_true, nu_true = 0.02, 0.5
    spec = SyntheticCorpusSpec(process="stretched-renewal", horizon=150_000,
                               n_words=2_100, seed=103, a=a_true, nu=nu_true)
    m = generate(spec)
    dist = aggregate_distribution(build_ensembles(m), m)
    z = zeta(dist)
    fit = fit_stretched_exponential(risk_function(dist))
    dt, in_time = elapsed_ok(t0, 120.0)
    ok = (
        dist.sample_count >= 1_000_000
        and abs(fit.nu - nu_true) <= 0.05
        and abs(z.zeta - 10 / 3) <= 0.2
        and in_time
    )
    report(3, "half-shape renewal corpus: fitted shape +/-0.05, dispersion 10/3 +/- 0.2",
           ok, f"nu={fit.nu:.3f}, a={fit.a:.4f}, zeta={z.zeta:.3f}, n={dist.sample_count}, {dt:.1f}s")


def test_criterion_04_mixing_artifact():
    t0 = time.time()
    horizon = 2_140
    spec = SyntheticCorpusSpec(
        process="heterogeneous-poisson", horizon=horizon, n_words=50_000, seed=104,
        rate_distribution="log-uniform", tau_min=10.0, tau_max=10_000.0,
    )
    m = generate(spec)
    index = build_ensembles(m)
    agg = aggregate_distribution(index, m)
    z_agg = zeta(agg).zeta
    taus = np.repeat(agg.support, agg.counts)
    mean = taus.mean()
    survival_ratio = np.mean(taus > 5 * mean) / np.exp(-5)
    window = [e for e in select_dilute(index) if 30 <= e.k <= 105]
    rows = [r for r in zeta_by_ensemble(window, m, n_boot=0) if r.n_k >= 150]
    class_ok = bool(rows) and all(abs(r.zeta - 2.0) <= 0.15 for r in rows)
    dt, in_time = elapsed_ok(t0, 60.0)
    ok = z_agg > 2.5 and survival_ratio >= 3.0 and class_ok and in_time
    worst = max((abs(r.zeta - 2.0) for r in rows), default=float("nan"))
    report(4, "rate mixture fattens the pooled tail while every class stays memoryless",
           ok, f"agg zeta={z_agg:.2f}, surv ratio={survival_ratio:.1f}, "
               f"classes={len(rows)}, worst |zeta-2|={worst:.3f}, {dt:.1f}s")


def test_criterion_05_rescaled_collapse():
    t0 = time.time()
    classes = {25: 1_400, 45: 800, 85: 480, 105: 400}
    curves = []
    counts = {}
    for k, n_words in classes.items():
        spec = SyntheticCorpusSpec(process="poisson", horizon=HORIZON,
                                   n_words=n_words, seed=105_000 + k, rate=k / HORIZON)
        m = generate(spec)
        dist = aggregate_distribution(build_ensembles(m), m)
        counts[k] = dist.sample_count
        curves.append(rescaled_survival(dist, k=k))
    exp_devs = {c.k: max_exponential_deviation(c) for c in curves}
    pair_dev = max_pairwise_deviation(curves)
    dt, in_time = elapsed_ok(t0, 60.0)
    ok = (
        all(n >= 10_000 for n in counts.values())
        and all(d <= 0.05 for d in exp_devs.values())
        and pair_dev <= 0.05
        and in_time
    )
    report(5, "rescaled survival curves collapse onto exp(-t_R) within 0.05",
           ok, f"vs exp={ {k: round(v, 3) for k, v in exp_devs.items()} }, "
               f"pairwise={pair_dev:.3f}, {dt:.1f}s")


def test_criterion_06_mean_waiting_prediction():
    t0 = time.time()
    spec = SyntheticCorpusSpec(process="poisson", horizon=HORIZON, n_words=10_000,
                               seed=106, rate=0.1)
    m = generate(spec)
    index = build_ensembles(m)
    checks = []
    for k in index.ks():
        if k >= HORIZON or index[k].n_k < 200:
            continue
        dist = ensemble_distribution(index[k], m)
        checks.append(mean_waiting_check(dist))
    dt, in_time = elapsed_ok(t0, 60.0)
    worst = max(c.deviation for c in checks)
    ok = len(checks) >= 5 and worst < 0.1 and in_time
    report(6, "every populated class mean gap sits within 10% of horizon/k",
           ok, f"classes={len(checks)}, worst dev={worst:.3f}, {dt:.1f}s")


def test_criterion_07_rank_fit_recovery():
    t0 = time.time()
    true = dict(A=1e8, a1=0.2, a2=4e-4, g1=0.65, g2=1.5)
    x = np.arange(1, 100_001, dtype=float)
    y = true["A"] / (1 + true["a1"] * x ** true["g1"] + true["a2"] * x ** true["g2"])
    y = y * np.random.default_rng(107).lognormal(0.0, 0.05, x.size)
    curve = RankCurve(ranks=x.astype(np.int64),
                      counts=np.maximum(np.round(y), 1).astype(np.int64),
                      words=tuple(f"w{i:06d}" for i in range(x.size)))
    fit = fit_modified_power_law(curve)
    zipf = fit_zipf(curve)
    zm = fit_zipf_mandelbrot(curve)
    rel = {
        "A": abs(fit.A / true["A"] - 1), "a1": abs(fit.a1 / true["a1"] - 1),
        "a2": abs(fit.a2 / true["a2"] - 1), "g1": abs(fit.gamma1 / true["g1"] - 1),
        "g2": abs(fit.gamma2 / true["g2"] - 1),
    }
    dt, in_time = elapsed_ok(t0, 30.0)
    ok = (
        max(rel.values()) <= 0.15
        and fit.residual < zipf.residual
        and fit.residual < zm.residual
        and in_time
    )
    report(7, "two-exponent rank law recovered within 15% and beats both baselines",
           ok, f"max rel err={max(rel.values()):.3f}, residuals "
               f"{fit.residual:.3f} < {zipf.residual:.3f} (plain), {zm.residual:.3f} (shifted), {dt:.1f}s")


def test_criterion_08_dense_null_standardization():
    t0 = time.time()
    ks = np.linspace(1000, 2000, 11).astype(int)
    parts = [box_null([int(k)] * 46, HORIZON, seed=108_000 + i, prefix=f"n{i}_") for i, k in enumerate(ks)]
    m = union(parts)
    block = m.dense_block(np.arange(m.vocabulary_size))
    dev = block - (block.sum(axis=1) / HORIZON)[:, None]
    std = np.sqrt(np.mean(dev**2, axis=1))  # each word's population sigma; zero-spread words pool nothing
    pooled_vals = (dev[std > 0] / std[std > 0, None]).ravel()
    mean, var = pooled_vals.mean(), pooled_vals.var()
    binned = pool_rescaled(select_dense(build_ensembles(m), 1000, 2000), m)
    widths = np.diff(binned.bin_edges)
    bmean = np.sum(binned.bin_centers * binned.density * widths)
    bvar = np.sum(binned.bin_centers**2 * binned.density * widths) - bmean**2

    null = box_null([1000] * 500, HORIZON, seed=108)
    xs = null.dense_block(np.arange(null.vocabulary_size)).ravel()
    law = stats.binom(1000, 1 / HORIZON)
    observed = np.bincount(xs)
    cells_obs, cells_exp = [], []
    lo, acc = 0, 0.0
    for xval in range(observed.size + 20):
        acc += law.pmf(xval)
        if acc * xs.size >= 5:
            cells_obs.append(observed[lo : xval + 1].sum() if lo < observed.size else 0)
            cells_exp.append(acc)
            lo, acc = xval + 1, 0.0
    cells_obs.append(observed[lo:].sum() if lo < observed.size else 0)
    cells_exp.append(1.0 - sum(cells_exp))
    exp_counts = np.array(cells_exp) * xs.size
    _, pvalue = stats.chisquare(cells_obs, exp_counts * (sum(cells_obs) / exp_counts.sum()))

    dt, in_time = elapsed_ok(t0, 30.0)
    ok = (
        np.count_nonzero(std) >= 500
        and abs(mean) <= 0.05 and abs(var - 1.0) <= 0.1
        and abs(bmean) <= 0.05 and abs(bvar - 1.0) <= 0.1
        and pvalue > 0.01
        and in_time
    )
    report(8, "box-allocation standardization: mean 0, variance 1, counts binomial",
           ok, f"mean={mean:.2e}, var={var:.4f}, binned mean={bmean:.3f}, "
               f"var={bvar:.3f}, chi2 p={pvalue:.3f}, {dt:.1f}s")


def test_criterion_09_bursty_tail_direction():
    ks = [1000 + 9 * i for i in range(112)]  # spread over [1000, 2000]
    bursty = burst_matrix(ks, HORIZON, n_days=10, seed=109)
    pooled_b = pool_rescaled(select_dense(build_ensembles(bursty), 1000, 2000), bursty)
    null = union([box_null([k], HORIZON, seed=109_000 + i, prefix=f"n{i}_") for i, k in enumerate(ks)])
    pooled_n = pool_rescaled(select_dense(build_ensembles(null), 1000, 2000), null)
    tail_b = pooled_b.tail_mass(3.0)
    tail_n = pooled_n.tail_mass(3.0)
    ok = tail_b > tail_n
    report(9, "a bursty corpus carries strictly more standardized mass above 3",
           ok, f"bursty={tail_b:.4f} > null={tail_n:.4f}")


def test_criterion_10_byte_identical_reruns(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict(
        process="poisson", horizon=400, n_words=1500, seed=110, rate=0.05,
    )), encoding="utf-8")
    sim1, sim2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", "--spec", str(spec_path), "--output", str(sim1)]) == EXIT_OK
    assert main(["simulate", "--spec", str(spec_path), "--output", str(sim2)]) == EXIT_OK
    sim_same = (sim1 / "matrix.tsv").read_bytes() == (sim2 / "matrix.tsv").read_bytes()

    dil1, dil2 = tmp_path / "d1", tmp_path / "d2"
    for out in (dil1, dil2):
        assert main(["analyze", "--input", str(sim1 / "matrix.tsv"), "--mode", "dilute",
                     "--seed", "7", "--output", str(out)]) == EXIT_OK
    dilute_same = all(
        (dil1 / name).read_bytes() == (dil2 / name).read_bytes()
        for name in ("zeta.csv", "waiting.csv", "rescaled.csv", "fits.json", "manifest.json")
    )

    dense_src = union([box_null([1000 + 100 * i] * 30, HORIZON, seed=110_500 + i, prefix=f"k{i}_") for i in range(4)])
    dense_path = tmp_path / "dense.tsv"
    save_matrix(dense_src, dense_path)
    den1, den2 = tmp_path / "e1", tmp_path / "e2"
    for out in (den1, den2):
        assert main(["analyze", "--input", str(dense_path), "--mode", "dense",
                     "--seed", "9", "--output", str(out)]) == EXIT_OK
    dense_same = (den1 / "xtilde.csv").read_bytes() == (den2 / "xtilde.csv").read_bytes()

    ok = sim_same and dilute_same and dense_same
    report(10, "identical configs rerun to byte-identical outputs",
           ok, f"simulate={sim_same}, dilute={dilute_same}, dense={dense_same}")


def test_criterion_11_invariant_suite():
    t0 = time.time()
    rng = np.random.default_rng(111)

    # distribution normalization at 1e-12 and risk monotonicity
    taus = rng.integers(1, 300, 50_000)
    dist = distribution_from_sample(taus, horizon=400)
    norm_ok = abs(dist.f.sum() - 1.0) < 1e-12
    risk = risk_function(dist)
    risk_ok = abs(risk.values[0] - 1.0) < 1e-12 and np.all(np.diff(risk.values) <= 1e-15)

    # dispersion ratio bounds
    zeta_ok = all(
        zeta(rng.integers(1, 50, size=rng.integers(2, 200))).zeta >= 1.0
        for _ in range(200)
    ) and zeta(np.full(10, 7)).zeta == pytest.approx(1.0)

    # class partition conserves mass
    spec = SyntheticCorpusSpec(process="poisson", horizon=HORIZON, n_words=2_000,
                               seed=1111, rate=0.2)
    m = generate(spec)
    index = build_ensembles(m)
    mass_ok = sum(k * index[k].n_k for k in index.ks()) == int(m.counts.sum())

    # cleaning idempotence
    base = build_matrix({"w": {d: 1 for d in range(40)}, "v": {3: 2, 17: 1}}, horizon=40)
    log = ScanLog([ScanDay(d, d % 11 != 5) for d in range(40)])
    once, _ = clean_missing_scans(base, log)
    again, rep = clean_missing_scans(once, ScanLog([ScanDay(d, True) for d in range(once.horizon)]))
    clean_ok = again == once and rep.removed_days == []

    dt, in_time = elapsed_ok(t0, 60.0)
    ok = norm_ok and risk_ok and zeta_ok and mass_ok and clean_ok and in_time
    report(11, "normalization, risk monotonicity, dispersion bound, partition, cleaning",
           ok, f"{dt:.1f}s")

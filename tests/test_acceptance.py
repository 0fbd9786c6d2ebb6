"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its margins against the bounds.  Run with
`pytest tests/test_acceptance.py -s` to see the per-criterion report.
"""

import time

import numpy as np
import pytest

from super_scrambler.experiments import (
    ExperimentConfig,
    build_ghz_program,
    estimate_saturation_time,
    fit_growth_rate,
    page_value,
    plateau_estimate,
    random_step,
    run_random_ensemble,
    write_csv,
)
from super_scrambler.model import Swap
from super_scrambler.oracle import OperatorWavefunction, verify_gate_tables
from super_scrambler.tableau import Region, SuperStabilizerTableau
from reference import check_stabilized_reference, stabilizers


def report(name, ok, margins=()):
    """Print PASS/FAIL and, per bound, how far the measured value lies
    inside it (negative: outside)."""
    detail = "; ".join(f"{label} = {value:+.4g}" for label, value in margins)
    tail = f"\n    margins: {detail}" if detail else ""
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}{tail}")
    assert ok, name


@pytest.fixture(scope="module")
def fig1_series():
    config = ExperimentConfig(
        n_qubits=120,
        time_steps=30000,
        realizations=50,
        rng_seed=120,
        sample_every=200,
    )
    return config, run_random_ensemble(config)


def test_gate_algebra_conformance():
    start = time.perf_counter()
    rep = verify_gate_tables()
    elapsed = time.perf_counter() - start
    identity_checks = rep["checks"][:11]  # 2 T lines, 1 SWAP line, 8 C3 rows
    ok = (
        len(identity_checks) == 11
        and all(c["max_deviation"] < 1e-12 for c in identity_checks)
        and rep["all_passed"]
        and elapsed < 1.0
    )
    worst = max((c["max_deviation"] for c in identity_checks), default=float("nan"))
    least = min(c["tolerance"] - c["max_deviation"] for c in rep["checks"])
    margins = [
        ("1e-12 - max identity deviation", 1e-12 - worst),
        ("min(tolerance - deviation)", least),
        ("1.0s - elapsed", 1.0 - elapsed),
    ]
    report(
        f"gate-algebra conformance (11 identities, max deviation {worst:.1e}, "
        f"{elapsed:.2f}s)",
        ok,
        margins,
    )


def test_deterministic_circuit():
    start = time.perf_counter()
    ok = True
    oracle_error, size_margin = 0.0, float("inf")
    for n in (3, 6, 12, 30):
        k = n // 3
        tab = SuperStabilizerTableau.new_all_x(n)
        tab.apply_program(build_ghz_program(n))
        ok &= tab.entropy(Region.prefix(k)) == k
        local_prog = build_ghz_program(n, localized=True)
        local = SuperStabilizerTableau.new_all_x(n)
        local.apply_program(local_prog)
        ok &= local.dumps() == tab.dumps()
        ok &= len(local_prog) <= 6 * n * n
        size_margin = min(size_margin, 6 * n * n - len(local_prog))
        if n <= 12:
            psi = OperatorWavefunction.new_all_x(n)
            psi.apply_program(build_ghz_program(n))
            error = abs(psi.entropy(range(1, k + 1)) - k)
            ok &= error < 1e-6
            oracle_error = max(oracle_error, error)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    margins = [
        ("min(6N^2 - localized gates)", size_margin),
        ("1e-6 - max |S_oracle - k|", 1e-6 - oracle_error),
        ("5.0s - elapsed", 5.0 - elapsed),
    ]
    report(
        f"deterministic GHZ circuit, N in (3,6,12,30), oracle error "
        f"{oracle_error:.1e} ({elapsed:.2f}s)",
        ok,
        margins,
    )


def test_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for n in range(3, 13):
        for seed in range(20):
            rng = np.random.default_rng((n, seed))
            tab = SuperStabilizerTableau.new_all_x(n)
            psi = OperatorWavefunction.new_all_x(n)
            for step in range(1, 201):
                for gate in random_step(rng, n):
                    tab.apply_gate(gate)
                    psi.apply_gate(gate)
                if step % 10 == 0:
                    for p in range(1, n):
                        diff = abs(
                            tab.entropy(Region.prefix(p))
                            - psi.entropy(range(1, p + 1))
                        )
                        ok &= diff < 1e-6
                        worst = max(worst, diff)
                    for sp in stabilizers(tab):
                        ok &= check_stabilized_reference(psi, sp) in ("plus", "minus")
            if not ok:
                break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok &= elapsed < 600.0
    report(
        f"tableau/oracle equivalence, N=3..12, 20 seeds x 200 steps, max |dS| "
        f"{worst:.1e} ({elapsed:.1f}s)",
        ok,
        [("1e-6 - max |dS|", 1e-6 - worst), ("600s - elapsed", 600.0 - elapsed)],
    )


def test_invariant_suite():
    start = time.perf_counter()
    n = 120
    tab = SuperStabilizerTableau.new_all_x(n)
    rng = np.random.default_rng(77)
    ok = True
    gates_applied = 0
    low, high = float("inf"), float("inf")
    while gates_applied < 100_000:
        for _ in range(2500):  # 5000 gates between checks
            for gate in random_step(rng, n):
                tab.apply_gate(gate)
                gates_applied += 2
        tab.check_invariants()  # commutation + independence
        # involution of each update on the live tableau
        before = tab.dumps()
        site = int(rng.integers(1, n + 1))
        tab.apply_t(site)
        tab.apply_t(site)
        tab.apply_swap(1, n)
        tab.apply_swap(1, n)
        tab.apply_c3(5, 60, 110)
        tab.apply_c3(5, 60, 110)
        ok &= tab.dumps() == before
        # entropy symmetry and bounds on a random cut
        p = int(rng.integers(1, n))
        region = Region.prefix(p)
        s = tab.entropy(region)
        ok &= s == tab.entropy(Region(set(range(1, n + 1)) - region.sites))
        ok &= 0 <= s <= min(p, n - p)
        low, high = min(low, s), min(high, min(p, n - p) - s)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    margins = [
        ("min(S - 0)", low),
        ("min(min(p, N-p) - S)", high),
        ("60s - elapsed", 60.0 - elapsed),
    ]
    report(f"invariant suite, 1e5 gates at N=120 ({elapsed:.1f}s)", ok, margins)


def test_fig1_reproduction(fig1_series):
    config, series = fig1_series
    plateau = plateau_estimate(series)
    page = page_value(120, 60)
    ok = series.mean[0] == 0.0
    ok &= 0.9 * 60 < plateau < 60
    ok &= plateau < page
    ok &= abs(page - 59.2786524796) < 1e-9
    # linear early growth: tight correlation inside the fit window
    mean = series.mean
    window = (mean >= 0.1 * plateau) & (mean <= 0.5 * plateau)
    x = series.steps[window].astype(float)
    y = mean[window]
    corr = np.corrcoef(x, y)[0, 1]
    ok &= window.sum() >= 5 and corr > 0.99
    rate = fit_growth_rate(series)
    ok &= rate > 0
    margins = [
        ("plateau - 54", plateau - 0.9 * 60),
        ("60 - plateau", 60 - plateau),
        ("page - plateau", page - plateau),
        ("1e-9 - |page - 59.2786524796|", 1e-9 - abs(page - 59.2786524796)),
        ("window - 5", int(window.sum()) - 5),
        ("corr - 0.99", corr - 0.99),
        ("growth rate - 0", rate),
    ]
    report(
        f"Fig.1 reproduction: N=120, 50 realizations, plateau {plateau:.2f} bits "
        f"(Page {page:.2f}), growth correlation {corr:.4f}",
        ok,
        margins,
    )


def test_scaling_claims(fig1_series):
    _, series_120 = fig1_series
    series_30 = run_random_ensemble(
        ExperimentConfig(
            n_qubits=30, time_steps=4000, realizations=50, rng_seed=30,
            sample_every=20,
        )
    )
    slope_ratio = fit_growth_rate(series_30) / fit_growth_rate(series_120)

    series_24 = run_random_ensemble(
        ExperimentConfig(
            n_qubits=24, time_steps=3000, realizations=50, rng_seed=24,
            sample_every=10,
        )
    )
    series_96 = run_random_ensemble(
        ExperimentConfig(
            n_qubits=96, time_steps=25000, realizations=50, rng_seed=96,
            sample_every=100,
        )
    )
    sat_ratio = estimate_saturation_time(series_96) / estimate_saturation_time(
        series_24
    )
    ok = 2.0 <= slope_ratio <= 8.0 and 8.0 <= sat_ratio <= 32.0
    margins = [
        ("slope ratio - 2", slope_ratio - 2.0),
        ("8 - slope ratio", 8.0 - slope_ratio),
        ("t_sat ratio - 8", sat_ratio - 8.0),
        ("32 - t_sat ratio", 32.0 - sat_ratio),
    ]
    report(
        f"scaling: slope(30)/slope(120) = {slope_ratio:.2f} in [2,8], "
        f"t_sat(96)/t_sat(24) = {sat_ratio:.2f} in [8,32]",
        ok,
        margins,
    )


def test_determinism(tmp_path):
    config = dict(
        n_qubits=30, time_steps=500, realizations=8, rng_seed=7, sample_every=25
    )
    paths = []
    for name, workers in (("a", 1), ("b", 1), ("par", 2)):
        series = run_random_ensemble(ExperimentConfig(**config), max_workers=workers)
        path = tmp_path / f"{name}.csv"
        write_csv(series, str(path))
        paths.append(path)
    ok = (
        paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()
    )
    report("determinism: byte-identical CSV across reruns and parallel run", ok)

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on the terminal.
"""

import math
import time

import numpy as np
import pytest

from espent import (
    AnalysisOptions,
    QuenchConfig,
    Spectrum,
    esp_from_spectrum,
    fermionic_encoding_probability,
    analyze_batch,
    purities_from_esp,
    purities_recurrence,
    quench_trajectory,
    random_haar_state,
    reduced_density_matrix,
    s_r_truncated,
    spectrum,
    validate_state,
    von_neumann_direct,
    von_neumann_series,
)
from conftest import random_bell, random_product_state
from oracles import (
    antisym_weight,
    projected_states,
    series_partial_sum,
    series_partial_sum_literal,
    volume_r_brute,
)


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"{status}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _ensemble(count, seed0, nd_max=8):
    rng = np.random.default_rng(seed0)
    for k in range(count):
        n = int(rng.integers(2, nd_max + 1))
        d = int(rng.integers(2, nd_max + 1))
        yield random_haar_state(n, d, seed0 + 100_000 + k)


def _random_spectrum(n, seed, lam_min=0.0):
    rng = np.random.default_rng(seed)
    while True:
        lam = rng.dirichlet(np.ones(n))
        if lam.min() >= lam_min:
            lam = np.sort(lam)[::-1]
            return Spectrum(eigenvalues=tuple(lam / lam.sum()))


def test_criterion_1_central_identity():
    t0 = time.monotonic()
    worst = 0.0
    for state in _ensemble(200, seed0=11):
        fam = projected_states(state)
        esp = esp_from_spectrum(spectrum(reduced_density_matrix(state)))
        for r in range(1, state.n + 1):
            worst = max(worst, abs(volume_r_brute(fam, r) - esp[r]))
    elapsed = time.monotonic() - t0
    _report(
        "criterion 1: brute-force volumes equal spectral ESPs (<= 1e-8)",
        worst <= 1e-8 and elapsed < 60.0,
        f"worst residual {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_girard_newton():
    worst_direct = 0.0
    worst_routes = 0.0
    for state in _ensemble(200, seed0=22):
        spec = spectrum(reduced_density_matrix(state))
        esp = esp_from_spectrum(spec)
        a = purities_from_esp(esp, 10)
        b = purities_recurrence(esp, 10)
        direct = [math.fsum(l**k for l in spec.eigenvalues) for k in range(1, 11)]
        worst_direct = max(worst_direct, max(abs(x - y) for x, y in zip(a, direct)))
        worst_routes = max(worst_routes, max(abs(x - y) for x, y in zip(a, b)))
    _report(
        "criterion 2: Girard-Newton purities match direct power sums (<= 1e-9)",
        worst_direct <= 1e-9 and worst_routes <= 1e-9,
        f"vs direct {worst_direct:.3e}, between routes {worst_routes:.3e}",
    )


def test_criterion_3_von_neumann_series():
    worst = 0.0
    all_conv = True
    rng = np.random.default_rng(33)
    for k in range(100):
        n = int(rng.integers(2, 9))
        spec = _random_spectrum(n, seed=33_000 + k, lam_min=0.02)
        res = von_neumann_series(esp_from_spectrum(spec))
        all_conv = all_conv and res.converged
        worst = max(worst, abs(res.value - von_neumann_direct(spec)))
    _report(
        "criterion 3: Taylor series matches -sum(lambda ln lambda) (<= 1e-6)",
        all_conv and worst <= 1e-6,
        f"worst residual {worst:.3e}, all converged: {all_conv}",
    )


def test_criterion_4_full_order_matches_von_neumann_series():
    worst_matched = 0.0
    worst_literal = 0.0
    rng = np.random.default_rng(44)
    for k in range(40):
        n = int(rng.integers(2, 6))
        spec = _random_spectrum(n, seed=44_000 + k)
        esp = esp_from_spectrum(spec)
        a = s_r_truncated(esp, n)
        b = von_neumann_series(esp)
        worst_matched = max(worst_matched, abs(a.value - b.value))
        # same identity checked against the literal partition-sum evaluation
        # (this resolves the enumeration ambiguity over the p_1 index)
        depth = 15
        worst_literal = max(
            worst_literal,
            abs(series_partial_sum(esp, n, depth) - series_partial_sum_literal(esp, n, depth)),
        )
    _report(
        "criterion 4: order-n truncation equals the full series at matched depth (<= 1e-6)",
        worst_matched <= 1e-6 and worst_literal <= 1e-8,
        f"matched {worst_matched:.3e}, literal cross-check {worst_literal:.3e}",
    )


def test_criterion_5_truncation_ladder():
    worst_ladder = -1.0
    worst_sn = 0.0
    rng = np.random.default_rng(55)
    for k in range(100):
        n = int(rng.integers(2, 7))
        state = random_haar_state(n, 8 * n, 55_000 + k)
        spec = spectrum(reduced_density_matrix(state))
        esp = esp_from_spectrum(spec)
        vals = [s_r_truncated(esp, r).value for r in range(2, n + 1)]
        for lo, hi in zip(vals, vals[1:]):
            worst_ladder = max(worst_ladder, lo - hi)
        worst_sn = max(worst_sn, abs(vals[-1] - von_neumann_direct(spec)))
    _report(
        "criterion 5: S_2 <= ... <= S_n ladder (slack 1e-4) with S_n near the oracle",
        worst_ladder <= 1e-4 and worst_sn <= 1e-4,
        f"worst ladder violation {worst_ladder:.3e}, worst S_n residual {worst_sn:.3e}",
    )


def test_criterion_6_maclaurin_decay():
    worst = 0.0
    for state in _ensemble(100, seed0=66):
        esp = esp_from_spectrum(spectrum(reduced_density_matrix(state)))
        for k in range(1, state.n + 1):
            bound = math.comb(state.n, k) / state.n**k
            assert bound <= 1.0 / math.factorial(k) + 1e-15
            worst = max(worst, esp[k] - bound)
    eq_worst = 0.0
    for n in range(2, 9):
        uniform = esp_from_spectrum(Spectrum(eigenvalues=(1.0 / n,) * n))
        for k in range(1, n + 1):
            eq_worst = max(eq_worst, abs(uniform[k] - math.comb(n, k) / n**k))
    _report(
        "criterion 6: e_k <= C(n,k)/n^k <= 1/k!, equality at uniform spectra",
        worst <= 1e-10 and eq_worst <= 1e-10,
        f"worst bound excess {worst:.3e}, uniform equality residual {eq_worst:.3e}",
    )


def test_criterion_7_fermionic_protocol():
    worst = 0.0
    for state in _ensemble(200, seed0=77):
        esp = esp_from_spectrum(spectrum(reduced_density_matrix(state)))
        worst = max(worst, abs(fermionic_encoding_probability(state) - esp[2]))
    worst_prod = 0.0
    for k in range(50):
        s = random_product_state(4, 5, seed=77_000 + k)
        worst_prod = max(worst_prod, abs(fermionic_encoding_probability(s)))
    bell_p = fermionic_encoding_probability(random_bell())
    _report(
        "criterion 7: bunching probability equals e_2; zero for product states",
        worst <= 1e-10 and worst_prod <= 1e-12 and abs(bell_p - 0.25) <= 1e-10,
        f"worst |P-e2| {worst:.3e}, product worst {worst_prod:.3e}, Bell {bell_p:.12f}",
    )


def test_criterion_8_r_copy_generalization():
    worst = 0.0
    rng = np.random.default_rng(88)
    for k in range(40):
        n = int(rng.integers(2, 6))
        state = random_haar_state(n, n + 2, 88_000 + k)
        rho = reduced_density_matrix(state)
        esp = esp_from_spectrum(spectrum(rho))
        for r in range(1, min(n, 4) + 1):
            worst = max(worst, abs(antisym_weight(rho, r) - esp[r]))
    _report(
        "criterion 8: antisymmetric-projector weight equals e_r (r <= 4, <= 1e-8)",
        worst <= 1e-8,
        f"worst residual {worst:.3e}",
    )


def test_criterion_9_quench_demo():
    t0 = time.monotonic()
    cfg = QuenchConfig(model="tfi", length=8, cut=2, tmax=0.8, steps=16)
    opts = AnalysisOptions(r_max=4)
    traj = quench_trajectory(cfg, opts)
    elapsed = time.monotonic() - t0

    svn = [rep.entropies["von_neumann_direct"] for _, rep in traj]
    zero_start = abs(svn[0]) <= 1e-10
    monotone = all(svn[i + 1] >= svn[i] - 1e-9 for i in range(len(svn) - 1))
    ladder_ok = True
    sn_ok = True
    for _, rep in traj:
        s_r = rep.entropies["s_r"]
        # r = 1 keeps only e_1 and is identically ~0
        if abs(s_r["1"]) > 1e-6:
            ladder_ok = False
        for r in range(2, 4):
            if s_r[str(r)] > s_r[str(r + 1)] + 1e-4:
                ladder_ok = False
        if abs(s_r["4"] - rep.entropies["von_neumann_direct"]) > 1e-4:
            sn_ok = False
    for r in ("2", "3", "4"):
        vals = [rep.entropies["s_r"][r] for _, rep in traj]
        if not all(vals[i + 1] >= vals[i] - 1e-7 for i in range(len(vals) - 1)):
            monotone = False
    _report(
        "criterion 9: L=8 transverse-field Ising quench (growth, ladder, runtime)",
        zero_start and monotone and ladder_ok and sn_ok and elapsed < 300.0,
        f"S(0)={svn[0]:.2e}, monotone={monotone}, ladder={ladder_ok}, "
        f"S_n ok={sn_ok}, {elapsed:.1f}s",
    )


HAAR_SEEDS = range(2000)
HAAR_Z_BOUND = 5.0  # standard errors; fixed with the seeds before the first run


@pytest.mark.parametrize("n, d", [(4, 4), (8, 3), (8, 8), (16, 16), (8, 32)])
def test_haar_ensemble_means_match_the_closed_forms(n, d):
    # The sampler, the SVD, the ESP recurrence and von_neumann_direct together
    # against numbers derived outside the code: for Haar states,
    # E[e_k] = C(n, k) d!/(d - k)! / (nd)(nd + 1)...(nd + k - 1), and Page's
    # E[S] = sum_{j=b+1}^{ab} 1/j - (a - 1)/(2b), a = min(n, d), b = max(n, d)
    # (Page, PRL 71, 1291 (1993)).
    reports = analyze_batch([random_haar_state(n, d, seed) for seed in HAAR_SEEDS])
    e = np.zeros((len(reports), 6))  # e_0 unused; e_k past e_n reads 0
    e[:, 1 : min(n, 5) + 1] = [rep.esp[:5] for rep in reports]
    samples = {f"e_{k}": e[:, k] for k in range(2, 6)}
    samples["S"] = np.array([rep.entropies["von_neumann_direct"] for rep in reports])
    a, b = min(n, d), max(n, d)
    expected = {
        f"e_{k}": math.comb(n, k) * math.perm(d, k) / math.prod(range(n * d, n * d + k))
        for k in range(2, 6)
    }
    expected["S"] = math.fsum(1 / j for j in range(b + 1, a * b + 1)) - (a - 1) / (2 * b)
    z = {}
    for name, x in samples.items():
        if expected[name] == 0.0:  # k > min(n, d): no k nonzero eigenvalues
            z[name] = 0.0 if not x.any() else math.inf
        else:
            z[name] = (x.mean() - expected[name]) / (x.std(ddof=1) / math.sqrt(len(x)))
    _report(
        f"Haar {n}x{d}: means of e_2..e_5 and S within {HAAR_Z_BOUND:g} SE of the closed forms",
        all(abs(v) <= HAAR_Z_BOUND for v in z.values()),
        ", ".join(f"{name} z={v:+.2f}" for name, v in z.items()),
    )

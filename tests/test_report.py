"""analyze_batch: one stacked analysis gives each state the bytes of analyze."""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import espent.report
from espent import (
    AnalysisOptions,
    DimensionMismatchError,
    Spectrum,
    TooLargeError,
    analyze,
    analyze_batch,
    esp_from_spectrum,
    purities_recurrence,
    random_haar_state,
    schmidt_spectrum,
    validate_state,
    von_neumann_direct,
)
from espent.states import eigvalsh_spectra

KINDS = ("haar", "product", "rank_deficient", "near_pure")


def _state(kind, n, d, rng):
    raw = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    if kind == "product":
        return np.outer(raw[:, 0], raw[0])
    if kind == "rank_deficient":
        k = int(rng.integers(1, min(n, d) + 1))
        return raw[:, :k] @ (rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d)))
    if kind == "near_pure":
        return np.outer(raw[:, 0], raw[0]) + 1e-7 * raw
    return raw


@st.composite
def stacks(draw):
    # Squares and near-squares to 8 x 8, and elongated shapes either way round, a short
    # side s to 4 and a long side to 64 or from 512 // s to 512: both sides of
    # schmidt_spectra's QR_RATIO and QR_MIN_SIZE rule.
    if draw(st.booleans()):
        n, d = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    else:
        n = draw(st.integers(1, 4))
        d = draw(st.integers(1, 64) if draw(st.booleans()) else st.integers(512 // n, 512))
        if draw(st.booleans()):
            n, d = d, n
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Unnormalized rows, so each carries its own renormalization factor
    return np.array([_state(kind, n, d, rng) * rng.uniform(0.5, 2.0) for kind in kinds])


@settings(max_examples=80, deadline=None)
@given(stack=stacks(), bunching=st.booleans(), full_order=st.booleans())
def test_batch_reports_match_analyze(stack, bunching, full_order):
    n = stack.shape[1]
    options = AnalysisOptions(r_max=n if full_order else None, simulate_bunching=bunching)
    states = [validate_state(raw, renormalize=True) for raw in stack]
    reports = analyze_batch(states, options)
    assert len(reports) == len(stack)
    for state, report in zip(states, reports):
        assert json.dumps(report.to_dict()) == json.dumps(analyze(state, options).to_dict())


def test_reports_without_alphas_are_whole():
    states = [random_haar_state(3, 5, seed) for seed in (1, 2)]
    bare, full = AnalysisOptions(alphas=()), AnalysisOptions()
    for report, ref in zip(analyze_batch(states, bare), analyze_batch(states, full)):
        assert report.entropies["renyi"] == {}
        assert report.esp == ref.esp and report.purities == ref.purities
    assert analyze(states[0], bare).to_dict() == analyze_batch(states, bare)[0].to_dict()


@st.composite
def single_states(draw, n_min=1):
    """One state of a drawn kind; n runs to 16 and d to 8, so many have rank < n."""
    n, d = draw(st.integers(n_min, 16)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return validate_state(_state(draw(st.sampled_from(KINDS)), n, d, rng), renormalize=True)


@settings(max_examples=80, deadline=None)
@given(state=single_states())
def test_s_r_from_the_rank_on_is_von_neumann_direct(state):
    # e_r = 0 for r > rank, so the nonzero roots of q_r are the spectrum: S_r = S.
    report = analyze(state, AnalysisOptions(r_max=state.n))
    spec = Spectrum(eigenvalues=report.spectrum)
    direct = von_neumann_direct(spec).hex()
    for r in range(spec.rank, state.n + 1):
        assert report.entropies["s_r"][str(r)].hex() == direct
        assert report.convergence["s_r"][str(r)]["converged"]


@settings(max_examples=80, deadline=None)
@given(state=single_states(n_min=2))
def test_report_prints_one_e_2(state):
    # e_2 appears as esp[1] and as q_tilde; neither is snapped to 0.
    report = analyze(state)
    assert report.esp[1].hex() == report.entropies["q_tilde"].hex()


def test_analyze_of_a_2048_x_2_state_at_r_max_2048_stays_small():
    # Rank 2 leaves no order to the eigensolve, whose stack sized by r_max
    # would need 8 GiB for its mask alone; the peak is about 1.3 MiB.
    state = random_haar_state(2048, 2, 1)
    tracemalloc.start()
    try:
        report = analyze(state, AnalysisOptions(r_max=2048))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert len(report.entropies["s_r"]) == 2048
    assert all(c["converged"] for c in report.convergence["s_r"].values())


@pytest.mark.parametrize("kind", KINDS[1:])
def test_purities_match_newton_recurrence(kind):
    # Newton's recurrence on the ESPs is the purities' test reference; on
    # these kinds it differs from the power sums by at most 2.7e-15.
    rng = np.random.default_rng(0)
    for n in range(1, 9):
        for d in range(1, 9):
            for _ in range(3):
                state = validate_state(_state(kind, n, d, rng), renormalize=True)
                purities = analyze(state, AnalysisOptions(k_max=12)).purities
                esp = esp_from_spectrum(schmidt_spectrum(state))
                recurrence = purities_recurrence(esp, 12)
                np.testing.assert_allclose(purities, recurrence, rtol=0, atol=1e-14)


def test_batch_refuses_states_of_different_shapes():
    states = [validate_state(np.eye(2) / np.sqrt(2.0)), validate_state(np.ones((2, 3)) / 6**0.5)]
    with pytest.raises(DimensionMismatchError, match=re.escape("shapes [(2, 2), (2, 3)]")):
        analyze_batch(states)


def test_batch_refuses_an_empty_list():
    with pytest.raises(DimensionMismatchError, match="no states"):
        analyze_batch([])


@pytest.mark.parametrize("n, d", [(65, 64), (1, 4097), (512, 512)])
def test_oversized_bunching_is_refused_before_the_svd(monkeypatch, n, d):
    def refuse(_):
        raise AssertionError("the spectra were computed before the size check")

    monkeypatch.setattr(espent.report, "schmidt_spectra", refuse)
    monkeypatch.setattr(espent.report, "eigvalsh_spectra", refuse)
    states = [random_haar_state(n, d, seed) for seed in range(2)]
    with pytest.raises(TooLargeError, match=f"n\\*d = {n * d} exceeds 4096"):
        analyze_batch(states, AnalysisOptions(simulate_bunching=True))


@pytest.mark.parametrize("n, d", [(9, 3), (3, 9), (64, 2)])
def test_eigvalsh_runs_on_the_smaller_side(monkeypatch, n, d):
    shapes, spectra = [], []

    def spy(rho):
        shapes.append(rho.shape)
        spectra.append(eigvalsh_spectra(rho))
        return spectra[-1]

    monkeypatch.setattr(espent.report, "eigvalsh_spectra", spy)
    states = [random_haar_state(n, d, seed) for seed in range(4)]
    reports = analyze_batch(states)
    assert shapes == [(4, min(n, d), min(n, d))]
    for report, lam in zip(reports, spectra[0].tolist()):
        lam = lam + [0.0] * (n - len(lam))  # the zeros analyze_batch pads with
        # The unpruned recurrence: every eigenvalue reaches every e_k
        e = [1.0] + [0.0] * n
        for value in lam:
            for k in range(n, 0, -1):
                e[k] += value * e[k - 1]
        assert esp_from_spectrum(Spectrum(eigenvalues=lam)).values == tuple(e[1:])
        assert report.residuals["esp_routes_max"] <= 1e-14

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from espent import (
    AnalysisOptions,
    ESPVector,
    IndefiniteMatrixError,
    InvalidOrderError,
    NormError,
    OrderOutOfRangeError,
    PuritySequence,
    SeriesResult,
    Spectrum,
    analyze,
    esp_from_spectrum,
    linear_entropy,
    purities_from_esp,
    purities_recurrence,
    q_tilde,
    random_haar_state,
    reduced_density_matrix,
    renyi_entropy,
    s_r_truncated,
    schmidt_spectrum,
    spectrum,
    validate_state,
    von_neumann_direct,
    von_neumann_series,
)
from espent.entropy import (
    CERTIFY_TOL,
    ZERO_ROOT,
    _partitions,
    _truncated_e_list,
    purity_heads,
    renyi_heads,
    truncated_entropies,
    von_neumann_heads,
)
from espent.volumes import esp_heads
from oracles import series_partial_sum, series_partial_sum_literal

LN2 = 0.6931471805599453


def esp_of(lams):
    return esp_from_spectrum(Spectrum(eigenvalues=tuple(lams)))


def s_r_per_order(esp, r):
    """(S_r, roots) by one np.roots and np.poly pair per order: the route the
    stacked eigensolve replaced, kept as its bitwise reference."""
    coeffs = np.array([(-1) ** k * e for k, e in enumerate(_truncated_e_list(esp, r))])
    roots = np.roots(coeffs).astype(complex)
    live = np.abs(roots) >= ZERO_ROOT
    m = int(live.sum())
    rebuilt = np.poly(np.where(live, roots, 0.0))[: m + 1]
    certified = np.all(np.abs(rebuilt - coeffs[: m + 1]) <= CERTIFY_TOL * np.abs(coeffs[: m + 1]))
    nu = roots[live]
    value = 0.0 - math.fsum((nu * np.log(nu)).real)
    radius = float(np.max(np.abs(1.0 - nu), initial=0.0))
    return SeriesResult(value=value, converged=bool(certified) and radius < 1.0), nu


def haar_esp(n, seed):
    return esp_from_spectrum(spectrum(reduced_density_matrix(random_haar_state(n, n, seed))))


def haar_unitary(n, rng):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def random_spectrum(n, seed, lam_min=0.0):
    rng = np.random.default_rng(seed)
    while True:
        lam = rng.dirichlet(np.ones(n))
        if lam.min() >= lam_min:
            lam = np.sort(lam)[::-1]
            return Spectrum(eigenvalues=tuple(lam / lam.sum()))


def test_linear_entropy_examples():
    assert linear_entropy(esp_of((0.5, 0.5))) == pytest.approx(0.5, abs=1e-12)
    assert linear_entropy(esp_of((1.0, 0.0))) == pytest.approx(0.0, abs=1e-12)
    assert linear_entropy(esp_of((0.25,) * 4)) == pytest.approx(0.75, abs=1e-12)


def test_q_tilde_examples():
    assert q_tilde(esp_of((0.5, 0.5))) == pytest.approx(0.25, abs=1e-12)
    assert q_tilde(esp_of((1.0, 0.0))) == pytest.approx(0.0, abs=1e-12)
    assert q_tilde(esp_of((1 / 3,) * 3)) == pytest.approx(1 / 3, abs=1e-12)


def test_renyi_examples():
    assert renyi_entropy(Spectrum(eigenvalues=(0.5, 0.5)), 2.0) == pytest.approx(LN2)
    assert renyi_entropy(Spectrum(eigenvalues=(1.0, 0.0)), 3.0) == pytest.approx(0.0, abs=1e-12)
    # direct formula oracle: -ln(0.7^2 + 0.3^2)
    assert renyi_entropy(Spectrum(eigenvalues=(0.7, 0.3)), 2.0) == pytest.approx(
        0.5447271754416722, abs=1e-12
    )


def test_renyi_invalid_orders():
    spec = Spectrum(eigenvalues=(0.5, 0.5))
    for alpha in (0.0, -1.0, 1.0):
        with pytest.raises(InvalidOrderError):
            renyi_entropy(spec, alpha)


@pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
def test_renyi_rejects_non_finite_orders(alpha):
    with pytest.raises(InvalidOrderError):
        renyi_entropy(Spectrum(eigenvalues=(0.5, 0.5)), alpha)


@pytest.mark.parametrize("alpha", [1e3, 1e6])
def test_renyi_large_alpha_matches_mpmath(alpha):
    # 0.48^1000 ~ 1.4e-319 is subnormal and 0.48^1e6 underflows to 0: the
    # powers are taken relative to lambda_1, so S_alpha keeps full precision.
    haar = schmidt_spectrum(random_haar_state(4, 4, 3)).eigenvalues
    for lams in [(0.48, 0.27, 0.15, 0.1), haar, (1 - 1e-9, 1e-9)]:
        a = mp.mpf(alpha)
        with mp.workdps(60):
            exact = mp.log(mp.fsum(mp.mpf(lam) ** a for lam in lams)) / (1 - a)
        assert renyi_entropy(Spectrum(eigenvalues=lams), alpha) == pytest.approx(
            float(exact), rel=1e-15
        )


@pytest.mark.parametrize(
    "alpha", [1 - 2**-53, 1 + 2**-52, 1 - 1e-8, 1 + 1e-8, 0.75, 1.25, 0.5000001, 1.4999999]
)
def test_renyi_near_alpha_1_matches_mpmath(alpha):
    # alpha ln lambda_1 and ln(1 + sum) nearly cancel here, so the numerator must
    # not be taken as their difference.  The reference normalizes the float
    # spectrum, without which ln(sum lambda) / (1 - alpha) alone would grow
    # without bound as alpha tends to 1.
    haar = schmidt_spectrum(random_haar_state(8, 8, 5)).eigenvalues
    for lams in [(0.5725568, 0.4274432), haar, (1 - 1e-9, 1e-9), (0.6, 0.4 - 1e-300, 1e-300)]:
        a = mp.mpf(alpha)
        with mp.workdps(60):
            total = mp.fsum(mp.mpf(lam) for lam in lams)
            exact = mp.log(mp.fsum((mp.mpf(lam) / total) ** a for lam in lams)) / (1 - a)
        assert renyi_entropy(Spectrum(eigenvalues=lams), alpha) == pytest.approx(
            float(exact), rel=0.0, abs=1e-15
        )


def test_renyi_linear_entropy_bridge():
    for seed in range(10):
        spec = spectrum(reduced_density_matrix(random_haar_state(5, 6, seed)))
        esp = esp_from_spectrum(spec)
        h2 = renyi_entropy(spec, 2.0)
        assert 1.0 - math.exp(-h2) == pytest.approx(linear_entropy(esp), abs=1e-10)


def test_von_neumann_direct_examples():
    assert von_neumann_direct(Spectrum(eigenvalues=(0.5, 0.5))) == pytest.approx(LN2)
    assert von_neumann_direct(Spectrum(eigenvalues=(1.0, 0.0))) == 0.0
    assert von_neumann_direct(Spectrum(eigenvalues=(0.7, 0.2, 0.1))) == pytest.approx(
        0.8018185525433372, abs=1e-12
    )


def test_purity_examples():
    bell = esp_of((0.5, 0.5))
    assert purities_from_esp(bell, 4).values == pytest.approx(
        (1.0, 0.5, 0.25, 0.125), abs=1e-12
    )
    assert purities_from_esp(bell, 2)[2] == pytest.approx(1.0 - 2 * bell[2], abs=1e-12)
    # k=3 Newton expansion e1^3 - 3 e1 e2 + 3 e3 checked against sum lambda^3
    assert purities_from_esp(bell, 3)[3] == pytest.approx(2 * 0.5**3, abs=1e-12)
    prod = esp_of((1.0, 0.0, 0.0))
    assert purities_from_esp(prod, 4).values == pytest.approx((1.0,) * 4, abs=1e-12)
    uni3 = esp_of((1 / 3,) * 3)
    assert purities_recurrence(uni3, 3).values == pytest.approx(
        (1.0, 1 / 3, 1 / 9), abs=1e-12
    )


def test_purity_routes_and_direct_oracle():
    for seed in range(15):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 11))
        spec = random_spectrum(n, seed + 50)
        esp = esp_from_spectrum(spec)
        a = purities_from_esp(esp, 10)
        b = purities_recurrence(esp, 10)
        direct = [math.fsum(l**k for l in spec.eigenvalues) for k in range(1, 11)]
        np.testing.assert_allclose(a.values, direct, atol=1e-9)
        np.testing.assert_allclose(a.values, b.values, atol=1e-9)


def purities_of(spec, K):
    """purity_heads of one spectrum, the route analyze runs."""
    return purity_heads([spec.eigenvalues[: spec.rank]], K)[0]


def test_purities_from_spectrum():
    bell = Spectrum(eigenvalues=(0.5, 0.5))
    assert purities_of(bell, 4) == [1.0, 0.5, 0.25, 0.125]
    assert purities_of(Spectrum(eigenvalues=(1.0, 0.0)), 3) == [1.0] * 3
    for seed in range(5):
        spec = random_spectrum(6, seed)
        np.testing.assert_allclose(
            purities_of(spec, 10),
            purities_from_esp(esp_from_spectrum(spec), 10).values,
            rtol=0.0,
            atol=1e-15,
        )


@pytest.mark.parametrize("pad", [1, 5, 2046])
def test_purities_of_zero_padded_spectra_are_bitwise_unpadded(pad):
    # Trailing exact zeros (n - d of them for n > d) add +0.0 to every power
    # sum, so skipping them changes no bit: the literal sum over the padded
    # spectrum, the unpadded spectrum and the padded one all agree exactly.
    spectra = [random_spectrum(m, seed) for m, seed in [(1, 0), (2, 1), (6, 2), (9, 3)]]
    spectra.append(Spectrum(eigenvalues=(1.0 - 1e-200, 1e-200)))  # lambda^2 underflows to 0
    spectra.append(schmidt_spectrum(random_haar_state(2, 7, seed=4)))
    for spec in spectra:
        for zero in (0.0, -0.0):
            padded = Spectrum(eigenvalues=spec.eigenvalues + (zero,) * pad)
            literal = [
                math.fsum(lam**k for lam in padded.eigenvalues).hex() for k in range(1, 13)
            ]
            for s in (padded, spec):
                assert [p.hex() for p in purities_of(s, 12)] == literal


def test_purity_order_errors():
    esp = esp_of((0.5, 0.5))
    with pytest.raises(OrderOutOfRangeError):
        purities_from_esp(esp, 0)
    with pytest.raises(OrderOutOfRangeError):
        purities_recurrence(esp, 0)


def _recurrence_literal(esp, K):
    """Newton's recurrence as written, one (-1)^(i-1) power per term."""
    n = esp.n
    s = [float(n)]
    for m in range(1, K + 1):
        acc = math.fsum((-1) ** (i - 1) * esp[i] * s[m - i] for i in range(1, min(m, n + 1)))
        if m <= n:
            acc += (-1) ** (m - 1) * m * esp[m]
        s.append(acc)
    return s[1:]


@pytest.mark.parametrize("n", range(1, 9))
def test_purities_recurrence_is_bitwise_the_literal_recurrence(n):
    # Full-rank and rank-deficient Haar states (exact zero ESPs), every K up to 3n
    for d, seed in [(n, 1), (n, 2), (max(1, n // 2), 3)]:
        esp = esp_from_spectrum(schmidt_spectrum(random_haar_state(n, d, seed)))
        literal = [v.hex() for v in _recurrence_literal(esp, 3 * n)]
        for K in range(1, 3 * n + 1):
            assert [v.hex() for v in purities_recurrence(esp, K).values] == literal[:K]


def test_purities_recurrence_needs_every_stored_esp_it_reads():
    esp = ESPVector(n=4, values=(1.0, 0.25))
    assert purities_recurrence(esp, 2).values == pytest.approx((1.0, 0.5))
    for K in (3, 4, 9):
        with pytest.raises(OrderOutOfRangeError, match=r"^e_3 not computed \(have 2\)$"):
            purities_recurrence(esp, K)


@pytest.mark.parametrize(
    "values, message",
    [
        ((1.0, 0.5, 1.5), "p_3 = 1.5 outside [0, 1]"),
        ((1.0, -0.2, 0.1), "p_2 = -0.2 outside [0, 1]"),
        ((1.0, 0.5, -0.1, 2.0), "p_3 = -0.1 outside [0, 1]"),
        ((1.0, 0.3, 0.5), "purities not monotone at k=2"),
        ((1.0, 0.5, 0.4, 0.45, 0.5), "purities not monotone at k=3"),
        ((1.0, 0.5, 0.5 + 2e-9), "purities not monotone at k=2"),
    ],
)
def test_purity_sequence_names_the_first_failing_index(values, message):
    with pytest.raises(ValueError) as info:
        PuritySequence(values=values)
    assert str(info.value) == message
    PuritySequence(values=(1.0, 0.5, 0.5 + 1e-9, -1e-9))  # within the tolerances


@pytest.mark.parametrize(
    "values, error, message",
    [
        ((0.6, 0.5, -0.1), IndefiniteMatrixError, "spectrum has a negative entry"),
        ((-0.0, 1.0, 0.0), ValueError, "spectrum must be sorted non-increasing"),
        ((0.3, 0.7), ValueError, "spectrum must be sorted non-increasing"),
        ((0.5, 0.4), NormError, "spectrum sums to 0.9, expected 1"),
        ((), NormError, "spectrum sums to 0, expected 1"),
    ],
)
def test_spectrum_checks_keep_their_errors(values, error, message):
    with pytest.raises(error) as info:
        Spectrum(eigenvalues=values)
    assert type(info.value) is error and str(info.value) == message
    assert Spectrum(eigenvalues=(0.5, 0.5, 0.0, -0.0)).eigenvalues == (0.5, 0.5, 0.0, -0.0)


def test_partitions_are_the_distinct_partitions_of_k():
    # p(k) for k = 1..12; each partition of k exactly once, parts descending.
    p_k = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for k, expected in enumerate(p_k, start=1):
        parts = list(_partitions(k, k))
        assert len(set(parts)) == len(parts) == expected
        for partition in parts:
            assert sum(l * p for l, p in partition) == k
            assert all(p > 0 for _, p in partition)
            assert [l for l, _ in partition] == sorted({l for l, _ in partition}, reverse=True)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ESPVector(n=2, values=(1.0, math.nan)),
        lambda: ESPVector(n=2, values=(1.0, math.inf)),
        lambda: ESPVector(n=2, values=(math.nan,)),
        lambda: Spectrum(eigenvalues=(math.nan, 1.0)),
        lambda: Spectrum(eigenvalues=(1.0, math.nan)),
        lambda: Spectrum(eigenvalues=(math.inf, 0.0)),
        lambda: PuritySequence(values=(1.0, math.nan)),
        lambda: PuritySequence(values=(1.0, 0.5, -math.inf)),
    ],
)
def test_wrappers_reject_non_finite_values(build):
    with pytest.raises(ValueError, match="NaN or infinite"):
        build()


def test_von_neumann_series_bell():
    res = von_neumann_series(esp_of((0.5, 0.5)))
    assert res.converged
    assert res.value == pytest.approx(LN2, abs=1e-9)


def test_von_neumann_series_pure_state():
    res = von_neumann_series(esp_of((1.0, 0.0, 0.0)))
    assert res.converged
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_von_neumann_series_two_level():
    res = von_neumann_series(esp_of((0.9, 0.1)))
    assert res.converged
    assert res.value == pytest.approx(0.3250829733914482, abs=1e-6)


def test_von_neumann_series_vs_direct():
    for seed in range(10):
        spec = random_spectrum(4, seed + 300, lam_min=0.02)
        res = von_neumann_series(esp_from_spectrum(spec))
        assert res.converged
        assert res.value == pytest.approx(von_neumann_direct(spec), abs=1e-6)


def test_s_r_examples():
    bell = esp_of((0.5, 0.5))
    res = s_r_truncated(bell, 2)
    assert res.value == pytest.approx(LN2, abs=1e-6)
    prod = esp_of((1.0, 0.0, 0.0))
    assert s_r_truncated(prod, 2).value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("e1", [1.0, 1.0 - 2.0**-53, 1.0 + 2.0**-52])
def test_s_1_is_zero_when_trace_misses_one_by_an_ulp(e1):
    res = s_r_truncated(ESPVector(n=2, values=(e1, 0.1)), 1)
    assert res.converged
    assert math.copysign(1.0, res.value) == 1.0 and res.value == 0.0


@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_s_1_is_positive_zero_on_haar_states(n):
    for seed in range(3):
        s_1 = analyze(random_haar_state(n, n, seed)).entropies["s_r"]["1"]
        assert math.copysign(1.0, s_1) == 1.0 and s_1 == 0.0


@pytest.mark.parametrize("n", [8, 16, 32, 64])
@pytest.mark.parametrize("r", [2, 3])
def test_s_r_matches_roots_of_q_r_haar(n, r):
    # Summing over q_r's own r roots: no zero pad up to degree n, whose
    # complement binomials C(n - k, m - k) once cancelled to |S_2| ~ 1e11.
    esp = haar_esp(n, 1)
    res = s_r_truncated(esp, r)
    assert res.converged
    assert abs(res.value - s_r_per_order(esp, r)[0].value) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12), d=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
def test_s_r_matches_roots_of_q_r_property(n, d, seed):
    esp = esp_from_spectrum(spectrum(reduced_density_matrix(random_haar_state(n, d, seed))))
    for r in range(2, min(n, 4) + 1):
        ref, nu = s_r_per_order(esp, r)
        if np.max(np.abs(1.0 - nu)) < 1 - 1e-6:
            res = s_r_truncated(esp, r)
            assert res.converged
            assert abs(res.value - ref.value) <= 1e-8


def mp_esp(state):
    """e_0..e_n of the SVD spectrum in 40 digits, adding one eigenvalue at a time."""
    lams = np.linalg.svd(state.amplitudes, compute_uv=False) ** 2
    with mp.workdps(40):
        e = [mp.mpf(1)] + [mp.mpf(0)] * len(lams)
        for lam in lams:
            for k in range(len(lams), 0, -1):
                e[k] += mp.mpf(float(lam)) * e[k - 1]
    return e


def mp_s_r(e, r):
    """(series radius max |1 - nu|, S_r) over the 40-digit mp.polyroots of q_r."""
    with mp.workdps(40):
        nu = mp.polyroots([(-1) ** k * e[k] for k in range(r + 1)], maxsteps=200, extraprec=60)
        return max(abs(1 - x) for x in nu), float(-mp.re(mp.fsum(x * mp.log(x) for x in nu)))


@pytest.mark.parametrize("n, seed", [(4, 1), (8, 1), (12, 1), (16, 1), (16, 2)])
def test_s_r_matches_mpmath_roots(n, seed):
    # Seed 2 at n = 16 adds the not converged branch: S_7 and S_8 there
    # diverge (radius 1.00075, 1.00066).
    esp = haar_esp(n, seed)
    e = mp_esp(random_haar_state(n, n, seed))
    for r in range(2, n):
        radius, value = mp_s_r(e, r)
        res = s_r_truncated(esp, r)
        if res.converged:
            assert radius < 1
            assert abs(res.value - value) <= 1e-10
        else:
            assert radius >= 1


@pytest.mark.parametrize("seed", [1, 2])
def test_converged_s_r_is_within_1e_10_of_mpmath_roots(seed):
    # Haar 28x28, r = 22..24: every radius is within 3e-4 of 1, and S_r from
    # the float64 roots of q_r is 3.9e-10 to 6.2e-9 off on both ESP routes.
    # CERTIFY_TOL = 1e-10 flags none of the six converged; 1e-6 flags S_23
    # of seed 1 (2.1e-9 off) and S_22..S_24 of seed 2 (up to 3.0e-9 off).
    # The reference (about 0.7 s per order) is taken only for flagged values.
    state = random_haar_state(28, 28, seed)
    e = mp_esp(state)
    for esp in (haar_esp(28, seed), esp_from_spectrum(schmidt_spectrum(state))):
        for r in (22, 23, 24):
            res = s_r_truncated(esp, r)
            if res.converged:
                assert abs(res.value - mp_s_r(e, r)[1]) <= 1e-10


@st.composite
def adversarial_spectra(draw):
    """Spectra Haar states never produce: graded 10^-k ladders (down to
    underflow, so exact e_k = 0 tails), rank-deficient ones with exact zero
    eigenvalues, tight clusters, and near-product states."""
    n = draw(st.integers(3, 32))
    kind = draw(st.sampled_from(["graded", "rank_deficient", "clustered", "near_product"]))
    unit = st.floats(0.01, 1.0)
    if kind == "graded":
        lam = 10.0 ** (-draw(st.floats(0.5, 12.0)) * np.arange(n))
    elif kind == "rank_deficient":
        rank = draw(st.integers(1, n - 1))
        lam = np.r_[draw(st.lists(unit, min_size=rank, max_size=rank)), np.zeros(n - rank)]
    elif kind == "clustered":
        spread = 10.0 ** -draw(st.floats(3.0, 12.0))
        lam = 1.0 + spread * np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    else:
        eps2 = 10.0 ** -draw(st.floats(4.0, 16.0))
        lam = np.r_[1.0, eps2 * np.array(draw(st.lists(unit, min_size=n - 1, max_size=n - 1)))]
    lam = np.sort(lam)[::-1]
    return lam / lam.sum()


def same(a, b):
    return a.converged == b.converged and a.value.hex() == b.value.hex()


# lambda ~ 10^(-12 i), i < 27, and one exact zero: rank 27, but e_k underflows
# to 0 from k = 8 on.  S_27 = S = 2.86e-11, where the roots of q_27 (whose one
# near 1e-12 falls below ZERO_ROOT) give 1.0e-12, flagged converged.
GRADED = np.r_[10.0 ** (-12.0 * np.arange(27)), 0.0]
GRADED /= math.fsum(GRADED)


def diagonal_state(lam):
    """The state with Schmidt spectrum lam, one column per nonzero eigenvalue:
    schmidt_spectrum pads the exact zeros."""
    amps = np.zeros((len(lam), max(np.count_nonzero(lam), 1)))
    amps[: amps.shape[1], :] = np.diag(np.sqrt(lam[: amps.shape[1]]))
    return validate_state(amps, renormalize=True)


@settings(max_examples=120, deadline=None)
@given(lam=adversarial_spectra())
@example(lam=GRADED)
def test_stacked_eigensolve_matches_per_order_roots_bitwise(lam):
    # Every library caller of the stacked eigensolve returns the per-order
    # route's value and converged flag bit for bit, at every order up to n <= 32.
    n = len(lam)
    esp = esp_from_spectrum(schmidt_spectrum(diagonal_state(lam)))
    ref = {r: s_r_per_order(esp, r) for r in range(2, n + 1)}
    for r, res in zip(range(2, n + 1), truncated_entropies(esp, range(2, n + 1))):
        assert same(res, ref[r][0])
        assert same(s_r_truncated(esp, r), ref[r][0])
    assert same(von_neumann_series(esp), ref[n][0])
    for r in (2, max(2, n // 2), n):
        nu, m = ref[r][1][:, None], np.arange(1, 6)
        expected = math.fsum((nu * (1.0 - nu) ** m / m).real.ravel())
        assert series_partial_sum(esp, r, 5).hex() == expected.hex()


@settings(max_examples=120, deadline=None)
@given(lam=adversarial_spectra())
@example(lam=GRADED)
def test_analyze_s_r_is_the_per_order_root_below_the_rank_and_s_from_it(lam):
    # Below the rank analyze's S_r is the per-order route's bit for bit; from
    # the rank on e_r = 0, so S_r is von_neumann_direct and converged.
    n = len(lam)
    state = diagonal_state(lam)
    spec = schmidt_spectrum(state)
    esp = esp_from_spectrum(spec)
    report = analyze(state, AnalysisOptions(r_max=n))
    s = SeriesResult(von_neumann_direct(spec), True)
    for r in range(2, n + 1):
        converged = report.convergence["s_r"][str(r)]["converged"]
        expected = s_r_per_order(esp, r)[0] if r < spec.rank else s
        assert same(SeriesResult(report.entropies["s_r"][str(r)], converged), expected)


def test_truncated_entropies_of_a_2048_x_2_state_size_the_stack_by_degree():
    # e_k = 0 for k > 2, so every q_r is q_2 times x^(r - 2): one 2 x 2
    # companion block per order.  A stack sized by order would need 8 GiB for
    # its mask alone; the peak is about 0.6 MiB.
    esp = esp_from_spectrum(schmidt_spectrum(random_haar_state(2048, 2, 1)))
    tracemalloc.start()
    try:
        results = truncated_entropies(esp, range(2, 2048))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert same(results[0], s_r_per_order(esp, 2)[0])
    assert all(same(res, results[0]) for res in results)


def test_stacked_eigensolve_keeps_exact_zero_roots():
    # d < n leaves e_k = 0.0 exactly for k > rank.  Those zeros are roots of
    # q_r at exactly 0, as np.roots strips them; eigenvalues of the unstripped
    # companion matrix would move every S_r of these states by ~1e-16.
    for seed in range(1, 6):
        state = random_haar_state(12, 3, seed)
        esp = esp_from_spectrum(schmidt_spectrum(state))
        assert esp[4] == 0.0
        ref = [s_r_per_order(esp, r)[0] for r in range(2, 12)]
        assert all(map(same, truncated_entropies(esp, range(2, 12)), ref))


@pytest.mark.parametrize("r", [27, 31])
def test_s_r_uncertified_roots_are_not_converged(r):
    # np.roots of q_r for the Haar 32x32 state with seed 1 rebuild e_0..e_r
    # with a relative residual far above 1e-10 (3.7 at r = 31).  Against
    # mpmath roots S_27 is 9.8e-7 off and S_31 1.6e-2 off, though both series
    # converge; at r = 27 the computed roots even give max |1 - nu| = 0.99995,
    # so only the certificate keeps the value from being flagged converged.
    assert not s_r_truncated(haar_esp(32, 1), r).converged


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("eps", [1e-3, 1e-4])
def test_s_r_near_product_states_converge(n, eps):
    # q_r has one root near 1 and r - 1 roots of order eps^2, so max |1 - nu|
    # is within ~eps^2 of 1 and e_2 ... e_r are tiny.
    rng = np.random.default_rng(n)
    gauss = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    amps = np.outer(gauss(n), gauss(n))
    amps = amps / np.linalg.norm(amps) + eps * gauss(n, n) / n
    state = validate_state(amps, renormalize=True)
    esp = esp_from_spectrum(spectrum(reduced_density_matrix(state)))
    for r in range(2, 5):
        res = s_r_truncated(esp, r)
        assert res.converged
        assert abs(res.value - s_r_per_order(esp, r)[0].value) <= 1e-12


@pytest.mark.parametrize("n", [4, 8])
def test_s_r_bell_pair_embedded(n):
    # A Bell pair rotated into n levels on both sides: q_r has the double
    # root 1/2 and r - 2 roots at roundoff level, which count as zero.
    rng = np.random.default_rng(n)
    core = np.diag([1.0, 1.0] + [0.0] * (n - 2)) / np.sqrt(2.0)
    amps = haar_unitary(n, rng) @ core @ haar_unitary(n, rng)
    state = validate_state(amps, renormalize=True)
    esp = esp_from_spectrum(spectrum(reduced_density_matrix(state)))
    for r in range(2, n + 1):
        res = s_r_truncated(esp, r)
        assert res.converged
        assert abs(res.value - s_r_per_order(esp, r)[0].value) <= 1e-12
        assert abs(res.value - LN2) <= 1e-12


def test_s_r_order_errors():
    bell = esp_of((0.5, 0.5))
    with pytest.raises(OrderOutOfRangeError):
        s_r_truncated(bell, 0)
    with pytest.raises(OrderOutOfRangeError):
        s_r_truncated(bell, 3)


def test_s_r_matched_truncation_equals_full_series():
    # hard algebraic identity: at r = n the truncated series coincides with
    # the full one at every finite depth
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        esp = esp_from_spectrum(random_spectrum(n, seed + 400))
        for depth in (3, 10, 40):
            a = series_partial_sum(esp, n, depth)
            b = series_partial_sum(esp, n, depth)  # same inputs, same path
            assert a == b


def test_series_literal_cross_check():
    # the literal triple-sum with exact rational coefficients must match the
    # power-sum engine at matched depth, for every r
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        esp = esp_from_spectrum(random_spectrum(n, seed + 500))
        for r in range(1, n + 1):
            for depth in (5, 12, 18):
                a = series_partial_sum(esp, r, depth)
                b = series_partial_sum_literal(esp, r, depth)
                assert a == pytest.approx(b, abs=1e-10)


def test_s_r_ladder():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 5))
        s = random_haar_state(n, 8 * n, seed + 600)
        spec = spectrum(reduced_density_matrix(s))
        esp = esp_from_spectrum(spec)
        values = [s_r_truncated(esp, r).value for r in range(2, n + 1)]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-4
        assert values[-1] <= von_neumann_direct(spec) + 1e-4


def test_degenerate_rank_one_everything_zero():
    esp = esp_of((1.0, 0.0, 0.0, 0.0))
    spec = Spectrum(eigenvalues=(1.0, 0.0, 0.0, 0.0))
    assert linear_entropy(esp) == pytest.approx(0.0, abs=1e-10)
    assert q_tilde(esp) == pytest.approx(0.0, abs=1e-10)
    assert renyi_entropy(spec, 2.0) == pytest.approx(0.0, abs=1e-10)
    assert von_neumann_direct(spec) == pytest.approx(0.0, abs=1e-10)
    assert von_neumann_series(esp).value == pytest.approx(0.0, abs=1e-10)
    for r in range(1, 5):
        assert s_r_truncated(esp, r).value == pytest.approx(0.0, abs=1e-10)


@st.composite
def t_transforms(draw):
    """A spectrum lam (n = 2..12, descending, trace 1) and its T-transform
    t lam + (1 - t) P_ij lam with t in [1/2, 1], which lam majorizes."""
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12).filter(any))
    lam = np.sort(weights)[::-1] / math.fsum(weights)
    i, j = draw(st.lists(st.integers(0, len(lam) - 1), min_size=2, max_size=2, unique=True))
    t = draw(st.floats(0.5, 1.0))
    mixed = lam.copy()
    mixed[[i, j]] = t * lam[[i, j]] + (1.0 - t) * lam[[j, i]]
    return lam, np.sort(mixed)[::-1]


@settings(max_examples=300, deadline=None)
@given(pair=t_transforms(), alpha=st.floats(0.05, 20.0).filter(lambda a: a != 1.0))
def test_measures_are_monotone_under_t_transforms(pair, alpha):
    # LOCC turns a pure state's Schmidt spectrum into one it majorizes (Nielsen),
    # and every T-transform does: e_k, S and the Renyi entropies are Schur-concave
    # and must not fall, the purities p_k Schur-convex and must not rise.
    heads = [[x for x in lam.tolist() if x > 0.0] for lam in pair]
    n = len(pair[0])
    (e, e_mixed), (s, s_mixed) = esp_heads(heads, n), von_neumann_heads(heads)
    (r, r_mixed), (p, p_mixed) = renyi_heads(heads, alpha), purity_heads(heads, n + 2)
    assert (e_mixed >= e - 1e-12).all()
    assert s_mixed >= s - 1e-12 and r_mixed >= r - 1e-12
    assert all(b <= a + 1e-12 for a, b in zip(p, p_mixed))

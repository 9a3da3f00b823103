import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from espent import (
    ESPVector,
    InvalidOrderError,
    OrderOutOfRangeError,
    PuritySequence,
    Spectrum,
    esp_from_spectrum,
    linear_entropy,
    purities_from_esp,
    purities_recurrence,
    q_tilde,
    random_haar_state,
    reduced_density_matrix,
    renyi_entropy,
    s_r_truncated,
    series_partial_sum,
    series_partial_sum_literal,
    spectrum,
    validate_state,
    von_neumann_direct,
    von_neumann_series,
)

LN2 = 0.6931471805599453


def esp_of(lams):
    return esp_from_spectrum(Spectrum(eigenvalues=tuple(lams)))


def q_r_roots_entropy(esp, r):
    """(-sum nu ln nu, max |1 - nu|) over the roots nu of q_r, by np.roots.

    Roots below 1e-12 count as zero: they add nothing to the entropy, and
    their complement 1 - nu = 1 is constant in every series term.
    """
    nu = np.roots([(-1) ** k * esp[k] for k in range(r + 1)]).astype(complex)
    nu = nu[abs(nu) > 1e-12]
    return float(-np.sum(nu * np.log(nu)).real), float(np.max(abs(1.0 - nu)))


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


def test_purity_order_errors():
    esp = esp_of((0.5, 0.5))
    with pytest.raises(OrderOutOfRangeError):
        purities_from_esp(esp, 0)
    with pytest.raises(OrderOutOfRangeError):
        purities_recurrence(esp, 0)


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
    assert abs(res.value) < 1e-15


@pytest.mark.parametrize("n", [8, 16, 32, 64])
@pytest.mark.parametrize("r", [2, 3])
def test_s_r_matches_roots_of_q_r_haar(n, r):
    # Summing over q_r's own r roots: no zero pad up to degree n, whose
    # complement binomials C(n - k, m - k) once cancelled to |S_2| ~ 1e11.
    esp = haar_esp(n, 1)
    res = s_r_truncated(esp, r)
    assert res.converged
    assert abs(res.value - q_r_roots_entropy(esp, r)[0]) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12), d=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
def test_s_r_matches_roots_of_q_r_property(n, d, seed):
    esp = esp_from_spectrum(spectrum(reduced_density_matrix(random_haar_state(n, d, seed))))
    for r in range(2, min(n, 4) + 1):
        value, radius = q_r_roots_entropy(esp, r)
        if radius < 1 - 1e-6:
            res = s_r_truncated(esp, r)
            assert res.converged
            assert abs(res.value - value) <= 1e-8


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
        assert abs(res.value - q_r_roots_entropy(esp, r)[0]) <= 1e-12


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
        assert abs(res.value - q_r_roots_entropy(esp, r)[0]) <= 1e-12
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

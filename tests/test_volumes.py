import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from espent import (
    ESPVector,
    OrderOutOfRangeError,
    Spectrum,
    esp_from_charpoly,
    esp_from_spectrum,
    gram_matrix,
    random_haar_state,
    reduced_density_matrix,
    spectrum,
    validate_state,
)
from conftest import random_product_state
from oracles import projected_states, volume_r_brute, wedge_norm_squared


def test_wedge_norm_orthonormal_pair():
    assert wedge_norm_squared([np.array([1, 0, 0]), np.array([0, 1, 0])]) == pytest.approx(1.0)


def test_wedge_norm_parallel_pair():
    v = np.array([1.0, 2.0, 3.0])
    assert wedge_norm_squared([v, 2.0 * v]) == pytest.approx(0.0, abs=1e-12)


def test_wedge_norm_hand_computed():
    # det [[1, 1/sqrt2], [1/sqrt2, 1]] = 1 - 1/2
    v1 = np.array([1.0, 0.0])
    v2 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert wedge_norm_squared([v1, v2]) == pytest.approx(0.5, abs=1e-14)


def test_wedge_norm_more_vectors_than_dim_is_zero():
    vecs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
    assert wedge_norm_squared(vecs) == pytest.approx(0.0, abs=1e-12)


def test_wedge_norm_permutation_invariant():
    rng = np.random.default_rng(0)
    vecs = [rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(3)]
    ref = wedge_norm_squared(vecs)
    assert wedge_norm_squared([vecs[2], vecs[0], vecs[1]]) == pytest.approx(ref, rel=1e-12)
    assert wedge_norm_squared([vecs[1], vecs[0], vecs[2]]) == pytest.approx(ref, rel=1e-12)


def test_signed_wedge_row_swap_flips_sign():
    # the signed wedge itself is antisymmetric: swapping two covectors flips
    # the sign of the mixed Gram determinant <u_1 ^ u_2 | v_1 ^ v_2>
    rng = np.random.default_rng(1)
    u = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(2)]
    v = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(2)]

    def mixed(us):
        m = np.array([[np.vdot(a, b) for b in v] for a in us])
        return np.linalg.det(m)

    assert mixed([u[1], u[0]]) == pytest.approx(-mixed(u), rel=1e-12)


def test_volume_bell_r2(bell_state):
    fam = projected_states(bell_state)
    assert volume_r_brute(fam, 2) == pytest.approx(0.25, abs=1e-12)


def test_volume_r1_is_trace():
    fam = projected_states(random_haar_state(5, 6, seed=2))
    assert volume_r_brute(fam, 1) == pytest.approx(1.0, abs=1e-10)


def test_volume_product_state_vanishes():
    fam = projected_states(random_product_state(4, 5, seed=3))
    assert volume_r_brute(fam, 2) == pytest.approx(0.0, abs=1e-12)


def test_volume_order_out_of_range():
    fam = projected_states(random_haar_state(3, 3, seed=4))
    with pytest.raises(OrderOutOfRangeError):
        volume_r_brute(fam, 4)
    with pytest.raises(OrderOutOfRangeError):
        volume_r_brute(fam, 0)


def test_esp_examples():
    esp = esp_from_spectrum(Spectrum(eigenvalues=(0.5, 0.5)))
    assert esp.values == pytest.approx((1.0, 0.25), abs=1e-14)
    esp = esp_from_spectrum(Spectrum(eigenvalues=(1.0, 0.0, 0.0)))
    assert esp.values == pytest.approx((1.0, 0.0, 0.0), abs=1e-14)
    esp = esp_from_spectrum(Spectrum(eigenvalues=(1 / 3, 1 / 3, 1 / 3)))
    assert esp.values == pytest.approx((1.0, 1 / 3, 1 / 27), abs=1e-14)


def test_esp_from_charpoly_examples():
    rho = reduced_density_matrix(validate_state(np.eye(2) / np.sqrt(2.0)))
    assert esp_from_charpoly(rho).values == pytest.approx((1.0, 0.25), abs=1e-12)
    rho = reduced_density_matrix(validate_state(np.eye(3) / np.sqrt(3.0)))
    assert esp_from_charpoly(rho).values == pytest.approx((1.0, 1 / 3, 1 / 27), abs=1e-12)


def test_esp_routes_agree():
    for n, d in ((6, 6), (16, 16), (64, 64), (64, 2)):
        for seed in range(10):
            rho = reduced_density_matrix(random_haar_state(n, d, seed))
            a = esp_from_spectrum(spectrum(rho)).values
            b = esp_from_charpoly(rho).values
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)


def test_brute_force_matches_esp():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 11))
        d = int(rng.integers(2, 11))
        s = random_haar_state(n, d, seed + 70)
        fam = projected_states(s)
        esp = esp_from_spectrum(spectrum(reduced_density_matrix(s)))
        for r in range(1, n + 1):
            assert volume_r_brute(fam, r) == pytest.approx(esp[r], abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_volumes_on_both_sides_property(n, d, seed):
    s = random_haar_state(n, d, seed)
    for side in ("M", "R"):
        np.testing.assert_array_equal(
            gram_matrix(projected_states(s, side)), reduced_density_matrix(s, side).matrix
        )
    # Partial trace over M: (rho_R)[i1, i2] = sum_j psi[j, i1] conj(psi[j, i2]).
    psi = s.amplitudes
    np.testing.assert_allclose(
        reduced_density_matrix(s, "R").matrix,
        np.einsum("ja,jb->ab", psi, psi.conj()),
        rtol=0,
        atol=1e-15,
    )
    # The d environment-side rows span the same volumes as the n system-side
    # rows: e_r of rho_M up to min(n, d), and nothing beyond the rank.
    esp = esp_from_spectrum(spectrum(reduced_density_matrix(s, "M")))
    rows = projected_states(s, "R")
    for r in range(1, d + 1):
        if r <= min(n, d):
            assert volume_r_brute(rows, r) == pytest.approx(esp[r], abs=1e-10)
        else:
            assert abs(volume_r_brute(rows, r)) < 1e-12


def test_basis_invariance():
    rng = np.random.default_rng(5)
    s = random_haar_state(5, 7, seed=11)
    # random unitary on the M side
    z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    rotated = validate_state(q @ s.amplitudes, renormalize=True)
    a = esp_from_spectrum(spectrum(reduced_density_matrix(s))).values
    b = esp_from_spectrum(spectrum(reduced_density_matrix(rotated))).values
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_rank_deficiency_kills_high_orders():
    # rank-2 state embedded in n=5
    rng = np.random.default_rng(6)
    raw = np.zeros((5, 6), dtype=complex)
    raw[:2] = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    s = validate_state(raw, renormalize=True)
    esp = esp_from_spectrum(spectrum(reduced_density_matrix(s)))
    for r in range(3, 6):
        assert abs(esp[r]) < 1e-10


def test_maclaurin_bound_and_uniform_equality():
    for seed in range(10):
        s = random_haar_state(5, 8, seed + 200)
        esp = esp_from_spectrum(spectrum(reduced_density_matrix(s)))
        for k in range(1, 6):
            assert esp[k] <= math.comb(5, k) / 5**k + 1e-10
            assert esp[k] <= 1.0 / math.factorial(k) + 1e-10
    uniform = esp_from_spectrum(Spectrum(eigenvalues=(0.25,) * 4))
    for k in range(1, 5):
        assert uniform[k] == pytest.approx(math.comb(4, k) / 4**k, abs=1e-10)


def test_esp_vector_validation():
    with pytest.raises(ValueError):
        ESPVector(n=2, values=(0.9, 0.1))  # e_1 != 1
    with pytest.raises(ValueError):
        ESPVector(n=2, values=(1.0, 0.3))  # above Maclaurin bound 1/4
    with pytest.raises(ValueError):
        ESPVector(n=2, values=(1.0, -0.1))
    esp = ESPVector(n=3, values=(1.0, 0.25))
    assert esp[0] == 1.0
    assert esp[4] == 0.0  # beyond n
    with pytest.raises(OrderOutOfRangeError):
        esp[3]  # within n but not computed

import numpy as np
import pytest

from espent import (
    DimensionMismatchError,
    NormError,
    ZeroStateError,
    gram_matrix,
    projected_states,
    random_haar_state,
    reduced_density_matrix,
    schmidt_spectrum,
    spectrum,
    validate_state,
)
from conftest import random_bell, random_product_state


def test_validate_bell_state(bell_state):
    assert bell_state.n == 2 and bell_state.d == 2
    assert abs(bell_state.norm - 1.0) < 1e-12


def test_validate_trivial_state():
    s = validate_state([[1.0]])
    assert s.n == 1 and s.d == 1


def test_validate_zero_matrix_rejected():
    with pytest.raises(ZeroStateError):
        validate_state(np.zeros((2, 2)))


def test_validate_norm_window():
    raw = 0.98 * np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(NormError):
        validate_state(raw)
    s = validate_state(raw, renormalize=True)
    assert abs(s.norm - 1.0) < 1e-12
    assert abs(s.renorm_factor - 1.0 / 0.98) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("renormalize", [False, True])
def test_validate_rejects_non_finite(bad, renormalize):
    raw = np.array([[0.5**0.5, 0.0], [0.0, 0.5**0.5]], dtype=complex)
    raw[1, 0] = bad
    with pytest.raises(NormError):
        validate_state(raw, renormalize=renormalize)


def test_validate_dimension_errors():
    with pytest.raises(DimensionMismatchError):
        validate_state(np.ones(3))


def test_projected_states_bell(bell_state):
    fam = projected_states(bell_state, side="M")
    np.testing.assert_allclose(fam[0], [2**-0.5, 0.0], atol=1e-15)
    np.testing.assert_allclose(fam[1], [0.0, 2**-0.5], atol=1e-15)


def test_projected_states_product_parallel():
    s = random_product_state(3, 4, seed=1)
    fam = projected_states(s, side="M")
    # all projected vectors proportional to the same environment vector
    ref = fam[np.argmax([np.linalg.norm(v) for v in fam])]
    for v in fam:
        overlap = abs(np.vdot(ref, v))
        assert abs(overlap - np.linalg.norm(ref) * np.linalg.norm(v)) < 1e-12


def test_projected_norms_sum_to_one():
    s = random_haar_state(3, 4, seed=7)
    fam = projected_states(s, side="M")
    total = sum(np.vdot(v, v).real for v in fam)
    assert abs(total - 1.0) < 1e-10


def test_rdm_bell_maximally_mixed(bell_state):
    rho = reduced_density_matrix(bell_state, side="M")
    np.testing.assert_allclose(rho.matrix, 0.5 * np.eye(2), atol=1e-14)


def test_rdm_product_state_pure():
    s = random_product_state(3, 3, seed=2)
    rho = reduced_density_matrix(s, side="M")
    purity = np.trace(rho.matrix @ rho.matrix).real
    assert abs(purity - 1.0) < 1e-10


def test_rdm_sides_share_nonzero_spectrum():
    s = random_haar_state(4, 6, seed=3)
    lam_m = spectrum(reduced_density_matrix(s, side="M")).eigenvalues
    lam_r = spectrum(reduced_density_matrix(s, side="R")).eigenvalues
    # eigenvalues of rho_R are those of rho_M padded with zeros
    assert np.allclose(lam_r[:4], lam_m, atol=1e-9)
    assert np.allclose(lam_r[4:], 0.0, atol=1e-12)


def test_gram_matrix_equals_rdm_convention():
    s = random_haar_state(5, 7, seed=4)
    g = gram_matrix(projected_states(s, side="M"))
    rho = reduced_density_matrix(s, side="M")
    np.testing.assert_allclose(g, rho.matrix, atol=1e-12)


def test_gram_matrix_hermitian_trace_one():
    g = gram_matrix(projected_states(random_haar_state(4, 5, seed=5)))
    np.testing.assert_allclose(g, g.conj().T, atol=1e-14)
    assert abs(np.trace(g).real - 1.0) < 1e-10


def test_gram_orthogonal_equal_norm_family():
    v = np.eye(3) / np.sqrt(3.0)
    s = validate_state(v)
    g = gram_matrix(projected_states(s))
    np.testing.assert_allclose(g, np.eye(3) / 3.0, atol=1e-14)


def test_spectrum_examples(bell_state):
    lam = spectrum(reduced_density_matrix(bell_state)).eigenvalues
    assert lam == pytest.approx((0.5, 0.5), abs=1e-12)
    s = random_product_state(4, 4, seed=6)
    lam = spectrum(reduced_density_matrix(s)).eigenvalues
    assert lam[0] == pytest.approx(1.0, abs=1e-10)
    assert all(abs(v) < 1e-10 for v in lam[1:])


def test_spectrum_matches_svd_oracle():
    s = random_haar_state(5, 5, seed=8)
    lam = spectrum(reduced_density_matrix(s)).eigenvalues
    sv = np.sort(np.linalg.svd(s.amplitudes, compute_uv=False) ** 2)[::-1]
    np.testing.assert_allclose(lam, sv, atol=1e-10)
    np.testing.assert_allclose(lam, schmidt_spectrum(s).eigenvalues, atol=1e-10)


def test_spectrum_sorted_and_normalized():
    for seed in range(5):
        lam = spectrum(reduced_density_matrix(random_haar_state(6, 3, seed))).eigenvalues
        assert abs(sum(lam) - 1.0) < 1e-10
        assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
        assert all(v >= 0.0 for v in lam)


def test_random_haar_state_deterministic():
    a = random_haar_state(3, 4, seed=42)
    b = random_haar_state(3, 4, seed=42)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

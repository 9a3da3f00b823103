import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import espent
from espent import (
    DimensionMismatchError,
    IndefiniteMatrixError,
    NormError,
    PureBipartiteState,
    Spectrum,
    ZeroStateError,
    gram_matrix,
    projected_states,
    random_haar_state,
    reduced_density_matrix,
    schmidt_spectrum,
    spectrum,
    validate_state,
)
from espent.states import ReducedDensityMatrix, eigvalsh_spectra
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


@pytest.mark.parametrize("big", [1.35e154, complex(0.0, -1e300)])
@pytest.mark.parametrize("renormalize", [False, True])
def test_validate_rejects_norm_overflow(big, renormalize):
    # |psi|^2 overflows to inf, and renormalizing by 1/inf would zero the state.
    raw = np.array([[big, 0.0], [0.0, big]], dtype=complex)
    with pytest.raises(NormError, match="overflows"):
        validate_state(raw, renormalize=renormalize)
    s = validate_state(np.eye(2) * 1e150, renormalize=True)
    assert abs(s.norm - 1.0) < 1e-12


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


def test_spectrum_rank_counts_the_nonzero_head():
    # The nonzero eigenvalues come first; every consumer reads eigenvalues[:rank].
    assert schmidt_spectrum(random_haar_state(5, 5, seed=1)).rank == 5
    padded = schmidt_spectrum(random_haar_state(7, 3, seed=1))
    assert padded.rank == 3 and padded.eigenvalues[3:] == (0.0,) * 4
    assert Spectrum(eigenvalues=(0.5, 0.5, 0.0, -0.0)).rank == 2
    basis = np.zeros((3, 2))
    basis[1, 0] = 1.0
    pure = schmidt_spectrum(validate_state(basis))
    assert pure.rank == 1 and pure.eigenvalues == (1.0, 0.0, 0.0)


def test_random_haar_state_deterministic():
    a = random_haar_state(3, 4, seed=42)
    b = random_haar_state(3, 4, seed=42)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "matrix, error",
    [
        ([[0.5, NAN], [NAN, 0.5]], ValueError),
        ([[NAN, 0.0], [0.0, 0.5]], ValueError),
        ([[INF, 0.0], [0.0, 0.5]], ValueError),
        ([[0.5, -INF], [-INF, 0.5]], ValueError),
        ([[0.5, INF], [-INF, 0.5]], ValueError),
        ([[0.5, 1e-11], [0.0, 0.5]], IndefiniteMatrixError),
        ([[0.5, 1e-13], [0.0, 0.5]], None),
        ([[0.5, 0.1j], [-0.1j, 0.5]], None),
        ([[0.5, 0.1j], [0.1j, 0.5]], IndefiniteMatrixError),
    ],
)
def test_hermitian_check_verdicts(matrix, error):
    # Hermitian means np.allclose(m, m^dagger, atol=1e-12, rtol=0).  A NaN or
    # infinite entry is refused first, as non-finite, whatever the Hermitian
    # and trace checks would say of it.
    m = np.array(matrix, dtype=complex)
    if np.isfinite(m).all():
        assert (error is IndefiniteMatrixError) != np.allclose(m, m.conj().T, atol=1e-12, rtol=0.0)
    else:
        assert error is ValueError
    if error is None:
        ReducedDensityMatrix(dim=2, matrix=m)
    else:
        with pytest.raises(error) as info:
            ReducedDensityMatrix(dim=2, matrix=m)
        assert type(info.value) is error


def test_nan_entry_is_refused_as_non_finite_not_as_non_hermitian():
    # NaN != NaN, so the Hermitian check alone would call it "not Hermitian"
    m = np.array([[0.5, NAN], [NAN, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="NaN or infinite") as info:
        ReducedDensityMatrix(dim=2, matrix=m)
    assert type(info.value) is ValueError


def test_infinite_diagonal_is_refused_as_non_finite_not_as_a_bad_trace():
    # The trace check alone would report "trace inf is not 1"
    m = np.array([[INF, 0.0], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="NaN or infinite") as info:
        ReducedDensityMatrix(dim=2, matrix=m)
    assert type(info.value) is ValueError


def test_eigvalsh_spectra_clamps_and_normalizes():
    good = np.eye(2, dtype=complex) / 2.0
    with pytest.raises(IndefiniteMatrixError, match="eigenvalue"):
        eigvalsh_spectra(np.array([good, [[0.5, 0.6], [0.6, 0.5]]]))
    assert eigvalsh_spectra(np.array([good, good])).tolist() == [[0.5, 0.5]] * 2
    # Eigenvalues 1 + 1e-12 and -1e-12: the negative one is clamped to 0
    near = 0.5 + 1e-12
    assert eigvalsh_spectra(np.array([[[0.5, near], [near, 0.5]]])).tolist() == [[1.0, 0.0]]


@pytest.mark.parametrize(
    "amplitudes",
    [
        [[NAN, 0.0], [0.0, 1.0]],
        [[INF, 0.0], [0.0, 0.0]],
        [[0.0, -INF], [0.0, 0.0]],
        [[complex(0.0, INF), 0.0], [0.0, 0.0]],
        np.eye(2),
        np.eye(2) / np.sqrt(2.0) * (1.0 + 1e-10),
        [[1e200, 0.0], [0.0, 0.0]],
    ],
)
def test_state_type_refuses_non_finite_or_unnormalized_amplitudes(amplitudes):
    # analyze and fermionic_encoding_probability never see such a state
    with pytest.raises(NormError):
        PureBipartiteState(n=2, d=2, amplitudes=np.array(amplitudes, dtype=complex))
    state = PureBipartiteState(n=2, d=2, amplitudes=np.eye(2) / np.sqrt(2.0) * (1.0 + 1e-12))
    assert state.renorm_factor == 1.0


@pytest.mark.parametrize("n, d", [(2, 256), (4, 128), (2048, 2)])
def test_r_factor_route_keeps_small_schmidt_values_of_near_product_states(monkeypatch, n, d):
    # Elongated states take the SVD of psi's R factor.  Householder QR is backward
    # stable, so sigma_min stays within ~eps * sigma_max: lambda_min = sigma_min^2 within
    # ~eps * sqrt(lambda_min).  The reference is the smaller side's Gram at 60 digits.
    mpmath = pytest.importorskip("mpmath")
    calls, qr = [], np.linalg.qr

    def spy(a, mode):
        calls.append((a.shape, mode))
        return qr(a, mode)

    monkeypatch.setattr(np.linalg, "qr", spy)
    rng = np.random.default_rng(3)
    gauss = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    u, v, z = gauss(n), gauss(d), gauss(n, d)
    worst = 0.0
    with mpmath.workdps(60):
        for eps in [10.0**-k for k in range(2, 15, 2)]:
            state = validate_state(np.outer(u, v) + eps * z, renormalize=True)
            lam = schmidt_spectrum(state).eigenvalues[min(n, d) - 1]
            psi = state.amplitudes if n <= d else state.amplitudes.T
            rows = [[mpmath.mpc(complex(x)) for x in row] for row in psi]
            gram = mpmath.matrix(
                [[mpmath.fsum(x * mpmath.conj(y) for x, y in zip(a, b)) for b in rows] for a in rows]
            )
            ref = mpmath.eighe(gram, eigvals_only=True)
            exact = min(ref) / mpmath.fsum(ref)
            worst = max(worst, float(abs(lam - exact) / mpmath.sqrt(exact)))
    assert calls == [((1, max(n, d), min(n, d)), "r")] * 7
    assert worst <= 1e-16


@pytest.mark.parametrize("n, d", [(1, 8), (2, 16), (64, 2), (4, 32), (1, 511)])
def test_small_elongated_states_keep_the_plain_svd(monkeypatch, n, d):
    # Below QR_MIN_SIZE amplitudes the QR call costs more than it saves.
    monkeypatch.setattr(np.linalg, "qr", lambda *args, **kwargs: pytest.fail("took the QR"))
    assert len(schmidt_spectrum(random_haar_state(n, d, 1))) == n


def test_random_state_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # validate_state's norm is summed by einsum: a BLAS dot sums 2 x 128^2 squares in
    # an order set by the thread count, which changed every amplitude's last bits.
    src = str(Path(espent.__file__).resolve().parents[1])
    files = []
    for threads in ("1", "2"):
        files.append(tmp_path / f"threads-{threads}.json")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        cmd = ["random", "--n", "128", "--d", "128", "--seed", "1", "-o", str(files[-1])]
        subprocess.run([sys.executable, "-m", "espent.cli", *cmd], env=env, check=True)
    assert files[0].read_bytes() == files[1].read_bytes()

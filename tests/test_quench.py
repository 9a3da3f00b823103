import numpy as np
import pytest

from espent import (
    AnalysisOptions,
    InvalidCutError,
    QuenchConfig,
    TooLargeError,
    build_hamiltonian,
    quench_trajectory,
)
from espent.quench import initial_product_state

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def kron_hamiltonian(cfg):
    """Reference Hamiltonian: each term is kron(I, op, I) over Pauli matrices."""
    L = cfg.length

    def embed(op, site):
        span = op.shape[0].bit_length() - 1
        return np.kron(np.kron(np.eye(2**site), op), np.eye(2 ** (L - site - span)))

    J = cfg.coupling
    if cfg.model == "tfi":
        bond = -J * np.kron(_Z, _Z)
        fields = [embed(-cfg.field_strength * _X, i) for i in range(L)]
    else:
        bond = J * (np.kron(_X, _X) + np.kron(_Y, _Y) + cfg.anisotropy * np.kron(_Z, _Z))
        fields = []
    return sum(embed(bond, i) for i in range(L - 1)) + sum(fields)


# Non-default couplings: Delta < 0, h = 0, J < 0
COUPLINGS = [(0.7, 1.3, -0.4), (-1.1, 0.0, 2.5)]


def test_config_validation():
    with pytest.raises(TooLargeError):
        QuenchConfig(model="tfi", length=13, cut=2, tmax=1.0, steps=2)
    with pytest.raises(InvalidCutError):
        QuenchConfig(model="tfi", length=6, cut=6, tmax=1.0, steps=2)
    with pytest.raises(ValueError):
        QuenchConfig(model="bogus", length=4, cut=2, tmax=1.0, steps=2)


def test_hamiltonian_hermitian():
    for model in ("tfi", "xxz"):
        cfg = QuenchConfig(model=model, length=4, cut=2, tmax=1.0, steps=2)
        h = build_hamiltonian(cfg)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-14)


@pytest.mark.parametrize("length", range(2, 9))
@pytest.mark.parametrize("model", ["tfi", "xxz"])
@pytest.mark.parametrize("coupling, field_strength, anisotropy", COUPLINGS)
def test_hamiltonian_matches_kron_reference(length, model, coupling, field_strength, anisotropy):
    cfg = QuenchConfig(
        model=model, length=length, cut=1, tmax=1.0, steps=1, coupling=coupling,
        field_strength=field_strength, anisotropy=anisotropy,
    )
    h = build_hamiltonian(cfg)
    assert h.dtype == np.float64
    np.testing.assert_allclose(h, kron_hamiltonian(cfg), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("model", ["tfi", "xxz"])
def test_trajectory_matches_kron_reference_evolution(model):
    cfg = QuenchConfig(
        model=model, length=8, cut=3, tmax=1.5, steps=3, coupling=0.7,
        field_strength=1.3, anisotropy=-0.4,
    )
    traj = quench_trajectory(cfg, AnalysisOptions(r_max=2))
    evals, evecs = np.linalg.eigh(kron_hamiltonian(cfg))
    psi0 = np.zeros(2**8)
    psi0[0 if model == "tfi" else 0b01010101] = 1.0
    coeffs = evecs.conj().T @ psi0
    for t, report in traj:
        psi = evecs @ (np.exp(-1j * evals * t) * coeffs)
        spec = np.linalg.svd(psi.reshape(8, 32), compute_uv=False) ** 2
        # np.poly gives prod (x - p) = sum_k (-1)^k e_k x^(n-k)
        esp = np.poly(spec)[1:] * (-1.0) ** np.arange(1, 9)
        np.testing.assert_allclose(report.spectrum, spec, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(report.esp, esp, rtol=0.0, atol=1e-10)
        p = spec[spec > 0.0]
        assert report.entropies["von_neumann_direct"] == pytest.approx(
            -np.sum(p * np.log(p)), abs=1e-10
        )


def test_initial_states():
    cfg = QuenchConfig(model="tfi", length=4, cut=2, tmax=1.0, steps=2)
    psi = initial_product_state(cfg)
    assert psi[0] == 1.0 and np.linalg.norm(psi) == 1.0
    cfg = QuenchConfig(model="xxz", length=4, cut=2, tmax=1.0, steps=2)
    psi = initial_product_state(cfg)
    assert psi[int("0101", 2)] == 1.0


def test_product_initial_state_has_zero_entropy():
    cfg = QuenchConfig(model="tfi", length=5, cut=2, tmax=0.5, steps=2)
    traj = quench_trajectory(cfg, AnalysisOptions(r_max=3))
    t0, report = traj[0]
    assert t0 == 0.0
    assert report.entropies["von_neumann_direct"] == pytest.approx(0.0, abs=1e-10)
    for v in report.entropies["s_r"].values():
        assert v == pytest.approx(0.0, abs=1e-10)


def test_zero_field_conserves_initial_entropies():
    # |up...up> is a Z-basis product state; with h=0 the TFI Hamiltonian is
    # diagonal in Z, so the state only picks up a phase
    cfg = QuenchConfig(
        model="tfi", length=4, cut=2, tmax=2.0, steps=4, field_strength=0.0
    )
    traj = quench_trajectory(cfg, AnalysisOptions(r_max=2))
    for _, report in traj:
        assert report.entropies["von_neumann_direct"] == pytest.approx(0.0, abs=1e-10)


def test_quench_ladder_and_growth():
    cfg = QuenchConfig(model="tfi", length=6, cut=2, tmax=0.8, steps=8)
    opts = AnalysisOptions(r_max=4)
    traj = quench_trajectory(cfg, opts)
    svn = [rep.entropies["von_neumann_direct"] for _, rep in traj]
    # entanglement grows from zero at early times
    assert svn[0] == pytest.approx(0.0, abs=1e-10)
    assert svn[-1] > 0.01
    for _, rep in traj:
        s_r = rep.entropies["s_r"]
        for r in range(2, 4):
            assert s_r[str(r)] <= s_r[str(r + 1)] + 1e-4
        assert s_r["4"] == pytest.approx(rep.entropies["von_neumann_direct"], abs=1e-4)


def test_xxz_neel_quench_runs():
    cfg = QuenchConfig(model="xxz", length=4, cut=2, tmax=0.5, steps=3)
    traj = quench_trajectory(cfg, AnalysisOptions(r_max=2))
    assert len(traj) == 4
    assert traj[-1][1].entropies["von_neumann_direct"] > 0.0

"""Pure bipartite states, projected states, reduced density matrices, spectra.

A pure state of an n-dimensional subsystem M coupled to a d-dimensional
subsystem R is stored as its amplitude matrix psi with entry (j, i) the
coefficient of |j> ⊗ |i>.  Everything downstream (Gram matrices, minors,
symmetric-polynomial measures) is built on top of these values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndefiniteMatrixError,
    NormError,
    ZeroStateError,
)

NORM_TOL = 1e-6
ZERO_NORM_TOL = 1e-12
EIG_CLAMP_TOL = 1e-10


@dataclass(frozen=True)
class PureBipartiteState:
    """Normalized pure state of an n x d bipartite system."""

    n: int
    d: int
    amplitudes: np.ndarray
    renorm_factor: float = 1.0

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.n, self.d):
            raise DimensionMismatchError(
                f"amplitudes shape {amps.shape} does not match (n, d)=({self.n}, {self.d})"
            )
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class ReducedDensityMatrix:
    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"matrix shape {m.shape} does not match dim {self.dim}"
            )
        if not np.allclose(m, m.conj().T, atol=1e-12, rtol=0.0):
            raise IndefiniteMatrixError("reduced density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-10:
            raise NormError(f"trace {np.trace(m).real} is not 1")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a reduced density matrix, sorted non-increasing."""

    eigenvalues: tuple[float, ...] = field()

    def __post_init__(self):
        vals = tuple(float(v) for v in self.eigenvalues)
        if any(v < 0.0 for v in vals):
            raise IndefiniteMatrixError("spectrum has a negative entry")
        if abs(sum(vals) - 1.0) > 1e-10:
            raise NormError(f"spectrum sums to {sum(vals)}, expected 1")
        if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
            raise ValueError("spectrum must be sorted non-increasing")
        object.__setattr__(self, "eigenvalues", vals)

    def __len__(self) -> int:
        return len(self.eigenvalues)


def validate_state(raw, renormalize: bool = False) -> PureBipartiteState:
    """Turn a raw complex matrix into a validated PureBipartiteState.

    The global norm must be within NORM_TOL of 1 unless ``renormalize`` is
    set, in which case the state is rescaled and the applied factor recorded
    on the returned object.  NaN or infinite amplitudes raise NormError.
    """
    raw = np.asarray(raw, dtype=complex)
    if raw.ndim != 2 or raw.size == 0:
        raise DimensionMismatchError(f"expected a nonempty 2-d matrix, got shape {raw.shape}")
    if not np.isfinite(raw).all():
        raise NormError("state has a NaN or infinite amplitude")
    norm = float(np.linalg.norm(raw))
    if norm < ZERO_NORM_TOL:
        raise ZeroStateError(f"state norm {norm} below {ZERO_NORM_TOL}")
    factor = 1.0
    if abs(norm - 1.0) > NORM_TOL:
        if not renormalize:
            raise NormError(
                f"state norm {norm} outside [1-{NORM_TOL}, 1+{NORM_TOL}]; "
                "pass renormalize=True to rescale"
            )
        factor = 1.0 / norm
        raw = raw * factor
    elif abs(norm - 1.0) > 1e-12:
        # Inside the window but off unit norm: snap.  Deviations below
        # 1e-12 are left untouched so canonical files round-trip bitwise.
        factor = 1.0 / norm
        raw = raw * factor
    n, d = raw.shape
    return PureBipartiteState(n=n, d=d, amplitudes=raw, renorm_factor=factor)


def projected_states(state: PureBipartiteState, side: str = "M") -> np.ndarray:
    """Read-only matrix whose rows are the projected (unnormalized) states.

    side='M' gives the n rows |j psi> (the amplitude matrix itself);
    side='R' gives the d columns of psi as rows (its transpose).
    """
    if side == "M":
        return state.amplitudes
    if side == "R":
        return state.amplitudes.T
    raise ValueError(f"side must be 'M' or 'R', got {side!r}")


def gram_matrix(v: np.ndarray) -> np.ndarray:
    """Matrix of pairwise inner products of the rows of v.

    Convention: G[a, b] = <v_b | v_a>, i.e. G = V V^dagger, so that the Gram
    matrix of the projected states coincides elementwise with the reduced
    density matrix of the same side.  This is the conjugate transpose of the
    textbook Gram matrix; being Hermitian, it has the same principal minors
    and determinant.  Symmetrized so that Hermiticity holds exactly.
    """
    g = v @ v.conj().T
    return 0.5 * (g + g.conj().T)


def reduced_density_matrix(state: PureBipartiteState, side: str = "M") -> ReducedDensityMatrix:
    """Partial trace over the complementary subsystem.

    Convention: (rho_M)_{j1, j2} = sum_i psi_{j1, i} conj(psi_{j2, i}),
    i.e. rho_M = psi psi^dagger, the Gram matrix of the projected states.
    """
    rho = gram_matrix(projected_states(state, side))
    return ReducedDensityMatrix(dim=rho.shape[0], matrix=rho)


def spectrum(rho: ReducedDensityMatrix) -> Spectrum:
    """Eigenvalues of rho, clamped, renormalized, sorted descending.

    Eigenvalues in [-EIG_CLAMP_TOL, 0) are set to zero (floating-point PSD
    violation); anything more negative raises IndefiniteMatrixError.
    """
    vals = np.linalg.eigvalsh(rho.matrix)
    if vals.min() < -EIG_CLAMP_TOL:
        raise IndefiniteMatrixError(f"eigenvalue {vals.min()} below -{EIG_CLAMP_TOL}")
    vals = np.clip(vals, 0.0, None)
    vals = vals / vals.sum()
    vals = np.sort(vals)[::-1]
    return Spectrum(eigenvalues=tuple(float(v) for v in vals))


def schmidt_spectrum(state: PureBipartiteState) -> Spectrum:
    """Squared singular values of the amplitude matrix (padded to length n)."""
    s = np.linalg.svd(state.amplitudes, compute_uv=False)
    lam = np.zeros(state.n)
    lam[: s.shape[0]] = s**2
    lam = np.clip(lam, 0.0, None)
    lam /= lam.sum()
    lam = np.sort(lam)[::-1]
    return Spectrum(eigenvalues=tuple(float(v) for v in lam))


def random_haar_state(n: int, d: int, seed: int) -> PureBipartiteState:
    """Haar-induced random pure state: iid complex Gaussians, normalized."""
    if n < 1 or d < 1:
        raise DimensionMismatchError("n and d must be >= 1")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return validate_state(raw, renormalize=True)

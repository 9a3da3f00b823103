"""Pure bipartite states, projected states, reduced density matrices, spectra.

A pure state of an n-dimensional subsystem M coupled to a d-dimensional
subsystem R is stored as its amplitude matrix psi with entry (j, i) the
coefficient of |j> ⊗ |i>.  Everything downstream (Gram matrices, minors,
symmetric-polynomial measures) is built on top of these values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndefiniteMatrixError,
    InvalidOptionError,
    NormError,
    TooLargeError,
    ZeroStateError,
)

NORM_TOL = 1e-6
ZERO_NORM_TOL = 1e-12
EIG_CLAMP_TOL = 1e-10
# Most amplitudes a state, a state file or a quench's kets may hold: 2^24, 256 MiB as complex.
# espent analyze of a 2^20-amplitude file takes 1.45 s and 120 MB child RSS as schema 3, and
# 2.05 s and 171 MB as schema 2 (one BLAS thread, 2-core Xeon); 2^24 is not measured.
MAX_AMPLITUDES = 1 << 24
# From this aspect ratio and this many amplitudes per state on, the SVD of psi's R factor
# is cheaper than psi's own: np.linalg.qr adds about 10 us a call, which a batch shares.
# Only the state's shape decides, so a state in a batch gets the bits it gets alone.
QR_RATIO, QR_MIN_SIZE = 8, 512


@dataclass(frozen=True)
class PureBipartiteState:
    """Normalized pure state of an n x d bipartite system.

    Built only from finite amplitudes of squared norm within 1e-10 of 1
    (NormError otherwise), so everything downstream may rely on that;
    validate_stack's states, whose norms it has checked, skip the checks.
    """

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
        if not np.isfinite(amps).all():
            raise NormError("state has a NaN or infinite amplitude")
        norm2 = np.vdot(amps, amps).real
        if abs(norm2 - 1.0) > 1e-10:
            raise NormError(f"state has squared norm {norm2}, expected 1")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_checked(cls, amplitudes: np.ndarray, renorm_factor: float) -> PureBipartiteState:
        """A state of read-only amplitudes that validate_stack has passed, not checked again."""
        state = object.__new__(cls)
        n, d = amplitudes.shape
        state.__dict__.update(n=n, d=d, amplitudes=amplitudes, renorm_factor=renorm_factor)
        return state

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
        if not np.isfinite(m).all():
            raise ValueError("reduced density matrix has a NaN or infinite entry")
        if not np.allclose(m, m.conj().T, atol=1e-12, rtol=0.0):
            raise IndefiniteMatrixError("reduced density matrix is not Hermitian")
        trace = np.trace(m).real
        if abs(trace - 1.0) > 1e-10:
            raise NormError(f"trace {trace} is not 1")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a reduced density matrix, sorted non-increasing.

    rank is the number of nonzero eigenvalues, which come first: the
    consumers read eigenvalues[:rank] and skip the exact zeros.
    """

    eigenvalues: tuple[float, ...] = field()
    rank: int = field(init=False)

    def __post_init__(self):
        vals = tuple(map(float, self.eigenvalues))
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "rank", spectra_ranks(np.array(vals).reshape(1, -1))[0])

    def __len__(self) -> int:
        return len(self.eigenvalues)


def spectra_ranks(lam: np.ndarray) -> list[int]:
    """Spectrum's checks on a (B, n) stack; returns each rank, its count of nonzeros."""
    totals = lam.sum(axis=1).tolist()
    ok = lam.min(initial=0.0) >= 0.0 and not (lam[:, 1:] > lam[:, :-1]).any()
    if ok and all(abs(t - 1.0) <= 1e-10 for t in totals):  # NaN and inf fail min or trace
        return (lam > 0.0).sum(axis=1).tolist()
    if not np.isfinite(lam).all():
        raise ValueError("spectrum has a NaN or infinite entry")
    if (lam < 0.0).any():
        raise IndefiniteMatrixError("spectrum has a negative entry")
    if off := [i for i, t in enumerate(totals) if abs(t - 1.0) > 1e-10]:
        raise NormError(f"spectrum sums to {sum(lam[off[0]].tolist())}, expected 1")
    raise ValueError("spectrum must be sorted non-increasing")


def validate_state(raw, renormalize: bool = False) -> PureBipartiteState:
    """Turn a raw complex matrix into a validated PureBipartiteState.

    The global norm must be within NORM_TOL of 1 unless ``renormalize`` is
    set, in which case the state is rescaled and the applied factor recorded
    on the returned object.  A norm too large for a float raises NormError,
    and so does a NaN or infinite amplitude.  This is validate_stack on a
    stack of one.
    """
    raw = np.asarray(raw, dtype=complex)
    if raw.ndim != 2 or raw.size == 0:
        raise DimensionMismatchError(f"expected a nonempty 2-d matrix, got shape {raw.shape}")
    return validate_stack(raw[None], renormalize)[0]


def validate_stack(raw, renormalize: bool = False, name=None) -> list[PureBipartiteState]:
    """validate_state on each matrix of a nonempty (B, n, d) stack, in one pass.

    One einsum takes every norm; a NaN amplitude makes its matrix's norm NaN
    and an infinite one inf, so the norms alone decide finiteness, and the
    states are built without the constructor's second norm.  The first
    refused matrix raises validate_state's error.  ``name(i)``, if given,
    names matrix i in the refusal, which then offers no rescale: for callers
    whose states must not be rescaled into plausible numbers.
    """
    amps = np.array(raw, dtype=complex, order="C")  # the states' own copy
    parts = amps.view(float).reshape(len(amps), -1)  # einsum, not a BLAS dot: its order
    with np.errstate(over="ignore"):                 # does not follow the thread count
        norms = np.sqrt(np.einsum("bi,bi->b", parts, parts)).tolist()
    factors = []
    for i, norm in enumerate(norms):  # a NaN norm fails both tests
        if not (ZERO_NORM_TOL <= norm < math.inf if renormalize else abs(norm - 1.0) <= NORM_TOL):
            _refuse(norm, "" if name is None else f" at {name(i)}")
        factor = 1.0
        if abs(norm - 1.0) > 1e-12:
            # Rescale; deviations below 1e-12 are left untouched so canonical
            # files round-trip bitwise.
            factor = 1.0 / norm
            amps[i] *= factor
        factors.append(factor)
    amps.flags.writeable = False
    return [PureBipartiteState.from_checked(a, f) for a, f in zip(amps, factors)]


def _refuse(norm: float, where: str):
    """Raise validate_state's error for a refused norm; a named matrix gets no rescale hint."""
    if math.isnan(norm):
        raise NormError(f"state has a NaN or infinite amplitude{where}")
    if norm == math.inf:  # an infinite amplitude, or ones above ~1e154 that rescaling would zero
        raise NormError(
            f"state norm{where} overflows a float (an amplitude is infinite or too large)"
        )
    if norm < ZERO_NORM_TOL:
        raise ZeroStateError(f"state norm {norm}{where} below {ZERO_NORM_TOL}")
    raise NormError(
        f"state norm {norm}{where} outside [1-{NORM_TOL}, 1+{NORM_TOL}]"
        + ("" if where else "; pass renormalize=True to rescale")
    )


def gram_matrix(v: np.ndarray) -> np.ndarray:
    """Matrix of pairwise inner products of the rows of v, or a stack of them.

    Convention: G[a, b] = <v_b | v_a>, i.e. G = V V^dagger, so that the Gram
    matrix of the projected states coincides elementwise with the reduced
    density matrix of the same side.  This is the conjugate transpose of the
    textbook Gram matrix; being Hermitian, it has the same principal minors
    and determinant.  Symmetrized so that Hermiticity holds exactly.
    """
    g = v @ v.conj().swapaxes(-1, -2)
    return 0.5 * (g + g.conj().swapaxes(-1, -2))


def reduced_density_matrix(state: PureBipartiteState, side: str = "M") -> ReducedDensityMatrix:
    """Partial trace over the complementary subsystem.

    Convention: (rho_M)_{j1, j2} = sum_i psi_{j1, i} conj(psi_{j2, i}),
    i.e. rho_M = psi psi^dagger, the Gram matrix of the projected states |j psi>,
    the rows of psi; side='R' takes the columns of psi as the rows.
    """
    if side not in ("M", "R"):
        raise ValueError(f"side must be 'M' or 'R', got {side!r}")
    rho = gram_matrix(state.amplitudes if side == "M" else state.amplitudes.T)
    return ReducedDensityMatrix(dim=rho.shape[0], matrix=rho)


def spectrum(rho: ReducedDensityMatrix) -> Spectrum:
    """Eigenvalues of rho, clamped, renormalized, sorted descending."""
    return Spectrum(eigenvalues=eigvalsh_spectra(rho.matrix[None])[0])


def eigvalsh_spectra(rho: np.ndarray) -> np.ndarray:
    """spectrum's route on a (B, n, n) stack of Grams of valid states or checked matrices.
    Eigenvalues in [-EIG_CLAMP_TOL, 0) become 0; anything lower raises IndefiniteMatrixError."""
    vals = np.linalg.eigvalsh(rho)
    if vals.min() < -EIG_CLAMP_TOL:
        raise IndefiniteMatrixError(f"eigenvalue {vals.min()} below -{EIG_CLAMP_TOL}")
    vals = np.maximum(vals, 0.0)  # np.clip's bits, without its wrapper's cost
    return (vals / vals.sum(axis=1, keepdims=True))[:, ::-1]  # eigvalsh ascends


def schmidt_spectrum(state: PureBipartiteState) -> Spectrum:
    """Squared singular values of the amplitude matrix (padded to length n)."""
    return Spectrum(eigenvalues=schmidt_spectra(state.amplitudes[None])[0])


def schmidt_spectra(amps: np.ndarray) -> np.ndarray:
    """schmidt_spectrum's route on a (B, n, d) stack, one svd call: of the R factors of the
    long-side-first matrices (Chan's R-SVD, ACM TOMS 8, 72 (1982)) past QR_RATIO, QR_MIN_SIZE."""
    B, n, d = amps.shape
    if max(n, d) >= QR_RATIO * min(n, d) and n * d >= QR_MIN_SIZE:
        amps = np.linalg.qr(amps if n > d else amps.swapaxes(1, 2), mode="r")
    s = np.linalg.svd(amps, compute_uv=False)
    lam = np.zeros((B, n))
    lam[:, : s.shape[1]] = s**2  # svd's values are nonnegative and descending
    return lam / lam.sum(axis=1, keepdims=True)


def random_haar_state(n: int, d: int, seed: int) -> PureBipartiteState:
    """Haar-induced random pure state: iid complex Gaussians, normalized."""
    if n < 1 or d < 1:
        raise DimensionMismatchError("n and d must be >= 1")
    if n * d > MAX_AMPLITUDES:
        raise TooLargeError(f"state of {n * d} amplitudes exceeds {MAX_AMPLITUDES}")
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise InvalidOptionError(f"seed={seed}; need seed >= 0")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return validate_state(raw, renormalize=True)

"""Quench-dynamics demo: exact evolution of small spin chains.

Evolves a product state under a transverse-field Ising or XXZ chain and
runs the full analysis at each time, so the growth of the truncated
entropies can be tracked alongside the von Neumann entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCutError, InvalidOptionError, TooLargeError
from .io import MAX_AMPLITUDES
from .report import AnalysisOptions, AnalysisReport, analyze
from .states import validate_state

MAX_LENGTH = 12


@dataclass(frozen=True)
class QuenchConfig:
    model: str                     # "tfi" or "xxz"
    length: int
    cut: int                       # subsystem M = first `cut` sites
    tmax: float
    steps: int                     # number of intervals; emits steps+1 times
    coupling: float = 1.0          # J
    field_strength: float = 1.0    # h (tfi only)
    anisotropy: float = 1.0        # Delta (xxz only)
    initial: str = ""              # "up" | "neel"; default depends on model

    def __post_init__(self):
        if self.model not in ("tfi", "xxz"):
            raise InvalidOptionError(f"model must be 'tfi' or 'xxz', got {self.model!r}")
        if self.length > MAX_LENGTH:
            raise TooLargeError(f"length {self.length} exceeds {MAX_LENGTH}")
        if self.length < 2:
            raise InvalidOptionError(f"length {self.length}; need >= 2")
        if not 1 <= self.cut <= self.length - 1:
            raise InvalidCutError(f"cut {self.cut} outside 1..{self.length - 1}")
        if self.steps < 1 or not 0.0 <= self.tmax < math.inf:
            raise InvalidOptionError(
                f"steps={self.steps}, tmax={self.tmax}; need steps >= 1 and finite tmax >= 0"
            )
        if 2**self.length * (self.steps + 1) > MAX_AMPLITUDES:
            raise TooLargeError(
                f"{self.steps + 1} kets of 2^{self.length} exceed {MAX_AMPLITUDES} amplitudes"
            )
        for name in ("coupling", "field_strength", "anisotropy"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidOptionError(f"{name}={getattr(self, name)}; need a finite number")
        if self.initial == "":
            object.__setattr__(self, "initial", "up" if self.model == "tfi" else "neel")
        if self.initial not in ("up", "neel"):
            raise InvalidOptionError(f"initial must be 'up' or 'neel', got {self.initial!r}")


def build_hamiltonian(config: QuenchConfig) -> np.ndarray:
    """Dense real open-chain Hamiltonian for the configured model.

    Filled from bit operations on basis indices: site i is bit L-1-i (site 0
    is the most significant bit) and spin up is bit 0, so Z_i Z_{i+1} is
    diagonal and X_i flips one bit.  Both models are real symmetric.
    """
    L = config.length
    idx = np.arange(2**L)
    h = np.zeros((idx.size, idx.size))
    for i in range(L - 1):
        zz = 1.0 - 2.0 * (((idx >> (L - 2 - i)) ^ (idx >> (L - 1 - i))) & 1)
        if config.model == "tfi":
            # H = -J sum Z_i Z_{i+1} - h sum X_i
            h[idx, idx] -= config.coupling * zz
        else:
            # H = J sum (X_i X_{i+1} + Y_i Y_{i+1} + Delta Z_i Z_{i+1});
            # XX + YY swaps an antiparallel pair with amplitude 2
            h[idx, idx] += config.coupling * config.anisotropy * zz
            anti = idx[zz < 0.0]
            h[anti, anti ^ (3 << (L - 2 - i))] += 2.0 * config.coupling
    if config.model == "tfi":
        for i in range(L):
            h[idx, idx ^ (1 << (L - 1 - i))] -= config.field_strength
    return h


def initial_product_state(config: QuenchConfig) -> np.ndarray:
    """|up...up> or the Neel state |up down up down ...> as a full ket."""
    if config.initial == "up":
        index = 0
    else:
        index = int("".join("01"[(i % 2)] for i in range(config.length)), 2)
    psi = np.zeros(2**config.length)
    psi[index] = 1.0
    return psi


def _evolve_reached(block: np.ndarray, v0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i block t) v0 for each t, exact, as columns.

    Diagonalizes only the sub-block on the indices v0 reaches: its support,
    grown by the nonzero pattern of block until that set is invariant.
    """
    keep, reached = np.zeros(v0.size, dtype=bool), v0 != 0
    while (reached != keep).any():
        keep = reached
        reached = keep | (block[keep] != 0).any(axis=0)
    evals, evecs = np.linalg.eigh(block[np.ix_(keep, keep)])
    phases = np.exp(-1j * np.outer(evals, times)) * (evecs.T @ v0[keep])[:, None]
    out = np.zeros((v0.size, times.size), dtype=complex)
    # Two real products: a complex right factor would copy evecs to complex
    out[keep] = evecs @ phases.real + 1j * (evecs @ phases.imag)
    return out


def quench_trajectory(
    config: QuenchConfig, options: AnalysisOptions | None = None
) -> list[tuple[float, AnalysisReport]]:
    """Evolve the initial product state and analyze each time point.

    H commutes with the global spin flip F: s -> s ^ (2^L - 1) (checked;
    RuntimeError otherwise).  With lo the indices whose top bit is clear,
    A = H[lo, lo] and B = H[lo, F(lo)], H is A + B on (|s> + |Fs>)/sqrt 2
    and A - B on (|s> - |Fs>)/sqrt 2.  Each half of psi0 evolves exactly
    (no Trotter error) in its block, on the indices it reaches there.
    """
    if options is None:
        options = AnalysisOptions()
    h = build_hamiltonian(config)
    half = h.shape[0] // 2
    # F(s) = 2^L - 1 - s reverses the index order, so h[::-1, ::-1] is F H F;
    # its lo rows equal H's iff H[hi, hi] == A and H[hi, lo] == B
    if not np.array_equal(h[::-1, ::-1][:half], h[:half]):
        raise RuntimeError("the Hamiltonian does not commute with the global spin flip")
    a, b = h[:half, :half], h[:half, half:][:, ::-1]
    psi0 = initial_product_state(config)
    lo, hi = psi0[:half], psi0[::-1][:half]
    times = np.linspace(0.0, config.tmax, config.steps + 1)
    even = _evolve_reached(a + b, (lo + hi) / math.sqrt(2.0), times)
    odd = _evolve_reached(a - b, (lo - hi) / math.sqrt(2.0), times)
    kets = np.empty((2 * half, times.size), dtype=complex)
    kets[:half] = (even + odd) / math.sqrt(2.0)
    kets[::-1][:half] = (even - odd) / math.sqrt(2.0)
    n = 2**config.cut
    d = 2 ** (config.length - config.cut)
    out = []
    for t, psi_t in zip(times, kets.T):
        state = validate_state(psi_t.reshape(n, d), renormalize=True)
        out.append((float(t), analyze(state, options)))
    return out

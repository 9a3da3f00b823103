"""Entropy measures built from elementary symmetric polynomials.

The chain runs: ESPs -> higher-order purities Tr(rho^k) (Girard-Newton)
-> Taylor series for the von Neumann entropy -> truncated r-th-order
entropies that use only e_1 ... e_r.

Closed form.  The von Neumann Taylor expansion is

    S = sum_{m>=1} (1/m) Tr(rho (1 - rho)^m)
      = sum_{m>=1} (1/m) sum_{k=1}^{m+1} C(m, k-1) (-1)^(k-1) p_k,

with p_k = Tr(rho^k).  Its r-th-order truncation reads e_1 ... e_r only:
setting e_{r+1..n} = 0 turns the characteristic polynomial into
x^(n-r) q_r(x) with q_r(x) = x^r - e_1 x^(r-1) + ... + (-1)^r e_r, so the
truncated series is the same series over the r roots nu of q_r.  It sums
to S_r = -sum nu ln nu and converges iff max |1 - nu| < 1 over the nonzero
roots.  The roots come from np.roots (eigenvalues of the companion matrix)
and are certified by rebuilding q_r from them.  A literal triple-sum
evaluator with exact rational coefficients is kept as an independent
cross-check of the partial sums for small depths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice

import numpy as np

from .errors import InvalidOrderError, OrderOutOfRangeError
from .states import Spectrum
from .volumes import ESPVector

# |nu| below this is a roundoff-level zero root of q_r: it adds nothing to
# S_r and does not enter the convergence radius (bench/oracle.py agrees).
ZERO_ROOT = 1e-12
# Relative tolerance of the root certificate on e_0 ... e_m.
CERTIFY_TOL = 1e-10


@dataclass(frozen=True)
class PuritySequence:
    """p_k = Tr(rho^k) for k = 1..K."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise OrderOutOfRangeError("need at least one purity")
        if not all(map(math.isfinite, vals)):
            raise ValueError("purities hold a NaN or infinite value")
        if abs(vals[0] - 1.0) > 1e-10:
            raise ValueError(f"p_1 = {vals[0]} is not 1")
        for k, v in enumerate(vals, start=1):
            if not -1e-9 <= v <= 1.0 + 1e-9:
                raise ValueError(f"p_{k} = {v} outside [0, 1]")
        for k in range(1, len(vals) - 1):
            if vals[k + 1] > vals[k] + 1e-9:
                raise ValueError(f"purities not monotone at k={k + 1}")
        object.__setattr__(self, "values", vals)

    def __getitem__(self, k: int) -> float:
        if not 1 <= k <= len(self.values):
            raise OrderOutOfRangeError(f"k={k} outside 1..{len(self.values)}")
        return self.values[k - 1]

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SeriesResult:
    """S_r from the closed form.

    terms_used is 1, the convention of every closed form; converged means
    the roots are certified and the series has radius max |1 - nu| < 1.
    """

    value: float
    terms_used: int
    converged: bool


def linear_entropy(esp: ESPVector) -> float:
    """2 e_2 = 1 - Tr(rho^2), in [0, 1 - 1/n]."""
    return 2.0 * esp[2]


def q_tilde(esp: ESPVector) -> float:
    """Second-order pairwise measure: e_2, half the linear entropy."""
    return esp[2]


def renyi_entropy(spec: Spectrum, alpha: float) -> float:
    """(1 / (1 - alpha)) ln sum_j lambda_j^alpha for alpha > 0, alpha != 1."""
    if not 0.0 < alpha < math.inf or alpha == 1.0:
        raise InvalidOrderError(f"alpha={alpha}; need finite alpha > 0 and alpha != 1")
    total = math.fsum(lam**alpha for lam in spec.eigenvalues if lam > 0.0)
    return 0.0 - math.log(total) / (alpha - 1.0)  # 0.0 - x: +0.0 for a pure state


def von_neumann_direct(spec: Spectrum) -> float:
    """-sum lambda ln lambda with 0 ln 0 = 0; the ground-truth oracle."""
    return 0.0 - math.fsum(lam * math.log(lam) for lam in spec.eigenvalues if lam > 0.0)


# ---------------------------------------------------------------------------
# Girard-Newton purities
# ---------------------------------------------------------------------------

def _partitions(k: int, max_part: int):
    """Multiplicity tuples (p_1..p_max_part) with sum l*p_l = k.

    Recursive descent over part sizes l = max_part .. 1, yielding tuples of
    (part, multiplicity) pairs with multiplicity > 0, in lexicographic order
    of the descent.
    """
    out: list[tuple[int, int]] = []

    def rec(remaining: int, l: int):
        if remaining == 0:
            yield tuple(out)
            return
        if l == 0:
            return
        for p in range(remaining // l + 1):
            if p:
                out.append((l, p))
            yield from rec(remaining - l * p, l - 1)
            if p:
                out.pop()

    yield from rec(k, max_part)


_GN_COEFF_CACHE: dict[tuple[int, tuple[tuple[int, int], ...]], Fraction] = {}


def _girard_newton_coeff(k: int, parts: tuple[tuple[int, int], ...]) -> Fraction:
    """Exact rational coefficient of the ESP monomial in p_k = Tr(rho^k)."""
    key = (k, parts)
    cached = _GN_COEFF_CACHE.get(key)
    if cached is not None:
        return cached
    count = sum(p for _, p in parts)
    denom = math.prod(math.factorial(p) for _, p in parts)
    coeff = Fraction(
        k * (-1) ** (k + count) * math.factorial(count - 1), denom
    )
    _GN_COEFF_CACHE[key] = coeff
    return coeff


def purities_from_esp(esp: ESPVector, K: int) -> PuritySequence:
    """Tr(rho^k) for k = 1..K via the Girard-Newton partition formula.

    Coefficients are exact big-integer rationals, converted to float only
    when multiplied onto the ESP monomial; terms are summed exactly
    rounded with math.fsum.
    """
    if K < 1:
        raise OrderOutOfRangeError(f"K={K} must be >= 1")
    vals = []
    for k in range(1, K + 1):
        terms = []
        for parts in _partitions(k, min(k, esp.n)):
            coeff = _girard_newton_coeff(k, parts)
            mono = math.prod(esp[l] ** p for l, p in parts)
            terms.append(float(coeff) * mono)
        vals.append(math.fsum(terms))
    return PuritySequence(values=tuple(vals))


def purities_recurrence(esp: ESPVector, K: int) -> PuritySequence:
    """Tr(rho^k) via the Newton recurrence; cross-check for the partition route.

    p_k = e_1 p_{k-1} - e_2 p_{k-2} + ... + (-1)^(k-1) k e_k  (k <= n),
    with the trailing term dropped for k > n.
    """
    if K < 1:
        raise OrderOutOfRangeError(f"K={K} must be >= 1")
    return PuritySequence(values=tuple(islice(_power_sums(esp, esp.n), 1, K + 1)))


def _power_sums(e, n: int):
    """Yield s_0 = n, s_1, s_2, ...: power sums of the n roots whose ESPs are e.

    Newton's recurrence; e[k] is read lazily for k = 1..n, so any indexable
    holding e_1..e_n (an ESPVector or an e_0..e_n list) will do.
    """
    s = [float(n)]
    yield s[0]
    for m in count(1):
        acc = math.fsum(
            (-1) ** (i - 1) * e[i] * s[m - i] for i in range(1, min(m, n + 1))
        )
        if m <= n:
            acc += (-1) ** (m - 1) * m * e[m]
        s.append(acc)
        yield acc


# ---------------------------------------------------------------------------
# Taylor series for the von Neumann entropy and its r-th-order truncations
# ---------------------------------------------------------------------------

def _truncated_e_list(esp: ESPVector, r: int) -> list[float]:
    if not 1 <= r <= esp.n:
        raise OrderOutOfRangeError(f"r={r} outside 1..{esp.n}")
    if len(esp) < r:
        raise OrderOutOfRangeError(f"need ESPs up to r={r}, have {len(esp)}")
    return [1.0] + [esp[l] for l in range(1, r + 1)]


def _q_r_roots(esp: ESPVector, r: int) -> tuple[np.ndarray, bool]:
    """The roots of q_r with |nu| >= ZERO_ROOT, and whether they are certified.

    The certificate rebuilds q_r with np.poly from all r roots, those below
    ZERO_ROOT set to 0, and asks |e^_k - e_k| <= CERTIFY_TOL |e_k| for
    k = 0..m, m the number of live roots.  The companion-matrix roots fail
    it for r >~ n/2 at n >= 24; at n >= 32 S_r there can be 1e-2 off.
    """
    coeffs = np.array([(-1) ** k * e for k, e in enumerate(_truncated_e_list(esp, r))])
    roots = np.roots(coeffs).astype(complex)
    live = np.abs(roots) >= ZERO_ROOT
    m = int(live.sum())
    rebuilt = np.poly(np.where(live, roots, 0.0))[: m + 1]
    certified = np.all(np.abs(rebuilt - coeffs[: m + 1]) <= CERTIFY_TOL * np.abs(coeffs[: m + 1]))
    return roots[live], bool(certified)


def von_neumann_series(esp: ESPVector) -> SeriesResult:
    """Von Neumann entropy from the full ESP vector: S_r at r = n."""
    return s_r_truncated(esp, esp.n)


def s_r_truncated(esp: ESPVector, r: int) -> SeriesResult:
    """r-th-order entanglement entropy: the series using only e_1 ... e_r.

    Summed in closed form, -sum nu ln nu over the roots nu of q_r; it is
    converged when the roots are certified and max |1 - nu| < 1.  At r = n
    the roots are the spectrum and this is von_neumann_series.
    """
    if r == 1:
        # (0.0 - x gives +0.0 at e_1 = 1.)
        return SeriesResult(value=0.0 - esp[1] * math.log(esp[1]), terms_used=1, converged=True)
    nu, certified = _q_r_roots(esp, r)
    value = 0.0 - math.fsum((nu * np.log(nu)).real)
    radius = float(np.max(np.abs(1.0 - nu), initial=0.0))
    return SeriesResult(value=value, terms_used=1, converged=certified and radius < 1.0)


def series_partial_sum(esp: ESPVector, r: int, depth: int) -> float:
    """Partial sum of the r-th-order series through outer term m = depth.

    sum_{m <= depth} (1/m) sum_j nu_j (1 - nu_j)^m over the roots of q_r;
    the literal evaluator below checks it at matched depth.
    """
    if depth < 1:
        raise OrderOutOfRangeError(f"depth={depth} must be >= 1")
    nu, _ = _q_r_roots(esp, r)
    m = np.arange(1, depth + 1)
    return math.fsum((nu[:, None] * (1.0 - nu[:, None]) ** m / m).real.ravel())


def series_partial_sum_literal(esp: ESPVector, r: int, depth: int) -> float:
    """Literal triple-sum evaluation of the truncated series (test oracle).

    Enumerates, for every outer index m <= depth and every k <= m + 1, all
    multiplicity tuples (p_1, ..., p_r) with sum l p_l = k (p_1 >= 0
    included explicitly), applying the exact rational coefficient

        -(1/m) k (-1)^k C(m, k-1) (sum p_l - 1)! / prod p_l!  * (-1)^(sum p_l)

    to the monomial prod e_l^(p_l).  Exponential in depth; intended for
    depth <= ~25 as an independent cross-check of series_partial_sum.
    """
    if depth < 1:
        raise OrderOutOfRangeError(f"depth={depth} must be >= 1")
    e_list = _truncated_e_list(esp, r)
    terms = []
    for m in range(1, depth + 1):
        for k in range(1, m + 2):
            binom = math.comb(m, k - 1)
            for parts in _partitions(k, min(k, r)):
                coeff = Fraction((-1) ** (k - 1) * binom, m) * _girard_newton_coeff(k, parts)
                mono = math.prod(e_list[l] ** p for l, p in parts)
                terms.append(float(coeff) * mono)
    return math.fsum(terms)

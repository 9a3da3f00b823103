"""Entropy measures built from elementary symmetric polynomials.

The chain runs: ESPs -> higher-order purities Tr(rho^k) (Girard-Newton;
analyze sums lambda^k over the spectrum instead) -> Taylor series for the
von Neumann entropy -> truncated r-th-order entropies that use only
e_1 ... e_r.

Closed form.  The von Neumann Taylor expansion is

    S = sum_{m>=1} (1/m) Tr(rho (1 - rho)^m)
      = sum_{m>=1} (1/m) sum_{k=1}^{m+1} C(m, k-1) (-1)^(k-1) p_k,

with p_k = Tr(rho^k).  Its r-th-order truncation reads e_1 ... e_r only:
setting e_{r+1..n} = 0 turns the characteristic polynomial into
x^(n-r) q_r(x) with q_r(x) = x^r - e_1 x^(r-1) + ... + (-1)^r e_r, so the
truncated series is the same series over the r roots nu of q_r.  It sums
to S_r = -sum nu ln nu and converges iff max |1 - nu| < 1 over the nonzero
roots.  The roots of every requested order come from one eigvals call on
their companion matrices, zero-padded to one stack, and are certified by
rebuilding q_r from them.  A literal triple-sum evaluator with exact
rational coefficients is kept as an independent cross-check of the
partial sums for small depths.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

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
        vals = tuple(map(float, self.values))
        if not vals:
            raise OrderOutOfRangeError("need at least one purity")
        if not all(map(math.isfinite, vals)):
            raise ValueError("purities hold a NaN or infinite value")
        if abs(vals[0] - 1.0) > 1e-10:
            raise ValueError(f"p_1 = {vals[0]} is not 1")
        # Whole-tuple checks first; the failing index is looked up only on failure.
        if min(vals) < -1e-9 or max(vals) > 1.0 + 1e-9:
            k, v = next((k, v) for k, v in enumerate(vals, 1) if not -1e-9 <= v <= 1.0 + 1e-9)
            raise ValueError(f"p_{k} = {v} outside [0, 1]")
        if any(map(operator.gt, vals[2:], map((1e-9).__add__, vals[1:-1]))):
            k = next(k for k in range(1, len(vals) - 1) if vals[k + 1] > vals[k] + 1e-9)
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
    """S_r from the closed form; converged means the roots of q_r are
    certified and the series has radius max |1 - nu| < 1."""

    value: float
    converged: bool


def linear_entropy(esp: ESPVector) -> float:
    """2 e_2 = 1 - Tr(rho^2), in [0, 1 - 1/n]."""
    return 2.0 * esp[2]


def q_tilde(esp: ESPVector) -> float:
    """Second-order pairwise measure: e_2, half the linear entropy."""
    return esp[2]


def renyi_entropy(spec: Spectrum, alpha: float) -> float:
    """(1 / (1 - alpha)) ln sum_j lambda_j^alpha: renyi_heads of one spectrum."""
    return renyi_heads([spec.eigenvalues[: spec.rank]], alpha)[0]


def renyi_heads(heads, alpha: float) -> list[float]:
    """Renyi entropy of order alpha > 0, alpha != 1, of each head (the nonzero eigenvalues
    of a checked spectrum, descending), as (alpha ln lambda_1 + ln(1 + sum_{j>1}
    (lambda_j / lambda_1)^alpha)) / (1 - alpha): no power underflows however large
    alpha is, and log1p keeps the small sums of near-pure states."""
    if not 0.0 < alpha < math.inf or alpha == 1.0:
        raise InvalidOrderError(f"alpha={alpha}; need finite alpha > 0 and alpha != 1")
    out = []
    for top, *rest in heads:
        tail = math.fsum([(x / top) ** alpha for x in rest])
        out.append(0.0 - (alpha * math.log(top) + math.log1p(tail)) / (alpha - 1.0))  # +0.0 if pure
    return out


def von_neumann_direct(spec: Spectrum) -> float:
    """-sum lambda ln lambda with 0 ln 0 = 0: von_neumann_heads of one spectrum."""
    return von_neumann_heads([spec.eigenvalues[: spec.rank]])[0]


def von_neumann_heads(heads) -> list[float]:
    """-sum lambda ln lambda, exactly rounded, of each head (nonzero eigenvalues); the
    ground-truth oracle."""
    return [0.0 - math.fsum([x * math.log(x) for x in head]) for head in heads]


# ---------------------------------------------------------------------------
# Purities: power sums, Girard-Newton partition formula, Newton recurrence
# ---------------------------------------------------------------------------

def _partitions(k: int, max_part: int):
    """Partitions of k into parts <= max_part, largest part first, each a
    tuple of (part, multiplicity) pairs with multiplicity > 0."""
    if k == 0:
        yield ()
    elif max_part:
        for p in range(k // max_part + 1):
            head = ((max_part, p),) if p else ()
            for rest in _partitions(k - max_part * p, max_part - 1):
                yield head + rest


@functools.cache
def _girard_newton_coeff(k: int, parts: tuple[tuple[int, int], ...]) -> Fraction:
    """Exact rational coefficient of the ESP monomial in p_k = Tr(rho^k)."""
    count = sum(p for _, p in parts)
    denom = math.prod(math.factorial(p) for _, p in parts)
    return Fraction(k * (-1) ** (k + count) * math.factorial(count - 1), denom)


def purities_from_esp(esp: ESPVector, K: int) -> PuritySequence:
    """Tr(rho^k) for k = 1..K via the Girard-Newton partition formula.

    Coefficients are exact big-integer rationals, converted to float only
    when multiplied onto the ESP monomial; terms are summed exactly
    rounded with math.fsum.  K < 1 gives no purity: OrderOutOfRangeError.
    """
    vals = []
    for k in range(1, K + 1):
        terms = []
        for parts in _partitions(k, min(k, esp.n)):
            coeff = _girard_newton_coeff(k, parts)
            mono = math.prod(esp[l] ** p for l, p in parts)
            terms.append(float(coeff) * mono)
        vals.append(math.fsum(terms))
    return PuritySequence(values=tuple(vals))


def purities_from_spectrum(spec: Spectrum, K: int) -> PuritySequence:
    """purity_heads of one spectrum.  K < 1 gives no purity: OrderOutOfRangeError."""
    return PuritySequence(values=tuple(purity_heads([spec.eigenvalues[: spec.rank]], K)[0]))


def purity_heads(heads, K: int) -> list[list[float]]:
    """Tr(rho^k) = sum_j lambda_j^k for k = 1..K, exactly rounded, of each head (nonzero
    eigenvalues): the route analyze uses.  One power at a time keeps memory flat up to
    MAX_K; the partition formula's cost grows exponentially in K."""
    return [[math.fsum([x**k for x in head]) for k in range(1, K + 1)] for head in heads]


def purities_recurrence(esp: ESPVector, K: int) -> PuritySequence:
    """Tr(rho^k) via the Newton recurrence; cross-check for the power sums.

    p_k = e_1 p_{k-1} - e_2 p_{k-2} + ... + (-1)^(k-1) k e_k  (k <= n),
    with the trailing term dropped for k > n.
    """
    if K < 1:
        raise OrderOutOfRangeError(f"K={K} must be >= 1")
    n = esp.n
    # signed[i - 1] = (-1)^(i-1) e_i, exactly; esp[i] raises for a stored e_i not computed
    signed = [esp[i] if i % 2 else -esp[i] for i in range(1, min(K, n) + 1)]
    s = [float(n)]  # s_0 = n
    for m in range(1, K + 1):
        top = min(m - 1, n)  # terms i = 1..top: signed[i - 1] s_{m-i}
        acc = math.fsum(map(operator.mul, signed[:top], s[m - 1 : m - 1 - top : -1]))
        if m <= n:
            acc += m * signed[m - 1]
        s.append(acc)
    return PuritySequence(values=tuple(s[1:]))


# ---------------------------------------------------------------------------
# Taylor series for the von Neumann entropy and its r-th-order truncations
# ---------------------------------------------------------------------------

def _truncated_e_list(esp: ESPVector, r: int) -> list[float]:
    if not 1 <= r <= esp.n:
        raise OrderOutOfRangeError(f"r={r} outside 1..{esp.n}")
    if len(esp) < r:
        raise OrderOutOfRangeError(f"need ESPs up to r={r}, have {len(esp)}")
    return [1.0] + [esp[l] for l in range(1, r + 1)]


def _q_r_roots(esp: ESPVector, orders: range | list[int]) -> tuple[np.ndarray, ...]:
    """Roots of q_r for every r in orders from one stacked eigensolve.

    Row i holds the eigenvalues of q_r's companion matrix zero-padded to
    R x R.  Exact trailing zeros e_k = 0 are stripped first, so they come back
    as exact zero roots: q_r has effective degree the index of its last
    nonzero e_k, and R is the largest of these.  Also returns the live mask
    |nu| >= ZERO_ROOT and, per order, the certificate: e_0 ... e_m rebuilt
    from the m live roots match to |e^_k - e_k| <= CERTIFY_TOL |e_k|.  It
    fails for r >~ n/2 at n >= 24; at n >= 32 S_r there can be 1e-2 off.
    """
    k = np.arange(max(orders) + 1)
    coeffs = np.array(_truncated_e_list(esp, k[-1])) * (-1.0) ** k
    degree = np.maximum.accumulate(np.where(coeffs != 0.0, k, 0))[list(orders)]
    R = degree.max()
    k, coeffs = k[: R + 1], coeffs[: R + 1]
    block = k[:-1] < degree[:, None]
    companion = np.vstack([-coeffs[1:], np.eye(R - 1, R)])
    stack = np.where(block[:, :, None] & block[:, None, :], companion, 0.0)
    nu = np.linalg.eigvals(stack).astype(complex)
    live = np.abs(nu) >= ZERO_ROOT
    # One ESP recurrence for all rows; conjugate pairs make the rebuilt q_r real.
    rebuilt = np.zeros((R + 1, len(nu), 1), complex)
    rebuilt[0] = 1.0
    for j, z in enumerate(np.where(live, nu, 0.0).T[:, :, None], start=1):
        rebuilt[1 : j + 1] -= z * rebuilt[:j]
    close = np.abs(rebuilt[:, :, 0].real.T - coeffs) <= CERTIFY_TOL * np.abs(coeffs)
    return nu, live, np.all(close | (k > live.sum(axis=1, keepdims=True)), axis=1)


def truncated_entropies(esp: ESPVector, orders: range | list[int]) -> list[SeriesResult]:
    """S_r = -sum nu ln nu (exactly rounded) over the live roots of q_r for every
    r >= 2 in orders; converged when certified and max |1 - nu| < 1."""
    nu, live, certified = _q_r_roots(esp, orders)
    radius = np.max(np.abs(1.0 - nu), axis=1, where=live, initial=0.0)
    w = np.where(live, nu, 1.0)  # 1 ln 1 = 0: the dead roots add nothing
    return [
        SeriesResult(value=0.0 - math.fsum(t), converged=bool(c and rad < 1.0))
        for t, c, rad in zip((w * np.log(w)).real.tolist(), certified, radius)
    ]


def von_neumann_series(esp: ESPVector) -> SeriesResult:
    """Von Neumann entropy from the full ESP vector: S_r at r = n."""
    return s_r_truncated(esp, esp.n)


def s_r_truncated(esp: ESPVector, r: int) -> SeriesResult:
    """r-th-order entanglement entropy: the series using only e_1 ... e_r.

    Summed in closed form by truncated_entropies.  At r = n the roots are
    the spectrum and this is von_neumann_series.
    """
    if r == 1:
        # -e_1 ln e_1 = 0: e_1 = Tr rho = 1, held to 1e-10 by ESPVector.
        return SeriesResult(value=0.0, converged=True)
    return truncated_entropies(esp, [r])[0]


def series_partial_sum(esp: ESPVector, r: int, depth: int) -> float:
    """Partial sum of the r-th-order series through outer term m = depth.

    sum_{m <= depth} (1/m) sum_j nu_j (1 - nu_j)^m over the roots of q_r;
    the literal evaluator below checks it at matched depth.
    """
    if depth < 1:
        raise OrderOutOfRangeError(f"depth={depth} must be >= 1")
    nu, live, _ = _q_r_roots(esp, [r])
    nu = nu[0, live[0]]
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

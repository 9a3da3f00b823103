"""Entropy measures built from elementary symmetric polynomials.

The chain runs: ESPs -> higher-order purities Tr(rho^k) (Girard-Newton)
-> Taylor series for the von Neumann entropy -> truncated r-th-order
entropies that use only e_1 ... e_r.

Series evaluation.  The von Neumann Taylor expansion is

    S = sum_{m>=1} (1/m) Tr(rho (1 - rho)^m)
      = sum_{m>=1} (1/m) sum_{k=1}^{m+1} C(m, k-1) (-1)^(k-1) p_k,

with p_k = Tr(rho^k).  Evaluating the alternating binomial sum in floating
point loses ~m bits to cancellation, so the production path instead tracks
the power sums s_m of the complement spectrum mu = 1 - lambda via Newton's
recurrence on the complement ESPs; then (1/m)(s_m - s_{m+1}) is the m-th
term with no large cancellation.  The r-th-order truncation is the same
series evaluated on the ESP vector with e_l zeroed for l > r (power sums of
the truncated characteristic polynomial).  A literal triple-sum evaluator
with exact rational coefficients is kept as an independent cross-check for
small depths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice

from .errors import InvalidOrderError, OrderOutOfRangeError
from .states import Spectrum
from .volumes import ESPVector

_TINY = 1e-300


@dataclass(frozen=True)
class PuritySequence:
    """p_k = Tr(rho^k) for k = 1..K."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise OrderOutOfRangeError("need at least one purity")
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
class SeriesControl:
    """Truncation policy for the infinite entropy series."""

    max_outer_terms: int = 256
    rel_tol: float = 1e-10
    consecutive_small: int = 5

    def __post_init__(self):
        if self.max_outer_terms < 1:
            raise ValueError("max_outer_terms must be >= 1")
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must be in (0, 1)")
        if self.consecutive_small < 1:
            raise ValueError("consecutive_small must be >= 1")


@dataclass(frozen=True)
class SeriesResult:
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
    if alpha <= 0.0 or alpha == 1.0:
        raise InvalidOrderError(f"alpha={alpha}; need alpha > 0 and alpha != 1")
    total = math.fsum(lam**alpha for lam in spec.eigenvalues if lam > 0.0)
    return math.log(total) / (1.0 - alpha)


def von_neumann_direct(spec: Spectrum) -> float:
    """-sum lambda ln lambda with 0 ln 0 = 0; the ground-truth oracle."""
    return -math.fsum(lam * math.log(lam) for lam in spec.eigenvalues if lam > 0.0)


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


def _kahan():
    """Compensated accumulator: call with each term, read .total."""
    state = {"total": 0.0, "c": 0.0}

    def add(x: float):
        y = x - state["c"]
        t = state["total"] + y
        state["c"] = (t - state["total"]) - y
        state["total"] = t

    return add, state


def purities_from_esp(esp: ESPVector, K: int) -> PuritySequence:
    """Tr(rho^k) for k = 1..K via the Girard-Newton partition formula.

    Coefficients are exact big-integer rationals, converted to float only
    when multiplied onto the ESP monomial; terms are accumulated with
    compensated summation.
    """
    if K < 1:
        raise OrderOutOfRangeError(f"K={K} must be >= 1")
    vals = []
    for k in range(1, K + 1):
        add, state = _kahan()
        for parts in _partitions(k, min(k, esp.n)):
            coeff = _girard_newton_coeff(k, parts)
            mono = math.prod(esp[l] ** p for l, p in parts)
            add(float(coeff) * mono)
        vals.append(state["total"])
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

def _complement_esps(e_list: list[float], n: int) -> list[float]:
    """ESPs of the complement spectrum mu_j = 1 - lambda_j.

    e~_m = sum_{k=0}^m (-1)^k C(n-k, m-k) e_k, for m = 0..n, where e_list
    holds e_0..e_n of the (possibly truncated) input.
    """
    out = []
    for m in range(n + 1):
        out.append(
            math.fsum(
                (-1) ** k * math.comb(n - k, m - k) * e_list[k]
                for k in range(m + 1)
            )
        )
    return out


def _series_engine(e_list: list[float], n: int, ctrl: SeriesControl) -> SeriesResult:
    """Sum (1/m)(s_m - s_{m+1}) with the relative-tail stopping rule."""
    sums = _power_sums(_complement_esps(e_list, n), n)
    next(sums)  # s_0 enters no term
    s_m = next(sums)  # s_1 = e~_1: no sum, cannot overflow
    add, state = _kahan()
    small_run = 0
    terms_used = 0
    converged = False
    for m in range(1, ctrl.max_outer_terms + 1):
        # Truncated ESP vectors can put pseudo-eigenvalues outside the unit
        # disk; the series then diverges and the recurrence overflows.  Stop
        # with converged=False rather than propagating inf/nan.
        try:
            s_next = next(sums)
        except (OverflowError, ValueError):
            terms_used = m - 1
            break
        t_m = (s_m - s_next) / m
        s_m = s_next
        if not math.isfinite(t_m):
            terms_used = m - 1
            break
        if m > 20 and abs(t_m) > 1e3 * (abs(state["total"]) + 1.0):
            # Clear exponential growth; cut off before the value is swamped.
            terms_used = m - 1
            break
        add(t_m)
        terms_used = m
        if abs(t_m) <= ctrl.rel_tol * max(abs(state["total"]), _TINY):
            small_run += 1
            if small_run >= ctrl.consecutive_small:
                converged = True
                break
        else:
            small_run = 0
    return SeriesResult(value=state["total"], terms_used=terms_used, converged=converged)


def _truncated_e_list(esp: ESPVector, r: int) -> list[float]:
    if not 1 <= r <= esp.n:
        raise OrderOutOfRangeError(f"r={r} outside 1..{esp.n}")
    if len(esp) < r:
        raise OrderOutOfRangeError(f"need ESPs up to r={r}, have {len(esp)}")
    return [1.0] + [esp[l] for l in range(1, r + 1)] + [0.0] * (esp.n - r)


def von_neumann_series(esp: ESPVector, ctrl: SeriesControl | None = None) -> SeriesResult:
    """Von Neumann entropy from the full ESP vector: S_r at r = n."""
    return s_r_truncated(esp, esp.n, ctrl)


def s_r_truncated(esp: ESPVector, r: int, ctrl: SeriesControl | None = None) -> SeriesResult:
    """r-th-order entanglement entropy: the series using only e_1 ... e_r.

    At r = n this is von_neumann_series; for r < n it is the same series on
    the truncated characteristic polynomial.
    """
    if r == 1:
        # The r = 1 series sums to -e_1 ln e_1; the engine never settles when
        # e_1 misses 1 by an ulp.  (0.0 - x gives +0.0 at e_1 = 1.)
        return SeriesResult(value=0.0 - esp[1] * math.log(esp[1]), terms_used=1, converged=True)
    if ctrl is None:
        ctrl = SeriesControl()
    return _series_engine(_truncated_e_list(esp, r), esp.n, ctrl)


def series_partial_sum(esp: ESPVector, r: int, depth: int) -> float:
    """Partial sum of the r-th-order series through outer term m = depth.

    Matched-truncation comparisons use this: two evaluations at the same
    depth must agree to roundoff whenever their ESP inputs agree.
    """
    if depth < 1:
        raise OrderOutOfRangeError(f"depth={depth} must be >= 1")
    et = _complement_esps(_truncated_e_list(esp, r), esp.n)
    s = list(islice(_power_sums(et, esp.n), depth + 2))
    add, state = _kahan()
    for m in range(1, depth + 1):
        add((s[m] - s[m + 1]) / m)
    return state["total"]


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
    add, state = _kahan()
    for m in range(1, depth + 1):
        for k in range(1, m + 2):
            binom = math.comb(m, k - 1)
            for parts in _partitions(k, min(k, r)):
                coeff = Fraction((-1) ** (k - 1) * binom, m) * _girard_newton_coeff(k, parts)
                mono = math.prod(e_list[l] ** p for l, p in parts)
                add(float(coeff) * mono)
    return state["total"]

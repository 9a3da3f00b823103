"""Exact two-copy fermionic beamsplitter protocol.

Each copy of the system carries a single fermion whose internal level j is
entangled with an environment vector |j psi>.  Two copies enter a 50:50
beamsplitter (input ports 1 and 2, output ports 3 and 4); the probability
that both fermions leave through the same output port equals the
second-order volume e_2 of the reduced-density-matrix spectrum.

The two-fermion state is one complex array per port pair (p, q), p <= q,
indexed [a, b, i1, i2]: the levels of the fermions in ports p and q, then
the environment indices of copies 1 and 2.  For p < q the entry is the
amplitude of b+_(p,a) b+_(q,b); for p == q the array is antisymmetric in
(a, b) and the state is (1/2) sum_ab X[a, b] b+_(p,a) b+_(p,b), so double
occupation of a mode is zero by construction.

Behind the splitter the same-port blocks are +-(1/2) Y, with
Y[a, b, i1, i2] = psi[a, i1] psi[b, i2] - psi[b, i1] psi[a, i2] the 2x2
minors of psi; the bunching weight, sum |Y|^2 over a < b and i1 < i2, is e_2
(Cauchy-Binet).  Per row pair that sum is ||psi_a ^ psi_b||^2 (Lagrange): the
squared base ||psi_a||^2 times the squared height of psi_b above psi_a.
fermionic_encoding_probability sums these areas over the smaller side of psi.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import TooLargeError, WrongPortDomainError
from .states import PureBipartiteState

IN_PORTS = (1, 2)
OUT_PORTS = (3, 4)

# Largest n*d simulated.  A whole port block holds (n*d)^2 amplitudes (256 MiB
# at 64x64); fermionic_encoding_probability holds a few chunks of projected rows.
MAX_STATE_SIZE = 64 * 64

# Amplitudes per chunk of fermionic_encoding_probability (64 KiB of projected rows):
# with 2^14 the larger temporaries' page faults made a 32x32 call twice as slow.
_TILE = 1 << 12
_TINY = np.finfo(float).tiny  # floor of the norms that the overlaps are divided by

# 50:50 convention: a+_(1) -> (b+_(3) - b+_(4)) / sqrt(2),
#                   a+_(2) -> (b+_(3) + b+_(4)) / sqrt(2), level-preserving.
# Only the signs are kept: each output pair takes the product of two
# 1/sqrt(2) factors as an exact 0.5 (rounded, (1/sqrt 2)^2 is 0.4999999999999999).
_SPLITTER = {1: ((3, 1.0), (4, -1.0)), 2: ((3, 1.0), (4, 1.0))}


@dataclass(frozen=True)
class TwoFermionJointState:
    """Two-fermion amplitudes: one (n, n, d, d) block per port pair p <= q.

    Same-port blocks must be antisymmetric in (a, b).  Blocks are kept as
    read-only views, not copies.
    """

    d: int
    terms: dict[tuple[int, int], np.ndarray]

    def __post_init__(self):
        frozen = {}
        for (p, q), block in self.terms.items():
            if not p <= q:
                raise ValueError(f"port pair {p}, {q} not ordered")
            view = np.asarray(block, dtype=complex).view()
            n = view.shape[0] if view.ndim == 4 else -1
            if view.shape != (n, n, self.d, self.d):
                raise ValueError(f"block shape {view.shape} != (n, n, d, d) with d = {self.d}")
            view.flags.writeable = False
            frozen[(p, q)] = view
        if len({block.shape for block in frozen.values()}) > 1:
            raise ValueError("port blocks disagree in the number of levels")
        object.__setattr__(self, "terms", frozen)

    def total_norm_squared(self) -> float:
        # A same-port block lists each unordered level pair twice.
        return float(
            sum((0.5 if p == q else 1.0) * np.vdot(x, x).real for (p, q), x in self.terms.items())
        )

    def ports(self) -> set[int]:
        return {p for pair in self.terms for p in pair}


def build_two_copy_state(state: PureBipartiteState) -> TwoFermionJointState:
    """Joint state of two copies at the beamsplitter inputs.

    Copy c contributes a+_(j)^(c) with environment |j psi>; the joint term
    for (j1, j2) carries |j1 psi> (x) |j2 psi>.
    """
    check_bunching_size(state)
    psi = state.amplitudes
    return TwoFermionJointState(d=state.d, terms={(1, 2): np.einsum("ai,bk->abik", psi, psi)})


def beamsplitter_transform(js: TwoFermionJointState) -> TwoFermionJointState:
    """Apply the 50:50 mode transformation to every port block (unitary).

    Each operator pair b+_(p,a) b+_(q,b) expands into four output pairs; a
    pair in reverse port order is reordered with a fermionic minus sign, and
    a same-port pair is antisymmetrized in its levels.
    """
    if not js.ports() <= set(IN_PORTS):
        raise WrongPortDomainError(f"expected ports {IN_PORTS}, found {sorted(js.ports())}")
    acc: dict[tuple[int, int], np.ndarray] = {}
    for (p, q), x in js.terms.items():
        weight = 0.5 if p == q else 1.0
        xt = x.swapaxes(0, 1)
        for q1, c1 in _SPLITTER[p]:
            for q2, c2 in _SPLITTER[q]:
                c = 0.5 * weight * c1 * c2
                key = (min(q1, q2), max(q1, q2))
                if q1 < q2:
                    y = np.multiply(x, c)
                elif q1 > q2:
                    y = np.multiply(xt, -c)
                else:
                    y = np.subtract(x, xt)
                    y *= c
                if key in acc:
                    acc[key] += y
                else:
                    acc[key] = y
                del y  # a temporary term is freed before the next is built
    return TwoFermionJointState(d=js.d, terms=acc)


def bunching_probability(js_out: TwoFermionJointState) -> float:
    """Probability that both fermions share an output port: (1/2) sum ||X||^2
    over the same-port blocks, one math.fsum term per leading level."""
    if not js_out.ports() <= set(OUT_PORTS):
        raise WrongPortDomainError(
            f"expected ports {OUT_PORTS}, found {sorted(js_out.ports())}"
        )
    return 0.5 * math.fsum(
        np.vdot(row, row).real for (p, q), x in js_out.terms.items() if p == q for row in x
    )


def fermionic_encoding_probability(state: PureBipartiteState) -> float:
    """Full protocol: the bunching weight of two copies behind the splitter.

    Sums ||psi_a||^2 ||psi_b - c psi_a||^2 over row pairs a < b, with
    c = <psi_a, psi_b> / ||psi_a||^2 read off the Gram (an error in c enters only
    at second order).  psi^T has the same weight, so the rows are the smaller
    side: O(min(n, d)^2 max(n, d)) work, max(1, _TILE // max(n, d)) rows a chunk.
    """
    check_bunching_size(state)
    psi = state.amplitudes if state.n <= state.d else state.amplitudes.T
    gram = psi.conj() @ psi.T
    norms = gram.diagonal().real
    rows_a, rows_b = _pairs(len(psi))
    # A zero row has zero overlaps: its pairs get c = 0 and weigh 0.
    coefs = gram[rows_a, rows_b] / np.maximum(norms[rows_a], _TINY)
    step = max(1, _TILE // psi.shape[1])
    areas = []
    for s in range(0, len(rows_a), step):
        a = rows_a[s : s + step]
        height = psi[rows_b[s : s + step]]
        height -= coefs[s : s + step, None] * psi[a]
        squares = np.square(height.view(float), out=height.view(float))
        areas.extend((norms[a] * squares.sum(axis=1)).tolist())
    return math.fsum(areas)


@functools.lru_cache(maxsize=64)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1), read-only: the row pairs a < b, built once per row count.

    The smaller side of a simulated state has at most 64 rows, so the cache holds
    every row count; all 64 cost 0.7 MB."""
    pairs = np.triu_indices(n, 1)
    for rows in pairs:
        rows.flags.writeable = False
    return pairs


def check_bunching_size(state: PureBipartiteState) -> None:
    if state.n * state.d > MAX_STATE_SIZE:
        raise TooLargeError(
            f"n*d = {state.n * state.d} exceeds {MAX_STATE_SIZE} for the bunching simulation"
        )

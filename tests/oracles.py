"""Reference routes the tests check espent against.

Each restates, by its definition in the paper, a quantity that espent
computes from the Schmidt values in one pass: the squared wedge volumes
summed over r-subsets of the projected states (e_r), the literal ESP
expansion of the entropy series, and the r!-permutation antisymmetrizer
weight Tr(P_A rho^(x)r) (e_r again).  They cost exponential time in r or in
the series depth, so they live here and not in the package.  The quench's
free-fermion oracle solves the XX chain from its correlation matrix, with
none of the package's bit rules.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from espent import OrderOutOfRangeError
from espent.entropy import _girard_newton_coeff, _partitions, _q_r_roots, _truncated_e_list
from espent.states import gram_matrix


def projected_states(state, side: str = "M") -> np.ndarray:
    """Rows |j psi>: the n rows of psi for side 'M', its d columns for side 'R'."""
    return state.amplitudes if side == "M" else state.amplitudes.T


def wedge_norm_squared(vectors) -> float:
    """Squared norm of v_1 ^ ... ^ v_r: the Gram determinant det(<v_a|v_b>)."""
    return float(np.linalg.det(gram_matrix(np.array(vectors, dtype=complex))).real)


def volume_r_brute(v: np.ndarray, r: int) -> float:
    """Collective squared r-th-order volume: the Gram determinant of every r-subset
    of the rows of v, summed.  O(C(n, r) r^3), for n <= 12."""
    n = v.shape[0]
    if not 1 <= r <= n:
        raise OrderOutOfRangeError(f"r={r} outside 1..{n}")
    gram = gram_matrix(v)
    return math.fsum(
        float(np.linalg.det(gram[np.ix_(idx, idx)]).real) for idx in combinations(range(n), r)
    )


def series_partial_sum(esp, r: int, depth: int) -> float:
    """The r-th-order series through outer term m = depth:
    sum_{m <= depth} (1/m) sum_j nu_j (1 - nu_j)^m over the live roots of q_r."""
    if depth < 1:
        raise OrderOutOfRangeError(f"depth={depth} must be >= 1")
    nu, live, _ = _q_r_roots(esp, [r])
    nu = nu[0, live[0]]
    m = np.arange(1, depth + 1)
    return math.fsum((nu[:, None] * (1.0 - nu[:, None]) ** m / m).real.ravel())


def series_partial_sum_literal(esp, r: int, depth: int) -> float:
    """series_partial_sum by the literal triple sum, exponential in depth (<= ~25).

    For every outer index m <= depth and every k <= m + 1, each multiplicity
    tuple (p_1, ..., p_r) with sum l p_l = k (p_1 >= 0 included) takes the
    exact rational coefficient

        -(1/m) k (-1)^k C(m, k-1) (sum p_l - 1)! / prod p_l!  * (-1)^(sum p_l)

    onto the monomial prod e_l^(p_l).
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


def antisym_weight(rho, r: int) -> float:
    """Tr(P_A rho^(x)r), the weight of r copies of rho on their antisymmetric
    subspace, which equals e_r: the signed sum over all r! permutation
    operators, each applied by index contraction.  The (r-1)-beamsplitter
    network that measures it is not simulated."""
    if not 1 <= r <= 6:
        raise OrderOutOfRangeError(f"r={r} outside the supported range 1..6")
    letters = "abcdefghijkl"
    total = 0.0
    for perm in permutations(range(r)):
        # Tr(Pi_perm rho^(x)r) = sum_i prod_t rho[i_t, i_perm(t)]
        spec = ",".join(letters[t] + letters[perm[t]] for t in range(r))
        tr = np.einsum(spec + "->", *[rho.matrix] * r, optimize=True)
        total += _perm_sign(perm) * tr.real
    return total / math.factorial(r)


def _perm_sign(perm) -> int:
    """+1 or -1: the parity of the number of inversions."""
    return (-1) ** sum(a > b for a, b in combinations(perm, 2))


def free_fermion_modes(length: int, cut: int, coupling: float, initial: str, t: float):
    """Eigenvalues nu of the cut's correlation block C_A(t) of the XX chain.

    At anisotropy 0 the XXZ chain J sum (X X + Y Y) is, by Jordan-Wigner, an
    open chain of fermions hopping with amplitude 2J, and a product state of
    Z eigenstates is the Slater determinant of its occupied sites (one on
    alternate sites for 'neel').  The correlation matrix then evolves as
    C(t) = U C(0) U^dagger, U = exp(-i h t), and the Schmidt spectrum of the
    first `cut` sites is the set of products of nu or 1 - nu over the
    eigenvalues nu of C_A, its cut x cut block (Peschel, J. Phys. A 36, L205
    (2003)).
    """
    hop = 2.0 * coupling * (np.eye(length, k=1) + np.eye(length, k=-1))
    w, v = np.linalg.eigh(hop)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    occupied = np.arange(length) % 2 if initial == "neel" else np.zeros(length)
    corr = (u * occupied) @ u.conj().T
    return np.clip(np.linalg.eigvalsh(corr[:cut, :cut]), 0.0, 1.0)


def free_fermion_spectrum(nu: np.ndarray) -> np.ndarray:
    """The 2^len(nu) products of nu_k or 1 - nu_k, descending."""
    lam = np.ones(1)
    for x in nu:
        lam = np.concatenate([lam * x, lam * (1.0 - x)])
    return np.sort(lam)[::-1]


def free_fermion_entropy(nu: np.ndarray) -> float:
    """S = sum_k h(nu_k), h(x) = -x ln x - (1 - x) ln(1 - x), with 0 ln 0 = 0."""
    return 0.0 - math.fsum(x * math.log(x) for x in np.concatenate([nu, 1.0 - nu]) if x > 0.0)

"""Independent oracle for the espent benchmark.

Nothing here imports espent.  Every reference value starts from the
singular values of the amplitude matrix (numpy SVD), never from espent's
eigvalsh route, and the symmetric-polynomial quantities are evaluated in
mpmath:

- spectrum lambda_j = s_j^2 / sum s^2, padded with exact zeros to length n
  (an n > d state has rank at most d, so those zeros are structural);
  singular values at roundoff level (below ZERO_SV_REL * s_max) also count
  as exact zeros;
- ESPs e_r by the add-one-eigenvalue recurrence in mpmath;
- S_r = -sum nu ln nu over the roots nu of
  q_r(x) = x^r - e_1 x^(r-1) + ... + (-1)^r e_r, which is what the r-th
  order Taylor series sums to when it converges.  It converges iff
  R = max |1 - nu| < 1 over the nonzero roots; roots below ZERO_ROOT count
  as zero, since they contribute nothing the tolerance can see.  R within
  RADIUS_MARGIN of 1 is "unresolved": neither the value nor the flag is
  judged.  At r = n the roots are the spectrum itself, which gives the
  von Neumann series reference.

Run ``python3 bench/oracle.py`` for the self-tests.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 40

TOL = 1e-8              # absolute tolerance on every checked value
ZERO_SV_REL = 1e-13     # singular values below this * s_max are exact zeros
ZERO_ROOT = 1e-12       # |nu| below this is a roundoff-level zero root
RADIUS_MARGIN = 1e-6    # |R - 1| below this: convergence unresolved

CONVERGES, DIVERGES, UNRESOLVED = "converges", "diverges", "unresolved"


def haar_amplitudes(n: int, d: int, seed: int) -> np.ndarray:
    """Complex-Gaussian n x d matrix with unit Frobenius norm."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return raw / np.linalg.norm(raw)


def svd_spectrum(amps: np.ndarray) -> list:
    """Descending spectrum of psi psi^dagger as mpf, exact zeros included."""
    n = amps.shape[0]
    s = np.linalg.svd(np.asarray(amps, dtype=complex), compute_uv=False)
    s = [float(x) for x in s if x > ZERO_SV_REL * s[0]]
    sq = [mp.mpf(x) ** 2 for x in s]
    total = mp.fsum(sq)
    lam = [x / total for x in sq]
    return lam + [mp.mpf(0)] * (n - len(lam))


def esps(lam: list) -> list:
    """[e_0, e_1, ..., e_n] of the spectrum."""
    e = [mp.mpf(1)] + [mp.mpf(0)] * len(lam)
    for x in lam:
        for k in range(len(lam), 0, -1):
            e[k] += x * e[k - 1]
    return e


def _xlogx(nu) -> mp.mpc:
    return nu * mp.log(nu) if nu != 0 else mp.mpf(0)


def _polish(coeffs: list, guesses) -> list | None:
    """Newton-polish float root guesses in mpmath; None if they do not
    settle on distinct simple roots."""
    dcoeffs = [c * (len(coeffs) - 1 - k) for k, c in enumerate(coeffs[:-1])]
    roots = []
    for g in guesses:
        x = mp.mpc(complex(g))
        for _ in range(12):
            slope = mp.polyval(dcoeffs, x)
            if slope == 0:
                return None
            step = mp.polyval(coeffs, x) / slope
            x -= step
            if abs(step) < mp.mpf(10) ** (-mp.mp.dps + 5):
                break
        else:
            return None
        roots.append(x)
    if any(abs(a - b) < 1e-8 for i, a in enumerate(roots) for b in roots[:i]):
        return None
    return roots


def truncated_roots(e: list, r: int) -> list:
    """Roots of q_r; trailing exact-zero ESPs give exact zero roots."""
    m = r
    while m > 0 and e[m] == 0:
        m -= 1
    coeffs = [(-1) ** k * e[k] for k in range(m + 1)]
    roots = []
    if m:
        roots = _polish(coeffs, np.roots([float(c) for c in coeffs]))
        if roots is None:
            roots = list(mp.polyroots(coeffs, maxsteps=400, extraprec=60))
    return roots + [mp.mpf(0)] * (r - m)


def series_reference(roots: list) -> tuple[float, float, str]:
    """(value, radius, status) of the Taylor series whose roots are given."""
    live = [nu for nu in roots if abs(nu) >= ZERO_ROOT]
    radius = max((abs(1 - nu) for nu in live), default=mp.mpf(0))
    value = -mp.re(mp.fsum(_xlogx(nu) for nu in live))
    if radius <= 1 - RADIUS_MARGIN:
        status = CONVERGES
    elif radius >= 1 + RADIUS_MARGIN:
        status = DIVERGES
    else:
        status = UNRESOLVED
    return float(value), float(radius), status


class StateOracle:
    """Reference values for one pure state, from its amplitude matrix."""

    def __init__(self, amps: np.ndarray):
        self.n = amps.shape[0]
        self.lam = svd_spectrum(amps)
        self.e = esps(self.lam)
        self._series: dict[int, tuple[float, float, str]] = {}

    def spectrum(self) -> list[float]:
        return [float(x) for x in self.lam]

    def esp(self) -> list[float]:
        return [float(x) for x in self.e[1:]]

    def purity(self, k: int) -> float:
        return float(mp.fsum(x**k for x in self.lam))

    def renyi(self, alpha: float) -> float:
        s = mp.fsum(x ** mp.mpf(alpha) for x in self.lam if x > 0)
        return float(mp.log(s) / (1 - mp.mpf(alpha)))

    def von_neumann(self) -> float:
        return float(-mp.fsum(_xlogx(x) for x in self.lam))

    def series(self, r: int) -> tuple[float, float, str]:
        """(S_r, radius, status); r = n is the full von Neumann series."""
        if r not in self._series:
            roots = self.lam if r == self.n else truncated_roots(self.e, r)
            self._series[r] = series_reference(roots)
        return self._series[r]


class Tally:
    """Counts of checked values; wrong values are counted, never dropped."""

    def __init__(self):
        self.checked = 0
        self.wrong = 0
        self.series_converged = 0    # series values the program flagged converged
        self.silent_wrong = 0        # ... of which off the oracle
        self.unresolved = 0
        self.direct_wrong = 0        # wrong values that are not series estimates
        self.broken = 0              # ops with a non-zero exit code or malformed output

    def value(self, got, want: float) -> bool:
        self.checked += 1
        ok = isinstance(got, (int, float)) and math.isfinite(got) and abs(got - want) <= TOL
        self.wrong += not ok
        self.direct_wrong += not ok
        return ok

    def values(self, got: list, want: list) -> bool:
        if len(got) != len(want):
            self.checked += len(want)
            self.wrong += len(want)
            self.direct_wrong += len(want)
            return False
        return all([self.value(g, w) for g, w in zip(got, want)])

    def series(self, got: float, converged: bool, ref: tuple[float, float, str]) -> bool:
        """A convergent series must be flagged converged and match; a
        divergent one must be flagged not converged."""
        value, _, status = ref
        self.checked += 1
        close = math.isfinite(got) and abs(got - value) <= TOL
        self.series_converged += bool(converged)
        if status == UNRESOLVED:
            self.unresolved += 1
            return True
        ok = (converged and close) if status == CONVERGES else not converged
        self.wrong += not ok
        self.silent_wrong += bool(converged) and not ok
        return ok


def check_report(rep: dict, ref: StateOracle, tally: Tally, p_bunch: bool = False) -> bool:
    """Check one espent report dict (AnalysisReport.to_dict()) against ref.

    Returns True when every checked value passes; a malformed report counts
    as broken.
    """
    try:
        return _check_report(rep, ref, tally, p_bunch)
    except (KeyError, TypeError, ValueError, AttributeError):
        tally.broken += 1
        return False


def _check_report(rep: dict, ref: StateOracle, tally: Tally, p_bunch: bool) -> bool:
    ent = rep["entropies"]
    conv = rep["convergence"]
    if rep["n"] != ref.n:
        raise ValueError("report is for another size")
    checks = [
        tally.values(rep["spectrum"], ref.spectrum()),
        tally.values(rep["esp"], ref.esp()),
        tally.values(rep["purities"], [ref.purity(k) for k in range(1, len(rep["purities"]) + 1)]),
    ]
    for alpha, got in sorted(ent["renyi"].items()):
        checks.append(tally.value(got, ref.renyi(float(alpha))))
    checks.append(tally.value(ent["von_neumann_direct"], ref.von_neumann()))
    for r, got in sorted(ent["s_r"].items(), key=lambda kv: int(kv[0])):
        checks.append(tally.series(got, conv["s_r"][r]["converged"], ref.series(int(r))))
    checks.append(tally.series(
        ent["von_neumann_series"], conv["von_neumann_series"]["converged"], ref.series(ref.n)
    ))
    if p_bunch:
        checks.append(tally.value(rep["bunching"]["p_bunch"], float(ref.e[2]) if ref.n >= 2 else 0.0))
    return all(checks)


# ---------------------------------------------------------------------------
# Quench reference, built without espent.quench: real Hamiltonian from bit
# operations on basis indices (site 0 is the most significant bit, spin up
# is bit 0), real eigh, exact evolution.
# ---------------------------------------------------------------------------

def quench_hamiltonian(model: str, length: int) -> np.ndarray:
    """TFI: -sum Z Z - sum X; XXZ: sum (X X + Y Y + Z Z); open chain, J = h = Delta = 1."""
    dim = 1 << length
    h = np.zeros((dim, dim))
    idx = np.arange(dim)

    def bit(site):
        return (idx >> (length - 1 - site)) & 1

    for i in range(length - 1):
        zz = 1 - 2 * (bit(i) ^ bit(i + 1))
        if model == "tfi":
            h[idx, idx] -= zz
        else:
            h[idx, idx] += zz
            # X X + Y Y flips an antiparallel pair with amplitude 2
            anti = bit(i) != bit(i + 1)
            flip = idx ^ (3 << (length - 2 - i))
            h[idx[anti], flip[anti]] += 2.0
    if model == "tfi":
        for i in range(length):
            h[idx, idx ^ (1 << (length - 1 - i))] -= 1.0
    return h


def quench_reference(model: str, length: int, cut: int, tmax: float, steps: int) -> list[tuple[float, np.ndarray]]:
    """[(t, amplitude matrix)] for the model's default initial state."""
    h = quench_hamiltonian(model, length)
    evals, evecs = np.linalg.eigh(h)
    psi0 = np.zeros(1 << length)
    # "up" for tfi; Neel |up down up ...> for xxz
    psi0[0 if model == "tfi" else int("01" * (length // 2) + "0" * (length % 2), 2)] = 1.0
    coeffs = evecs.T @ psi0
    out = []
    for t in np.linspace(0.0, tmax, steps + 1):
        psi = evecs @ (np.exp(-1j * evals * t) * coeffs)
        out.append((float(t), psi.reshape(1 << cut, 1 << (length - cut))))
    return out


# ---------------------------------------------------------------------------
# Self-tests
# ---------------------------------------------------------------------------

def _direct_series(roots: list, terms: int) -> mp.mpf:
    """Partial sum of sum_m (1/m)(s_m - s_{m+1}), s_m = sum (1 - nu)^m."""
    mu = [1 - nu for nu in roots]
    total = mp.mpf(0)
    pw = [mp.mpc(x) for x in mu]
    for m in range(1, terms + 1):
        s_m = mp.fsum(pw)
        pw = [p * x for p, x in zip(pw, mu)]
        total += (s_m - mp.fsum(pw)) / m
    return mp.re(total)


def self_test() -> list[str]:
    """Return a list of failure messages (empty when the oracle is sound)."""
    fails = []

    def expect(name, ok):
        if not ok:
            fails.append(name)

    bell = StateOracle(np.eye(2) / math.sqrt(2))
    expect("bell S_1 = 0", bell.series(1)[0] == 0.0)
    expect("bell S_2 = ln 2", abs(bell.series(2)[0] - math.log(2)) < 1e-15)
    expect("bell e_2 = 1/4", abs(bell.esp()[1] - 0.25) < 1e-15)

    rng = np.random.default_rng(7)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    prod = StateOracle(np.outer(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
    for r in (1, 2, 3):
        value, radius, status = prod.series(r)
        expect(f"product S_{r} = 0 and converges", value == 0.0 and radius == 0.0 and status == CONVERGES)

    # n > d: rank 2 padded with exact zeros; S_r = ln 2 from r = 2 on.
    tall = StateOracle(np.array([[1, 0], [0, 1], [0, 0], [0, 0]]) / math.sqrt(2))
    for r in (2, 3, 4):
        value, _, status = tall.series(r)
        expect(f"4x2 S_{r} = ln 2", abs(value - math.log(2)) < 1e-15 and status == CONVERGES)
    haar_tall = StateOracle(haar_amplitudes(6, 3, 5))
    expect("6x3 S_6 = von Neumann",
           abs(haar_tall.series(6)[0] - haar_tall.von_neumann()) < 1e-14)
    expect("6x3 S_4 = S_3 (rank 3)",
           abs(haar_tall.series(4)[0] - haar_tall.series(3)[0]) < 1e-14)

    # Haar seed-1 references.
    h8 = StateOracle(haar_amplitudes(8, 8, 1))
    expect("8x8 seed 1 S_2 = 0.898628", abs(h8.series(2)[0] - 0.898628) < 5e-7)
    h16 = StateOracle(haar_amplitudes(16, 16, 1))
    expect("16x16 seed 1 S_2 = 1.0225", abs(h16.series(2)[0] - 1.0225) < 5e-5)
    expect("16x16 seed 1 S_4 = 1.7248", abs(h16.series(4)[0] - 1.7248) < 5e-5)

    # The closed form is the limit of the series itself, summed in mpmath.
    for r in (2, 3, 4):
        roots = truncated_roots(h16.e, r)
        value, radius, status = series_reference(roots)
        if status == CONVERGES:
            terms = int(math.log(1e-30) / math.log(radius)) + 10 if radius > 0 else 2
            if terms < 4000:
                expect(f"16x16 S_{r} closed form = series sum",
                       abs(_direct_series(roots, terms) - value) < 1e-12)
    # A divergent truncation: uniform spectrum on 16 levels, r = 6.
    uni = StateOracle(np.eye(16) / 4.0)
    value, radius, status = uni.series(6)
    expect("uniform 16 S_6 diverges", status == DIVERGES and radius > 1.03)
    roots = truncated_roots(uni.e, 6)
    expect("uniform 16 S_6 series grows",
           abs(_direct_series(roots, 800)) > 1e6 * abs(_direct_series(roots, 40)))

    # Quench reference against a Kronecker-product build at L = 4.
    for model in ("tfi", "xxz"):
        expect(f"{model} bit-operation Hamiltonian = Kronecker build",
               np.allclose(quench_hamiltonian(model, 4), _kron_hamiltonian(model, 4), atol=1e-14))
    return fails


def _kron_hamiltonian(model: str, length: int) -> np.ndarray:
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0]).astype(complex)

    def op(*pairs):
        mats = [np.eye(2, dtype=complex)] * length
        for site, m in pairs:
            mats[site] = m
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    h = sum(-op((i, sz), (i + 1, sz)) if model == "tfi" else
            op((i, sx), (i + 1, sx)) + op((i, sy), (i + 1, sy)) + op((i, sz), (i + 1, sz))
            for i in range(length - 1))
    if model == "tfi":
        h = h - sum(op((i, sx)) for i in range(length))
    return h.real


if __name__ == "__main__":
    import sys

    failures = self_test()
    for f in failures:
        print("FAIL:", f)
    print("oracle self-test:", "ok" if not failures else f"{len(failures)} failed")
    sys.exit(1 if failures else 0)

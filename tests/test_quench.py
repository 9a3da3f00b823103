import json
import math
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import espent.quench
from espent import (
    AnalysisOptions,
    InvalidCutError,
    InvalidOptionError,
    NormError,
    QuenchConfig,
    TooLargeError,
    analyze,
    build_hamiltonian,
    quench_trajectory,
    validate_state,
)
from espent.cli import EXIT_PARSE, main
from espent.quench import (
    _PAD,
    MAX_LENGTH,
    TAIL,
    _chebyshev_sum,
    _chebyshev_table,
    _chebyshev_terms,
    _evolve,
    hamiltonian_bands,
    initial_product_state,
    spectral_interval,
)
from oracles import free_fermion_entropy, free_fermion_modes, free_fermion_spectrum

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def kron_hamiltonian(cfg):
    """Reference Hamiltonian: each term is kron(I, op, I) over Pauli matrices."""
    L = cfg.length

    def embed(op, site):
        span = op.shape[0].bit_length() - 1
        return np.kron(np.kron(np.eye(2**site), op), np.eye(2 ** (L - site - span)))

    J = cfg.coupling
    if cfg.model == "tfi":
        bond = -J * np.kron(_Z, _Z)
        fields = [embed(-cfg.field_strength * _X, i) for i in range(L)]
    else:
        bond = J * (np.kron(_X, _X) + np.kron(_Y, _Y) + cfg.anisotropy * np.kron(_Z, _Z))
        fields = []
    return sum(embed(bond, i) for i in range(L - 1)) + sum(fields)


# Non-default couplings: Delta < 0, h = 0, J < 0
COUPLINGS = [(0.7, 1.3, -0.4), (-1.1, 0.0, 2.5)]
# Plus h = 0 alone and Delta = 0, whose zero values take no part in H's nonzero entries
EDGE_COUPLINGS = COUPLINGS + [(1.0, 0.0, 1.0), (0.7, 1.3, 0.0)]


def test_config_validation():
    QuenchConfig(model="tfi", length=16, cut=2, tmax=1.0, steps=2)
    with pytest.raises(TooLargeError, match="length 17 exceeds 16"):
        QuenchConfig(model="tfi", length=17, cut=2, tmax=1.0, steps=2)
    with pytest.raises(InvalidCutError):
        QuenchConfig(model="tfi", length=6, cut=6, tmax=1.0, steps=2)
    with pytest.raises(ValueError):
        QuenchConfig(model="bogus", length=4, cut=2, tmax=1.0, steps=2)


def test_hamiltonian_hermitian():
    for model in ("tfi", "xxz"):
        cfg = QuenchConfig(model=model, length=4, cut=2, tmax=1.0, steps=2)
        h = build_hamiltonian(cfg)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-14)


@pytest.mark.parametrize("length", range(2, 9))
@pytest.mark.parametrize("model", ["tfi", "xxz"])
@pytest.mark.parametrize("coupling, field_strength, anisotropy", COUPLINGS)
def test_hamiltonian_matches_kron_reference(length, model, coupling, field_strength, anisotropy):
    cfg = QuenchConfig(
        model=model, length=length, cut=1, tmax=1.0, steps=1, coupling=coupling,
        field_strength=field_strength, anisotropy=anisotropy,
    )
    h = build_hamiltonian(cfg)
    assert h.dtype == np.float64
    np.testing.assert_allclose(h, kron_hamiltonian(cfg), rtol=0.0, atol=1e-14)


# The dense H takes 2^(2L) floats, so this comparison stops at L = 12
@pytest.mark.parametrize("length", range(2, 13))
@pytest.mark.parametrize("model", ["tfi", "xxz"])
@pytest.mark.parametrize("coupling, field_strength, anisotropy", EDGE_COUPLINGS)
def test_triples_are_the_nonzero_entries(length, model, coupling, field_strength, anisotropy):
    # The bands' nonzero (row, col, value) triples are H's nonzero entries,
    # as np.nonzero finds them (with h = 0 or Delta = 0 the zero values would
    # change the reached set), each (row, col) occurs once in the bands, and
    # the recurrence's banded product is H v
    cfg = QuenchConfig(
        model=model, length=length, cut=1, tmax=1.0, steps=1, coupling=coupling,
        field_strength=field_strength, anisotropy=anisotropy,
    )
    cols, vals = hamiltonian_bands(cfg)
    assert cols.shape == vals.shape and cols.shape[1] == 2**length
    rows = np.broadcast_to(np.arange(2**length), cols.shape)
    assert np.unique(rows * 2**length + cols).size == cols.size
    live = vals != 0.0
    triples = set(zip(rows[live].tolist(), cols[live].tolist(), vals[live].tolist()))
    h = build_hamiltonian(cfg)
    nonzero = np.nonzero(h)
    assert triples == set(zip(*(x.tolist() for x in nonzero), h[nonzero].tolist()))
    # Coefficients (0, 2) pick 2 v_1 = p v0 out of the recurrence, with p = H
    v = np.random.default_rng(length).standard_normal(h.shape[0])
    product = _chebyshev_sum((cols, vals), v, np.array([[0.0], [2.0]]))[0]
    np.testing.assert_allclose(product, h @ v, rtol=0.0, atol=1e-14 * np.abs(h @ v).max())
    if length <= 6:
        # Against the Kronecker H: the same nonzero pattern, and every
        # padding entry, where it has none, holds exactly 0.0
        kron = kron_hamiltonian(cfg)
        assert set(zip(rows[live].tolist(), cols[live].tolist())) == set(
            zip(*(x.tolist() for x in np.nonzero(kron)))
        )
        assert np.all(vals[kron[rows, cols] == 0.0] == 0.0)


def bit_rule_product(cfg, v):
    """H v from the bits of each index, with no bands: the ZZ diagonal,
    then the coupling times v[idx ^ mask] for each site (TFI) or each
    antiparallel bond (XXZ)."""
    L, J = cfg.length, cfg.coupling
    idx = np.arange(2**L)
    spins = (idx[:, None] >> (L - 1 - np.arange(L))) & 1  # column i is site i
    anti = spins[:, :-1] ^ spins[:, 1:]
    zz = (1 - 2 * anti).sum(axis=1)
    if cfg.model == "tfi":
        return -J * zz * v - cfg.field_strength * sum(v[idx ^ (1 << i)] for i in range(L))
    hops = sum(anti[:, i] * v[idx ^ (3 << (L - 2 - i))] for i in range(L - 1))
    return J * cfg.anisotropy * zz * v + 2 * J * hops


@pytest.mark.parametrize("length", range(2, MAX_LENGTH + 1))
@pytest.mark.parametrize("model", ["tfi", "xxz"])
@pytest.mark.parametrize("coupling, field_strength, anisotropy", EDGE_COUPLINGS)
def test_banded_product_matches_the_bit_rule_reference(
    length, model, coupling, field_strength, anisotropy
):
    # The recurrence's product with the bands against H v built from the
    # bits alone.  With h = 0 or Delta = 0 the rows hold different numbers
    # of nonzero entries, some none, so the zero values of the bands take part
    cfg = QuenchConfig(
        model=model, length=length, cut=1, tmax=1.0, steps=1, coupling=coupling,
        field_strength=field_strength, anisotropy=anisotropy,
    )
    v = np.random.default_rng(length).standard_normal(2**length)
    reference = bit_rule_product(cfg, v)
    # Coefficients (0, 2) pick 2 v_1 = p v0 out of the recurrence, with p = H
    product = _chebyshev_sum(hamiltonian_bands(cfg), v, np.array([[0.0], [2.0]]))[0]
    np.testing.assert_allclose(
        product, reference, rtol=0.0, atol=1e-14 * np.abs(reference).max()
    )


@pytest.mark.parametrize("model", ["tfi", "xxz"])
def test_trajectory_allocates_no_dense_hamiltonian(model):
    # The dense H of L = 11 alone is 32 MiB; the peak is 1.3 MiB (TFI, all
    # 2048 states reached) and 0.7 MiB (XXZ, 462 states)
    cfg = QuenchConfig(model=model, length=11, cut=5, tmax=1.0, steps=1)
    tracemalloc.start()
    try:
        quench_trajectory(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 4**cfg.length / 2


def test_trajectory_peak_memory_over_ket_bytes():
    # TFI, cut 1: the peak is in the recurrence, whose buffer, sum and bands
    # read 3.46 (L = 12, 71 terms) and 3.73 (L = 14, 79 terms) times the bytes
    # of the 21 kets.  One gemm takes all terms, as their buffer is no larger
    # than one of _CHUNK + 2 v_m and the product of a second chunk's gemm (42
    # rows, the kets' bytes); two chunks read 4.29 and 4.37, and 4.92 at L = 12
    # when the sum started from zeros and the full-space bands lived through
    # the recurrence.  One more complex temporary of the kets' size would add
    # 1.  Before Python 3.11 the caller's stack holds a call's arguments until
    # it returns, so the full-space bands (0.62 and 0.71 times the kets) live
    # through the recurrence there
    for length in (12, 14):
        cfg = QuenchConfig(model="tfi", length=length, cut=1, tmax=2.0, steps=20)
        cols, vals = hamiltonian_bands(cfg)
        held = cols.nbytes + vals.nbytes if sys.version_info < (3, 11) else 0
        del cols, vals
        quench_trajectory(cfg)
        tracemalloc.start()
        try:
            quench_trajectory(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.0 * (cfg.steps + 1) * 2**cfg.length * 16 + held


@pytest.mark.parametrize("model", ["tfi", "xxz"])
def test_validate_stack_gets_a_view_of_the_kets(monkeypatch, model):
    # The kets are written once, by _evolve; validate_stack's copy is the only other
    evolved, handed = [], []
    evolve, validate = espent.quench._evolve, espent.quench.validate_stack

    def evolve_spy(*args):
        evolved.append(evolve(*args))
        return evolved[-1]

    def validate_spy(raw, **kwargs):
        handed.append(raw)
        return validate(raw, **kwargs)

    monkeypatch.setattr(espent.quench, "_evolve", evolve_spy)
    monkeypatch.setattr(espent.quench, "validate_stack", validate_spy)
    quench_trajectory(QuenchConfig(model=model, length=9, cut=4, tmax=2.0, steps=20))
    (kets,), (stack,) = evolved, handed
    assert kets.shape == (2**9, 21) and stack.shape == (21, 2**4, 2**5)
    assert np.shares_memory(stack, kets) and stack.flags.c_contiguous


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("model", ["tfi", "xxz"])
def test_chunked_sums_match_one_gemm(monkeypatch, model, chunk):
    # At L = 9 one gemm takes all 59 or 60 terms; chunks of 1 and 3 hand
    # the last two v_m on to every next chunk and add each gemm to the sum
    cfg = QuenchConfig(model=model, length=9, cut=1, tmax=2.0, steps=20)
    times = np.linspace(0.0, cfg.tmax, cfg.steps + 1)
    psi0 = initial_product_state(cfg)
    reference = _evolve(hamiltonian_bands(cfg), spectral_interval(cfg), psi0, times)
    monkeypatch.setattr(espent.quench, "_CHUNK", chunk)
    kets = _evolve(hamiltonian_bands(cfg), spectral_interval(cfg), psi0, times)
    np.testing.assert_allclose(kets, reference, rtol=0.0, atol=1e-14)
    assert np.array_equal(kets[:, 0], psi0) and not kets[:, 0].imag.any()


@pytest.mark.parametrize(
    "length, cut", [(6, 1), (6, 3), (7, 2), (7, 6), (8, 4), (9, 1), (9, 4), (9, 8)]
)
@pytest.mark.parametrize("model", ["tfi", "xxz"])
def test_trajectory_reports_match_analyze_per_ket(model, length, cut):
    # One analyze_batch call over the trajectory gives each time point the
    # bytes of analyze on its own ket
    cfg = QuenchConfig(model=model, length=length, cut=cut, tmax=2.0, steps=8)
    options = AnalysisOptions(r_max=3)
    times = np.linspace(0.0, cfg.tmax, cfg.steps + 1)
    psi0 = initial_product_state(cfg)
    kets = _evolve(hamiltonian_bands(cfg), spectral_interval(cfg), psi0, times)
    for (t, report), ket, t_ref in zip(quench_trajectory(cfg, options), kets.T, times):
        state = validate_state(ket.reshape(2**cut, -1))
        assert t == t_ref
        assert json.dumps(report.to_dict()) == json.dumps(analyze(state, options).to_dict())


def assert_matches_kron_evolution(cfg, r_max):
    """Each report's spectrum, ESPs and S_vN against dense eigh of kron_hamiltonian."""
    h = kron_hamiltonian(cfg)
    assert not h.imag.any()
    evals, evecs = np.linalg.eigh(h.real)
    L = cfg.length
    psi0 = np.zeros(2**L)
    # up: all bits 0; Neel: spin down (bit 1) on the odd sites, site i is bit L-1-i
    psi0[0 if cfg.initial == "up" else sum(1 << (L - 1 - i) for i in range(1, L, 2))] = 1.0
    coeffs = evecs.T @ psi0
    n = 2**cfg.cut
    for t, report in quench_trajectory(cfg, AnalysisOptions(r_max=r_max)):
        psi = evecs @ (np.exp(-1j * evals * t) * coeffs)
        spec = np.linalg.svd(psi.reshape(n, -1), compute_uv=False) ** 2
        # np.poly gives prod (x - p) = sum_k (-1)^k e_k x^(n-k)
        esp = np.poly(spec)[1:] * (-1.0) ** np.arange(1, n + 1)
        np.testing.assert_allclose(report.spectrum, spec, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(report.esp, esp, rtol=0.0, atol=1e-10)
        p = spec[spec > 0.0]
        assert report.entropies["von_neumann_direct"] == pytest.approx(
            -np.sum(p * np.log(p)), abs=1e-10
        )


@pytest.mark.parametrize("model", ["tfi", "xxz"])
def test_trajectory_matches_kron_reference_evolution(model):
    cfg = QuenchConfig(
        model=model, length=8, cut=3, tmax=1.5, steps=3, coupling=0.7,
        field_strength=1.3, anisotropy=-0.4,
    )
    assert_matches_kron_evolution(cfg, r_max=2)


@pytest.mark.parametrize("length", [7, 8])
@pytest.mark.parametrize("initial", ["up", "neel"])
@pytest.mark.parametrize("model", ["tfi", "xxz"])
def test_sector_evolution_matches_kron_reference(model, initial, length):
    # Each reached set: every state (TFI), the S^z sector of the Neel state
    # (XXZ), and one state (XXZ all up), at even and odd L
    cfg = QuenchConfig(
        model=model, length=length, cut=3, tmax=1.5, steps=3, coupling=0.7,
        field_strength=1.3, anisotropy=-0.4, initial=initial,
    )
    assert_matches_kron_evolution(cfg, r_max=2)


@pytest.mark.parametrize(
    "model, length, size", [("tfi", 9, 512), ("xxz", 9, 126), ("tfi", 12, 4096), ("xxz", 12, 924)]
)
def test_chebyshev_runs_only_on_the_states_psi0_reaches(monkeypatch, model, length, size):
    # TFI reaches every basis state; the XXZ Neel state only its S^z sector
    sizes = []
    chebyshev_sum = espent.quench._chebyshev_sum

    def spy(p, v0, table):
        sizes.append(v0.size)
        return chebyshev_sum(p, v0, table)

    monkeypatch.setattr(espent.quench, "_chebyshev_sum", spy)
    quench_trajectory(QuenchConfig(model=model, length=length, cut=1, tmax=1.0, steps=1))
    assert sizes == [size]


# (J, h, Delta): the defaults, h = 0 with Delta > 1 and J < 0, and Delta = 0
BLOCK_COUPLINGS = [(1.0, 1.0, 1.0), (-1.1, 0.0, 2.5), (0.7, 1.3, 0.0)]


@pytest.mark.parametrize(
    "length, cut, coupling, field_strength, anisotropy",
    [(9, 1, *c) for c in BLOCK_COUPLINGS]
    + [(9, 4, *c) for c in BLOCK_COUPLINGS]
    + [(10, 5, *BLOCK_COUPLINGS[0])],
)
@pytest.mark.parametrize("model", ["tfi", "xxz"])
def test_block_evolution_matches_kron_reference(
    length, cut, coupling, field_strength, anisotropy, model
):
    # The evolution on the states psi0 reaches must give the same
    # trajectory as the full space
    cfg = QuenchConfig(
        model=model, length=length, cut=cut, tmax=1.5, steps=3, coupling=coupling,
        field_strength=field_strength, anisotropy=anisotropy,
    )
    assert_matches_kron_evolution(cfg, r_max=3)


def evolve_by_sector_eigh(rows, cols, vals, psi0, times):
    """Reference kets: the spin-flip x reflection sectors of the states psi0
    reaches, each diagonalized by a real eigh.

    G is the subgroup of {1, F, R, FR} that maps the reached set onto itself.
    The sector basis is c_r sum_g chi(g) |g r>, c_r = (|G| |Stab r|)^(-1/2),
    where H_chi[r, r'] = |G| c_r c_r' sum_g chi(g) H[r, g r'] is symmetric."""
    dim, length = psi0.size, psi0.size.bit_length() - 1
    idx = np.arange(dim)
    refl = sum(((idx >> i) & 1) << (length - 1 - i) for i in range(length))
    reached = frontier = psi0 != 0
    while frontier.any():
        grown = np.zeros(dim, dtype=bool)
        grown[cols[frontier[rows]]] = True
        frontier = grown & ~reached
        reached = reached | frontier
    elements = ((idx, 0, 0), (idx ^ (dim - 1), 1, 0), (refl, 0, 1), (refl ^ (dim - 1), 1, 1))
    group = [(g, i, j) for g, i, j in elements if reached[g[reached]].all()]
    k = np.flatnonzero(reached)
    reps = k[np.min([g[k] for g, _, _ in group], axis=0) == k]
    orbit = np.array([g[reps] for g, _, _ in group])
    stab = orbit == reps
    chars = {tuple(a**i * b**j for _, i, j in group) for a in (1, -1) for b in (1, -1)}
    kets = np.zeros((dim, times.size), dtype=complex)
    for signs in chars:
        chi = np.array(signs, dtype=float)[:, None]
        gr = orbit[:, ~(stab & (chi < 0)).any(axis=0)]
        c = 1.0 / np.sqrt(len(group) * (gr == gr[0]).sum(axis=0))
        a = c * (chi * psi0[gr]).sum(axis=0)
        pos = np.full(dim, -1)
        pos[gr[0]] = np.arange(gr.shape[1])
        block = np.zeros((gr.shape[1],) * 2)
        for x, (g, _, _) in zip(chi[:, 0], group):
            hit = np.flatnonzero((pos[rows] >= 0) & (pos[g[cols]] >= 0))
            block[pos[rows[hit]], pos[g[cols[hit]]]] += x * vals[hit]
        evals, evecs = np.linalg.eigh(len(group) * np.outer(c, c) * block)
        a_t = c[:, None] * (evecs @ (np.exp(-1j * np.outer(evals, times)) * (evecs.T @ a)[:, None]))
        for x, rows_g in zip(chi[:, 0], gr):
            kets[rows_g] += x * a_t
    return kets


def assert_matches_sector_eigh(cfg, per_radian=0.0):
    """Kets within 1e-13 + per_radian x of the eigh reference, x = ||H||_inf tmax
    the most phase any eigenvalue turns through; psi(0) = psi0 bitwise, norms 1 to 1e-13."""
    times = np.linspace(0.0, cfg.tmax, cfg.steps + 1)
    psi0 = initial_product_state(cfg)
    kets = _evolve(hamiltonian_bands(cfg), spectral_interval(cfg), psi0, times)
    h = build_hamiltonian(cfg)
    rows, cols = np.nonzero(h)
    x = cfg.tmax * np.abs(h).sum(axis=1).max()
    np.testing.assert_allclose(
        kets, evolve_by_sector_eigh(rows, cols, h[rows, cols], psi0, times), rtol=0.0,
        atol=1e-13 + per_radian * x,
    )
    assert np.array_equal(kets[:, 0], psi0)
    np.testing.assert_allclose(np.linalg.norm(kets, axis=0), 1.0, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("coupling, field_strength, anisotropy", BLOCK_COUPLINGS)
@pytest.mark.parametrize("length", [9, 10])
@pytest.mark.parametrize("initial", ["up", "neel"])
@pytest.mark.parametrize("model", ["tfi", "xxz"])
def test_chebyshev_kets_match_sector_eigh(
    model, initial, length, coupling, field_strength, anisotropy
):
    cfg = QuenchConfig(
        model=model, length=length, cut=1, tmax=2.0, steps=20, coupling=coupling,
        field_strength=field_strength, anisotropy=anisotropy, initial=initial,
    )
    assert_matches_sector_eigh(cfg)


small_couplings = st.floats(-3.0, 3.0)


@settings(max_examples=80, deadline=None)
@given(
    length=st.integers(2, 8), model=st.sampled_from(["tfi", "xxz"]),
    initial=st.sampled_from(["up", "neel"]), tmax=st.floats(0.0, 5.0), steps=st.integers(1, 6),
    coupling=small_couplings, field_strength=small_couplings, anisotropy=small_couplings,
)
def test_chebyshev_kets_match_sector_eigh_property(
    length, model, initial, tmax, steps, coupling, field_strength, anisotropy
):
    cfg = QuenchConfig(
        model=model, length=length, cut=1, tmax=tmax, steps=steps, coupling=coupling,
        field_strength=field_strength, anisotropy=anisotropy, initial=initial,
    )
    # Both routes round the phase of each eigenvalue, eps per radian: over
    # 4500 random draws the kets differed by up to 1.3e-13 at x near 300,
    # where the eigh reference itself was up to 1.1e-13 off scipy's expm and
    # the Chebyshev kets 3e-14
    assert_matches_sector_eigh(cfg, per_radian=1e-15)


@pytest.mark.parametrize(
    "model, coupling, field_strength, tmax",
    [
        ("tfi", 0.0, 0.0, 3.0), ("xxz", 0.0, 1.0, 3.0),
        ("tfi", 1.0, 1.0, 0.0), ("xxz", 1.0, 1.0, 0.0),
    ],
)
def test_zero_hamiltonian_and_zero_tmax_keep_psi0(model, coupling, field_strength, tmax):
    # H = 0 has no nonzero entries and the interval [0, 0]; tmax = 0 has
    # every time at 0.  Either way each ket is psi0, bitwise
    cfg = QuenchConfig(
        model=model, length=6, cut=3, tmax=tmax, steps=4, coupling=coupling,
        field_strength=field_strength,
    )
    times = np.linspace(0.0, cfg.tmax, cfg.steps + 1)
    psi0 = initial_product_state(cfg)
    if coupling == field_strength == 0.0:
        assert spectral_interval(cfg) == (0.0, 0.0)
    kets = _evolve(hamiltonian_bands(cfg), spectral_interval(cfg), psi0, times)
    assert np.array_equal(kets, np.repeat(psi0[:, None], times.size, axis=1))
    for _, report in quench_trajectory(cfg, AnalysisOptions(r_max=2)):
        assert report.entropies["von_neumann_direct"] == 0.0


@pytest.mark.parametrize("x", [0.0, 1e-3, 0.7, 8.0, 34.0, 46.0, 300.0])
def test_chebyshev_coefficients_are_bessel_values_with_the_tail_below_bound(x):
    # c_m = (2 - delta_m0) (-i)^m J_m(x) at center 0 against 30-digit
    # Bessel values, and 2 sum_{m >= terms} |J_m(x)| <= TAIL
    terms = _chebyshev_terms(x)
    table = _chebyshev_table(0.0, x, np.array([0.0, 1.0]), terms)
    c = table[:, 1] + 1j * table[:, 3]
    with mp.workdps(30):
        ref = [complex((2 - (m == 0)) * (-1j) ** m * mp.besselj(m, x)) for m in range(terms)]
        tail = 2 * sum(abs(mp.besselj(m, x)) for m in range(terms, terms + 200))
    # exp(-i x cos(theta)) is sampled with its phase rounded to about eps x
    np.testing.assert_allclose(c, ref, rtol=0.0, atol=1e-15 + 1e-16 * x)
    assert tail <= TAIL
    assert table[0, 0] == 1.0 and not table[1:, 0].any() and not table[:, 2].any()


@pytest.mark.parametrize(
    "tmax, steps, message",
    [(1e9, 20, "over 16384 Chebyshev terms for 21 times"),
     (250.0, 4095, "needs 5374 Chebyshev terms for 4096 times")],
)
def test_term_bound_fires_before_any_block(monkeypatch, tmax, steps, message):
    # Too many terms, or a coefficient table of terms x times beyond
    # MAX_AMPLITUDES, refuse before the table, which comes before the recurrence
    def fail(*args):
        raise AssertionError("built")

    monkeypatch.setattr(espent.quench, "_chebyshev_table", fail)
    cfg = QuenchConfig(model="tfi", length=12, cut=6, tmax=tmax, steps=steps)
    bands, interval = hamiltonian_bands(cfg), spectral_interval(cfg)
    with pytest.raises(TooLargeError, match=message):
        _evolve(bands, interval, initial_product_state(cfg), np.linspace(0.0, tmax, steps + 1))


def assert_interval_holds_the_spectrum(cfg):
    """The cluster bound encloses H's eigenvalues, and it is never wider than
    H's Gershgorin interval by more than its pad, which is at most _PAD times
    the sum of the terms' norms, itself at most Gershgorin's width."""
    lo, hi = spectral_interval(cfg)
    h = build_hamiltonian(cfg)
    evals = np.linalg.eigvalsh(h)
    assert lo <= evals[0] and evals[-1] <= hi
    diag = np.diag(h)
    radius = np.abs(h).sum(axis=1) - np.abs(diag)
    width = (diag + radius).max() - (diag - radius).min()
    assert hi - lo <= width * (1.0 + 2.0 * _PAD)


couplings_or_zero = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))


@settings(max_examples=150, deadline=None)
@given(
    length=st.integers(2, 10), model=st.sampled_from(["tfi", "xxz"]),
    coupling=couplings_or_zero, field_strength=couplings_or_zero, anisotropy=couplings_or_zero,
)
# Subnormal couplings, where the weights and the pad underflow unless the windows are
# scaled: the first two spectra, +-2e-323 and +-1.5e-323, are Gershgorin's intervals too
@example(length=4, model="tfi", coupling=0.0, field_strength=5e-324, anisotropy=1.0)
@example(length=4, model="tfi", coupling=5e-324, field_strength=0.0, anisotropy=1.0)
@example(length=4, model="xxz", coupling=5e-324, field_strength=0.0, anisotropy=3.0)
def test_spectral_interval_holds_the_spectrum(length, model, coupling, field_strength, anisotropy):
    assert_interval_holds_the_spectrum(QuenchConfig(
        model=model, length=length, cut=1, tmax=1.0, steps=1, coupling=coupling,
        field_strength=field_strength, anisotropy=anisotropy,
    ))


@pytest.mark.parametrize("length", range(2, 11))
@pytest.mark.parametrize("model", ["tfi", "xxz"])
@pytest.mark.parametrize("coupling, field_strength, anisotropy", [(1.0, 1.0, 1.0)] + EDGE_COUPLINGS)
def test_spectral_interval_holds_the_spectrum_at_edge_couplings(
    length, model, coupling, field_strength, anisotropy
):
    assert_interval_holds_the_spectrum(QuenchConfig(
        model=model, length=length, cut=1, tmax=1.0, steps=1, coupling=coupling,
        field_strength=field_strength, anisotropy=anisotropy,
    ))


@pytest.mark.parametrize("length", [2, 3])
@pytest.mark.parametrize("model", ["tfi", "xxz"])
@pytest.mark.parametrize("coupling, field_strength, anisotropy", [(1.0, 1.0, 1.0)] + EDGE_COUPLINGS)
def test_spectral_interval_is_exact_on_one_window(
    length, model, coupling, field_strength, anisotropy
):
    # Up to 3 sites one window holds all of H, with every weight 1, so the
    # interval is H's extreme eigenvalues widened by the pad alone
    cfg = QuenchConfig(
        model=model, length=length, cut=1, tmax=1.0, steps=1, coupling=coupling,
        field_strength=field_strength, anisotropy=anisotropy,
    )
    evals = np.linalg.eigvalsh(build_hamiltonian(cfg))
    pad = _PAD * np.abs(evals).max()
    lo, hi = spectral_interval(cfg)
    assert evals[0] - 2.0 * pad <= lo <= evals[0] and evals[-1] <= hi <= evals[-1] + 2.0 * pad


@pytest.mark.parametrize(
    "model, length, terms", [("tfi", 9, 59), ("xxz", 9, 60), ("tfi", 12, 71), ("xxz", 12, 74)]
)
def test_chebyshev_order_at_unit_couplings(monkeypatch, model, length, terms):
    # tmax 2: H's Gershgorin interval asked for 75, 72, 92 and 89 terms
    orders = []
    table = espent.quench._chebyshev_table

    def spy(center, half, times, terms):
        orders.append(terms)
        return table(center, half, times, terms)

    monkeypatch.setattr(espent.quench, "_chebyshev_table", spy)
    quench_trajectory(QuenchConfig(model=model, length=length, cut=1, tmax=2.0, steps=20))
    assert orders == [terms]


def test_kets_that_lose_norm_raise(monkeypatch, capsys, caplog):
    # An expansion cut to half its terms loses norm; the kets are not
    # rescaled to hide it, in the library or through the CLI
    terms = espent.quench._chebyshev_terms
    monkeypatch.setattr(espent.quench, "_chebyshev_terms", lambda x: max(1, terms(x) // 2))
    cfg = QuenchConfig(model="tfi", length=6, cut=3, tmax=2.0, steps=4)
    times = np.linspace(0.0, cfg.tmax, cfg.steps + 1)
    psi0 = initial_product_state(cfg)
    kets = _evolve(hamiltonian_bands(cfg), spectral_interval(cfg), psi0, times)
    first = times[np.argmax(abs(np.linalg.norm(kets, axis=0) - 1.0) > 1e-6)]
    # The refusal names the first time point off norm and offers no rescale
    with pytest.raises(NormError, match=f"state norm .* at t = {first} outside") as refused:
        quench_trajectory(cfg)
    assert "renormalize" not in str(refused.value)
    argv = ["--length", "6", "--cut", "3", "--tmax", "2", "--steps", "4"]
    assert main(["quench", "--model", "tfi", *argv]) == EXIT_PARSE
    assert len(caplog.records) == 1 and str(refused.value) in caplog.text
    assert capsys.readouterr().out == ""


finite_couplings = st.floats(-100.0, 100.0)


@settings(max_examples=60, deadline=None)
@given(
    length=st.integers(2, 8), model=st.sampled_from(["tfi", "xxz"]),
    coupling=finite_couplings, field_strength=finite_couplings, anisotropy=finite_couplings,
)
def test_hamiltonian_commutes_with_spin_flip(length, model, coupling, field_strength, anisotropy):
    # F: s -> s ^ (2^L - 1) reverses the index order, so F H F = h[::-1, ::-1];
    # the sector reference relies on it holding exactly
    cfg = QuenchConfig(
        model=model, length=length, cut=1, tmax=1.0, steps=1, coupling=coupling,
        field_strength=field_strength, anisotropy=anisotropy,
    )
    h = build_hamiltonian(cfg)
    assert np.array_equal(h[::-1, ::-1], h)


@settings(max_examples=60, deadline=None)
@given(
    length=st.integers(2, 8), model=st.sampled_from(["tfi", "xxz"]),
    coupling=finite_couplings, field_strength=finite_couplings, anisotropy=finite_couplings,
)
@example(length=4, model="tfi", coupling=0.7, field_strength=1.0, anisotropy=1.0)
def test_hamiltonian_commutes_with_reflection(length, model, coupling, field_strength, anisotropy):
    # R reverses the L bits of an index, so R H R = h[refl][:, refl]; the
    # sector reference relies on it holding exactly, diagonal included
    cfg = QuenchConfig(
        model=model, length=length, cut=1, tmax=1.0, steps=1, coupling=coupling,
        field_strength=field_strength, anisotropy=anisotropy,
    )
    h = build_hamiltonian(cfg)
    idx = np.arange(2**length)
    refl = sum(((idx >> i) & 1) << (length - 1 - i) for i in range(length))
    assert np.array_equal(h[np.ix_(refl, refl)], h)


def _z_field_on_site_0(h, L):
    # Z_0 is +1/-1 by the top bit, which F flips: F H F differs on the diagonal
    h[np.diag_indices(2**L)] += 0.3 * (1.0 - 2.0 * (np.arange(2**L) >> (L - 1)))


def _asymmetric_flip_hop(h, L):
    # A symmetric hop 0 <-> 2^(L-1) whose image 2^L-1 <-> 2^(L-1)-1 under F is
    # absent: F H F differs off the diagonal only
    h[0, 2 ** (L - 1)] += 0.3
    h[2 ** (L - 1), 0] += 0.3


def _bond_0_zz(h, L):
    # 0.3 Z_0 Z_1 on bond 0 only: F keeps it, R moves it to bond L - 2
    idx = np.arange(2**L)
    h[idx, idx] += 0.3 * (1.0 - 2.0 * (((idx >> (L - 1)) ^ (idx >> (L - 2))) & 1))


def _perturbed_bands(perturb, config):
    """hamiltonian_bands with perturb applied to the dense matrix they fill, as
    one band for the diagonal and one for each XOR mask that holds an entry."""
    h = build_hamiltonian(config)
    perturb(h, config.length)
    rows, cols = np.nonzero(h)
    idx = np.arange(h.shape[0])
    band_cols = idx ^ np.union1d(0, rows ^ cols)[:, None]
    return band_cols, h[idx, band_cols]


def _assert_symmetric(length, cols, vals):
    """F and R map H's bands onto bands: g H g = H exactly, for g a permutation.

    Band w holds (r, r ^ m_w).  F r = r ^ (2^L - 1) gives F r ^ m = F (r ^ m),
    so F keeps each band and moves its rows; R reverses the bits, so
    R (r ^ m) = R r ^ R m and R takes band m to band R m, or to a zero band
    where no band holds R m.  Each check is elementwise, linear in 2^L."""
    dim = 2**length
    idx = np.arange(dim)
    refl = sum(((idx >> i) & 1) << (length - 1 - i) for i in range(length))
    masks = cols[:, 0]
    assert np.array_equal(cols, idx ^ masks[:, None]) and np.unique(masks).size == masks.size
    assert np.array_equal(vals[:, idx ^ (dim - 1)], vals), "spin flip"
    band = np.full(dim, masks.size)
    band[masks] = np.arange(masks.size)
    image = np.vstack([vals, np.zeros(dim)])[band[refl[masks]]]
    assert np.array_equal(image[:, refl], vals), "reflection"


@pytest.mark.parametrize("length", range(2, MAX_LENGTH + 1))
@pytest.mark.parametrize("model", ["tfi", "xxz"])
@pytest.mark.parametrize("coupling, field_strength, anisotropy", [(1.0, 1.0, 1.0)] + EDGE_COUPLINGS)
def test_triples_commute_with_spin_flip_and_reflection(
    length, model, coupling, field_strength, anisotropy
):
    # evolve_by_sector_eigh, the reference for the kets, relies on both
    # symmetries and does not re-check them; the proof runs on the bands,
    # with no sort, so its cost grows as 2^L
    cfg = QuenchConfig(
        model=model, length=length, cut=1, tmax=1.0, steps=1, coupling=coupling,
        field_strength=field_strength, anisotropy=anisotropy,
    )
    _assert_symmetric(length, *hamiltonian_bands(cfg))


# The proof above must refuse bit rules that break a symmetry
@pytest.mark.parametrize("perturb", [_z_field_on_site_0, _asymmetric_flip_hop])
@pytest.mark.parametrize("model", ["tfi", "xxz"])
def test_non_commuting_hamiltonian_raises(perturb, model):
    cfg = QuenchConfig(model=model, length=4, cut=2, tmax=1.0, steps=2)
    with pytest.raises(AssertionError, match="spin flip"):
        _assert_symmetric(4, *_perturbed_bands(perturb, cfg))


@pytest.mark.parametrize("model", ["tfi", "xxz"])
def test_reflection_breaking_hamiltonian_raises(model):
    cfg = QuenchConfig(model=model, length=4, cut=2, tmax=1.0, steps=2)
    with pytest.raises(AssertionError, match="reflection"):
        _assert_symmetric(4, *_perturbed_bands(_bond_0_zz, cfg))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["coupling", "field_strength", "anisotropy"])
def test_non_finite_couplings_rejected(field, value):
    with pytest.raises(InvalidOptionError, match=field):
        QuenchConfig(model="xxz", length=4, cut=2, tmax=1.0, steps=2, **{field: value})


@pytest.mark.parametrize("coupling, anisotropy", [(1e200, 1e200), (-1e200, 1e200), (1e300, 1e10)])
def test_coupling_times_anisotropy_overflow_refused(coupling, anisotropy):
    # J Delta is XXZ's ZZ coupling: an overflow would make H's diagonal inf
    with pytest.raises(TooLargeError, match="overflows a float"):
        QuenchConfig(model="xxz", length=4, cut=2, tmax=1.0, steps=2, coupling=coupling,
                     anisotropy=anisotropy)
    # TFI has no Delta
    QuenchConfig(model="tfi", length=4, cut=2, tmax=1.0, steps=2, coupling=coupling,
                 anisotropy=anisotropy)


@pytest.mark.parametrize("model", ["tfi", "xxz"])
def test_huge_finite_coupling_meets_the_term_bound(model):
    cfg = QuenchConfig(model=model, length=4, cut=2, tmax=1.0, steps=2, coupling=1e160)
    with pytest.raises(TooLargeError, match="Chebyshev terms"):
        quench_trajectory(cfg)


def test_initial_states():
    cfg = QuenchConfig(model="tfi", length=4, cut=2, tmax=1.0, steps=2)
    psi = initial_product_state(cfg)
    assert psi[0] == 1.0 and np.linalg.norm(psi) == 1.0
    cfg = QuenchConfig(model="xxz", length=4, cut=2, tmax=1.0, steps=2)
    psi = initial_product_state(cfg)
    assert psi[int("0101", 2)] == 1.0


def test_product_initial_state_has_zero_entropy():
    cfg = QuenchConfig(model="tfi", length=5, cut=2, tmax=0.5, steps=2)
    traj = quench_trajectory(cfg, AnalysisOptions(r_max=3))
    t0, report = traj[0]
    assert t0 == 0.0
    assert report.entropies["von_neumann_direct"] == pytest.approx(0.0, abs=1e-10)
    for v in report.entropies["s_r"].values():
        assert v == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("model", ["tfi", "xxz"])
def test_s_1_is_positive_zero_along_a_quench(model):
    cfg = QuenchConfig(model=model, length=8, cut=4, tmax=2.0, steps=10)
    for _, report in quench_trajectory(cfg, AnalysisOptions()):
        s_1 = report.entropies["s_r"]["1"]
        assert math.copysign(1.0, s_1) == 1.0 and s_1 == 0.0


def test_zero_field_conserves_initial_entropies():
    # |up...up> is a Z-basis product state; with h=0 the TFI Hamiltonian is
    # diagonal in Z, so the state only picks up a phase
    cfg = QuenchConfig(
        model="tfi", length=4, cut=2, tmax=2.0, steps=4, field_strength=0.0
    )
    traj = quench_trajectory(cfg, AnalysisOptions(r_max=2))
    for _, report in traj:
        assert report.entropies["von_neumann_direct"] == pytest.approx(0.0, abs=1e-10)


def test_quench_ladder_and_growth():
    cfg = QuenchConfig(model="tfi", length=6, cut=2, tmax=0.8, steps=8)
    opts = AnalysisOptions(r_max=4)
    traj = quench_trajectory(cfg, opts)
    svn = [rep.entropies["von_neumann_direct"] for _, rep in traj]
    # entanglement grows from zero at early times
    assert svn[0] == pytest.approx(0.0, abs=1e-10)
    assert svn[-1] > 0.01
    for _, rep in traj:
        s_r = rep.entropies["s_r"]
        for r in range(2, 4):
            assert s_r[str(r)] <= s_r[str(r + 1)] + 1e-4
        assert s_r["4"] == pytest.approx(rep.entropies["von_neumann_direct"], abs=1e-4)


def assert_matches_the_free_fermion_oracle(length, cut, coupling, tmax, initial):
    # At anisotropy 0 the chain is free fermions: the cut's correlation block
    # gives the Schmidt spectrum without the bit rules, H or its Chebyshev
    # expansion.  e_k of the oracle come from np.poly, not from the package's
    # recurrence.
    cfg = QuenchConfig(
        model="xxz", length=length, cut=cut, tmax=tmax, steps=5, coupling=coupling,
        anisotropy=0.0, initial=initial,
    )
    for t, report in quench_trajectory(cfg):
        nu = free_fermion_modes(length, cut, coupling, initial, t)
        lam = free_fermion_spectrum(nu)
        esp = np.poly(lam)[1:] * (-1.0) ** np.arange(1, lam.size + 1)
        np.testing.assert_allclose(report.spectrum, lam, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(report.esp, esp, rtol=0.0, atol=1e-14)
        assert report.entropies["von_neumann_direct"] == pytest.approx(
            free_fermion_entropy(nu), abs=1e-12
        )


@pytest.mark.parametrize("length", range(2, 13))
@pytest.mark.parametrize("initial", ["neel", "up"])
def test_xx_chain_matches_the_free_fermion_oracle(length, initial):
    # Spectra and ESPs agree to 4.4e-15 at most; S to 1.8e-13, since -x ln x
    # magnifies the spectra's rounding where x is tiny.
    coupling, tmax = [(1.0, 2.0), (-0.7, 3.0), (0.35, 1.5)][length % 3]
    for cut in sorted({1, length // 2, length - 1}):
        assert_matches_the_free_fermion_oracle(length, cut, coupling, tmax, initial)


@st.composite
def xx_quenches(draw):
    """(length, cut, J, tmax, initial) with |J| tmax <= 2.1, the most the fixed
    cases reach: beyond it the ket's own rounding (about terms x eps) can reach
    the bounds."""
    length = draw(st.integers(2, 10))
    tmax = draw(st.floats(0.0, 3.0))
    bound = min(2.0, 2.1 / tmax) if tmax else 2.0
    coupling = draw(st.floats(-bound, bound))
    return length, draw(st.integers(1, length - 1)), coupling, tmax, draw(
        st.sampled_from(["neel", "up"])
    )


@settings(max_examples=150, deadline=None)
@given(quench=xx_quenches())
def test_xx_chain_matches_the_free_fermion_oracle_at_drawn_couplings(quench):
    assert_matches_the_free_fermion_oracle(*quench)


def test_xxz_neel_quench_runs():
    cfg = QuenchConfig(model="xxz", length=4, cut=2, tmax=0.5, steps=3)
    traj = quench_trajectory(cfg, AnalysisOptions(r_max=2))
    assert len(traj) == 4
    assert traj[-1][1].entropies["von_neumann_direct"] > 0.0

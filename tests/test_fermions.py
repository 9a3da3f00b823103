import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import espent.fermions
from espent import (
    OrderOutOfRangeError,
    TooLargeError,
    TwoFermionJointState,
    WrongPortDomainError,
    beamsplitter_transform,
    build_two_copy_state,
    bunching_probability,
    esp_from_spectrum,
    fermionic_encoding_probability,
    random_haar_state,
    reduced_density_matrix,
    schmidt_spectrum,
    spectrum,
    validate_state,
)
from conftest import random_product_state
from oracles import antisym_weight

# Dense reference: the 2n modes are (port, level) with port index 0, 1 for
# ports 1, 2 at the input and 3, 4 at the output.  The state is
# (1/2) sum A[m1, m2, i1, i2] c+_m1 c+_m2 with A antisymmetric in (m1, m2),
# and the 50:50 splitter acts as S (x) I_n on each mode axis.
_S = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)


def _dense_from_blocks(terms, n, d, ports):
    lo, hi = ports
    a = np.zeros((2 * n, 2 * n, d, d), dtype=complex)
    for (p, q), x in terms.items():
        sp, sq = slice(n * (p - lo), n * (p - lo + 1)), slice(n * (q - lo), n * (q - lo + 1))
        if p == q:
            a[sp, sp] = x
        else:
            a[sp, sq] = x
            a[sq, sp] = -x.swapaxes(0, 1)
    return a


def _dense_transform(terms, n, d):
    a = _dense_from_blocks(terms, n, d, (1, 2))
    u = np.kron(_S, np.eye(n))
    out = np.einsum("xm,yn,mnik->xyik", u, u, a)
    return {(3, 3): out[:n, :n], (3, 4): out[:n, n:], (4, 4): out[n:, n:]}


def _assert_matches_dense(js, n, d):
    out = beamsplitter_transform(js)
    ref = _dense_transform(js.terms, n, d)
    for key, x in ref.items():
        np.testing.assert_allclose(out.terms.get(key, np.zeros_like(x)), x, rtol=0, atol=1e-12)
    p_ref = 0.5 * (np.linalg.norm(ref[(3, 3)]) ** 2 + np.linalg.norm(ref[(4, 4)]) ** 2)
    assert bunching_probability(out) == pytest.approx(p_ref, abs=1e-12)
    total_in = 0.5 * np.linalg.norm(_dense_from_blocks(js.terms, n, d, (1, 2))) ** 2
    assert out.total_norm_squared() == pytest.approx(total_in, abs=1e-12)


def _random_block(rng, n, d, antisymmetric):
    x = rng.standard_normal((n, n, d, d)) + 1j * rng.standard_normal((n, n, d, d))
    return x - x.swapaxes(0, 1) if antisymmetric else x


def _haar_unitary(k, rng):
    z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_build_two_copy_bell(bell_state):
    js = build_two_copy_state(bell_state)
    assert list(js.terms) == [(1, 2)]
    x = js.terms[(1, 2)]
    assert x.shape == (2, 2, 2, 2)
    for a in range(2):
        for b in range(2):
            assert np.vdot(x[a, b], x[a, b]).real == pytest.approx(0.25, abs=1e-12)
    assert js.total_norm_squared() == pytest.approx(1.0, abs=1e-10)


def test_build_two_copy_trivial_level():
    s = validate_state(np.array([[0.6, 0.8]]))
    js = build_two_copy_state(s)
    assert list(js.terms) == [(1, 2)]
    assert js.terms[(1, 2)].shape == (1, 1, 2, 2)


def test_build_two_copy_product_env_structure():
    s = random_product_state(3, 4, seed=0)
    js = build_two_copy_state(s)
    b = s.amplitudes[np.argmax(np.linalg.norm(s.amplitudes, axis=1))]
    ref = np.kron(b, b)
    ref = ref / np.linalg.norm(ref)
    x = js.terms[(1, 2)]
    for j1 in range(3):
        for j2 in range(3):
            env = x[j1, j2].ravel()
            overlap = abs(np.vdot(ref, env))
            assert overlap == pytest.approx(np.linalg.norm(env), abs=1e-12)


def test_build_two_copy_layout():
    # Entry [a, b, i1, i2]: copy 1 in level a with environment i1, copy 2 in b with i2.
    s = random_haar_state(3, 4, seed=3)
    x = build_two_copy_state(s).terms[(1, 2)]
    for a in range(3):
        for b in range(3):
            np.testing.assert_allclose(
                x[a, b].ravel(), np.kron(s.amplitudes[a], s.amplitudes[b]), rtol=0, atol=1e-15
            )


def test_port_swap_sign_and_exclusion():
    # b+_(1,0) b+_(2,1): the (4, 3) term is reordered into block (3, 4)
    # with a minus sign; same-port terms vanish on the level diagonal.
    x = np.zeros((2, 2, 1, 1), dtype=complex)
    x[0, 1] = 1.0
    out = beamsplitter_transform(TwoFermionJointState(d=1, terms={(1, 2): x}))
    e01 = np.zeros((2, 2, 1, 1))
    e01[0, 1] = 1.0
    e10 = e01.swapaxes(0, 1)
    np.testing.assert_allclose(out.terms[(3, 4)], 0.5 * (e01 + e10), rtol=0, atol=1e-15)
    np.testing.assert_allclose(out.terms[(3, 3)], 0.5 * (e01 - e10), rtol=0, atol=1e-15)
    np.testing.assert_allclose(out.terms[(4, 4)], -0.5 * (e01 - e10), rtol=0, atol=1e-15)
    for key in [(3, 3), (4, 4)]:
        assert not out.terms[key][[0, 1], [0, 1]].any()
    with pytest.raises(ValueError):
        TwoFermionJointState(d=1, terms={(2, 1): x})
    with pytest.raises(ValueError):
        TwoFermionJointState(d=2, terms={(1, 2): x})


def test_same_port_blocks_antisymmetric_views():
    out = beamsplitter_transform(build_two_copy_state(random_haar_state(4, 3, seed=5)))
    for key in [(3, 3), (4, 4)]:
        x = out.terms[key]
        np.testing.assert_array_equal(x, -x.swapaxes(0, 1))
        np.testing.assert_array_equal(np.diagonal(x, axis1=0, axis2=1), 0.0)
    again = TwoFermionJointState(d=out.d, terms=out.terms)
    for key, x in out.terms.items():
        assert np.shares_memory(again.terms[key], x)
        assert not again.terms[key].flags.writeable


def test_build_two_copy_rejects_oversized():
    s = validate_state(np.ones((1, 4097)) / np.sqrt(4097.0))
    with pytest.raises(TooLargeError):
        build_two_copy_state(s)
    with pytest.raises(TooLargeError, match="exceeds 4096"):
        fermionic_encoding_probability(s)


def _whole_block_probability(s):
    return bunching_probability(beamsplitter_transform(build_two_copy_state(s)))


# fermionic_encoding_probability takes max(1, _TILE // max(n, d)) row pairs
# of the smaller side per chunk.  A budget of 7 or 50 amplitudes gives one
# pair per chunk for max(n, d) > 7 or > 25 and ragged last chunks below;
# _TILE (2^12) holds all pairs in one chunk up to 16x16 and about a quarter
# of them at 32x32, 2^14 all of them at 32x32 too; tile 1 (the property test)
# always gives one pair.
# At 16 and 32 a whole block holds 2^16 to 2^20 amplitudes, where a plain
# sum loses digits.
@pytest.mark.parametrize("tile", [7, 50, 1 << 14, espent.fermions._TILE])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 9, 16, 32])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 9, 16, 32])
def test_tiled_protocol_matches_whole_blocks(monkeypatch, tile, n, d):
    s = random_haar_state(n, d, seed=100 * n + d)
    monkeypatch.setattr(espent.fermions, "_TILE", tile)
    assert abs(fermionic_encoding_probability(s) - _whole_block_probability(s)) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 12),
    d=st.integers(1, 12),
    tile=st.sampled_from([1, 7, 50, 1 << 14]),
    seed=st.integers(0, 2**32 - 1),
)
def test_tiled_protocol_equals_e2_property(n, d, tile, seed):
    s = random_haar_state(n, d, seed)
    e2 = esp_from_spectrum(schmidt_spectrum(s))[2] if n >= 2 else 0.0
    with pytest.MonkeyPatch.context() as m:
        m.setattr(espent.fermions, "_TILE", tile)
        assert fermionic_encoding_probability(s) == pytest.approx(e2, abs=1e-13)


@pytest.mark.parametrize("n", [32, 64])
def test_tiled_protocol_peak_memory(n):
    # One whole port block is 16 MiB at 32x32 and 256 MiB at 64x64.
    s = random_haar_state(n, n, seed=1)
    tracemalloc.start()
    try:
        p = fermionic_encoding_probability(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20
    assert p == pytest.approx(esp_from_spectrum(schmidt_spectrum(s))[2], abs=1e-13)


@pytest.mark.parametrize("n, d", [(4096, 1), (1, 4096), (2048, 2), (2, 2048)])
def test_tall_and_wide_states_peak_memory(n, d):
    # Rows are paired on the smaller side: a 2048x2 state is one pair of
    # 2048-amplitude rows, not two million pairs of levels, and a 4096x1
    # state has no pair at all.
    s = random_haar_state(n, d, seed=n + d)
    tracemalloc.start()
    try:
        p = fermionic_encoding_probability(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20
    if min(n, d) == 1:
        assert p == 0.0
    else:
        assert p == pytest.approx(_minors_probability(s.amplitudes), rel=1e-14, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 24), d=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
def test_transposed_state_bunches_alike_property(n, d, seed):
    # The weight is symmetric under psi -> psi^T, which decides the side whose
    # rows are paired; a zero row adds no area.  The minors sum is the oracle.
    s = random_haar_state(n, d, seed)
    p = fermionic_encoding_probability(s)
    assert abs(fermionic_encoding_probability(validate_state(s.amplitudes.T)) - p) <= 1e-15
    padded = validate_state(np.insert(s.amplitudes, seed % (n + 1), 0.0, axis=0))
    assert abs(fermionic_encoding_probability(padded) - p) <= 1e-15
    assert abs(_minors_probability(s.amplitudes) - p) <= 1e-15


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("d", range(1, 6))
def test_transform_matches_dense_reference_haar(n, d):
    js = build_two_copy_state(random_haar_state(n, d, seed=10 * n + d))
    _assert_matches_dense(js, n, d)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("d", range(1, 6))
def test_same_port_blocks_are_half_antisymmetric_part(n, d):
    # fermionic_encoding_probability reads the bunching weight off this identity
    js = build_two_copy_state(random_haar_state(n, d, seed=10 * n + d + 500))
    x = js.terms[(1, 2)]
    half = 0.5 * (x - x.swapaxes(0, 1))
    out = beamsplitter_transform(js)
    np.testing.assert_allclose(out.terms[(3, 3)], half, rtol=0, atol=1e-15)
    np.testing.assert_allclose(out.terms[(4, 4)], -half, rtol=0, atol=1e-15)


def _minors(psi):
    """Y[a, b, i1, i2] = psi[a, i1] psi[b, i2] - psi[b, i1] psi[a, i2]."""
    n, d = psi.shape
    y = np.zeros((n, n, d, d), dtype=complex)
    for a in range(n):
        for b in range(n):
            for i1 in range(d):
                for i2 in range(d):
                    y[a, b, i1, i2] = psi[a, i1] * psi[b, i2] - psi[b, i1] * psi[a, i2]
    return y


@pytest.mark.parametrize("n, d", [(1, 3), (3, 1), (2, 2), (3, 4), (5, 3), (6, 6)])
def test_same_port_blocks_are_half_minors(n, d):
    # The same-port blocks are +-1/2 the 2x2 minors of psi, antisymmetric in
    # (a, b) and in (i1, i2): the weight is the sum over the distinct minors
    # a < b, i1 < i2, which fermionic_encoding_probability reads as areas.
    s = random_haar_state(n, d, seed=10 * n + d + 700)
    y = _minors(s.amplitudes)
    out = beamsplitter_transform(build_two_copy_state(s))
    for key, sign in [((3, 3), 1.0), ((4, 4), -1.0)]:
        x = out.terms[key]
        np.testing.assert_allclose(x, sign * 0.5 * y, rtol=0, atol=1e-15)
        np.testing.assert_allclose(x, -x.swapaxes(2, 3), rtol=0, atol=1e-15)
    a, b = np.triu_indices(n, 1)
    i1, i2 = np.triu_indices(d, 1)
    weight = sum(abs(y[p, q, j, k]) ** 2 for p, q in zip(a, b) for j, k in zip(i1, i2))
    assert fermionic_encoding_probability(s) == pytest.approx(weight, rel=1e-14, abs=0.0)
    assert bunching_probability(out) == pytest.approx(weight, rel=1e-14, abs=1e-30)
    assert _minors_probability(s.amplitudes) == pytest.approx(weight, rel=1e-14, abs=0.0)


def _minors_probability(psi):
    """The bunching weight minor by minor: each distinct 2x2 minor a < b,
    i1 < i2 once, in chunks of max(1, 2^14 // d) level pairs, one row of minors
    i2 > i1 per i1 and chunk.  O(n^2 d^2); an oracle for the area sum."""
    n, d = psi.shape
    rows_a, rows_b = np.triu_indices(n, 1)
    step = max(1, (1 << 14) // d)
    partials = []
    for s in range(0, len(rows_a), step):
        # (d, c) columns: p[i, k] = psi[a_k, i] and q[i, k] = psi[b_k, i]
        p = psi[rows_a[s : s + step]].T.copy()
        q = psi[rows_b[s : s + step]].T.copy()
        for i in range(d - 1):
            y = p[i] * q[i + 1 :]
            y -= q[i] * p[i + 1 :]
            partials.append(np.vdot(y, y).real)
    return math.fsum(partials)


@pytest.mark.parametrize("n, d", [(1, 1), (1, 5), (1, 64), (5, 1), (64, 1), (4096, 1)])
def test_single_level_or_environment_bunching_is_exactly_zero(n, d):
    # With one level or one environment index there is no 2x2 minor to form.
    s = random_haar_state(n, d, seed=n + d)
    assert fermionic_encoding_probability(s) == 0.0


@pytest.mark.parametrize(
    "keys", [[(1, 1)], [(2, 2)], [(1, 1), (2, 2)], [(1, 1), (1, 2), (2, 2)]]
)
def test_transform_matches_dense_reference_hand_built(keys):
    rng = np.random.default_rng(len(keys))
    for n, d in [(1, 2), (2, 1), (3, 2), (4, 3)]:
        terms = {(p, q): _random_block(rng, n, d, p == q) for p, q in keys}
        _assert_matches_dense(TwoFermionJointState(d=d, terms=terms), n, d)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_bunching_local_unitary_invariance_property(n, d, seed):
    s = random_haar_state(n, d, seed)
    rng = np.random.default_rng(seed)
    moved = validate_state(_haar_unitary(n, rng) @ s.amplitudes @ _haar_unitary(d, rng))
    out = beamsplitter_transform(build_two_copy_state(s))
    assert out.total_norm_squared() == pytest.approx(1.0, abs=1e-12)
    p = bunching_probability(out)
    assert fermionic_encoding_probability(moved) == pytest.approx(p, abs=1e-12)
    e2 = esp_from_spectrum(spectrum(reduced_density_matrix(s)))[2]
    assert p == pytest.approx(e2, abs=1e-12)


def test_beamsplitter_unitary():
    for seed in range(5):
        s = random_haar_state(4, 5, seed)
        out = beamsplitter_transform(build_two_copy_state(s))
        assert out.total_norm_squared() == pytest.approx(1.0, abs=1e-10)
        assert out.ports() <= {3, 4}


def test_beamsplitter_rejects_output_ports():
    s = random_haar_state(2, 2, seed=1)
    out = beamsplitter_transform(build_two_copy_state(s))
    with pytest.raises(WrongPortDomainError):
        beamsplitter_transform(out)


def test_bunching_rejects_input_ports():
    s = random_haar_state(2, 2, seed=2)
    with pytest.raises(WrongPortDomainError):
        bunching_probability(build_two_copy_state(s))


def test_hom_dip_single_level():
    # one internal level: identical fermions never bunch
    s = validate_state(np.array([[0.6, 0.8j]]))
    p = fermionic_encoding_probability(s)
    assert p == pytest.approx(0.0, abs=1e-12)


def test_bunching_bell_is_quarter(bell_state):
    assert fermionic_encoding_probability(bell_state) == pytest.approx(0.25, abs=1e-10)


def test_bunching_product_states_forbidden():
    for seed in range(10):
        s = random_product_state(4, 5, seed)
        assert fermionic_encoding_probability(s) == pytest.approx(0.0, abs=1e-12)


def test_bunching_matches_e2():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 9))
        s = random_haar_state(n, d, seed + 40)
        esp = esp_from_spectrum(spectrum(reduced_density_matrix(s)))
        assert fermionic_encoding_probability(s) == pytest.approx(esp[2], abs=1e-10)



def _e2_mpmath(psi, dps=40):
    """e_2 of rho = psi psi^dagger, ((tr rho)^2 - tr rho^2) / 2, at dps digits."""
    with mp.workdps(dps):
        rows = [[mp.mpc(z) for z in row] for row in psi.tolist()]
        tr = mp.fsum(abs(z) ** 2 for row in rows for z in row)
        # tr rho^2: the diagonal once, each upper off-diagonal |rho_ab|^2 twice
        tr2 = mp.fsum(
            (1 if a == b else 2) * abs(mp.fsum(x * mp.conj(y) for x, y in zip(ra, rb))) ** 2
            for a, ra in enumerate(rows) for b, rb in enumerate(rows) if b >= a
        )
        return (tr * tr - tr2) / 2


def test_whole_block_bunching_is_unbiased_against_mpmath():
    # Rounded (1/sqrt 2)^2 splitter factors read every one of these e_2 low,
    # by 2.7e-16 to 5.7e-16 relative; with an exact 0.5 only rounding noise
    # of either sign is left.
    # The production route sums the row pairs' areas and must be as unbiased,
    # and within a few ulp of each state's 40-digit e_2.
    errors, production = [], []
    for n in (16, 32):
        for seed in range(1, 9):
            s = random_haar_state(n, n, seed)
            ref = _e2_mpmath(s.amplitudes)
            errors.append(float((_whole_block_probability(s) - ref) / ref))
            production.append(float((fermionic_encoding_probability(s) - ref) / ref))
    for errs in (errors, production):
        assert min(errs) < 0.0 < max(errs)
        assert abs(np.mean(errs)) <= 1e-16
    assert max(map(abs, production)) <= 3e-16


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
def test_near_product_bunching_is_as_accurate_as_the_minors_sum(eps):
    # 8x8 states u v^T + eps z have e_2 near 5e-5 eps^2.  The height of psi_b
    # above psi_a and a 2x2 minor both come out of a cancellation, so both
    # routes lose the same digits: about 7e-16 relative at eps = 1e-2, 8e-8 at
    # eps = 1e-10.  The areas may be at most 4x worse than the minors.
    areas, minors = [], []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        s = validate_state(np.outer(u, v) + eps * z, renormalize=True)
        ref = _e2_mpmath(s.amplitudes, dps=50)
        areas.append(abs(float((fermionic_encoding_probability(s) - ref) / ref)))
        minors.append(abs(float((_minors_probability(s.amplitudes) - ref) / ref)))
    assert max(areas) <= 4 * max(minors)


def test_bunching_probability_range():
    for seed in range(10):
        s = random_haar_state(5, 5, seed + 90)
        p = fermionic_encoding_probability(s)
        assert -1e-12 <= p <= 0.5 + 1e-12


def test_antisym_weight_r1_and_r2(bell_state):
    rho = reduced_density_matrix(bell_state)
    assert antisym_weight(rho, 1) == pytest.approx(1.0, abs=1e-12)
    # (1 - Tr rho^2) / 2 for the Bell state
    assert antisym_weight(rho, 2) == pytest.approx(0.25, abs=1e-12)


def test_antisym_weight_uniform_r3():
    rho = reduced_density_matrix(validate_state(np.eye(3) / np.sqrt(3.0)))
    assert antisym_weight(rho, 3) == pytest.approx(1 / 27, abs=1e-12)


def test_antisym_weight_matches_esp():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        s = random_haar_state(n, n + 3, seed + 60)
        rho = reduced_density_matrix(s)
        esp = esp_from_spectrum(spectrum(rho))
        for r in range(1, n + 1):
            assert antisym_weight(rho, r) == pytest.approx(esp[r], abs=1e-8)


def test_antisym_weight_order_range():
    rho = reduced_density_matrix(random_haar_state(3, 3, seed=7))
    with pytest.raises(OrderOutOfRangeError):
        antisym_weight(rho, 0)
    with pytest.raises(OrderOutOfRangeError):
        antisym_weight(rho, 7)

import json
import logging
import math
import re
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import espent.cli
import espent.io
import espent.states
import espent.report
from espent import (
    AnalysisOptions,
    DimensionMismatchError,
    EspentError,
    NormError,
    ParseError,
    PureBipartiteState,
    QuenchConfig,
    Spectrum,
    TooLargeError,
    analyze,
    esp_from_spectrum,
    parse_state_file,
    purities_recurrence,
    quench_trajectory,
    random_haar_state,
    schmidt_spectrum,
    serialize_state,
    state_to_dict,
    validate_state,
    write_state_file,
)
from espent.entropy import von_neumann_direct
from espent.cli import EXIT_NOT_CONVERGED, EXIT_OK, EXIT_PARSE, main
from conftest import random_bell, random_product_state


def bell_json(tmp_path, norm=1.0):
    s = 0.5**0.5 * norm
    doc = {
        "n": 2,
        "d": 2,
        "amplitudes": [
            [{"re": s, "im": 0.0}, {"re": 0.0, "im": 0.0}],
            [{"re": 0.0, "im": 0.0}, {"re": s, "im": 0.0}],
        ],
    }
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(doc))
    return path


def test_parse_bell_fixture(tmp_path):
    state = parse_state_file(bell_json(tmp_path))
    rep = analyze(state)
    assert rep.spectrum == pytest.approx((0.5, 0.5), abs=1e-10)


def test_parse_csv(tmp_path):
    path = tmp_path / "state.csv"
    s = 0.5**0.5
    path.write_text(f"{s},0,0,0\n0,0,{s},0\n")
    state = parse_state_file(path)
    assert state.n == 2 and state.d == 2


def test_parse_csv_wrong_column_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,0,0\n0,1,0\n")  # odd width: no re,im pairing
    with pytest.raises(DimensionMismatchError):
        parse_state_file(path)


def test_parse_norm_error_and_renormalize(tmp_path):
    path = bell_json(tmp_path, norm=0.98)
    with pytest.raises(NormError):
        parse_state_file(path)
    state = parse_state_file(path, renormalize=True)
    assert state.renorm_factor == pytest.approx(1.0 / 0.98, abs=1e-12)


def test_parse_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        parse_state_file(path)


def test_parse_dimension_mismatch(tmp_path):
    doc = {"n": 3, "d": 2, "amplitudes": [[{"re": 1.0, "im": 0.0}] * 2] * 2}
    path = tmp_path / "dims.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DimensionMismatchError):
        parse_state_file(path)


def assert_refused_as_too_large(path, caplog, capsys):
    with pytest.raises(TooLargeError, match="exceeds"):
        parse_state_file(path)
    assert main(["analyze", str(path)]) == EXIT_PARSE
    assert len(caplog.records) == 1 and "exceeds" in caplog.text
    assert capsys.readouterr().out == ""


def test_parse_json_header_too_large(tmp_path, caplog, capsys):
    # 4096 * 4097 amplitudes, 4096 over the limit: the header alone refuses it.
    assert 4096 * 4097 > espent.io.MAX_AMPLITUDES >= 4096 * 4096
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 4096, "d": 4097, "amplitudes": [[{"re": "x"}]]}))
    assert_refused_as_too_large(path, caplog, capsys)


def test_parse_csv_too_large(tmp_path, caplog, capsys, monkeypatch):
    # Refused from the row count and width, before the bad entry is parsed.
    monkeypatch.setattr(espent.io, "MAX_AMPLITUDES", 5)
    path = tmp_path / "wide.csv"
    path.write_text("x,0,1,0\n0,0,1,0\n0,0,1,0\n")
    assert_refused_as_too_large(path, caplog, capsys)
    path.write_text("1,0,0,0\n0,0,1,0\n")
    assert parse_state_file(path, renormalize=True).n == 2


ONE = [[{"re": 1.0, "im": 0.0}]]


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"n": 1, "d": 2, "amplitudes": 5}, "amplitudes must be a list"),
        ({"n": 1, "d": 1, "amplitudes": [5]}, "amplitudes must be a list"),
        ({"n": 1, "d": 1, "amplitudes": {"0": ONE[0]}}, "amplitudes must be a list"),
        ({"n": 1.9, "d": 1, "amplitudes": ONE}, "n must be an integer, not float"),
        ({"n": 1, "d": 1.0, "amplitudes": ONE}, "d must be an integer, not float"),
        ({"n": True, "d": 1, "amplitudes": ONE}, "n must be an integer, not bool"),
        ({"n": "1", "d": 1, "amplitudes": ONE}, "n must be an integer, not str"),
        ({"n": 1, "d": 1, "amplitudes": [[{"re": True, "im": 0.0}]]}, "bad amplitude entry"),
        ({"n": 1, "d": 1, "amplitudes": [[{"re": 1.0, "im": False}]]}, "bad amplitude entry"),
        ({"n": 1, "d": 1, "amplitudes": [[{"re": "1", "im": 0.0}]]}, "bad amplitude entry"),
        ({"n": 1, "d": 1, "amplitudes": [[{"re": 1.0}]]}, "bad amplitude entry"),
        ({"n": 1, "d": 1, "amplitudes": [[[1.0, 0.0]]]}, "bad amplitude entry"),
        ({"n": 1, "d": 1, "amplitudes": [[{"re": 10**400, "im": 0}]]}, "too large"),
        ({"d": 1, "amplitudes": ONE}, "missing field: 'n'"),
    ],
)
def test_parse_malformed_json_shapes(tmp_path, caplog, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_state_file(path)
    assert main(["analyze", str(path)]) == EXIT_PARSE
    assert len(caplog.records) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "text", ["1" * 5000, "[" * 100_000 + "]" * 100_000], ids=["long-integer", "deep-nesting"]
)
def test_parse_json_beyond_the_decoder_limits(tmp_path, text):
    # Integers longer than 4300 digits and nesting deeper than the
    # interpreter's recursion limit are refused by json.loads itself.
    path = tmp_path / "deep.json"
    path.write_text(text)
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_state_file(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=12,
)
AMPLITUDE = st.fixed_dictionaries(
    {}, optional={"re": JSON_VALUES, "im": JSON_VALUES | st.floats(-1, 1)}
) | JSON_VALUES
# Documents close to a state file, so that the checks past the top-level
# keys are reached as well as the decoder's.
STATE_DOCS = st.fixed_dictionaries(
    {},
    optional={
        "n": st.integers(0, 3) | JSON_VALUES,
        "d": st.integers(0, 3) | JSON_VALUES,
        "amplitudes": st.lists(st.lists(AMPLITUDE, max_size=3) | JSON_VALUES, max_size=3)
        | JSON_VALUES,
    },
)
NUMBER_TEXT = st.floats().map(repr) | st.integers().map(str) | st.text(max_size=3)
CSV_TEXT = st.text(st.characters(codec="utf-8")) | st.lists(
    st.lists(NUMBER_TEXT, max_size=6).map(",".join), max_size=4
).map("\n".join)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def parses_or_refuses(path) -> None:
    try:
        state = parse_state_file(path)
    except EspentError:
        return
    assert isinstance(state, PureBipartiteState)


def amplitudes_per_entry(rows, n, d):
    """The reference reader: one complex per entry, the first bad one raising."""
    return np.array([[espent.io._amplitude(c) for c in row] for row in rows], dtype=complex)


def outcome(parse, *args):
    """The amplitudes' bytes (signed zeros and NaN payloads included) and
    renormalization factor, or the type and message of the refusal."""
    try:
        state = parse(*args)
    except EspentError as exc:
        return type(exc), str(exc)
    if isinstance(state, np.ndarray):
        return state.shape, state.tobytes()
    return state.amplitudes.shape, state.amplitudes.tobytes(), state.renorm_factor


@settings(max_examples=300, deadline=None)
@given(doc=STATE_DOCS | JSON_VALUES)
def test_fuzz_json_state_files(fuzz_dir, doc):
    path = fuzz_dir / "state.json"
    path.write_text(json.dumps(doc))
    parses_or_refuses(path)
    # The whole-list reader gives what the per-entry reader gives, bit for
    # bit, and refuses with the same error and message.
    for renormalize in (False, True):
        result = outcome(parse_state_file, path, renormalize)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(espent.io, "_amplitudes", amplitudes_per_entry)
            assert outcome(parse_state_file, path, renormalize) == result


# Entries as json.loads could decode them, mostly well formed: numbers of
# every kind (integers beyond a float's range and past 2^53 and 2^64 among
# them), with now and then a bool, null, string, missing key or non-object.
NUMBERS = (
    st.floats()
    | st.integers()
    | st.sampled_from([-0.0, 5e-324, 2**53 + 1, 2**63 + 1, 2**64 + 1, -(2**64) - 1, 10**400])
)
PART = NUMBERS | st.booleans() | st.none() | st.text(max_size=2)
ENTRY = st.fixed_dictionaries({"re": NUMBERS, "im": NUMBERS}) | st.fixed_dictionaries(
    {}, optional={"re": PART, "im": PART}
)


@st.composite
def amplitude_rows(draw):
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = st.one_of(ENTRY, ENTRY, ENTRY, PART)
    rows = draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=n, max_size=n))
    return rows, n, d


@settings(max_examples=500, deadline=None)
@given(case=amplitude_rows())
def test_amplitude_rows_match_the_per_entry_route(case):
    assert outcome(espent.io._amplitudes, *case) == outcome(amplitudes_per_entry, *case)


@settings(max_examples=300, deadline=None)
@given(text=CSV_TEXT)
def test_fuzz_csv_state_files(fuzz_dir, text):
    path = fuzz_dir / "state.csv"
    path.write_text(text, encoding="utf-8")
    parses_or_refuses(path)


def test_parse_missing_file(tmp_path):
    path = tmp_path / "absent.json"
    with pytest.raises(ParseError, match="absent.json"):
        parse_state_file(path)


def test_parse_directory(tmp_path):
    with pytest.raises(ParseError, match=re.escape(str(tmp_path))):
        parse_state_file(tmp_path)


def test_parse_non_utf8_bytes(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(ParseError, match="binary.json"):
        parse_state_file(path)


def test_round_trip_bit_identical(tmp_path):
    state = random_haar_state(3, 4, seed=5)
    path = tmp_path / "state.json"
    write_state_file(state, path)
    text1 = path.read_text()
    reparsed = parse_state_file(path)
    assert serialize_state(reparsed) == text1
    np.testing.assert_array_equal(reparsed.amplitudes, state.amplitudes)


def assert_canonical(state, path) -> None:
    """Both writers give the json encoder's bytes for the same dict."""
    expected = json.dumps(state_to_dict(state), sort_keys=True, indent=2) + "\n"
    assert serialize_state(state) == expected
    write_state_file(state, path)
    assert path.read_bytes() == expected.encode()


# The repr forms json writes: signed zero, subnormal, exponent (1e-05,
# 1e+16), integer-valued (1.0) and the largest float.
PINNED = (-0.0, 0.0, 5e-324, -5e-324, 1e-05, 1e16, -1e16, 1.0, -3.0, 0.1, 1.7976931348623157e308)


def complex_matrix(real, imag) -> np.ndarray:
    """Set part by part: arithmetic such as real + 1j * imag loses -0.0."""
    amps = np.empty(np.shape(real), dtype=complex)
    amps.real, amps.imag = real, imag
    return amps


@st.composite
def amplitude_matrices(draw):
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    parts = st.sampled_from(PINNED) | st.floats(allow_nan=False, allow_infinity=False)
    real, imag = draw(hnp.arrays(np.float64, (2, n, d), elements=parts))
    return complex_matrix(real, imag)


@settings(max_examples=200, deadline=None)
@example(amps=complex_matrix([[-0.0]], [[5e-324]]))
@example(amps=complex_matrix([PINNED], [PINNED[::-1]]))
@example(amps=complex_matrix(np.transpose([PINNED]), -np.transpose([PINNED])))
@given(amps=amplitude_matrices())
def test_canonical_text_of_any_finite_amplitudes(fuzz_dir, amps):
    # The writers read only n, d and the amplitudes, so floats that no
    # normalized state holds (1e16) are pinned through a stand-in.
    n, d = amps.shape
    assert_canonical(SimpleNamespace(n=n, d=d, amplitudes=amps), fuzz_dir / "canonical.json")


@settings(max_examples=100, deadline=None)
@example(n=1, d=1, seed=0)
@example(n=1, d=8, seed=0)
@example(n=8, d=1, seed=0)
@given(n=st.integers(1, 8), d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_canonical_text_of_haar_states(fuzz_dir, n, d, seed):
    assert_canonical(random_haar_state(n, d, seed), fuzz_dir / "canonical.json")


def test_analyze_report_fields():
    rep = analyze(random_bell(), options=None)
    d = rep.to_dict()
    assert d["schema_version"] == 5
    assert set(d["residuals"]) == {"esp_routes_max", "bunching_vs_e2"}
    assert d["entropies"]["linear"] == pytest.approx(0.5, abs=1e-10)
    assert d["residuals"]["esp_routes_max"] < 1e-8
    assert d["entropies"]["s_r"]["2"] == d["entropies"]["von_neumann_series"]
    assert d["bunching"] is None  # off by default


def test_analyze_calls_neither_partition_formula_nor_charpoly(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("analyze took a library-only route")

    monkeypatch.setattr(espent.report, "purities_from_esp", refuse)
    monkeypatch.setattr(espent.report, "esp_from_charpoly", refuse)
    monkeypatch.setattr(espent.report, "purities_recurrence", refuse)
    options = AnalysisOptions(r_max=8, k_max=64, simulate_bunching=True)
    report = analyze(random_haar_state(8, 8, 1), options).to_dict()
    assert len(report["spectrum"]) == len(report["esp"]) == 8
    assert len(report["purities"]) == 64
    assert sorted(report["entropies"]["s_r"], key=int) == [str(r) for r in range(1, 9)]
    assert all(v is not None for v in report["residuals"].values())


@pytest.mark.parametrize("n, d", [(1, 3), (3, 1), (4, 2), (5, 5), (8, 3), (6, 9)])
def test_analyze_purities_are_power_sums_of_the_svd_spectrum(n, d):
    for state in (random_haar_state(n, d, 3), random_product_state(n, d, seed=3)):
        lam = schmidt_spectrum(state).eigenvalues
        report = analyze(state, AnalysisOptions(k_max=12))
        assert report.spectrum == lam
        assert report.purities == tuple(
            math.fsum(x**k for x in lam) for k in range(1, 13)
        )


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_analyze_route_residuals_on_haar_states(n):
    # Newton's recurrence on the ESPs is the purities' test reference;
    # analyze takes only the power sums.
    state = random_haar_state(n, n, 1)
    report = analyze(state, AnalysisOptions(k_max=12))
    assert report.residuals["esp_routes_max"] <= 1e-14
    recurrence = purities_recurrence(esp_from_spectrum(schmidt_spectrum(state)), 12)
    np.testing.assert_allclose(report.purities, recurrence.values, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", range(1, 9))
def test_analyze_s_n_is_read_off_the_spectrum(n):
    states = [random_haar_state(n, d, 7) for d in (1, n, 2 * n)]
    if n == 2:
        states.append(validate_state(np.diag(np.sqrt([0.999, 0.001]))))
    for state in states:
        rep = analyze(state, AnalysisOptions(r_max=n))
        exact = von_neumann_direct(Spectrum(eigenvalues=rep.spectrum)).hex()
        assert rep.entropies["s_r"][str(n)].hex() == exact
        assert rep.entropies["von_neumann_series"].hex() == exact
        assert rep.entropies["von_neumann_direct"].hex() == exact
        for entry in (rep.convergence["s_r"][str(n)], rep.convergence["von_neumann_series"]):
            assert entry == {"converged": True}
        assert "von_neumann_series_vs_direct" not in rep.residuals


def test_analyze_report_bunching():
    from espent import AnalysisOptions

    rep = analyze(random_bell(), AnalysisOptions(simulate_bunching=True))
    assert rep.bunching["p_bunch"] == pytest.approx(0.25, abs=1e-10)
    assert list(rep.bunching) == ["p_bunch"]
    assert rep.residuals["bunching_vs_e2"] < 1e-10


def test_analyze_product_state_all_zero():
    rep = analyze(random_product_state(3, 4, seed=1))
    ent = rep.entropies
    assert ent["linear"] == pytest.approx(0.0, abs=1e-10)
    assert ent["von_neumann_direct"] == pytest.approx(0.0, abs=1e-10)
    for v in ent["s_r"].values():
        assert v == pytest.approx(0.0, abs=1e-10)


def test_cli_analyze(tmp_path, capsys):
    path = bell_json(tmp_path)
    out_json = tmp_path / "report.json"
    code = main(["analyze", str(path), "--simulate-bunching", "--json", str(out_json)])
    assert code == EXIT_OK
    report = json.loads(out_json.read_text())
    assert report["bunching"]["p_bunch"] == pytest.approx(0.25, abs=1e-10)
    assert capsys.readouterr().out.strip()


def test_cli_analyze_deterministic(tmp_path, capsys):
    path = bell_json(tmp_path)
    main(["analyze", str(path), "--alpha", "2,3"])
    first = capsys.readouterr().out
    main(["analyze", str(path), "--alpha", "2,3"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_analyze_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert main(["analyze", str(path)]) == EXIT_PARSE


def test_cli_analyze_missing_file(tmp_path, caplog):
    path = tmp_path / "absent.json"
    assert main(["analyze", str(path)]) == EXIT_PARSE
    assert f"cannot read {path}" in caplog.text


def test_cli_analyze_norm_error_and_renormalize(tmp_path, capsys):
    path = bell_json(tmp_path, norm=0.98)
    assert main(["analyze", str(path)]) == EXIT_PARSE
    assert main(["analyze", str(path), "--renormalize"]) == EXIT_OK


def test_cli_analyze_nan_amplitude(tmp_path, caplog):
    path = bell_json(tmp_path)
    path.write_text(path.read_text().replace("0.0", "NaN", 1))
    assert main(["analyze", str(path)]) == EXIT_PARSE
    assert "NaN or infinite amplitude" in caplog.text
    assert main(["analyze", str(path), "--renormalize"]) == EXIT_PARSE


def test_cli_analyze_bunching_too_large(tmp_path, caplog):
    path = tmp_path / "wide.json"
    write_state_file(validate_state(np.ones((1, 4097)) / np.sqrt(4097.0)), path)
    assert main(["analyze", str(path), "--simulate-bunching"]) == EXIT_PARSE
    assert "exceeds 4096" in caplog.text


@pytest.mark.parametrize(
    "options, message",
    [
        (["--length", "4", "--cut", "2", "--tmax", "1", "--steps", "0"],
         "steps=0, tmax=1.0; need steps >= 1 and finite tmax >= 0"),
        (["--length", "4", "--cut", "2", "--tmax", "-1", "--steps", "2"],
         "steps=2, tmax=-1.0; need steps >= 1 and finite tmax >= 0"),
        (["--length", "1", "--cut", "1", "--tmax", "1", "--steps", "2"], "length 1; need >= 2"),
        (["--length", "4", "--cut", "2", "--tmax", "1", "--steps", "1000000000"],
         "1000000001 kets of 2^4 exceed 16777216 amplitudes"),
    ],
)
def test_cli_quench_invalid_option(capsys, caplog, options, message):
    assert main(["quench", "--model", "xxz", *options]) == EXIT_PARSE
    assert [r.getMessage() for r in caplog.records] == [message]
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("tmax", ["1e9", "1e308"])
def test_cli_quench_term_bound(capsys, caplog, tmax):
    # Refused from the Gershgorin interval, before any sector block: the
    # Chebyshev terms grow with the spectral half-width (23 at L=12) x tmax,
    # and 1e308 overflows that product
    start = time.perf_counter()
    argv = ["--length", "12", "--cut", "6", "--tmax", tmax, "--steps", "20"]
    assert main(["quench", "--model", "tfi", *argv]) == EXIT_PARSE
    assert time.perf_counter() - start < 1.0
    assert [r.getMessage() for r in caplog.records] == [
        f"tmax {float(tmax):g} at spectral half-width 23 needs over 16384 Chebyshev terms"
        " for 21 times; at most 16384 terms and 16777216 terms x times"
    ]
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "command, message",
    [
        (["analyze", "--r-max", "0"], "r_max=0; need r_max >= 1"),
        (["analyze", "--r-max", "-3"], "r_max=-3; need r_max >= 1"),
        (["analyze", "--k-max", "0"], "k_max=0; need k_max >= 1"),
        (["analyze", "--k-max", "-1"], "k_max=-1; need k_max >= 1"),
        (["quench", "--model", "tfi", "--length", "4", "--cut", "2", "--tmax", "1",
          "--steps", "2", "--r-max", "0"], "r_max=0; need r_max >= 1"),
    ],
)
def test_cli_order_options_below_one(tmp_path, capsys, caplog, command, message):
    if command[0] == "analyze":
        command = ["analyze", str(bell_json(tmp_path)), *command[1:]]
    assert main(command) == EXIT_PARSE
    assert [r.getMessage() for r in caplog.records] == [message]
    assert capsys.readouterr().out == ""


def test_k_max_bound():
    from espent.report import MAX_K

    state = random_haar_state(8, 8, 1)
    assert len(analyze(state, AnalysisOptions(k_max=MAX_K)).purities) == MAX_K
    with pytest.raises(TooLargeError, match=f"k_max={MAX_K + 1} exceeds {MAX_K}"):
        AnalysisOptions(k_max=MAX_K + 1)


def test_cli_k_max_bound(tmp_path, capsys, caplog):
    from espent.report import MAX_K

    path = tmp_path / "state.json"
    write_state_file(random_haar_state(8, 8, 1), path)
    assert main(["analyze", str(path), "--k-max", str(MAX_K)]) == EXIT_OK
    assert len(json.loads(capsys.readouterr().out)["purities"]) == MAX_K
    caplog.clear()
    # Refused before any purity is taken: 10^9 of them would run for hours.
    assert main(["analyze", str(path), "--k-max", "1000000000"]) == EXIT_PARSE
    assert [r.getMessage() for r in caplog.records] == [f"k_max=1000000000 exceeds {MAX_K}"]
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("alpha", ["inf", "nan", "2,-inf"])
def test_cli_analyze_non_finite_alpha(tmp_path, capsys, caplog, alpha):
    assert main(["analyze", str(bell_json(tmp_path)), "--alpha", alpha]) == EXIT_PARSE
    assert len(caplog.records) == 1
    assert "need finite alpha > 0" in caplog.text
    assert capsys.readouterr().out == ""


def test_cli_analyze_alpha_not_a_number(tmp_path, capsys, caplog):
    assert main(["analyze", str(bell_json(tmp_path)), "--alpha", "2,abc"]) == EXIT_PARSE
    assert [r.getMessage() for r in caplog.records] == ["--alpha entry 'abc' is not a number"]
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("alpha", ["", ","])
def test_cli_analyze_without_alphas(tmp_path, capsys, alpha):
    # No Renyi order: the report is whole, its renyi empty
    assert main(["analyze", str(bell_json(tmp_path)), "--alpha", alpha]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["entropies"]["renyi"] == {}
    assert report["entropies"]["q_tilde"] == pytest.approx(0.25, abs=1e-12)


def test_cli_analyze_renyi_at_huge_alpha(tmp_path, capsys):
    # Every lambda^1e6 underflows to 0; S_alpha is read relative to lambda_1.
    path = tmp_path / "h4.json"
    write_state_file(random_haar_state(4, 4, 1), path)
    assert main(["analyze", str(path), "--alpha", "2,1e6"]) == EXIT_OK
    renyi = json.loads(capsys.readouterr().out)["entropies"]["renyi"]
    top = schmidt_spectrum(parse_state_file(path)).eigenvalues[0]
    assert renyi["1000000.0"] == pytest.approx(-math.log(top) * 1e6 / (1e6 - 1), rel=1e-15)


def test_cli_analyze_strict_nonconvergence(tmp_path, capsys):
    # Maximally mixed 12x12 state: the series for S_5 and S_6 diverge, with
    # max |1 - nu| = 1.0059 and 1.0147 over the roots nu of q_5 and q_6.
    path = tmp_path / "mixed.json"
    write_state_file(validate_state(np.eye(12) / np.sqrt(12.0)), path)
    code = main(["analyze", str(path), "--r-max", "6", "--strict"])
    assert code == EXIT_NOT_CONVERGED
    conv = json.loads(capsys.readouterr().out)["convergence"]["s_r"]
    assert [conv[str(r)]["converged"] for r in range(1, 7)] == [True] * 4 + [False] * 2


def test_report_has_no_negative_zero():
    state = validate_state(np.ones((1, 3)) / np.sqrt(3.0))
    report = analyze(state, AnalysisOptions(alphas=(0.5, 2.0))).to_dict()
    assert "-0.0" not in json.dumps(report)


def test_cli_random_deterministic(tmp_path):
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    assert main(["random", "--n", "3", "--d", "4", "--seed", "9", "-o", str(f1)]) == EXIT_OK
    assert main(["random", "--n", "3", "--d", "4", "--seed", "9", "-o", str(f2)]) == EXIT_OK
    assert f1.read_text() == f2.read_text()
    state = parse_state_file(f1)
    assert state.n == 3 and state.d == 4


def test_cli_random_size_bound_fires_before_drawing(monkeypatch, caplog, capsys):
    monkeypatch.setattr(espent.states, "MAX_AMPLITUDES", 64)
    monkeypatch.setattr(np.random, "default_rng", None)  # a draw would raise TypeError
    with pytest.raises(TooLargeError, match="72 amplitudes exceeds 64"):
        random_haar_state(9, 8, seed=1)
    assert main(["random", "--n", "9", "--d", "8", "--seed", "1"]) == EXIT_PARSE
    assert [r.getMessage() for r in caplog.records] == ["state of 72 amplitudes exceeds 64"]
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["analyze", "random"])
def test_cli_unwritable_output_exits_parse(tmp_path, caplog, capsys, command):
    out = tmp_path / "missing" / "o.json"
    if command == "analyze":
        argv = ["analyze", str(bell_json(tmp_path)), "--json", str(out)]
    else:
        argv = ["random", "--n", "2", "--d", "3", "--seed", "1", "-o", str(out)]
    assert main(argv) == EXIT_PARSE
    assert len(caplog.records) == 1 and str(out) in caplog.text
    assert capsys.readouterr().out == "" and not out.parent.exists()


def test_cli_quench(tmp_path, capsys, caplog):
    out_json = tmp_path / "traj.json"
    code = main(
        [
            "quench", "--model", "tfi", "--length", "4", "--cut", "2",
            "--tmax", "0.5", "--steps", "3", "--r-max", "2",
            "--json", str(out_json),
        ]
    )
    assert code == EXIT_OK
    records = json.loads(out_json.read_text())
    assert len(records) == 4
    assert records[0]["report"]["entropies"]["von_neumann_direct"] == pytest.approx(
        0.0, abs=1e-10
    )
    table = capsys.readouterr().out
    lines = table.splitlines()
    assert lines[0].split() == ["time", "S_1", "S_2", "S_vN"]
    # Every S_2 converges, including the product state at t = 0.
    s_2 = [line.split()[2] for line in lines[1:]]
    for cell, rec in zip(s_2, records):
        assert float(cell) == pytest.approx(rec["report"]["entropies"]["s_r"]["2"], abs=1e-8)
        assert rec["report"]["convergence"]["s_r"]["2"]["converged"]
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


@pytest.mark.parametrize("model", ["tfi", "xxz"])
def test_cli_quench_json_holds_one_compact_record_per_line(tmp_path, capsys, model):
    # A JSON array laid out as "[", one record per time point, "]"; loaded, it
    # equals the indented dump of the same records
    steps, out_json = 5, tmp_path / "traj.json"
    argv = ["quench", "--model", model, "--length", "6", "--cut", "3", "--tmax", "1.5",
            "--steps", str(steps), "--r-max", "3", "--json", str(out_json)]
    assert main(argv) == EXIT_OK
    text = out_json.read_text()
    lines = text.splitlines()
    assert text.endswith("\n") and len(lines) == steps + 3
    assert lines[0] == "[" and lines[-1] == "]"
    inner = [line.removesuffix(",") for line in lines[1:-1]]
    assert [line.endswith(",") for line in lines[1:-1]] == [True] * steps + [False]
    records = [json.loads(line) for line in inner]
    assert [json.dumps(rec, sort_keys=True) for rec in records] == inner
    cfg = QuenchConfig(model=model, length=6, cut=3, tmax=1.5, steps=steps)
    expected = [
        {"time": t, "report": report.to_dict()}
        for t, report in quench_trajectory(cfg, AnalysisOptions(r_max=3))
    ]
    assert json.loads(text) == records == json.loads(json.dumps(expected, sort_keys=True, indent=2))


def test_cli_quench_marks_divergent_series(capsys, caplog):
    # At t = 1.5 and 2 the series for S_7 and S_8 diverge: over the roots of
    # q_7 and q_8, max |1 - nu| is 1.0025 and 1.0047 at t = 1.5.
    code = main(
        [
            "quench", "--model", "xxz", "--length", "10", "--cut", "5",
            "--tmax", "2", "--steps", "4", "--r-max", "8",
        ]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["time", *(f"S_{r}" for r in range(1, 9)), "S_vN"]
    marked = {
        (line.split()[0], r)
        for line in lines[1:]
        for r, cell in enumerate(line.split()[1:9], start=1)
        if cell == "n/c"
    }
    assert marked == {("1.500000", 7), ("1.500000", 8), ("2.000000", 7), ("2.000000", 8)}
    assert [r.getMessage() for r in caplog.records] == [
        "4 S_r value(s) did not converge; printed as n/c"
    ]


def test_cli_quench_table_serializes_nothing_without_json(monkeypatch, capsys):
    # The table reads the reports themselves; only --json turns them into dicts.
    def refuse(self):
        raise AssertionError("to_dict called without --json")

    monkeypatch.setattr(espent.report.AnalysisReport, "to_dict", refuse)
    code = main(["quench", "--model", "xxz", "--length", "4", "--cut", "2",
                 "--tmax", "0.5", "--steps", "3", "--strict"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["time", "S_1", "S_2", "S_3", "S_4", "S_vN"] and len(lines) == 5


def test_cli_quench_bad_cut(capsys):
    code = main(
        ["quench", "--model", "tfi", "--length", "4", "--cut", "4",
         "--tmax", "0.5", "--steps", "2"]
    )
    assert code == EXIT_PARSE


def test_cli_reused_parser_gives_defaults_after_options(monkeypatch):
    seen = []
    monkeypatch.setattr(espent.cli, "_cmd_quench", lambda args: seen.append(args) or EXIT_OK)
    argv = ["quench", "--model", "xxz", "--length", "4", "--cut", "2",
            "--tmax", "1", "--steps", "2"]
    assert main([*argv, "--strict", "--r-max", "3"]) == EXIT_OK
    assert main(argv) == EXIT_OK
    assert espent.cli.build_parser() is espent.cli.build_parser()
    assert (seen[0].strict, seen[0].r_max) == (True, 3)
    assert (seen[1].strict, seen[1].r_max, seen[1].json_out) == (False, None, None)

import json
import re

import numpy as np
import pytest

from espent import (
    AnalysisOptions,
    DimensionMismatchError,
    NormError,
    ParseError,
    Spectrum,
    analyze,
    parse_state_file,
    random_haar_state,
    serialize_state,
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


def test_analyze_report_fields():
    rep = analyze(random_bell(), options=None)
    d = rep.to_dict()
    assert d["schema_version"] == 3
    assert d["entropies"]["linear"] == pytest.approx(0.5, abs=1e-10)
    assert d["residuals"]["esp_routes_max"] < 1e-8
    assert d["entropies"]["s_r"]["2"] == d["entropies"]["von_neumann_series"]
    assert d["bunching"] is None  # off by default


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
            assert entry == {"converged": True, "terms_used": 1}
        assert "von_neumann_series_vs_direct" not in rep.residuals


def test_analyze_report_bunching():
    from espent import AnalysisOptions

    rep = analyze(random_bell(), AnalysisOptions(simulate_bunching=True))
    assert rep.bunching["p_bunch"] == pytest.approx(0.25, abs=1e-10)
    assert rep.bunching["e2_residual"] < 1e-10


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
        (["--max-terms", "0"], "max_outer_terms=0; need >= 1"),
        (["--tol", "0"], "rel_tol=0.0; need 0 < rel_tol < 1"),
    ],
)
def test_cli_analyze_invalid_series_option(tmp_path, capsys, caplog, options, message):
    assert main(["analyze", str(bell_json(tmp_path)), *options]) == EXIT_PARSE
    assert [r.getMessage() for r in caplog.records] == [message]
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "options, message",
    [
        (["--length", "4", "--cut", "2", "--tmax", "1", "--steps", "0"],
         "steps=0, tmax=1.0; need steps >= 1 and finite tmax >= 0"),
        (["--length", "4", "--cut", "2", "--tmax", "-1", "--steps", "2"],
         "steps=2, tmax=-1.0; need steps >= 1 and finite tmax >= 0"),
        (["--length", "1", "--cut", "1", "--tmax", "1", "--steps", "2"], "length 1; need >= 2"),
    ],
)
def test_cli_quench_invalid_option(capsys, caplog, options, message):
    assert main(["quench", "--model", "xxz", *options]) == EXIT_PARSE
    assert [r.getMessage() for r in caplog.records] == [message]
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("alpha", ["inf", "nan", "2,-inf"])
def test_cli_analyze_non_finite_alpha(tmp_path, capsys, caplog, alpha):
    assert main(["analyze", str(bell_json(tmp_path)), "--alpha", alpha]) == EXIT_PARSE
    assert len(caplog.records) == 1
    assert "need finite alpha > 0" in caplog.text
    assert capsys.readouterr().out == ""


def test_cli_analyze_strict_nonconvergence(tmp_path, capsys):
    # S_2 < S_n still runs the series; q_2's roots near 0.998 and 0.002 make it slow
    state = validate_state(np.diag(np.sqrt([0.998, 0.001, 0.001])))
    path = tmp_path / "slow.json"
    write_state_file(state, path)
    code = main(["analyze", str(path), "--r-max", "2", "--max-terms", "10", "--strict"])
    assert code == EXIT_NOT_CONVERGED


def test_cli_random_deterministic(tmp_path):
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    assert main(["random", "--n", "3", "--d", "4", "--seed", "9", "-o", str(f1)]) == EXIT_OK
    assert main(["random", "--n", "3", "--d", "4", "--seed", "9", "-o", str(f2)]) == EXIT_OK
    assert f1.read_text() == f2.read_text()
    state = parse_state_file(f1)
    assert state.n == 3 and state.d == 4


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
    # S_2 does not converge at t = 1/6 and 1/3; those cells read n/c.
    s_2 = [line.split()[2] for line in lines[1:]]
    assert s_2[1:3] == ["n/c", "n/c"]
    for k in (0, 3):
        value = records[k]["report"]["entropies"]["s_r"]["2"]
        assert float(s_2[k]) == pytest.approx(value, abs=1e-8)
    assert [rec["report"]["convergence"]["s_r"]["2"]["converged"] for rec in records] == [
        True, False, False, True,
    ]
    assert any("2 S_r value(s) did not converge" in r.getMessage() for r in caplog.records)


def test_cli_quench_bad_cut(capsys):
    code = main(
        ["quench", "--model", "tfi", "--length", "4", "--cut", "4",
         "--tmax", "0.5", "--steps", "2"]
    )
    assert code == EXIT_PARSE

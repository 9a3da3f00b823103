"""The benchmark's oracle (bench/oracle.py) still accepts the reports.

The oracle reads report keys by name, and a report it cannot read counts
as broken in every benchmark run; these checks catch a dropped or renamed
key before a benchmark does.
"""

import importlib.util
from pathlib import Path

import pytest

from espent import AnalysisOptions, QuenchConfig, analyze, quench_trajectory, random_haar_state

ORACLE = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"


@pytest.fixture(scope="module")
def oracle():
    spec = importlib.util.spec_from_file_location("bench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n, d", [(1, 3), (3, 1), (2, 5), (4, 4), (6, 3), (8, 8)])
def test_oracle_accepts_analyze_reports_with_bunching(oracle, n, d):
    state = random_haar_state(n, d, 1)
    report = analyze(state, AnalysisOptions(simulate_bunching=True)).to_dict()
    tally = oracle.Tally()
    assert oracle.check_report(report, oracle.StateOracle(state.amplitudes), tally, p_bunch=True)
    assert tally.broken == 0


def test_oracle_accepts_quench_reports(oracle):
    config = QuenchConfig(model="xxz", length=6, cut=3, tmax=1.0, steps=4)
    trajectory = quench_trajectory(config, AnalysisOptions())
    references = oracle.quench_reference("xxz", 6, 3, 1.0, 4)
    assert len(trajectory) == len(references)
    tally = oracle.Tally()
    for (t, report), (t_ref, amps) in zip(trajectory, references):
        assert t == pytest.approx(t_ref, abs=1e-15)
        assert oracle.check_report(report.to_dict(), oracle.StateOracle(amps), tally)
    assert tally.broken == 0


def test_oracle_counts_a_report_without_its_keys_as_broken(oracle):
    state = random_haar_state(4, 4, 1)
    report = analyze(state).to_dict()
    del report["convergence"]["von_neumann_series"]
    tally = oracle.Tally()
    assert not oracle.check_report(report, oracle.StateOracle(state.amplitudes), tally)
    assert tally.broken == 1

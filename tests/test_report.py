"""analyze_batch: one stacked analysis gives each state the bytes of analyze."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from espent import AnalysisOptions, analyze, analyze_batch, validate_state

KINDS = ("haar", "product", "rank_deficient", "near_pure")


def _state(kind, n, d, rng):
    raw = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    if kind == "product":
        return np.outer(raw[:, 0], raw[0])
    if kind == "rank_deficient":
        k = int(rng.integers(1, min(n, d) + 1))
        return raw[:, :k] @ (rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d)))
    if kind == "near_pure":
        return np.outer(raw[:, 0], raw[0]) + 1e-7 * raw
    return raw


@st.composite
def stacks(draw):
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Unnormalized rows, so each carries its own renormalization factor
    return np.array([_state(kind, n, d, rng) * rng.uniform(0.5, 2.0) for kind in kinds])


@settings(max_examples=80, deadline=None)
@given(stack=stacks(), bunching=st.booleans(), full_order=st.booleans())
def test_batch_reports_match_analyze(stack, bunching, full_order):
    n = stack.shape[1]
    options = AnalysisOptions(r_max=n if full_order else None, simulate_bunching=bunching)
    states = [validate_state(raw, renormalize=True) for raw in stack]
    reports = analyze_batch(states, options)
    assert len(reports) == len(stack)
    for state, report in zip(states, reports):
        assert json.dumps(report.to_dict()) == json.dumps(analyze(state, options).to_dict())


def test_batch_refuses_states_of_different_shapes():
    states = [validate_state(np.eye(2) / np.sqrt(2.0)), validate_state(np.ones((2, 3)) / 6**0.5)]
    with pytest.raises(ValueError):
        analyze_batch(states)

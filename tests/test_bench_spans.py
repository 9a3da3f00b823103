"""The benchmark's span tracer (bench/spans.py) still fits the package.

The tracer patches espent attributes by name and raises on a missing one,
so a renamed function would break every traced benchmark run.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    spans = _load_spans()
    targets = [(spans._resolve(path), attr) for path, attr, _, _ in spans.PATCHES]
    originals = [getattr(owner, attr) for owner, attr in targets]
    tracer = spans.Tracer()
    try:
        tracer.install()
        for (owner, attr), original in zip(targets, originals):
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.restore()
    for (owner, attr), original in zip(targets, originals):
        assert getattr(owner, attr) is original, attr

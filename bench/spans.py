"""Span tracing for the espent benchmark, installed from outside the package.

The tracer replaces module attributes through which espent's layers call
one another (for example ``espent.report.s_r_truncated``) with wrappers
that record a span per call: name, start, end, parent span and op id.
Nothing under ``src/`` is edited; ``restore()`` puts the originals back.
Spans are kept in memory and written out by ``dump()`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import defaultdict
from time import perf_counter


def _series_counts(counts, args, result):
    counts["entropy.series_calls"] += 1
    counts["entropy.series_terms"] += result.terms_used
    counts["entropy.series_converged"] += bool(result.converged)


def _pair_counts(counts, args, result):
    # Computed, not measured: each mode-pair term holds a d^2 complex vector.
    counts["fermions.pairs"] += len(result.terms)
    counts["fermions.env_bytes"] += len(result.terms) * result.d**2 * 16


def _parse_counts(counts, args, result):
    counts["io.bytes_read"] += os.path.getsize(args[0])


def _build_counts(counts, args, result):
    # Computed from the configuration: the dense build multiplies two
    # 2^L x 2^L complex site operators per ZZ (and XX, YY) term, 8 N^3 flops each.
    config = args[0]
    dim = 2**config.length
    products = (config.length - 1) * (3 if config.model == "xxz" else 1)
    counts["quench.dim"] = max(counts["quench.dim"], dim)
    counts["quench.h_bytes"] = max(counts["quench.h_bytes"], 16 * dim * dim)
    counts["quench.build_flops"] += products * 8 * dim**3


# (module, attribute, span name, count hook)
PATCHES = [
    ("espent", "validate_state", "states.validate", None),
    ("espent", "analyze", "report.analyze", None),
    ("espent.cli", "main", "cli.main", None),
    ("espent.cli", "parse_state_file", "io.parse", _parse_counts),
    ("espent.cli", "analyze", "report.analyze", None),
    ("espent.cli", "quench_trajectory", "quench.trajectory", None),
    ("espent.io", "validate_state", "states.validate", None),
    ("espent.quench", "build_hamiltonian", "quench.build", _build_counts),
    ("espent.quench", "validate_state", "states.validate", None),
    ("espent.quench", "analyze", "report.analyze", None),
    ("espent.report.AnalysisReport", "to_dict", "report.to_dict", None),
    ("espent.report", "reduced_density_matrix", "states.rdm", None),
    ("espent.report", "spectrum", "states.spectrum", None),
    ("espent.report", "esp_from_spectrum", "volumes.esp_spectrum", None),
    ("espent.report", "esp_from_charpoly", "volumes.esp_charpoly", None),
    ("espent.report", "purities_from_esp", "entropy.purities", None),
    ("espent.report", "purities_recurrence", "entropy.purities", None),
    ("espent.report", "von_neumann_series", "entropy.series", _series_counts),
    ("espent.report", "s_r_truncated", "entropy.series", _series_counts),
    ("espent.report", "von_neumann_direct", "entropy.direct", None),
    ("espent.report", "renyi_entropy", "entropy.direct", None),
    ("espent.fermions", "build_two_copy_state", "fermions.build", _pair_counts),
    ("espent.fermions", "beamsplitter_transform", "fermions.transform", _pair_counts),
    ("espent.fermions", "bunching_probability", "fermions.bunching", None),
]


def _resolve(path: str):
    """Module or class named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    def __init__(self):
        self.spans: list = []        # (name, start, end, parent index, op id)
        self.counts = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for path, attr, name, count in PATCHES:
            owner = _resolve(path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self, scales: list[float]) -> dict[str, float]:
        """Total self time per span name: duration minus the children's,
        each multiplied by its op's entry in `scales`.

        One thread runs every call, so children never overlap and their
        durations add up to the time they cover.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            out[name] += (end - start - child[i]) * scales[op]
        return out

    def total_time(self, name: str, parent_name: str, scales: list[float]) -> float:
        """Summed duration, times its op's scale, of `name` spans whose
        parent is a `parent_name` span."""
        return sum(
            (end - start) * scales[op]
            for n, start, end, parent, op in self.spans
            if n == name and parent >= 0 and self.spans[parent][0] == parent_name
        )

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)

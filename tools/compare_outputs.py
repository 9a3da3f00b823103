"""Run one fixed corpus of espent CLI calls through two source trees and compare them.

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC [--quick]

PARENT_SRC and CHANGE_SRC are directories that hold an espent package (a
checkout's src).  Each call runs `python -m espent.cli` with only that tree on
PYTHONPATH and one BLAS thread, in a working directory of its own that holds
the same input files.  Exit codes, stdout, stderr (the tree's path replaced by
SRC) and every file the calls leave in the directory are compared byte for
byte.  Exits 1 on any difference, 0 when there is none.

The corpus: espent random at seven shapes; analyze of schema 1, 2, 3 and CSV
renderings of four states, each plain, with --simulate-bunching, with
--alpha 2,0.5,3 --r-max 12 and with --k-max 64, and --renormalize on a
scaled file; quench --json of both models at L = 9 (cuts 1 and 4) and L = 12
(cut 6); and exit-2 refusals.  --quick runs a few of these in a few seconds.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

RANDOM_SHAPES = [(2, 2), (5, 3), (16, 16), (32, 32), (64, 64), (64, 2), (2, 64)]
STATES = {"s5x3": (5, 3), "s2x7": (2, 7), "s16": (16, 16), "s32": (32, 32)}
OPTIONS = [[], ["--simulate-bunching"], ["--alpha", "2,0.5,3", "--r-max", "12"], ["--k-max", "64"]]
REFUSALS = [
    ["random", "--n", "4097", "--d", "4097", "--seed", "1", "-o", "big.json"],
    ["random", "--n", "2", "--d", "2", "--seed", "-1"],
    ["analyze", "s5x3.v3.json", "--json", "missing/dir/o.json"],
    ["analyze", "s5x3.v3.json", "--k-max", "1000000000"],
    ["analyze", "scaled.json"],
    ["analyze", "b512.json", "--simulate-bunching"],
    ["analyze", "listed.json"],
    ["analyze", "absent.json"],
    ["quench", "--model", "tfi", "--length", "12", "--cut", "6", "--tmax", "1e9", "--steps", "20"],
    ["quench", "--model", "tfi", "--length", "17", "--cut", "8", "--tmax", "2", "--steps", "20"],
]


def _amplitudes(n: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return a / np.linalg.norm(a)


def _renderings(a: np.ndarray) -> dict[str, str]:
    """The text of a as schema 1, 2 and 3 JSON and as CSV, by file suffix."""
    n, d = a.shape
    pairs = np.stack([a.real, a.imag], axis=-1).reshape(n, 2 * d).tolist()
    v1 = [[{"re": re_, "im": im} for re_, im in zip(row[::2], row[1::2])] for row in pairs]
    v3 = base64.b64encode(np.ascontiguousarray(a, "<c16").tobytes()).decode("ascii")
    head = {"n": n, "d": d}
    return {
        "v1.json": json.dumps({"schema_version": 1, **head, "amplitudes": v1}),
        "v2.json": json.dumps({"schema_version": 2, **head, "amplitudes": pairs}),
        "v3.json": json.dumps({"schema_version": 3, **head, "amplitudes": v3}),
        "csv": "\n".join(",".join(map(repr, row)) for row in pairs) + "\n",
    }


def write_inputs(directory: Path, quick: bool) -> None:
    for seed, (name, (n, d)) in enumerate(STATES.items()):
        if quick and name != "s5x3":
            continue
        for suffix, text in _renderings(_amplitudes(n, d, seed)).items():
            (directory / f"{name}.{suffix}").write_text(text)
    (directory / "scaled.json").write_text(_renderings(3.0 * _amplitudes(4, 6, 9))["v3.json"])
    (directory / "listed.json").write_text(
        '{"schema_version": 2, "n": 1025, "d": 1024, "amplitudes": []}'
    )
    if not quick:
        (directory / "b512.json").write_text(_renderings(_amplitudes(512, 512, 1))["v3.json"])


def corpus(quick: bool) -> list[list[str]]:
    """The CLI argument lists, in the order they run."""
    if quick:
        return [
            ["random", "--n", "5", "--d", "3", "--seed", "1"],
            ["analyze", "s5x3.v3.json", "--simulate-bunching", "--json", "r0.json"],
            ["analyze", "s5x3.csv", "--alpha", "2,0.5,3", "--r-max", "12"],
            ["analyze", "scaled.json", "--renormalize"],
            ["quench", "--model", "xxz", "--length", "9", "--cut", "4", "--tmax", "2",
             "--steps", "20", "--json", "q0.json"],
            ["analyze", "listed.json"],
        ]
    calls = [["random", "--n", str(n), "--d", str(d), "--seed", str(n + d)]
             for n, d in RANDOM_SHAPES]
    calls.append(["random", "--n", "5", "--d", "3", "--seed", "3", "-o", "written.json"])
    for name in STATES:
        for suffix in ("v1.json", "v2.json", "v3.json", "csv"):
            for i, options in enumerate(OPTIONS):
                out = ["--json", f"{name}.{suffix}.{i}.report.json"] if i == 2 else []
                calls.append(["analyze", f"{name}.{suffix}", *options, *out])
    calls.append(["analyze", "scaled.json", "--renormalize", "--json", "scaled.report.json"])
    for model in ("xxz", "tfi"):
        for length, cut in ((9, 1), (9, 4), (12, 6)):
            calls.append(["quench", "--model", model, "--length", str(length), "--cut", str(cut),
                          "--tmax", "2", "--steps", "20", "--json", f"{model}{length}.{cut}.json"])
    calls.append(["quench", "--model", "tfi", "--length", "12", "--cut", "6", "--tmax", "2",
                  "--steps", "20", "--strict"])
    return calls + REFUSALS


def run_corpus(src: Path, workdir: Path, calls: list[list[str]]) -> list[tuple]:
    """(exit code, stdout, stderr) of each call, then the bytes of every file left."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    results = []
    for argv in calls:
        done = subprocess.run([sys.executable, "-m", "espent.cli", *argv], cwd=workdir,
                              env=env, capture_output=True, timeout=120)
        results.append((" ".join(argv), done.returncode,
                        done.stdout.replace(os.fsencode(src), b"SRC"),
                        done.stderr.replace(os.fsencode(src), b"SRC")))
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        results.append((f"file {path.relative_to(workdir)}", path.read_bytes()))
    return results


def differences(parent: list[tuple], change: list[tuple]) -> list[str]:
    """One line per call or file whose exit code, streams or bytes differ."""
    out = []
    named_parent, named_change = {r[0]: r for r in parent}, {r[0]: r for r in change}
    for name in sorted(named_parent.keys() | named_change.keys()):
        a, b = named_parent.get(name), named_change.get(name)
        if a is None or b is None:
            out.append(f"{name}: only in the {'change' if a is None else 'parent'}")
            continue
        labels = ("content",) if len(a) == 2 else ("exit code", "stdout", "stderr")
        for label, x, y in zip(labels, a[1:], b[1:]):
            if x != y:
                out.append(f"{name}: {label} differs")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--quick", action="store_true", help="a reduced corpus")
    args = parser.parse_args(argv)
    calls = corpus(args.quick)
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for side, src in (("parent", args.parent_src), ("change", args.change_src)):
            workdir = Path(tmp, side)
            workdir.mkdir()
            write_inputs(workdir, args.quick)
            runs.append(run_corpus(src.resolve(), workdir, calls))
    found = differences(*runs)
    print("\n".join(found + [f"{len(calls)} calls, {len(runs[0]) - len(calls)} files compared:"
                             f" {len(found)} differences"]))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())

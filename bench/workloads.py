"""Workloads of the espent benchmark: inputs generated from a seed and one
op per call.  Checking the outputs is left to ``run.py``.

``python3 bench/workloads.py --workload NAME --seed N`` only imports espent
and generates the inputs; ``run.py`` times such fresh processes as setup_s.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"


def import_espent():
    """Import espent from this checkout's src/, never from elsewhere."""
    if not (SRC / "espent" / "__init__.py").is_file():
        sys.exit(f"espent sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import espent
    import espent.cli

    if Path(espent.__file__).resolve().parent != (SRC / "espent").resolve():
        sys.exit(f"imported espent from {espent.__file__}, not from {SRC}")
    return espent


# Each workload generates its inputs from the seed in __init__ (the set-up
# that setup_s times) and runs one op per call to op(i).  `block` is the
# number of consecutive ops that carry the same input mix; `clock_reps` the
# number of host-clock kernel runs per sample taken between ops (see
# hostclock.py); `warmup_ops` the ops run before timing starts.

class EnsembleSmall:
    """~1000 Haar states, n and d from 2..8, each through analyze()."""

    tail_pct = 99
    clock_reps = 1
    warmup_ops = 20
    sizes = range(2, 9)
    block = len(sizes) ** 2   # ops per block: each (n, d) pair once
    blocks = 21               # 1029 states

    def __init__(self, espent, seed: int, workdir: Path):
        self.espent = espent
        rng = np.random.default_rng(seed)
        pairs = [(n, d) for n in self.sizes for d in self.sizes]
        self.inputs = []
        # Every block holds each (n, d) once, so every block carries the
        # same size mix whatever the seed.
        for _ in range(self.blocks):
            for k in rng.permutation(len(pairs)):
                n, d = pairs[k]
                raw = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
                self.inputs.append(raw / np.linalg.norm(raw))

    def op(self, i: int):
        espent = self.espent
        return espent.analyze(espent.validate_state(self.inputs[i])).to_dict()

class CliWideBunching:
    """~100 state files of n = d in {16, 32}, each through
    ``espent analyze FILE --simulate-bunching`` in process."""

    tail_pct = 90
    clock_reps = 1
    warmup_ops = 20
    # 7 of every 10 files are 16x16, so the median falls inside the 16x16
    # mode and p90 inside the 32x32 mode, never in the gap between them.
    mix = (16,) * 7 + (32,) * 3
    block = len(mix)
    blocks = 10

    def __init__(self, espent, seed: int, workdir: Path):
        self.espent = espent
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.inputs = []
        self.files = []
        for b in range(self.blocks):
            for k, size in enumerate(rng.permutation(self.mix)):
                raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
                amps = raw / np.linalg.norm(raw)
                path = workdir / f"state-{b:02d}-{k}.json"
                espent.write_state_file(espent.validate_state(amps), path)
                self.inputs.append(amps)
                self.files.append(str(path))

    def op(self, i: int):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = self.espent.cli.main(["analyze", self.files[i], "--simulate-bunching"])
        return code, sink.getvalue()

class QuenchL9:
    """``espent quench`` trajectories of XXZ and TFI chains, L=9, cut=1,
    tmax=2, steps=20.  One op is one trajectory (one CLI call writing its
    JSON to a file); the inputs are the two models, in an order the seed
    picks.  At cut=1 the reduced states are 2x2, so the dense build and
    eigh dominate, not the entropy series."""

    tail_pct = 100   # the slower model's median trajectory time
    clock_reps = 5
    warmup_ops = 0   # the dense build allocates afresh every call: nothing to warm
    block = 2        # one trajectory of each model
    models = ("xxz", "tfi")
    length, cut, tmax, steps = 9, 1, 2.0, 20

    def __init__(self, espent, seed: int, workdir: Path):
        self.espent = espent
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self.inputs = list(self.models if seed % 2 == 0 else self.models[::-1])
        self.args = ("--length", str(self.length), "--cut", str(self.cut),
                     "--tmax", str(self.tmax), "--steps", str(self.steps))

    def op(self, i: int):
        """Returns (exit code, path of the trajectory JSON)."""
        model = self.inputs[i]
        path = str(self.workdir / f"trajectory-{model}.json")
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.espent.cli.main(["quench", "--model", model, *self.args, "--json", path])
        return code, path

WORKLOADS = {
    "ensemble-small": EnsembleSmall,
    "cli-wide-bunching": CliWideBunching,
    "quench-l9": QuenchL9,
}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="generate a workload's inputs")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    WORKLOADS[args.workload](import_espent(), args.seed, RUN_DIR / "setup-probe")

"""espent benchmark: closed-loop workloads over the public espent API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process acts as a single client with one request in flight.  The
program is imported from ``src/`` of the checkout this file sits in; the
inputs are generated from ``--seed``.  Every output is checked against the
independent oracle in ``bench/oracle.py`` after the timed region.  Times
are rescaled to a nominal host speed by ``bench/hostclock.py``.  The
last line of standard output is one JSON object: with ``--trace 0`` it
holds the end-to-end metrics, with ``--trace 1`` the per-layer metrics of
a traced run (spans from ``bench/spans.py``), written with the spans to
``.bench_run/``.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: with two threads on a 2-core
# machine the dense quench build and eigh vary by 20% from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracle  # noqa: E402
from hostclock import HostClock  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import BENCH, ROOT, RUN_DIR, SRC, WORKLOADS, import_espent  # noqa: E402

SETUP_SAMPLES = 5
SETUP_CLOCK_REPS = 5


# ---------------------------------------------------------------------------
# Checks: each takes the first-pass outputs [(input index, output)] and
# returns one verdict per output.
# ---------------------------------------------------------------------------

def check_ensemble(workload, outputs, tally: oracle.Tally) -> list[bool]:
    return [oracle.check_report(rep, oracle.StateOracle(workload.inputs[i]), tally)
            for i, rep in outputs]


def check_cli(workload, outputs, tally: oracle.Tally) -> list[bool]:
    verdicts = []
    for i, (code, text) in outputs:
        try:
            rep = json.loads(text) if code == 0 else None
        except ValueError:
            rep = None
        if rep is None:
            tally.broken += 1
            verdicts.append(False)
            continue
        # The file round-trips the amplitudes exactly (JSON floats are repr).
        ref = oracle.StateOracle(workload.inputs[i])
        verdicts.append(oracle.check_report(rep, ref, tally, p_bunch=True))
    return verdicts


def check_quench(workload, outputs, tally: oracle.Tally) -> list[bool]:
    w = workload
    verdicts = []
    for i, (code, path) in outputs:
        model = w.inputs[i]
        try:
            with open(path) as fh:
                records = json.load(fh) if code == 0 else []
        except (OSError, ValueError):
            records = []
        if len(records) != w.steps + 1:
            tally.broken += 1
            verdicts.append(False)
            continue
        ok = True
        for rec, (t, amps) in zip(records, oracle.quench_reference(model, w.length, w.cut, w.tmax, w.steps)):
            ok &= tally.value(rec["time"], t)
            ok &= oracle.check_report(rec["report"], oracle.StateOracle(amps), tally)
        verdicts.append(bool(ok))
    return verdicts


CHECKS = {
    "ensemble-small": check_ensemble,
    "cli-wide-bunching": check_cli,
    "quench-l9": check_quench,
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class Loop:
    """Outcome of one closed loop.  Latencies are wall times rescaled to
    nominal host speed by the loop's HostClock (see hostclock.py)."""

    def __init__(self, clock: HostClock):
        self.clock = clock
        self.latencies: list[float | None] = []   # s per op; None if it raised
        self.scales: list[float] = []             # wall -> nominal factor per op
        self.outputs: dict = {}                   # input index -> first-pass output

    @property
    def raised(self) -> int:
        return self.latencies.count(None)

    @property
    def done(self) -> list[float]:
        return [x for x in self.latencies if x is not None]

    def blocks(self, block: int) -> list[list[float]]:
        """Latencies of whole blocks of `block` consecutive ops that all
        returned.  Every block carries the same input mix."""
        chunks = (self.latencies[k:k + block] for k in range(0, len(self.latencies) - block + 1, block))
        return [chunk for chunk in chunks if None not in chunk]

    # The host clock takes out most of the host's speed swings; the medians
    # below also ignore a stretch it misjudged that covers fewer than half
    # of the blocks or of an input's passes.

    def block_ops_per_s(self, block: int) -> float:
        """Median over blocks of block ops / block time."""
        return statistics.median(block / sum(chunk) for chunk in self.blocks(block))

    def block_p50(self, block: int) -> float:
        """Median over blocks of the block's median latency."""
        return statistics.median(statistics.median(chunk) for chunk in self.blocks(block))

    def input_tail(self, count: int, pct: float) -> float:
        """`pct` percentile over the `count` inputs of each input's median
        latency across the passes: the slow inputs, not the ops that a
        slow stretch happened to hit."""
        per_input = [[x for x in self.latencies[i::count] if x is not None] for i in range(count)]
        return percentile([statistics.median(v) for v in per_input if v], pct)


def closed_loop(workload, seconds: float, whole_passes: bool = False,
                tracer: Tracer | None = None, keep_outputs: bool = True) -> Loop:
    """Run ops back to back, cycling through the inputs, until `seconds`
    have passed (and, with `whole_passes`, at a pass boundary).  With
    `keep_outputs` every input runs at least once and the outputs of the
    first pass are kept for the oracle check.  The host clock's kernel
    runs between ops, outside their timed span."""
    count = len(workload.inputs)
    min_ops = count if keep_outputs else 1
    loop = Loop(HostClock(reps=workload.clock_reps))
    ticks = []
    loop.clock.tick()
    start = time.perf_counter()
    k = 0
    while not (time.perf_counter() - start >= seconds and k >= min_ops
               and (not whole_passes or k % count == 0)):
        i = k % count
        ticks.append(loop.clock.mark())
        if tracer is not None:
            tracer.op = k
        t0 = time.perf_counter()
        try:
            out = workload.op(i)
        except Exception as exc:  # an op that raises counts as failed
            print(f"op {k} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            loop.latencies.append(None)
        else:
            loop.latencies.append(time.perf_counter() - t0)
            if keep_outputs and k < count:
                loop.outputs[i] = out
        k += 1
    loop.clock.tick()
    loop.scales = [loop.clock.scale(j) for j in ticks]
    loop.latencies = [None if x is None else x * f for x, f in zip(loop.latencies, loop.scales)]
    return loop


def judge(name: str, workload, loop: Loop, tally: oracle.Tally) -> float:
    """Check the first-pass outputs against the oracle.  Returns the share
    of inputs whose op raised or failed the check."""
    verdicts = CHECKS[name](workload, sorted(loop.outputs.items()), tally)
    return (len(workload.inputs) - verdicts.count(True)) / len(workload.inputs)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile; pct = 100 is the maximum."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def setup_seconds(workload: str, seed: int) -> float:
    """Median time, at nominal host speed, of fresh processes that import
    espent and generate the workload's inputs."""
    clock = HostClock(reps=SETUP_CLOCK_REPS)
    samples = []
    for _ in range(SETUP_SAMPLES):
        clock.tick()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
             "--seed", str(seed)],
            check=True, timeout=120, cwd=ROOT,
        )
        samples.append(time.perf_counter() - start)
    clock.tick()
    return statistics.median(x * clock.scale(j) for j, x in enumerate(samples))


def blas_threads() -> int | None:
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "espent").glob("*.py"))


def trajectory_seconds(workload, loop: Loop) -> dict[str, tuple[float, int]]:
    """Quench: (median time, sample count) of each model's trajectories;
    {} elsewhere."""
    if not hasattr(workload, "models"):
        return {}
    count = len(workload.inputs)
    out = {}
    for k, model in enumerate(workload.inputs):
        done = [x for x in loop.latencies[k::count] if x is not None]
        if done:
            out[model] = (statistics.median(done), len(done))
    return out


def layer_metrics(workload, tracer: Tracer, traced: Loop, untraced: Loop,
                  tally: oracle.Tally) -> dict:
    """Per-layer metrics of the traced loop; times are self times per op,
    rescaled to nominal host speed like the end-to-end times."""
    self_s = tracer.self_times(traced.scales)
    traj_s = trajectory_seconds(workload, traced)
    c = tracer.counts
    ops = len(traced.latencies)

    def ms(name):
        return self_s[name] * 1e3 / ops

    calls = c["entropy.series_calls"]
    return {
        "states.validate_ms": ms("states.validate"),
        "states.rdm_ms": ms("states.rdm"),
        "states.spectrum_ms": ms("states.spectrum"),
        "volumes.esp_spectrum_ms": ms("volumes.esp_spectrum"),
        "volumes.esp_charpoly_ms": ms("volumes.esp_charpoly"),
        "entropy.purities_ms": ms("entropy.purities"),
        "entropy.series_ms": ms("entropy.series"),
        "entropy.direct_ms": ms("entropy.direct"),
        "entropy.series_calls": calls / ops,
        "entropy.series_terms": c["entropy.series_terms"] / ops,
        "entropy.converged_ratio": c["entropy.series_converged"] / calls if calls else 0.0,
        "entropy.silent_wrong_frac": tally.silent_wrong / max(tally.series_converged, 1),
        "fermions.build_ms": ms("fermions.build"),
        "fermions.transform_ms": ms("fermions.transform"),
        "fermions.bunching_ms": ms("fermions.bunching"),
        "fermions.pairs": c["fermions.pairs"] / ops,
        "fermions.env_bytes": c["fermions.env_bytes"] / ops,
        "quench.build_s": self_s["quench.build"] / ops,
        "quench.self_s": self_s["quench.trajectory"] / ops,
        "quench.analyze_s": tracer.total_time("report.analyze", "quench.trajectory", traced.scales) / ops,
        "quench.traj_xxz_s": traj_s.get("xxz", (0.0,))[0],
        "quench.traj_tfi_s": traj_s.get("tfi", (0.0,))[0],
        "quench.dim": c["quench.dim"],
        "quench.h_bytes": c["quench.h_bytes"],
        "quench.build_flops": c["quench.build_flops"] / ops,
        "report.analyze_self_ms": ms("report.analyze"),
        "report.to_dict_ms": ms("report.to_dict"),
        "io.parse_ms": ms("io.parse"),
        "io.bytes_read": c["io.bytes_read"] / ops,
        "cli.self_ms": ms("cli.main"),
        "trace.overhead_frac": 1.0 - traced.block_ops_per_s(workload.block) / untraced.block_ops_per_s(workload.block),
        "src.lines": src_lines(),
    }


def unit_of(name: str) -> str:
    if name == "ops_per_s":
        return "1/s"
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_frac", "fraction"),
                         ("_ratio", "fraction"), ("_bytes", "B"), ("bytes_read", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    name = args.workload
    espent = import_espent()
    failures = oracle.self_test()
    if failures:
        sys.exit("oracle self-test failed: " + "; ".join(failures))
    print("environment " + json.dumps(environment(), sort_keys=True))

    setup_s = None if args.trace else setup_seconds(name, args.seed)
    workload = WORKLOADS[name](espent, args.seed, RUN_DIR / name)
    # Warm-up outside the timed loop: first calls fill lazily built caches.
    for i in range(workload.warmup_ops):
        workload.op(i)
    tally = oracle.Tally()

    if not args.trace:
        loop = closed_loop(workload, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        loops = [loop]
        failed_frac = judge(name, workload, loop, tally)
        lat_ms = [x * 1e3 for x in loop.done]
        tail = loop.input_tail(len(workload.inputs), workload.tail_pct) * 1e3
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": loop.block_ops_per_s(workload.block),
            "lat_p50_ms": loop.block_p50(workload.block) * 1e3,
            "lat_tail_ms": tail,
            "failed_frac": failed_frac,
            "wrong_value_frac": tally.wrong / tally.checked,
            "peak_rss_mb": peak_rss_mb,
        }
        tail_name = {99: "lat_p99_ms", 90: "lat_p90_ms", 100: "lat_max_ms"}[workload.tail_pct]
        print(f"{name} {tail_name} {tail:.4f} ms ({len(workload.inputs)} inputs, "
              f"{len(lat_ms)} samples, {sum(x > tail for x in lat_ms)} beyond)")
        for model, (seconds, samples) in trajectory_seconds(workload, loop).items():
            print(f"{name} traj_s.{model} {seconds:.4f} s ({samples} samples)")
        print(f"{name} silent_wrong_frac {tally.silent_wrong / max(tally.series_converged, 1)} fraction")
    else:
        untraced = closed_loop(workload, args.seconds / 2, keep_outputs=False)
        tracer = Tracer()
        tracer.install()
        try:
            traced = closed_loop(workload, args.seconds / 2, whole_passes=True, tracer=tracer)
        finally:
            tracer.restore()
        RUN_DIR.mkdir(exist_ok=True)
        tracer.dump(RUN_DIR / f"trace-{name}-{args.seed}.json")
        loops = [untraced, traced]
        judge(name, workload, traced, tally)
        metrics = layer_metrics(workload, tracer, traced, untraced, tally)

    raised = sum(loop.raised for loop in loops)
    for loop in loops:
        wall = [x / f for x, f in zip(loop.latencies, loop.scales) if x is not None]
        print(f"{name} host_speed {loop.clock.speed():.4f} of nominal "
              f"({len(loop.clock.samples)} clock samples); wall time of "
              f"{len(wall)} ops {sum(wall):.3f} s")
    print(f"{name} counts " + json.dumps(dict(vars(tally), raised=raised), sort_keys=True))
    for metric, value in metrics.items():
        print(f"{name} {metric} {value} {unit_of(metric)}")
    result = {
        # Correct: every op completed with well-formed output, and every
        # directly computed value (spectrum, ESPs, purities, Renyi, von
        # Neumann, p_bunch, times) matches the oracle.  Series estimates
        # off the oracle are counted in failed_frac and wrong_value_frac,
        # not hidden.
        "correct": raised == 0 and tally.broken == 0 and tally.direct_wrong == 0,
        "attempted": sum(len(loop.latencies) for loop in loops),
        "failed": raised,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

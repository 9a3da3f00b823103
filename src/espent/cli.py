"""Command-line front end: analyze, random, quench."""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys

from .errors import EspentError, InvalidOrderError
from .io import canonical_chunks, parse_state_file, write_state_file
from .quench import QuenchConfig, quench_trajectory
from .report import AnalysisOptions, analyze
from .states import random_haar_state

log = logging.getLogger("espent")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_CONVERGED = 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The espent parser, built once per process; each parse_args call fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="espent",
        description="Bipartite entanglement measures via symmetric-polynomial volumes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full analysis report for one state file")
    p_an.add_argument("file")
    p_an.add_argument("--r-max", type=int, default=None)
    p_an.add_argument("--k-max", type=int, default=8)
    p_an.add_argument("--alpha", default="2", help="comma-separated Renyi orders")
    p_an.add_argument("--simulate-bunching", action="store_true")
    p_an.add_argument("--renormalize", action="store_true")
    p_an.add_argument("--json", dest="json_out", default=None, help="write report JSON here")
    p_an.add_argument("--strict", action="store_true",
                      help="exit 3 if any S_r series diverges or is not certified")

    p_rand = sub.add_parser("random", help="generate a Haar-random state file")
    p_rand.add_argument("--n", type=int, required=True)
    p_rand.add_argument("--d", type=int, required=True)
    p_rand.add_argument("--seed", type=int, required=True)
    p_rand.add_argument("-o", "--output", default=None)

    p_q = sub.add_parser("quench", help="spin-chain quench trajectory demo")
    p_q.add_argument("--model", choices=["tfi", "xxz"], required=True)
    p_q.add_argument("--length", type=int, required=True)
    p_q.add_argument("--cut", type=int, required=True)
    p_q.add_argument("--tmax", type=float, required=True)
    p_q.add_argument("--steps", type=int, required=True)
    p_q.add_argument("--r-max", type=int, default=None)
    p_q.add_argument("--json", dest="json_out", default=None)
    p_q.add_argument("--strict", action="store_true")

    return parser


def _exit_code(args, reports) -> int:
    """EXIT_NOT_CONVERGED under --strict if any S_r of the reports is not converged."""
    if args.strict and not all(
        c["converged"] for report in reports for c in report.convergence["s_r"].values()
    ):
        log.error("an S_r series diverges or is not certified")
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _parse_alphas(text: str) -> tuple[float, ...]:
    alphas = []
    for entry in filter(None, text.split(",")):
        try:
            alphas.append(float(entry))
        except ValueError:
            raise InvalidOrderError(f"--alpha entry {entry!r} is not a number") from None
    return tuple(alphas)


def _cmd_analyze(args) -> int:
    state = parse_state_file(args.file, renormalize=args.renormalize)
    if state.renorm_factor != 1.0:
        log.info("renormalized input by factor %.17g", state.renorm_factor)
    options = AnalysisOptions(
        r_max=args.r_max,
        k_max=args.k_max,
        alphas=_parse_alphas(args.alpha),
        simulate_bunching=args.simulate_bunching,
    )
    report = analyze(state, options)
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return _exit_code(args, [report])


def _cmd_random(args) -> int:
    state = random_haar_state(args.n, args.d, args.seed)
    if args.output:
        write_state_file(state, args.output)
    else:
        sys.stdout.writelines(canonical_chunks(state))  # a piece at a time, as to a file
    return EXIT_OK


def _cmd_quench(args) -> int:
    config = QuenchConfig(
        model=args.model,
        length=args.length,
        cut=args.cut,
        tmax=args.tmax,
        steps=args.steps,
    )
    options = AnalysisOptions(r_max=args.r_max)
    trajectory = quench_trajectory(config, options)
    if args.json_out:
        # A JSON array of one compact record per line: an indent would make
        # json use its pure-Python encoder, about three times slower.
        # One encoder for all records, with json.dumps(..., sort_keys=True)'s bytes
        encode = json.JSONEncoder(sort_keys=True).encode
        lines = (encode({"time": t, "report": report.to_dict()}) for t, report in trajectory)
        with open(args.json_out, "w") as fh:
            fh.write("[\n" + ",\n".join(lines) + "\n]\n")
    # Compact trajectory table on stdout.
    header_rs = sorted(trajectory[0][1].entropies["s_r"], key=int)
    sys.stdout.write("time  " + "  ".join(f"S_{r}" for r in header_rs) + "  S_vN\n")
    unconverged = 0
    for t, report in trajectory:
        ent, conv = report.entropies, report.convergence["s_r"]
        cells = [f"{ent['s_r'][r]:.8f}" if conv[r]["converged"] else "n/c" for r in header_rs]
        unconverged += cells.count("n/c")
        row = [f"{t:.6f}", *cells, f"{ent['von_neumann_direct']:.8f}"]
        sys.stdout.write("  ".join(row) + "\n")
    if unconverged:
        log.warning("%d S_r value(s) did not converge; printed as n/c", unconverged)
    return _exit_code(args, [report for _, report in trajectory])


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "random":
            return _cmd_random(args)
        return _cmd_quench(args)
    except (EspentError, OSError) as exc:  # OSError: an output file cannot be written
        log.error("%s", exc)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

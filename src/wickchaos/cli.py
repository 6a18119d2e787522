"""Command-line entry point.

Reads a program from a file argument, from -c TEXT, or from stdin, and
prints one JSON object (or CSV block) per command.  Exit codes: 0 on
success, 1 when a check command reports a failing identity, 2 on parse,
validation, or usage errors.  No environment variables are consulted.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from .errors import WickChaosError
from .runtime import (MAX_DIM, MAX_ORDER, MAX_SAMPLES, CheckOutput, ScalarOutput,
                      Session, VectorOutput)
from .serialization import chaos_to_obj


@functools.lru_cache(maxsize=None)
def _argparser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: parse_args keeps
    nothing between calls."""
    ap = argparse.ArgumentParser(
        prog="wickchaos",
        description="Wiener chaos calculator: Wick products, Malliavin "
                    "operators, renormalization, and identity checks.")
    ap.add_argument("script", nargs="?",
                    help="program file; omit (or '-') to read stdin")
    ap.add_argument("-c", "--command", metavar="TEXT",
                    help="program text given inline instead of a file")
    ap.add_argument("--dim", type=int, default=2,
                    help="number of Gaussian coordinates (default 2)")
    ap.add_argument("--order", type=int, default=8,
                    help="truncation order of the session (default 8)")
    ap.add_argument("--seed", type=int, default=0,
                    help="base seed for Monte Carlo commands (default 0)")
    ap.add_argument("--samples", type=int, default=10 ** 6,
                    help="Monte Carlo sample count (default 1000000)")
    fmt = ap.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True,
                     help="JSON-lines output (default)")
    fmt.add_argument("--csv", action="store_true",
                     help="CSV output instead of JSON")
    ap.add_argument("--check-tolerance", type=float, default=1e-9,
                    help="tolerance for exact identity checks (default 1e-9)")
    return ap


def _csv_escape(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _print_scalar(out: ScalarOutput, csv: bool):
    if csv:
        keys = [k for k in out.payload if k != "command"]
        print(",".join(keys))
        print(",".join(_csv_escape(_flatten(out.payload[k])) for k in keys))
    else:
        print(json.dumps(out.payload))


def _flatten(v):
    if isinstance(v, (list, tuple)):
        return " ".join(repr(float(x)) for x in v)
    return v


def _print_vector(out: VectorOutput, csv: bool):
    if csv:
        print("indices,coeff")
        obj = chaos_to_obj(out.vector)
        for term in obj["terms"]:
            idxs = []
            for i, k in term["alpha"]:
                idxs.extend([i] * k)
            print(f"{' '.join(str(i) for i in idxs)},{_csv_escape(term['coeff'])}")
    else:
        print(json.dumps(out.payload))


def _print_check(out: CheckOutput, csv: bool):
    fields = ["identity", "exact", "estimate", "std_error", "zscore", "seed"]
    if csv:
        print(",".join(fields))
        for row in out.rows:
            obj = row.report_obj()
            print(",".join(_csv_escape(obj[k]) for k in fields))
    else:
        for row in out.rows:
            print(json.dumps(row.report_obj()))


def main(argv: Sequence[str] | None = None) -> int:
    args = _argparser().parse_args(argv)

    if args.command is not None and args.script not in (None, "-"):
        print("error: give either a script file or -c TEXT, not both",
              file=sys.stderr)
        return 2
    if not (1 <= args.dim <= MAX_DIM and 0 <= args.order <= MAX_ORDER
            and 2 <= args.samples <= MAX_SAMPLES and 0 <= args.check_tolerance < float("inf")):
        print(f"error: need 1 <= --dim <= {MAX_DIM}, 0 <= --order <= {MAX_ORDER}, "
              f"2 <= --samples <= {MAX_SAMPLES} and a finite --check-tolerance >= 0",
              file=sys.stderr)
        return 2
    if args.command is not None:
        source = args.command
    elif args.script in (None, "-"):
        source = sys.stdin.read()
    else:
        try:
            with open(args.script, "r", encoding="utf-8") as fh:
                source = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            print(f"error: cannot read {args.script}: {getattr(e, 'strerror', e)}",
                  file=sys.stderr)
            return 2

    session = Session(dim=args.dim, max_order=args.order, seed=args.seed,
                      n_samples=args.samples, tolerance=args.check_tolerance)
    checks_failed = False
    try:
        for output in session.run_program(source):
            if isinstance(output, ScalarOutput):
                _print_scalar(output, args.csv)
            elif isinstance(output, VectorOutput):
                _print_vector(output, args.csv)
            else:
                _print_check(output, args.csv)
                if not output.passed:
                    checks_failed = True
    except WickChaosError as e:  # ParseError included
        print(f"error: {e}", file=sys.stderr)
        return 2

    return 1 if checks_failed else 0


if __name__ == "__main__":
    sys.exit(main())

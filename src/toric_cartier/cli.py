"""Command line interface.

    toric-cartier <command> --instance <file> [--ideal <gens>] [--N <int>]
                  [--margin <int>] [--out <file>] [--format doc|svg]
                  [--timing]

Commands: enumerate, verify, non-lc, test-ideal, stable-image,
cross-validate, plot.  Exit code 0 means success (or verified fixed),
1 means a negative verdict (not fixed, or a cross-validation mismatch),
2 means invalid input: among others a p that is not prime, an e below 1,
divisor data with the wrong number of coefficients, or an --N below the
instance's period (verify and cross-validate check no graded piece
there).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from .birational import non_lc_ideal
from .cartier import stable_image
from .documents import build_document, dump_document, ideal_entry, record_entry, report_entry
from .errors import ToricError, UnsupportedPlotError
from .fixed_points import ShiftedNewton, enumerate_fixed, largest_fixed, smallest_nonzero_fixed
from .instance import build_triple, parse_instance, parse_ideal_argument
from .oracle import BoxSpec, cross_validate, verify_fixed
from .svgfig import render_fixed_ideals

COMMANDS = ("enumerate", "verify", "non-lc", "test-ideal", "stable-image", "cross-validate", "plot")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="toric-cartier",
        description="Enumerate and verify the ideals of a toric ring fixed by a twisted trace operator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--instance", required=True, help="path to the instance file")
        sp.add_argument("--ideal", help="ideal generators '(1,1) (1,2)' or '0' (verify only)")
        sp.add_argument("--N", type=int, default=None, help="truncation for the operator sum")
        sp.add_argument("--margin", type=int, default=None, help="lattice box margin override")
        sp.add_argument("--out", help="write output to this file instead of stdout")
        sp.add_argument("--format", choices=("doc", "svg"), default=None, help="output format")
        sp.add_argument("--timing", action="store_true", help="include wall-clock timing in the document")
    return parser


def run_command(command, cfg, tr, ideal_text=None, timing=False):
    """Execute one command; returns (payload text, exit code)."""
    started = time.monotonic()
    sn = ShiftedNewton.from_triple(tr)
    limit = cfg.n_limit if cfg.n_limit is not None else 3 * tr.period
    code = 0
    if command == "enumerate":
        records = enumerate_fixed(sn)
        body = {
            "records": [record_entry(r, sn) for r in records],
            "count": len(records),
            "extremal": {
                "smallest_nonzero": ideal_entry(smallest_nonzero_fixed(sn)),
                "largest": ideal_entry(largest_fixed(sn)),
            },
        }
    elif command == "verify":
        if ideal_text is None:
            raise ToricError("verify needs --ideal")
        ideal = parse_ideal_argument(tr.ambient, ideal_text)
        verdict = verify_fixed(tr, ideal, limit=limit)
        body = {
            "ideal": ideal_entry(ideal),
            "verdict": verdict.status,
            "witness": list(verdict.witness) if verdict.witness is not None else None,
            "detail": verdict.detail,
        }
        code = 0 if verdict.is_fixed else 1
    elif command == "non-lc":
        result = non_lc_ideal(tr.ambient, sn.base, tr.a_ideal, tr.t)
        body = {"non_lc_ideal": ideal_entry(result)}
    elif command == "test-ideal":
        body = {"test_ideal": ideal_entry(smallest_nonzero_fixed(sn))}
    elif command == "stable-image":
        body = {"stable_image": ideal_entry(stable_image(tr.cartier)), "largest_fixed": ideal_entry(largest_fixed(sn))}
    elif command == "cross-validate":
        report = cross_validate(tr, limit=limit, margin=cfg.margin, pool_cap=cfg.pool_cap)
        body = {"report": report_entry(report)}
        code = 0 if report.passed else 1
    elif command == "plot":
        if tr.ambient.dim != 2:
            raise UnsupportedPlotError("plot requires a 2-dimensional instance")
        records = enumerate_fixed(sn)
        box = BoxSpec.from_instance(sn, margin=cfg.margin)
        return render_fixed_ideals(sn, records, box), 0
    else:
        raise ToricError(f"unknown command {command!r}")
    elapsed_ms = round((time.monotonic() - started) * 1000) if timing else None
    return dump_document(build_document(command, cfg, body, elapsed_ms=elapsed_ms)), code


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text = Path(args.instance).read_text()
    except OSError as exc:
        print(f"error: cannot read instance file: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_instance(text)
        if args.N is not None:
            cfg = replace(cfg, n_limit=args.N)
        if args.margin is not None:
            cfg = replace(cfg, margin=args.margin)
        tr, cfg = build_triple(cfg)
        fmt = args.format or ("svg" if args.command == "plot" else "doc")
        if (fmt == "svg") != (args.command == "plot"):
            raise ToricError("format 'svg' is produced by the plot command only")
        payload, code = run_command(args.command, cfg, tr, ideal_text=args.ideal, timing=args.timing)
    except ToricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())

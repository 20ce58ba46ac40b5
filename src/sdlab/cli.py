"""Command-line front end.

Commands: semigroup | dedekind | verify | table.  Exit codes: 0 success,
1 verification failure, 2 usage error (also when an output file cannot be
written).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys

from .dedekind import (
    carlitz_floor_sum,
    carlitz_poly,
    carlitz_sawtooth_poly,
    dedekind_sum,
    voronoi_sum,
    zolotarev,
)
from .errors import EmptyPlan, SdlabError
from .identities import CATALOG, SuiteRanges, coprime_pairs, reports_to_csv, reports_to_json, run_suite, summarize
from .semigroup import NumericalSemigroup, _bound, torus_semigroup


# Largest sizes the commands sweep over; a larger one, or a negative sweep
# size, is refused with one `error:` line (exit 2) before any work.  They
# bound time: `verify` checks grow with the square of --member-max, a --d-max
# check scans 19 classes mod d * s (s <= 20), and `dedekind` sums over k < b.  One size at its
# limit takes seconds on a 2-core Intel Xeon VM at 2.1 GHz (--pairs-max 58: 2.2-3.0 s; prop7 alone at
# --semigroups 1000 --d-max 100: 5.9-8.1 s); the sizes multiply.
# A `table` row costs two integer sums over k < b: --pairs-max 100 takes 0.18-0.26 s.
PAIRS_MAX_LIMIT = 58  # sdlab verify --pairs-max
TABLE_PAIRS_MAX = 100  # sdlab table --pairs-max
SEMIGROUPS_MAX = 1000  # sdlab verify --semigroups
MEMBER_MAX_LIMIT = 100  # sdlab verify --member-max
D_MAX_LIMIT = 100  # sdlab verify --d-max
DEDEKIND_B_MAX = 10**5  # sdlab dedekind: the modulus b (and a, for --floor-sum, which sums over k < a)
VORONOI_EXP_MAX = 100  # sdlab dedekind --voronoi M N: each exponent


def _size(value: int, flag: str, limit: int) -> None:
    if value < 0:
        raise ValueError(f"{flag} {value} < 0")
    _bound(value, flag, limit)


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error:` line and exit 2, without the usage block.

    Subcommand parsers are built from this class too (argparse's default
    `parser_class`).
    """

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sdlab",
        description="Numerical semigroups, Dedekind-type sums, and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("semigroup", help="invariants of a numerical semigroup")
    src = ps.add_mutually_exclusive_group(required=True)
    src.add_argument("--gens", type=_parse_int_list, metavar="G1,G2,...", help="generator list")
    src.add_argument("--pair", type=_parse_int_list, metavar="A,B", help="coprime pair a,b")
    ps.add_argument("--apery", type=int, metavar="S", help="print the Apery set of member S")
    ps.add_argument("--gap-poly", action="store_true", help="print the gap polynomial")
    ps.add_argument("--semigroup-poly", action="store_true", help="print 1 - (1-q) * gap polynomial")
    ps.add_argument("--hilbert", type=int, metavar="N", help="print the Hilbert series truncated at N")
    ps.add_argument("--quotient", type=int, metavar="D", help="print invariants of S/D")
    ps.add_argument("--format", choices=("text", "json", "csv"), default="text")
    ps.set_defaults(func=cmd_semigroup)

    pd = sub.add_parser("dedekind", help="Dedekind sums and floor-sum polynomials")
    pd.add_argument("a", type=int)
    pd.add_argument("b", type=int, help=f"modulus, at most {DEDEKIND_B_MAX}")
    pd.add_argument("--sum", action="store_true", help="s(a,b) by every route")
    pd.add_argument("--voronoi", nargs=2, type=int, metavar=("M", "N"),
                    help=f"V_{{M,N}}(a,b), exponents at most {VORONOI_EXP_MAX}")
    pd.add_argument("--carlitz", action="store_true", help="the polynomial c(q,t;a,b)")
    pd.add_argument("--zolotarev", action="store_true", help="the permutation k -> a*k mod b")
    pd.add_argument("--sawtooth-poly", action="store_true", help="sawtooth generating polynomial")
    pd.add_argument("--floor-sum", action="store_true", help="both sides of the floor-sum identity")
    pd.add_argument("--format", choices=("text", "json", "csv"), default="text")
    pd.set_defaults(func=cmd_dedekind)

    catalog = "\n".join(f"  {', '.join(row.ids):<21} {row.statement}" for row in CATALOG)
    pv = sub.add_parser("verify", help="run the identity verification suite",
                        formatter_class=argparse.RawDescriptionHelpFormatter,
                        epilog=f"identity ids:\n{catalog}")
    pv.add_argument("--pairs-max", type=int, default=SuiteRanges.pairs_max,
                    help=f"largest b in coprime-pair sweeps (0: empty run; at most {PAIRS_MAX_LIMIT})")
    pv.add_argument("--semigroups", type=int, default=SuiteRanges.semigroups,
                    help=f"number of random semigroups (at most {SEMIGROUPS_MAX})")
    pv.add_argument("--member-max", type=int, default=SuiteRanges.member_max,
                    help=f"largest Apery modulus on random semigroups (at most {MEMBER_MAX_LIMIT})")
    pv.add_argument("--d-max", type=int, default=SuiteRanges.d_max,
                    help=f"largest quotient divisor (at most {D_MAX_LIMIT})")
    pv.add_argument("--identity", action="append", default=[], metavar="ID",
                    help="restrict to ids with this prefix, listed below (an error if no id matches, "
                         "or if the sizes give the kept ids no check)")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")
    pv.add_argument("--format", choices=("json", "csv"), default="json")
    pv.add_argument("--timings", action="store_true", help="record wall-clock timings (breaks byte-identical output)")
    pv.set_defaults(func=cmd_verify)

    pt = sub.add_parser("table", help="export an invariant table over coprime pairs")
    pt.add_argument("--pairs-max", type=int, default=12,
                    help=f"largest b of the coprime pairs a < b (at most {TABLE_PAIRS_MAX})")
    pt.add_argument("--out", metavar="FILE")
    pt.add_argument("--format", choices=("csv", "json"), default="csv")
    pt.set_defaults(func=cmd_table)

    return parser


def _poly_payload(p, fmt: str):
    """The text form of p, or for JSON its terms [[*exponents, "num/den"], ...], keys ascending."""
    if fmt != "json":
        return str(p)
    return {"terms": [[*(key if isinstance(key, tuple) else (key,)), f"{c.numerator}/{c.denominator}"]
                      for key, c in p.items()]}


def _emit(out: dict, lines: list[str], fmt: str) -> None:
    """Print a finished result: `out` as JSON or as key,value CSV rows, or `lines` as text."""
    if fmt == "json":
        print(json.dumps(out, indent=2, sort_keys=True))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in out.items():
            writer.writerow([key, json.dumps(value) if isinstance(value, (list, dict)) else value])
    else:
        print("\n".join(lines))


def cmd_semigroup(args) -> int:
    if args.pair is not None:
        if len(args.pair) != 2:
            raise SdlabError("--pair needs exactly two integers")
        S = torus_semigroup(*args.pair)
    else:
        S = NumericalSemigroup.from_generators(args.gens)

    out = S.to_dict()
    lines = [
        f"generators: {', '.join(map(str, S.generators))}",
        f"genus: {S.genus}",
        f"frobenius: {S.frobenius}",
        f"gaps: {', '.join(map(str, S.gaps)) if S.gaps else '(none)'}",
    ]
    if args.apery is not None:
        out["apery"] = {"s": args.apery, "elements": list(S.apery(args.apery))}
        lines.append(f"apery({args.apery}): {', '.join(map(str, out['apery']['elements']))}")
    if args.gap_poly:
        out["gap_poly"] = _poly_payload(S.gap_poly(), args.format)
        lines.append(f"gap_poly: {out['gap_poly']}")
    if args.semigroup_poly:
        out["semigroup_poly"] = _poly_payload(S.semigroup_poly(), args.format)
        lines.append(f"semigroup_poly: {out['semigroup_poly']}")
    if args.hilbert is not None:
        out["hilbert"] = _poly_payload(S.hilbert_trunc(args.hilbert), args.format)
        lines.append(f"hilbert(<= {args.hilbert}): {out['hilbert']}")
    if args.quotient is not None:
        q = out["quotient"] = {"d": args.quotient, **S.quotient(args.quotient).to_dict()}
        lines.append(f"S/{q['d']}: genus {q['genus']}, frobenius {q['frobenius']}, gaps {q['gaps']}")
    _emit(out, lines, args.format)
    return 0


def cmd_dedekind(args) -> int:
    a, b = args.a, args.b
    _bound(b, "b", DEDEKIND_B_MAX)
    if args.floor_sum:
        _bound(a, "a (--floor-sum)", DEDEKIND_B_MAX)
    for exponent in args.voronoi or ():
        _bound(exponent, "--voronoi exponent", VORONOI_EXP_MAX)
    wants_nothing = not (args.sum or args.voronoi or args.carlitz or args.zolotarev
                         or args.sawtooth_poly or args.floor_sum)
    out = {"a": a, "b": b}
    lines = []
    if args.sum or wants_nothing:
        s = out["dedekind_sum"] = {
            "sawtooth": str(dedekind_sum(a, b, "sawtooth")),
            "voronoi": str(dedekind_sum(a, b, "voronoi")),
            "cotangent": f"{dedekind_sum(a, b, 'cotangent'):.12g}",
        }
        lines.append(f"s({a}, {b}) = {s['sawtooth']} [sawtooth] = {s['voronoi']} [voronoi] ~ {s['cotangent']} [cotangent]")
    if args.voronoi:
        m, n = args.voronoi
        out["voronoi"] = {"m": m, "n": n, "value": voronoi_sum(a, b, m, n)}
        lines.append(f"V_{{{m},{n}}}({a}, {b}) = {out['voronoi']['value']}")
    if args.carlitz:
        out["carlitz"] = _poly_payload(carlitz_poly(a, b), args.format)
        lines.append(f"c(q, t; {a}, {b}) = {out['carlitz']}")
    if args.zolotarev:
        out["zolotarev"] = list(zolotarev(a, b))
        lines.append(f"zolotarev: {out['zolotarev']}")
    if args.sawtooth_poly:
        out["sawtooth_poly"] = _poly_payload(carlitz_sawtooth_poly(a, b), args.format)
        lines.append(f"sawtooth_poly: {out['sawtooth_poly']}")
    if args.floor_sum:
        lhs, rhs = carlitz_floor_sum(a, b)
        out["floor_sum"] = {"lhs": _poly_payload(lhs, args.format), "rhs": _poly_payload(rhs, args.format)}
        lines.append(f"floor_sum lhs: {out['floor_sum']['lhs']}")
        lines.append(f"floor_sum rhs: {out['floor_sum']['rhs']}")
    _emit(out, lines, args.format)
    return 0


@contextlib.contextmanager
def _output(path: str | None):
    """Yields start(), which returns the stream for the finished text: stdout or
    the --out file.  The file is opened now, for appending, so that a bad path
    fails before any work; a regular file is emptied only by start(), once the
    text is ready to be written, so that a refused run leaves it as it was."""
    with open(path, "a", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
        def start():
            if path and os.path.isfile(path):
                fh.truncate(0)
            return fh

        yield start


def cmd_verify(args) -> int:
    _size(args.pairs_max, "--pairs-max", PAIRS_MAX_LIMIT)
    _size(args.semigroups, "--semigroups", SEMIGROUPS_MAX)
    _size(args.member_max, "--member-max", MEMBER_MAX_LIMIT)
    _size(args.d_max, "--d-max", D_MAX_LIMIT)
    ranges = SuiteRanges(pairs_max=args.pairs_max, semigroups=args.semigroups, member_max=args.member_max,
                         d_max=args.d_max, identities=tuple(args.identity))
    with _output(args.out) as start:
        reports = run_suite(ranges, seed=args.seed)
        (reports_to_json if args.format == "json" else reports_to_csv)(reports, include_timings=args.timings, file=start())
    counts = summarize(reports)
    if reports:
        tally = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"checked {len(reports)} identities: {tally}", file=sys.stderr)
    else:
        print("empty report", file=sys.stderr)
    return 1 if counts.get("fail") else 0


def cmd_table(args) -> int:
    _size(args.pairs_max, "--pairs-max", TABLE_PAIRS_MAX)
    if args.pairs_max < 3:  # the first coprime pair is (2, 3)
        raise EmptyPlan(f"no pair to tabulate: --pairs-max {args.pairs_max} < 3")
    with _output(args.out) as start:
        text = _table_text(args.pairs_max, args.format)
        start().write(text)
    return 0


def _table_text(pairs_max: int, fmt: str) -> str:
    rows = []
    for a, b in coprime_pairs(pairs_max):
        S = torus_semigroup(a, b)
        rows.append(
            {
                "a": a,
                "b": b,
                "genus": S.genus,
                "frobenius": S.frobenius,
                "dedekind_sum": str(dedekind_sum(a, b, "sawtooth")),
                "v11": voronoi_sum(a, b, 1, 1),
            }
        )
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    lines = [",".join(rows[0])]
    lines.extend(",".join(map(str, row.values())) for row in rows)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SdlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

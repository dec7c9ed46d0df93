"""Command-line surface.

Every subcommand maps onto one library operation so each object in the
pipeline is independently inspectable.  Exit codes: 0 success, 1 usage error,
2 computation error or skipped scan rows, 3 invariant violation detected.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import shutil
import sys
import tempfile

from .arith import NotSquarefree, factor_squarefree
from .classgroup import class_number, fundamental_discriminant, genus_two_rank
from .criteria import CriterionReport, InvariantViolation, evaluate
from .descent import MAX_WITNESS_BOUND, DivisorPair, find_witness, kernel_K
from .gf2 import unpack
from .norms import parity_criterion, represent
from .redei import build_hypothesis, eight_rank_neg_n, eight_rank_neg_nq, four_rank, redei_matrix
from .scan import emit, scan
from .selmer import monsky
from .tunnell import Classification, counts

USAGE_ERROR = 1
COMPUTATION_ERROR = 2
INVARIANT_VIOLATION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _int_pair(text: str) -> tuple[int, int]:
    try:
        a, b = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two integers a,b, got {text!r}") from None
    return a, b


def _matrix_lines(rows: tuple[int, ...]) -> str:
    return "\n".join("  " + " ".join(str(e) for e in unpack(row, len(rows))) for row in rows)


def _print_report(report: CriterionReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_dict(), indent=2))
        return
    print(f"n = {report.n}")
    if report.hypothesis is not None:
        h = report.hypothesis
        p_product = "·".join(str(p) for p in h.p_list)
        print(f"  q = {h.q}, p = {p_product}, t = {h.t}, n_q = {h.n_q.value}")
        print(f"  hypothesis: q residue mod all p_i: {h.qr_condition}, rank A = t-1: {h.rank_condition}")
        print(f"  s_n = {report.s_n}, r4 = {report.r4}, r8(-n) = {report.r8_n}, r8(-n_q) = {report.r8_nq}")
    if report.h_n is not None:
        rel = "=" if report.congruence_holds else "!="
        print(f"  h(-n) = {report.h_n} {rel} h(-n_q) = {report.h_nq}  (mod {report.modulus})")
    if report.tunnell_label is not None:
        print(f"  tunnell: {report.tunnell_label.value} (congruence side is BSD-conditional)")
    print(f"  verdict: {report.verdict.value}" + (f" ({report.reason})" if report.reason else ""))


def _cmd_check(args) -> int:
    report = evaluate(args.n)
    _print_report(report, args.json)
    return 0


def _cmd_scan(args) -> int:
    if args.cache is not None:
        print("scan: --cache is ignored: class numbers come from the theta table", file=sys.stderr)
    rows = scan(args.max, t_filter=args.t)
    if args.out is not None:
        # each pass is written as it is done, to a file moved into place at the end
        count = emit(rows, args.format, args.out)
    else:
        # stdout gets nothing before every check has passed; the rows wait in a file, not in memory
        with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as buffer:
            count = emit(rows, args.format, buffer)
            buffer.seek(0)
            shutil.copyfileobj(buffer, sys.stdout)
    if args.verbose:
        print(f"scan: {count} rows", file=sys.stderr)
    if rows.skipped:
        print(f"scan: {len(rows.skipped)} rows skipped", file=sys.stderr)
        return COMPUTATION_ERROR
    return 0


def _cmd_classnum(args) -> int:
    D = fundamental_discriminant(args.m)
    h = class_number(D)
    v2 = (h & -h).bit_length() - 1
    print(f"m = {args.m}: D = {D}, h = {h}, v2 = {v2}, r2 = {genus_two_rank(D)}")
    return 0


def _cmd_monsky(args) -> int:
    dec = monsky(factor_squarefree(args.m))
    print(f"m = {args.m}, primes = {dec.m.primes}")
    print("M =")
    print(_matrix_lines(dec.M))
    print(f"s = {dec.s}")
    return 0


def _cmd_redei(args) -> int:
    h = build_hypothesis(args.n)
    r = redei_matrix(h)
    print(f"n = {args.n}: q = {h.q}, p = {h.p_list}")
    print("A_n =")
    print(_matrix_lines(h.A))
    print("R_n (Hilbert-symbol construction) =")
    print(_matrix_lines(r))
    print(f"equal: {r == h.A}, r4 = {four_rank(h)}")
    return 0


def _cmd_ranks(args) -> int:
    h = build_hypothesis(args.n)
    print(f"n = {args.n}: t = {h.t}, r4(-n) = {four_rank(h)}")
    if h.holds():
        print(f"r8(-n) = {eight_rank_neg_n(h)}")
    else:
        print("r8(-n): hypothesis conditions not met")
    if h.rank_condition:
        print(f"r8(-n_q) = {eight_rank_neg_nq(h)}")
    else:
        print("r8(-n_q): rank condition not met")
    return 0


def _cmd_represent(args) -> int:
    p = factor_squarefree(args.P)
    rep = represent(p)
    print(f"P = {args.P}: u = {rep.u}, v = {rep.v}, e = {rep.e}, f = {rep.f}")
    print(f"u^2 + 2v^2 = {rep.u**2 + 2 * rep.v**2}, 2e^2 - f^2 = {2 * rep.e**2 - rep.f**2}")
    print(f"(-1/e) = +1: {parity_criterion(p)}")
    return 0


def _cmd_descent(args) -> int:
    m = factor_squarefree(args.m)
    kernel = sorted(kernel_K(m))
    print(f"m = {args.m}: kernel of all phi_p has {len(kernel)} pairs: {[tuple(p) for p in kernel]}")
    if args.pair is not None:
        a, b = args.pair
        witness = find_witness(m, DivisorPair(a, b), bound=args.bound)
        if witness is None:
            print(f"pair ({a},{b}): no witness with max(|x|,|y|) <= {args.bound} (proves nothing)")
        else:
            print(f"pair ({a},{b}): witness (x,y,z,w) = ({witness.x},{witness.y},{witness.z},{witness.w})")
    return 0


def _cmd_tunnell(args) -> int:
    theta = counts(args.n)
    label = theta.label
    print(f"n = {args.n} ({'odd' if args.n % 2 else 'even'} branch): c32 = {theta.c32}, c8 = {theta.c8}")
    print(f"2*c32 {'=' if label == Classification.CONGRUENT_UNDER_BSD else '!='} c8 -> {label.value}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser main reads, built once on first use; parse_args leaves it unchanged."""
    parser = _Parser(prog="congruent", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="full criterion report for one n")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("scan", help="scan all hypothesis n up to a bound")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--t", type=_positive_int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.add_argument("--cache", default=None)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("classnum", help="class number of the field with sqrt(-m)")
    p.add_argument("-m", type=int, required=True)
    p.set_defaults(func=_cmd_classnum)

    p = sub.add_parser("monsky", help="Monsky matrix and 2-Selmer rank of odd m")
    p.add_argument("-m", type=int, required=True)
    p.set_defaults(func=_cmd_monsky)

    p = sub.add_parser("redei", help="A_n and the Hilbert-symbol matrix")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=_cmd_redei)

    p = sub.add_parser("ranks", help="4-rank and 8-ranks for a hypothesis n")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=_cmd_ranks)

    p = sub.add_parser("represent", help="norm representations of P")
    p.add_argument("-P", type=int, required=True)
    p.set_defaults(func=_cmd_represent)

    p = sub.add_parser("descent", help="kernel pairs and torsor witnesses")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--pair", type=_int_pair, default=None, help="a,b")
    p.add_argument("--bound", type=int, default=MAX_WITNESS_BOUND)
    p.set_defaults(func=_cmd_descent)

    p = sub.add_parser("tunnell", help="theta counts and classification")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=_cmd_tunnell)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"INVARIANT VIOLATION: {exc}", file=sys.stderr)
        return INVARIANT_VIOLATION
    except (ValueError, ArithmeticError, OSError, NotSquarefree) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return COMPUTATION_ERROR


# the objects of numpy's and the package's imports live until exit, so the
# cyclic collector's walks over them free nothing; a command process moves
# them to the permanent generation, out of every later collection and the
# passes at shutdown.  A library `import congruent` leaves the caller's GC alone
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())

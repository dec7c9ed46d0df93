"""Range scanner and result persistence.

The scan walks candidates n = 3 (mod 8) up to a bound, keeps those of shape
p_1 ... p_t * q with both hypothesis conditions, and emits one row per
survivor in increasing n.  Rows carry the exact table columns: class numbers,
the Legendre triple, the congruence verdict, and the independent Tunnell
label.

The sieve factors every candidate, and that factorisation is the only one a
row needs.  One TunnellTable serves every row: the Tunnell label and both
class numbers.

CSV is the 7-bit machine format (prime product joined by "*"); the pretty
printer uses the dot separator.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass
from math import isqrt
from typing import Iterable, Iterator, Optional, TextIO

import numpy as np

from .arith import FactoredSquarefree, legendre
from .classgroup import MAX_ABS_DISCRIMINANT
from .criteria import CriterionReport, evaluate_hypothesis
from .redei import hypothesis_from_factored
from .tunnell import TunnellTable

CSV_COLUMNS = (
    "n",
    "q",
    "p_product",
    "legendre_triple",
    "h_n",
    "h_nq",
    "modulus",
    "congruence_holds",
    "tunnell_label",
    "verdict",
)


@dataclass(frozen=True)
class ScanRow:
    n: int
    q: int
    p_list: tuple[int, ...]
    legendre_triple: tuple[int, ...]
    h_n: int
    h_nq: int
    modulus: int
    congruence_holds: bool
    tunnell_label: str
    verdict: str

    @property
    def p_product(self) -> str:
        return "*".join(str(p) for p in self.p_list)

    @property
    def triple_str(self) -> str:
        return "(" + ",".join(str(s) for s in self.legendre_triple) + ")"

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "p_product": self.p_product,
            "legendre_triple": self.triple_str,
            "h_n": self.h_n,
            "h_nq": self.h_nq,
            "modulus": self.modulus,
            "congruence_holds": self.congruence_holds,
            "tunnell_label": self.tunnell_label,
            "verdict": self.verdict,
        }


def row_from_report(report: CriterionReport) -> ScanRow:
    h = report.hypothesis
    ps = h.p_list
    triple = tuple(legendre(h.q, p) for p in ps) + tuple(
        legendre(ps[i], ps[j]) for i in range(len(ps)) for j in range(i + 1, len(ps))
    )
    return ScanRow(
        n=report.n,
        q=h.q,
        p_list=ps,
        legendre_triple=triple,
        h_n=report.h_n,
        h_nq=report.h_nq,
        modulus=report.modulus,
        congruence_holds=report.congruence_holds,
        tunnell_label=report.tunnell_label.value,
        verdict=report.verdict.value,
    )


def _smallest_prime_factors(limit: int) -> list[int]:
    """spf[i] for i = 0..limit (0 at 0 and 1), as Python ints for the candidate walk."""
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == 0:
            multiples = spf[p * p :: p]
            multiples[multiples == 0] = p
    primes = np.flatnonzero(spf == 0)[2:]
    spf[primes] = primes
    return spf.tolist()


def _shape_candidates(limit: int) -> Iterator[FactoredSquarefree]:
    """Squarefree n <= limit with exactly one prime = 3 and the rest = 1 (mod 8), factored."""
    spf = _smallest_prime_factors(limit)
    for n in range(3, limit + 1, 8):
        v = n
        primes = []
        seen_q = 0
        ok = True
        while v > 1:
            p = spf[v]
            v //= p
            if v % p == 0:
                ok = False
                break
            r = p % 8
            if r == 3:
                seen_q += 1
                if seen_q > 1:
                    ok = False
                    break
            elif r != 1:
                ok = False
                break
            primes.append(p)
        if ok and seen_q == 1 and n != spf[n]:
            yield FactoredSquarefree(n, tuple(primes))


def scan(limit: int, t_filter: Optional[int] = None, on_error=None) -> Iterator[ScanRow]:
    """The ScanRow of every hypothesis n <= limit, in increasing n, as a generator.

    The limit is checked here, at the call; the sieve and the table are built
    when the first row is asked for.  Computation errors abort the offending
    row via on_error (default: stderr note) and the scan continues; invariant
    violations propagate, loudly.
    """
    if limit < 3:
        raise ValueError(f"need limit >= 3, got {limit}")
    if 4 * limit > 3 * MAX_ABS_DISCRIMINANT:
        raise ValueError(f"limit {limit} needs |D| up to 4*limit/3, beyond the supported bound {MAX_ABS_DISCRIMINANT}")
    if on_error is None:
        on_error = lambda n, exc: print(f"scan: n = {n} skipped: {exc}", file=sys.stderr)
    return _rows(limit, t_filter, on_error)


def _rows(limit: int, t_filter: Optional[int], on_error) -> Iterator[ScanRow]:
    table = TunnellTable(limit)
    for n in _shape_candidates(limit):
        h = hypothesis_from_factored(n)
        if not h.holds():
            continue
        if t_filter is not None and h.t != t_filter:
            continue
        try:
            report = evaluate_hypothesis(h, table=table)
        except (ValueError, ArithmeticError) as exc:
            on_error(n.value, exc)
            continue
        yield row_from_report(report)


def _csv_cell(value):
    """Booleans as the lowercase words JSON uses; every other value as is."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def emit(rows: Iterable[ScanRow], fmt: str, target) -> None:
    """Write rows as CSV (header + one line each) or a JSON array.

    target is a path or an open text file; I/O failures carry the path.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(target, (str, bytes)):
        try:
            with open(target, "w", encoding="utf-8", newline="") as fh:
                _emit_to(rows, fmt, fh)
        except OSError as exc:
            raise OSError(f"cannot write {target!r}: {exc}") from exc
    else:
        _emit_to(rows, fmt, target)


def _emit_to(rows: Iterable[ScanRow], fmt: str, fh: TextIO) -> None:
    if fmt == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            d = row.to_dict()
            writer.writerow([_csv_cell(d[c]) for c in CSV_COLUMNS])
    else:
        json.dump([row.to_dict() for row in rows], fh, indent=2)
        fh.write("\n")


def _row_from_dict(d: dict) -> ScanRow:
    triple = tuple(int(s) for s in d["legendre_triple"].strip("()").split(",") if s)
    return ScanRow(
        n=int(d["n"]),
        q=int(d["q"]),
        p_list=tuple(int(p) for p in d["p_product"].split("*")),
        legendre_triple=triple,
        h_n=int(d["h_n"]),
        h_nq=int(d["h_nq"]),
        modulus=int(d["modulus"]),
        congruence_holds=d["congruence_holds"] in (True, "true"),
        tunnell_label=d["tunnell_label"],
        verdict=d["verdict"],
    )


def read_rows(source, fmt: str) -> list[ScanRow]:
    """Inverse of emit, for both formats: reads back exactly what was written."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(source, (str, bytes)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return read_rows(fh, fmt)
    if fmt == "csv":
        reader = csv.reader(source)
        header = next(reader, None)
        if header is not None and tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {header}")
        return [_row_from_dict(dict(zip(CSV_COLUMNS, line))) for line in reader]
    return [_row_from_dict(d) for d in json.load(source)]

"""Range scanner and result persistence.

The scan walks candidates n = 3 (mod 8) up to a bound, keeps those of shape
p_1 ... p_t * q with both hypothesis conditions, and emits one row per
survivor in increasing n.  Rows carry the exact table columns: class numbers,
the Legendre triple, the congruence verdict, and the independent Tunnell
label.

The scan works in blocks.  Each pass sieves a block of n = 3 (mod 8) by the
odd primes up to sqrt(limit), each of which hits the block along one
progression, and drops, before any Python object is built, the n with a
square factor, a prime not 1 or 3 (mod 8), a q-count other than 1, or a p_i
modulo which q is a non-residue (Euler's criterion); the primes leave 1 or
the last prime of each n, and that factorisation is the only one a row
needs.  No array spans the range but the table.  One TunnellTable
serves every row with the sums that give the Tunnell label and both class
numbers: the scan runs the filter over the passes of one window of _WINDOW
consecutive n = 3 (mod 8), asks the table once for the sums at their
candidates alone, about 8% of the window, and reads T(n_q) by index.

Every row of a pass, whatever its t, is built from the pass's columns
(_pass_columns): both class numbers from the table's sums, the label from
c8 and c32, the modulus 2^(t+2), r8(-n) as a count of quartic non-residues,
the congruence, and one call of the invariant laws for the whole pass.  Per-row
Python is left to the t >= 2 rows alone: the rank condition and the Legendre
triple from hypothesis_from_factored, r8(-n_q) from eight_rank_neg_nq; for
t = 1 these are fixed or a power residue mod p.  Rows come out in increasing
n.

scan() returns a Scan.  Iterated, it yields a ScanRow per row, the form
library callers and read_rows use; its passes() give the same rows as plain
lists, one pass at a time, and emit writes a Scan's CSV from those lists
with no ScanRow.  Every CSV line, from a Scan or from any iterable of ScanRow, comes
from one formatter, _csv_records, and the csv module's quoting.  CSV is the
7-bit machine format (prime product joined by "*"); the pretty printer uses
the dot separator.  emit writes a path through a new file beside it, moved
into place only once every row is written, and returns the row count.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import operator
import os
import sys
from dataclasses import dataclass, fields
from math import isqrt
from typing import Callable, Iterable, Iterator, Optional, TextIO, Union

import numpy as np

from .arith import FactoredSquarefree, _pow_mod, _prime_sieve, _progressions
from .criteria import Verdict, check_invariant_laws
from .redei import HypothesisN, eight_rank_neg_nq, hypothesis_from_factored
from .tunnell import _WINDOW, Classification, NotDivisible, TunnellTable, congruent_under_bsd

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
        return _p_product(self.p_list)

    @property
    def triple_str(self) -> str:
        return _triple_str(self.legendre_triple)

    def cells(self) -> tuple:
        """The row's values in CSV_COLUMNS order."""
        return (
            self.n,
            self.q,
            self.p_product,
            self.triple_str,
            self.h_n,
            self.h_nq,
            self.modulus,
            self.congruence_holds,
            self.tunnell_label,
            self.verdict,
        )

    def to_dict(self) -> dict:
        return dict(zip(CSV_COLUMNS, self.cells()))


# a ScanRow's values in field order, which is CSV_COLUMNS order
_row_values = operator.attrgetter(*(field.name for field in fields(ScanRow)))


def _p_product(p_list: tuple[int, ...]) -> str:
    return "*".join(map(str, p_list))


@functools.lru_cache(maxsize=256)  # a scan has few distinct triples: (1) on every t = 1 row
def _triple_str(triple: tuple[int, ...]) -> str:
    return "(" + ",".join(map(str, triple)) + ")"


def _legendre_triple(h: HypothesisN) -> tuple[int, ...]:
    """(q/p_i) for every i, all +1 when the hypothesis holds, then (p_i/p_j) for i < j: entry (j, i) of A_n, the symbol mod p_j."""
    return (1,) * h.t + tuple(1 - 2 * (h.A[j] >> i & 1) for i in range(h.t) for j in range(i + 1, h.t))


# the largest limit scan() takes, checked before anything is built; a cold
# scan to it took 753-819 s and 679 MiB on a 2-core machine
MAX_SCAN_LIMIT = 10**9

# n = 3 (mod 8) per pass of the candidate filter; _WINDOW is a multiple of it,
# so _WINDOW // _BLOCK passes make one window of the table's sums
_BLOCK = 1 << 12


def _q(primes: np.ndarray) -> np.ndarray:
    """The prime q = 3 (mod 8) of each row of _shape_candidates' primes, as int64."""
    return np.where(primes & 7 == 3, primes, 0).max(axis=1).astype(np.int64)


def _non_residues(primes: np.ndarray, k: int) -> np.ndarray:
    """For each row of _shape_candidates' primes: the number of p_i modulo which q is not a k-th power, for k | p_i - 1.

    q is a k-th power mod p iff q^((p-1)/k) = 1 (mod p), Euler's criterion for
    k = 2; every pair (q, p_i) is taken at once.  The scan's p_i are below
    2^31, so the products stay in int64.
    """
    q = _q(primes)
    rows, cols = np.nonzero((primes & 7 == 1) & (primes > 1))
    p = primes[rows, cols].astype(np.int64)
    return np.bincount(rows[_pow_mod(q[rows] % p, (p - 1) // k, p) != 1], minlength=primes.shape[0])


def _shape_candidates(limit: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Squarefree n <= limit of shape p_1 ... p_t * q, t >= 1, with q a residue mod every p_i, one filter pass at a time.

    A pass takes _BLOCK values n = 3 + 8k and yields its survivors, ascending,
    and their primes, one row per n in increasing order and padded with 1.
    An odd prime p divides n iff k = -3/8 (mod p), so each p <= sqrt(limit)
    hits the pass's n along one progression.  An n is dropped at a hit where
    p^2 | n or p = 5, 7 (mod 8); the hits divided out leave 1 or a prime
    above sqrt(limit), the last factor; then n needs t >= 1 and one prime
    = 3 (mod 8).  Memory is one pass and the primes up to sqrt(limit).
    """
    p = np.flatnonzero(_prime_sieve(isqrt(limit)))[1:]
    root = -3 * (((p + 1) >> 1) ** 3 % p) % p  # 1/2 = (p + 1)/2 (mod p)
    last = (limit - 3) // 8
    for k in range(0, last + 1, _BLOCK):
        yield _filter_pass(k, min(k + _BLOCK, last + 1), p, root)


def _filter_pass(k0: int, k1: int, p: np.ndarray, root: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One pass of _shape_candidates, n = 8k + 3 for k0 <= k < k1: its survivors and their primes.

    p holds the odd sieving primes and root each one's -3/8 (mod p).  The
    pass's temporaries end with the call, so between passes the generator
    holds the sieving primes alone.
    """
    ns = np.arange(8 * k0 + 3, 8 * k1, 8, dtype=np.int64)
    count = (ns.size - (first := (root - k0) % p) + p - 1) // p
    hit, hp = _progressions(first, p, count), np.repeat(p, count)
    ok = np.ones(ns.size, dtype=bool)
    ok[hit[(hp & 4 != 0) | (ns[hit] % (hp * hp) == 0)]] = False
    rest = ns.copy()
    np.floor_divide.at(rest, hit, hp)
    big = rest > 1
    threes = np.bincount(hit[hp & 7 == 3], minlength=ns.size) + (big & (rest & 7 == 3))
    ok &= (threes == 1) & (np.bincount(hit, minlength=ns.size) + big >= 2)
    # the survivors' hits by n, each n's primes ascending, its big prime last
    kept = ok[hit]
    at = np.concatenate([hit[kept], np.flatnonzero(ok & big)])
    order = np.argsort(at, kind="stable")
    at, factor = at[order], np.concatenate([hp[kept], rest[ok & big]])[order]
    col = np.arange(at.size) - np.searchsorted(at, at)
    survivors = np.flatnonzero(ok)
    primes = np.ones((survivors.size, col.max(initial=0) + 1), dtype=np.int64)
    primes[np.searchsorted(survivors, at), col] = factor
    keep = _non_residues(primes, 2) == 0
    return ns[survivors][keep], primes[keep]


def scan(limit: int, t_filter: Optional[int] = None, on_error=None) -> Scan:
    """Every hypothesis n <= limit as a Scan: iterated, the ScanRow of each in increasing n.

    The limit is checked here, at the call; the sieve and the table are built
    when the first row is asked for.  Computation errors abort the offending
    row via on_error (default: stderr note) and the scan continues; invariant
    violations propagate, loudly.
    """
    if limit < 3:
        raise ValueError(f"need limit >= 3, got {limit}")
    if limit > MAX_SCAN_LIMIT:
        raise ValueError(
            f"limit {limit} is beyond the scan bound {MAX_SCAN_LIMIT}: its residue tests need p^2 < 2^63 for p <= limit/3, its"
            " int16 table a checked maximum, and memory about limit/2 bytes of table, limit/6 of class-1 sums and one chunk"
            " while a class is built"
        )
    if on_error is None:
        on_error = lambda n, exc: print(f"scan: n = {n} skipped: {exc}", file=sys.stderr)
    return Scan(limit, t_filter, on_error)


class Scan:
    """The rows of a scan, as scan() returns them; each iteration runs the scan afresh.

    Iterating yields ScanRow; passes() yields the same rows as the columns of
    one filter pass at a time, which emit writes to CSV without a ScanRow.
    """

    def __init__(self, limit: int, t_filter: Optional[int], on_error: Callable[[int, Exception], None]):
        self.limit, self.t_filter, self.on_error = limit, t_filter, on_error

    def __iter__(self) -> Iterator[ScanRow]:
        for columns in self.passes():
            yield from map(ScanRow, *columns)

    def passes(self) -> Iterator[tuple[list, ...]]:
        """The rows of each filter pass as _pass_columns returns them, the passes in increasing n."""
        table = TunnellTable(self.limit)

        def of_t(ns, primes):
            wanted = slice(None) if self.t_filter is None else (primes > 1).sum(axis=1) - 1 == self.t_filter
            return ns[wanted], primes[wanted]

        candidates = itertools.starmap(of_t, _shape_candidates(self.limit))
        # the passes of one window of _WINDOW values n = 8k + 3, whose sums the table gives at their k in one call
        while held := list(itertools.islice(candidates, _WINDOW // _BLOCK)):
            sums = table.sums_at(np.concatenate([ns for ns, _ in held]) >> 3)  # n = 8k + 3
            starts = itertools.accumulate((ns.size for ns, _ in held), initial=0)
            for (ns, primes), lo in zip(held, starts):
                yield _pass_columns(ns, primes, sums[:, lo : lo + ns.size], table.t1, self.on_error)


def _octic(ps: np.ndarray) -> np.ndarray:
    """r8(-4p) = 1, i.e. 8 | h(-4p), for each prime p = 1 (mod 8) of an int64 array.

    Barrucand and Cohn (1969): 8 | h(-4p) iff p = x^2 + 32y^2 iff
    (-4)^((p-1)/8) = 1 (mod p).
    """
    return _pow_mod(ps - 4, (ps - 1) // 8, ps) == 1


def _rank_step(n: int, primes: list[int]) -> Union[tuple[tuple[int, ...], int], None, Exception]:
    """The Legendre triple and r8(-n_q) of a t >= 2 candidate, None if rank A_n != t - 1, or the error that stopped it."""
    try:
        h = hypothesis_from_factored(FactoredSquarefree(n, tuple(p for p in primes if p > 1)))
        return (_legendre_triple(h), eight_rank_neg_nq(h)) if h.rank_condition else None
    except (ValueError, ArithmeticError) as exc:
        return exc


_LABELS = (Classification.NON_CONGRUENT_UNCONDITIONAL.value, Classification.CONGRUENT_UNDER_BSD.value)
_VERDICTS = (Verdict.NON_CONGRUENT_CERTIFICATE.value, Verdict.CONSISTENT_WITH_CONGRUENT.value)


def _pass_columns(ns: np.ndarray, primes: np.ndarray, sums: np.ndarray, t1: np.ndarray, on_error) -> tuple[list, ...]:
    """The rows of one filter pass, whatever their t: ten lists in ScanRow's field order, in increasing n.

    sums holds the rows T, c8 and c32 of TunnellTable.sums_at at the pass's
    n = 8k + 3, a column per n, and t1 is TunnellTable.t1.  The filter has proved
    (q/p_i) = 1 for every p_i, so the hypothesis holds iff rank A_n = t - 1:
    always for t = 1, where A_n is the 1 x 1 zero matrix and the triple is
    (1), and tested by _rank_step for t >= 2.  The modulus is 2^(t+2), h(-n) = T(n)/24 and h(-4 n_q) = T(n_q)/4; r8(-n) = 1 iff the
    quartic symbol (q/n_q)_4 is +1, i.e. q is a quartic non-residue mod an
    even number of p_i.  r8(-n_q) is _octic for t = 1 and eight_rank_neg_nq
    for t >= 2.  The laws of check_invariant_laws are checked once on the
    rows returned; then each row whose T is not divisible or whose _rank_step
    failed goes to on_error, and is left out.
    """
    t = (primes > 1).sum(axis=1) - 1
    multi = np.flatnonzero(t >= 2)
    steps = [_rank_step(n, row) for n, row in zip(ns[multi].tolist(), primes[multi].tolist())]
    held = np.ones(ns.size, dtype=bool)
    held[multi] = [step is not None for step in steps]
    ns, primes, t, sums = ns[held], primes[held], t[held], sums[:, held]
    # the row index of each t >= 2 row left, to its triple and r8(-n_q) or to the error that stopped it
    steps = dict(zip(np.flatnonzero(t >= 2).tolist(), (step for step in steps if step is not None)))
    qs = _q(primes)
    nqs = ns // qs
    failed, r8_nq = np.zeros((2, ns.size), dtype=bool)
    triples = {}
    for i, step in steps.items():
        if isinstance(step, Exception):
            failed[i] = True
        else:
            triples[i], r8_nq[i] = step[0], step[1] == 1
    r8_nq[t == 1] = _octic(nqs[t == 1])
    t_n, c8, c32 = sums
    t_nq = t1[nqs >> 3]  # n_q = 8k + 1
    ok = (t_n % 24 == 0) & (t_nq % 4 == 0) & ~failed
    h_n, h_nq, modulus = t_n // 24, t_nq // 4, 4 << t
    congruence = (h_n - h_nq) % modulus == 0
    r8_n = _non_residues(primes, 4) % 2 == 0
    bsd = congruent_under_bsd(c8, c32)
    laws = (ns, ~congruence, bsd, modulus, h_n, h_nq, congruence, r8_n, r8_nq)
    check_invariant_laws(*(column[ok] for column in laws))
    for i in np.flatnonzero(~ok).tolist():
        n, tn, tnq = int(ns[i]), int(t_n[i]), int(t_nq[i])
        if tn % 24:
            on_error(n, NotDivisible(n, tn, 24))
        elif tnq % 4:
            on_error(n, NotDivisible(int(nqs[i]), tnq, 4))
        else:
            on_error(n, steps[i])
    good = np.flatnonzero(ok)
    p_cols = np.where((primes & 7 == 1) & (primes > 1), primes, 0)[good]
    congruence = congruence[good].tolist()
    return (
        ns[good].tolist(),
        qs[good].tolist(),
        [tuple(filter(None, ps)) for ps in p_cols.tolist()],
        [triples.get(i, (1,)) for i in good.tolist()],
        h_n[good].tolist(),
        h_nq[good].tolist(),
        modulus[good].tolist(),
        congruence,
        [_LABELS[label] for label in bsd[good].tolist()],
        [_VERDICTS[holds] for holds in congruence],
    )


def emit(rows: Iterable[ScanRow], fmt: str, target) -> int:
    """Write rows as CSV (header + one line each) or a JSON array; return how many rows were written.

    rows is a Scan or any iterable of ScanRow; a Scan is written a filter
    pass at a time, any other iterable _BLOCK rows at a time.  target is an
    open text file or a path.  A path goes through _replacing, whose file is made before
    the first row is asked for; I/O failures carry the path.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(target, (str, bytes)):
        with _replacing(target) as fh:
            return _emit_to(rows, fmt, fh)
    return _emit_to(rows, fmt, target)


@contextlib.contextmanager
def _replacing(path):
    """A new file beside path, made on entry so a bad path fails before any work; moved onto path when
    the block ends, removed if it raises, so path is never left half written.  An OSError names path."""
    part = f"{os.fsdecode(path)}.{os.getpid()}.part"
    try:
        fh = open(part, "x", encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(f"cannot write {path!r}: {exc}") from exc
    try:
        with fh:
            yield fh
        os.replace(part, path)
    except BaseException as exc:
        os.unlink(part)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {path!r}: {exc}") from exc
        raise


def _emit_to(rows: Iterable[ScanRow], fmt: str, fh: TextIO) -> int:
    # a Scan by filter pass; any other iterable in batches of up to _BLOCK rows, from one iterator until islice gives none
    rest = iter(rows)
    batches = rows.passes() if isinstance(rows, Scan) else iter(lambda: tuple(zip(*map(_row_values, itertools.islice(rest, _BLOCK)))), ())
    count = 0
    if fmt == "json":  # json.dump's bytes for the list of every row's dict with indent=2, a batch at a time
        for columns in batches:
            if columns[0]:  # json.dumps indents the batch's rows inside its "[\n" and "\n]"
                text = json.dumps([row.to_dict() for row in map(ScanRow, *columns)], indent=2)
                fh.write((",\n" if count else "[\n") + text[2:-2])
                count += len(columns[0])
        fh.write("\n]\n" if count else "[]\n")
        return count
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for columns in batches:
        writer.writerows(_csv_records(columns))
        count += len(columns[0])
    return count


_WORDS = ("false", "true")  # booleans as the lowercase words JSON uses


def _csv_records(columns: tuple) -> Iterator[tuple]:
    """The CSV cells of rows given as columns in ScanRow's field order, one tuple per row: the one CSV line format."""
    n, q, p_lists, triples, h_n, h_nq, modulus, congruence, labels, verdicts = columns
    words = map(_WORDS.__getitem__, congruence)
    return zip(n, q, map(_p_product, p_lists), map(_triple_str, triples), h_n, h_nq, modulus, words, labels, verdicts)


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

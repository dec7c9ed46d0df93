"""Range scanner and result persistence.

The scan walks candidates n = 3 (mod 8) up to a bound, keeps those of shape
p_1 ... p_t * q with both hypothesis conditions, and emits one row per
survivor in increasing n.  Rows carry the exact table columns: class numbers,
the Legendre triple, the congruence verdict, and the independent Tunnell
label.

The scan works in blocks.  Each pass sieves a block of n = 3 (mod 8) by the
odd primes up to sqrt(limit), each of which hits the block along one
progression, and drops, before any Python object is built, the n with a
square factor, a prime not 1 or 3 (mod 8), a q-count other than 1, a t other
than the one asked for, or a p_i modulo which q is a non-residue.  One power
q^((p_i-1)/4) (mod p_i) per pair gives both that test and r8(-n).  The
primes leave 1 or the last prime of each n, and that factorisation is the
only one a row needs.  No array spans the range but the table.  One
TunnellTable serves every row with the sums that give the Tunnell label and
both class numbers: the scan runs the filter over the passes of one window
of _WINDOW consecutive n = 3 (mod 8), asks the table once for the sums at
their candidates alone, about 8% of the window, and reads T(n_q) by index.

Every row of a pass, whatever its t, is built from the pass's columns by
one function of them, _pass_columns: both class numbers from the table's
sums, the label from c8 and c32, the modulus 2^(t+2), the congruence, and one
call of the invariant laws for the whole pass.  Per-row Python is left to the
t >= 2 rows alone: the rank condition and the Legendre triple from
hypothesis_from_factored, r8(-n_q) from eight_rank_neg_nq; for t = 1 these
are fixed or a power residue mod p.  It returns the rows it skipped on an
error with the rest, and the Scan notes them on stderr and keeps them.

scan() returns a Scan.  Iterated, it yields a ScanRow per row, the form
library callers and read_rows use: a NamedTuple whose fields are the CSV
columns in order, with the primes and the triple as tuples.  Its passes()
give the same rows as plain lists, one pass at a time, and emit writes a
Scan's CSV from those lists with no ScanRow.  Every CSV line, from a Scan or
from any iterable of ScanRow, comes from one formatter, _csv_lines: one %
format of the row's ten cells, the bytes csv.writer writes.  Only a triple
of two or more symbols holds a comma, and it alone is quoted, as the csv
module quotes it; the csv module only reads (read_rows).  CSV is the 7-bit
machine format (prime product joined by "*"); the pretty printer uses the
dot separator.  emit writes a path through a new file beside it, moved into
place only once every row is written, and returns the row count.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import os
import sys
from math import isqrt
from typing import Iterable, Iterator, NamedTuple, Optional, TextIO, Union

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


class ScanRow(NamedTuple):
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


def _shape_candidates(limit: int, t: Optional[int] = None) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Squarefree n <= limit of shape p_1 ... p_t * q, t >= 1 or the t given, with q a residue mod every p_i, a pass at a time.

    A pass takes _BLOCK values n = 3 + 8k and yields its survivors, ascending,
    their primes, one row per n in increasing order and padded with 0, and
    r8(-n) of each (_residue_test).
    An odd prime p divides n iff k = -3/8 (mod p), so each p <= sqrt(limit)
    hits the pass's n along one progression.  An n is dropped at a hit where
    p^2 | n or p = 5, 7 (mod 8); the hits divided out leave 1 or a prime
    above sqrt(limit), the last factor; then n needs t >= 1, or the t
    asked for, and one prime = 3 (mod 8).  Memory is one pass and the primes
    up to sqrt(limit).
    """
    p = np.flatnonzero(_prime_sieve(isqrt(limit)))[1:]
    root = -3 * (((p + 1) >> 1) ** 3 % p) % p  # 1/2 = (p + 1)/2 (mod p)
    last = (limit - 3) // 8
    for k in range(0, last + 1, _BLOCK):
        yield _filter_pass(k, min(k + _BLOCK, last + 1), p, root, t)


def _filter_pass(k0: int, k1: int, p: np.ndarray, root: np.ndarray, t: Optional[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pass of _shape_candidates, n = 8k + 3 for k0 <= k < k1: its survivors, their primes and r8(-n).

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
    size = np.bincount(hit, minlength=ns.size) + big  # t + 1 where n survives
    ok &= (threes == 1) & (size >= 2) & (t is None or size == t + 1)
    # the survivors' hits by n, each n's primes ascending, its big prime last
    kept = ok[hit]
    at = np.concatenate([hit[kept], np.flatnonzero(ok & big)])
    order = np.argsort(at, kind="stable")
    at, factor = at[order], np.concatenate([hp[kept], rest[ok & big]])[order]
    col = np.arange(at.size) - np.searchsorted(at, at)
    survivors = np.flatnonzero(ok)
    primes = np.zeros((survivors.size, col.max(initial=0) + 1), dtype=np.int64)
    primes[np.searchsorted(survivors, at), col] = factor
    keep, r8_n = _residue_test(primes)
    return ns[survivors][keep], primes[keep], r8_n[keep]


def _residue_test(primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of _shape_candidates' primes: whether q is a residue mod every p_i, and r8(-n) if it is.

    One power x = q^((p_i-1)/4) (mod p_i) per pair (q, p_i), all pairs at
    once: x^2 is (q/p_i) by Euler's criterion, so q is a residue iff x = +-1,
    and then x = (q/p_i)_4.  r8(-n) = 1 iff the quartic symbol (q/n_q)_4 is +1,
    i.e. x = -1 at an even number of p_i.  The scan's p_i are below 2^31, so
    the products stay in int64.
    """
    rows, cols = np.nonzero(primes & 7 == 1)
    p = primes[rows, cols].astype(np.int64)
    x = _pow_mod(_q(primes)[rows] % p, (p - 1) >> 2, p)
    count = functools.partial(np.bincount, minlength=primes.shape[0])
    return count(rows[(x != 1) & (x != p - 1)]) == 0, count(rows[x == p - 1]) % 2 == 0


def scan(limit: int, t_filter: Optional[int] = None) -> Scan:
    """Every hypothesis n <= limit as a Scan: iterated, the ScanRow of each in increasing n.

    The limit is checked here, at the call; the sieve and the table are built
    when the first row is asked for.  A row that meets a computation error is
    left out, noted on stderr and kept in the Scan's skipped, and the scan
    continues; invariant violations propagate, loudly.
    """
    if limit < 3:
        raise ValueError(f"need limit >= 3, got {limit}")
    if limit > MAX_SCAN_LIMIT:
        raise ValueError(
            f"limit {limit} is beyond the scan bound {MAX_SCAN_LIMIT}: its residue tests need p^2 < 2^63 for p <= limit/3, its"
            " int16 table a checked maximum, and memory about limit/2 bytes of table, limit/6 of class-1 sums and one chunk"
            " while a class is built"
        )
    return Scan(limit, t_filter)


class Scan:
    """The rows of a scan, as scan() returns them; each iteration runs the scan afresh.

    Iterating yields ScanRow; passes() yields the same rows as the columns of
    one filter pass at a time, which emit writes to CSV without a ScanRow.
    skipped holds the (n, error) of each row the last iteration left out on
    an error, in increasing n.
    """

    def __init__(self, limit: int, t_filter: Optional[int]):
        self.limit, self.t_filter = limit, t_filter
        self.skipped: list[tuple[int, Exception]] = []

    def __iter__(self) -> Iterator[ScanRow]:
        for columns in self.passes():
            yield from map(ScanRow, *columns)

    def passes(self) -> Iterator[tuple[list, ...]]:
        """The rows of each filter pass as _pass_columns returns them, the passes in increasing n."""
        self.skipped = []
        table = TunnellTable(self.limit)
        candidates = _shape_candidates(self.limit, self.t_filter)
        # the passes of one window of _WINDOW values n = 8k + 3, whose sums the table gives at their k in one call
        while held := list(itertools.islice(candidates, _WINDOW // _BLOCK)):
            sums = table.sums_at(np.concatenate([ns for ns, _, _ in held]) >> 3)  # n = 8k + 3
            starts = itertools.accumulate((ns.size for ns, _, _ in held), initial=0)
            for (ns, primes, r8_n), lo in zip(held, starts):
                columns, skipped = _pass_columns(ns, primes, r8_n, sums[:, lo : lo + ns.size], table.t1)
                for n, exc in skipped:
                    print(f"scan: n = {n} skipped: {exc}", file=sys.stderr)
                self.skipped += skipped
                yield columns


def _octic(ps: np.ndarray) -> np.ndarray:
    """r8(-4p) = 1, i.e. 8 | h(-4p), for each prime p = 1 (mod 8) of an int64 array.

    Barrucand and Cohn (1969): 8 | h(-4p) iff p = x^2 + 32y^2 iff
    (-4)^((p-1)/8) = 1 (mod p).
    """
    return _pow_mod(ps - 4, (ps - 1) // 8, ps) == 1


def _rank_step(n: int, primes: list[int]) -> Union[tuple[tuple[int, ...], int], None, Exception]:
    """The Legendre triple and r8(-n_q) of a t >= 2 candidate, None if rank A_n != t - 1, or the error that stopped it."""
    try:
        h = hypothesis_from_factored(FactoredSquarefree(n, tuple(filter(None, primes))))
        return (_legendre_triple(h), eight_rank_neg_nq(h)) if h.rank_condition else None
    except (ValueError, ArithmeticError) as exc:
        return exc


_LABELS = (Classification.NON_CONGRUENT_UNCONDITIONAL.value, Classification.CONGRUENT_UNDER_BSD.value)
_VERDICTS = (Verdict.NON_CONGRUENT_CERTIFICATE.value, Verdict.CONSISTENT_WITH_CONGRUENT.value)


def _pass_columns(
    ns: np.ndarray, primes: np.ndarray, r8_n: np.ndarray, sums: np.ndarray, t1: np.ndarray
) -> tuple[tuple[list, ...], list[tuple[int, Exception]]]:
    """The rows of one filter pass, whatever their t, and the (n, error) of each row skipped, both in increasing n.

    The rows are ten lists in ScanRow's field order.  ns, primes and r8_n are
    a pass of _shape_candidates; sums holds the rows T, c8 and c32 of
    TunnellTable.sums_at at its n = 8k + 3, a column per n, and t1 is
    TunnellTable.t1.  The filter has proved (q/p_i) = 1 for every p_i, so the
    hypothesis holds iff rank A_n = t - 1: always for t = 1, where A_n is the
    1 x 1 zero matrix and the triple is (1), and tested by _rank_step for
    t >= 2.  The modulus is 2^(t+2), h(-n) = T(n)/24 and h(-4 n_q) = T(n_q)/4;
    r8(-n_q) is _octic for t = 1 and eight_rank_neg_nq for t >= 2.  One mask
    drops the rows whose rank condition fails and the skipped ones, whose
    T(n) or T(n_q) is not divisible or whose _rank_step raised; the laws of
    check_invariant_laws are checked once on the rest.
    """
    t = np.count_nonzero(primes, axis=1) - 1
    qs = _q(primes)
    nqs = ns // qs
    r8_nq = np.zeros(ns.size, dtype=bool)
    r8_nq[t == 1] = _octic(nqs[t == 1])
    keep = np.ones(ns.size, dtype=bool)
    triples, errors = {}, {}
    multi = np.flatnonzero(t >= 2)
    for i, n, row in zip(multi.tolist(), ns[multi].tolist(), primes[multi].tolist()):
        step = _rank_step(n, row)
        if step is None:
            keep[i] = False
        elif isinstance(step, Exception):
            errors[i] = step
        else:
            triples[i], r8_nq[i] = step[0], step[1] == 1
    t_n, c8, c32 = sums
    t_nq = t1[nqs >> 3]  # n_q = 8k + 1
    for i in np.flatnonzero(keep & ((t_n % 24 != 0) | (t_nq % 4 != 0))).tolist():
        errors[i] = NotDivisible(int(ns[i]), int(t_n[i]), 24) if t_n[i] % 24 else NotDivisible(int(nqs[i]), int(t_nq[i]), 4)
    keep[list(errors)] = False
    h_n, h_nq, modulus = t_n // 24, t_nq // 4, 4 << t
    congruence = (h_n - h_nq) % modulus == 0
    bsd = congruent_under_bsd(c8, c32)
    laws = (ns, ~congruence, bsd, modulus, h_n, h_nq, congruence, r8_n, r8_nq)
    check_invariant_laws(*(column[keep] for column in laws))
    good = np.flatnonzero(keep)
    congruence = congruence[good].tolist()
    columns = (
        ns[good].tolist(),
        qs[good].tolist(),
        [tuple(filter(None, ps)) for ps in np.where(primes & 7 == 1, primes, 0)[good].tolist()],
        [triples.get(i, (1,)) for i in good.tolist()],
        h_n[good].tolist(),
        h_nq[good].tolist(),
        modulus[good].tolist(),
        congruence,
        [_LABELS[label] for label in bsd[good].tolist()],
        [_VERDICTS[holds] for holds in congruence],
    )
    return columns, [(int(ns[i]), errors[i]) for i in sorted(errors)]


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
    batches = rows.passes() if isinstance(rows, Scan) else iter(lambda: tuple(zip(*itertools.islice(rest, _BLOCK))), ())
    count = 0
    if fmt == "json":  # json.dump's bytes for the list of every row's dict with indent=2, a batch at a time
        for columns in batches:
            if columns[0]:  # json.dumps indents the batch's rows inside its "[\n" and "\n]"
                text = json.dumps([row.to_dict() for row in map(ScanRow, *columns)], indent=2)
                fh.write((",\n" if count else "[\n") + text[2:-2])
                count += len(columns[0])
        fh.write("\n]\n" if count else "[]\n")
        return count
    fh.write(",".join(CSV_COLUMNS) + "\n")
    for columns in batches:
        fh.write("".join(_csv_lines(columns)))
        count += len(columns[0])
    return count


_WORDS = ("false", "true")  # booleans as the lowercase words JSON uses

# a row's ten cells as csv.writer writes them with lineterminator="\n": only a
# triple of more than one symbol holds the delimiter, and _csv_triple quotes it
_CSV_LINE = ",".join(["%s"] * len(CSV_COLUMNS)) + "\n"


@functools.lru_cache(maxsize=256)
def _csv_triple(triple: tuple[int, ...]) -> str:
    text = _triple_str(triple)
    return f'"{text}"' if "," in text else text


def _csv_lines(columns: tuple) -> Iterator[str]:
    """The CSV line of each row given as columns in ScanRow's field order: the one CSV line format."""
    n, q, p_lists, triples, h_n, h_nq, modulus, congruence, labels, verdicts = columns
    cells = zip(n, q, map(_p_product, p_lists), map(_csv_triple, triples), h_n, h_nq, modulus, map(_WORDS.__getitem__, congruence), labels, verdicts)
    return map(_CSV_LINE.__mod__, cells)


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

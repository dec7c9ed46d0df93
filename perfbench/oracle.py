"""Checks on the program's output, computed without importing the program.

Everything here is written apart from ``src/congruent``: the hypothesis set
comes from ``sympy.factorint``, Legendre symbols from Euler's criterion, the
rank of A_n from its own GF(2) elimination, and class numbers from an
enumeration of reduced forms that sweeps a first and b second (the program
sweeps b first and divides).  Each check returns a list of problems; an empty
list means the output obeys every law checked.
"""

from __future__ import annotations

import csv
import os
import random
import runpy
from math import isqrt, prod

import numpy as np
from sympy import factorint, isprime

CONSISTENT = "consistent"
CERTIFICATE = "non_congruent_certificate"
BSD_CONGRUENT = "congruent_under_bsd"
THETA_NON_CONGRUENT = "non_congruent_unconditional"
CSV_COLUMNS = [
    "n", "q", "p_product", "legendre_triple", "h_n", "h_nq",
    "modulus", "congruence_holds", "tunnell_label", "verdict",
]


def published_rows() -> dict:
    """The published t = 2 rows and known exceptions, read from the
    repository's golden tables (data only: ``tests/tables.py`` imports nothing
    from the program).  CONGRUENT_T2 and NON_CONGRUENT_T2 hold
    (n, q, p1, p2, h(-n), h(-n_q)); EXCEPTIONS holds n whose congruence holds
    although the theta counts rule congruence out."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return runpy.run_path(os.path.join(root, "tests", "tables.py"))


def legendre(a: int, p: int) -> int:
    """(a/p) for an odd prime p, by Euler's criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of rows given as bit masks."""
    rank = 0
    rows = list(rows)
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


def matrix_a(ps: list[int]) -> list[int]:
    """Rows of A_n: bit j of row i is 1 iff (p_j/p_i) = -1, diagonal = row parity."""
    rows = []
    for i, p in enumerate(ps):
        row = sum(1 << j for j, pj in enumerate(ps) if j != i and legendre(pj, p) == -1)
        rows.append(row | ((bin(row).count("1") & 1) << i))
    return rows


def hypothesis_split(n: int):
    """(q, [p_i]) when n is a hypothesis n, else None."""
    f = factorint(n)
    if any(e > 1 for e in f.values()):
        return None
    qs = [p for p in f if p % 8 == 3]
    ps = sorted(p for p in f if p % 8 == 1)
    if len(qs) != 1 or not ps or len(qs) + len(ps) != len(f):
        return None
    q = qs[0]
    if any(legendre(q, p) != 1 for p in ps):
        return None
    if gf2_rank(matrix_a(ps)) != len(ps) - 1:
        return None
    return q, ps


def hypothesis_ns(limit: int) -> list[int]:
    """Every hypothesis n <= limit (all are 3 mod 8, since q = 3 and p_i = 1)."""
    return [n for n in range(3, limit + 1, 8) if hypothesis_split(n) is not None]


def next_hypothesis_n(x: int) -> int:
    n = x + (3 - x) % 8
    while hypothesis_split(n) is None:
        n += 8
    return n


def largest_discriminant_n(limit: int) -> int:
    """The largest hypothesis n <= limit with q = 3.

    Its n_q = n/3 has discriminant -4n/3, the largest |D| that any hypothesis
    n <= limit brings to a check (|D| is n itself, or 4n/q for n_q).
    """
    n = limit - (limit - 3) % 24  # n = 3 (mod 8) and 3 | n
    while (hypothesis_split(n) or (0,))[0] != 3:
        n -= 24
    return n


def check_sample(seed: int, count: int, lo_exp: float, hi_exp: float) -> list[int]:
    """count hypothesis n from [10^lo_exp, 10^hi_exp]: largest_discriminant_n of
    the top, and count - 1 drawn log-uniformly, one per stratum.

    Stratifying keeps the spread of n, and so of the per-n cost, the same for
    every seed; the seed only moves each draw within its stratum.  The fixed
    top n makes the largest class-number computation, which sets the peak
    memory of a check run, the same for every seed.  The list comes in a
    seeded random order, so that the n of each size are spread over the whole
    run rather than met in one stretch of it.
    """
    rng = random.Random(seed)
    width = (hi_exp - lo_exp) / (count - 1)
    out = [largest_discriminant_n(int(10**hi_exp))]
    for i in range(count - 1):
        x = int(10 ** (lo_exp + width * (i + rng.random())))
        out.append(next_hypothesis_n(x))
    rng.shuffle(out)
    return out


def discriminant(m: int) -> int:
    return -m if m % 4 == 3 else -4 * m


def class_number(D: int) -> int:
    """h(D) for a fundamental D < -4: reduced forms (a, b, c), swept by a.

    For each a <= sqrt(|D|/3) take 0 <= b <= a with b = D (mod 2) and
    4a | b^2 - D, c = (b^2 - D)/4a >= a, gcd(a, b, c) = 1.  The form with -b
    is also reduced unless b = 0, b = a or a = c.
    """
    amax = isqrt(-D // 3)
    a = np.arange(1, amax + 1, dtype=np.int64)
    nb = (a - (D & 1)) // 2 + 1  # how many b of D's parity lie in [0, a]
    total = int(nb.sum())
    a_rep = np.repeat(a, nb)
    start = np.cumsum(nb) - nb
    b = (np.arange(total, dtype=np.int64) - np.repeat(start, nb)) * 2 + (D & 1)
    num = b * b - D
    keep = num % (4 * a_rep) == 0
    a_rep, b, num = a_rep[keep], b[keep], num[keep]
    c = num // (4 * a_rep)
    keep = (c >= a_rep) & (np.gcd(np.gcd(a_rep, b), c) == 1)
    a_rep, b, c = a_rep[keep], b[keep], c[keep]
    mirrored = (b > 0) & (b < a_rep) & (c > a_rep)
    return int(b.size + mirrored.sum())


def read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected header {header}")
        return [dict(zip(CSV_COLUMNS, line)) for line in reader]


def _common_laws(n, q, ps, h_n, h_nq, modulus, holds, label, verdict) -> list[str]:
    bad = []
    if q % 8 != 3 or not isprime(q):
        bad.append(f"n={n}: q={q} is not a prime = 3 (mod 8)")
    if not ps or any(p % 8 != 1 or not isprime(p) for p in ps) or ps != sorted(set(ps)):
        bad.append(f"n={n}: p_i={ps} are not distinct primes = 1 (mod 8)")
    if n != q * prod(ps):
        bad.append(f"n={n}: q * prod(p_i) = {q * prod(ps)}")
    if modulus != 1 << (len(ps) + 2):
        bad.append(f"n={n}: modulus {modulus} != 2^(t+2)")
    half = 1 << (len(ps) + 1)
    if h_n % half or h_nq % half:
        bad.append(f"n={n}: 2^(t+1) does not divide h_n={h_n} and h_nq={h_nq}")
    if holds != ((h_n - h_nq) % modulus == 0):
        bad.append(f"n={n}: congruence_holds={holds} but h_n - h_nq = {h_n - h_nq}")
    if verdict != (CONSISTENT if holds else CERTIFICATE):
        bad.append(f"n={n}: verdict {verdict} with congruence_holds={holds}")
    if label not in (BSD_CONGRUENT, THETA_NON_CONGRUENT):
        bad.append(f"n={n}: unknown Tunnell label {label!r}")
    if verdict == CERTIFICATE and label == BSD_CONGRUENT:
        bad.append(f"n={n}: certificate carries {BSD_CONGRUENT}")
    return bad


def _class_numbers(rng: random.Random, items: list, sample: int, key) -> list[str]:
    """Recompute h(-n) and h(-n_q) on a seeded sample of items."""
    bad = []
    for item in rng.sample(items, min(sample, len(items))):
        n, n_q, h_n, h_nq = key(item)
        want = (class_number(discriminant(n)), class_number(discriminant(n_q)))
        if (h_n, h_nq) != want:
            bad.append(f"n={n}: (h_n, h_nq) = {(h_n, h_nq)}, recomputed {want}")
    return bad


def check_scan_rows(rows: list[dict], limit: int, seed: int, sample: int) -> list[str]:
    """Laws on every row, the exact row set, sampled class numbers, published rows."""
    bad = []
    parsed = []
    for r in rows:
        try:
            n, q, h_n, h_nq, modulus = (int(r[k]) for k in ("n", "q", "h_n", "h_nq", "modulus"))
            ps = [int(p) for p in r["p_product"].split("*")]
            triple = tuple(int(s) for s in r["legendre_triple"].strip("()").split(","))
        except ValueError as exc:
            bad.append(f"unparsable row {r}: {exc}")
            continue
        if r["congruence_holds"] not in ("true", "false"):
            bad.append(f"n={n}: congruence_holds={r['congruence_holds']!r}")
        holds = r["congruence_holds"] == "true"
        bad += _common_laws(n, q, ps, h_n, h_nq, modulus, holds, r["tunnell_label"], r["verdict"])
        want = tuple(legendre(q, p) for p in ps) + tuple(
            legendre(ps[i], ps[j]) for i in range(len(ps)) for j in range(i + 1, len(ps))
        )
        if triple != want:
            bad.append(f"n={n}: Legendre triple {triple}, expected {want}")
        parsed.append((n, n // q if q else 0, h_n, h_nq, r))
    ns = [p[0] for p in parsed]
    if ns != sorted(set(ns)):
        bad.append("rows are not in strictly increasing n")
    expected = hypothesis_ns(limit)
    if set(ns) != set(expected):
        missing = sorted(set(expected) - set(ns))[:5]
        extra = sorted(set(ns) - set(expected))[:5]
        bad.append(f"row set differs from the hypothesis n <= {limit}: missing {missing}, extra {extra}")
    bad += _class_numbers(random.Random(seed), parsed, sample, lambda p: p[:4])
    by_n = {p[0]: p[4] for p in parsed}
    tables = published_rows()
    for table, verdict, label in (("CONGRUENT_T2", CONSISTENT, BSD_CONGRUENT), ("NON_CONGRUENT_T2", CERTIFICATE, THETA_NON_CONGRUENT)):
        for n, q, p1, p2, h_n, h_nq in tables[table]:
            if n > limit:
                continue
            r = by_n.get(n)
            got = r and (int(r["q"]), r["p_product"], int(r["h_n"]), int(r["h_nq"]), r["verdict"], r["tunnell_label"])
            if got != (q, f"{p1}*{p2}", h_n, h_nq, verdict, label):
                bad.append(f"published row n={n} reads {got}")
    for n in tables["EXCEPTIONS"]:
        r = by_n.get(n)
        if n <= limit and not (r and r["verdict"] == CONSISTENT and r["tunnell_label"] == THETA_NON_CONGRUENT):
            bad.append(f"known exception n={n} reads {r}")
    return bad


def check_reports(reports: list[dict], ns: list[int], seed: int, sample: int) -> list[str]:
    """Laws on every `check --json` report, including r8 equality, plus sampled h."""
    bad = []
    if [r.get("n") for r in reports] != ns:
        return [f"reports are for n = {[r.get('n') for r in reports][:5]}..., asked {ns[:5]}..."]
    for r in reports:
        n = r["n"]
        try:
            q, ps = r["q"], list(r["p_list"])
            bad += _common_laws(n, q, ps, r["h_n"], r["h_nq"], r["modulus"], r["congruence_holds"], r["tunnell_label"], r["verdict"])
            if r["t"] != len(ps) or r["n_q"] * q != n:
                bad.append(f"n={n}: t={r['t']}, n_q={r['n_q']} do not match q={q}, p={ps}")
            if any(legendre(q, p) != 1 for p in ps):
                bad.append(f"n={n}: q={q} is not a residue mod every p_i")
            if r["congruence_holds"] != (r["r8_n"] == r["r8_nq"]):
                bad.append(f"n={n}: congruence_holds={r['congruence_holds']} but r8_n={r['r8_n']}, r8_nq={r['r8_nq']}")
        except (KeyError, TypeError) as exc:
            bad.append(f"n={n}: malformed report ({exc!r})")
    if not bad:
        bad += _class_numbers(random.Random(seed), reports, sample, lambda r: (r["n"], r["n_q"], r["h_n"], r["h_nq"]))
    return bad

"""Tests for the scanner, the CSV/JSON round-trip, and the CLI."""

import contextlib
import csv
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from math import isqrt, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import congruent.arith
import congruent.classgroup
import congruent.criteria
import congruent.tunnell
from congruent.arith import FactoredSquarefree, _prime_sieve, is_prime, legendre, quartic_symbol
from congruent.cli import main
from congruent.scan import (
    _BLOCK,
    _LABELS,
    _VERDICTS,
    CSV_COLUMNS,
    MAX_SCAN_LIMIT,
    ScanRow,
    _csv_lines,
    _legendre_triple,
    _residue_test,
    _shape_candidates,
    emit,
    read_rows,
    scan,
)
from congruent.criteria import CriterionReport, InvariantViolation, evaluate, evaluate_hypothesis
from congruent.redei import HypothesisNotMet, build_hypothesis, eight_rank_neg_nq, hypothesis_from_factored
from congruent.tunnell import _WINDOW

GOLDEN_ROW = ScanRow(
    n=52779,
    q=3,
    p_list=(73, 241),
    legendre_triple=(1, 1, -1),
    h_n=80,
    h_nq=48,
    modulus=16,
    congruence_holds=True,
    tunnell_label="congruent_under_bsd",
    verdict="consistent",
)


def row_from_report(report: CriterionReport) -> ScanRow:
    """The row of a report whose hypothesis holds, built report by report: the per-row path that
    criterion 14 and the t = 3 test hold every scan row against.  Its Legendre triple is read from the
    hypothesis."""
    h = report.hypothesis
    if h is None or not h.holds():
        raise HypothesisNotMet(f"n = {report.n}: a row needs a hypothesis that holds")
    return ScanRow(
        n=report.n,
        q=h.q,
        p_list=h.p_list,
        legendre_triple=_legendre_triple(h),
        h_n=report.h_n,
        h_nq=report.h_nq,
        modulus=report.modulus,
        congruence_holds=report.congruence_holds,
        tunnell_label=report.tunnell_label.value,
        verdict=report.verdict.value,
    )


def test_row_from_report():
    assert row_from_report(evaluate(52779)) == GOLDEN_ROW
    assert GOLDEN_ROW.p_product == "73*241"
    assert GOLDEN_ROW.triple_str == "(1,1,-1)"


def test_row_from_report_reads_the_triple_from_the_hypothesis(monkeypatch):
    report = evaluate(52779)

    def no_symbol(a, m):
        raise AssertionError(f"({a}/{m}) computed again")

    monkeypatch.setattr(congruent.arith, "jacobi", no_symbol)
    assert row_from_report(report) == GOLDEN_ROW


def test_row_from_report_needs_a_hypothesis_that_holds():
    for n in (51, 21243, 12):  # q a non-residue; rank A != t - 1; not squarefree
        with pytest.raises(HypothesisNotMet, match=f"n = {n}: a row needs a hypothesis that holds"):
            row_from_report(evaluate(n))


def test_scan_small_range():
    rows = list(scan(60000, t_filter=2))
    ns = [r.n for r in rows]
    assert ns == sorted(ns)
    assert ns == [23579, 29971, 41123, 42267, 52779, 57851]
    by_n = {r.n: r for r in rows}
    assert by_n[52779] == GOLDEN_ROW
    assert by_n[42267].verdict == "non_congruent_certificate"
    assert by_n[42267].h_n == 24 and by_n[42267].h_nq == 96


def test_scan_t_filter_and_t1():
    rows = list(scan(1000))
    assert all(len(r.p_list) == 1 for r in rows)  # smallest t = 2 value is 19491
    assert 219 in {r.n for r in rows}
    assert list(scan(1000, t_filter=2)) == []
    # a first pass whose only n are primes or 219 = 3 * 73, the smallest row
    for limit, ns in ((3, []), (11, []), (218, []), (219, [219])):
        assert [r.n for r in scan(limit)] == ns, limit


def test_scan_rejects_small_limit():
    # scan returns a Scan, which runs when iterated, but its limit is checked at the call
    for limit in (2, 10**9 + 1):
        with pytest.raises(ValueError):
            scan(limit)


def test_emit_csv_header_only():
    buf = io.StringIO()
    emit([], "csv", buf)
    assert buf.getvalue() == ",".join(CSV_COLUMNS) + "\n"


def test_emit_csv_golden_line():
    buf = io.StringIO()
    emit([GOLDEN_ROW], "csv", buf)
    lines = buf.getvalue().splitlines()
    # the triple contains commas, so the csv layer quotes that one field
    assert lines[1] == '52779,3,73*241,"(1,1,-1)",80,48,16,true,congruent_under_bsd,consistent'


def test_csv_line_format_matches_the_csv_module():
    # a t = 1 row and a t = 3 row with a negative triple entry, between them both booleans and both labels
    t1 = ScanRow(219, 3, (73,), (1,), 4, 4, 8, True, "congruent_under_bsd", "consistent")
    labels = ("non_congruent_unconditional", "non_congruent_certificate")
    t3 = ScanRow(5493907, 19, (17, 73, 233), (1, 1, 1, -1, -1, -1), 320, 176, 32, False, *labels)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in (t1, t3):
        p_product, triple = "*".join(map(str, r.p_list)), "(" + ",".join(map(str, r.legendre_triple)) + ")"
        cells = (r.n, r.q, p_product, triple, r.h_n, r.h_nq, r.modulus, str(r.congruence_holds).lower())
        writer.writerow(cells + (r.tunnell_label, r.verdict))
    assert expected.getvalue().splitlines()[1:] == [
        "219,3,73,(1),4,4,8,true,congruent_under_bsd,consistent",
        '5493907,19,17*73*233,"(1,1,1,-1,-1,-1)",320,176,32,false,non_congruent_unconditional,non_congruent_certificate',
    ]
    # row by row, as emit writes ScanRows, and both rows as the columns of one pass
    by_row = io.StringIO()
    assert emit([t1, t3], "csv", by_row) == 2
    by_pass = io.StringIO()
    by_pass.write(",".join(CSV_COLUMNS) + "\n")
    by_pass.writelines(_csv_lines(tuple(zip(t1, t3))))
    assert by_row.getvalue() == by_pass.getvalue() == expected.getvalue()


@st.composite
def scan_rows(draw):
    # t = 1..4 with their p_i, a triple of t + t(t - 1)/2 signs (no comma at t = 1), both booleans, both labels and verdicts
    t = draw(st.integers(min_value=1, max_value=4))
    primes = draw(st.lists(st.integers(min_value=17, max_value=10**9), min_size=t, max_size=t, unique=True))
    triple = draw(st.lists(st.sampled_from((1, -1)), min_size=t + t * (t - 1) // 2, max_size=t + t * (t - 1) // 2))
    numbers = draw(st.tuples(*[st.integers(min_value=1, max_value=10**9)] * 5))
    n, q, h_n, h_nq, modulus = numbers
    label, verdict = draw(st.sampled_from(_LABELS)), draw(st.sampled_from(_VERDICTS))
    return ScanRow(n, q, tuple(sorted(primes)), tuple(triple), h_n, h_nq, modulus, draw(st.booleans()), label, verdict)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(scan_rows(), min_size=1, max_size=6))
def test_csv_lines_match_the_csv_module(rows):
    # the one % format per row gives csv.writer's bytes, quoting only a triple that holds a comma
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    for r in rows:
        cells = (r.n, r.q, r.p_product, r.triple_str, r.h_n, r.h_nq, r.modulus, str(r.congruence_holds).lower())
        writer.writerow(cells + (r.tunnell_label, r.verdict))
    assert "".join(_csv_lines(tuple(zip(*rows)))) == expected.getvalue()


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit([], "tsv", io.StringIO())


def test_emit_io_error_carries_path(tmp_path):
    with pytest.raises(OSError, match="cannot write"):
        emit([], "csv", str(tmp_path))  # a directory is not writable as a file


def test_emit_to_a_path_leaves_it_whole_when_the_rows_fail(tmp_path):
    # the rows raise after 28 rows: the old file stays as it was and no part file is left
    path = tmp_path / "rows.csv"
    path.write_text("old\n")

    def failing_rows():
        yield from [GOLDEN_ROW] * 28
        raise ArithmeticError("row 29")

    for fmt in ("csv", "json"):
        with pytest.raises(ArithmeticError, match="row 29"):
            emit(failing_rows(), fmt, str(path))
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]
    assert emit([GOLDEN_ROW] * 3, "csv", str(path)) == 3
    assert read_rows(str(path), "csv") == [GOLDEN_ROW] * 3
    assert list(tmp_path.iterdir()) == [path]


def test_read_rows_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_rows(str(path), "csv")


def test_csv_round_trip(tmp_path):
    rows = list(scan(60000, t_filter=2))
    path = str(tmp_path / "rows.csv")
    assert emit(rows, "csv", path) == len(rows) == 6
    assert read_rows(path, "csv") == rows


def test_json_round_trip(tmp_path):
    rows = list(scan(60000, t_filter=2))
    path = str(tmp_path / "rows.json")
    assert emit(rows, "json", path) == len(rows)
    assert read_rows(path, "json") == rows
    payload = json.loads((tmp_path / "rows.json").read_text())
    golden = next(d for d in payload if d["n"] == 52779)
    assert golden["h_n"] == 80 and golden["h_nq"] == 48
    assert golden["congruence_holds"] is True
    # written a batch at a time, in json.dump's bytes; no row is the empty array
    assert (tmp_path / "rows.json").read_text() == json.dumps([row.to_dict() for row in rows], indent=2) + "\n"
    empty = io.StringIO()
    assert emit([], "json", empty) == 0 and empty.getvalue() == "[]\n"
    # a list longer than two batches, joined between them as in one dump
    many, many_rows = io.StringIO(), rows * 1500
    assert emit(many_rows, "json", many) == len(many_rows)
    assert many.getvalue() == json.dumps([row.to_dict() for row in many_rows], indent=2) + "\n"


def test_scan_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(scan(30000), "csv", str(a))
    emit(scan(30000), "csv", str(b))
    assert a.read_text() == b.read_text()


def reference_smallest_prime_factors(limit):
    spf = [0] * (limit + 1)
    for i in range(2, limit + 1):
        if spf[i] == 0:
            for j in range(i, limit + 1, i):
                if spf[j] == 0:
                    spf[j] = i
    return spf


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 100, 120, 121, 9973, 100000, 200000])
def test_smallest_prime_factors_match_reference(limit):
    # the prime sieve marks exactly the i >= 2 that are their own smallest prime factor in the reference
    sieve = _prime_sieve(limit)
    assert sieve.dtype == bool
    assert sieve.tolist() == [i >= 2 and p == i for i, p in enumerate(reference_smallest_prime_factors(limit))]


def reference_shape_candidates(limit):
    """The Python walk the block filter replaced: the shape test alone, before any residue test."""
    spf = reference_smallest_prime_factors(limit)
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


@pytest.fixture(scope="module")
def walked():
    """Every shape candidate n <= 200,000 of the old walk, with its residue condition."""
    return [(c, hypothesis_from_factored(c).qr_condition) for c in reference_shape_candidates(200_000)]


@pytest.mark.parametrize("block", [27, 1000, None])
def test_block_filter_matches_the_python_walk(monkeypatch, walked, block):
    # every n <= 200,000, then limits on the last n of a pass and on the first
    # n of the next, so a pass of one n is included, and limits at candidates
    # that are the first or last n of a pass (219 starts the second pass of 27)
    scan_mod = importlib.import_module("congruent.scan")
    if block is not None:
        monkeypatch.setattr(scan_mod, "_BLOCK", block)
    span = 8 * scan_mod._BLOCK
    edges = [c.value for c, qr in walked if qr and (c.value - 3) % span in (0, span - 8)]
    assert block != 27 or edges[0] == 219
    for limit in (200_000, 3 + 3 * span - 8, 3 + 3 * span, 3 + 3 * span + 5, *edges[:4]):
        passes = list(_shape_candidates(limit))
        # one pass per block of the filter, its n all in that block
        assert len(passes) == (limit - 3) // span + 1, limit
        for i, (ns, _, _) in enumerate(passes):
            assert ((ns - 3) // span == i).all(), limit
        found = [
            (n, tuple(filter(None, row))) for ns, primes, _ in passes for n, row in zip(ns.tolist(), primes.tolist())
        ]
        assert found == [(c.value, c.primes) for c, qr in walked if c.value <= limit and qr], limit


def test_residue_reject_matches_the_hypothesis(monkeypatch, walked):
    # the shape candidates of every pass, as the filter hands them to the residue test
    scan_mod = importlib.import_module("congruent.scan")
    shaped = []

    def residue_test(primes):
        shaped.append(primes)
        return _residue_test(primes)

    monkeypatch.setattr(scan_mod, "_residue_test", residue_test)
    passes = list(_shape_candidates(200_000))
    rows = [tuple(filter(None, row)) for primes in shaped for row in primes.tolist()]
    assert [prod(row) for row in rows] == [c.value for c, _ in walked]
    assert rows == [c.primes for c, _ in walked]
    residue = np.concatenate([_residue_test(primes)[0] for primes in shaped])
    assert residue.tolist() == [qr for _, qr in walked]
    assert 0 < residue.sum() < residue.size
    assert [n for ns, _, _ in passes for n in ns.tolist()] == [c.value for c, qr in walked if qr]


def test_filter_r8_matches_the_quartic_symbol(walked):
    # the filter's one power per (q, p_i) gives r8(-n) = 1 iff (q/n_q)_4 = +1,
    # the scalar symbol criteria.evaluate reads
    r8_n = [r8 for _, _, r8s in _shape_candidates(200_000) for r8 in r8s.tolist()]
    expected = []
    for c, qr in walked:
        if qr:
            q = next(p for p in c.primes if p % 8 == 3)
            n_q = FactoredSquarefree(c.value // q, tuple(p for p in c.primes if p != q))
            expected.append(quartic_symbol(q, n_q) == 1)
    assert r8_n == expected
    assert 0 < sum(r8_n) < len(r8_n)


def test_filter_of_one_t_keeps_the_walk_of_that_t(walked):
    # a scan of one t drops the n of every other t in the filter, before the residue powers and the sums
    for t in (0, 1, 2, 3):
        found = [
            (n, tuple(filter(None, row))) for ns, primes, _ in _shape_candidates(200_000, t) for n, row in zip(ns.tolist(), primes.tolist())
        ]
        assert found == [(c.value, c.primes) for c, qr in walked if qr and len(c.primes) == t + 1], t
        assert (found != []) == (t in (1, 2)), t


@pytest.mark.parametrize("block", [27, None])
def test_filter_matches_the_python_walk_where_the_sieving_primes_step(monkeypatch, walked, block):
    # below p^2 the filter sieves with the primes below p, so p itself is a
    # cofactor there; at p^2 it sieves with p.  The cofactor is q in some n
    # and a p_i in others.  For twin primes p = 1 (mod 8), n = p(p + 2) is a
    # candidate whose isqrt is p, so at that limit p must be sieved.
    scan_mod = importlib.import_module("congruent.scan")
    if block is not None:
        monkeypatch.setattr(scan_mod, "_BLOCK", block)
    limits = [p * p + d for p in (5, 7, 11, 17, 19, 43, 97, 331, 443) for d in (-8, 0, 8)]
    cofactors = set()
    for limit in limits + [17 * 19, 41 * 43, 137 * 139, 281 * 283]:
        found = [
            (n, tuple(filter(None, row))) for ns, primes, _ in _shape_candidates(limit) for n, row in zip(ns.tolist(), primes.tolist())
        ]
        assert found == [(c.value, c.primes) for c, qr in walked if c.value <= limit and qr], limit
        cofactors.update(primes[-1] % 8 for _, primes in found if primes[-1] > isqrt(limit))
    assert cofactors == {1, 3}


def test_filter_holds_one_pass_not_the_range():
    # the parent's smallest-prime-factor array alone took 3.8 MiB at this limit
    tracemalloc.start()
    try:
        for _ in _shape_candidates(2_000_000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def test_filter_holds_only_the_sieving_primes_between_passes():
    # between yields the generator keeps the sieving primes and their roots,
    # not the last pass's temporaries (hits, factors, masks: about 320 KB here)
    limit = 2_000_000
    sieving = 2 * np.flatnonzero(_prime_sieve(isqrt(limit))).nbytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = [
            tracemalloc.get_traced_memory()[0] - before - ns.nbytes - primes.nbytes - r8_n.nbytes
            for ns, primes, r8_n in _shape_candidates(limit)
        ]
    finally:
        tracemalloc.stop()
    assert len(held) == (limit - 3) // (8 * _BLOCK) + 1
    assert max(held) < sieving + (1 << 15), held


def test_scan_sums_hold_one_int32_row_not_three(monkeypatch):
    # each call for the sums of a window's candidates holds one int32
    # accumulator of 2^16 values (256 KiB) and a few arrays the size of its
    # k, not three int32 rows of every k of the window (768 KiB); beyond its
    # filter, the scan then holds under 1 MiB, where three rows took 1.5 MB.
    # The table is built before tracing, and the filter runs alone first
    scan_mod = importlib.import_module("congruent.scan")
    limit = 16 * _WINDOW + 3  # two whole windows and one k
    table = congruent.tunnell.TunnellTable(limit)
    calls = []

    def sums_at(ks):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rows = congruent.tunnell.TunnellTable.sums_at(table, ks)
        calls.append((ks.size, tracemalloc.get_traced_memory()[1] - before))
        return rows

    table.sums_at = sums_at
    monkeypatch.setattr(scan_mod, "TunnellTable", lambda limit: table)
    peaks = {}
    for name, run in (("filter", lambda: _shape_candidates(limit)), ("scan", lambda: scan(limit).passes())):
        tracemalloc.start()
        try:
            for _ in run():
                pass
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(calls) == 3 and calls[0][0] > 0 and all(size < _WINDOW // 8 for size, _ in calls), calls
    assert all(peak < 4 * _WINDOW + 64 * size + (1 << 15) for size, peak in calls), calls
    assert peaks["scan"] < peaks["filter"] + (1 << 20), peaks


def test_json_emit_holds_one_pass_not_every_row(tmp_path):
    # a list of every row's dict took about 1.5 MiB more than the CSV at this limit, 2.8 MiB at 10^6
    peaks = {}
    for fmt in ("csv", "json"):
        tracemalloc.start()
        try:
            emit(scan(500_000), fmt, str(tmp_path / f"rows.{fmt}"))
            peaks[fmt] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["json"] < peaks["csv"] + 2**20, peaks


def test_scan_to_stdout_holds_no_more_than_to_a_file(tmp_path):
    # stdout gets the rows only once the scan is done, from a temporary file;
    # a string buffer of them, then its copy, took about 2.2 MB more here
    peaks = {}
    for name, argv in (("out", ["--out", str(tmp_path / "out.csv")]), ("stdout", [])):
        tracemalloc.start()
        try:
            with open(tmp_path / "stdout.csv", "w", encoding="utf-8", newline="") as fh, contextlib.redirect_stdout(fh):
                assert main(["scan", "--max", "2000000", *argv]) == 0
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (tmp_path / "stdout.csv").read_bytes() == (tmp_path / "out.csv").read_bytes()
    assert peaks["stdout"] < peaks["out"] + 2**20, peaks


def test_residue_reject_at_the_largest_scan_primes():
    # a scan to its bound 1,000,000,000 meets p_i up to 333,333,333, where p^2
    # is near 2^57; Euler's criterion and the quartic symbol must stay exact in int64 there
    assert MAX_SCAN_LIMIT // 3 == 333_333_333
    rng = random.Random(11)
    large_q = [q for q in range(320_000_003, 320_010_000, 8) if is_prime(q)]
    pairs = []
    while len(pairs) < 200:
        p = rng.randrange(300_000_001, 333_333_333, 8)
        if is_prime(p):
            pairs.append((rng.choice((3, 11, 19, rng.choice(large_q))), p))
    residue, r8_n = _residue_test(np.array([sorted(pair) for pair in pairs], dtype=np.int32))
    expected = [legendre(q, p) == 1 for q, p in pairs]
    assert residue.tolist() == expected
    assert 0 < residue.sum() < residue.size
    # with one p_i, r8(-n) = 0 exactly where x = q^((p-1)/4) = -1 (mod p)
    minus_one = [pow(q, (p - 1) // 4, p) == p - 1 for q, p in pairs]
    assert (~r8_n).tolist() == minus_one
    assert 0 < sum(minus_one) < residue.sum()


def test_scan_factors_nothing_beyond_the_sieve(monkeypatch):
    expected = list(scan(20000))

    def no_factoring(v):
        raise AssertionError(f"{v} factored again")

    monkeypatch.setattr(congruent.arith, "_factor", no_factoring)
    assert list(scan(20000)) == expected


def test_scan_builds_no_monsky_or_hilbert_matrix(monkeypatch):
    # s_n and r4 are computed only when a report is asked for them; a row reads neither
    expected = list(scan(60000, t_filter=2))

    def no_rank(arg):
        raise AssertionError("a scan row needs no s_n or r4")

    monkeypatch.setattr(congruent.criteria, "selmer_rank", no_rank)
    monkeypatch.setattr(congruent.criteria, "four_rank", no_rank)
    assert list(scan(60000, t_filter=2)) == expected


class _Built(Exception):
    """Raised in place of the first large allocation of a scan."""


def test_scan_refuses_a_limit_beyond_the_scan_bound(monkeypatch, capsys):
    scan_mod = importlib.import_module("congruent.scan")

    def built(limit):
        raise _Built(limit)

    monkeypatch.setattr(scan_mod, "TunnellTable", built)
    assert MAX_SCAN_LIMIT == 1_000_000_000
    message = (
        "^limit 1000000001 is beyond the scan bound 1000000000: .*p\\^2 < 2\\^63 for p <= limit/3.*int16 table"
        ".*limit/2 bytes of table, limit/6 of class-1 sums and one chunk while a class is built$"
    )
    with pytest.raises(ValueError, match=message):
        scan(1_000_000_001)  # refused at the call, before the table is built
    with pytest.raises(_Built):
        list(scan(1_000_000_000))  # the bound itself is taken up to the first allocation
    assert main(["scan", "--max", "1000000001"]) == 2
    assert "beyond the scan bound 1000000000" in capsys.readouterr().err


def test_cli_scan_refuses_an_unwritable_out_before_the_scan(monkeypatch, capsys, tmp_path):
    scan_mod = importlib.import_module("congruent.scan")

    def built(limit):
        raise _Built(limit)

    monkeypatch.setattr(scan_mod, "TunnellTable", built)
    out = str(tmp_path / "missing" / "x.csv")
    assert main(["scan", "--max", "100000000", "--out", out]) == 2
    assert f"error: cannot write {out!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_scan_leaves_only_the_out_file(tmp_path):
    out = tmp_path / "x.csv"
    out.write_text("old\n")
    assert main(["scan", "--max", "60000", "--t", "2", "--out", str(out)]) == 0
    assert [r.n for r in read_rows(str(out), "csv")] == [23579, 29971, 41123, 42267, 52779, 57851]
    assert list(tmp_path.iterdir()) == [out]


def test_cli_descent_pair_must_be_two_integers(capsys):
    for pair in ("5", "5,x", "1,5,5"):
        assert main(["descent", "-m", "5", "--pair", pair]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # refused before the kernel is printed
        assert "expected two integers a,b" in captured.err


def test_cli_descent_refuses_a_bound_beyond_the_limit(capsys):
    assert main(["descent", "-m", "3", "--pair", "1,1", "--bound", "1000000"]) == 2
    assert "error: bound 1000000 is outside the supported range 1..10000" in capsys.readouterr().err


def test_cli_scan_t_must_be_positive(capsys, tmp_path):
    out = tmp_path / "rows.csv"
    for t in ("0", "-1", "x"):
        assert main(["scan", "--max", "60000", "--t", t, "--out", str(out)]) == 1
        assert "expected an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


MONSKY_1155 = """\
m = 1155, primes = (3, 5, 7, 11)
M =
  1 1 0 1 1 0 0 0
  1 1 1 0 0 1 0 0
  1 1 0 0 0 0 0 0
  0 0 1 0 0 0 0 1
  1 0 0 0 0 1 0 1
  0 1 0 0 1 1 1 0
  0 0 0 0 1 1 1 0
  0 0 0 1 0 0 1 1
s = 2
"""

REDEI_52779 = """\
n = 52779: q = 3, p = (73, 241)
A_n =
  1 1
  1 1
R_n (Hilbert-symbol construction) =
  1 1
  1 1
equal: True, r4 = 1
"""


def test_cli_prints_matrix_entries(capsys):
    # M for 1155 is not symmetric, so a transposed or reversed packing shows
    assert main(["monsky", "-m", "1155"]) == 0
    assert capsys.readouterr().out == MONSKY_1155
    assert main(["redei", "-n", "52779"]) == 0
    assert capsys.readouterr().out == REDEI_52779


def test_cli_exit_codes(capsys):
    assert main(["check", "-n", "52779"]) == 0
    assert main(["nonsense"]) == 1  # usage error
    assert main(["check"]) == 1  # missing required option
    assert main(["classnum", "-m", "12"]) == 2  # not squarefree
    assert main(["scan", "--max", "2"]) == 2
    capsys.readouterr()
    assert main(["classnum", "-m", "1000000007"]) == 2  # |D| beyond the supported bound
    assert "exceeds the supported bound 100000000" in capsys.readouterr().err


def test_cli_refuses_an_out_of_range_n_before_factoring(monkeypatch, capsys):
    def no_factoring(v):
        raise AssertionError(f"{v} factored")

    monkeypatch.setattr(congruent.arith, "_factor", no_factoring)
    big = "30000000000018200000000002759"
    # of hypothesis shape; not squarefree, once a hypothesis_failed report; 29 digits
    for n in ("10000000347", "40000000004", big):
        assert main(["check", "-n", n]) == 2
        assert f"error: n = {n} exceeds the per-n bound 10000000000" in capsys.readouterr().err
    assert main(["classnum", "-m", big]) == 2
    assert f"error: |D| = {big} exceeds the supported bound 100000000" in capsys.readouterr().err


def test_cli_main_keeps_no_options_between_calls(capsys):
    # main builds its parser once; a second call must not see the first call's --json
    assert main(["check", "-n", "219", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 219
    assert main(["check", "-n", "219"]) == 0
    assert capsys.readouterr().out == CHECK_OUTPUT.split("n = 42267")[0]


def test_cli_check_json(capsys):
    assert main(["check", "-n", "52779", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["h_n"] == 80 and payload["verdict"] == "consistent"


def test_cli_check_human(capsys):
    assert main(["check", "-n", "68547"]) == 0
    out = capsys.readouterr().out
    assert "verdict: consistent" in out
    assert "non_congruent_unconditional" in out


def test_cli_subcommands_smoke(capsys):
    assert main(["classnum", "-m", "52779"]) == 0
    assert "h = 80" in capsys.readouterr().out
    assert main(["monsky", "-m", "3"]) == 0
    assert "s = 0" in capsys.readouterr().out
    assert main(["redei", "-n", "52779"]) == 0
    out = capsys.readouterr().out
    assert "equal: True" in out and "r4 = 1" in out
    assert main(["ranks", "-n", "52779"]) == 0
    out = capsys.readouterr().out
    assert "r8(-n) = 1" in out and "r8(-n_q) = 1" in out
    assert main(["represent", "-P", "17"]) == 0
    out = capsys.readouterr().out
    assert "u = 3, v = 2, e = 3, f = 1" in out
    assert main(["descent", "-m", "5", "--pair", "5,5", "--bound", "100"]) == 0
    assert "(1,2,3,1)" in capsys.readouterr().out
    assert main(["tunnell", "-n", "41"]) == 0
    out = capsys.readouterr().out
    assert "(odd branch)" in out and "congruent_under_bsd" in out
    assert main(["tunnell", "-n", "6"]) == 0
    assert "n = 6 (even branch): c32 = 0, c8 = 0" in capsys.readouterr().out


def test_readme_examples_match_cli(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    check_block = readme.split("`congruent check -n 52779` prints:\n\n```\n", 1)[1].split("```", 1)[0]
    assert main(["check", "-n", "52779"]) == 0
    assert capsys.readouterr().out == check_block
    classnum_line = "m = 52779: D = -52779, h = 80, v2 = 4, r2 = 2"
    assert f"`congruent classnum -m 52779` prints `{classnum_line}`" in readme
    assert main(["classnum", "-m", "52779"]) == 0
    assert capsys.readouterr().out == classnum_line + "\n"


def test_cli_scan_csv(tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    assert main(["scan", "--max", "60000", "--t", "2", "--out", out, "--verbose"]) == 0
    rows = read_rows(out, "csv")
    assert [r.n for r in rows] == [23579, 29971, 41123, 42267, 52779, 57851]
    assert capsys.readouterr().err == "scan: 6 rows\n"


@pytest.mark.parametrize("t", [None, 2])
def test_cli_scan_csv_matches_emit_of_the_rows(monkeypatch, capsys, tmp_path, t):
    # the CLI writes each pass from its columns; emit of a list of ScanRow must give the same bytes
    expected = io.StringIO()
    count = emit(list(scan(60000, t_filter=t)), "csv", expected)
    assert count > 0 and expected.getvalue().count("\n") == count + 1

    def no_row(*args):
        raise AssertionError("the CLI built a ScanRow")

    monkeypatch.setattr(importlib.import_module("congruent.scan"), "ScanRow", no_row)
    flags = ["scan", "--max", "60000"] + ([] if t is None else ["--t", str(t)])
    assert main(flags + ["--verbose"]) == 0
    printed = capsys.readouterr()
    assert printed.out == expected.getvalue()
    assert printed.err == f"scan: {count} rows\n"
    out = tmp_path / "rows.csv"
    assert main(flags + ["--out", str(out)]) == 0
    assert out.read_bytes() == printed.out.encode("utf-8")


def test_cli_scan_cache_option_is_ignored(tmp_path, capsys):
    plain, cached = tmp_path / "plain.csv", tmp_path / "cached.csv"
    assert main(["scan", "--max", "60000", "--t", "2", "--out", str(plain)]) == 0
    assert capsys.readouterr().err == ""
    kept = tmp_path / "h.cache"
    kept.write_bytes(b"-3 1\n-4 1\n-7")
    absent = tmp_path / "absent.cache"
    for cache in (kept, absent):
        assert main(["scan", "--max", "60000", "--t", "2", "--out", str(cached), "--cache", str(cache)]) == 0
        assert capsys.readouterr().err == "scan: --cache is ignored: class numbers come from the theta table\n"
        assert cached.read_text() == plain.read_text()
    assert kept.read_bytes() == b"-3 1\n-4 1\n-7"
    assert not absent.exists()


def test_scan_counts_no_reduced_forms(monkeypatch):
    # both class numbers of a row come from the theta table
    expected = list(scan(60000, t_filter=2))

    def no_counting(D):
        raise AssertionError(f"h({D}) counted by reduced forms")

    monkeypatch.setattr(congruent.classgroup, "_count_reduced_forms", no_counting)
    assert list(scan(60000, t_filter=2)) == expected


def test_cli_refuses_a_theta_count_beyond_the_bound(monkeypatch, capsys):
    # 10000000103 is a prime = 7 (mod 8): check reaches the per-n theta count
    def counted(*args):
        raise AssertionError("counted")

    monkeypatch.setattr(congruent.tunnell, "_line_divisor_sums", counted)
    for argv in (["check", "-n", "10000000103"], ["tunnell", "-n", "10000000103"]):
        assert main(argv) == 2
        assert "n = 10000000103 exceeds the per-n bound 10000000000" in capsys.readouterr().err
    with pytest.raises(AssertionError, match="counted"):
        main(["tunnell", "-n", "9999999967"])  # a prime below the bound reaches the count


CHECK_OUTPUT = """\
n = 219
  q = 3, p = 73, t = 1, n_q = 73
  hypothesis: q residue mod all p_i: True, rank A = t-1: True
  s_n = 2, r4 = 1, r8(-n) = 0, r8(-n_q) = 0
  h(-n) = 4 = h(-n_q) = 4  (mod 8)
  tunnell: congruent_under_bsd (congruence side is BSD-conditional)
  verdict: consistent
n = 42267
  q = 3, p = 73·193, t = 2, n_q = 14089
  hypothesis: q residue mod all p_i: True, rank A = t-1: True
  s_n = 2, r4 = 1, r8(-n) = 0, r8(-n_q) = 1
  h(-n) = 24 != h(-n_q) = 96  (mod 16)
  tunnell: non_congruent_unconditional (congruence side is BSD-conditional)
  verdict: non_congruent_certificate
n = 52779
  q = 3, p = 73·241, t = 2, n_q = 17593
  hypothesis: q residue mod all p_i: True, rank A = t-1: True
  s_n = 2, r4 = 1, r8(-n) = 1, r8(-n_q) = 1
  h(-n) = 80 = h(-n_q) = 48  (mod 16)
  tunnell: congruent_under_bsd (congruence side is BSD-conditional)
  verdict: consistent
n = 9999939
  q = 3, p = 3333313, t = 1, n_q = 3333313
  hypothesis: q residue mod all p_i: True, rank A = t-1: True
  s_n = 2, r4 = 1, r8(-n) = 0, r8(-n_q) = 0
  h(-n) = 788 = h(-n_q) = 740  (mod 8)
  tunnell: non_congruent_unconditional (congruence side is BSD-conditional)
  verdict: consistent
n = 42
  tunnell: non_congruent_unconditional (congruence side is BSD-conditional)
  verdict: hypothesis_failed (prime factors [2, 7] of 42 are not 1 or 3 (mod 8))
n = 12
  verdict: hypothesis_failed (2^2 divides 12)
"""


def test_cli_check_counts_by_divisor_sums_alone(monkeypatch, capsys):
    # check takes the Tunnell counts and both class numbers from divisor sums,
    # never from the O(n) box count or the O(|D|) reduced-form count
    def counted(*args):
        raise AssertionError("counted by an O(n) path")

    monkeypatch.setattr(congruent.tunnell, "_count_form", counted)
    monkeypatch.setattr(congruent.classgroup, "_count_reduced_forms", counted)
    for n in (219, 42267, 52779, 9999939, 42, 12):
        assert main(["check", "-n", str(n)]) == 0
    assert capsys.readouterr().out == CHECK_OUTPUT


def _fail_42267(monkeypatch):
    # 42267 = 3 * 73 * 193 has t = 2: the lane reads its r8(-n_q) by eight_rank_neg_nq
    scan_mod = importlib.import_module("congruent.scan")

    def flaky(h):
        if h.n.value == 42267:
            raise ArithmeticError("injected")
        return eight_rank_neg_nq(h)

    monkeypatch.setattr(scan_mod, "eight_rank_neg_nq", flaky)


def test_scan_row_errors_do_not_abort(monkeypatch):
    _fail_42267(monkeypatch)
    found = scan(60000, t_filter=2)
    rows = list(found)
    seen = [n for n, _ in found.skipped]
    assert seen == [42267]
    assert 52779 in {r.n for r in rows} and 42267 not in {r.n for r in rows}


def test_cli_scan_exit_code_2_on_skipped_rows(monkeypatch, capsys, tmp_path):
    _fail_42267(monkeypatch)
    out = str(tmp_path / "rows.csv")
    assert main(["scan", "--max", "60000", "--t", "2", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "n = 42267 skipped: injected" in err
    assert "scan: 1 rows skipped" in err
    # every good row is still written
    assert [r.n for r in read_rows(out, "csv")] == [23579, 29971, 41123, 52779, 57851]


def test_scan_keeps_the_rows_it_skipped(monkeypatch, capsys, tmp_path):
    # T(219) off by 1 skips a t = 1 row; an error in the rank step of 42267 = 3 * 73 * 193 a t = 2 row
    _fail_42267(monkeypatch)
    scan_mod = importlib.import_module("congruent.scan")

    class Skewed(congruent.tunnell.TunnellTable):
        def sums_at(self, ks):
            rows = super().sums_at(ks)
            rows[0, ks == 219 >> 3] += 1
            return rows

    monkeypatch.setattr(scan_mod, "TunnellTable", Skewed)
    found = scan(60000)
    assert found.skipped == []
    rows = list(found)
    skipped = [(n, type(exc), str(exc)) for n, exc in found.skipped]
    assert skipped == [
        (219, congruent.tunnell.NotDivisible, "T(219) = 97 is not divisible by 24"),
        (42267, ArithmeticError, "injected"),
    ]
    assert capsys.readouterr().err == "".join(f"scan: n = {n} skipped: {exc}\n" for n, exc in found.skipped)
    # a second run gives the same rows and starts its list afresh
    assert list(found) == rows and 219 not in {r.n for r in rows} and 42267 not in {r.n for r in rows}
    assert [(n, type(exc), str(exc)) for n, exc in found.skipped] == skipped
    capsys.readouterr()
    assert main(["scan", "--max", "60000", "--out", str(tmp_path / "rows.csv")]) == 2
    assert capsys.readouterr().err.endswith("scan: n = 42267 skipped: injected\nscan: 2 rows skipped\n")
    assert read_rows(str(tmp_path / "rows.csv"), "csv") == rows


# md5 of what `congruent scan --max 2000000` prints with each --t and format
T_FILTER_MD5 = {
    ("2", "csv"): "584194473da5012d71560518ab95bdb1",
    ("1", "json"): "93921b2ba7969a07d1badbd72e8141d7",
}


@pytest.mark.parametrize("t, fmt", sorted(T_FILTER_MD5))
def test_cli_scan_of_one_t_is_byte_identical(capsys, t, fmt):
    assert main(["scan", "--max", "2000000", "--t", t, "--format", fmt]) == 0
    printed = capsys.readouterr()
    assert printed.err == ""
    assert hashlib.md5(printed.out.encode("utf-8")).hexdigest() == T_FILTER_MD5[t, fmt]


def _skew_sums(monkeypatch):
    """T(219) and T(42267) off by 1 in the table's sums, T(97) off by 2 in its class-1 sums.

    n = 219 = 3 * 73 fails on T(n), every n = 97 q on T(p), and the t = 2
    row 42267 = 3 * 73 * 193 on T(n).
    """
    scan_mod = importlib.import_module("congruent.scan")

    class Skewed(congruent.tunnell.TunnellTable):
        def __init__(self, limit):
            super().__init__(limit)
            self.t1[97 >> 3] += 2

        def sums_at(self, ks):
            rows = super().sums_at(ks)
            for n in (219, 42267):
                rows[0, ks == n >> 3] += 1
            return rows

    monkeypatch.setattr(scan_mod, "TunnellTable", Skewed)


# the n <= 60,000 with p = 97, in the order of the scan
N_97Q = [291, 1067, 4171, 15811, 22019, 27451, 29779, 36763, 40643, 45299, 47627, 53059, 55387]


def test_scan_t1_errors_do_not_abort(monkeypatch):
    expected = list(scan(60000))
    assert [r.n for r in expected if r.p_list == (97,)] == N_97Q
    _skew_sums(monkeypatch)
    found = scan(60000)
    rows = list(found)
    seen = [(n, type(exc), str(exc)) for n, exc in found.skipped]
    # in increasing n, the t = 2 row between the n = 97 q
    skew_97 = [(n, congruent.tunnell.NotDivisible, "T(97) = 18 is not divisible by 4") for n in N_97Q]
    skew_42267 = (42267, congruent.tunnell.NotDivisible, "T(42267) = 577 is not divisible by 24")
    assert seen == [(219, congruent.tunnell.NotDivisible, "T(219) = 97 is not divisible by 24")] + skew_97[:9] + [
        skew_42267
    ] + skew_97[9:]
    assert all(issubclass(kind, ArithmeticError) for _, kind, _ in seen)
    assert rows == [r for r in expected if r.n not in (219, 42267) and r.p_list != (97,)]


def test_cli_scan_exit_code_2_on_skipped_t1_rows(monkeypatch, capsys, tmp_path):
    expected = [r.n for r in scan(60000) if r.n not in (219, 42267) and r.p_list != (97,)]
    _skew_sums(monkeypatch)
    out = str(tmp_path / "rows.csv")
    assert main(["scan", "--max", "60000", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "scan: n = 219 skipped: T(219) = 97 is not divisible by 24\n" in err
    assert "scan: n = 42267 skipped: T(42267) = 577 is not divisible by 24\n" in err
    assert "scan: n = 55387 skipped: T(97) = 18 is not divisible by 4\n" in err
    assert err.endswith(f"scan: {2 + len(N_97Q)} rows skipped\n")
    assert [r.n for r in read_rows(out, "csv")] == expected


def test_scan_t1_violation_names_the_first_bad_n(monkeypatch, capsys, tmp_path):
    # r8(-4p) negated: at 219 = 3 * 73 the congruence holds (4 = 4 mod 8) but
    # the 8-ranks now differ
    scan_mod = importlib.import_module("congruent.scan")
    real = scan_mod._octic
    monkeypatch.setattr(scan_mod, "_octic", lambda ps: ~real(ps))
    with pytest.raises(InvariantViolation, match="^n = 219: congruence and 8-rank equality disagree$"):
        list(scan(60000, t_filter=1))
    assert main(["scan", "--max", "60000", "--out", str(tmp_path / "x.csv")]) == 3
    assert "INVARIANT VIOLATION" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
    assert list(tmp_path.iterdir()) == []  # nor a partly written file beside it


def test_scan_t2_violation_comes_from_the_pass_law_check(monkeypatch, capsys, tmp_path):
    # r8(-n_q) negated on every t >= 2 row: the scan builds no report, so the
    # pass's one call of the laws must catch it
    scan_mod = importlib.import_module("congruent.scan")
    monkeypatch.setattr(scan_mod, "eight_rank_neg_nq", lambda h: 1 - eight_rank_neg_nq(h))

    def no_report(report):
        raise AssertionError("a report was checked")

    monkeypatch.setattr(congruent.criteria, "check_report_invariants", no_report)
    with pytest.raises(InvariantViolation, match="^n = 23579: congruence and 8-rank equality disagree$"):
        list(scan(60000, t_filter=2))
    assert main(["scan", "--max", "60000", "--out", str(tmp_path / "x.csv")]) == 3
    assert "INVARIANT VIOLATION: n = 23579" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
    assert list(tmp_path.iterdir()) == []  # nor a partly written file beside it


def test_scan_builds_no_report(monkeypatch):
    # every row, whatever its t, comes from the pass's columns, not report by report
    expected = list(scan(60000))
    assert {len(r.p_list) for r in expected} == {1, 2}

    def no_report(*args, **kwargs):
        raise AssertionError("a scan row was built from a report")

    monkeypatch.setattr(congruent.criteria, "evaluate_hypothesis", no_report)
    assert list(scan(60000)) == expected


@pytest.mark.parametrize("t_filter", [None, 1, 2])
def test_scan_rows_at_the_window_edges(t_filter):
    # the scan asks the table for the sums of one window of 2^16 values
    # n = 8k + 3 at a time.  To 8 * 2^16 + 11 the last window holds two
    # values, k = 2^16 and 2^16 + 1; to 524,339, the first row past the edge,
    # seven.  Every row of the last pass before the edge and past it matches
    # the per-row path, and the scan's rows are those of a longer scan, whose
    # window is wider
    edge = 8 * _WINDOW
    wider = list(scan(540_000, t_filter=t_filter))
    for limit in (edge + 11, 524_339):
        found = scan(limit, t_filter=t_filter)
        rows = list(found)
        assert found.skipped == [] and rows == [r for r in wider if r.n <= limit], limit
        late = [r for r in rows if r.n > edge - 8 * _BLOCK]
        assert late and all(t_filter in (None, len(r.p_list)) for r in late)
        assert late == [row_from_report(evaluate_hypothesis(build_hypothesis(r.n))) for r in late], limit
        assert (rows[-1].n == 524_339) == (limit == 524_339 and t_filter != 2)


def test_scan_t3_rows_match_the_per_row_path():
    # the first two n with t = 3; no smaller scan has one
    rows = list(scan(5493907, t_filter=3))
    assert rows == [row_from_report(evaluate(n)) for n in (2907187, 5493907)]
    assert all(r.modulus == 32 and len(r.legendre_triple) == 6 for r in rows)
    assert [r.verdict for r in rows] == ["consistent", "non_congruent_certificate"]


def _fail_invariants(monkeypatch):
    import congruent.criteria as criteria_mod

    def always_fail(report):
        raise InvariantViolation("injected")

    def always_fail_laws(*args):
        raise InvariantViolation("injected")

    monkeypatch.setattr(criteria_mod, "check_report_invariants", always_fail)
    monkeypatch.setattr(importlib.import_module("congruent.scan"), "check_invariant_laws", always_fail_laws)


def test_cli_exit_code_3_on_invariant_violation(monkeypatch, capsys, tmp_path):
    _fail_invariants(monkeypatch)
    rc = main(["scan", "--max", "60000", "--t", "2", "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "INVARIANT VIOLATION" in capsys.readouterr().err


def test_cli_scan_exit_code_3_on_a_t1_invariant_violation(monkeypatch, capsys, tmp_path):
    _fail_invariants(monkeypatch)
    rc = main(["scan", "--max", "60000", "--t", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "INVARIANT VIOLATION" in capsys.readouterr().err


def test_cli_scan_prints_no_row_before_exit_3(monkeypatch, capsys):
    # the laws fail on the second filter pass only, after the first pass's rows are formatted
    scan_mod = importlib.import_module("congruent.scan")
    real = scan_mod.check_invariant_laws

    def second_pass_fails(ns, *columns):
        if ns.size and ns[0] > 8 * scan_mod._BLOCK:
            raise InvariantViolation(f"n = {ns[0]}: injected")
        real(ns, *columns)

    monkeypatch.setattr(scan_mod, "check_invariant_laws", second_pass_fails)
    for fmt in ("csv", "json"):
        assert main(["scan", "--max", "60000", "--format", fmt]) == 3
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err == "INVARIANT VIOLATION: n = 32979: injected\n"  # the second pass's first n


def test_cli_check_exit_code_3_on_invariant_violation(monkeypatch, capsys):
    _fail_invariants(monkeypatch)
    assert main(["check", "-n", "52779"]) == 3
    assert "INVARIANT VIOLATION" in capsys.readouterr().err


def _python(*args: str, env=None, cwd=None) -> subprocess.CompletedProcess:
    """A fresh interpreter run with args, importing the package from this checkout's src/."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, cwd=cwd)


def test_console_entry_point():
    proc = _python("-m", "congruent.cli", "tunnell", "-n", "5")
    assert proc.returncode == 0
    assert b"congruent_under_bsd" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--max", "60000"],
        ["scan", "--max", "60000", "--out", "rows.csv"],
        ["check", "-n", "52779", "--json"],
        ["tunnell", "-n", "219"],
    ],
)
def test_cli_process_writes_all_of_its_output_at_exit(capsys, tmp_path, monkeypatch, argv):
    # a command process ends with its heap frozen out of the collector; what
    # it prints or writes must still reach the stream or file whole, with the
    # exit code of an in-process main
    (tmp_path / "process").mkdir()
    proc = _python("-m", "congruent.cli", *argv, cwd=tmp_path / "process")
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    printed = capsys.readouterr()
    assert proc.returncode == code == 0, proc.stderr
    assert proc.stdout == printed.out.encode()
    assert proc.stderr == printed.err.encode()
    if "--out" in argv:
        assert (tmp_path / "process" / "rows.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        assert sorted(os.listdir(tmp_path / "process")) == ["rows.csv"]  # no .part file left behind


def test_import_gives_openblas_one_thread_unless_the_user_set_it():
    # the package makes no BLAS call, so numpy's OpenBLAS pool gets one thread
    # when the variable is unset at import; a user's value is kept
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    read = "import os, congruent; print(os.environ['OPENBLAS_NUM_THREADS'])"
    for user, expected in (({}, b"1"), ({"OPENBLAS_NUM_THREADS": "3"}, b"3")):
        proc = _python("-c", read, env={**env, **user})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected + b"\n"


def test_cli_import_freezes_its_heap_and_a_library_import_does_not():
    # a command process moves the import heap (about 21k objects) out of the
    # cyclic collector; the import leaves no cyclic garbage for the freeze to
    # keep; `import congruent` alone leaves the caller's collector as it was
    checks = (
        ("import gc, congruent.cli; print(gc.get_freeze_count())", lambda out: int(out) > 10_000),
        ("import gc, numpy; gc.collect(); import congruent.cli; gc.unfreeze(); print(gc.collect())", lambda out: int(out) == 0),
        ("import gc, congruent; print(gc.get_freeze_count())", lambda out: int(out) == 0),
    )
    for code, holds in checks:
        proc = _python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert holds(proc.stdout), (code, proc.stdout)

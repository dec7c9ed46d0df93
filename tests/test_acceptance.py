"""Acceptance suite: one test per criterion, each printing a PASS line.

The expensive shared artifact is a single scan of every hypothesis n up to
500,000 (all t) with its theta-count table; everything else is recomputed
from scratch inside each criterion so the cross-checks stay independent.

Criteria 1-3 reproduce the reference tables, whose enumeration walks
factorizations q < p1 < p2; the scan itself imposes no size ordering, so
those tests restrict to rows with q below every p_i.
"""

import hashlib
import io
import time

import pytest

import numpy as np

from congruent.arith import FactoredSquarefree, factor_squarefree, is_prime, jacobi
from congruent.cli import main
from congruent.classgroup import class_number
from congruent.criteria import evaluate_hypothesis
from congruent.descent import DivisorPair, kernel_K
from congruent.norms import rep_2e2_f2
from congruent.redei import build_hypothesis, eight_rank_neg_n, eight_rank_neg_nq, four_rank, redei_matrix
from congruent.scan import _octic, emit, scan
from congruent.selmer import selmer_rank

from tables import CONGRUENT_T2, EXCEPTIONS, NON_CONGRUENT_T2
from test_classgroup import brute_force_h, fundamental_discs
from test_norms import all_ef_reps, all_u_reps
from test_scan_cli import row_from_report

SCAN_LIMIT = 500_000


@pytest.fixture(scope="module")
def full_scan():
    start = time.perf_counter()
    rows = list(scan(SCAN_LIMIT))
    print(f"\n[scan of all hypothesis n <= {SCAN_LIMIT:,} took {time.perf_counter() - start:.1f}s]")
    return rows


@pytest.fixture(scope="module")
def t2_reference_rows(full_scan):
    # reference enumeration order: q < p1 < p2
    return [r for r in full_scan if len(r.p_list) == 2 and r.q < r.p_list[0]]


def _row_tuple(row):
    return (row.n, row.q, row.p_list[0], row.p_list[1], row.h_n, row.h_nq)


def test_criterion_1_congruent_table(t2_reference_rows):
    congruent = [r for r in t2_reference_rows if r.tunnell_label == "congruent_under_bsd"]
    assert [_row_tuple(r) for r in congruent] == CONGRUENT_T2
    for r in congruent:
        assert r.legendre_triple == (1, 1, -1)
        assert r.modulus == 16
        assert (r.h_n - r.h_nq) % 16 == 0 and r.congruence_holds
    print(f"\nPASS criterion 1: the {len(congruent)} congruent rows match exactly")


def test_criterion_2_non_congruent_table(t2_reference_rows):
    failing = [r for r in t2_reference_rows if not r.congruence_holds]
    assert [_row_tuple(r) for r in failing[:10]] == NON_CONGRUENT_T2
    for r in failing:
        assert r.verdict == "non_congruent_certificate"
        assert r.tunnell_label == "non_congruent_unconditional"
    print(f"PASS criterion 2: ten smallest of {len(failing)} certificate rows match exactly")


def test_criterion_3_exceptions(full_scan):
    exceptions = {
        r.n
        for r in full_scan
        if r.n <= 200_000 and r.congruence_holds and r.tunnell_label == "non_congruent_unconditional"
    }
    assert set(EXCEPTIONS) <= exceptions
    print(f"PASS criterion 3: all {len(EXCEPTIONS)} known exception rows present ({len(exceptions)} total)")


def test_criterion_4_kernel_cardinality():
    checked = 0
    for m in range(3, 1001, 2):
        try:
            fm = factor_squarefree(m)
        except ValueError:
            continue
        assert len(kernel_K(fm)) == 2 ** selmer_rank(fm), m
        checked += 1
    print(f"PASS criterion 4: #K = 2^s_m for all {checked} odd squarefree m <= 1000")


def test_criterion_5_selmer_two_and_kernel_shape(full_scan):
    rows = [r for r in full_scan if r.n <= 100_000]
    for r in rows:
        fm = factor_squarefree(r.n)
        assert selmer_rank(fm) == 2, r.n
        nq = r.n // r.q
        expected = {
            DivisorPair(1, 1),
            DivisorPair(nq, 1),
            DivisorPair(1, nq),
            DivisorPair(nq, nq),
        }
        assert kernel_K(fm) == expected, r.n
    print(f"PASS criterion 5: s_n = 2 and kernel shape for all {len(rows)} hypothesis n <= 1e5")


def test_criterion_6_matrix_equality_and_four_rank(full_scan):
    rows = [r for r in full_scan if r.n <= 100_000]
    for r in rows:
        h = build_hypothesis(r.n)
        assert redei_matrix(h) == h.A, r.n
        assert four_rank(h) == 1, r.n
    print(f"PASS criterion 6: R_n = A_n and r4 = 1 for all {len(rows)} hypothesis n <= 1e5")


def test_criterion_7_eight_rank_structure(full_scan):
    rows = [r for r in full_scan if r.n <= 200_000]
    violations = 0
    for r in rows:
        h = build_hypothesis(r.n)
        if (eight_rank_neg_n(h) == 1) != (r.h_n % r.modulus == 0):
            violations += 1
        if (eight_rank_neg_nq(h) == 1) != (r.h_nq % r.modulus == 0):
            violations += 1
    assert violations == 0
    print(f"PASS criterion 7: 8-rank criteria match class-number 2-parts on {len(rows)} n <= 2e5")


def test_criterion_8_parity_relation_all_reps():
    limit = 200_000
    checked_p = 0
    checked_pairs = 0
    for p_val in range(17, limit + 1, 8):
        try:
            fp = factor_squarefree(p_val)
        except ValueError:
            continue
        if any(q % 8 != 1 for q in fp.primes):
            continue
        u_reps = all_u_reps(p_val)
        ef_reps = all_ef_reps(p_val)
        assert u_reps and ef_reps, p_val
        for _, v in u_reps:
            for e, _ in ef_reps:
                assert (jacobi(-1, e) == 1) == (v % 4 == 0), (p_val, v, e)
                checked_pairs += 1
        checked_p += 1
    print(f"PASS criterion 8: (-1/e) = +1 iff 4 | v over {checked_pairs} rep pairs, {checked_p} P <= 2e5")


def test_criterion_9_parity_law():
    checked = 0
    for m in range(3, 5001, 2):
        try:
            fm = factor_squarefree(m)
        except ValueError:
            continue
        s = selmer_rank(fm)
        if m % 8 in (1, 3):
            assert s % 2 == 0, m
        else:
            assert s % 2 == 1, m
        checked += 1
    print(f"PASS criterion 9: Selmer parity law for all {checked} odd squarefree m <= 5000")


def test_criterion_10_soundness_sweep(full_scan):
    offenders = [
        r.n
        for r in full_scan
        if r.verdict == "non_congruent_certificate" and r.tunnell_label == "congruent_under_bsd"
    ]
    assert offenders == []
    certs = sum(1 for r in full_scan if r.verdict == "non_congruent_certificate")
    print(
        f"PASS criterion 10: no certificate contradicts the theta counts "
        f"({certs} certificates among {len(full_scan)} hypothesis n <= 5e5)"
    )


def test_criterion_11_class_number_oracle():
    assert class_number(-4) == 1
    assert class_number(-20) == 2
    discs = fundamental_discs(10_000)
    for D in discs:
        assert class_number(D) == brute_force_h(D), D
    print(f"PASS criterion 11: both reduced-form counters agree on {len(discs)} fundamental D")


def test_criterion_12_scan_class_numbers_match_reduced_forms(full_scan):
    for r in full_scan:
        n_q = r.n // r.q
        assert (r.h_n, r.h_nq) == (class_number(-r.n), class_number(-4 * n_q)), r.n
    print(f"PASS criterion 12: theta-table class numbers match reduced forms on all {len(full_scan)} rows")


# md5 of the CSV `congruent scan --max 500000` writes; a change to any row or
# cell changes it
SCAN_CSV_MD5 = "87b9441f331da58e7c90de32d03d34ea"


def test_criterion_13_scan_csv_is_byte_identical(full_scan):
    out = io.StringIO()
    emit(full_scan, "csv", out)
    assert hashlib.md5(out.getvalue().encode("utf-8")).hexdigest() == SCAN_CSV_MD5
    print(f"PASS criterion 13: the CSV of the scan to {SCAN_LIMIT:,} has md5 {SCAN_CSV_MD5}")


# md5 and row count of the CSV `congruent scan --max 2000000` writes, which
# reads more line batches and t >= 2 rows than the scan to 500,000
SCAN_2M_CSV_MD5 = "2147c1b1ab0f87b3653dad0abd720ecd"
SCAN_2M_ROWS = 20_430


def test_criterion_13_scan_csv_to_2m_is_byte_identical():
    rows = list(scan(2_000_000))
    out = io.StringIO()
    emit(rows, "csv", out)
    assert len(rows) == SCAN_2M_ROWS
    assert hashlib.md5(out.getvalue().encode("utf-8")).hexdigest() == SCAN_2M_CSV_MD5
    print(f"PASS criterion 13: the CSV of the scan to 2,000,000 ({SCAN_2M_ROWS:,} rows) has md5 {SCAN_2M_CSV_MD5}")


# md5 of the reports `congruent check -n N --json` prints for these n, one
# after another: t = 1 and t = 2 rows, the largest q = 3 n of check_large, the
# last hypothesis n below the per-n bound, and two shape failures
CHECK_JSON_NS = (219, 42267, 52779, 9999939, 9999999771, 42, 12)
CHECK_JSON_MD5 = "71c513dcc92e752048bacfb2f7204412"


def test_criterion_13_check_json_is_byte_identical(capsys):
    assert [main(["check", "-n", str(n), "--json"]) for n in CHECK_JSON_NS] == [0] * len(CHECK_JSON_NS)
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode("utf-8")).hexdigest() == CHECK_JSON_MD5
    print(f"PASS criterion 13: the check --json reports of n = {', '.join(map(str, CHECK_JSON_NS))} have md5 {CHECK_JSON_MD5}")


def test_criterion_14_every_row_matches_the_per_row_path(full_scan):
    # the scan builds every row, whatever its t, from the columns of its
    # filter pass and builds no report; the slow path factors each n again
    # and builds its row report by report, symbols included.  It takes r from
    # divisor sums, not from the scan's TunnellTable, so a fault in either
    # source of the class numbers and labels shows here (about 5 s, against
    # under 1 s if both read one table)
    for r in full_scan:
        assert row_from_report(evaluate_hypothesis(build_hypothesis(r.n))) == r, r.n
    t1 = sum(1 for r in full_scan if len(r.p_list) == 1)
    assert 0 < t1 < len(full_scan)
    print(f"PASS criterion 14: all {len(full_scan)} rows ({t1} with t = 1) match the per-row path")


def test_criterion_15_octic_symbol_matches_the_norm_form():
    # r8(-4p) by (-4)^((p-1)/8) = 1 (mod p) against (-1/e) for p = 2e^2 - f^2
    ps = [p for p in range(17, 10**6, 8) if is_prime(p)]
    assert len(ps) == 19552
    fast = _octic(np.array(ps, dtype=np.int64)).tolist()
    slow = [jacobi(-1, rep_2e2_f2(FactoredSquarefree(p, (p,)))[0]) == 1 for p in ps]
    assert fast == slow
    assert 0 < sum(fast) < len(ps)
    print(f"PASS criterion 15: the octic test matches the norm form on all {len(ps)} primes p = 1 (mod 8) below 10^6")

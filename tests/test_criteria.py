"""Tests for verdict assembly and the t = 1 specialization."""

import re

import pytest

import congruent.classgroup
import congruent.tunnell
from congruent.classgroup import class_number
import numpy as np

import congruent.arith
from congruent.criteria import (
    InvariantViolation,
    Verdict,
    check_invariant_laws,
    check_report_invariants,
    evaluate_prime_pair,
    evaluate,
)
from congruent.tunnell import MAX_PER_N, Classification


def test_evaluate_table1_row():
    r = evaluate(52779)
    assert r.verdict == Verdict.CONSISTENT_WITH_CONGRUENT
    assert r.h_n == 80 and r.h_nq == 48 and r.modulus == 16
    assert r.congruence_holds is True
    assert r.s_n == 2 and r.r4 == 1 and r.r8_n == 1 and r.r8_nq == 1
    assert r.tunnell_label == Classification.CONGRUENT_UNDER_BSD
    check_report_invariants(r)


def test_evaluate_table2_row():
    r = evaluate(42267)
    assert r.verdict == Verdict.NON_CONGRUENT_CERTIFICATE
    assert r.h_n == 24 and r.h_nq == 96
    assert r.congruence_holds is False
    assert r.tunnell_label == Classification.NON_CONGRUENT_UNCONDITIONAL
    check_report_invariants(r)


def test_evaluate_exception_case():
    # congruence satisfied, yet the theta counts rule congruence out:
    # the criterion is necessary, never sufficient
    r = evaluate(68547)
    assert r.verdict == Verdict.CONSISTENT_WITH_CONGRUENT
    assert r.congruence_holds is True
    assert r.tunnell_label == Classification.NON_CONGRUENT_UNCONDITIONAL
    check_report_invariants(r)


def test_evaluate_hypothesis_failures():
    r = evaluate(12)
    assert r.verdict == Verdict.HYPOTHESIS_FAILED and "12" in r.reason
    r = evaluate(15)
    assert r.verdict == Verdict.HYPOTHESIS_FAILED
    assert r.tunnell_label is not None  # label still attached for squarefree n
    r = evaluate(51)  # shape fits, q is a non-residue mod 17
    assert r.verdict == Verdict.HYPOTHESIS_FAILED
    assert "non-residue" in r.reason
    assert r.h_n is not None and r.congruence_holds is not None
    r = evaluate(21243)  # (3/73) = (3/97) = +1 but (73/97) = +1: rank A != t - 1
    assert r.verdict == Verdict.HYPOTHESIS_FAILED
    assert "rank" in r.reason
    with pytest.raises(ValueError):
        evaluate(2)


def test_report_to_dict():
    d = evaluate(52779).to_dict()
    assert d["n"] == 52779 and d["h_n"] == 80 and d["h_nq"] == 48
    assert d["q"] == 3 and d["p_list"] == [73, 241] and d["t"] == 2
    assert d["verdict"] == "consistent"
    assert d["tunnell_label"] == "congruent_under_bsd"


def test_evaluate_prime_pair_73_3():
    r = evaluate_prime_pair(73, 3)
    assert r.n == 219 and r.modulus == 8
    assert r.h_n == class_number(-219)
    assert r.h_nq == class_number(-4 * 73)
    # verdict must not contradict the independent label
    if r.verdict == Verdict.NON_CONGRUENT_CERTIFICATE:
        assert r.tunnell_label == Classification.NON_CONGRUENT_UNCONDITIONAL
    check_report_invariants(r)


def test_evaluate_prime_pair_rejections():
    r = evaluate_prime_pair(17, 3)
    assert r.verdict == Verdict.HYPOTHESIS_FAILED  # (3/17) = -1
    r = evaluate_prime_pair(5, 3)
    assert r.verdict == Verdict.HYPOTHESIS_FAILED and "(mod 8)" in r.reason
    r = evaluate_prime_pair(15, 3)
    assert r.verdict == Verdict.HYPOTHESIS_FAILED and "prime" in r.reason


def test_invariant_checker_fires_on_forged_report():
    good = evaluate(42267)
    forged = good._replace(tunnell_label=Classification.CONGRUENT_UNDER_BSD)
    with pytest.raises(InvariantViolation):
        check_report_invariants(forged)


def test_evaluate_refuses_an_out_of_range_n_before_any_count(monkeypatch):
    # n = 3 * 3333333449 is the first n of hypothesis shape above the per-n bound
    def no_work(*args):
        raise AssertionError("counted")

    monkeypatch.setattr(congruent.tunnell, "_line_divisor_sums", no_work)
    monkeypatch.setattr(congruent.tunnell, "_count_form", no_work)
    monkeypatch.setattr(congruent.classgroup, "_count_reduced_forms", no_work)
    with pytest.raises(ValueError, match=f"n = 10000000347 exceeds the per-n bound {MAX_PER_N}"):
        evaluate(10000000347)
    with pytest.raises(AssertionError, match="counted"):
        evaluate(9999999771)  # 3 * 3333333257, the last one below the bound, reaches the count


def test_a_check_factors_both_lines_in_one_pass(monkeypatch):
    # the lines of n and n_q are gathered together, so their points are
    # factored by one divisor-sum call
    real = congruent.tunnell._line_divisor_sums
    calls = []

    def spy(centres, a, modulus):
        calls.append(centres.tolist())
        return real(centres, a, modulus)

    monkeypatch.setattr(congruent.tunnell, "_line_divisor_sums", spy)
    r = evaluate(9999939)
    assert (r.h_n, r.h_nq) == (788, 740)
    assert len(calls) == 1
    assert calls == [[3333313, 9999939]]


def test_a_wrong_shape_n_is_factored_once(monkeypatch):
    real = congruent.arith._factor
    calls = []

    def spy(v):
        calls.append(v)
        return real(v)

    monkeypatch.setattr(congruent.arith, "_factor", spy)
    r = evaluate(42)
    assert calls == [42]
    assert r.verdict == Verdict.HYPOTHESIS_FAILED
    assert r.tunnell_label == Classification.NON_CONGRUENT_UNCONDITIONAL


def _law_columns(reports):
    """The arguments of check_invariant_laws for reports whose hypothesis holds, one array each."""
    return [
        np.array([r.n for r in reports]),
        np.array([r.verdict == Verdict.NON_CONGRUENT_CERTIFICATE for r in reports]),
        np.array([r.tunnell_label == Classification.CONGRUENT_UNDER_BSD for r in reports]),
        np.array([r.modulus for r in reports]),
        np.array([r.h_n for r in reports]),
        np.array([r.h_nq for r in reports]),
        np.array([r.congruence_holds for r in reports]),
        np.array([r.r8_n for r in reports]),
        np.array([r.r8_nq for r in reports]),
    ]


def test_invariant_laws_over_arrays_name_the_first_bad_n():
    # t = 1 and t = 2, certificates and consistent rows, both 8-rank values
    reports = [evaluate(n) for n in (219, 42267, 52779, 68547, 9999939)]
    for r in reports:
        check_report_invariants(r)
    columns = _law_columns(reports)
    check_invariant_laws(*columns)
    check_invariant_laws(*(c[:0] for c in columns))  # no rows
    for i in range(len(reports)):
        check_invariant_laws(*(c[i] for c in columns))  # numpy scalars
        check_invariant_laws(*(c[i].item() for c in columns))  # Python scalars
    # each law broken alone at 52779 (index 2): modulus 16, h 80 and 48, r8 1 and 1
    names = ["n", "certificate", "bsd", "modulus", "h_n", "h_nq", "congruence", "r8_n", "r8_nq"]
    forged = [
        ("certificate", True, "certified non-congruent but Tunnell counts say congruent"),
        ("h_nq", 52, "2^(t+1) does not divide both class numbers"),
        ("r8_nq", 0, "congruence and 8-rank equality disagree"),
        ("h_n", 88, "r8(-n) inconsistent with v2(h(-n))"),
        ("h_nq", 56, "r8(-n_q) inconsistent with v2(h(-n_q))"),
    ]
    for name, value, message in forged:
        bad = [c.copy() for c in columns]
        bad[names.index(name)][2] = value
        # arrays, numpy scalars, Python scalars
        for args in (bad, [c[2] for c in bad], [c[2].item() for c in bad]):
            with pytest.raises(InvariantViolation, match=f"^n = 52779: {re.escape(message)}$"):
                check_invariant_laws(*args)
    # the first bad n is named, whatever laws a later n breaks
    two = [c.copy() for c in columns]
    two[names.index("r8_nq")][2] = 0
    two[names.index("h_n")][1] = 28  # 2^(t+1) = 8 no longer divides h(-42267)
    with pytest.raises(InvariantViolation, match=re.escape("n = 42267: 2^(t+1) does not divide both class numbers")):
        check_invariant_laws(*two)

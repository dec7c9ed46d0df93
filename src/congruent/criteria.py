"""Per-n verdict reports combining the class-number congruence with the rank
criteria and an independent Tunnell label.

The certificate logic is a contrapositive: when the hypothesis holds, a
congruent n must satisfy h(-n) = h(-n_q) (mod 2^(t+2)), so a failed
congruence rules congruence out.  When the congruence holds the report says "consistent" - the
criterion is necessary, not sufficient, and the exceptions prove it.  The
Tunnell label is evidence shown next to the verdict, never folded into it.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

import numpy as np

from .arith import NotSquarefree, is_prime
from .redei import HypothesisN, WrongResidueShape, build_hypothesis, eight_rank_neg_n, eight_rank_neg_nq, four_rank
from .selmer import selmer_rank
from .tunnell import Classification, ThetaCounts, classify, divisor_lines
from .tunnell import class_number as theta_class_number


class Verdict(enum.Enum):
    NON_CONGRUENT_CERTIFICATE = "non_congruent_certificate"
    CONSISTENT_WITH_CONGRUENT = "consistent"
    HYPOTHESIS_FAILED = "hypothesis_failed"


class CriterionReport(NamedTuple):
    n: int
    verdict: Verdict
    reason: Optional[str] = None
    hypothesis: Optional[HypothesisN] = None
    r8_n: Optional[int] = None
    r8_nq: Optional[int] = None
    h_n: Optional[int] = None
    h_nq: Optional[int] = None
    modulus: Optional[int] = None
    congruence_holds: Optional[bool] = None
    tunnell_label: Optional[Classification] = None

    # s_n and r4 are built only when read: a report whose s_n and r4 go unread builds no Monsky or Hilbert-symbol matrix
    @property
    def s_n(self) -> Optional[int]:
        return None if self.hypothesis is None else selmer_rank(self.hypothesis.n)

    @property
    def r4(self) -> Optional[int]:
        return None if self.hypothesis is None else four_rank(self.hypothesis)

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "verdict": self.verdict.value,
            "reason": self.reason,
            "s_n": self.s_n,
            "r4": self.r4,
            "r8_n": self.r8_n,
            "r8_nq": self.r8_nq,
            "h_n": self.h_n,
            "h_nq": self.h_nq,
            "modulus": self.modulus,
            "congruence_holds": self.congruence_holds,
            "tunnell_label": self.tunnell_label.value if self.tunnell_label else None,
        }
        if self.hypothesis is not None:
            out["q"] = self.hypothesis.q
            out["p_list"] = list(self.hypothesis.p_list)
            out["t"] = self.hypothesis.t
            out["n_q"] = self.hypothesis.n_q.value
        return out


def evaluate(v: int) -> CriterionReport:
    """Full evidence bundle for one candidate n; every report passes the invariant checks.

    An n above MAX_PER_N is refused before it is factored.
    """
    if v < 3:
        raise ValueError(f"need v >= 3, got {v}")
    try:
        h = build_hypothesis(v)
    except NotSquarefree as exc:
        report = CriterionReport(n=v, verdict=Verdict.HYPOTHESIS_FAILED, reason=str(exc))
    except WrongResidueShape as exc:
        report = CriterionReport(
            n=v,
            verdict=Verdict.HYPOTHESIS_FAILED,
            reason=str(exc),
            tunnell_label=classify(exc.n),
        )
    else:
        return evaluate_hypothesis(h)
    check_report_invariants(report)
    return report


def evaluate_hypothesis(h: HypothesisN) -> CriterionReport:
    """The report for an n already factored into h; it passes the invariant checks.

    Nothing is factored again.  divisor_lines sums the lines of n and n_q,
    refusing n above its bound before any count; they give the Tunnell label
    and both class numbers.
    """
    v, vq = h.n.value, h.n_q.value
    (t_n, t_nq), (c8, _), (c32, _) = divisor_lines([v, vq]).tolist()
    label = ThetaCounts(n=v, c32=c32, c8=c8).label
    hn, hnq = theta_class_number(v, t_n), theta_class_number(vq, t_nq)
    modulus = h.modulus
    congruence = (hn - hnq) % modulus == 0
    holds = h.holds()
    if holds:
        verdict = Verdict.CONSISTENT_WITH_CONGRUENT if congruence else Verdict.NON_CONGRUENT_CERTIFICATE
        reason = None
    else:
        verdict = Verdict.HYPOTHESIS_FAILED
        reason = "q is a non-residue mod some p_i" if not h.qr_condition else "rank A_n != t - 1"
    report = CriterionReport(
        n=v,
        verdict=verdict,
        reason=reason,
        hypothesis=h,
        r8_n=eight_rank_neg_n(h) if holds else None,
        r8_nq=eight_rank_neg_nq(h) if h.rank_condition else None,
        h_n=hn,
        h_nq=hnq,
        modulus=modulus,
        congruence_holds=congruence,
        tunnell_label=label,
    )
    check_report_invariants(report)
    return report


def evaluate_prime_pair(p: int, q: int) -> CriterionReport:
    """The t = 1 case: n = pq with modulus 8, h(-pq) against h of disc -4p."""
    if not is_prime(p) or not is_prime(q):
        return CriterionReport(
            n=p * q, verdict=Verdict.HYPOTHESIS_FAILED, reason=f"{p} and {q} must both be prime"
        )
    if p % 8 != 1:
        return CriterionReport(
            n=p * q, verdict=Verdict.HYPOTHESIS_FAILED, reason=f"p = {p} is {p % 8} (mod 8), need 1"
        )
    if q % 8 != 3:
        return CriterionReport(
            n=p * q, verdict=Verdict.HYPOTHESIS_FAILED, reason=f"q = {q} is {q % 8} (mod 8), need 3"
        )
    report = evaluate(p * q)
    if report.modulus is not None and report.modulus != 8:
        raise ArithmeticError(f"t = 1 specialization produced modulus {report.modulus}")
    return report


class InvariantViolation(AssertionError):
    """A structural law the implementation must uphold failed on real data."""


def check_report_invariants(report: CriterionReport) -> None:
    """Loud cross-checks between the certificate and the independent evidence.

    A NonCongruentCertificate for a Tunnell-congruent n would falsify either
    the implementation or the criterion itself; it must not pass silently.
    A report whose hypothesis failed carries no certificate and is not checked.
    """
    if report.verdict == Verdict.HYPOTHESIS_FAILED:
        return
    check_invariant_laws(
        report.n,
        report.verdict == Verdict.NON_CONGRUENT_CERTIFICATE,
        report.tunnell_label == Classification.CONGRUENT_UNDER_BSD,
        report.modulus,
        report.h_n,
        report.h_nq,
        report.congruence_holds,
        report.r8_n,
        report.r8_nq,
    )


_LAW_MESSAGES = (
    "certified non-congruent but Tunnell counts say congruent",
    "2^(t+1) does not divide both class numbers",
    "congruence and 8-rank equality disagree",
    "r8(-n) inconsistent with v2(h(-n))",
    "r8(-n_q) inconsistent with v2(h(-n_q))",
)


def check_invariant_laws(n, certificate, tunnell_congruent, modulus, h_n, h_nq, congruence, r8_n, r8_nq) -> None:
    """The four laws of a report whose hypothesis holds, over scalars (one report) or arrays (one entry per n).

    1. A certificate never meets a Tunnell-congruent label.
    2. 2^(t+1) = modulus / 2 divides both class numbers.
    3. The congruence holds iff r8(-n) = r8(-n_q).
    4. r8 = 1 iff the modulus divides h, for -n and for -n_q.
    InvariantViolation names the first n that breaks a law, with the first
    law, in this order, that it breaks.  Booleans are combined with &, | and
    != only: ~ on a Python bool is an int.
    """
    half = modulus // 2
    laws = np.broadcast_arrays(
        certificate & tunnell_congruent,
        (h_n % half != 0) | (h_nq % half != 0),
        congruence != (r8_n == r8_nq),
        (r8_n == 1) != (h_n % modulus == 0),
        (r8_nq == 1) != (h_nq % modulus == 0),
    )
    broken = np.array(laws, dtype=bool).reshape(len(_LAW_MESSAGES), -1)
    bad = broken.any(axis=0)
    if bad.any():
        i = int(bad.argmax())
        first = int(np.broadcast_to(n, bad.shape)[i])
        raise InvariantViolation(f"n = {first}: {_LAW_MESSAGES[int(broken[:, i].argmax())]}")

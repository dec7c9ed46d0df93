"""The package's record types: equality, hashing, repr and immutability, as they were as frozen dataclasses.

Every record is a typing.NamedTuple.  That is the one change in behaviour: a
record is a tuple, so it unpacks into its fields and equals a plain tuple of
the same values (and a record of another type with the same values).
"""

import os
import subprocess
import sys

import pytest

from congruent.arith import FactoredSquarefree, factor_squarefree
from congruent.criteria import evaluate
from congruent.descent import DivisorPair, find_witness
from congruent.norms import represent
from congruent.redei import build_hypothesis
from congruent.scan import scan
from congruent.selmer import monsky
from congruent.tunnell import counts

H_219 = (
    "HypothesisN(n=FactoredSquarefree(value=219, primes=(3, 73)), q=3, p_list=(73,),"
    " n_q=FactoredSquarefree(value=73, primes=(73,)), t=1, qr_condition=True, A=(0,), rank_condition=True)"
)

# each record type: a maker of one record from an argument, two arguments
# giving unequal records, and the repr of the first, as the dataclass wrote it
RECORDS = {
    "FactoredSquarefree": (factor_squarefree, 6, 10, "FactoredSquarefree(value=6, primes=(2, 3))"),
    "ThetaCounts": (counts, 219, 5, "ThetaCounts(n=219, c32=24, c8=48)"),
    "HypothesisN": (build_hypothesis, 219, 52779, H_219),
    "CriterionReport": (
        evaluate,
        219,
        42,
        "CriterionReport(n=219, verdict=<Verdict.CONSISTENT_WITH_CONGRUENT: 'consistent'>, reason=None, hypothesis="
        + H_219
        + ", r8_n=0, r8_nq=0, h_n=4, h_nq=4, modulus=8, congruence_holds=True,"
        " tunnell_label=<Classification.CONGRUENT_UNDER_BSD: 'congruent_under_bsd'>)",
    ),
    "MonskyDecomposition": (
        lambda m: monsky(factor_squarefree(m)),
        219,
        41,
        "MonskyDecomposition(m=FactoredSquarefree(value=219, primes=(3, 73)), M=(5, 0, 1, 0), s=2)",
    ),
    "NormRepresentation": (
        lambda p: represent(factor_squarefree(p)),
        17,
        41,
        "NormRepresentation(P=FactoredSquarefree(value=17, primes=(17,)), u=3, v=2, e=3, f=1)",
    ),
    "TorsorWitness": (
        lambda pair: find_witness(factor_squarefree(5), DivisorPair(*pair)),
        (1, 1),
        (5, 5),
        "TorsorWitness(pair=DivisorPair(a=1, b=1), x=1, y=0, z=1, w=1)",
    ),
    "ScanRow": (
        lambda i: list(scan(2000))[i],
        0,
        1,
        "ScanRow(n=219, q=3, p_list=(73,), legendre_triple=(1,), h_n=4, h_nq=4, modulus=8,"
        " congruence_holds=True, tunnell_label='congruent_under_bsd', verdict='consistent')",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_equality_hash_and_repr(name):
    make, first, second, text = RECORDS[name]
    a, b, other = make(first), make(first), make(second)
    assert type(a).__name__ == name
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other and not (a == other)
    assert repr(a) == text


@pytest.mark.parametrize("name", RECORDS)
def test_record_refuses_assignment(name):
    make, first, _, _ = RECORDS[name]
    record = make(first)
    field = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == make(first)


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_a_tuple_of_its_fields(name):
    # the change from the dataclasses: a record unpacks, and it equals the plain tuple of its values
    make, first, _, _ = RECORDS[name]
    record = make(first)
    values = tuple(getattr(record, field) for field in type(record)._fields)
    assert isinstance(record, tuple) and tuple(record) == values and record == values
    head, *_ = record
    assert head == values[0]


def test_factored_squarefree_checks_when_made():
    assert FactoredSquarefree(value=6, primes=(2, 3)) == factor_squarefree(6)
    with pytest.raises(ValueError, match=r"^primes \(2, 3\) do not multiply to 7$"):
        FactoredSquarefree(7, (2, 3))
    with pytest.raises(ValueError, match="^primes must be strictly increasing$"):
        FactoredSquarefree(6, (3, 2))
    with pytest.raises(ValueError, match=r"^non-prime entry in \(1, 6\)$"):
        FactoredSquarefree(6, (1, 6))
    # as dataclasses.replace did, _replace and _make check the new record
    assert factor_squarefree(6)._replace(value=10, primes=(2, 5)) == factor_squarefree(10)
    with pytest.raises(ValueError, match=r"^primes \(2, 3\) do not multiply to 7$"):
        factor_squarefree(6)._replace(value=7)
    with pytest.raises(ValueError, match="^primes must be strictly increasing$"):
        FactoredSquarefree._make([6, (3, 2)])


def test_command_import_loads_no_dataclasses():
    # the records are NamedTuples: importing the command line loads no dataclasses module
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, congruent.cli; print(sorted(m for m in sys.modules if m.startswith('dataclasses')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

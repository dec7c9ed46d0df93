"""Congruent-number criterion toolkit.

Certifies non-congruence of squarefree n = p_1 ... p_t * q (p_i = 1, q = 3
mod 8) through the class-number congruence h(-n) = h(-n_q) (mod 2^(t+2)),
with the full supporting pipeline: Monsky matrices and 2-Selmer ranks,
Redei-style 4-/8-rank criteria, exact class numbers by three-square theta
counts and by reduced-form counting, norm-form representations, divisor-pair
descent, and Tunnell theta counts as an independent classification.
"""

import os

# numpy's OpenBLAS starts a thread pool at import, and the package makes no BLAS
# call; one thread saves the pool's start-up unless the user chose a size
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .arith import FactoredSquarefree, NotSquarefree, factor_squarefree, hilbert, jacobi, legendre, quartic_symbol
from .classgroup import class_number, fundamental_discriminant, genus_two_rank
from .criteria import CriterionReport, InvariantViolation, Verdict, evaluate, evaluate_prime_pair
from .descent import DivisorPair, PairNotInKernel, TorsorWitness, find_witness, kernel_K, phi_p
from .gf2 import pack, rank_f2, unpack
from .norms import NormRepresentation, NoRepresentation, parity_criterion, rep_2e2_f2, rep_u2_2v2, represent
from .redei import HypothesisN, HypothesisNotMet, WrongResidueShape, build_hypothesis, eight_rank_neg_n, eight_rank_neg_nq, four_rank, redei_matrix
from .scan import ScanRow, emit, read_rows, scan
from .selmer import MonskyDecomposition, monsky, selmer_rank
from .tunnell import Classification, ThetaCounts, TunnellTable, classify, theta_counts

__version__ = "0.1.0"

import math
import random

import pytest

from oracles import brute_shortest
from under_O import run_under_O
from classgroup.errors import DeterminantTooLarge, DimensionCap
from classgroup.intlinalg import identity
from classgroup.lattice import (LatticeBasis, bkz, cheon_reduce, enumerate_svp,
                                hnf_lattice, lattice_member, lll, log_big,
                                round_half_even, shortest_of_gram,
                                theorem_bound_holds, _apply_transform, _gram_of)
from classgroup.polynomials import bareiss_det


def random_unimodular(n, rng, steps=50):
    U = identity(n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-3, 3)
        for t in range(n):
            U[t][i] += q * U[t][j]
    return U


def hadamard_defect(cols):
    d2 = bareiss_det(_gram_of(cols))
    s = sum(math.log(sum(c * c for c in col)) for col in cols)
    return 0.5 * log_big(d2) - 0.5 * s  # log of (det / prod |b_i|), <= 0


def test_lll_examples():
    assert lll(LatticeBasis([[1, 0], [0, 1]])).columns == [[1, 0], [0, 1]]
    red = lll(LatticeBasis([[1, 0], [4, 1]]))
    assert red.columns[0] == [1, 0]


def test_lll_hadamard_property():
    rng = random.Random(21)
    for _ in range(50):
        n = 8
        cols = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
        if bareiss_det(_gram_of(cols)) == 0:
            continue
        B = LatticeBasis(cols)
        red = lll(B)
        assert hadamard_defect(red.columns) >= hadamard_defect(cols) - 1e-9
        assert abs(bareiss_det(red.transform)) == 1


def test_enumerate_svp_examples():
    coeffs, n2 = enumerate_svp([[9]])
    assert coeffs == (1,) and n2 == 9
    coeffs, n2 = enumerate_svp([[2, 1], [1, 2]])
    assert n2 == 2
    with pytest.raises(DimensionCap):
        enumerate_svp([[1] * 31 for _ in range(31)], cap=30)


def test_enumerate_svp_vs_bruteforce():
    rng = random.Random(5)
    for _ in range(30):
        n = 6
        cols = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        g = _gram_of(cols)
        if bareiss_det(g) == 0:
            continue
        coeffs, n2 = enumerate_svp(g)
        b = brute_shortest(g, 4)
        assert n2 <= b  # a box candidate can never beat exact enumeration
        if all(abs(c) <= 4 for c in coeffs):
            assert n2 == b  # the box saw the same vector


def test_bkz_rank2_ideal_example(qi):
    from classgroup.ideals import ideal_from_element, ideal_lattice
    L = ideal_lattice(ideal_from_element(qi.element([2, 1])), qi)
    red, rep = bkz(L, 2)
    v2 = min(sum(c * c for c in col) for col in red.columns)
    scaled = v2 / 4.0 ** L.scale_bits
    assert abs(scaled - 10) < 1e-6
    assert rep.first_vector_norm <= rep.hermite_bound * (1 + 1e-12)


def test_bkz_bound_random_lattices():
    rng = random.Random(77)
    checked = 0
    for _ in range(20):
        n = rng.randint(8, 12)
        cols = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
        g = _gram_of(cols)
        if bareiss_det(g) == 0:
            continue
        B = LatticeBasis(cols)
        for beta in (2, 4, 8):
            red, rep = bkz(B, beta)
            v2 = min(sum(c * c for c in col) for col in red.columns)
            assert theorem_bound_holds(v2, beta, n, bareiss_det(_gram_of(red.columns)))
            assert abs(bareiss_det(red.transform)) == 1
            checked += 1
    assert checked >= 30


def test_hnf_lattice_examples():
    assert hnf_lattice(LatticeBasis([[1, 0], [0, 1]])).columns == [[1, 0], [0, 1]]
    H = hnf_lattice(LatticeBasis([[2, 0], [1, 3]]))
    assert H.columns == [[2, 0], [1, 3]]


def test_hnf_prefix_determinant_monotone():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(2, 6)
        cols = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if bareiss_det(_gram_of(cols)) == 0:
            continue
        H = hnf_lattice(LatticeBasis(cols))
        prev = None
        for m in range(1, n + 1):
            sub = [H.columns[j][:] for j in range(m)]
            det2 = bareiss_det(_gram_of(sub))
            if prev is not None:
                assert det2 >= prev  # prefix determinants non-decreasing
            prev = det2


def test_cheon_m_selection_and_bounds():
    rng = random.Random(11)
    n = 16
    diag = [1] * n
    diag[5] = 4 ** 32
    cols = [[diag[i] if i == j else 0 for i in range(n)] for j in range(n)]
    B = LatticeBasis(_apply_transform(cols, random_unimodular(n, rng)))
    v, rep = cheon_reduce(B, 4)
    assert rep.m_sub == 16  # round(sqrt(2*4*32)) exactly
    assert lattice_member(hnf_lattice(B), v) is not None
    # det = 1 clamps m to beta
    cols = identity(8)
    B = LatticeBasis(_apply_transform(cols, random_unimodular(8, rng, 30)))
    _, rep = cheon_reduce(B, 4)
    assert rep.m_sub == 4
    # oversized determinant refused
    big = [[10 ** 9 if i == j else 0 for i in range(6)] for j in range(6)]
    with pytest.raises(DeterminantTooLarge):
        cheon_reduce(LatticeBasis(big), 2)


def test_cheon_planted_instances():
    rng = random.Random(42)
    done = 0
    while done < 15:
        n = rng.randint(16, 20)
        beta = 4
        D = rng.randint(20, min(34, n * n // (2 * beta)))
        diag = [1] * n
        rem = D
        idx = list(range(n))
        rng.shuffle(idx)
        for i in idx[:4]:
            e = rng.randint(0, rem)
            diag[i] = 4 ** e
            rem -= e
        diag[idx[4]] *= 4 ** rem
        cols = [[diag[i] if i == j else 0 for i in range(n)] for j in range(n)]
        B = LatticeBasis(_apply_transform(cols, random_unimodular(n, rng)))
        v, rep = cheon_reduce(B, beta)
        lhs = math.log(rep.first_vector_norm, beta)
        assert lhs <= 1.1 * math.sqrt(2 / beta * D)
        done += 1


def test_round_half_even():
    assert round_half_even(2.5) == 2
    assert round_half_even(3.5) == 4
    assert round_half_even(2.4) == 2
    assert round_half_even(2.6) == 3


def test_matrix_file_roundtrip(tmp_path):
    from classgroup.lattice import read_matrix_file, write_matrix_file
    B = LatticeBasis([[1, 2, 3], [0, 1, 4]])
    p = tmp_path / "m.txt"
    write_matrix_file(str(p), B)
    B2 = read_matrix_file(str(p))
    assert B2.columns == B.columns
    assert p.read_text().splitlines()[0] == "3 2"


_BKZ_UNDER_O = """
from classgroup import lattice
from classgroup.errors import VerificationFailed

assert not __debug__, "run with python -O"
# a quality check that always fails: the full-enumeration fallback cannot
# satisfy it either, so bkz must refuse its output
lattice.theorem_bound_holds = lambda *args: False
try:
    lattice.bkz(lattice.LatticeBasis([[3, 1], [1, 3]]), 2)
except VerificationFailed as e:
    print("rejected:", e)
"""


def test_bkz_quality_check_survives_python_O():
    lines = run_under_O(_BKZ_UNDER_O)
    assert lines == ["rejected: BKZ output violates the block-reduction "
                     "quality bound"], lines

import math
import random
from fractions import Fraction

import pytest

from oracles import dickman_quadrature, is_smooth_naive, smooth_count_range
from classgroup.errors import AlphaOrder, DomainTooSmall
from classgroup.smoothness import (LExpr, dickman_rho, eval_L,
                                   heuristic_probability, smooth_part,
                                   smooth_probability)


def test_smooth_part_examples():
    r = smooth_part(720, 5)
    assert r.smooth_part == {2: 4, 3: 2, 5: 1} and r.cofactor == 1
    r = smooth_part(77, 5)
    assert r.smooth_part == {} and r.cofactor == 77
    r = smooth_part(1, 7)
    assert r.smooth_part == {} and r.cofactor == 1


def test_smooth_part_reconstruction_random():
    rng = random.Random(17)
    bounds = [rng.randint(2, 10 ** 4) for _ in range(30)]
    for _ in range(10 ** 4):
        N = rng.randint(1, 10 ** 12)
        B = rng.choice(bounds)
        res = smooth_part(N, B)
        assert res.reconstruct() == N
        assert all(p <= B for p in res.smooth_part)
        if res.cofactor != 1:
            for p in (2, 3, 5, 7, 11, 13, 17, 19):
                if p <= B:
                    assert res.cofactor % p != 0


def test_smooth_part_bigint_path():
    N = 2 ** 80 * 3 ** 7 * (10 ** 19 + 51)
    res = smooth_part(N, 100)
    assert res.smooth_part[2] == 80 and res.smooth_part[3] == 7
    assert res.reconstruct() == N


def test_smooth_part_agrees_with_naive():
    rng = random.Random(23)
    for _ in range(300):
        N = rng.randint(1, 10 ** 6)
        B = rng.randint(2, 100)
        assert (smooth_part(N, B).cofactor == 1) == is_smooth_naive(N, B)


def test_dickman_values():
    assert dickman_rho(0.7) == 1.0
    assert abs(dickman_rho(2) - (1 - math.log(2))) < 1e-12
    oracle3 = dickman_quadrature(3.0, 4000)
    assert abs(dickman_rho(3) - oracle3) < 1e-6
    with pytest.raises(ValueError):
        dickman_rho(25)


def test_dickman_decreasing_positive_and_uu_band():
    prev = 1.0
    for i in range(5, 80):
        u = i / 4
        v = dickman_rho(u)
        assert 0 < v <= prev + 1e-18
        prev = v
    for u in (3, 4, 5, 8, 12, 16):
        assert dickman_rho(u) <= 10 * u ** (-u)


def test_smoothness_frequency_matches_dickman():
    # fraction of 10^3-smooth integers near 10^8 vs rho(log x / log B)
    x, B, span = 10 ** 8, 10 ** 3, 10 ** 5
    count = smooth_count_range(x, span, B)
    expected = dickman_rho(math.log(x) / math.log(B)) * span
    assert 0.7 * expected <= count <= 1.3 * expected


def test_eval_L_examples():
    N = 10 ** 6
    assert abs(eval_L(LExpr(Fraction(1), 0.5), N) - N ** 0.5) < 1e-6 * N ** 0.5
    want = math.log(N) ** 2
    assert abs(eval_L(LExpr(Fraction(0), 2.0), N) - want) < 1e-9 * want
    # direct-formula check at alpha = 1/2
    e = LExpr(Fraction(1, 2), 1.0, with_o1=False)
    ln, lln = math.log(N), math.log(math.log(N))
    assert abs(eval_L(e, N) - math.exp(ln ** 0.5 * lln ** 0.5)) < 1e-9
    with pytest.raises(DomainTooSmall):
        eval_L(e, 15)


def test_smooth_probability_paper_cases():
    # x = Lnot(1, 1/2), y = Lnot(1/2, c_b) -> L(1/2, 1/(4 c_b))
    for cb in (0.2, 0.324, 0.5):
        pr = smooth_probability(LExpr(Fraction(1), 0.5, with_o1=False),
                                LExpr(Fraction(1, 2), cb, with_o1=False))
        assert pr.alpha == Fraction(1, 2)
        assert abs(pr.c - 1 / (4 * cb)) < 1e-12
    # x = Lnot(4a/3, c), y = Lnot(2a/3, sqrt(2ac/3)) -> L(2a/3, sqrt(2ac/3))
    a, c = Fraction(9, 10), 1.3
    cb = math.sqrt(2 * float(a) * c / 3)
    pr = smooth_probability(LExpr(4 * a / 3, c, with_o1=False),
                            LExpr(2 * a / 3, cb, with_o1=False))
    assert pr.alpha == 2 * a / 3
    assert abs(pr.c - cb) < 1e-12
    with pytest.raises(AlphaOrder):
        smooth_probability(LExpr(Fraction(1, 2), 1.0), LExpr(Fraction(1, 2), 1.0))


def test_heuristic_probability():
    # u^-u at u = log x / log y
    x, y = 10 ** 12, 10 ** 3
    u = 4.0
    assert abs(heuristic_probability(x, y) - math.exp(-u * math.log(u))) < 1e-12
    assert heuristic_probability(10, 100) == 1.0

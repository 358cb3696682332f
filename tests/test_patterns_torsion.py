"""Degree patterns in bulk, the torsion count read off them, the factor
base's pattern screen, the integer structure constants, and presentations
shifted by a large integer."""

import json
import math
import random
from fractions import Fraction

import pytest

from oracles import (large_presentation, mult_table_fractions,
                     transformed_presentation)
from test_acceptance import poly_for_disc
from test_analytic import _PATTERN_POLYS
from under_O import run_under_O
from classgroup import analytic, cli, ideals, polynomials as poly
from classgroup.field import AlgebraicNumber, parse_field
from classgroup.polynomials import (degree, discriminant, factor_mod_p,
                                    primes_up_to)

_X4 = [1, -1, 0, 0, 1]  # x^4 - x + 1: totally complex, w = 2
_HALF = Fraction(1, 2)
_BASES = [([4, 0, 1], [[1, 0], [0, _HALF]]),  # Q(i), index 2
          ([-8, -2, -1, 1], [[1, 0, 0], [0, 1, 0], [0, _HALF, _HALF]])]


@pytest.mark.parametrize("T", _PATTERN_POLYS + [_X4, [4, 0, 1]])
def test_pattern_groups_match_factor_mod_p(T):
    # every p <= 3000 lands in exactly one group, the group of its full
    # factorization's degrees; degree_patterns gives them in input order
    primes = primes_up_to(3000)
    disc = discriminant(T)
    groups = poly.pattern_groups(T, primes, disc)
    assert sorted(p for ps in groups.values() for p in ps) == primes
    want = {p: sorted(degree(g) for g, _ in factor_mod_p(T, p))
            for p in primes}
    for pattern, ps in groups.items():
        for p in ps:
            assert list(pattern) == want[p], (T, p)
    assert list(poly.degree_patterns(T, primes, disc)) == [
        want[p] for p in primes]


def test_euler_criterion_by_class_matches_one_power_per_prime():
    # both sides of the class table: 4|disc| below and above the number
    # of primes
    odd = primes_up_to(3000)[1:]
    for disc in [*range(-300, 301), -1000003, 5 ** 3, -7 ** 5]:
        want = [pow(disc, p >> 1, p) for p in odd]
        got = poly._euler_criterion(disc, odd)
        assert [(e == 0, e == 1) for e in got] == [
            (e == 0, e == 1) for e in want], disc


def test_primes_up_to_matches_trial_division():
    naive = [n for n in range(2, 2000)
             if all(n % d for d in range(2, math.isqrt(n) + 1))]
    for n in range(0, 2000, 7):
        assert primes_up_to(n) == [p for p in naive if p <= n], n


def test_packed_power_matches_repeated_products():
    # two factors per product: the slots of the packed ring are sized for
    # that, with a general base and with x, at small and 61-bit primes
    rng = random.Random(5)
    for p in (2, 3, 101, 2 ** 61 - 1):
        for n in (1, 2, 5):
            f = [rng.randrange(p) for _ in range(n)] + [1]
            for base in ([0, 1], [rng.randrange(p) for _ in range(n + 2)]):
                e = rng.randrange(1, 200)
                want = [1]
                for _ in range(e):
                    want = poly.pmod_divmod(poly.mul(want, base), f, p)[1]
                assert poly.pmod_pow(base, e, f, p) == want, (p, n, base, e)


def test_remainder_and_shift_in_integers():
    rng = random.Random(7)
    for _ in range(100):
        # a = q*T + r with deg r < deg T: r is the remainder of a by monic T
        T = [rng.randint(-20, 20) for _ in range(rng.randint(1, 5))] + [1]
        q = [rng.randint(-10 ** 30, 10 ** 30) for _ in range(rng.randint(0, 5))]
        r = [rng.randint(-10 ** 30, 10 ** 30) for _ in range(degree(T))]
        a = poly.add(poly.mul(q, T), r)
        assert poly.rem_monic(a, T) == r
        s = rng.randint(-10 ** 20, 10 ** 20)
        shifted = poly.taylor_shift(T, s)
        for x in range(-3, 4):
            assert poly.evaluate(shifted, x) == poly.evaluate(T, x + s)


@pytest.mark.parametrize("coeffs, w", [
    ([1, 0, 0, 0, 1], 8), ([1, 0, 0, 1, 0, 0, 1], 18), ([1, 0, -1, 0, 1], 12),
    ([1, -1, 0, 1, -1, 1, 0, -1, 1], 30), ([1, 0, 0, 0, 0, 0, 0, 0, 1], 16),
    ([1, 0, 3, 0, 1], 4), (_X4, 2), ([2, 0, 0, 0, 1], 2)])
def test_roots_of_unity_pinned(coeffs, w):
    assert analytic.count_roots_of_unity(parse_field(coeffs)) == w


def test_torsion_bound_two_needs_no_lattice(monkeypatch):
    # g = gcd(N(P) - 1) = 2 settles w = 2 before any enumeration
    def enumerate_gram(*args, **kwargs):
        raise AssertionError("enumerated a field with g = 2")
    monkeypatch.setattr(analytic, "enumerate_gram", enumerate_gram)
    for coeffs in (poly_for_disc(-47), poly_for_disc(-1000003), _X4):
        assert analytic.count_roots_of_unity(parse_field(list(coeffs))) == 2


def test_roots_of_unity_make_no_fraction(monkeypatch):
    # the power test runs in integer coordinates; AlgebraicNumber has no
    # Fraction power left to call
    assert not hasattr(AlgebraicNumber, "__pow__")
    fields = [(parse_field(c), w) for c, w in (
        ([1, 0, 1], 4), ([1, -1, 1], 6), ([1] * 7, 14),
        ([1, 0, 0, 1, 0, 0, 1], 18))]
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    for K, w in fields:
        assert analytic.count_roots_of_unity(K) == w
    assert made == []


_WRONG_BOUND_UNDER_O = """
from classgroup import analytic
from classgroup.errors import VerificationFailed
from classgroup.field import parse_field

assert not __debug__, "run with python -O"
# an odd bound lets only 1 and -1 through, and 2 does not divide it
analytic._torsion_bound = lambda field: 5
try:
    print("accepted", analytic.count_roots_of_unity(parse_field([1, 0, 1])))
except VerificationFailed as e:
    print("rejected:", e)
"""


def test_torsion_count_divides_the_bound_under_python_O():
    lines = run_under_O(_WRONG_BOUND_UNDER_O)
    assert lines == ["rejected: found 2 roots of unity, which do not divide "
                     "5"], lines


@pytest.mark.parametrize("coeffs, basis, B", [
    (poly_for_disc(-47), None, 200), (poly_for_disc(-1000003), None, 638),
    ([-10, 0, 1], None, 100), ([-1, -1, 0, 1], None, 300), ([1] * 7, None, 300),
    (_X4, None, 300)] + [(T, b, 100) for T, b in _BASES])
def test_factor_base_from_the_patterns(coeffs, basis, B):
    # the same base as factoring every p <= B
    K = parse_field(list(coeffs), basis)
    fb = ideals.build_factor_base(K, B)
    want = sorted((P for p in primes_up_to(B)
                   for P in ideals._primes_above(p, K, B)),
                  key=lambda P: (P.norm, P.p, P.gen_poly))
    assert [(P.p, P.gen_poly, P.norm, P.ram_e, P.hnf_basis)
            for P in fb.primes] == [(P.p, P.gen_poly, P.norm, P.ram_e,
                                     P.hnf_basis) for P in want]


def test_factor_base_skips_the_inert_primes(monkeypatch):
    # Q(sqrt -47) at B = 200: a p with p^2 > B is factored only where it
    # splits or ramifies
    K = parse_field(list(poly_for_disc(-47)))
    factored = []
    inner = poly.factor_mod_p

    def recorded(T, p, disc=None):
        factored.append(p)
        return inner(T, p, disc)

    monkeypatch.setattr(poly, "factor_mod_p", recorded)
    ideals.build_factor_base(K, 200)
    assert factored == [p for p in primes_up_to(200)
                        if p * p <= 200 or p == 47
                        or p > 2 and pow(-47, p >> 1, p) == 1]


@pytest.mark.parametrize("coeffs, basis", [
    ([1] * 7, None), ([1] * 13, None), ([1, 0, 0, 0, 0, 0, 0, 0, 1], None),
    large_presentation([1, 1, 1, 1, 1], None, 30, seed=3),
    large_presentation([-1, -1, 0, 1], None, 18, seed=1)] + _BASES)
def test_integer_structure_constants_match_fraction_reference(coeffs, basis):
    K = parse_field(coeffs, basis)
    ref = mult_table_fractions(K)
    assert all(c.denominator == 1 for row in ref for t in row for c in t)
    assert K._mult_table == [[tuple(int(c) for c in t) for t in row]
                             for row in ref]
    assert K.one() is K.one()


@pytest.mark.parametrize("small, seed", [
    ([1, -1, 1], 3), ([-10, 0, 1], 10), ([-1, -1, 0, 1], 23)])
def test_presentation_shifted_by_a_large_integer(tmp_path, small, seed):
    # theta' = theta + 10^100: the roots sit in a cluster about 10^100 from
    # 0, which the iterations reach on T(x + s)
    big, basis = transformed_presentation(small, None, [10 ** 100, 1])
    results = []
    for name, data in (("small", {"poly": small}),
                       ("big", {"poly": big, "basis": [
                           str(x) for row in basis for x in row]})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        results.append(cli.run_compute(
            cli.RunConfig(field_path=str(path), seed=seed)))
    want, got = results
    assert got.verdict == "ACCEPT"
    assert got.group == want.group
    assert repr(got.statistics["residue"]) == repr(want.statistics["residue"])
    assert math.isclose(got.regulator, want.regulator, rel_tol=1e-12)

import math
import random
from fractions import Fraction

import pytest

from oracles import (cubic_unit_search, degree_pattern_by_frobenius_kernel,
                     iv_endpoints, log_embedding_horner,
                     pell_fundamental_unit, torsion_count_direct)
from test_acceptance import IMAG_DISCS, poly_for_disc
from under_O import run_under_O
from classgroup import analytic, polynomials as poly
from classgroup.analytic import (compute_analytic, count_roots_of_unity,
                                 det_error_bound, euler_residue,
                                 log_embedding, regulator_from_kernel, verify)
from classgroup.errors import ZeroVolume
from classgroup.field import parse_field
from classgroup.ideals import build_factor_base, factor_prime
from classgroup.intlinalg import left_kernel
from classgroup.polynomials import (bareiss_det, degree, degree_pattern,
                                    discriminant, factor_mod_p, primes_up_to)
from classgroup.relations import CollectionConfig, collect


def test_euler_residue_qi(qi):
    # L(1, chi_-4) = pi/4 (Leibniz); truncation at 10^4 lands within 2%
    res = euler_residue(qi, 10 ** 4)
    assert abs(res - math.pi / 4) < 0.02 * math.pi / 4


def test_euler_residue_sqrt2_identity(sqrt2):
    x, y, _ = pell_fundamental_unit(2)
    reg = math.log(x + y * math.sqrt(2))
    want = (2 ** 2 * 1 * reg) / (2 * math.sqrt(8))  # h = 1, w = 2
    res = euler_residue(sqrt2, 10 ** 4)
    assert abs(res - want) < 0.05 * want


def test_euler_residue_single_term(qi):
    assert abs(euler_residue(qi, 2) - 1.0) < 1e-12  # (1-1/2)/(1-1/2)


def test_euler_residue_index_divisor(qi):
    # Q(i) presented by x^2 + 4 (index 2) has the residue of x^2 + 1
    K = parse_field([4, 0, 1], basis=[[1, 0], [0, Fraction(1, 2)]])
    assert euler_residue(K, 10 ** 3) == euler_residue(qi, 10 ** 3)
    # Dedekind's cubic: 2 = P P' P'' although T = x^3 mod 2, so the factor at
    # 2 is (1-1/2)/(1-1/2)^3 = 4
    half = Fraction(1, 2)
    D = parse_field([-8, -2, -1, 1], basis=[[1, 0, 0], [0, 1, 0], [0, half, half]])
    assert abs(euler_residue(D, 2) - 4.0) < 1e-12


def test_euler_residue_pinned():
    # recorded when the local factors came from the full factorization of
    # T mod p; the degree patterns must give the same floats
    want = {(21, 0, 1): "1.373260290302686",
            (-10, 0, 1): "1.1528646610482407",
            (-1, -1, 0, 1): "0.3686700850146775",
            (-1, -3, 0, 1): "0.37730719282238323",
            (1, 1, 1, 1, 1): "0.340486213436192",
            # recorded from the interval product, before the exact fraction
            (1, 1, 1, 1, 1, 1, 1): "0.2876984195039121",
            (25001, -1, 1): "0.38884858025523217",
            (250001, -1, 1): "0.331274111232384",
            # degree >= 5, recorded before x^(p^d) came from Berlekamp's matrix
            (1, 0, 0, 1, 0, 0, 1): "0.33437819229796156",
            (1,) * 11: "0.24120792228374285",
            (-2, 0, 0, 0, 0, 1): "0.8550465324472933",
            (1, -1, 0, 0, 0, 0, 1): "0.39166925865470387",
            (1, 0, 0, 0, 0, 0, 0, 0, 1): "0.4643571608346939"}
    for coeffs, r in want.items():
        assert repr(euler_residue(parse_field(list(coeffs)), 10 ** 4)) == r


def test_euler_residue_is_the_exact_product_rounded_once():
    # the truncated product as one Fraction, with the local norms taken from
    # the full factorization of T mod p, or from factor_prime above the
    # index divisors of Dedekind's cubic
    half = Fraction(1, 2)
    fields = [parse_field(poly_for_disc(D)) for D in IMAG_DISCS] + [
        parse_field(T) for T in ([-2, 0, 1], [-10, 0, 1], [-1, -1, 0, 1],
                                 [-1, -3, 0, 1], [1, 1, 1, 1, 1])] + [
        parse_field([-8, -2, -1, 1],
                    basis=[[1, 0, 0], [0, 1, 0], [0, half, half]])]
    for K in fields:
        want = Fraction(1)
        for p in primes_up_to(10 ** 3):
            if K.index % p == 0:
                norms = [P.norm for P in factor_prime(p, K)]
            else:
                norms = [p ** degree(g)
                         for g, _ in factor_mod_p(list(K.poly), p)]
            want *= Fraction(p - 1, p)
            for norm in norms:
                want *= Fraction(norm, norm - 1)
        assert euler_residue(K, 10 ** 3) == float(want), K.poly


def test_degree_pattern_matches_factor_mod_p():
    # the acceptance polynomials, a large discriminant, Dedekind's cubic
    # (x^2 (x + 1) mod 2), x^4 + 1 ((x + 1)^4 mod 2, a p-th power), and
    # x^5 - 2 and x^6 - x + 1 above degree 4; the primes cover p = 2, p = 3
    # and the p below 2000 that divide disc(T), where the square-free
    # decomposition runs
    polys = [poly_for_disc(D) for D in IMAG_DISCS] + [
        [-2, 0, 1], [-10, 0, 1], [-1, -1, 0, 1], [-1, -3, 0, 1],
        [1, 1, 1, 1, 1], [250001, -1, 1], [-8, -2, -1, 1], [1, 0, 0, 0, 1],
        [-2, 0, 0, 0, 0, 1], [1, -1, 0, 0, 0, 0, 1]]
    for T in polys:
        for p in primes_up_to(2000):
            want = sorted(degree(g) for g, _ in factor_mod_p(T, p))
            assert degree_pattern(T, p) == want, (T, p)



def test_residue_decomposes_only_where_p_divides_the_discriminant(
        monkeypatch):
    # disc(T) is read off the field, not recomputed, and the square-free
    # decomposition runs only at the primes dividing it; elsewhere T mod p
    # is square-free
    calls = {"disc": 0, "sqf": []}
    disc_inner, sqf_inner = poly.discriminant, poly._sqf_decomp_modp

    def counted_disc(T):
        calls["disc"] += 1
        return disc_inner(T)

    def counted_sqf(f, p):
        calls["sqf"].append(p)
        return sqf_inner(f, p)

    monkeypatch.setattr(poly, "discriminant", counted_disc)
    monkeypatch.setattr(poly, "_sqf_decomp_modp", counted_sqf)
    for T in ([1] * 7, [-2, 0, 0, 0, 0, 1], [1, -1, 0, 0, 0, 0, 1]):
        K = parse_field(T)
        calls["disc"], calls["sqf"] = 0, []
        euler_residue(K, 10 ** 3)
        disc = disc_inner(T)
        assert calls["disc"] == 0, T
        # the decomposition recurses on a p-th power
        assert sorted(set(calls["sqf"])) == [
            p for p in primes_up_to(10 ** 3) if disc % p == 0], T
        for p in primes_up_to(200):
            assert degree_pattern(T, p, disc) == degree_pattern(T, p), (T, p)


def test_degree_pattern_matches_frobenius_kernel():
    # degrees 5 to 10, at every p < 400 where T stays square-free: patterns
    # from dim ker(Q^d - I), with no gcd and no distinct-degree step
    polys = [[1] * 7, [1, 0, 0, 1, 0, 0, 1], [1] * 11, [-2, 0, 0, 0, 0, 1],
             [1, -1, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0, 0, 0, 1]]
    for T in polys:
        disc = discriminant(T)
        for p in primes_up_to(400):
            if disc % p:
                assert (degree_pattern(T, p)
                        == degree_pattern_by_frobenius_kernel(T, p)), (T, p)


def test_euler_residue_pinned_beyond_the_ladder():
    # recorded before the degree patterns came from Stickelberger's parity
    # and the Frobenius walk: seven more fields at 10^4, and three at 10^5,
    # where the walk runs hundreds of blocks
    half = Fraction(1, 2)
    dedekind = parse_field([-8, -2, -1, 1],
                           basis=[[1, 0, 0], [0, 1, 0], [0, half, half]])
    want = [((1,) * 13, 10 ** 4, "0.2130963667059703"),
            ((-2, 0, 0, 0, 1), 10 ** 4, "0.5999642561788097"),
            ((-999999, 0, 0, 1), 10 ** 4, "1.4135721402361952"),
            ((3, 0, 1), 10 ** 4, "0.9084031331558678"),
            ((-5, 0, 0, 1), 10 ** 4, "1.1643526201789762"),
            ((-12, 0, 0, 1), 10 ** 4, "1.031772138175127"),
            ((-1, -3, 0, 1), 10 ** 5, "0.3774379753192266"),
            ((1,) * 7, 10 ** 5, "0.28732936062462183"),
            ((-999999, 0, 0, 1), 10 ** 5, "1.4164584785008167")]
    for coeffs, bound, r in want:
        assert repr(euler_residue(parse_field(list(coeffs)), bound)) == r
    assert repr(euler_residue(dedekind, 10 ** 4)) == "1.9737379006249138"


# cubics (one with a huge constant term), cyclotomics up to degree 12
# (x^8 + 1, whose traces reach R_3 at p = 3, 5, 11, 13 mod 16, and
# x^6 + x^3 + 1 among them), x^5 - 2 and x^6 - x + 1 (disc(T) has the
# primes 2, 5 and 101, 431), a quadratic, and Dedekind's cubic, whose T is
# x^2 (x + 1) mod 2
_PATTERN_POLYS = [[-1, -1, 0, 1], [-1, -3, 0, 1], [-999999, 0, 0, 1],
                  [1] * 5, [1] * 7, [1] * 13, [1, 0, 0, 0, 0, 0, 0, 0, 1],
                  [1, 0, 0, 1, 0, 0, 1], [-2, 0, 0, 0, 0, 1],
                  [1, -1, 0, 0, 0, 0, 1], [250001, -1, 1], [-8, -2, -1, 1]]


def test_degree_patterns_match_factor_mod_p_and_frobenius_kernel():
    # every prime up to 3000 in one pass: parity, walk and the p | disc(T)
    # route against the full factorization, and where T stays square-free
    # against the kernel dimensions of Berlekamp's matrix
    primes = primes_up_to(3000)
    for T in _PATTERN_POLYS:
        disc = discriminant(T)
        patterns = list(poly.degree_patterns(T, primes, disc))
        assert len(patterns) == len(primes)
        for p, pattern in zip(primes, patterns):
            want = sorted(degree(g) for g, _ in factor_mod_p(T, p))
            assert pattern == want, (T, p)
            if disc % p:
                assert (pattern
                        == degree_pattern_by_frobenius_kernel(T, p)), (T, p)


def test_walked_frobenius_is_the_power_at_each_block_end(monkeypatch):
    # the walk's x^p mod (T, p) at the first and last prime of every block
    # that degree_patterns walks is the power computed on its own
    blocks = []
    walk = poly._frobenius_walk

    def recorded(T, primes):
        hs = walk(T, primes)
        blocks.append((primes, hs))
        return hs

    monkeypatch.setattr(poly, "_frobenius_walk", recorded)
    for T in _PATTERN_POLYS:
        blocks.clear()
        list(poly.degree_patterns(T, primes_up_to(3000)))
        if degree(T) == 2:
            assert blocks == [], T  # parity decides every quadratic
            continue
        assert blocks, T
        for primes, hs in blocks:
            assert len(primes) == len(hs) <= poly._WALK_BLOCK
            assert primes == sorted(primes)
            for p, h in ((primes[0], hs[0]), (primes[-1], hs[-1])):
                assert h == poly.pmod_pow([0, 1], p, T, p), (T, p)


_MERGED_UNDER_O = """
from classgroup import polynomials as poly
from classgroup.errors import VerificationFailed

assert not __debug__, "run with python -O"
T = [-1, -1, 0, 1]

def rejected(check):
    try:
        print(check())
    except VerificationFailed as e:
        print("rejected:", e)

print(sorted(poly.degree(g) for g, _ in poly.factor_mod_p(T, 5)))
# a distinct-degree factorization that reports the linear and the quadratic
# factor mod 5 as one degree-3 part keeps the degree sum, but (-23/5) = -1
# asks for an even number of factors
poly._ddf = lambda f, p, odd=None: [(f, 3)]
rejected(lambda: poly.factor_mod_p(T, 5))
# (-23/13) = 1 asks for an odd number, so one root in F_13, which leaves
# the pattern [1, 2], is rejected
poly._frobenius_traces = lambda T, primes, hs: iter([[1] * len(primes)])
rejected(lambda: poly.degree_pattern(T, 13))
"""


def test_factor_count_parity_survives_python_O():
    lines = run_under_O(_MERGED_UNDER_O)
    assert lines == ["[1, 2]", "rejected: lost factors of T mod 5",
                     "rejected: lost factors of T mod 13"], lines


_OFF_BY_ONE_UNDER_O = """
from classgroup import polynomials as poly
from classgroup.analytic import euler_residue
from classgroup.errors import VerificationFailed
from classgroup.field import parse_field

assert not __debug__, "run with python -O"
traces = poly._frobenius_traces

def off_by_one(T, primes, hs):
    # zeta7 mod 13 is three quadratics: R_2 = 6 roots in F_(13^2), read as 7
    for d, R in enumerate(traces(T, primes, hs), 1):
        yield [r + (d == 2 and p == 13) for p, r in zip(primes, R)]

K = parse_field([1] * 7)
print(poly.degree_pattern(K.poly, 13))
poly._frobenius_traces = off_by_one
try:
    euler_residue(K, 100)
except VerificationFailed as e:
    print("rejected:", e)
"""


def test_frobenius_trace_off_by_one_survives_python_O():
    # 7 roots in F_(13^2) would make c_2 = 7/2 quadratic factors
    lines = run_under_O(_OFF_BY_ONE_UNDER_O)
    assert lines == ["[2, 2, 2]", "rejected: lost factors of T mod 13"], lines


_DROP_UNDER_O = """
from fractions import Fraction

from classgroup import ideals, polynomials as poly
from classgroup.analytic import euler_residue
from classgroup.errors import VerificationFailed
from classgroup.field import parse_field

assert not __debug__, "run with python -O"
K = parse_field([-1, -1, 0, 1])
half = Fraction(1, 2)
D = parse_field([-8, -2, -1, 1], basis=[[1, 0, 0], [0, 1, 0], [0, half, half]])

def rejected(check):
    try:
        check()
    except VerificationFailed as e:
        print("rejected:", e)

ddf = poly._ddf
poly._ddf = lambda *args: ddf(*args)[:-1]
rejected(lambda: poly.degree_pattern(K.poly, 3))
rejected(lambda: poly.factor_mod_p(K.poly, 5))
rejected(lambda: euler_residue(K, 10))
poly._ddf = ddf
split = ideals._index_divisor_primes
ideals._index_divisor_primes = lambda p, field: split(p, field)[1:]
rejected(lambda: euler_residue(D, 2))
"""


def test_factor_count_check_survives_python_O():
    # a distinct-degree part or a prime ideal above an index divisor that
    # goes missing must not drop a local factor
    lines = run_under_O(_DROP_UNDER_O)
    assert lines == ["rejected: lost factors of T mod 3",
                     "rejected: lost factors of T mod 5",
                     "rejected: lost factors of T mod 2",
                     "rejected: lost prime ideals above 2"], lines



_UNSPLIT_UNDER_O = """
import random

from classgroup import polynomials as poly
from classgroup.errors import VerificationFailed

assert not __debug__, "run with python -O"
f = [1, 1, 1, 1, 1]
for p in (2, 3):
    # irreducible mod 2 and mod 3, passed off as a product of quadratics
    if poly.factor_mod_p(f, p) != [(f, 1)]:
        print("reducible mod", p)
    for d in (2, 3):
        try:
            poly._edf(f, d, p, random.Random(1))
        except VerificationFailed as e:
            print("rejected:", e)
"""


def test_equal_degree_split_gives_up_under_python_O():
    # a part that is not a product of degree-d irreducibles never splits;
    # the split must give up instead of drawing forever
    lines = run_under_O(_UNSPLIT_UNDER_O, timeout=60)
    assert lines == [
        line for p in (2, 3) for line in (
            f"rejected: degree 4 part did not split into degree-2 factors "
            f"mod {p} in 64 tries",
            f"rejected: degree 4 part is not a product of degree-3 factors "
            f"mod {p}")], lines


_NO_TORSION_UNDER_O = """
from classgroup import analytic
from classgroup.errors import VerificationFailed
from classgroup.field import parse_field

assert not __debug__, "run with python -O"
# an enumeration that misses every lattice point misses 1 and -1 too
analytic.enumerate_gram = lambda red, bound2_exact: ([], 0)
try:
    print("accepted", analytic.count_roots_of_unity(parse_field([1, 0, 1])))
except VerificationFailed as e:
    print("rejected:", e)
"""


def test_torsion_count_check_survives_python_O():
    lines = run_under_O(_NO_TORSION_UNDER_O)
    assert lines == ["rejected: found 0 roots of unity; -1 and 1 are "
                     "always there"], lines

def test_roots_of_unity(qi, sqrt2):
    assert count_roots_of_unity(qi) == 4
    assert count_roots_of_unity(sqrt2) == 2
    K3 = parse_field([1, -1, 1])  # disc -3
    assert count_roots_of_unity(K3) == 6


def test_roots_of_unity_matches_direct_search(qi, sqrt2, cubic):
    for K in (qi, sqrt2, cubic):
        assert count_roots_of_unity(K) == torsion_count_direct(K)


def test_roots_of_unity_at_a_real_place_need_no_lattice(monkeypatch):
    # a real place maps the roots of unity into {1, -1}
    def enumerate_gram(*args, **kwargs):
        raise AssertionError("enumerated a field with a real place")
    monkeypatch.setattr(analytic, "enumerate_gram", enumerate_gram)
    for coeffs in ([-2, 0, 1], [-1, -1, 0, 1], [-1, -3, 0, 1]):
        assert count_roots_of_unity(parse_field(coeffs)) == 2


def _pipeline(K, B, seed):
    fb = build_factor_base(K, B)
    cfg = CollectionConfig(bound_B=B, k=min(2, fb.size), A=2, beta=2,
                           rng_seed=seed, trial_budget=20000)
    M, _ = collect(K, fb, cfg)
    kern = left_kernel(M.dense_rows())
    return M, kern


def test_regulator_rank0(qi):
    assert regulator_from_kernel([[1]], [qi.element([2, 1])], qi) == 1.0


def test_regulator_sqrt2(sqrt2):
    M, kern = _pipeline(sqrt2, 30, 7)
    reg = regulator_from_kernel(kern, [r.generator for r in M.rows], sqrt2)
    x, y, _ = pell_fundamental_unit(2)
    oracle = math.log(x + y * math.sqrt(2))
    assert abs(reg - oracle) < 1e-6


def test_regulator_cubic(cubic):
    M, kern = _pipeline(cubic, 25, 5)
    reg = regulator_from_kernel(kern, [r.generator for r in M.rows], cubic)
    oracle = cubic_unit_search(cubic)
    assert abs(reg - oracle) < 1e-6


def test_regulator_log_cache_computes_each_generator_once(cubic,
                                                          monkeypatch):
    M, kern = _pipeline(cubic, 25, 5)
    gens = [r.generator for r in M.rows]
    want = regulator_from_kernel(kern, gens, cubic)
    calls = []
    log_embedding = analytic.log_embedding
    monkeypatch.setattr(analytic, "log_embedding",
                        lambda K, x: calls.append(x) or log_embedding(K, x))
    logs = {}
    assert regulator_from_kernel(kern, gens, cubic, logs) == want
    assert len(calls) == len(set(gens))
    # a later round over the same rows embeds nothing again
    assert regulator_from_kernel(kern, gens, cubic, logs) == want
    assert len(calls) == len(set(gens))


@pytest.mark.parametrize("coeffs,basis,elements", [
    ([-2, 0, 1], None, [[1, 1], [3, 1], [-7, 5]]),           # Q(sqrt 2)
    ([-1, -1, 0, 1], None, [[0, 1, 0], [2, 1, 0], [5, -3, 2]]),
    ([1, 1, 1, 1, 1, 1, 1], None,                             # Q(zeta7)
     [[1, 1, 0, 0, 0, 0], [2, 0, -1, 0, 3, 0], [4, -3, 2, 9, -1, 5]]),
    # the Dedekind cubic's unit eps = -13 + 13 theta - 3 theta^2, whose
    # coordinates are over the basis {1, theta, (theta + theta^2)/2}
    ([-8, -2, -1, 1], [[1, 0, 0], [0, 1, 0], [0, Fraction(1, 2),
                                               Fraction(1, 2)]],
     [[-13, 16, -6], [1, 0, 1], [-5, -2, 2]]),
])
def test_log_embedding_matches_horner_reference(coeffs, basis, elements):
    K = parse_field(coeffs, basis=basis)
    scale = 1 << (K.precision + analytic._LOG_SCALE_BITS)
    for coords in elements:
        table = log_embedding(K, K.element(coords))
        # the reference at twice the precision is far narrower than the
        # table's interval, so missing it means a lost radius
        ref = log_embedding_horner(K.doubled(), K.doubled().element(coords))
        assert len(table) == len(ref) == sum(K.signature)
        for (c, r), b in zip(table, ref):
            lo, hi = Fraction(c - r, scale), Fraction(c + r, scale)
            rlo, rhi = iv_endpoints(b)
            assert max(lo, rlo) <= min(hi, rhi)
            assert hi - lo < Fraction(1, 2 ** 100)


def test_log_embedding_needs_an_algebraic_integer(sqrt2):
    with pytest.raises(ValueError):
        log_embedding(sqrt2, sqrt2.element([Fraction(1, 2), 0]))



def _log_inputs(rng, w):
    """(a, q) pairs for the fixed-point log at working width w: a/q within
    2^-300 of 1 on both sides, a/q < 1, |bitlen(a) - bitlen(q)| beyond w,
    a = q, values near 2^600 and 2^-600, and the extremes z = -+1/3 of the
    reduced argument."""
    out = []
    for _ in range(250):
        q = rng.getrandbits(rng.randint(400, 900)) | 1 << 399
        d = rng.randint(1, q >> 300)
        out += [(q + d, q), (q - d, q)]
    for _ in range(400):
        q = rng.getrandbits(rng.randint(1, 700)) | 1
        out.append((rng.randint(1, q), q) if q > 1 else (1, 2))
    for _ in range(200):
        big = rng.getrandbits(rng.randint(w + 1, 3 * w)) | 1 << w
        small = rng.getrandbits(rng.randint(1, 40)) | 1
        out += [(big, small), (small, big)]
    for _ in range(200):
        q = rng.getrandbits(rng.randint(1, 700)) | 1
        out.append((q, q))
    for _ in range(200):
        t = rng.randint(-2 ** 40, 2 ** 40)
        q = rng.getrandbits(rng.randint(1, 100)) | 1
        out += [((1 << 600) + t, 1), (1, (1 << 600) + t),
                (((1 << 600) + t) * q, q), (q, ((1 << 600) + t) * q)]
    for la in range(1, 40):
        for lq in (1, 2, 7, 64, w, w + 1):
            out += [(1 << (la - 1), (1 << lq) - 1), ((1 << la) - 1,
                                                      1 << (lq - 1))]
    return out


@pytest.mark.parametrize("bits", [192, 320])
def test_fixed_point_log_encloses_mpmath(bits):
    # the reference is mpmath's log at 4x the working width, whose own
    # error is far below one unit at 2^-bits
    import mpmath

    w = bits + analytic._LOG_GUARD_BITS
    pairs = _log_inputs(random.Random(bits), w)
    assert len(pairs) >= 2000
    with mpmath.workprec(4 * w):
        scale = mpmath.ldexp(1, bits)
        for a, q in pairs:
            v, err = analytic._ln_fixed(a, q, bits)
            ref = (mpmath.log(a) - mpmath.log(q)) * scale
            assert abs(ref - v) <= err, (a, q)
            e = a.bit_length() - q.bit_length()
            assert err <= 2 + abs(e) // 128, (a, q, err)
            if a == q:
                assert v == 0

def test_det_error_bound_encloses_perturbed_determinants():
    rng = random.Random(41)
    for r in range(1, 11):
        for _ in range(6):
            C = [[rng.randint(-2 ** 60, 2 ** 60) for _ in range(r)]
                 for _ in range(r)]
            R = [[rng.randint(0, 2 ** 20) for _ in range(r)]
                 for _ in range(r)]
            err = det_error_bound(C, R)
            det = bareiss_det(C)
            for corner in (True, False):
                E = [[rng.choice((-x, x)) if corner else rng.randint(-x, x)
                      for x in row] for row in R]
                perturbed = [[c + e for c, e in zip(rc, re)]
                             for rc, re in zip(C, E)]
                assert abs(bareiss_det(perturbed) - det) <= err
    # exact centres have no error
    assert det_error_bound([[3, 1], [1, 2]], [[0, 0], [0, 0]]) == 0


def test_regulator_multiple_property(sqrt2):
    # a kernel generating only the square of the fundamental unit yields an
    # integer multiple of the regulator
    u = sqrt2.one() + sqrt2.theta()  # 1 + sqrt2
    u2 = u * u
    reg = regulator_from_kernel([[1]], [u2], sqrt2)
    x, y, _ = pell_fundamental_unit(2)
    oracle = math.log(x + y * math.sqrt(2))
    ratio = reg / oracle
    assert abs(ratio - round(ratio)) < 1e-6 and round(ratio) == 2


def test_regulator_zero_volume(sqrt2):
    with pytest.raises(ZeroVolume):
        regulator_from_kernel([], [], sqrt2)
    one = sqrt2.one()
    with pytest.raises(ZeroVolume):
        # torsion-only kernel spans nothing
        regulator_from_kernel([[2]], [-one], sqrt2)


def test_verify_examples(qi):
    an = compute_analytic(qi, 10 ** 4)
    ratio, verdict = verify(1, 1.0, an, qi)
    assert verdict == "ACCEPT" and 0.8 < ratio < 1.25
    ratio, verdict = verify(2, 1.0, an, qi)
    assert verdict == "REJECT" and ratio > 2 ** 0.5
    ratio, verdict = verify(1, 2.0, an, qi)
    assert verdict == "REJECT"


def test_verify_two_sided(q5):
    an = compute_analytic(q5, 10 ** 4)
    ratio, verdict = verify(2, 1.0, an, q5)  # true h = 2
    assert verdict == "ACCEPT"
    ratio4, verdict4 = verify(4, 1.0, an, q5)  # under-collected double
    assert verdict4 == "REJECT" and ratio4 > 2 ** 0.5
    ratio1, verdict1 = verify(1, 1.0, an, q5)  # impossible half
    assert verdict1 == "REJECT" and ratio1 < 2 ** -0.5

import logging
import random
from fractions import Fraction

import pytest

from classgroup import ideals
from classgroup.errors import (BasisNotMaximal, EmptyFactorBase,
                               VerificationFailed)
from classgroup.field import canonical_embedding, iv_endpoints, parse_field
from classgroup.ideals import (Ideal, _index_divisor_primes, bach_bound,
                               build_factor_base, factor_prime,
                               ideal_divide_prime, ideal_from_element,
                               ideal_from_power_product, ideal_lattice,
                               ideal_mul, ideal_pow, is_smooth_ideal,
                               unit_ideal, valuation)
from classgroup.polynomials import bareiss_det, primes_up_to
from under_O import run_under_O
from oracles import (column_hnf_naive, divide_prime_by_inverse,
                     ideal_product_fractions, in_column_hnf,
                     principal_ideal_fractions, valuation_by_containment)


def test_factor_prime_examples(qi):
    ps = factor_prime(5, qi)
    assert len(ps) == 2
    assert all((P.ram_e, P.res_f, P.norm) == (1, 1, 5) for P in ps)
    ps = factor_prime(3, qi)
    assert len(ps) == 1 and (ps[0].ram_e, ps[0].res_f, ps[0].norm) == (1, 2, 9)
    ps = factor_prime(2, qi)
    assert len(ps) == 1 and (ps[0].ram_e, ps[0].res_f, ps[0].norm) == (2, 1, 2)


def test_index_divisor_rejected():
    # Q(i) as x^2 + 4 with basis {1, theta/2}: 2 divides the index, and its
    # split comes from O_K/2O_K instead of T mod 2
    K = parse_field([4, 0, 1], basis=[[1, 0], [0, Fraction(1, 2)]])  # index 2
    ps = factor_prime(2, K)
    assert len(ps) == 1 and (ps[0].ram_e, ps[0].res_f, ps[0].norm) == (2, 1, 2)
    two = ideal_from_element(K.element([2, 0]))
    assert ideal_pow(ps[0].as_ideal(), 2, K).hnf_basis == two.hnf_basis
    assert [P.norm for P in build_factor_base(K, 10).primes] == [2, 5, 5, 9]


def dedekind_cubic():
    # x^3 - x^2 - 2x - 8 with basis {1, theta, (theta + theta^2)/2}: disc -503,
    # index 2, and 2 splits completely in O_K although T mod 2 = x^3 has
    # one root, so 2 divides [O_K : Z[theta]] for every theta
    half = Fraction(1, 2)
    return parse_field([-8, -2, -1, 1], basis=[[1, 0, 0], [0, 1, 0], [0, half, half]])


def test_common_index_divisor_split():
    K = dedekind_cubic()
    assert (K.discriminant, K.index, K.signature) == (-503, 2, (1, 1))
    ps = factor_prime(2, K)
    assert [(P.ram_e, P.res_f, P.norm) for P in ps] == [(1, 1, 2)] * 3
    assert len({P.gen_poly for P in ps}) == 3
    prod = unit_ideal(K)
    for P in ps:
        prod = ideal_mul(prod, P.as_ideal(), K)
    assert prod == ideal_from_element(K.element([2, 0, 0]))
    # (1, 0, 1) has norm 2, so it generates one of the three primes
    x = K.element([1, 0, 1])
    assert abs(x.norm()) == 2
    assert [valuation(x, P) for P in ps].count(1) == 1
    # 3 and 7 are inert, 5 = P5 * P25
    assert [P.norm for P in build_factor_base(K, 10).primes] == [2, 2, 2, 5]


def test_index_divisor_nonmaximal_basis():
    # {1, theta/2} for x^2 + 16 spans Z[2i], whose prime above 2 is not
    # invertible
    K = parse_field([16, 0, 1], basis=[[1, 0], [0, Fraction(1, 2)]])
    with pytest.raises(BasisNotMaximal) as ei:
        factor_prime(2, K)
    assert ei.value.p == 2


@pytest.mark.parametrize("coeffs", [[1, 0, 1], [5, 0, 1], [-1, -1, 0, 1],
                                    [3, 0, 0, 1], [-2, 0, 0, 0, 1],
                                    [1, 1, 1, 1, 1]])
def test_index_divisor_route_matches_dedekind_kummer(coeffs):
    # on Z[theta] = O_K both routes must find the same primes, ramification,
    # residue degrees and inverse complements
    K = parse_field(coeffs)
    for p in (2, 3, 5, 7, 11, 31):
        def key(P):
            return P.hnf_basis, P.ram_e, P.res_f, P.inv_basis
        want = sorted(map(key, factor_prime(p, K)))
        assert sorted(map(key, _index_divisor_primes(p, K))) == want


def test_factor_base_examples(qi, q5):
    fb = build_factor_base(qi, 10)
    assert [P.norm for P in fb.primes] == [2, 5, 5, 9]
    assert fb.size == 4
    fb5 = build_factor_base(q5, 2)
    assert fb5.size == 1 and fb5.primes[0].ram_e == 2
    with pytest.raises(EmptyFactorBase):
        build_factor_base(q5, 1)
    assert fb.bach_bound == bach_bound(qi)
    assert fb.bach_prefix == sum(1 for P in fb.primes if P.norm <= fb.bach_bound)


@pytest.mark.parametrize("coeffs,basis,B", [
    ([1, 1, 1, 1, 1, 1, 1], None, 200),           # Q(zeta7)
    ([-1, 3, 6, -4, -5, 1, 1], None, 200),        # Q(zeta13)+, degree 6
    ([-8, -2, -1, 1], "dedekind", 200),           # index divisor 2
    ([250001, -1, 1], None, 638),                 # D = -1000003
])
def test_factor_base_builds_only_the_primes_it_keeps(coeffs, basis, B,
                                                    monkeypatch):
    K = dedekind_cubic() if basis == "dedekind" else parse_field(coeffs)
    want = sorted((P for p in primes_up_to(B) for P in factor_prime(p, K)
                   if P.norm <= B), key=lambda P: (P.norm, P.p, P.gen_poly))
    built = []
    prime_from_gen = ideals._prime_from_gen
    monkeypatch.setattr(ideals, "_prime_from_gen",
                        lambda p, g, e, f, field: built.append(p ** f)
                        or prime_from_gen(p, g, e, f, field))
    got = build_factor_base(K, B).primes

    def key(P):
        return (P.p, P.gen_poly, P.ram_e, P.res_f, P.hnf_basis, P.inv_basis,
                P.tau, P.tau_mult)

    assert [key(P) for P in got] == [key(P) for P in want]
    assert built and max(built) <= B


def test_factor_base_logs_no_warning(caplog):
    # Q(sqrt(-19)) and Q(sqrt(-6)) at B = 12 have 8 primes each, well off
    # B/log B = 4.8; a size alone says nothing about whether a base is valid
    for coeffs in ([5, -1, 1], [6, 0, 1]):
        with caplog.at_level(logging.DEBUG):
            fb = build_factor_base(parse_field(coeffs), 12)
        assert fb.size == 8
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def test_prime_norm_is_p_to_f():
    for coeffs in ([1, 0, 1], [5, 0, 1], [6, -1, 1], [-1, -1, 0, 1], [-2, 0, 1]):
        K = parse_field(coeffs)
        for p in (2, 3, 5, 7, 11, 13):
            for P in factor_prime(p, K):
                assert P.norm == p ** P.res_f
                h = 1
                for j in range(K.degree):
                    h *= P.hnf_basis[j][j]
                assert h == P.norm


def test_power_product_examples(qi, q5):
    fb = build_factor_base(qi, 10)
    i2 = next(i for i, P in enumerate(fb.primes) if P.norm == 2)
    i5 = next(i for i, P in enumerate(fb.primes) if P.norm == 5)
    a = ideal_from_power_product(fb, [i2, i5], [2, 1], qi)
    assert a.norm == 20
    assert ideal_from_power_product(fb, [], [], qi).norm == 1
    fb5 = build_factor_base(q5, 2)
    sq = ideal_pow(fb5.primes[0].as_ideal(), 2, q5)
    assert sq == ideal_from_element(q5.element([2, 0]))


def test_power_product_is_a_fold(q23, cubic, monkeypatch):
    # sum(e) - 1 products, each by a prime: no unit-ideal start and no
    # squaring that is thrown away
    calls = []
    mul = ideals.ideal_mul
    monkeypatch.setattr(ideals, "ideal_mul",
                        lambda a, b, K: (calls.append(1), mul(a, b, K))[1])
    rng = random.Random(8)
    for K, B in ((q23, 30), (cubic, 30)):
        fb = build_factor_base(K, B)
        for _ in range(12):
            k = rng.randint(1, min(3, fb.size))
            idxs = sorted(rng.sample(range(fb.size), k))
            exps = [rng.randint(1, 3) for _ in idxs]
            calls.clear()
            a = ideal_from_power_product(fb, idxs, exps, K)
            assert len(calls) == sum(exps) - 1, (idxs, exps)
            want = None
            for i, e in zip(idxs, exps):
                for _ in range(e):
                    cols = fb.primes[i].hnf_basis
                    want = cols if want is None else \
                        ideal_product_fractions(K, want, cols)
            assert a.hnf_basis == want, (idxs, exps)


def test_ideal_pow_small_exponents(q23, monkeypatch):
    P = build_factor_base(q23, 10).primes[0].as_ideal()
    calls = []
    mul = ideals.ideal_mul
    monkeypatch.setattr(ideals, "ideal_mul",
                        lambda a, b, K: (calls.append(1), mul(a, b, K))[1])
    assert ideal_pow(P, 0, q23) == unit_ideal(q23)
    assert ideal_pow(P, 1, q23) is P
    assert calls == []
    assert ideal_pow(P, 3, q23).norm == P.norm ** 3
    assert len(calls) == 2


def test_norm_multiplicativity_on_ideals(q23, sqrt2):
    rng = random.Random(4)
    for K in (q23, sqrt2):
        done = 0
        while done < 200:
            x = K.element([rng.randint(-9, 9), rng.randint(-9, 9)])
            y = K.element([rng.randint(-9, 9), rng.randint(-9, 9)])
            if x.is_zero or y.is_zero:
                continue
            a, b = ideal_from_element(x), ideal_from_element(y)
            assert ideal_mul(a, b, K).norm == a.norm * b.norm
            done += 1


def test_valuation_examples(qi):
    fb = build_factor_base(qi, 10)
    p2 = next(P for P in fb.primes if P.norm == 2)
    six = ideal_from_element(qi.element([6, 0]))
    assert valuation(six, p2, qi) == 2
    assert valuation(unit_ideal(qi), p2, qi) == 0
    p5s = [P for P in fb.primes if P.norm == 5]
    x = qi.element([2, 1])
    vals = sorted(valuation(x, P) for P in p5s)
    assert vals == [0, 1]


def test_smoothness_examples(qi):
    fb = build_factor_base(qi, 5)
    ten = ideal_from_element(qi.element([10, 0]))
    exps = is_smooth_ideal(ten, fb, qi)
    assert exps is not None and sorted(exps.values()) == [1, 1, 2]
    # round trip: power product over the result reproduces the HNF exactly
    recon = ideal_from_power_product(fb, list(exps), list(exps.values()), qi)
    assert recon.hnf_basis == ten.hnf_basis
    six = ideal_from_element(qi.element([6, 0]))
    assert is_smooth_ideal(six, fb, qi) is None  # 3 inert, norm 9 > 5
    assert is_smooth_ideal(unit_ideal(qi), fb, qi) == {}


def lattice_det_sq(ideal, K):
    L = ideal_lattice(ideal, K)
    return Fraction(bareiss_det(L.gram()), 1 << (2 * K.degree * L.scale_bits))


def test_ideal_lattice_examples(qi, sqrt2):
    # det sigma(O_K) = sqrt|disc|: squared values 4 and 8
    assert abs(float(lattice_det_sq(unit_ideal(qi), qi) - 4)) < 1e-30
    got = lattice_det_sq(ideal_from_element(qi.element([2, 1])), qi)
    assert abs(float(got - 100)) < 1e-28
    got = lattice_det_sq(ideal_from_element(sqrt2.element([3, 0])), sqrt2)
    assert abs(float(got - 8 * 81)) < 1e-26


@pytest.mark.parametrize("coeffs,disc", [([5, 0, 1], 20), ([6, -1, 1], 23),
                                         ([-1, -1, 0, 1], 23)])
def test_lemma_determinant_on_power_products(coeffs, disc):
    K = parse_field(coeffs)
    fb = build_factor_base(K, 30)
    rng = random.Random(13)
    tol = Fraction(1, 1 << (K.precision // 2))
    n_samples = 100 if K.degree == 2 else 25
    for _ in range(n_samples):
        k = rng.randint(1, min(2, fb.size))
        idxs = rng.sample(range(fb.size), k)
        exps = [rng.randint(1, 2) for _ in idxs]
        a = ideal_from_power_product(fb, idxs, exps, K)
        got = lattice_det_sq(a, K)
        want = disc * a.norm ** 2
        assert abs(got - want) <= tol * want


def test_smooth_roundtrip_random(q23):
    fb = build_factor_base(q23, 25)
    rng = random.Random(3)
    hits = 0
    for _ in range(60):
        x = q23.element([rng.randint(-20, 20), rng.randint(-20, 20)])
        if x.is_zero:
            continue
        a = ideal_from_element(x)
        exps = is_smooth_ideal(a, fb, q23)
        if exps is None:
            continue
        hits += 1
        recon = ideal_from_power_product(fb, list(exps), list(exps.values()), q23)
        assert recon.hnf_basis == a.hnf_basis
    assert hits > 5


def test_factor_base_dump(qi, tmp_path):
    import json
    fb = build_factor_base(qi, 10)
    p = tmp_path / "fb.jsonl"
    with open(p, "w") as f:
        fb.dump_jsonl(f)
    lines = [json.loads(l) for l in p.read_text().splitlines()]
    assert len(lines) == 4
    assert lines[0] == {"p": 2, "f": 1, "e": 2, "norm": 2, "gen_poly": [1, 1]}


# Fields for the oracle tests, with the kinds of primes found above 2..13
# and the primes dividing the discriminant: x^4+1 has e = 4 at 2 and no
# inert prime, zeta_5 has f = 4 at 2 and e = 4 at 5, and in Dedekind's cubic
# 2 is a common index divisor whose primes come from O_K/2O_K.
ALL_KINDS = {"split", "inert", "ramified"}
ORACLE_FIELDS = {
    "Q(i)": (lambda: parse_field([1, 0, 1]), ALL_KINDS),
    "Q(sqrt-23)": (lambda: parse_field([6, -1, 1]), ALL_KINDS),
    "x^4+1": (lambda: parse_field([1, 0, 0, 0, 1]), {"split", "ramified"}),
    "zeta5": (lambda: parse_field([1, 1, 1, 1, 1]), ALL_KINDS),
    "Dedekind cubic": (dedekind_cubic, ALL_KINDS),
}


def _oracle_primes(K):
    ps = [2, 3, 5, 7, 11, 13]
    ps += [q for q in range(17, abs(K.discriminant) + 1)
           if K.discriminant % q == 0 and all(q % r for r in range(2, q))]
    return [P for p in ps for P in factor_prime(p, K)]


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
def test_anti_uniformizer_spans_inverse_complement(name):
    # pO + tau*O = p*P^(-1) as an HNF, with tau in p*P^(-1) outside pO
    make, want_kinds = ORACLE_FIELDS[name]
    K = make()
    n = K.degree
    kinds = set()
    for P in _oracle_primes(K):
        kinds.add("ramified" if P.ram_e > 1 else
                  "inert" if P.res_f == n else "split")
        assert any(v % P.p for v in P.tau)
        assert in_column_hnf(P.inv_basis, P.tau)
        cols = [[P.p * (i == j) for i in range(n)] for j in range(n)]
        cols += [list(c) for c in principal_ideal_fractions(K.element(P.tau))]
        assert column_hnf_naive(cols) == P.inv_basis, P
    assert kinds == want_kinds


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
def test_valuation_and_division_match_oracle(name):
    K = ORACLE_FIELDS[name][0]()
    n = K.degree
    primes = _oracle_primes(K)
    fb = build_factor_base(K, 30)
    rng = random.Random(7)
    positive = 0
    for _ in range(30 if n <= 2 else 12):
        k = rng.randint(1, min(2, fb.size))
        idxs = sorted(rng.sample(range(fb.size), k))
        exps = [rng.randint(1, 2) for _ in idxs]
        a = ideal_from_power_product(fb, idxs, exps, K)
        P = primes[rng.randrange(len(primes))]
        b = ideal_mul(a, P.as_ideal(), K)
        assert b.hnf_basis == ideal_product_fractions(K, a.hnf_basis,
                                                      P.hnf_basis)
        for ideal in (a, b):
            for Q in primes:
                v = valuation(ideal, Q, K)
                assert v == valuation_by_containment(K, ideal.hnf_basis, Q)
                want = divide_prime_by_inverse(K, ideal.hnf_basis, Q)
                if v:
                    positive += 1
                    assert ideal_divide_prime(ideal, Q, K).hnf_basis == want
                else:
                    assert want is None
                    with pytest.raises(VerificationFailed):
                        ideal_divide_prime(ideal, Q, K)
    for _ in range(30 if n <= 2 else 12):
        x = K.element([rng.randint(-12, 12) for _ in range(n)])
        if x.is_zero:
            continue
        hnf = principal_ideal_fractions(x)
        assert ideal_from_element(x).hnf_basis == hnf
        for Q in primes:
            v = valuation(x, Q)
            positive += v > 0
            assert v == valuation_by_containment(K, hnf, Q)
    assert positive >= 10


_CORRUPT_UNDER_O = """
from dataclasses import replace

from classgroup import ideals
from classgroup.errors import VerificationFailed
from classgroup.field import parse_field

def rejected(check):
    try:
        check()
    except VerificationFailed as e:
        print("rejected:", e)

K = parse_field([1, 0, 1])
P2 = ideals.factor_prime(2, K)[0]
two = K.element([2, 0])

ideal_product = ideals._ideal_product
ideals._ideal_product = lambda a, b, field: a
rejected(lambda: ideals.ideal_mul(P2.as_ideal(), P2.as_ideal(), K))
ideals._ideal_product = ideal_product

column_hnf = ideals.column_hnf
ideals.column_hnf = lambda cols, n: [[int(i == j) for i in range(n)]
                                     for j in range(n)]
rejected(lambda: ideals.ideal_from_element(two))
ideals.column_hnf = column_hnf

rejected(lambda: ideals.ideal_divide_prime(ideals.unit_ideal(K), P2, K))
# tau = p: every ideal passes the divisibility test, and the quotient's norm
# gives the wrong anti-uniformizer away
fake = replace(P2, tau_mult=((2, 0), (0, 2)))
rejected(lambda: ideals.ideal_divide_prime(ideals.ideal_from_element(two),
                                           fake, K))
"""


def test_ideal_checks_survive_python_O():
    lines = run_under_O(_CORRUPT_UNDER_O)
    assert lines == [
        "rejected: ideal norms do not multiply",
        "rejected: HNF determinant of <x> differs from |N(x)|",
        "rejected: PrimeIdeal(p=2, e=2, f=1) does not divide the ideal",
        "rejected: quotient by PrimeIdeal(p=2, e=2, f=1) has norm 4, "
        "expected 2"], lines


_INDEX_SPLIT_UNDER_O = """
from fractions import Fraction

from classgroup import ideals
from classgroup.errors import VerificationFailed
from classgroup.field import parse_field

assert not __debug__, "run with python -O"
# Q(i) as x^2 + 4 with basis {1, theta/2}: 2 divides the index; a valuation
# that overcounts by one gives the prime above 2 the wrong ram_e
K = parse_field([4, 0, 1], basis=[[1, 0], [0, Fraction(1, 2)]])
valuation = ideals.valuation
ideals.valuation = lambda target, P, field=None: valuation(target, P, field) + 1
try:
    ideals._index_divisor_primes(2, K)
except VerificationFailed as e:
    print("rejected:", e)
"""


def test_index_divisor_product_check_survives_python_O():
    lines = run_under_O(_INDEX_SPLIT_UNDER_O)
    assert lines == ["rejected: product of the primes above 2 is not 2O_K"], \
        lines



_PRIME_NORMS_UNDER_O = """
from dataclasses import replace
from fractions import Fraction

from classgroup import ideals
from classgroup.errors import VerificationFailed
from classgroup.field import parse_field

assert not __debug__, "run with python -O"

def rejected(check):
    try:
        check()
    except VerificationFailed as e:
        print("rejected:", e)
    else:
        print("accepted")

K = parse_field([1, 0, 1])
# Q(i) as x^2 + 4 with basis {1, theta/2}: 2 divides the index
J = parse_field([4, 0, 1], basis=[[1, 0], [0, Fraction(1, 2)]])

hnf_ideal = ideals._hnf_ideal
ideals._hnf_ideal = lambda cols, field: replace(hnf_ideal(cols, field), norm=1)
rejected(lambda: ideals.factor_prime(2, K))
rejected(lambda: ideals._index_divisor_primes(2, J))
ideals._hnf_ideal = hnf_ideal

# an empty kernel leaves p * P^(-1) = pO
modp_kernel = ideals._modp_kernel
ideals._modp_kernel = lambda mat, p: []
rejected(lambda: ideals.factor_prime(2, K))
ideals._modp_kernel = modp_kernel

# above an index divisor P * (p P^(-1)) = pO is checked first, so it is
# stubbed to hold while every x in O_K passes the kernel test
pO = ideals.Ideal(((2, 0), (0, 2)), 4)
ideal_product = ideals._ideal_product
mult_rows = ideals._mult_rows_modp
ideals._ideal_product = lambda a, b, field: pO
ideals._mult_rows_modp = lambda x, table, p: [[0, 0]]
rejected(lambda: ideals._index_divisor_primes(2, J))
ideals._ideal_product = ideal_product
ideals._mult_rows_modp = mult_rows
"""


def test_prime_norm_checks_survive_python_O():
    lines = run_under_O(_PRIME_NORMS_UNDER_O)
    assert lines == [
        "rejected: prime ideal above 2 has determinant 1, expected 2",
        "rejected: prime ideal above 2 has determinant 1, expected 2",
        "rejected: inverse complement above 2 has determinant 4, expected 2",
        "rejected: inverse complement above 2 has determinant 1, "
        "expected 2"], lines

# -- ideal lattices from the embedding table ---------------------------------

def _midpoint_lattice(ideal, K):
    """Reference columns: each HNF generator embedded on its own with
    canonical_embedding and rounded at its interval midpoint."""
    s = K.precision
    cols = []
    for g in ideal.hnf_basis:
        col = []
        for v in canonical_embedding(K.element(list(g))):
            lo, hi = iv_endpoints(v)
            assert (hi - lo) * (1 << s) < Fraction(1, 4)
            mid = (lo + hi) / 2 * (1 << s) + Fraction(1, 2)
            col.append(mid.numerator // mid.denominator)
        cols.append(col)
    return cols


@pytest.mark.parametrize("coeffs,basis,B", [
    ([1, 0, 1], None, 60),                        # Q(i)
    ([-2, 0, 1], None, 60),                       # Q(sqrt 2)
    ([-1, -1, 0, 1], None, 40),                   # cubic, disc -23
    ([1, 1, 1, 1, 1], None, 40),                  # Q(zeta5)
    ([1, 1, 1, 1, 1, 1, 1], None, 30),            # Q(zeta7)
    ([4, 0, 1], [[1, 0], [0, Fraction(1, 2)]], 60),  # basis {1, theta/2}
])
def test_ideal_lattice_matches_midpoint_reference(coeffs, basis, B):
    K = parse_field(coeffs, basis=basis)
    # the table and the doubled field's both enclose each sigma_j(omega_i)
    centres, radii, guard = K.embedding_table()
    centres2, radii2, guard2 = K.doubled().embedding_table()
    shift = K.precision + guard2 - guard
    for cj, rj, cj2, rj2 in zip(centres, radii, centres2, radii2):
        for c, r, c2, r2 in zip(cj, rj, cj2, rj2):
            assert (c - r) << shift <= c2 + r2 and c2 - r2 <= (c + r) << shift
    fb = build_factor_base(K, B)
    ideals_ = [unit_ideal(K)] + [P.as_ideal() for P in fb.primes]
    rng = random.Random(29)
    for _ in range(40 if K.degree <= 3 else 12):
        k = rng.randint(1, min(3, fb.size))
        idxs = rng.sample(range(fb.size), k)
        exps = [rng.randint(1, 3) for _ in idxs]
        ideals_.append(ideal_from_power_product(fb, idxs, exps, K))
    for a in ideals_:
        L = ideal_lattice(a, K)
        assert L.scale_bits == K.precision
        assert L.columns == _midpoint_lattice(a, K), a


_ESCALATION_UNDER_O = """
from classgroup import relations
from classgroup.errors import PrecisionExhausted
from classgroup.field import NumberField, parse_field
from classgroup.ideals import build_factor_base, ideal_lattice

assert not __debug__, "run with python -O"
K = parse_field([1, 0, 1])
a = build_factor_base(K, 13).primes[-1].as_ideal()


def widen(field):
    # one radius as wide as the guard: no coordinate over omega_0 rounds
    centres, radii, guard = field.embedding_table()
    radii[0][0] = 1 << guard


widen(K)
try:
    ideal_lattice(a, K)
except PrecisionExhausted as e:
    print("ambiguous:", e)
built = []
with_precision = NumberField.with_precision
NumberField.with_precision = lambda f, s: built.append(s) or with_precision(f, s)
red = relations._reduce_ideal(a, 2, K)
want = relations.bkz(ideal_lattice(a, parse_field([1, 0, 1], precision=256)), 2)[0]
print("recovered:", red.scale_bits, red.columns == want.columns)
relations._reduce_ideal(a, 2, K)
print("doubled fields built:", built)
widen(K.doubled())
try:
    relations._reduce_ideal(a, 2, K)
except PrecisionExhausted as e:
    print("gave up:", e)
"""


def test_ambiguous_rounding_escalates_once_under_python_O():
    assert run_under_O(_ESCALATION_UNDER_O) == [
        "ambiguous: embedding rounding ambiguous at the lattice scale",
        "recovered: 256 True",
        "doubled fields built: [256]",
        "gave up: ideal lattice still ambiguous at 256 bits"]


_POWER_EXPONENT_UNDER_O = """
from classgroup.field import parse_field
from classgroup.ideals import build_factor_base, ideal_from_power_product

assert not __debug__, "run with python -O"
K = parse_field([1, 0, 1])
fb = build_factor_base(K, 10)
for exps in ([0], [2, -1]):
    try:
        ideal_from_power_product(fb, list(range(len(exps))), exps, K)
    except ValueError as e:
        print("rejected:", e)
"""


def test_power_product_exponent_check_survives_python_O(qi):
    fb = build_factor_base(qi, 10)
    with pytest.raises(ValueError, match="at least 1"):
        ideal_from_power_product(fb, [0], [0], qi)
    assert run_under_O(_POWER_EXPONENT_UNDER_O) == [
        "rejected: power-product exponents [0] must all be at least 1",
        "rejected: power-product exponents [2, -1] must all be at least 1"]


def test_primes_above_matches_a_scan_of_the_base(q23, cubic):
    for K, B in ((q23, 60), (cubic, 60), (dedekind_cubic(), 40)):
        fb = build_factor_base(K, B)
        for p in range(B + 2):
            assert list(fb.primes_above(p)) == [P for P in fb.primes
                                                if P.p == p], (K.poly, p)

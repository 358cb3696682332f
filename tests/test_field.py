import math
import random
from fractions import Fraction

import mpmath
import pytest

from classgroup.errors import (BasisNotClosed, BasisNotUnimodularScaling,
                               NonMonic, PrecisionExhausted, Reducible)
from classgroup.field import (canonical_embedding, iv_endpoints, norm_of,
                              parse_field)


def mid(iv):
    lo, hi = iv_endpoints(iv)
    return float((lo + hi) / 2)


def test_parse_examples(qi, sqrt2, cubic):
    assert (qi.degree, qi.signature, qi.discriminant) == (2, (0, 1), -4)
    assert (sqrt2.degree, sqrt2.signature, sqrt2.discriminant) == (2, (2, 0), 8)
    assert (cubic.degree, cubic.signature, cubic.discriminant) == (3, (1, 1), -23)


def test_parse_errors():
    with pytest.raises(NonMonic):
        parse_field([1, 0, 2])
    with pytest.raises(Reducible):
        parse_field([-1, 0, 1])   # x^2 - 1
    with pytest.raises(Reducible):
        parse_field([-1, 0, 0, 1])  # x^3 - 1: rational root
    with pytest.raises(Reducible):
        parse_field([1, 0, 2, 0, 1])  # (x^2+1)^2: repeated roots
    with pytest.raises(Reducible):
        parse_field([1, 2, 3, 2, 1])  # quadratic factor x^2+x+1
    with pytest.raises(BasisNotUnimodularScaling):
        parse_field([1, 0, 1], basis=[[1, 0], [0, 3]])
    with pytest.raises(BasisNotUnimodularScaling):
        parse_field([1, 0, 1], basis=[[1, 0], [1, 0]])


def test_nonmaximal_basis_input():
    # Q(i) presented by x^2+4 with basis {1, theta/2}
    K = parse_field([4, 0, 1], basis=[[1, 0], [0, Fraction(1, 2)]])
    assert K.discriminant == -4
    assert K.index == 2
    i = K.element([0, 1])
    assert norm_of(i) == 1
    assert (i * i).coords == K.element([-1, 0]).coords


def test_basis_not_closed_under_multiplication():
    # x^2+5 with {1, (1+theta)/2}: the index and disc -5 look consistent, but
    # ((1+theta)/2)^2 = -3/2 + (1+theta)/2, so the span is not an order
    with pytest.raises(BasisNotClosed):
        parse_field([5, 0, 1], basis=[[1, 0], [Fraction(1, 2), Fraction(1, 2)]])
    # orders given by an explicit basis still parse
    half = [[1, 0], [0, Fraction(1, 2)]]
    assert parse_field([4, 0, 1], basis=half).discriminant == -4
    assert parse_field([16, 0, 1], basis=half).discriminant == -16
    dedekind = parse_field([-8, -2, -1, 1], basis=[
        [1, 0, 0], [0, 1, 0], [0, Fraction(1, 2), Fraction(1, 2)]])
    assert dedekind.discriminant == -503


def test_embedding_examples(qi, sqrt2):
    one = qi.element([1, 0])
    emb = canonical_embedding(one)
    assert abs(mid(emb[0]) - math.sqrt(2)) < 1e-30
    assert abs(mid(emb[1])) < 1e-30
    norm = math.sqrt(sum(mid(v) ** 2 for v in emb))
    assert abs(norm - math.sqrt(2)) < 1e-12

    x = qi.element([2, 1])
    emb = canonical_embedding(x)
    assert abs(mid(emb[0]) - 2 * math.sqrt(2)) < 1e-25
    assert abs(mid(emb[1]) - math.sqrt(2)) < 1e-25
    assert abs(math.sqrt(sum(mid(v) ** 2 for v in emb)) - math.sqrt(10)) < 1e-12

    s = sqrt2.theta()
    emb = canonical_embedding(s)
    assert abs(mid(emb[0]) - 1.41421356237) < 1e-9
    assert abs(mid(emb[1]) + 1.41421356237) < 1e-9


def test_norm_examples(qi, sqrt2):
    assert norm_of(qi.one()) == 1
    assert norm_of(qi.element([2, 1])) == 5
    assert norm_of(sqrt2.one() + sqrt2.theta()) == -1


@pytest.mark.parametrize("coeffs", [[1, 0, 1], [-2, 0, 1], [-1, -1, 0, 1]])
def test_norm_multiplicative_and_interval_containment(coeffs):
    K = parse_field(coeffs)
    rng = random.Random(coeffs[0])
    n = K.degree
    for _ in range(100):
        a = K.element([rng.randint(-9, 9) for _ in range(n)])
        b = K.element([rng.randint(-9, 9) for _ in range(n)])
        if a.is_zero or b.is_zero:
            continue
        assert norm_of(a * b) == norm_of(a) * norm_of(b)
        # interval product of conjugates contains the exact resultant value
        reals, cplx = K.embedding_data(a)
        prod = K.iv.mpf(1)
        for v in reals:
            prod *= v
        for re, im in cplx:
            prod *= re * re + im * im
        lo, hi = iv_endpoints(prod)
        exact = norm_of(a)
        assert lo <= exact <= hi


def test_embedding_additivity(cubic):
    rng = random.Random(9)
    for _ in range(20):
        a = cubic.element([rng.randint(-9, 9) for _ in range(3)])
        b = cubic.element([rng.randint(-9, 9) for _ in range(3)])
        ea, eb, eab = (canonical_embedding(a), canonical_embedding(b),
                       canonical_embedding(a + b))
        for u, v, w in zip(ea, eb, eab):
            assert abs(mid(u + v - w)) < 1e-30


def test_signature_stable_under_precision_doubling(cubic, qi):
    for K in (cubic, qi):
        K2 = K.with_precision(K.precision * 2)
        assert K2.signature == K.signature
        assert K2.discriminant == K.discriminant


def test_minkowski_inequality_holds(qi, sqrt2, cubic):
    for K in (qi, sqrt2, cubic):
        n = K.degree
        lhs = (n ** n / math.factorial(n)) * (math.pi / 4) ** (n / 2)
        assert lhs <= math.sqrt(abs(K.discriminant)) * (1 + 1e-12)


def test_field_file_roundtrip(tmp_path):
    import json

    from classgroup.field import load_field_file
    p = tmp_path / "f.json"
    p.write_text(json.dumps({"poly": [6, -1, 1], "precision": 96}))
    K = load_field_file(str(p))
    assert K.discriminant == -23 and K.precision == 96
    # with an explicit basis, row-major strings
    p2 = tmp_path / "g.json"
    p2.write_text(json.dumps({"poly": [4, 0, 1],
                              "basis": ["1", "0", "0", "1/2"]}))
    K2 = load_field_file(str(p2))
    assert K2.discriminant == -4

import math
import random
from fractions import Fraction

import mpmath
import pytest

from classgroup.errors import (BasisNotClosed, BasisNotUnimodularScaling,
                               NonMonic, PrecisionExhausted, Reducible)
from classgroup import polynomials as poly
from classgroup.field import (canonical_embedding, combine_columns,
                              iv_endpoints, norm_of, parse_field)


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


def test_norm_of_non_integral_elements():
    # x^2 + 4 with basis {1, theta/2}: coordinates (a, b) stand for a + b*i
    K = parse_field([4, 0, 1], basis=[[1, 0], [0, Fraction(1, 2)]])
    rng = random.Random(4)
    y = K.element([Fraction(1, 3), Fraction(-2, 5)])
    for _ in range(50):
        a, b = (Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                for _ in range(2))
        x = K.element([a, b])
        assert x.norm() == norm_of(x) == a * a + b * b
        assert (x * y).norm() == x.norm() * y.norm()


_ROOT_FIELDS = [
    [1, 3, -3, -4, 1, 1],                # Q(zeta11)^+
    [-1, 3, 6, -4, -5, 1, 1],            # Q(zeta13)^+
    [1, -4, -10, 10, 15, -6, -7, 1, 1],  # Q(zeta17)^+
    [-3, 0, 0, 0, 0, 0, 0, 0, 1],        # x^8 - 3
    [-2, 400, -20000, 0, 0, 1],          # Mignotte: real roots 1.4e-7 apart
]


@pytest.mark.parametrize("coeffs", _ROOT_FIELDS)
def test_root_balls_certified(coeffs):
    K = parse_field(coeffs)
    r1, r2 = K.signature
    balls = K.root_balls()
    assert [b.is_real for b in balls] == [True] * r1 + [False] * r2
    zero = (Fraction(0), Fraction(0))
    boxes = [(iv_endpoints(b.re), zero if b.is_real else iv_endpoints(b.im))
             for b in balls]
    width = Fraction(1, 2 ** (K.precision + 32))
    for re, im in boxes:
        assert re[1] - re[0] < width and im[1] - im[0] < width
    # T changes sign across each real ball, and the complex ones lie above
    # the real axis
    for (lo, hi), _ in boxes[:r1]:
        assert poly.evaluate(coeffs, lo) * poly.evaluate(coeffs, hi) < 0
    assert all(im[0] > 0 for _, im in boxes[r1:])
    # reals descending, then the pairs by descending real part
    assert all(a[0][0] > b[0][1] for a, b in zip(boxes[:r1], boxes[1:r1]))
    mids = [sum(re) for re, _ in boxes[r1:]]
    assert mids == sorted(mids, reverse=True)
    # all n balls, conjugates included, are pairwise disjoint
    every = boxes + [(re, (-im[1], -im[0])) for re, im in boxes[r1:]]
    for i, (re, im) in enumerate(every):
        for re2, im2 in every[i + 1:]:
            assert (re[1] < re2[0] or re2[1] < re[0]
                    or im[1] < im2[0] or im2[1] < im[0]), (i, re2, im2)


def test_embedding_additivity(cubic):
    rng = random.Random(9)
    for _ in range(20):
        a = cubic.element([rng.randint(-9, 9) for _ in range(3)])
        b = cubic.element([rng.randint(-9, 9) for _ in range(3)])
        ea, eb, eab = (canonical_embedding(a), canonical_embedding(b),
                       canonical_embedding(a + b))
        for u, v, w in zip(ea, eb, eab):
            assert abs(mid(u + v - w)) < 1e-30


def test_combine_columns_takes_its_length_from_the_columns():
    # two columns of length 3, and three of length 2
    assert combine_columns([[1, 2, 3], [4, 5, 6]], [2, -1]) == [-2, -1, 0]
    assert combine_columns([(1, 0), (0, 1), (5, 7)], [3, 0, -1]) == [-2, -7]
    assert combine_columns([(1, 2)], [0]) == [0, 0]


@pytest.mark.parametrize("coeffs", [[-1, -1, 0, 1], [1, 1, 1, 1, 1, 1, 1]])
def test_embed_encloses_canonical_embedding(coeffs):
    K = parse_field(coeffs)
    scale = 1 << (K.precision + K.embedding_table()[2])
    rng = random.Random(7)
    for _ in range(10):
        x = [rng.randint(-50, 50) for _ in range(K.degree)]
        V, R = K.embed(x)
        for v, r, iv in zip(V, R, canonical_embedding(K.element(x))):
            lo, hi = iv_endpoints(iv)
            assert max(lo * scale, v - r) <= min(hi * scale, v + r)


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

import math
import random
import time
from fractions import Fraction

import pytest

from classgroup.errors import (BasisNotClosed, BasisNotUnimodularScaling,
                               NonMonic, PrecisionExhausted, Reducible)
from classgroup import polynomials as poly
from classgroup.field import combine_columns, norm_of, parse_field
from under_O import run_under_O
from oracles import (canonical_embedding, embedding_data, interval_context,
                     iv_endpoints, large_presentation, root_balls)


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


def _product(*factors):
    out = [1]
    for f in factors:
        out = poly.mul(out, f)
    return out


_X3_X_1 = [-1, -1, 0, 1]
# big-coefficient reducible products: the degree patterns leave degree 1 or
# 2 open, and the certified root disks find the factor
_REDUCIBLE = [
    _product([1, 1, 1], [2, 0, 1]),
    _product([-2, 0, 1], _X3_X_1),
    _product([-10 ** 40, 1], [3, 0, 1]),
    _product([7, 10 ** 40, 1], _X3_X_1),
    _product([7, 10 ** 100, 1], [3, 0, 1]),
    _product([10 ** 100 - 2 * 10 ** 98, -2 * 10 ** 50, 1], [3, 0, 1]),
    [0, 1, 0, 1],  # x(x^2 + 1)
]


@pytest.mark.parametrize("coeffs", _REDUCIBLE)
def test_reducible_products(coeffs):
    t0 = time.perf_counter()
    with pytest.raises(Reducible):
        parse_field(coeffs)
    assert time.perf_counter() - t0 < 1.0


# biquadratic fields: every degree pattern is 1+1+1+1 or 2+2, so degree 2
# stays open and the disks must rule out a quadratic factor
_BIQUADRATIC = [
    [1, 0, 0, 0, 1],                     # Q(zeta8)
    [9, 0, -14, 0, 1],                   # sqrt2 + sqrt5
    # Q(sqrt2, sqrt5) through theta' = a(theta), coefficients near 10^9
    [3284852224, -107874048, 991328, -2016, 1],
]


def test_biquadratic_presentations_parse():
    presentations = list(_BIQUADRATIC)
    for T, digits in (([9, 0, -14, 0, 1], 50), ([1, 0, 0, 0, 1], 100),
                      ([9, 0, -14, 0, 1], 200)):
        presentations.append(large_presentation(T, None, digits, digits)[0])
    assert max(abs(c) for c in presentations[-1]) > 10 ** 200
    for T in presentations:
        assert poly.check_irreducible(T, poly.discriminant(T)) == {2}, T
        t0 = time.perf_counter()
        K = parse_field(T)
        assert time.perf_counter() - t0 < 1.0, T
        assert K.degree == 4 and K.signature in ((4, 0), (0, 2)), T


def test_patterns_leave_open_only_what_they_allow():
    # irreducible: the patterns decide at once, big coefficients or not
    for T in ([1, 1, 1, 1, 1], _X3_X_1, [1, -1, 0, 0, 0, 0, 1],
              large_presentation([1] * 7, None, 600)[0]):
        assert poly.check_irreducible(T, poly.discriminant(T)) == set()
    # two cubics: degree 3 stays open, which the screen accepts at n >= 6
    T = _product(_X3_X_1, [-1, -3, 0, 1])
    assert poly.check_irreducible(T, poly.discriminant(T)) == {3}
    assert parse_field(T).degree == 6
    with pytest.raises(Reducible):
        poly.check_irreducible([1, 0, 2, 0, 1], 0)


def test_wide_disks_are_certified_again(monkeypatch):
    # (x^2 - 2*10^50 x + 10^100 - 2*10^98)(x^2 + 3): the real roots are near
    # 10^50 and their sum is an integer.  Disks widened to 2^-140 leave their
    # product's enclosure holding about 2^26 integers, so the disks are
    # certified again at a precision that resolves it
    from classgroup import field
    T = _product([10 ** 100 - 2 * 10 ** 98, -2 * 10 ** 50, 1], [3, 0, 1])
    certify = field.NumberField._certify_roots
    precisions = []

    def widened(self, precision):
        precisions.append(precision)
        disks, bits = certify(self, precision)
        if len(precisions) == 1:
            disks = [(a, b, max(r, 1 << (bits - 140))) for a, b, r in disks]
        return disks, bits

    monkeypatch.setattr(field.NumberField, "_certify_roots", widened)
    with pytest.raises(Reducible):
        parse_field(T)
    assert precisions == [128, 128 + (10 ** 50).bit_length()]

    def always_wide(self, precision):
        disks, bits = certify(self, precision)
        return [(a, b, max(r, 1 << (bits - 140))) for a, b, r in disks], bits

    monkeypatch.setattr(field.NumberField, "_certify_roots", always_wide)
    with pytest.raises(PrecisionExhausted):
        parse_field(T)


def test_discriminant_beyond_the_float_range():
    # Q(zeta7) presented by a theta' whose T' has coefficients near 10^100
    # or 10^150: without its basis, |disc| = |disc(T')| is about 10^500 (its
    # Minkowski bound about 10^250) or 10^800 (its bound beyond the float
    # range too); with the basis, the field's own discriminant -7^5
    for digits in (100, 150):
        T, basis = large_presentation([1] * 7, None, digits, digits)
        K = parse_field(T)
        assert abs(K.discriminant) > 10 ** 308
        want = (math.lgamma(7) - 6 * math.log(6) + 3 * math.log(4 / math.pi)
                + math.log(abs(K.discriminant)) / 2)
        mink = K.minkowski_bound()
        if want < 709:
            assert abs(math.log(mink) - want) < 1e-9
        else:
            assert mink == math.inf
        assert parse_field(T, basis).discriminant == -7 ** 5


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
        reals, cplx = embedding_data(K, a)
        prod = interval_context(K.precision).mpf(1)
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
    # x^5 - 2(10^5 x - 1)^2 and x^5 - 2(10^7 x - 1)^2: real roots about
    # 2^-57 and 2^-81 apart, closer than a double-precision start resolves
    [-2, 400000, -20000000000, 0, 0, 1],
    [-2, 40000000, -200000000000000, 0, 0, 1],
]
# x^2 + 4 presents Q(i) with the basis {1, theta/2}
_BASES = {(4, 0, 1): [[1, 0], [0, Fraction(1, 2)]]}


@pytest.mark.parametrize("coeffs", _ROOT_FIELDS)
def test_root_balls_certified(coeffs):
    K = parse_field(coeffs)
    r1, r2 = K.signature
    balls = root_balls(K)
    assert [im is None for _, im in balls] == [True] * r1 + [False] * r2
    zero = (Fraction(0), Fraction(0))
    boxes = [(iv_endpoints(re), zero if im is None else iv_endpoints(im))
             for re, im in balls]
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


@pytest.mark.parametrize("coeffs", [[-1, -1, 0, 1], [1, 1, 1, 1, 1, 1, 1]]
                         + _ROOT_FIELDS + [[4, 0, 1]])
def test_embed_encloses_canonical_embedding(coeffs):
    K = parse_field(coeffs, basis=_BASES.get(tuple(coeffs)))
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


_INPUT_CHECKS = """
from classgroup.field import parse_field
from classgroup.ideals import ideal_from_element
from classgroup.smoothness import is_smooth, smooth_part
K, L = parse_field([1, 0, 1]), parse_field([-2, 0, 1])
cases = [
    lambda: smooth_part(0, 10),
    lambda: smooth_part(-6, 10),
    lambda: smooth_part(6, 1),
    lambda: is_smooth(-6, 10),
    lambda: K.element([1, 2, 3]),
    lambda: K.element([1]),
    lambda: K.element([1, 1]) + L.element([1, 1]),
    lambda: K.element([1, 1]) - L.element([1, 1]),
    lambda: K.element([1, 1]) * L.element([1, 1]),
    lambda: ideal_from_element(K.zero()),
]
for case in cases:
    try:
        print(f"returned {case()!r}")
    except Exception as exc:
        print(type(exc).__name__)
"""


def test_input_checks_raise_value_error_also_under_python_O():
    expected = ["ValueError"] * 10
    assert run_under_O(_INPUT_CHECKS) == expected
    lines = []
    exec(_INPUT_CHECKS, {"print": lines.append})
    assert lines == expected


def test_element_equality_keys_on_the_basis(q23):
    # x^2 - x + 6 over {1, theta} and over {theta, 1}: the coordinates
    # (1, 0) are 1 in the first and theta in the second, of norms 1 and 6
    swapped = parse_field([6, -1, 1], basis=[[0, 1], [1, 0]])
    one, theta = q23.element([1, 0]), swapped.element([1, 0])
    assert (one.norm(), theta.norm()) == (1, 6)
    assert one != theta and theta != one
    assert hash(one) != hash(theta)
    assert len({one, theta}) == 2
    # another field object on the same poly and basis, or the same field at
    # another precision, holds the same elements
    for K in (parse_field([6, -1, 1]), q23.doubled()):
        same = K.element([1, 0])
        assert same == one and hash(same) == hash(one)
    assert swapped.element([0, 1]) == parse_field(
        [6, -1, 1], basis=[[0, 1], [1, 0]]).element([0, 1])


def test_integral_coordinates_are_ints(q23):
    # integral coordinates are kept as ints whatever they came in as, so an
    # element equals, hashes and prints as its Fraction-built twin
    half = Fraction(1, 2)
    x = q23.element([Fraction(6, 3), -1])
    assert [type(c) for c in x.coords] == [int, int]
    assert x == q23.element([2, -1]) and hash(x) == hash(q23.element([2, -1]))
    assert hash(x) == hash((q23.presentation, (Fraction(2), Fraction(-1))))
    assert repr(x) == "AlgebraicNumber(['2', '-1'])"
    y = q23.element([half, 3])
    assert [type(c) for c in y.coords] == [Fraction, int]
    assert repr(y) == "AlgebraicNumber(['1/2', '3'])"
    assert not y.is_integral and x.is_integral
    assert y + y == q23.element([1, 6]) and (y + y).coords == (1, 6)
    assert [type(c) for c in (y * 2).coords] == [int, int]
    assert q23.one().coords == (1, 0)


def _inverse_fractions(rows):
    """The inverse of a rational matrix by Gauss-Jordan in Fractions."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k])
        a[k], a[piv] = a[piv], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                a[i] = [x - a[i][k] * y for x, y in zip(a[i], a[k])]
    return [row[n:] for row in a]


@pytest.mark.parametrize("coeffs, basis", [
    ([4, 0, 1], [[1, 0], [0, Fraction(1, 2)]]),
    ([16, 0, 1], [[1, 0], [0, Fraction(1, 2)]]),
    ([-8, -2, -1, 1], [[1, 0, 0], [0, 1, 0], [0, Fraction(1, 2),
                                               Fraction(1, 2)]]),
    ([6, -1, 1], [[0, 1], [1, 0]]),
    ([1, 1, 1, 1, 1], None),
    large_presentation([-1, -1, 0, 1], None, 40, seed=3),
    large_presentation([4, 0, 1], [[1, 0], [0, Fraction(1, 2)]], 30, seed=5),
])
def test_integer_basis_form_and_inverse(coeffs, basis):
    # the basis is kept as integer rows over row denominators in lowest
    # terms; the index and the inverse read off it match Fraction arithmetic
    K = parse_field(coeffs, basis=basis)
    n = K.degree
    rows = basis or [[int(i == j) for j in range(n)] for i in range(n)]
    for (row, d), want in zip(K.basis, rows):
        assert d > 0 and math.gcd(d, *row) == 1
        assert [Fraction(x, d) for x in row] == [Fraction(x) for x in want]
    inv = _inverse_fractions(rows)
    den = math.lcm(*(x.denominator for r in inv for x in r))
    assert K.basis_inverse == ([[int(x * den) for x in r] for r in inv], den)
    det = Fraction(poly.bareiss_det([list(r) for r, _ in K.basis]),
                   math.prod(d for _, d in K.basis))
    assert K.index == 1 / abs(det)
    assert K.theta().coords == tuple(K.power_to_basis([0, 1] + [0] * (n - 2)))
    assert K.with_precision(256).basis is K.basis


@pytest.mark.parametrize("roots, quadratics", [
    ([], [[2, 0, 1]]), ([0], []), ([-3, 1, 4], []),
    ([2, -7, 5, 11, -1], [[2, 0, 1], [5, 0, 1]]),
    ([10 ** 9, 10 ** 9 + 1], [[2, 0, 1]]),
    # chains with a remainder two degrees down and a negative leading
    # coefficient, where lc^3 instead of |lc|^3 flips a sign
    ([-2, -1], [[1, 1, 1]]), ([-3, -1], [[3, 0, 1]])])
def test_sturm_count_in_integers(roots, quadratics):
    # prod (x - r) times quadratics with no real root has len(roots) real
    # roots; the remainders are ints, positive multiples of the remainders
    # in Fractions
    T = [1]
    for f in [[-r, 1] for r in roots] + quadratics:
        T = poly.mul(T, f)
    assert poly.count_real_roots(T) == len(roots)
    b = poly.derivative(T)
    got = poly._positive_remainder(T, b)
    want = [Fraction(c) for c in T]
    while len(want) >= len(b):
        f, k = want[-1] / b[-1], len(want) - len(b)
        want = [x - f * b[i - k] if i >= k else x
                for i, x in enumerate(want)][:-1]
    want = poly.normalize(want)
    assert all(type(c) is int for c in got) and len(got) == len(want)
    if want:
        scale = got[-1] / want[-1]
        assert scale > 0 and [x * scale for x in want] == got

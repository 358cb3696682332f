import math
from fractions import Fraction

import pytest

from classgroup.errors import DegreeOne
from under_O import run_under_O
from classgroup.params import (classify_D, classify_invariants,
                               cyclotomic_degree_ratio, cyclotomic_invariants,
                               mode_exponent, predicted_complexity,
                               select_params)


def test_constants_reproduction(q5):
    pl = select_params(q5, omega=2.3728639)
    assert abs(pl.predicted.c - 1.095) < 1e-3
    pl = select_params(q5, omega=math.log2(7))
    assert abs(pl.predicted.c - 1.136) < 1e-3
    assert pl.predicted.alpha == Fraction(1, 2)


def test_mode_exponent_boundary_and_range():
    assert mode_exponent("medium", Fraction(3, 4)) == \
        mode_exponent("large", Fraction(3, 4)) == Fraction(1, 2)
    assert mode_exponent("cheon", Fraction(1)) == Fraction(3, 5)
    assert mode_exponent("cheon", Fraction(3, 4)) == Fraction(1, 2)
    for num in range(76, 101):
        a = Fraction(num, 100)
        assert mode_exponent("cheon", a) < mode_exponent("large", a)
        assert Fraction(1, 2) < mode_exponent("cheon", a) <= Fraction(3, 5)


def test_predicted_complexity_modes():
    cd = classify_invariants(40, 200.0, 7)
    med = predicted_complexity(cd, 2.5, "medium")
    assert med.alpha == Fraction(1, 2)
    assert abs(med.c - 3.5 / (2 * math.sqrt(2.5))) < 1e-12
    lg = predicted_complexity(cd, 2.5, "large")
    assert lg.alpha == 2 * cd.alpha / 3 and lg.c == 0.0
    ch = predicted_complexity(cd, 2.5, "cheon")
    assert ch.alpha == (2 * cd.alpha + 1) / 5
    # alpha < 1/2: the small-polynomial headline figure is quoted
    cd_small = classify_invariants(2, math.log(10 ** 40), 10 ** 40)
    assert float(cd_small.alpha) < 0.5
    quoted = predicted_complexity(cd_small, 2.5, "medium")
    assert quoted.alpha == max(cd_small.alpha,
                               Fraction(cd_small.gamma).limit_denominator(1 << 30) / 2)


def test_classify_examples():
    # constructed n = ceil((log/loglog)^(1/2)) -> alpha ~ 1/2
    ld = 10 ** 6
    x = ld / math.log(ld)
    cd = classify_invariants(math.ceil(x ** 0.5), ld, 3)
    assert abs(float(cd.alpha) - 0.5) < 0.01
    # gamma floor
    assert cd.gamma >= 1 - float(cd.alpha)
    with pytest.raises(DegreeOne):
        classify_invariants(1, 10.0, 10)


def test_classify_field_wrapper(q23):
    cd = classify_D(q23)
    assert 0 <= float(cd.alpha) <= 1
    assert cd.band[0] <= q23.degree <= cd.band[1] * (1 + 1e-9)


def test_cyclotomic_invariants():
    deg, ld = cyclotomic_invariants(4)
    assert deg == 2 and abs(ld - math.log(4)) < 1e-12
    deg, ld = cyclotomic_invariants(3)
    assert deg == 2 and abs(ld - math.log(3)) < 1e-12
    deg, ld = cyclotomic_invariants(7)   # prime: disc = p^(p-2)
    assert deg == 6 and abs(ld - 5 * math.log(7)) < 1e-12
    deg, ld = cyclotomic_invariants(8)   # 2^3: phi = 4, disc = 2^8/... = 2^(8)
    assert deg == 4


def test_cyclotomic_alpha_toward_one():
    ratio = cyclotomic_degree_ratio(10 ** 4 + 7)
    assert abs(ratio - 1) < 0.1
    alphas = []
    for l in (1009, 2003, 4001, 6007, 9973):
        deg, ld = cyclotomic_invariants(l)
        cd = classify_invariants(deg, ld, l)
        alphas.append(float(cd.alpha))
    assert all(a > 0.8 for a in alphas)
    assert all(b >= a for a, b in zip(alphas, alphas[1:]))


def test_select_params_clamps(q5):
    pl = select_params(q5)
    assert 2 <= pl.B <= 10 ** 6
    assert 2 <= pl.beta_block <= 30
    assert pl.mode in ("medium", "large", "cheon")
    pl2 = select_params(q5, mode_override="cheon")
    assert pl2.mode == "cheon"


_INPUT_CHECKS_UNDER_O = """
from classgroup import ideals
from classgroup.errors import DomainTooSmall, VerificationFailed
from classgroup.field import parse_field
from classgroup.lattice import LatticeBasis, cheon_reduce
from classgroup.params import classify_invariants, cyclotomic_invariants

assert not __debug__, "run with python -O"


def raised(check):
    try:
        check()
    except (ValueError, DomainTooSmall, VerificationFailed) as e:
        print(type(e).__name__ + ":", e)
    else:
        print("accepted")


raised(lambda: cheon_reduce(LatticeBasis([[1, 0, 0], [0, 1, 0]]), 2))
raised(lambda: classify_invariants(2, 1.0, 3))
raised(lambda: cyclotomic_invariants(2))
# 1 spans no ideal of Q(i) mod 2: no alpha has a kernel of dimension 1
raised(lambda: ideals._second_generator([[1, 0]], parse_field([1, 0, 1]), 2))
"""


def test_input_checks_raise_typed_errors_under_python_O():
    # checks on the input of public functions are not asserts, so they hold
    # where python -O strips those
    assert run_under_O(_INPUT_CHECKS_UNDER_O) == [
        "ValueError: cheon_reduce needs a square basis, got 3 x 2",
        "DomainTooSmall: log|disc| = 1.0 must exceed 1 to classify",
        "ValueError: cyclotomic_invariants needs l >= 3, got 2",
        "VerificationFailed: no second generator for a prime above 2"]

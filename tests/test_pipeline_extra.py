"""End-to-end runs beyond the acceptance fields: higher degree, higher unit
rank, and the non-maximal-basis input path."""

import json
import math

from conftest import field_file
from oracles import class_number_imag_quadratic
from classgroup import cli


def run(tmp_path, coeffs, seed=3, **kw):
    path = field_file(tmp_path, coeffs)
    res = cli.run_compute(cli.RunConfig(field_path=path, seed=seed, **kw))
    assert res.verdict == "ACCEPT", (coeffs, res.ratio)
    return res


def test_fifth_cyclotomic(tmp_path):
    # degree 4, w = 10, unit rank 1, known regulator
    res = run(tmp_path, [1, 1, 1, 1, 1])
    assert int(res.group.class_number) == 1
    assert res.statistics["w"] == 10
    assert abs(res.regulator - 0.9624236501192069) < 1e-9


def test_unit_rank_two_cubic(tmp_path):
    # x^3 - 3x - 1: totally real, disc 81, rank-2 unit lattice
    res = run(tmp_path, [-1, -3, 0, 1])
    assert int(res.group.class_number) == 1
    assert abs(res.regulator - 0.8492874506461925) < 1e-8


def test_explicit_basis_field_file(tmp_path):
    # Q(i) presented through x^2 + 4 with the maximal basis {1, theta/2}
    p = tmp_path / "f.json"
    p.write_text(json.dumps({"poly": [4, 0, 1],
                             "basis": ["1", "0", "0", "1/2"],
                             "precision": 128}))
    res = cli.run_compute(cli.RunConfig(field_path=str(p), seed=3))
    assert res.verdict == "ACCEPT"
    assert int(res.group.class_number) == 1
    assert res.statistics["w"] == 4


def test_large_imaginary_quadratic(tmp_path):
    # x^2 - x + 750001, D = -3000003: 208 primes below the Bach bound, whose
    # relation matrices are reduced by unit-pivot elimination first
    res = run(tmp_path, [750001, -1, 1])
    assert res.group.class_number == 388 == class_number_imag_quadratic(
        -3000003)
    assert res.group.elementary_divisors == (2, 194)


def test_dedekind_cubic_common_index_divisor(tmp_path):
    # x^3 - x^2 - 2x - 8 with basis {1, theta, (theta + theta^2)/2}: disc -503,
    # and 2 divides [O_K : Z[theta]] for every theta.  h = 1: the Minkowski
    # bound is 6.35, the three primes above 2 and the prime of norm 5 are
    # principal ((1, 0, 1) has norm 2, (-5, -2, 2) has norm -5), and 3 is
    # inert.  Reg = log|eps| for the unit eps = -13 + 13 theta - 3 theta^2,
    # coordinates (-13, 16, -6); it is out of reach of cubic_unit_search's
    # default box
    from classgroup.analytic import log_embedding
    from classgroup.field import iv_endpoints, load_field_file
    p = tmp_path / "f.json"
    p.write_text(json.dumps({"poly": [-8, -2, -1, 1],
                             "basis": ["1", "0", "0", "0", "1", "0",
                                       "0", "1/2", "1/2"],
                             "precision": 128}))
    K = load_field_file(str(p))
    eps = K.element([-13, 16, -6])
    assert eps == K.theta() * K.theta() * -3 + K.theta() * 13 - K.one() * 13
    assert abs(eps.norm()) == 1
    assert abs(K.element([1, 0, 1]).norm()) == 2
    assert abs(K.element([-5, -2, 2]).norm()) == 5
    lo, hi = iv_endpoints(log_embedding(K, eps)[0])
    assert abs(float(lo) + 7.0273467934) < 1e-10
    assert abs(float(hi) + 7.0273467934) < 1e-10
    res = cli.run_compute(cli.RunConfig(field_path=str(p), seed=3))
    assert res.verdict == "ACCEPT", res.ratio
    assert int(res.group.class_number) == 1
    assert abs(res.regulator - 7.0273467934) < 1e-6


def test_multi_and_cheon_end_to_end(tmp_path):
    for mode in ("multi", "cheon"):
        res = run(tmp_path, [5, 0, 1], mode=mode)
        assert int(res.group.class_number) == 2
        assert res.group.elementary_divisors == (2,)


def test_first_round_accepts(tmp_path):
    # free relations plus the exponent-1 sweep give a relation set that
    # generates the lattice at once: no spurious (Z/2)^k survives to be
    # rejected by the ratio test
    for D, divisors in ((-3000003, (2, 194)), (-10000003, (706,))):
        res = run(tmp_path, [(1 - D) // 4, -1, 1])
        assert res.group.class_number == class_number_imag_quadratic(D)
        assert res.group.elementary_divisors == divisors
        assert len(res.statistics["rounds"]) == 1, D
    res = run(tmp_path, [1, 1, 1, 1, 1, 1, 1])  # Q(zeta7)
    assert int(res.group.class_number) == 1
    assert repr(res.regulator) == "2.1018187284902896"
    assert len(res.statistics["rounds"]) == 1


def test_multi_mode_ends_with_the_plain_answer(tmp_path):
    # a multi-mode trial may find dozens of smooth +-1 combinations; it keeps
    # only the rows still missing from the target, so the window cannot
    # flood the matrix (and the regulator's kernel) far past it
    from classgroup.relations import _WINDOW
    dedekind = {"poly": [-8, -2, -1, 1],
                "basis": ["1", "0", "0", "0", "1", "0", "0", "1/2", "1/2"]}
    for name, spec in (("dedekind", dedekind),
                       ("x5-2", {"poly": [-2, 0, 0, 0, 0, 1]})):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(spec))
        plain, multi = (
            cli.run_compute(cli.RunConfig(field_path=str(p), seed=3, mode=m))
            for m in ("plain", "multi"))
        assert multi.verdict == plain.verdict == "ACCEPT", name
        assert multi.group == plain.group, name
        assert repr(multi.regulator) == repr(plain.regulator), name
        assert repr(multi.ratio) == repr(plain.ratio), name
        (rnd,) = multi.statistics["rounds"]
        target = rnd["K"] * multi.statistics["factor_base_size"]
        assert multi.statistics["relations"] < target + _WINDOW, name

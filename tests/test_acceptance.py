"""Acceptance suite: every criterion below runs at its stated tolerance and
prints one PASS line.  Oracles are independent implementations (reduced-form
counting, continued fractions, bounded-height unit search, marching
quadrature, naive normal forms, exhaustive enumeration)."""

import json
import math
import random
import time

import pytest

from oracles import (class_number_imag_quadratic, class_number_real_quadratic,
                     cubic_unit_search, dickman_quadrature, naive_row_hnf,
                     naive_snf_divisors, pell_fundamental_unit,
                     smooth_count_range)
from conftest import field_file
from classgroup import cli
from classgroup.analytic import compute_analytic, verify
from classgroup.field import parse_field
from classgroup.ideals import build_factor_base
from classgroup.intlinalg import (class_group_from_relations,
                                  hnf_with_transform, left_kernel, mat_mul,
                                  snf, identity)
from classgroup.lattice import (LatticeBasis, bkz, cheon_reduce, hnf_lattice,
                                theorem_bound_holds, _apply_transform,
                                _gram_of)
from classgroup.params import mode_exponent, select_params
from classgroup.polynomials import bareiss_det
from classgroup.relations import (CollectionConfig, collect, eq5_bound_holds,
                                  verify_relation)
from classgroup.smoothness import dickman_rho

from fractions import Fraction


def _passed(n, msg):
    print(f"PASS criterion {n}: {msg}")


# discriminants of the 20 imaginary quadratic acceptance fields
IMAG_DISCS = [-3, -4, -7, -8, -11, -15, -19, -20, -23, -24,
              -31, -35, -39, -40, -43, -47, -51, -52, -56, -84]


def poly_for_disc(D):
    assert D < 0 and D % 4 in (0, 1)
    if D % 4 == 0:
        return [-D // 4, 0, 1]
    return [(1 - D) // 4, -1, 1]


def run_field(tmp_path, coeffs, seed, mode="plain"):
    path = field_file(tmp_path, coeffs)
    cfg = cli.RunConfig(field_path=path, seed=seed, mode=mode)
    t0 = time.monotonic()
    result = cli.run_compute(cfg)
    wall = time.monotonic() - t0
    return result, wall


def test_criterion_1_imaginary_quadratic_class_numbers(tmp_path):
    assert len(IMAG_DISCS) == 20
    assert {-4, -20, -23} <= set(IMAG_DISCS)
    for D in IMAG_DISCS:
        oracle_h = class_number_imag_quadratic(D)
        result, wall = run_field(tmp_path, poly_for_disc(D), seed=abs(D))
        assert result.verdict == "ACCEPT", (D, result.ratio)
        assert int(result.group.class_number) == oracle_h, \
            (D, result.group.class_number, oracle_h)
        assert 0.8 < result.ratio < 1.25, (D, result.ratio)
        assert wall <= 60, (D, wall)
    _passed(1, f"20 imaginary quadratic fields match the reduced-form oracle, "
               f"all ACCEPT in (0.8, 1.25) within 60 s each")


def test_criterion_2_real_quadratic(tmp_path):
    x, y, _ = pell_fundamental_unit(2)
    reg_oracle = math.log(x + y * math.sqrt(2))
    result, _ = run_field(tmp_path, [-2, 0, 1], seed=2)
    assert result.verdict == "ACCEPT"
    assert int(result.group.class_number) == class_number_real_quadratic(2) == 1
    assert abs(result.regulator - reg_oracle) < 1e-6
    assert abs(reg_oracle - math.log(1 + math.sqrt(2))) < 1e-12

    result10, _ = run_field(tmp_path, [-10, 0, 1], seed=10)
    assert result10.verdict == "ACCEPT"
    assert int(result10.group.class_number) == class_number_real_quadratic(10) == 2
    _passed(2, f"Q(sqrt2): h=1, Reg={result.regulator:.9f} (oracle "
               f"{reg_oracle:.9f}); Q(sqrt10): h=2, both ACCEPT")


def test_criterion_3_cubic_field(tmp_path, cubic):
    reg_oracle = cubic_unit_search(cubic)
    result, _ = run_field(tmp_path, [-1, -1, 0, 1], seed=23)
    assert result.verdict == "ACCEPT"
    assert int(result.group.class_number) == 1
    assert abs(result.regulator - reg_oracle) < 1e-6
    _passed(3, f"x^3-x-1: h=1, Reg={result.regulator:.9f} matches the "
               f"bounded-height unit oracle to 1e-6, ACCEPT")


def test_criterion_4_bkz_quality_bound():
    rng = random.Random(1234)
    lattices = 0
    checks = 0
    while lattices < 100:
        n = rng.randint(8, 12)
        cols = [[rng.randint(-40, 40) for _ in range(n)] for _ in range(n)]
        g = _gram_of(cols)
        if bareiss_det(g) == 0:
            continue
        lattices += 1
        B = LatticeBasis(cols)
        for beta in (2, 4, 8):
            red, rep = bkz(B, beta)
            v2 = min(sum(c * c for c in col) for col in red.columns)
            det_gram = bareiss_det(_gram_of(red.columns))
            assert theorem_bound_holds(v2, beta, n, det_gram), \
                (n, beta, v2)  # exact integer comparison, zero tolerance
            checks += 1
    _passed(4, f"BKZ quality bound holds exactly in {checks}/{checks} cases "
               f"(100 lattices, beta in {{2,4,8}})")


def _random_unimodular(n, rng, steps=50):
    U = identity(n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-3, 3)
        for t in range(n):
            U[t][i] += q * U[t][j]
    return U


def test_criterion_5_hnf_monotonicity_and_sublattice_reduction():
    rng = random.Random(55)
    # Lemma: HNF prefix determinants are non-decreasing (50 lattices)
    done = 0
    while done < 50:
        n = rng.randint(2, 6)
        cols = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if bareiss_det(_gram_of(cols)) == 0:
            continue
        H = hnf_lattice(LatticeBasis(cols))
        prev = None
        for m in range(1, n + 1):
            det2 = bareiss_det(_gram_of([H.columns[j][:] for j in range(m)]))
            if prev is not None:
                assert det2 >= prev
            prev = det2
        done += 1
    # m = 16 exactly for beta=4, det=4^32
    n = 16
    diag = [1] * n
    diag[3] = 4 ** 32
    cols = [[diag[i] if i == j else 0 for i in range(n)] for j in range(n)]
    B = LatticeBasis(_apply_transform(cols, _random_unimodular(n, rng)))
    _, rep = cheon_reduce(B, 4)
    assert rep.m_sub == 16
    # 50 planted-small-determinant instances at the 1.1 slack
    done = 0
    while done < 50:
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
        B = LatticeBasis(_apply_transform(cols, _random_unimodular(n, rng)))
        v, rep = cheon_reduce(B, beta)
        assert math.log(rep.first_vector_norm, beta) <= \
            1.1 * math.sqrt(2 / beta * D), (n, D)
        done += 1
    _passed(5, "HNF prefix determinants monotone on 50 lattices; sublattice "
               "reduction bound with 1.1 slack on 50 planted instances; "
               "m=16 for (beta=4, det=4^32)")


def test_criterion_6_relation_validity_all_modes(q5, q23):
    total = 0
    for K, B in ((q5, 11), (q23, 15)):
        for mode in ("plain", "multi", "cheon"):
            fb = build_factor_base(K, B)
            cfg = CollectionConfig(bound_B=B, k=2, A=2, beta=2, rng_seed=17,
                                   mode=mode, trial_budget=4000)
            M, _ = collect(K, fb, cfg)
            for rel in M.rows:
                pe = {M.columns[i]: e for i, e in rel.exponents.items()}
                assert verify_relation(rel.generator, pe, K)
                total += 1
    _passed(6, f"{total}/{total} stored relations pass exact norm + "
               f"valuation verification across plain/multi/cheon")


def test_criterion_7_cofactor_norm_bound(q5, q23):
    # derive_relations checks the bound on every candidate and raises
    # VerificationFailed on a violation; here the checker itself is validated
    # and full runs are replayed with it active
    assert eq5_bound_holds(8, 2, 2, 20) and not eq5_bound_holds(9, 2, 2, 20)
    count = 0
    for K, B in ((q5, 11), (q23, 15)):
        fb = build_factor_base(K, B)
        cfg = CollectionConfig(bound_B=B, k=2, A=2, beta=2, rng_seed=3,
                               trial_budget=4000)
        M, stats = collect(K, fb, cfg)
        count += stats["trials"]
    _passed(7, f"cofactor norm bound checked on every one of {count} "
               f"reduction trials with zero violations")


def test_criterion_8_hnf_snf_oracle_equivalence():
    rng = random.Random(2024)
    for _ in range(100):
        M = [[rng.randint(-10, 10) for _ in range(6)] for _ in range(6)]
        H, U = hnf_with_transform(M)
        assert H == naive_row_hnf(M)
        assert mat_mul(U, M) == H
        assert abs(bareiss_det(U)) == 1
        assert list(snf(M).elementary_divisors) == \
            [d for d in naive_snf_divisors(M) if d != 1]
    _passed(8, "HNF and SNF match the naive elementary-operations oracle on "
               "100 random 6x6 matrices; U unimodular throughout")


def test_criterion_9_dickman_and_smoothness_frequency():
    assert abs(dickman_rho(2) - (1 - math.log(2))) < 1e-8
    oracle3 = dickman_quadrature(3.0, 4000)
    assert abs(dickman_rho(3) - oracle3) < 1e-6
    x, B, span = 10 ** 8, 10 ** 3, 10 ** 5
    count = smooth_count_range(x, span, B)
    expected = dickman_rho(math.log(x) / math.log(B)) * span
    assert 0.7 * expected <= count <= 1.3 * expected
    _passed(9, f"rho(2) exact to 1e-8, rho(3) vs quadrature oracle to 1e-6; "
               f"smooth count {count} within 30% of rho prediction "
               f"{expected:.0f}")


def test_criterion_10_constants(q5):
    pl = select_params(q5, omega=2.3728639)
    assert abs(pl.predicted.c - 1.095) < 1e-3
    pl = select_params(q5, omega=math.log2(7))
    assert abs(pl.predicted.c - 1.136) < 1e-3
    assert mode_exponent("cheon", Fraction(1)) == Fraction(3, 5)  # exact
    assert mode_exponent("medium", Fraction(3, 4)) == \
        mode_exponent("large", Fraction(3, 4))
    _passed(10, "1.095 and 1.136 reproduced to 1e-3; cheon exponent 3/5 "
                "exact at alpha=1; mode exponents agree at alpha=3/4")


def test_criterion_11_fault_injection(tmp_path):
    flips = 0
    fields = [poly_for_disc(D) for D in (-4, -20, -23)] + \
        [[-2, 0, 1], [-10, 0, 1], [-1, -1, 0, 1]]
    for coeffs in fields:
        K = parse_field(coeffs)
        result, _ = run_field(tmp_path, coeffs, seed=31)
        assert result.verdict == "ACCEPT"
        an = compute_analytic(K, 10 ** 4)
        h = int(result.group.class_number)
        _, v1 = verify(2 * h, result.regulator, an, K)
        _, v2 = verify(h, 2 * result.regulator, an, K)
        assert v1 == v2 == "REJECT", coeffs
        flips += 2
    _passed(11, f"{flips}/{flips} injected factor-2 faults in h or Reg "
                f"flip the verdict to REJECT")


def test_criterion_12_determinism_and_threads(tmp_path):
    path = field_file(tmp_path, [6, -1, 1])

    def run(threads):
        cfg = cli.RunConfig(field_path=path, seed=77, threads=threads)
        result = cli.run_compute(cfg)
        data = result.as_dict()
        data["statistics"].pop("wall_time_s")
        data["config"].pop("threads")
        return json.dumps(data, sort_keys=True)

    a, b, c = run(1), run(1), run(4)
    assert a == b
    assert a == c
    _passed(12, "identical seeds give byte-identical results; "
                "--threads 4 matches --threads 1")

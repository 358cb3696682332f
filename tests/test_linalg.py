import random
from types import SimpleNamespace

import pytest

from oracles import naive_row_hnf, naive_snf_divisors, rank_mod_p
from under_O import run_under_O
from classgroup.errors import RankDeficient
from classgroup.ideals import _modp_kernel
from classgroup.intlinalg import (class_group_from_relations, hnf,
                                  hnf_with_transform, left_kernel, mat_mul,
                                  rank, smith_normal_form, snf, snf_of_hnf,
                                  unit_eliminate)
from classgroup.polynomials import bareiss_det


def test_hnf_examples():
    H, U = hnf_with_transform([[1, 0], [0, 1]])
    assert H == [[1, 0], [0, 1]] and U == [[1, 0], [0, 1]]
    H, U = hnf_with_transform([[2, 4], [4, 4]])
    assert H == [[2, 0], [0, 4]]
    assert mat_mul(U, [[2, 4], [4, 4]]) == H
    assert abs(bareiss_det(U)) == 1


def test_snf_examples():
    assert snf([[2, 0], [0, 4]]).elementary_divisors == (2, 4)
    g = snf([[2, 4], [4, 4]])
    assert g.elementary_divisors == (2, 4) and g.class_number == 8
    assert snf([[1, 0], [0, 1]]).elementary_divisors == ()
    assert snf([[1, 0], [0, 1]]).class_number == 1


def test_left_kernel_examples():
    k = left_kernel([[1, 1], [1, 1]])
    assert k in ([[1, -1]], [[-1, 1]])
    assert left_kernel([[2, 1], [1, 1]]) == []
    rng = random.Random(6)
    for _ in range(30):
        M = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(8)]
        for v in left_kernel(M):
            assert all(sum(v[i] * M[i][j] for i in range(8)) == 0
                       for j in range(6))


def test_hnf_snf_match_naive_oracle():
    rng = random.Random(99)
    for _ in range(100):
        M = [[rng.randint(-10, 10) for _ in range(6)] for _ in range(6)]
        H, U = hnf_with_transform(M)
        assert H == naive_row_hnf(M)
        assert hnf(M) == H
        assert mat_mul(U, M) == H
        assert abs(bareiss_det(U)) == 1
        mine = [d for d in snf(M).elementary_divisors]
        oracle = [d for d in naive_snf_divisors(M) if d != 1]
        assert mine == oracle
    # non-square inputs, and rank-deficient ones: products through a thin
    # middle dimension, and the zero matrix
    for r, c in ((3, 7), (7, 3), (1, 4), (4, 1), (5, 5)):
        for _ in range(20):
            k = rng.randint(1, min(r, c))
            A = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(r)]
            B = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(k)]
            for M in ([[rng.randint(-10, 10) for _ in range(c)]
                       for _ in range(r)], mat_mul(A, B)):
                H, U = hnf_with_transform(M)
                assert H == naive_row_hnf(M) == hnf(M)
                assert mat_mul(U, M) == H
                diag = smith_normal_form(M)
                oracle = naive_snf_divisors(M)
                assert len(diag) == min(r, c)
                assert diag == oracle + [0] * (min(r, c) - rank(M))
                assert list(snf(M).elementary_divisors) == [
                    d for d in oracle if d != 1]
        zero = [[0] * c for _ in range(r)]
        assert smith_normal_form(zero) == [0] * min(r, c)


def test_class_number_monotone_under_new_relations(q5):
    # appending verified relations can only divide the class number
    from classgroup.ideals import build_factor_base
    from classgroup.intlinalg import class_group_from_relations
    from classgroup.relations import CollectionConfig, collect

    fb = build_factor_base(q5, 12)
    cfg = CollectionConfig(bound_B=12, k=2, A=2, beta=2, rng_seed=2,
                           trial_budget=4000)
    matrix, _ = collect(q5, fb, cfg)
    g1 = class_group_from_relations(matrix)
    cfg2 = CollectionConfig(bound_B=12, k=2, A=2, beta=2, rng_seed=3,
                            trial_budget=4000)
    matrix2, _ = collect(q5, fb, cfg2, matrix=matrix,
                         target_rows=len(matrix.rows) + 16)
    g2 = class_group_from_relations(matrix2)
    assert g1.class_number % g2.class_number == 0


def test_rank_deficient_signal(q5):
    from classgroup.ideals import build_factor_base
    from classgroup.intlinalg import class_group_from_relations
    from classgroup.relations import RelationMatrix

    fb = build_factor_base(q5, 12)
    matrix = RelationMatrix(fb)
    # a single relation cannot cover the base
    from classgroup.relations import collect, CollectionConfig
    cfg = CollectionConfig(bound_B=12, k=2, A=2, beta=2, rng_seed=2,
                           trial_budget=4000)
    full, _ = collect(q5, fb, cfg)
    matrix.rows.append(full.rows[0])
    with pytest.raises(RankDeficient):
        class_group_from_relations(matrix)


def test_snf_of_hnf_drops_unit_pivots():
    # rows and columns of unit pivots leave the cokernel alone: the divisors
    # match the SNF of the whole HNF, for unimodular and other matrices
    rng = random.Random(23)
    unimodular = dropped = 0
    for _ in range(80):
        n = rng.randint(1, 7)
        M = [[rng.randint(-6, 6) for _ in range(n)]
             for _ in range(n + rng.randint(0, 3))]
        if rng.random() < 0.3:  # scale a column so the group is larger
            j = rng.randrange(n)
            for row in M:
                row[j] *= rng.randint(2, 6)
        H = [row for row in hnf(M) if any(row)]
        if len(H) < n:
            continue
        got = snf_of_hnf(H)
        assert got == snf(H), M
        unimodular += got.class_number == 1
        dropped += any(H[j][j] == 1 for j in range(n))
    assert snf_of_hnf([]) == snf([[1]])
    assert unimodular >= 5 and dropped >= 30


def test_rank():
    assert rank([[1, 0], [0, 1], [1, 1]]) == 2
    assert rank([[2, 4], [1, 2]]) == 1
    assert rank([[0, 0]]) == 0
    rng = random.Random(31)
    deficient = 0
    for _ in range(60):
        m, n, r = rng.randint(1, 8), rng.randint(1, 8), rng.randint(0, 8)
        if r < min(m, n):  # rank at most r: product of m x r and r x n
            A = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(m)]
            B = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
            M = mat_mul(A, B) if r else [[0] * n for _ in range(m)]
        else:
            M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        H, _ = hnf_with_transform(M)
        assert hnf(M) == H
        assert rank(M) == sum(1 for row in H if any(row)), M
        deficient += rank(M) < min(m, n)
    assert deficient >= 10


def _sparse_relations(rng, n, m, units):
    """m rows over n columns, 2-5 entries each in +-1..+-3 (no +-1 unless
    `units`)."""
    values = [1, 2, 3, -1, -2, -3] if units else [2, 3, -2, -3]
    return [{j: rng.choice(values)
             for j in rng.sample(range(n), rng.randint(2, min(5, n)))}
            for _ in range(m)]


def test_unit_elimination_matches_full_hnf():
    # the +-1 pivots of structured elimination change neither the rank nor
    # the cokernel: rank, class group and rank shortfall all agree with the
    # HNF of the whole matrix
    rng = random.Random(41)
    seen = {"no unit": 0, "deficient": 0, "empty column": 0, "group": 0,
            "eliminated": 0}
    for t in range(100):
        n = rng.randint(2, 9)
        rows = _sparse_relations(rng, n, rng.randint(1, 2 * n), t % 5 != 0)
        if t % 4 == 1:  # rows that are combinations of a few others
            base = rows[:rng.randint(1, max(1, n - 2))]
            rows = base + [{j: a * x.get(j, 0) + b * y.get(j, 0)
                            for j in set(x) | set(y)
                            if a * x.get(j, 0) + b * y.get(j, 0)}
                           for x, y, a, b in (
                               (rng.choice(base), rng.choice(base),
                                rng.choice([-1, 1]), rng.randint(-2, 2))
                               for _ in range(rng.randint(1, n)))]
            rows = [r for r in rows if r]
        if t % 3 == 2:  # a column no relation touches
            gone = rng.randrange(n)
            rows = [r for r in ({j: e for j, e in r.items() if j != gone}
                                for r in rows) if r]
        if not rows:
            continue
        before = [dict(r) for r in rows]
        dense = [[r.get(j, 0) for j in range(n)] for r in rows]
        want_rank = sum(1 for row in naive_row_hnf(dense) if any(row))
        eliminated, core = unit_eliminate(rows)
        assert rows == before
        assert not any(abs(x) == 1 for row in core for x in row), rows
        assert rank(rows) == rank(dense) == want_rank, rows

        used = sorted(set().union(*rows))
        full = [row for row in hnf([[r.get(j, 0) for j in used]
                                    for r in rows]) if any(row)]
        R = SimpleNamespace(rows=[SimpleNamespace(exponents=r) for r in rows],
                            columns=[SimpleNamespace(norm=2)] * n,
                            bach_bound=1)
        if len(full) < len(used):
            with pytest.raises(RankDeficient, match=f"rank {len(full)} <"):
                class_group_from_relations(R)
            seen["deficient"] += 1
        else:
            g = class_group_from_relations(R)
            want = snf(full)
            assert (g.class_number, g.elementary_divisors) == \
                (want.class_number, want.elementary_divisors), rows
            seen["group"] += want.class_number > 1
        seen["no unit"] += t % 5 == 0
        seen["empty column"] += len(used) < n
        seen["eliminated"] += eliminated > 0
    assert min(seen.values()) >= 10, seen


def test_modp_kernel():
    # one vector per free column: each in the kernel mod p, n - rank of them,
    # independent mod p
    rng = random.Random(17)
    deficient = 0
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 31, 101])
        m, n, r = rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 7)
        if r < min(m, n):  # rank at most r: product of m x r and r x n
            A = [[rng.randrange(p) for _ in range(r)] for _ in range(m)]
            B = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
            M = mat_mul(A, B) if r else [[0] * n for _ in range(m)]
        else:
            M = [[rng.randint(-3 * p, 3 * p) for _ in range(n)]
                 for _ in range(m)]
        kern = _modp_kernel(M, p)
        for v in kern:
            assert all(sum(v[j] * M[i][j] for j in range(n)) % p == 0
                       for i in range(m)), (M, p, v)
        rk = rank_mod_p(M, p)
        assert len(kern) == n - rk, (M, p)
        assert rank_mod_p(kern, p) == len(kern)
        deficient += rk < min(m, n)
    assert deficient >= 30


_CORRUPT_UNDER_O = """
from classgroup import intlinalg
from classgroup.errors import VerificationFailed
from classgroup.field import parse_field
from classgroup.ideals import build_factor_base
from classgroup.relations import RelationMatrix

assert not __debug__, "run with python -O"

def rejected(check):
    try:
        check()
    except VerificationFailed as e:
        print("rejected:", e)

hnf_with_transform = intlinalg.hnf_with_transform

def corrupt_transform(M):
    H, U = hnf_with_transform(M)
    return H, [[x + 1 for x in row] for row in U]

intlinalg.hnf_with_transform = corrupt_transform
rejected(lambda: intlinalg.left_kernel([[1, 1], [1, 1]]))
intlinalg.hnf_with_transform = hnf_with_transform

K = parse_field([1, 0, 1])
R = RelationMatrix(build_factor_base(K, 10))
for P in R.columns:
    R.add(K.one(), {P: 1}, ())
intlinalg.snf = lambda M: intlinalg.GroupStructure((2,), 2)
rejected(lambda: intlinalg.class_group_from_relations(R))
"""


def test_linear_algebra_checks_survive_python_O():
    # a transform whose zero rows miss the kernel, or an SNF whose class
    # number disagrees with the HNF diagonal, must not pass silently
    lines = run_under_O(_CORRUPT_UNDER_O)
    assert lines == ["rejected: left kernel vector v has v*M != 0",
                     "rejected: SNF class number 2 differs from the HNF "
                     "diagonal product 1"], lines

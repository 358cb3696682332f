import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from classgroup.errors import Stalled
from classgroup.field import parse_field
from classgroup.ideals import (build_factor_base, factor_prime,
                               ideal_from_power_product, unit_ideal)
from classgroup.relations import (CollectionConfig, RelationMatrix,
                                  cheon_presmooth_tail, collect,
                                  derive_relation, derive_relation_cheon,
                                  derive_relation_multi, eq5_bound_holds,
                                  sample_ideal, verify_relation)


def rel_key(prime_exps):
    return tuple(sorted((P.p, P.gen_poly, e) for P, e in prime_exps.items()))


def test_sample_ideal_bounds(qi):
    fb = build_factor_base(qi, 10)
    cfg = CollectionConfig(bound_B=10, k=2, A=3, rng_seed=5)
    rng = random.Random(cfg.rng_seed)
    idxs, exps = sample_ideal(fb, cfg, rng)
    assert len(set(idxs)) == 2 and all(1 <= e <= 3 for e in exps)
    a = ideal_from_power_product(fb, idxs, exps, qi)
    assert a.norm <= 10 ** 6  # bound^(k*A)
    # reproducible
    rng2 = random.Random(cfg.rng_seed)
    assert sample_ideal(fb, cfg, rng2) == (idxs, exps)
    # exhaustive pick when k = |fb|
    cfg_all = CollectionConfig(bound_B=10, k=fb.size, A=1, rng_seed=5)
    idxs, _ = sample_ideal(fb, cfg_all, random.Random(0))
    assert idxs == list(range(fb.size))


def test_sample_distribution_uniform(qi):
    fb = build_factor_base(qi, 10)
    cfg = CollectionConfig(bound_B=10, k=1, A=1, rng_seed=1)
    rng = random.Random(cfg.rng_seed)
    counts = [0] * fb.size
    trials = 1000
    for _ in range(trials):
        idxs, _ = sample_ideal(fb, cfg, rng)
        counts[idxs[0]] += 1
    expected = trials / fb.size
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    # df = 3; the 99% critical value is 11.34
    assert chi2 < 11.34


def test_derive_relation_examples(qi, q5):
    fb = build_factor_base(qi, 10)
    i5 = next(i for i, P in enumerate(fb.primes)
              if P.norm == 5 and P.gen_poly == (3, 1))
    cfg = CollectionConfig(bound_B=10, k=1, A=1, beta=2)
    rels = derive_relation([i5], [1], cfg, qi, fb)
    assert len(rels) == 1
    x, pe = rels[0]
    assert abs(x.norm()) == 5  # x_v = 2+i up to units; cofactor is trivial
    assert rel_key(pe) == ((5, (3, 1), 1),)
    assert verify_relation(x, pe, qi)

    fb5 = build_factor_base(q5, 2)
    rels = derive_relation([0], [2], cfg, q5, fb5)
    assert len(rels) == 1
    x, pe = rels[0]
    assert abs(x.norm()) == 4 and list(pe.values()) == [2]  # <2> = p2^2


def test_derive_relation_nonsmooth_case():
    # disc -47: the reduction of p2^2 leaves a norm-3 cofactor, not 2-smooth
    K = parse_field([12, -1, 1])
    fb = build_factor_base(K, 2)
    cfg = CollectionConfig(bound_B=2, k=1, A=2, beta=2)
    out = []
    for i in range(fb.size):
        for e in (1, 2):
            out.extend(derive_relation([i], [e], cfg, K, fb))
    assert len(out) < 2 * fb.size  # at least one sample was rejected


def test_eq5_checker():
    # beta=2, n=2, |disc|=20: N(b) <= 2 * sqrt(20) = 8.94
    assert eq5_bound_holds(8, 2, 2, 20)
    assert not eq5_bound_holds(9, 2, 2, 20)


def test_multi_superset_and_cap(q5):
    fb = build_factor_base(q5, 12)
    cfg = CollectionConfig(bound_B=12, k=2, A=2, beta=2, mode="multi")
    for idxs, exps in [([0, 1], [1, 1]), ([1, 2], [2, 1]), ([0, 3], [1, 2])]:
        plain = derive_relation(idxs, exps, cfg, q5, fb)
        multi = derive_relation_multi(idxs, exps, cfg, q5, fb)
        n = q5.degree
        assert len(multi) <= (3 ** n - 1) // 2
        if plain:
            keys = {rel_key(pe) for _, pe in multi}
            assert rel_key(plain[0][1]) in keys
        for x, pe in multi:
            assert verify_relation(x, pe, q5)
        # deduplicated
        keys = [rel_key(pe) for _, pe in multi]
        assert len(keys) == len(set(keys))


def test_cheon_trivial_and_prime_cofactor(q5):
    fb = build_factor_base(q5, 12)
    cfg = CollectionConfig(bound_B=12, k=1, A=2, beta=2, mode="cheon")
    # smooth cofactor: cheon behaves exactly like plain
    plain = derive_relation([0], [2], cfg, q5, fb)
    cheon = derive_relation_cheon([0], [2], cfg, q5, fb)
    assert [rel_key(pe) for _, pe in plain] == [rel_key(pe) for _, pe in cheon]


def test_cheon_constructed_aux_column(q5):
    # base bound 3 excludes the ramified prime of norm 5; reducing its own
    # lattice finds the generator sqrt(-5), an immediate auxiliary relation
    fb = build_factor_base(q5, 3)
    cfg = CollectionConfig(bound_B=3, k=1, A=2, beta=2, mode="cheon")
    p5 = factor_prime(5, q5)[0]
    rels = cheon_presmooth_tail(p5.as_ideal(), cfg, q5, fb)
    assert rels
    for x, pe in rels:
        assert verify_relation(x, pe, q5)
        assert any(P.norm > 3 for P in pe)
    matrix = RelationMatrix(fb)
    matrix.add(*rels[0], (0, "cheon", (), ()))
    assert len(matrix.columns) == fb.size + 1


def test_collect_examples(qi, q5):
    fb = build_factor_base(qi, 10)
    cfg = CollectionConfig(bound_B=10, k=2, A=2, beta=2, rng_seed=7,
                           trial_budget=2000)
    M, stats = collect(qi, fb, cfg)
    assert len(M.rows) >= 2 * fb.size
    r, want = M.bach_rank()
    assert r == want
    from classgroup.intlinalg import class_group_from_relations
    assert class_group_from_relations(M).class_number == 1

    fb5 = build_factor_base(q5, 11)
    cfg5 = CollectionConfig(bound_B=11, k=2, A=2, beta=2, rng_seed=1,
                            trial_budget=4000)
    M5, _ = collect(q5, fb5, cfg5)
    assert class_group_from_relations(M5).class_number == 2


def test_collect_stalls_on_starved_budget(q5):
    fb = build_factor_base(q5, 12)
    cfg = CollectionConfig(bound_B=12, k=2, A=2, beta=2, rng_seed=1,
                           trial_budget=0)
    with pytest.raises(Stalled) as ei:
        collect(q5, fb, cfg)
    assert "trials" in ei.value.stats


def test_collect_deterministic(q23):
    fb = build_factor_base(q23, 15)

    def run(threads):
        cfg = CollectionConfig(bound_B=15, k=2, A=2, beta=2, rng_seed=11,
                               trial_budget=4000, threads=threads)
        M, _ = collect(q23, fb, cfg)
        return [(sorted(r.exponents.items()), r.generator.coords, r.provenance)
                for r in M.rows]

    a = run(1)
    b = run(1)
    c = run(4)
    assert a == b == c


def test_every_stored_relation_verifies(q23):
    fb = build_factor_base(q23, 15)
    cfg = CollectionConfig(bound_B=15, k=2, A=2, beta=2, rng_seed=4,
                           trial_budget=4000)
    M, _ = collect(q23, fb, cfg)
    for rel in M.rows:
        pe = {M.columns[i]: e for i, e in rel.exponents.items()}
        assert verify_relation(rel.generator, pe, q23)


def test_relation_dump(qi, tmp_path):
    import json
    fb = build_factor_base(qi, 10)
    cfg = CollectionConfig(bound_B=10, k=2, A=2, beta=2, rng_seed=7,
                           trial_budget=500)
    M, _ = collect(qi, fb, cfg, target_rows=4)
    p = tmp_path / "rels.jsonl"
    with open(p, "w") as f:
        M.dump_jsonl(f)
    lines = [json.loads(l) for l in p.read_text().splitlines()]
    assert len(lines) == len(M.rows)
    assert all("exponents" in l and "generator" in l and "provenance" in l
               for l in lines)


_CORRUPT_UNDER_O = """
from classgroup import relations
from classgroup.errors import VerificationFailed
from classgroup.field import parse_field
from classgroup.ideals import build_factor_base

assert not __debug__, "run with python -O"
K = parse_field([1, 0, 1])
fb = build_factor_base(K, 10)

def corrupt(idxs, exps, cfg, field, fb, embed_field=None, trial=0):
    rels = relations.derive_relation(idxs, exps, cfg, field, fb, embed_field,
                                     trial)
    return [(x, {P: e + 1 for P, e in pe.items()}) for x, pe in rels]

relations._DERIVERS["plain"] = corrupt
cfg = relations.CollectionConfig(bound_B=10, k=1, A=1, rng_seed=1)
try:
    relations.collect(K, fb, cfg)
except VerificationFailed as e:
    print("rejected:", e)
try:
    relations.verify_relation(K.zero(), {fb.primes[0]: 1}, K)
except VerificationFailed as e:
    print("rejected:", e)
"""


def test_exact_check_survives_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", _CORRUPT_UNDER_O],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert lines == ["rejected: relation from trial 0 failed exact "
                     "verification",
                     "rejected: relation generator is zero"], out.stdout

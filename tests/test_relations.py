import hashlib
import random
import threading
from fractions import Fraction

import pytest

from oracles import relations_by_cofactor
from under_O import run_under_O
from classgroup import ideals, relations
from classgroup.errors import Stalled, VerificationFailed
from classgroup.field import parse_field
from classgroup.ideals import (build_factor_base, factor_prime,
                               ideal_from_element, ideal_from_power_product,
                               is_smooth_ideal, unit_ideal)
from classgroup.relations import (CollectionConfig, collect,
                                  derive_relations, eq5_bound_holds,
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
    rels = derive_relations([i5], [1], cfg, qi, fb)
    assert len(rels) == 1
    x, pe = rels[0]
    assert abs(x.norm()) == 5  # x_v = 2+i up to units; cofactor is trivial
    assert rel_key(pe) == ((5, (3, 1), 1),)
    assert verify_relation(x, pe, qi)

    fb5 = build_factor_base(q5, 2)
    rels = derive_relations([0], [2], cfg, q5, fb5)
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
            out.extend(derive_relations([i], [e], cfg, K, fb))
    assert len(out) < 2 * fb.size  # at least one sample was rejected


def test_eq5_checker():
    # beta=2, n=2, |disc|=20: N(b) <= 2 * sqrt(20) = 8.94
    assert eq5_bound_holds(8, 2, 2, 20)
    assert not eq5_bound_holds(9, 2, 2, 20)


def test_multi_superset_and_cap(q5):
    fb = build_factor_base(q5, 12)
    cfg = CollectionConfig(bound_B=12, k=2, A=2, beta=2, mode="plain")
    cfg_multi = CollectionConfig(bound_B=12, k=2, A=2, beta=2, mode="multi")
    for idxs, exps in [([0, 1], [1, 1]), ([1, 2], [2, 1]), ([0, 3], [1, 2])]:
        plain = derive_relations(idxs, exps, cfg, q5, fb)
        multi = derive_relations(idxs, exps, cfg_multi, q5, fb)
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
    cfg = CollectionConfig(bound_B=12, k=1, A=2, beta=2, mode="plain")
    cfg_cheon = CollectionConfig(bound_B=12, k=1, A=2, beta=2, mode="cheon")
    # smooth cofactor: cheon behaves exactly like plain
    plain = derive_relations([0], [2], cfg, q5, fb)
    cheon = derive_relations([0], [2], cfg_cheon, q5, fb)
    assert [rel_key(pe) for _, pe in plain] == [rel_key(pe) for _, pe in cheon]


def test_collect_examples(qi, q5):
    fb = build_factor_base(qi, 10)
    cfg = CollectionConfig(bound_B=10, k=2, A=2, beta=2, rng_seed=7,
                           trial_budget=2000)
    M, stats = collect(qi, fb, cfg)
    assert len(M.rows) >= 2 * fb.size
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


# (trials, hits, sha256 over the rows) of q23, B=15, seed 2, 80 target rows
_PINNED = {
    "plain": (77, 77, "7a8bc9785ff642dcf0d39a48f72d3153ad01b1b2abcc3e27565ca58fbf0b39c9"),
    "multi": (38, 77, "f1d80a0b878cdb8dc824410cbda4dc135ed7697639cc0373bd11dd3c7691ba59"),
    "cheon": (77, 77, "bd557b065dd35c4d66c756fd5f305c194bb2a9348414caf05a3982c9ce863de9"),
}


def test_collect_modes_pinned(q23):
    fb = build_factor_base(q23, 15)
    for mode, want in _PINNED.items():
        cfg = CollectionConfig(bound_B=15, k=2, A=2, beta=2, rng_seed=2,
                               mode=mode, trial_budget=4000)
        M, stats = collect(q23, fb, cfg, target_rows=80)
        h = hashlib.sha256()
        for r in M.rows:
            h.update(repr((sorted(r.exponents.items()),
                           [str(c) for c in r.generator.coords],
                           r.provenance)).encode())
            pe = {M.columns[i]: e for i, e in r.exponents.items()}
            assert verify_relation(r.generator, pe, q23), (mode, r.provenance)
        assert (stats["trials"], stats["hits"], h.hexdigest()) == want, mode
        # collection ends at the row target, once the sweep is done
        assert len(M.rows) == 80 and stats["trials"] >= fb.size, mode


def test_free_rows_one_per_fully_based_prime(q23, monkeypatch):
    # q23: every base p is free; the Dedekind cubic: 2 splits completely
    # only in O_K, and a p = P*Q with N(P) <= B < N(Q) gives no free row;
    # zeta5: 2 is inert of norm 16 and 5 totally ramified
    left_out = set()
    for K, B in [(q23, 15), (_dedekind_cubic(), 20),
                 (parse_field([1, 1, 1, 1, 1]), 31)]:
        fb = build_factor_base(K, B)
        want = [p for p in sorted({P.p for P in fb.primes})
                if all(P.norm <= B for P in factor_prime(p, K))]
        left_out |= {P.p for P in fb.primes} - set(want)
        samples = []
        inner = relations.derive_relations

        def recorded(idxs, exps, *args):
            samples.append((tuple(idxs), tuple(exps)))
            return inner(idxs, exps, *args)

        monkeypatch.setattr(relations, "derive_relations", recorded)
        cfg = CollectionConfig(bound_B=B, k=2, A=2, beta=2, rng_seed=5,
                               trial_budget=4000)
        M, stats = collect(K, fb, cfg)
        free = [r for r in M.rows if r.provenance[1] == "free"]
        assert M.rows[:len(free)] == free
        assert stats["free"] == len(free) == len(want)
        assert stats["hits"] == len(M.rows) - len(free)
        for p, rel in zip(want, free):
            assert rel.generator == K.one() * p
            above = factor_prime(p, K)
            assert rel.exponents == {fb.index_of(P): P.ram_e for P in above}
            pe = {M.columns[i]: e for i, e in rel.exponents.items()}
            assert verify_relation(rel.generator, pe, K)
        # the sweep: trial t < |base| samples base prime t with exponent 1,
        # and every row of a trial records that trial's sample
        assert len(samples) == stats["trials"] >= fb.size
        for t in range(min(fb.size, stats["trials"])):
            idxs, exps = samples[t]
            assert t in idxs and exps[idxs.index(t)] == 1, (K.poly, t)
        for rel in M.rows[len(free):]:
            assert rel.provenance[2:] == samples[rel.provenance[0]]
        # a second call on the same matrix adds trial rows only
        n_rows = len(M.rows)
        M2, stats2 = collect(K, fb, cfg, matrix=M,
                             target_rows=n_rows + fb.size)
        assert M2 is M and stats2["free"] == 0
        assert [r for r in M.rows if r.provenance[1] == "free"] == free
        assert len(M.rows) == n_rows + stats2["hits"]
        monkeypatch.undo()
    assert left_out, "some base prime has a prime above it outside the base"


def test_corrupt_free_row_is_rejected(q23, monkeypatch):
    inner = relations.free_relations
    monkeypatch.setattr(relations, "free_relations", lambda K, fb: [
        (x, {P: e + 1 for P, e in pe.items()}) for x, pe in inner(K, fb)])
    fb = build_factor_base(q23, 15)
    cfg = CollectionConfig(bound_B=15, k=2, A=2, beta=2, rng_seed=5)
    with pytest.raises(VerificationFailed, match="free relation of 2 failed"):
        collect(q23, fb, cfg)


def test_shifted_valuation_is_caught_by_verify_relation(monkeypatch):
    # the congruence of the first prime above a split p under-counts by one,
    # so the valuation deduced from the norm at its conjugate is one too high
    # with the norm still consistent: only the tau-loop in verify_relation,
    # independent of the smoothness test, sees it
    inner = ideals._congruence_valuation
    monkeypatch.setattr(ideals, "_congruence_valuation", lambda *a: max(
        inner(*a) - 1, 0))
    K = parse_field([250001, -1, 1])
    fb = build_factor_base(K, 150)
    cfg = CollectionConfig(bound_B=150, k=2, A=2, beta=2, rng_seed=3)
    with pytest.raises(VerificationFailed,
                       match="relation from trial .* failed exact"):
        collect(K, fb, cfg)


def test_sample_ideal_sweep(q23):
    fb = build_factor_base(q23, 15)
    for k, A in ((1, 3), (2, 2), (fb.size, 2)):
        cfg = CollectionConfig(bound_B=15, k=k, A=A, rng_seed=3)
        rng = random.Random(9)
        seen = set()
        for t in list(range(fb.size)) * 20:
            idxs, exps = sample_ideal(fb, cfg, rng, t)
            assert idxs == sorted(set(idxs)) and len(idxs) == k
            assert exps[idxs.index(t)] == 1
            assert all(1 <= e <= A for e in exps)
            seen.update(i for i in idxs if i != t)
        assert seen == set(range(fb.size)) or k == 1
    # without a swept prime the draws are the uniform ones
    cfg = CollectionConfig(bound_B=15, k=2, A=2)
    rng, ref = random.Random(4), random.Random(4)
    for _ in range(50):
        idxs = sorted(ref.sample(range(fb.size), 2))
        assert sample_ideal(fb, cfg, rng) == (
            idxs, [ref.randint(1, 2) for _ in idxs])


def test_rank_checked_only_at_target(q23, monkeypatch):
    fb = build_factor_base(q23, 15)
    target = 80
    seen = []
    inner = relations.class_group_from_relations

    def counted(matrix):
        seen.append(len(matrix.rows))
        return inner(matrix)

    monkeypatch.setattr(relations, "class_group_from_relations", counted)
    cfg = CollectionConfig(bound_B=15, k=2, A=2, beta=2, rng_seed=2,
                           trial_budget=4000)
    _, stats = collect(q23, fb, cfg, target_rows=target)
    # the stop rule runs at the top of each window and once after the last
    windows = -(-stats["trials"] // relations._WINDOW)
    assert seen and all(n >= target for n in seen), seen
    assert len(seen) <= windows + 1


def test_window_ends_at_the_target_after_the_sweep(q23):
    # 3 free rows and a target of 4: the first window ends with the sweep,
    # and at seed 3 the rank is then full
    fb = build_factor_base(q23, 15)
    cfg = CollectionConfig(bound_B=15, k=2, A=2, beta=2, rng_seed=3,
                           trial_budget=4000)
    M, stats = collect(q23, fb, cfg, target_rows=4)
    assert stats["trials"] == fb.size
    assert len(M.rows) == 3 + fb.size


def test_rank_short_window_ends_at_its_first_row(q23):
    # at seeds 0 and 2 the rank is short after the sweep; the window after
    # it starts with the target met and ends at its first new row instead
    # of running all _WINDOW trials, and the rank is full within 8 trials
    fb = build_factor_base(q23, 15)
    for seed in (0, 2):
        cfg = CollectionConfig(bound_B=15, k=2, A=2, beta=2, rng_seed=seed,
                               trial_budget=4000)
        M, stats = collect(q23, fb, cfg, target_rows=4)
        assert fb.size < stats["trials"] <= 8, (seed, stats["trials"])
        assert len(M.rows) == 3 + stats["trials"]
        from classgroup.intlinalg import class_group_from_relations
        class_group_from_relations(M)


def test_multi_cap_keeps_the_prefix_and_stops_early(q23, monkeypatch):
    # a capped multi trial returns the first relations of the uncapped one
    # and tries no candidate after the cap-th relation
    fb = build_factor_base(q23, 15)
    cfg = CollectionConfig(bound_B=15, k=2, A=2, beta=2, mode="multi")
    tried = []
    inner = relations.is_smooth_ideal

    def recorded(x, fb, field, norm=None):
        tried.append(x)
        return inner(x, fb, field, norm)

    monkeypatch.setattr(relations, "is_smooth_ideal", recorded)
    rng = random.Random(6)
    capped_early = False
    for _ in range(20):
        idxs, exps = sample_ideal(fb, cfg, rng)
        tried.clear()
        full = derive_relations(idxs, exps, cfg, q23, fb)
        n_full = len(tried)
        for cap in range(1, len(full) + 1):
            tried.clear()
            got = derive_relations(idxs, exps, cfg, q23, fb, cap)
            assert ([(x.coords, rel_key(pe)) for x, pe in got]
                    == [(x.coords, rel_key(pe)) for x, pe in full[:cap]])
            # the last candidate tried is the one that gave the cap-th
            assert tried[-1].coords == got[-1][0].coords
            capped_early |= len(tried) < n_full
    assert capped_early


def test_collect_runs_on_the_calling_thread(q23, monkeypatch):
    # the thread count selects nothing: every trial is derived in place
    fb = build_factor_base(q23, 15)
    idents = []
    inner = relations.derive_relations

    def recorded(*args):
        idents.append(threading.get_ident())
        return inner(*args)

    monkeypatch.setattr(relations, "derive_relations", recorded)
    cfg = CollectionConfig(bound_B=15, k=2, A=2, beta=2, rng_seed=11,
                           trial_budget=4000, threads=4)
    _, stats = collect(q23, fb, cfg)
    assert len(idents) == stats["trials"] > 0
    assert set(idents) == {threading.get_ident()}


def test_every_stored_relation_verifies(q23):
    fb = build_factor_base(q23, 15)
    cfg = CollectionConfig(bound_B=15, k=2, A=2, beta=2, rng_seed=4,
                           trial_budget=4000)
    M, _ = collect(q23, fb, cfg)
    for rel in M.rows:
        pe = {M.columns[i]: e for i, e in rel.exponents.items()}
        assert verify_relation(rel.generator, pe, q23)


def test_smooth_test_and_verify_make_no_ideal_products(q23, monkeypatch):
    # valuations run on generators through the anti-uniformizer, so neither
    # the smoothness test nor the exact relation check multiplies ideals
    fb = build_factor_base(q23, 15)
    cfg = CollectionConfig(bound_B=15, k=2, A=2, beta=2, rng_seed=4)
    rng = random.Random(cfg.rng_seed)
    rels = []
    while not rels:
        rels = derive_relations(*sample_ideal(fb, cfg, rng), cfg, q23, fb)
    x, pe = rels[0]
    principal = ideal_from_element(x)
    calls = []
    for name in ("ideal_mul", "_ideal_product"):
        fn = getattr(ideals, name)
        monkeypatch.setattr(ideals, name, lambda *a, fn=fn, name=name: (
            calls.append(name), fn(*a))[1])
    exps = is_smooth_ideal(principal, fb, q23)
    assert {fb.primes[i]: e for i, e in exps.items()} == pe
    assert verify_relation(x, pe, q23)
    assert calls == []


def _dedekind_cubic():
    # x^3 - x^2 - 2x - 8 with basis {1, theta, (theta + theta^2)/2}; index 2
    half = Fraction(1, 2)
    return parse_field([-8, -2, -1, 1],
                       basis=[[1, 0, 0], [0, 1, 0], [0, half, half]])


def test_relations_match_cofactor_reference(monkeypatch):
    # the relation read off <x> is the one through b = <x>/a, and the same
    # candidates are rejected as not smooth
    fields = [([1, 0, 1], 10), ([6, -1, 1], 15), ([-1, -1, 0, 1], 20),
              ([1, 1, 1, 1, 1], 31)]
    fields = [(parse_field(c), B) for c, B in fields] + [(_dedekind_cubic(), 20)]
    tested = []
    inner = relations.is_smooth_ideal

    def recorded(x, fb, field, norm=None):
        out = inner(x, fb, field, norm)
        tested.append((x, out))
        return out

    monkeypatch.setattr(relations, "is_smooth_ideal", recorded)

    def coords(x):
        return tuple(x.coords)

    totals = {"relations": 0, "rejected": 0}
    for K, B in fields:
        fb = build_factor_base(K, B)
        for mode in ("plain", "multi"):
            cfg = CollectionConfig(bound_B=B, k=2, A=2, beta=2, mode=mode)
            rng = random.Random(B)
            for _ in range(12):
                idxs, exps = sample_ideal(fb, cfg, rng)
                want, rejected = relations_by_cofactor(idxs, exps, cfg, K, fb)
                tested.clear()
                got = derive_relations(idxs, exps, cfg, K, fb)
                assert ([(coords(x), rel_key(pe)) for x, pe in got]
                        == [(coords(x), rel_key(pe)) for x, pe in want])
                assert ([coords(x) for x, out in tested if out is None]
                        == [coords(x) for x in rejected])
                totals["relations"] += len(want)
                totals["rejected"] += len(rejected)
    assert totals["relations"] > 0 and totals["rejected"] > 0, totals


def test_plain_and_multi_build_no_cofactor_ideal(q23, monkeypatch):
    # plain and multi read relations off <x> alone and never build the
    # cofactor ideal b
    calls = []
    for module, name in ((relations, "ideal_divide_prime"),
                         (ideals, "ideal_divide_prime"),
                         (ideals, "ideal_from_element")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, fn=fn, name=name: (
            calls.append(name), fn(*a))[1])
    fb = build_factor_base(q23, 15)
    for mode in ("plain", "multi"):
        cfg = CollectionConfig(bound_B=15, k=2, A=2, beta=2, rng_seed=2,
                               mode=mode, trial_budget=4000)
        collect(q23, fb, cfg, target_rows=80)
    assert calls == []


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
from classgroup.analytic import euler_residue
from classgroup.errors import VerificationFailed
from classgroup.field import parse_field
from classgroup.ideals import build_factor_base

assert not __debug__, "run with python -O"
K = parse_field([1, 0, 1])
fb = build_factor_base(K, 10)

derive = relations.derive_relations

def corrupt(idxs, exps, cfg, field, fb, *args):
    rels = derive(idxs, exps, cfg, field, fb, *args)
    return [(x, {P: e + 1 for P, e in pe.items()}) for x, pe in rels]

relations.derive_relations = corrupt
cfg = relations.CollectionConfig(bound_B=10, k=1, A=1, rng_seed=1)
try:
    relations.collect(K, fb, cfg)
except VerificationFailed as e:
    print("rejected:", e)
try:
    relations.verify_relation(K.zero(), {fb.primes[0]: 1}, K)
except VerificationFailed as e:
    print("rejected:", e)
relations.derive_relations = derive
relations.eq5_bound_holds = lambda *args: False
try:
    relations.collect(K, fb, cfg)
except VerificationFailed as e:
    print("rejected:", e)
try:
    relations.CollectionConfig(bound_B=10, k=fb.size + 1).validate(fb)
except ValueError as e:
    print("rejected:", e)
try:
    euler_residue(K, 1)
except ValueError as e:
    print("rejected:", e)
"""


def test_exact_check_survives_python_O():
    lines = run_under_O(_CORRUPT_UNDER_O)
    assert lines == ["rejected: relation from trial 0 failed exact "
                     "verification",
                     "rejected: relation generator is zero",
                     "rejected: reduced cofactor ideal violates the norm "
                     "bound",
                     "rejected: k=5 larger than the factor base (4 primes)",
                     "rejected: prime bound 1 is below 2"
                     ], lines


def test_verify_relation_takes_the_integer_norm(qi, q23, cubic):
    rng = random.Random(11)
    dedekind = parse_field([-8, -2, -1, 1], basis=[
        [1, 0, 0], [0, 1, 0], [0, Fraction(1, 2), Fraction(1, 2)]])
    for K in (qi, q23, cubic, dedekind):
        for _ in range(20):
            x = K.element([rng.randint(-40, 40) for _ in range(K.degree)])
            if not x.is_zero:
                assert ideals.integral_norm(x)[0] == abs(x.norm())
    fb = build_factor_base(qi, 10)
    half = qi.element([Fraction(1, 2), 0])
    with pytest.raises(VerificationFailed, match="not integral"):
        verify_relation(half, {fb.primes[0]: 1}, qi)


def test_hit_rate_advisory_above_the_heuristic(tmp_path, caplog):
    # zeta7 at seed 3: every trial gives a relation (rate 1.0) against a
    # heuristic of about 0.027, more than ten times it
    import logging
    from conftest import field_file
    from classgroup import cli
    path = field_file(tmp_path, [1, 1, 1, 1, 1, 1, 1])
    with caplog.at_level(logging.INFO, logger="classgroup.relations"):
        res = cli.run_compute(cli.RunConfig(field_path=path, seed=3))
    (rnd,) = res.statistics["rounds"]
    assert rnd["hit_rate"] > 10 * rnd["predicted_rate"], rnd
    assert any("(advisory)" in r.getMessage() for r in caplog.records)


def test_plain_trials_build_no_fraction(monkeypatch):
    # a candidate is read back, normed and tested in integer coordinates:
    # no Fraction is constructed inside derive_relations on a plain collect
    # of Q(sqrt-1000003) at B = 150 or of zeta7 at its default bound, while
    # the counter does see an element built from a Fraction
    from classgroup import cli
    made = []
    new = Fraction.__new__
    inner = relations.derive_relations

    def counted(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    def derive(*args, **kwargs):
        monkeypatch.setattr(Fraction, "__new__", counted)
        try:
            return inner(*args, **kwargs)
        finally:
            monkeypatch.setattr(Fraction, "__new__", new)

    monkeypatch.setattr(relations, "derive_relations", derive)
    for coeffs, B in (([250001, -1, 1], 150), ([1] * 7, None)):
        K = parse_field(coeffs)
        B, beta = cli._bound_and_block(K, B, None)
        fb = build_factor_base(K, B)
        M, stats = collect(K, fb, CollectionConfig(bound_B=B, beta=beta,
                                                   rng_seed=3))
        assert stats["trials"] >= fb.size and stats["hits"] > 0
        assert made == [], (coeffs, len(made))
    monkeypatch.setattr(Fraction, "__new__", counted)
    K.element([Fraction(1, 2)] + [0] * (K.degree - 1))
    monkeypatch.setattr(Fraction, "__new__", new)
    assert made

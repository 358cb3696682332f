"""Relation collection: random power products of factor-base primes are
BKZ-reduced as ideal lattices; each short vector x_v with <x_v> = a*b and b
smooth over the base yields a row of the relation matrix.

Every stored relation passes an exact verification (norm identity plus
per-prime valuations) before it enters the matrix; nothing heuristic is
persisted.  Collection stops once the row count reaches K*|base| and the
submatrix of columns with norm below the Bach bound has full rational rank.

Modes: "plain" emits at most one relation per reduction, "multi" rescans
small combinations of the reduced basis whose embedding norm stays under the
block-reduction bound, and "cheon" routes non-smooth cofactor ideals through
HNF-sublattice reduction, adjoining their primes as auxiliary columns when
they fall outside the base.
"""

import json
import logging
import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .errors import (DeterminantTooLarge, PrecisionExhausted, Stalled,
                     VerificationFailed)
from .ideals import (factor_prime, ideal_divide_prime, ideal_from_element,
                     ideal_from_power_product, ideal_lattice, is_smooth_ideal,
                     valuation)
from .intlinalg import rank as matrix_rank
from .lattice import bkz, cheon_reduce, theorem_bound_holds
from .smoothness import heuristic_probability, smooth_part

logger = logging.getLogger(__name__)

_WINDOW = 32


@dataclass
class CollectionConfig:
    bound_B: int
    k: int = 2
    A: int = 2
    beta: int = 2
    multiplier_K: int = 2
    rng_seed: int = 0
    mode: str = "plain"  # plain | multi | cheon
    presmooth_bound: int = None  # cheon mode; defaults to |disc| (= Lnot(1,1))
    trial_budget: int = 10 ** 6
    threads: int = 1

    def validate(self, fb):
        assert self.k >= 1 and self.A >= 1
        assert self.mode in ("plain", "multi", "cheon")
        assert self.k <= fb.size, "k larger than the factor base"


@dataclass
class Relation:
    exponents: dict  # column index -> nonzero exponent
    generator: object  # AlgebraicNumber x_v
    provenance: tuple  # (trial, mode, sampled indices, sampled exponents)


class RelationMatrix:
    """Append-only store; columns are the factor-base primes plus any
    auxiliary primes adjoined by cheon mode."""

    def __init__(self, fb):
        self.fb = fb
        self.columns = list(fb.primes)
        self.bach_bound = fb.bach_bound
        self.rows = []
        self._col_index = {(P.p, P.gen_poly): i for i, P in enumerate(self.columns)}

    @property
    def fb_size(self):
        return self.fb.size

    def ensure_column(self, P):
        key = (P.p, P.gen_poly)
        if key not in self._col_index:
            self._col_index[key] = len(self.columns)
            self.columns.append(P)
        return self._col_index[key]

    def add(self, generator, prime_exponents, provenance):
        exps = {}
        for P, e in prime_exponents.items():
            if e:
                exps[self.ensure_column(P)] = e
        rel = Relation(exps, generator, provenance)
        self.rows.append(rel)
        return rel

    def dense_rows(self, col_filter=None):
        cols = range(len(self.columns)) if col_filter is None else col_filter
        cols = list(cols)
        pos = {c: i for i, c in enumerate(cols)}
        out = []
        for rel in self.rows:
            row = [0] * len(cols)
            for idx, e in rel.exponents.items():
                if idx in pos:
                    row[pos[idx]] = e
            out.append(row)
        return out

    def bach_rank(self):
        cols = [j for j, P in enumerate(self.columns) if P.norm <= self.bach_bound]
        if not cols:
            return 0, 0
        rows = self.dense_rows(cols)
        return matrix_rank(rows), len(cols)

    def dump_jsonl(self, fh):
        for rel in self.rows:
            fh.write(json.dumps({
                "exponents": {str(k): v for k, v in sorted(rel.exponents.items())},
                "generator": [str(c) for c in rel.generator.coords],
                "provenance": list(rel.provenance),
            }) + "\n")


def verify_relation(x, prime_exponents, field):
    """Exact check of <x> = prod P^e: norm identity and every valuation."""
    nx = abs(x.norm())
    if nx == 0:
        raise VerificationFailed("relation generator is zero")
    prod = 1
    for P, e in prime_exponents.items():
        prod *= P.norm ** e
    if prod != nx:
        return False
    for P, e in prime_exponents.items():
        if valuation(x, P) != e:
            return False
    return True


def sample_ideal(fb, cfg, rng):
    """k distinct primes, exponents uniform in 1..A; returns (indices,
    exponents).  Ideal norm is at most bound^(k*A) by construction."""
    idxs = sorted(rng.sample(range(fb.size), cfg.k))
    exps = [rng.randint(1, cfg.A) for _ in idxs]
    return idxs, exps


def _readback(a, transform_col, field):
    """Algebraic integer from a transform column over the HNF generators."""
    n = field.degree
    coords = [0] * n
    for t, u in enumerate(transform_col):
        if u:
            col = a.hnf_basis[t]
            for r in range(n):
                coords[r] += u * col[r]
    return field.element(coords)


def eq5_bound_holds(norm_b, beta, n, abs_disc):
    """Exact check of N(b) <= beta^(n(n-1)/(2(beta-1))) * sqrt|disc|."""
    return norm_b ** (2 * (beta - 1)) <= beta ** (n * (n - 1)) * abs_disc ** (beta - 1)


def _cofactor_ideal(x, idxs, exps, fb, field):
    """b with <x> = a*b for a = prod fb[idxs]^exps; exact divisions."""
    b = ideal_from_element(x)
    for i, e in zip(idxs, exps):
        for _ in range(e):
            b = ideal_divide_prime(b, fb.primes[i], field)
    return b


def _reduce_ideal(a, beta, field, embed_field):
    """BKZ-reduce sigma(a); returns (reduced basis, report).  Precision
    escalates once before giving up."""
    try:
        L = ideal_lattice(a, embed_field)
    except PrecisionExhausted:
        embed_field = embed_field.with_precision(embed_field.precision * 2)
        L = ideal_lattice(a, embed_field)
    beta = max(2, min(beta, field.degree))
    return bkz(L, beta)


def _shortest_cofactor(idxs, exps, cfg, field, fb, embed_field):
    """Reduce the sampled ideal a; returns (x, b) for the shortest reduced
    vector x and the cofactor ideal b with <x> = a*b."""
    a = ideal_from_power_product(fb, idxs, exps, field)
    red, _ = _reduce_ideal(a, cfg.beta, field, embed_field)
    norms2 = [sum(c * c for c in col) for col in red.columns]
    j = norms2.index(min(norms2))
    x = _readback(a, [red.transform[t][j] for t in range(len(red.columns))], field)
    assert not x.is_zero
    b = _cofactor_ideal(x, idxs, exps, fb, field)
    n = field.degree
    beta = max(2, min(cfg.beta, n))
    assert eq5_bound_holds(b.norm, beta, n, abs(field.discriminant)), \
        "reduced cofactor ideal violates the norm bound"
    return x, b


def _relation_exponents(b, idxs, exps, field, fb):
    """{PrimeIdeal: e} of a*b, for a = prod fb[idxs]^exps, when the cofactor
    b is smooth over the base; None otherwise."""
    e2 = is_smooth_ideal(b, fb, field)
    if e2 is None:
        return None
    out = {}
    for i, e in zip(idxs, exps):
        out[fb.primes[i]] = out.get(fb.primes[i], 0) + e
    for i, e in e2.items():
        out[fb.primes[i]] = out.get(fb.primes[i], 0) + e
    return out


def derive_relation(idxs, exps, cfg, field, fb, embed_field=None, trial=0):
    """Algorithm-1 step: returns [(x_v, {PrimeIdeal: e})] with 0 or 1 entry."""
    x, b = _shortest_cofactor(idxs, exps, cfg, field, fb, embed_field or field)
    out = _relation_exponents(b, idxs, exps, field, fb)
    return [] if out is None else [(x, out)]


def derive_relation_multi(idxs, exps, cfg, field, fb, embed_field=None, trial=0):
    """Remark-4.4 variant: also tests +-1 combinations of the reduced basis
    whose embedding norm stays below the block-reduction bound."""
    embed_field = embed_field or field
    a = ideal_from_power_product(fb, idxs, exps, field)
    red, _ = _reduce_ideal(a, cfg.beta, field, embed_field)
    n = field.degree
    beta = max(2, min(cfg.beta, n))
    gram = red.gram()
    results = []
    seen = set()
    k = len(red.columns)
    # candidate coefficient boxes: at most (3^k - 1)/2 sign-canonical vectors
    def boxes(depth):
        if depth == 0:
            yield ()
            return
        for rest in boxes(depth - 1):
            for v in (-1, 0, 1):
                yield (v,) + rest
    from .polynomials import bareiss_det
    det_gram = bareiss_det(gram)
    for w in boxes(k):
        if all(v == 0 for v in w):
            continue
        top = next(v for v in reversed(w) if v != 0)
        if top < 0:
            continue  # sign-canonical representative
        n2 = 0
        for i in range(k):
            if w[i]:
                for j in range(k):
                    if w[j]:
                        n2 += w[i] * w[j] * gram[i][j]
        if not theorem_bound_holds(n2, beta, k, det_gram):
            continue
        col = [sum(w[t] * red.transform[t2][t] for t in range(k))
               for t2 in range(k)]
        # col are coefficients over the *input* basis columns of the lattice,
        # i.e. over the HNF generators of a
        x = _readback(a, col, field)
        if x.is_zero:
            continue
        b = _cofactor_ideal(x, idxs, exps, fb, field)
        out = _relation_exponents(b, idxs, exps, field, fb)
        if out is None:
            continue
        key = tuple(sorted((P.p, P.gen_poly, e) for P, e in out.items()))
        if key in seen:
            continue
        seen.add(key)
        results.append((x, out))
    return results


def derive_relation_cheon(idxs, exps, cfg, field, fb, embed_field=None, trial=0):
    """Section-6 variant: when b is not smooth over the base but factors below
    the presmoothing bound, reduce each prime factor's own lattice (HNF
    sublattice trick where the determinant permits, plain BKZ otherwise)."""
    embed_field = embed_field or field
    x, b = _shortest_cofactor(idxs, exps, cfg, field, fb, embed_field)
    out = _relation_exponents(b, idxs, exps, field, fb)
    if out is not None:
        return [(x, out)]
    return cheon_presmooth_tail(b, cfg, field, fb, embed_field)


def cheon_presmooth_tail(b, cfg, field, fb, embed_field=None):
    """Factor a non-base-smooth ideal b over the presmoothing bound and derive
    one relation per prime factor whose own reduction has a base-smooth
    cofactor.  Prime factors outside the base become auxiliary columns."""
    embed_field = embed_field or field
    btilde = cfg.presmooth_bound or abs(field.discriminant)
    res = smooth_part(b.norm, max(btilde, 2))
    if res.cofactor != 1:
        return []
    factors = []
    check = 1
    for p in res.smooth_part:
        for P in factor_prime(p, field):
            v = valuation(b, P, field)
            if v:
                factors.append((P, v))
                check *= P.norm ** v
    if check != b.norm:
        return []
    results = []
    beta = max(2, min(cfg.beta, field.degree))
    for P, _v in factors:
        L = ideal_lattice(P.as_ideal(), embed_field)
        try:
            vec, rep2 = cheon_reduce(L, beta)
            coeffs = _solve_int_columns(L.columns, vec)
        except DeterminantTooLarge:
            red2, rep2 = bkz(L, beta)
            norms2 = [sum(c * c for c in col) for col in red2.columns]
            j2 = norms2.index(min(norms2))
            coeffs = [red2.transform[t][j2] for t in range(len(red2.columns))]
        x_i = _readback(P.as_ideal(), coeffs, field)
        if x_i.is_zero:
            continue
        c_i = ideal_divide_prime(ideal_from_element(x_i), P, field)
        e3 = is_smooth_ideal(c_i, fb, field)
        if e3 is None:
            continue
        out = {P: 1}
        for i, e in e3.items():
            out[fb.primes[i]] = out.get(fb.primes[i], 0) + e
        results.append((x_i, out))
    return results


def _solve_int_columns(cols, target):
    """Integer coefficients c with sum c_j cols[j] = target (exact solve)."""
    n = len(target)
    mat = [[Fraction(cols[j][i]) for j in range(len(cols))] for i in range(n)]
    from .field import invert_fractions
    inv = invert_fractions(mat)
    out = []
    for j in range(len(cols)):
        v = sum(inv[j][i] * target[i] for i in range(n))
        assert v.denominator == 1, "vector not in the lattice span"
        out.append(v.numerator)
    return out


_DERIVERS = {
    "plain": derive_relation,
    "multi": derive_relation_multi,
    "cheon": derive_relation_cheon,
}


def collect(field, fb, cfg, matrix=None, target_rows=None):
    """Run sample/derive until the row target and the Bach-prefix rank are
    both met.  Deterministic for a fixed (field, fb, cfg) including seed;
    thread count does not change the result."""
    cfg.validate(fb)
    rng = random.Random(cfg.rng_seed)
    matrix = matrix or RelationMatrix(fb)
    if target_rows is None:
        target_rows = cfg.multiplier_K * fb.size
    derive = _DERIVERS[cfg.mode]
    trials = 0
    hits = 0
    stats = {"trials": 0, "hits": 0, "mode": cfg.mode}

    def stop_ok():
        if len(matrix.rows) < target_rows:
            return False
        r, want = matrix.bach_rank()
        return r == want

    pool = ThreadPoolExecutor(max_workers=cfg.threads) if cfg.threads > 1 else None
    try:
        while not stop_ok():
            if trials >= cfg.trial_budget:
                stats.update(trials=trials, hits=hits,
                             rows=len(matrix.rows), target=target_rows)
                raise Stalled(
                    f"budget {cfg.trial_budget} exhausted: {hits} relations "
                    f"from {trials} trials", stats)
            window = [sample_ideal(fb, cfg, rng) for _ in range(_WINDOW)]
            base_trial = trials

            def work(args):
                i, (idxs, exps) = args
                return derive(idxs, exps, cfg, field, fb, trial=base_trial + i)

            if pool is not None:
                results = list(pool.map(work, enumerate(window)))
            else:
                results = [work(t) for t in enumerate(window)]
            for i, ((idxs, exps), rels) in enumerate(zip(window, results)):
                trials += 1
                for x, prime_exps in rels:
                    if not verify_relation(x, prime_exps, field):
                        raise VerificationFailed(
                            f"relation from trial {base_trial + i} failed "
                            "exact verification")
                    matrix.add(x, prime_exps,
                               (base_trial + i, cfg.mode, tuple(idxs), tuple(exps)))
                    hits += 1
            r, want = matrix.bach_rank()
            logger.info("collect: trials=%d hits=%d rows=%d/%d bach_rank=%d/%d",
                        trials, hits, len(matrix.rows), target_rows, r, want)
    finally:
        if pool is not None:
            pool.shutdown()
    stats.update(trials=trials, hits=hits, rows=len(matrix.rows))
    if trials:
        rate = hits / trials
        n = field.degree
        beta = max(2, min(cfg.beta, n))
        bound_b = math.exp((n * (n - 1)) / (2 * (beta - 1)) * math.log(beta)) \
            * math.sqrt(abs(field.discriminant))
        pred = heuristic_probability(max(2, int(bound_b)), fb.bound)
        stats["hit_rate"] = rate
        stats["predicted_rate"] = pred
        if rate > 0 and not (0.1 * pred <= rate <= 10 / max(pred, 1e-30)):
            logger.info("smoothness hit rate %.3g vs heuristic %.3g "
                        "(advisory)", rate, pred)
    return matrix, stats

"""Relation collection: random power products a of factor-base primes are
BKZ-reduced as ideal lattices; each short vector x_v with <x_v> = a*b and b
smooth over the base yields a row of the relation matrix: the valuations of
x_v.  N(b) = |N(x_v)|/N(a) is checked against eq. (5).

The rows generate the relation lattice from the first window on (Hafner-
McCurley; Buchmann; Cohen GTM 138, Section 6.5).  A fresh matrix starts with
the free relations <p> = prod P^(e_P), one for each rational p whose primes
all lie in the base; they need no reduction.  Then, in each collection call,
trial t < |base| samples base prime t with exponent 1 (the sweep), so every
base prime enters some relation with exponent 1; later trials are drawn
uniformly.

Every stored relation passes an exact verification (norm identity plus
per-prime valuations) before it enters the matrix; nothing heuristic is
persisted.  Collection stops once the row count reaches K*|base| and the
submatrix of columns with norm below the Bach bound has full rational rank.
Trials run in windows of 32, and the rank is checked between windows.  A
window that starts short of the row count or inside the sweep ends at the
first trial after which the row count is reached and the sweep is done; a
window that starts with both (the rank was short) runs all 32 trials.  A
trial keeps at most the rows still missing from the count, and at least
one, and a multi-mode trial stops trying candidates once it has them.

One deriver serves every mode; a mode is a set of candidate vectors plus an
optional tail.  "plain" and "cheon" try the shortest reduced vector, "multi"
also tries the small +-1 combinations of the reduced basis whose embedding
norm stays under the block-reduction bound (Remark 4.4).  In "cheon" mode a
non-smooth cofactor ideal goes to the presmoothing tail (Section 6), which
reduces each of its prime factors' own lattices and adjoins those primes as
auxiliary columns when they fall outside the base; only that tail builds b.
"""

import itertools
import json
import logging
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (DeterminantTooLarge, PrecisionExhausted, Stalled,
                     VerificationFailed)
from .field import invert_fractions
from .ideals import (factor_prime, ideal_divide_prime, ideal_from_element,
                     ideal_from_power_product, ideal_lattice, integral_norm,
                     is_smooth_ideal, valuation)
from .intlinalg import rank as matrix_rank
from .lattice import _exact_quadratic, bkz, cheon_reduce, theorem_bound_holds
from .polynomials import bareiss_det
from .smoothness import heuristic_probability, smooth_part

logger = logging.getLogger(__name__)

_WINDOW = 32


@dataclass
class CollectionConfig:
    """Collection parameters.  `threads` is accepted for compatibility and
    has no effect: every trial runs on the calling thread."""
    bound_B: int
    k: int = 2
    A: int = 2
    beta: int = 2
    multiplier_K: int = 2
    rng_seed: int = 0
    mode: str = "plain"  # plain | multi | cheon
    trial_budget: int = 10 ** 6
    threads: int = 1

    def validate(self, fb):
        if self.k < 1 or self.A < 1:
            raise ValueError(f"k={self.k} and A={self.A} must be at least 1")
        if self.mode not in ("plain", "multi", "cheon"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.k > fb.size:
            raise ValueError(f"k={self.k} larger than the factor base "
                             f"({fb.size} primes)")


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

    def dense_rows(self):
        out = []
        for rel in self.rows:
            row = [0] * len(self.columns)
            for idx, e in rel.exponents.items():
                row[idx] = e
            out.append(row)
        return out

    def bach_rank(self):
        cols = {j for j, P in enumerate(self.columns) if P.norm <= self.bach_bound}
        if not cols:
            return 0, 0
        rows = [{j: e for j, e in rel.exponents.items() if j in cols}
                for rel in self.rows]
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
    nx = integral_norm(x)[0]
    if nx == 0:
        raise VerificationFailed("relation generator is zero")
    if math.prod(P.norm ** e for P, e in prime_exponents.items()) != nx:
        return False
    for P, e in prime_exponents.items():
        if valuation(x, P) != e:
            return False
    return True


def sample_ideal(fb, cfg, rng, sweep=None):
    """k distinct primes, exponents uniform in 1..A; returns (indices,
    exponents).  Ideal norm is at most bound^(k*A) by construction.  With
    `sweep`, base prime `sweep` is one of the k, with exponent 1, and the
    other k-1 primes and their exponents are drawn from the rest."""
    if sweep is None:
        idxs = sorted(rng.sample(range(fb.size), cfg.k))
        return idxs, [rng.randint(1, cfg.A) for _ in idxs]
    others = rng.sample(range(fb.size - 1), cfg.k - 1)
    idxs = sorted([sweep] + [i + (i >= sweep) for i in others])
    return idxs, [1 if i == sweep else rng.randint(1, cfg.A) for i in idxs]


def free_relations(field, fb):
    """The free relations <p> = prod P^(e_P), one per rational p whose
    primes all lie in the base (sum e_P*f_P = n over the base primes above
    p); returns [(p as a field element, {PrimeIdeal: e_P})] by increasing p."""
    one = field.one().coords
    out = []
    for p in sorted({P.p for P in fb.primes}):
        above = fb.primes_above(p)
        if sum(P.ram_e * P.res_f for P in above) == field.degree:
            out.append((field.element([p * c for c in one]),
                        {P: P.ram_e for P in above}))
    return out


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


def _lattice_of(a, field):
    """sigma(a) as a scaled-integer basis.  An ambiguous rounding escalates
    once, to field.doubled(), which is built once per field; an ambiguity
    there too raises PrecisionExhausted."""
    try:
        return ideal_lattice(a, field)
    except PrecisionExhausted:
        pass
    try:
        return ideal_lattice(a, field.doubled())
    except PrecisionExhausted as e:
        raise PrecisionExhausted(
            f"ideal lattice still ambiguous at {2 * field.precision} bits") from e


def _reduce_ideal(a, beta, field):
    """BKZ-reduce sigma(a); returns the reduced basis."""
    return bkz(_lattice_of(a, field), beta)[0]


def _shortest_column(red):
    """Transform column of the shortest vector of a reduced basis."""
    norms2 = [sum(c * c for c in col) for col in red.columns]
    j = norms2.index(min(norms2))
    return [row[j] for row in red.transform]


def _candidates(red, mode, beta):
    """Coefficient columns over the input basis of the reduced lattice: the
    shortest reduced vector, or in multi mode every sign-canonical +-1
    combination of the reduced basis under the block-reduction bound (at
    most (3^k - 1)/2 of them)."""
    if mode != "multi":
        yield _shortest_column(red)
        return
    k = len(red.columns)
    gram = red.gram()
    det_gram = bareiss_det(gram)
    # the first coordinate varies fastest; the last nonzero one is positive
    for rev in itertools.product((-1, 0, 1), repeat=k):
        if next((v for v in rev if v), 0) <= 0:
            continue
        w = rev[::-1]
        if theorem_bound_holds(_exact_quadratic(gram, w), beta, k, det_gram):
            yield [sum(w[t] * red.transform[t2][t] for t in range(k))
                   for t2 in range(k)]


def derive_relations(idxs, exps, cfg, field, fb, cap=None):
    """Algorithm-1 step in every mode: reduce a = prod fb[idxs]^exps once and
    try each candidate vector x; <x> = a*b gives a relation, the factorization
    of <x>, when <x> is smooth over the base.  In cheon mode a non-smooth b
    goes to the presmoothing tail.  Returns [(x_v, {PrimeIdeal: e})] without
    duplicate relations; with `cap`, the candidates stop at the cap-th."""
    a = ideal_from_power_product(fb, idxs, exps, field)
    n = field.degree
    beta = max(2, min(cfg.beta, n))
    red = _reduce_ideal(a, beta, field)
    results = []
    seen = set()
    for col in _candidates(red, cfg.mode, beta):
        x = _readback(a, col, field)
        if x.is_zero:
            raise VerificationFailed("reduced vector is zero")
        norm_b, r = divmod(integral_norm(x)[0], a.norm)
        if r:
            raise VerificationFailed("N(a) does not divide N(x)")
        if not eq5_bound_holds(norm_b, beta, n, abs(field.discriminant)):
            raise VerificationFailed(
                "reduced cofactor ideal violates the norm bound")
        smooth = is_smooth_ideal(x, fb, field)
        if smooth is None:
            if cfg.mode == "cheon":
                b = _cofactor_ideal(x, idxs, exps, fb, field)
                return cheon_presmooth_tail(b, cfg, field, fb)
            continue
        out = {fb.primes[i]: v for i, v in smooth.items()}
        key = tuple(sorted((P.p, P.gen_poly, e) for P, e in out.items()))
        if key not in seen:
            seen.add(key)
            results.append((x, out))
            if len(results) == cap:
                break
    return results


def cheon_presmooth_tail(b, cfg, field, fb):
    """Section-6 tail: factor a non-base-smooth ideal b over the presmoothing
    bound |disc| (= Lnot(1, 1)) and derive one relation per prime factor
    whose own reduction (HNF sublattice trick where the determinant permits,
    plain BKZ otherwise) has a base-smooth cofactor.  Prime factors outside
    the base become auxiliary columns."""
    res = smooth_part(b.norm, max(abs(field.discriminant), 2))
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
        L = _lattice_of(P.as_ideal(), field)
        try:
            coeffs = _solve_int_columns(L.columns, cheon_reduce(L, beta)[0])
        except DeterminantTooLarge:
            coeffs = _shortest_column(bkz(L, beta)[0])
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
    inv = invert_fractions(mat)
    out = []
    for j in range(len(cols)):
        v = sum(inv[j][i] * target[i] for i in range(n))
        if v.denominator != 1:
            raise VerificationFailed("vector not in the lattice span")
        out.append(v.numerator)
    return out


def collect(field, fb, cfg, matrix=None, target_rows=None):
    """Run sample/derive until the row target and the Bach-prefix rank are
    both met.  A fresh matrix (matrix=None) first gets the free relations,
    which count toward the row target but not as trials or hits (stats
    "free"); trial t < |base| sweeps base prime t with exponent 1.  The
    rank is checked between windows of _WINDOW trials; a window that starts
    below the row target or inside the sweep ends after the first trial
    that leaves rows >= target and trials >= |base|, and any other window
    runs in full.  Deterministic for a fixed (field, fb, cfg) including
    seed; every trial runs on the calling thread, and cfg.threads has no
    effect."""
    cfg.validate(fb)
    rng = random.Random(cfg.rng_seed)
    free = 0
    if matrix is None:
        matrix = RelationMatrix(fb)
        for x, prime_exps in free_relations(field, fb):
            if not verify_relation(x, prime_exps, field):
                raise VerificationFailed(
                    f"free relation of {next(iter(prime_exps)).p} failed "
                    "exact verification")
            matrix.add(x, prime_exps,
                       (None, "free", tuple(map(fb.index_of, prime_exps)),
                        tuple(prime_exps.values())))
        free = len(matrix.rows)
    if target_rows is None:
        target_rows = cfg.multiplier_K * fb.size
    trials = 0
    hits = 0
    stats = {"trials": 0, "hits": 0, "free": free, "mode": cfg.mode}
    while True:
        # the one stop check; the rank is computed only at the row target
        rank = None
        if len(matrix.rows) >= target_rows:
            rank = matrix.bach_rank()
        if trials:
            logger.info("collect: trials=%d hits=%d rows=%d/%d%s", trials,
                        hits, len(matrix.rows), target_rows,
                        "" if rank is None else " bach_rank=%d/%d" % rank)
        if rank is not None and rank[0] == rank[1]:
            break
        if trials >= cfg.trial_budget:
            stats.update(trials=trials, hits=hits,
                         rows=len(matrix.rows), target=target_rows)
            raise Stalled(
                f"budget {cfg.trial_budget} exhausted: {hits} relations "
                f"from {trials} trials", stats)
        # a window that starts short of the row target or inside the sweep
        # ends at the first trial that completes both
        short = len(matrix.rows) < target_rows or trials < fb.size
        for _ in range(_WINDOW):
            idxs, exps = sample_ideal(fb, cfg, rng,
                                      trials if trials < fb.size else None)
            cap = max(1, target_rows - len(matrix.rows))
            # a module-global lookup, so a replaced deriver takes effect
            rels = derive_relations(idxs, exps, cfg, field, fb, cap)
            for x, prime_exps in rels[:cap]:
                if not verify_relation(x, prime_exps, field):
                    raise VerificationFailed(
                        f"relation from trial {trials} failed exact "
                        "verification")
                matrix.add(x, prime_exps,
                           (trials, cfg.mode, tuple(idxs), tuple(exps)))
                hits += 1
            trials += 1
            if short and len(matrix.rows) >= target_rows and trials >= fb.size:
                break
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

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
class group reads off the rows, which is left in `RelationMatrix.group`.
Trials run in windows of at most 32, and the group is tried between
windows.  A window ends at the first trial after which the row count is
reached, the sweep is done and the window has added a row.  A trial keeps
at most the rows still missing from the count, and at least one, and a
multi-mode trial stops trying candidates once it has them.

One deriver serves every mode; a mode is a set of candidate vectors.
"plain" tries the shortest reduced vector, "multi" also tries the small +-1
combinations of the reduced basis whose embedding norm stays under the
block-reduction bound (Remark 4.4).  A relation is read off <x_v> alone, so
the cofactor b is never built, and the matrix columns are the base primes.
"""

import itertools
import json
import logging
import math
import random
from dataclasses import dataclass

from .errors import (PrecisionExhausted, RankDeficient, Stalled,
                     VerificationFailed)
from .ideals import (ideal_from_power_product, ideal_lattice, integral_norm,
                     is_smooth_ideal, valuation)
from .intlinalg import class_group_from_relations
from .lattice import _exact_quadratic, bkz, theorem_bound_holds
from .polynomials import bareiss_det
from .smoothness import heuristic_probability

# Not called here: the benchmark tracer (perfbench/spans.py) wraps these
# four bindings of this module by name, and tests/test_bench_bindings.py
# checks that they resolve; _TRACED_ONLY reads them, as tests/test_imports.py
# requires of every import.
from .ideals import ideal_divide_prime
from .intlinalg import rank as matrix_rank
from .lattice import cheon_reduce
from .smoothness import smooth_part

_TRACED_ONLY = (cheon_reduce, ideal_divide_prime, matrix_rank, smooth_part)

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
    # plain | multi; "cheon" is accepted as an alias of plain, since the
    # benchmark's collect-modes item cheon-t1 still passes it
    mode: str = "plain"
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
    """Append-only store; the columns are the factor-base primes.  `group`
    is the class group that the last `collect` read off the rows."""

    def __init__(self, fb):
        self.fb = fb
        self.columns = list(fb.primes)
        self.bach_bound = fb.bach_bound
        self.rows = []
        self.group = None

    def add(self, generator, prime_exponents, provenance):
        exps = {self.fb.index_of(P): e
                for P, e in prime_exponents.items() if e}
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
    coords = [c.numerator for c in x.coords]
    for P, e in prime_exponents.items():
        if valuation(coords, P) != e:
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
        if fb.holds_every_prime_above(p):
            out.append((field.element([p * c for c in one]),
                        {P: P.ram_e for P in fb.primes_above(p)}))
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


def _reduce_ideal(a, beta, field, stats=None):
    """BKZ-reduce sigma(a); returns the reduced basis, and counts a
    full-scale retry in stats["full_scale_retries"] when stats is given."""
    red, report = bkz(_lattice_of(a, field), beta)
    if stats is not None:
        stats["full_scale_retries"] += report.full_scale_retry
    return red


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


def derive_relations(idxs, exps, cfg, field, fb, cap=None, stats=None):
    """Algorithm-1 step in every mode: reduce a = prod fb[idxs]^exps once and
    try each candidate vector x; <x> = a*b gives a relation, the factorization
    of <x>, when <x> is smooth over the base.  Returns
    [(x_v, {PrimeIdeal: e})] without duplicate relations; with `cap`, the
    candidates stop at the cap-th; with `stats`, a full-scale BKZ retry is
    counted there (_reduce_ideal).  x is read back in integer coordinates,
    and |N(x)| is the determinant of its multiplication columns; a plain
    trial has one candidate, so only multi mode keys out duplicates."""
    a = ideal_from_power_product(fb, idxs, exps, field)
    n = field.degree
    beta = max(2, min(cfg.beta, n))
    red = _reduce_ideal(a, beta, field, stats)
    results = []
    seen = set() if cfg.mode == "multi" else None
    for col in _candidates(red, cfg.mode, beta):
        x = _readback(a, col, field)
        if not any(x.coords):
            raise VerificationFailed("reduced vector is zero")
        nx = abs(bareiss_det(field.mult_columns(x.coords)))
        norm_b, r = divmod(nx, a.norm)
        if r:
            raise VerificationFailed("N(a) does not divide N(x)")
        if not eq5_bound_holds(norm_b, beta, n, abs(field.discriminant)):
            raise VerificationFailed(
                "reduced cofactor ideal violates the norm bound")
        smooth = is_smooth_ideal(x, fb, field, nx)
        if smooth is None:
            continue
        out = {fb.primes[i]: v for i, v in smooth.items()}
        if seen is not None:
            key = tuple(sorted((P.p, P.gen_poly, e) for P, e in out.items()))
            if key in seen:
                continue
            seen.add(key)
        results.append((x, out))
        if len(results) == cap:
            break
    return results


def collect(field, fb, cfg, matrix=None, target_rows=None):
    """Run sample/derive until rows >= target, the sweep is done and the
    class group reads off the rows (left in matrix.group).  A fresh matrix
    (matrix=None) first gets the free relations, which count toward the row
    target but not as trials or hits (stats "free"); trial t < |base| sweeps
    base prime t with exponent 1.  The group is tried between windows of at
    most _WINDOW trials, once rows >= target and trials >= |base| (a multi
    trial can add several rows); a window ends after the first trial that
    leaves both and a row added in the window.
    stats "hit_rate" is the share of trials that gave at least one row, a
    probability like "predicted_rate"; "beta" is the block size that ran and
    "full_scale_retries" counts the reductions whose rounded copy was
    refused (lattice.bkz).  Deterministic for a fixed
    (field, fb, cfg) including seed; every trial runs on the calling
    thread, and cfg.threads has no effect."""
    cfg.validate(fb)
    rng = random.Random(cfg.rng_seed)
    n = field.degree
    beta = max(2, min(cfg.beta, n))
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
    productive = 0  # trials that gave at least one row
    stats = {"trials": 0, "hits": 0, "free": free, "mode": cfg.mode,
             "beta": beta, "full_scale_retries": 0}
    while True:
        # the one stop check, once both are met; RankDeficient: collect on
        group = check = None
        if len(matrix.rows) >= target_rows and trials >= fb.size:
            try:
                group = class_group_from_relations(matrix)
                check = f"h={group.class_number}"
            except RankDeficient as e:
                check = f"short ({e})"
        if trials:
            logger.info("collect: trials=%d hits=%d rows=%d/%d%s", trials,
                        hits, len(matrix.rows), target_rows,
                        "" if check is None else " check=" + check)
        if group is not None:
            matrix.group = group
            break
        if trials >= cfg.trial_budget:
            stats.update(trials=trials, hits=hits,
                         rows=len(matrix.rows), target=target_rows)
            raise Stalled(
                f"budget {cfg.trial_budget} exhausted: {hits} relations "
                f"from {trials} trials", stats)
        start = len(matrix.rows)
        for _ in range(_WINDOW):
            idxs, exps = sample_ideal(fb, cfg, rng,
                                      trials if trials < fb.size else None)
            cap = max(1, target_rows - len(matrix.rows))
            # a module-global lookup, so a replaced deriver takes effect
            rels = derive_relations(idxs, exps, cfg, field, fb, cap,
                                    stats)[:cap]
            for x, prime_exps in rels:
                if not verify_relation(x, prime_exps, field):
                    raise VerificationFailed(
                        f"relation from trial {trials} failed exact "
                        "verification")
                matrix.add(x, prime_exps,
                           (trials, cfg.mode, tuple(idxs), tuple(exps)))
                hits += 1
            productive += bool(rels)
            trials += 1
            rows = len(matrix.rows)
            if rows >= target_rows and trials >= fb.size and rows > start:
                break
    stats.update(trials=trials, hits=hits, rows=len(matrix.rows))
    if trials:
        rate = productive / trials
        bound_b = math.exp((n * (n - 1)) / (2 * (beta - 1)) * math.log(beta)) \
            * math.sqrt(abs(field.discriminant))
        pred = heuristic_probability(max(2, int(bound_b)), fb.bound)
        stats["hit_rate"] = rate
        stats["predicted_rate"] = pred
        if rate > 0 and not (0.1 * pred <= rate <= 10 * pred):
            logger.info("smoothness hit rate %.3g vs heuristic %.3g "
                        "(advisory)", rate, pred)
    return matrix, stats

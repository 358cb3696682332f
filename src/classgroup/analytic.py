"""Analytic side of the computation: truncated Euler product for the residue
of the Dedekind zeta function, torsion-unit count, regulator from relation
kernels, and the class-number-formula ratio test.

The ratio compares the candidate h*Reg against the residue approximation:

    ratio = 2^r1 (2 pi)^r2 h Reg / (w sqrt|disc| residue)

Candidates are always integer multiples of the truth (both h and Reg shrink
by integer factors as relations are added), so ACCEPT iff the ratio lies in
(2^-1/2, 2^1/2): the geometric midpoint between the correct value 1 and the
smallest possible corruption 2.
"""

import math
from dataclasses import dataclass

from . import polynomials as poly
from .errors import PrecisionExhausted, ZeroVolume
from .field import iv_endpoints
from .ideals import factor_prime, ideal_lattice, integral_norm, unit_ideal
from .lattice import GramLLL, _gram_of, enumerate_gram
from .polynomials import primes_up_to

ACCEPT_LO = 2 ** -0.5
ACCEPT_HI = 2 ** 0.5
_ROOT_ORDER_CAP = 100  # largest order m tried in the power test x^m = 1


@dataclass
class AnalyticData:
    residue_approx: float
    prime_bound: int
    w_K: int
    unit_rank: int
    regulator: float = None


def euler_residue(field, prime_bound):
    """Truncated Euler product prod_p (1-1/p) / prod_{P|p} (1-1/N(P)) as the
    exact fraction prod (p-1) prod N(P) / (prod p prod (N(P)-1)), rounded
    once to a float: int true division rounds correctly.  The residue
    degrees are the degree pattern of T mod p (distinct-degree
    factorization, or the Legendre symbol of disc(T) for quadratics), or,
    for primes dividing the index, come from the prime ideals that
    factor_prime splits off O_K/pO_K."""
    if prime_bound < 2:
        raise ValueError(f"prime bound {prime_bound} is below 2")
    T = list(field.poly)
    num, den = [], []
    for p in primes_up_to(prime_bound):
        num.append(p - 1)
        den.append(p)
        if field.index % p == 0:
            norms = [P.norm for P in factor_prime(p, field)]
        else:
            norms = [p ** d for d in poly.degree_pattern(T, p)]
        num.extend(norms)
        den.extend(norm - 1 for norm in norms)
    return _balanced_product(num) / _balanced_product(den)


def _balanced_product(xs):
    """Product of a list of ints by pairing neighbours level by level, so
    that large factors meet only near the top; a running product would be
    quadratic in the total size."""
    while len(xs) > 1:
        pairs = [a * b for a, b in zip(xs[::2], xs[1::2])]
        if len(xs) % 2:
            pairs.append(xs[-1])
        xs = pairs
    return xs[0] if xs else 1


def count_roots_of_unity(field):
    """Number of torsion units: lattice points of sigma(O_K) with squared
    norm exactly n (all conjugates on the unit circle), filtered by an exact
    power test x^m = 1 over candidate orders m with phi(m) | n."""
    n = field.degree
    L = ideal_lattice(unit_ideal(field), field)
    s = L.scale_bits
    radius2 = n * (1 << (2 * s)) + (1 << (2 * s - 1))  # slack covers rounding
    red = GramLLL(L.gram())
    red.reduce()
    cands, _ = enumerate_gram(red, bound2_exact=radius2)
    orders = [m for m in range(1, _ROOT_ORDER_CAP + 1) if n % _phi(m) == 0]
    one = field.one()
    count = 0
    for coeffs, _n2 in cands:
        coords = [sum(red.U[t][i] * coeffs[i] for i in range(len(coeffs)))
                  for t in range(n)]
        x = field.element(coords)
        if integral_norm(x)[0] != 1:
            continue
        for m in orders:
            if x ** m == one:
                count += 2  # the enumeration is sign-canonical: x and -x
                break
    assert count % 2 == 0 and count >= 2
    return count


def _phi(m):
    out = 1
    mm = m
    for p in range(2, m + 1):
        if p * p > mm:
            break
        if mm % p == 0:
            e = 0
            while mm % p == 0:
                mm //= p
                e += 1
            out *= (p - 1) * p ** (e - 1)
    if mm > 1:
        out *= mm - 1
    return out


def log_embedding(field, x):
    """Unit-log vector of length r1 + r2: log|sigma_i(x)| at real places and
    log(|sigma_i(x)|^2) at complex places (the usual d_i weights)."""
    ctx = field.iv
    reals, cplx = field.embedding_data(x)
    out = []
    for v in reals:
        av = abs(v)
        lo, _ = iv_endpoints(av)
        if lo <= 0:
            raise PrecisionExhausted("embedding interval touches zero")
        out.append(ctx.log(av))
    for re, im in cplx:
        m2 = re * re + im * im
        lo, _ = iv_endpoints(m2)
        if lo <= 0:
            raise PrecisionExhausted("embedding interval touches zero")
        out.append(ctx.log(m2))
    return out


_LOG_SCALE_BITS = 64
_UNIT_LOG_TOL = 1e-9


def regulator_from_kernel(kernel, generators, field, logs=None):
    """Regulator (or an integer multiple) of the unit-log lattice generated by
    the kernel units u_v = prod generators^v.

    Kernel rows combine the generators' log vectors exactly (intervals); a
    scaled-integer LLL with an identity block recovers a reduced generating
    set together with the combinations that produced it, near-zero vectors
    (torsion/dependencies, verified against the intervals) are removed, and
    the regulator is the absolute determinant of the first unit_rank
    coordinates of what remains.  Raises ZeroVolume when fewer than unit_rank
    independent vectors survive.

    `logs` maps generators to their log vectors and is filled in as it goes;
    a caller that passes the same dict to every round computes each
    generator's log_embedding once."""
    r1, r2 = field.signature
    r = r1 + r2
    unit_rank = r - 1
    if unit_rank == 0:
        return 1.0
    if not kernel:
        raise ZeroVolume("no kernel vectors")
    ctx = field.iv
    if logs is None:
        logs = {}
    for g in generators:
        if g not in logs:
            logs[g] = log_embedding(field, g)
    gen_logs = [logs[g] for g in generators]
    unit_logs = [_combine(ctx, v, gen_logs, r) for v in kernel]
    scale = 1 << _LOG_SCALE_BITS
    rows = []
    for vec in unit_logs:
        row = []
        for iv in vec:
            lo, hi = iv_endpoints(iv)
            if (hi - lo) * scale > 1:
                raise PrecisionExhausted("unit log interval too wide")
            mid = (lo + hi) / 2 * scale
            row.append(round(mid))
        rows.append(row)
    k = len(rows)
    # [scaled logs | identity] keeps the rows independent and records the
    # combination each reduced vector came from
    aug = [row + [1 if i == j else 0 for j in range(k)] for i, row in enumerate(rows)]
    red = GramLLL(_gram_of(aug))
    red.reduce()
    survivors = []
    for j in range(k):
        combo = [red.U[t][j] for t in range(k)]
        vec = [sum(combo[t] * rows[t][c] for t in range(k)) for c in range(r)]
        norm2 = sum(v * v for v in vec)
        if norm2 <= (1 << (_LOG_SCALE_BITS + 20)):
            # candidate dependency: confirm against exact intervals
            exact = _combine(ctx, combo, unit_logs, r)
            his = [max(abs(lo), abs(hi)) for lo, hi in map(iv_endpoints, exact)]
            if max(his) > _UNIT_LOG_TOL:
                raise PrecisionExhausted(
                    "ambiguous unit-log vector between noise and signal")
            continue
        survivors.append(combo)
    if len(survivors) < unit_rank:
        raise ZeroVolume(
            f"kernel spans {len(survivors)} < {unit_rank} unit-log directions")
    if len(survivors) > unit_rank:
        raise PrecisionExhausted(
            "more independent unit-log vectors than the unit rank")
    # determinant of the first unit_rank coordinates, exact intervals
    minor = [_combine(ctx, combo, unit_logs, r)[:unit_rank]
             for combo in survivors]
    det = _interval_det(ctx, minor)
    lo, hi = iv_endpoints(det)
    val = abs(float((lo + hi) / 2))
    if val <= _UNIT_LOG_TOL:
        raise ZeroVolume("unit-log determinant vanishes")
    return val


def _combine(ctx, coeffs, vecs, r):
    """sum_j coeffs[j] * vecs[j] over intervals of length r, from zero in
    the order of j, skipping zero coefficients."""
    acc = [ctx.mpf(0) for _ in range(r)]
    for c, vec in zip(coeffs, vecs):
        if c:
            for t in range(r):
                acc[t] += c * vec[t]
    return acc


def _interval_det(ctx, mat):
    n = len(mat)
    if n == 0:
        return ctx.mpf(1)
    if n == 1:
        return mat[0][0]
    det = ctx.mpf(0)
    for j in range(n):
        sub = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * _interval_det(ctx, sub)
        det = det + term if j % 2 == 0 else det - term
    return det


def compute_analytic(field, prime_bound):
    r1, r2 = field.signature
    return AnalyticData(
        residue_approx=euler_residue(field, prime_bound),
        prime_bound=prime_bound,
        w_K=count_roots_of_unity(field),
        unit_rank=r1 + r2 - 1,
    )


def verify(h_candidate, reg_candidate, analytic, field):
    """Class-number-formula ratio test; ACCEPT iff ratio in (2^-1/2, 2^1/2)."""
    r1, r2 = field.signature
    ratio = (2 ** r1 * (2 * math.pi) ** r2 * h_candidate * reg_candidate) / (
        analytic.w_K * math.sqrt(abs(field.discriminant)) * analytic.residue_approx)
    verdict = ACCEPT_LO < ratio < ACCEPT_HI
    return ratio, "ACCEPT" if verdict else "REJECT"

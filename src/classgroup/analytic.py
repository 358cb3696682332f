"""Analytic side of the computation: truncated Euler product for the residue
of the Dedekind zeta function, torsion-unit count, regulator from relation
kernels, and the class-number-formula ratio test.

The ratio compares the candidate h*Reg against the residue approximation:

    ratio = 2^r1 (2 pi)^r2 h Reg / (w sqrt|disc| residue)

Candidates are always integer multiples of the truth (both h and Reg shrink
by integer factors as relations are added), so ACCEPT iff the ratio lies in
(2^-1/2, 2^1/2): the geometric midpoint between the correct value 1 and the
smallest possible corruption 2.

The regulator works in integers: unit logs are interval logs of the field's
integer embedding, kept as integer centres and radii, and their minor's
determinant is a Bareiss determinant with a Hadamard error bound.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from . import polynomials as poly
from .errors import PrecisionExhausted, VerificationFailed, ZeroVolume
from .field import combine_columns, combine_enclosures, iv_scaled
from .ideals import factor_prime, ideal_lattice, integral_norm, unit_ideal
from .lattice import GramLLL, _gram_of, enumerate_gram
from .polynomials import primes_up_to

ACCEPT_LO = 2 ** -0.5
ACCEPT_HI = 2 ** 0.5
_ROOT_ORDER_CAP = 100  # largest order m tried in the power test x^m = 1
# Euler's phi(m) up to the cap: the residues mod m coprime to m
_PHI = [sum(math.gcd(k, m) == 1 for k in range(m))
        for m in range(_ROOT_ORDER_CAP + 1)]


@dataclass
class AnalyticData:
    residue_approx: float
    prime_bound: int
    w_K: int
    unit_rank: int


def euler_residue(field, prime_bound):
    """Truncated Euler product prod_p (1-1/p) / prod_{P|p} (1-1/N(P)) as one
    exact fraction, rounded once to a float: int true division rounds
    correctly.  Each N(P) is a power of p, so the local factor at p is
    (prod N(P) / p) / (prod (N(P)-1) / (p-1)) in integers; it is left out
    when it is 1, as at a totally ramified p.  The residue degrees are the
    degree pattern of T mod p (distinct-degree factorization, or the
    Legendre symbol of disc(T) for quadratics), or, for primes dividing the
    index, come from the prime ideals that factor_prime splits off
    O_K/pO_K."""
    if prime_bound < 2:
        raise ValueError(f"prime bound {prime_bound} is below 2")
    T = list(field.poly)
    disc = poly.discriminant(T)
    num, den = [], []
    for p in primes_up_to(prime_bound):
        if field.index % p == 0:
            norms = [P.norm for P in factor_prime(p, field)]
        else:
            norms = [p ** d for d in poly.degree_pattern(T, p, disc)]
        top = math.prod(norms) // p
        bottom = math.prod(norm - 1 for norm in norms) // (p - 1)
        if top != bottom:
            num.append(top)
            den.append(bottom)
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
    orders = [m for m in range(1, _ROOT_ORDER_CAP + 1) if n % _PHI[m] == 0]
    one = field.one()
    u_cols = list(zip(*red.U))
    count = 0
    for coeffs, _n2 in cands:
        x = field.element(combine_columns(u_cols, coeffs))
        if integral_norm(x)[0] != 1:
            continue
        for m in orders:
            if x ** m == one:
                count += 2  # the enumeration is sign-canonical: x and -x
                break
    if count < 2:
        raise VerificationFailed(
            f"found {count} roots of unity; -1 and 1 are always there")
    return count


def log_embedding(field, x):
    """Unit-log vector of length r1 + r2 of an algebraic integer x:
    log|sigma_i(x)| at real places and log(|sigma_i(x)|^2) at complex places
    (the usual d_i weights), one interval log per place of the integer bounds
    from field.embed: |V| -+ R at a real place, and at a pair the bounds of
    (A^2 + B^2)/2 over its coordinates A = sqrt2*Re and B = sqrt2*Im."""
    if not x.is_integral:
        raise ValueError("log_embedding needs an algebraic integer")
    r1 = field.signature[0]
    scale = 1 << (field.precision + field.embedding_table()[2])
    sigma = list(zip(*field.embed([c.numerator for c in x.coords])))
    bounds = [(abs(v) - r, abs(v) + r, scale) for v, r in sigma[:r1]]
    for (va, ra), (vb, rb) in zip(sigma[r1::2], sigma[r1 + 1::2]):
        lo = max(abs(va) - ra, 0) ** 2 + max(abs(vb) - rb, 0) ** 2
        hi = (abs(va) + ra) ** 2 + (abs(vb) + rb) ** 2
        bounds.append((lo, hi, 2 * scale * scale))
    if min(lo for lo, _, _ in bounds) <= 0:
        raise PrecisionExhausted("embedding interval touches zero")
    return [field.iv.log(field.frac_iv(Fraction(lo, den), Fraction(hi, den)))
            for lo, hi, den in bounds]


_LOG_SCALE_BITS = 64
_UNIT_LOG_TOL = 1e-9


def regulator_from_kernel(kernel, generators, field, logs=None):
    """Regulator (or an integer multiple) of the unit-log lattice generated by
    the kernel units u_v = prod generators^v.

    Logs are integer centres within integer radii at scale 2^(precision+64),
    so kernel rows combine them exactly.  An LLL with an identity block, on
    the logs rounded to 64 fractional bits, gives a reduced generating set
    and its combinations; near-zero vectors (|centre| + radius <= 1e-9 at
    every place) are dependencies, and the regulator is the Bareiss |det|
    of the rest's first unit_rank centres, within det_error_bound.  Raises
    ZeroVolume when fewer than unit_rank independent vectors survive.

    `logs` maps generators to their scaled log vectors and is filled in as
    it goes; a caller that passes the same dict to every round computes each
    generator's log_embedding once."""
    r1, r2 = field.signature
    unit_rank = r1 + r2 - 1
    if unit_rank == 0:
        return 1.0
    if not kernel:
        raise ZeroVolume("no kernel vectors")
    bits = field.precision + _LOG_SCALE_BITS
    if logs is None:
        logs = {}
    for g in generators:
        if g not in logs:
            logs[g] = tuple(zip(*(iv_scaled(v, 1 << bits)
                                  for v in log_embedding(field, g))))
    gen_c, gen_r = zip(*(logs[g] for g in generators))
    unit_c, unit_r = zip(*(combine_enclosures(v, gen_c, gen_r) for v in kernel))
    shift = bits - _LOG_SCALE_BITS
    if 2 * max(map(max, unit_r)) > 1 << shift:
        raise PrecisionExhausted("unit log interval too wide")
    rows = [[(c + (1 << (shift - 1))) >> shift for c in cs] for cs in unit_c]
    k = len(rows)
    # [scaled logs | identity] keeps the rows independent and records the
    # combination each reduced vector came from
    aug = [row + [1 if i == j else 0 for j in range(k)] for i, row in enumerate(rows)]
    red = GramLLL(_gram_of(aug))
    red.reduce()
    tol = math.ldexp(_UNIT_LOG_TOL, bits)
    survivors = []
    for j in range(k):
        combo = [red.U[t][j] for t in range(k)]
        vec = combine_columns(rows, combo)
        centres, radii = combine_enclosures(combo, unit_c, unit_r)
        if sum(v * v for v in vec) > 1 << (_LOG_SCALE_BITS + 20):
            survivors.append((centres[:unit_rank], radii[:unit_rank]))
        elif any(abs(c) + r > tol for c, r in zip(centres, radii)):
            raise PrecisionExhausted(
                "ambiguous unit-log vector between noise and signal")
    if len(survivors) < unit_rank:
        raise ZeroVolume(
            f"kernel spans {len(survivors)} < {unit_rank} unit-log directions")
    if len(survivors) > unit_rank:
        raise PrecisionExhausted(
            "more independent unit-log vectors than the unit rank")
    centres, radii = zip(*survivors)
    det = abs(poly.bareiss_det(centres))
    reg = det / (1 << (bits * unit_rank))
    if reg <= _UNIT_LOG_TOL:
        raise ZeroVolume("unit-log determinant vanishes")
    if det_error_bound(centres, radii) << 64 > det:
        raise PrecisionExhausted("unit-log determinant not certified")
    return reg


def det_error_bound(centres, radii):
    """E with |det(centres + X) - det(centres)| <= E for every X with
    |X_ij| <= radii[i][j].  Expanding det(C + X) row by row, the terms that
    take a nonempty set of rows from X are bounded by Hadamard's inequality,
    and together by prod(|c_i| + |x_i|) - prod |c_i|, which grows with each
    row norm; so upper bounds on |c_i| and |r_i| give E."""
    full = base = 1
    for c, r in zip(centres, radii):
        # the row norms rounded up: ceil(sqrt(s)) = isqrt(s - 1) + 1, s > 0
        nc, nr = (math.isqrt(s - 1) + 1 if s else 0
                  for s in (sum(x * x for x in c), sum(x * x for x in r)))
        full *= nc + nr
        base *= nc
    return full - base


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

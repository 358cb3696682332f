"""Analytic side of the computation: truncated Euler product for the residue
of the Dedekind zeta function, torsion-unit count, regulator from relation
kernels, and the class-number-formula ratio test.

The ratio compares the candidate h*Reg against the residue approximation:

    ratio = 2^r1 (2 pi)^r2 h Reg / (w sqrt|disc| residue)

Candidates are always integer multiples of the truth (both h and Reg shrink
by integer factors as relations are added), so ACCEPT iff the ratio lies in
(2^-1/2, 2^1/2): the geometric midpoint between the correct value 1 and the
smallest possible corruption 2.

The regulator works in integers: unit logs are fixed-point logs (an atanh
series after scaling by a power of 2) of the bounds from the field's integer
embedding, kept as integer centres and radii, and their minor's determinant
is a Bareiss determinant with a Hadamard error bound.
"""

import functools
import math
from dataclasses import dataclass

from . import polynomials as poly
from .errors import PrecisionExhausted, VerificationFailed, ZeroVolume
from .field import combine_columns, combine_enclosures
from .ideals import factor_prime, ideal_lattice, unit_ideal
from .lattice import GramLLL, _gram_of, enumerate_gram
from .polynomials import primes_up_to

ACCEPT_LO = 2 ** -0.5
ACCEPT_HI = 2 ** 0.5


@dataclass
class AnalyticData:
    residue_approx: float
    prime_bound: int
    w_K: int
    unit_rank: int


def euler_residue(field, prime_bound):
    """Truncated Euler product prod_p (1-1/p) / prod_{P|p} (1-1/N(P)) as one
    exact fraction, rounded once to a float: int true division rounds
    correctly.  With N(P) = p^f for the residue degrees f of the primes
    above p, the local factor at p is p^(sum f - 1) / (prod (p^f - 1) /
    (p - 1)) in integers; it is 1, and left out, when sum f = 1, as at a
    totally ramified p.  The residue degrees are the degree patterns of T
    mod p, all primes in one polynomials.pattern_groups pass, with disc(T)
    read off the field as disc(O_K) * index^2: a bulk
    parity pass settles every quadratic (and a cubic at (disc/p) = -1),
    and per block of the other primes one Frobenius walk and the traces of
    one Berlekamp matrix, which count the roots of T in each F_(p^d), give
    the rest.  At primes dividing the index they are those of the prime
    ideals that factor_prime splits off O_K/pO_K.  The local factors are
    formed in bulk, one list per pattern."""
    if prime_bound < 2:
        raise ValueError(f"prime bound {prime_bound} is below 2")
    T = list(field.poly)
    primes = primes_up_to(prime_bound)
    index = field.index
    above = [p for p in primes if index % p == 0] if index > 1 else []
    groups = poly.pattern_groups(
        T, [p for p in primes if index % p] if above else primes,
        field.discriminant * index ** 2)
    for p in above:
        degs = tuple(sorted(P.res_f for P in factor_prime(p, field)))
        groups.setdefault(degs, []).append(p)
    num, den = [], []
    for degs, ps in groups.items():
        k = sum(degs) - 1
        if k == 0:
            continue
        num += ps if k == 1 else [p ** k for p in ps]
        f, *rest = degs
        if f == 1:  # (p - 1) / (p - 1) = 1: start from another f
            f = rest.pop()
            bottom = [p ** f - 1 for p in ps]
        else:
            bottom = [(p ** f - 1) // (p - 1) for p in ps]
        for f in rest:
            bottom = [b * (p ** f - 1) for b, p in zip(bottom, ps)]
        den += bottom
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
    """Number of torsion units.  A real place maps the roots of unity
    injectively into {1, -1}, so a field with r1 > 0 has exactly 2.
    Otherwise w divides g = _torsion_bound(field), and g = 2 settles w = 2.
    Else the roots of unity are the lattice points of sigma(O_K) with
    squared norm exactly n (all conjugates on the unit circle), each
    enumerated x tested by x^g = 1 in integer coordinates; the count must
    divide g."""
    if field.signature[0]:
        return 2
    g = _torsion_bound(field)
    if g == 2:
        return 2
    n = field.degree
    L = ideal_lattice(unit_ideal(field), field)
    s = L.scale_bits
    radius2 = n * (1 << (2 * s)) + (1 << (2 * s - 1))  # slack covers rounding
    red = GramLLL(L.gram())
    red.reduce()
    cands, _ = enumerate_gram(red, bound2_exact=radius2)
    one = [c.numerator for c in field.one().coords]
    u_cols = list(zip(*red.U))
    count = 0
    for coeffs, _n2 in cands:
        if _power(field, combine_columns(u_cols, coeffs), g) == one:
            count += 2  # the enumeration is sign-canonical: x and -x
    if count < 2:
        raise VerificationFailed(
            f"found {count} roots of unity; -1 and 1 are always there")
    if g % count:
        raise VerificationFailed(
            f"found {count} roots of unity, which do not divide {g}")
    return count


_TORSION_PRIMES = 32  # primes p > n + 1 whose residue degrees bound w


def _torsion_bound(field):
    """g = gcd(N(P) - 1) over the primes P above the first _TORSION_PRIMES
    primes p > n + 1 that do not divide disc(T), so that the residue
    degrees f are the degree patterns of T mod p.  The roots of unity of
    O_K map injectively into (O_K/P)^* when p does not divide w, and a
    prime q dividing w has q - 1 = phi(q) <= n, so w | p^f - 1 for each f
    in each pattern; as gcd(p^a - 1, p^b - 1) = p^gcd(a, b) - 1, one gcd
    per pattern does."""
    T = list(field.poly)
    disc = field.discriminant * field.index ** 2
    bound = 256
    while True:
        primes = [p for p in primes_up_to(bound)
                  if p > field.degree + 1 and disc % p][:_TORSION_PRIMES]
        if len(primes) == _TORSION_PRIMES:
            break
        bound *= 2
    g = 0
    for degs, ps in poly.pattern_groups(T, primes, disc).items():
        f = math.gcd(*degs)
        for p in ps:
            g = math.gcd(g, p ** f - 1)
    return g


def _power(field, x, e):
    """x^e, e >= 1, for x in integer coordinates, by square-and-multiply
    through field.multiply."""
    out = x
    for bit in bin(e)[3:]:
        out = field.multiply(out, out)
        if bit == "1":
            out = field.multiply(out, x)
    return out


_LOG_SCALE_BITS = 64
_LOG_GUARD_BITS = 16
_UNIT_LOG_TOL = 1e-9


def log_embedding(field, x):
    """Unit-log vector of length r1 + r2 of an algebraic integer x:
    log|sigma_i(x)| at real places and log(|sigma_i(x)|^2) at complex places
    (the usual d_i weights), as integer pairs (c, r) with
    |2^bits log_i(x) - c| <= r, bits = precision + _LOG_SCALE_BITS.  Each
    place has integer bounds from field.embed: |V| -+ R at a real place, and
    at a pair the bounds of (A^2 + B^2)/2 over its coordinates A = sqrt2*Re
    and B = sqrt2*Im; log is increasing, so (c, r) spans the fixed-point log
    of the lower bound less its error and that of the upper one plus its."""
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
    bits = field.precision + _LOG_SCALE_BITS
    out = []
    for lo, hi, den in bounds:
        v, err = _ln_fixed(lo, den, bits)
        v2, err2 = _ln_fixed(hi, den, bits)
        lo, hi = v - err, v2 + err2
        c = (lo + hi) >> 1
        out.append((c, max(hi - c, c - lo)))
    return out


def _ln_fixed(a, q, bits):
    """(v, err) with |2^bits ln(a/q) - v| <= err, for integers a, q >= 1, by
    argument reduction and the atanh series (Brent, J. ACM 1976).  At the
    working width w = bits + _LOG_GUARD_BITS and e = bitlen(a) - bitlen(q),
    M = floor(a 2^(w-e) / q) lies in [2^(w-1), 2^(w+1)), so
    z = (M - 2^w)/(M + 2^w) has |z| <= 1/3, and
    ln(a/q) = 2 atanh(z) + e ln 2 + (ln of the floor's loss, in [0, 2^(1-w))).
    The series runs on |z| and takes z's sign after: a floored negative
    term would stop at -1, never at 0."""
    w = bits + _LOG_GUARD_BITS
    e = a.bit_length() - q.bit_length()
    m = (a << (w - e)) // q if e <= w else a // (q << (e - w))
    one = 1 << w
    s, err = _atanh_fixed(abs(m - one), m + one, w)
    ln2, err2 = _ln2_fixed(w)
    v = 2 * (s if m >= one else -s) + e * ln2
    err = 2 * err + 2 + abs(e) * err2
    g = _LOG_GUARD_BITS
    return (v + (1 << (g - 1))) >> g, -(-err >> g) + 1


@functools.lru_cache(maxsize=None)
def _ln2_fixed(w):
    """(v, err) with |2^w ln 2 - v| <= err: ln 2 = 2 atanh(1/3)."""
    s, err = _atanh_fixed(1, 3, w)
    return 2 * s, 2 * err


def _atanh_fixed(num, den, w):
    """(s, err) with |2^w atanh(num/den) - s| <= err, for 0 <= num/den <=
    1/3: the series sum z^(2k+1)/(2k+1) at 2^-w, summed while its terms are
    nonzero.  With z^2 <= 1/9 each of the k terms is within 2 units after
    its two floors (a power of z, then the division); the floor of z moves
    the sum by under 9/8 of a unit and the dropped tail is under 1."""
    z = (num << w) // den
    z2 = (z * z) >> w
    s = term = z
    k = 1
    while term:
        term = (term * z2) >> w
        s += term // (2 * k + 1)
        k += 1
    return s, 2 * k + 3


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
            logs[g] = tuple(zip(*log_embedding(field, g)))
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

"""Independent oracles for the test suite.

Everything here is deliberately implemented by a different route than the
library: class numbers by counting reduced binary quadratic forms,
fundamental units by continued fractions or bounded-height search, HNF/SNF and
ranks mod p by plain elementary operations, shortest vectors by exhaustive
coefficient boxes, Dickman rho by marching quadrature, and ideal valuations
and prime divisions by lattice containment and products with p*P^(-1) over
Fraction arithmetic, degree patterns mod p by the kernels of powers of
Berlekamp's matrix, relations through the cofactor ideal b = <x>/a, the
embedding and unit logs by interval Horner evaluation of the power-basis
polynomial at the root balls (mpmath intervals around the certified root
disks; the library has no interval arithmetic), presentations
theta' = a(theta) by exact linear algebra on the powers of theta',
structure constants by Fraction long division and Gauss-Jordan,
rank-2 BKZ by the general path's LLL sweep and 2-block tours.
"""

import functools
import itertools
import math
import random
from fractions import Fraction


def class_number_imag_quadratic(D):
    """h(D) by counting reduced primitive forms (a,b,c), b^2-4ac = D < 0."""
    assert D < 0 and D % 4 in (0, 1)
    h = 0
    b = D % 2
    while b * b <= -D // 3 + 1:
        m = b * b - D
        if m % 4 == 0:
            ac = m // 4
            a = max(b, 1)
            while a * a <= ac:
                if a != 0 and ac % a == 0:
                    c = ac // a
                    if a <= c and math.gcd(math.gcd(a, b), c) == 1:
                        if b == 0 or a == b or a == c:
                            h += 1  # ambiguous: only +b counted
                        else:
                            h += 2  # (a, +-b, c)
                a += 1
        b += 2
    return h


def pell_fundamental_unit(d):
    """Smallest unit > 1 of Z[sqrt(d)] for squarefree d ≢ 1 mod 4, via the
    continued fraction of sqrt(d).  Returns (x, y, norm) with x^2-d y^2=norm."""
    a0 = math.isqrt(d)
    assert a0 * a0 != d
    m, q, a = 0, 1, a0
    p_prev, p = 1, a0
    q_prev, qq = 0, 1
    while True:
        m = a * q - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        p_prev, p = p, a * p + p_prev
        q_prev, qq = qq, a * qq + q_prev
        norm = p_prev * p_prev - d * q_prev * q_prev
        if abs(norm) == 1:
            return p_prev, q_prev, norm


def _reduced_indefinite_forms(D):
    s = math.isqrt(D)
    forms = set()
    for b in range(1, s + 1):
        if (b * b - D) % 4 != 0:
            continue
        m = (b * b - D) // 4  # = a*c < 0
        for a in range(1, s + 1):
            if m % a == 0:
                for aa in (a, -a):
                    c = m // aa
                    if abs(s - 2 * abs(aa)) < b <= s and \
                            math.gcd(math.gcd(abs(aa), b), abs(c)) == 1:
                        forms.add((aa, b, c))
    return forms


def _rho_step(form, D):
    a, b, c = form
    s = math.isqrt(D)
    two_c = 2 * abs(c)
    r0 = (-b) % two_c
    if r0 > s:
        r = r0 - two_c
    else:
        r = r0 + two_c * ((s - r0) // two_c)
    return (c, r, (r * r - D) // (4 * c))


def class_number_real_quadratic(d):
    """h of Q(sqrt d) for squarefree d ≢ 1 mod 4: reduced indefinite form
    cycles give the narrow class number; divide by 2 when the fundamental
    unit has norm +1."""
    D = 4 * d
    forms = _reduced_indefinite_forms(D)
    cycles = 0
    seen = set()
    for f in sorted(forms):
        if f in seen:
            continue
        cycles += 1
        g = f
        while True:
            seen.add(g)
            g = _rho_step(g, D)
            assert g in forms, (f, g)
            if g == f:
                break
    _, _, norm = pell_fundamental_unit(d)
    return cycles if norm == -1 else cycles // 2


def rank_mod_p(M, p):
    """Rank over F_p by Gaussian elimination on a copy, pivoting on the first
    nonzero entry of each column."""
    a = [[x % p for x in row] for row in M]
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        for i in range(r + 1, len(a)):
            f = a[i][c] * inv % p
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
    return r



def degree_pattern_by_frobenius_kernel(T, p):
    """Ascending degrees of the irreducible factors of monic T mod p, for T
    square-free mod p, from Berlekamp's matrix alone.

    Row j of Q is x^(pj) mod T: x^p by square-and-multiply with schoolbook
    products reduced mod (T, p), which shares no step with the library's
    packed powers or its walk over x^k, then its powers.  On F_p[x]/(T),
    the product of the fields F_(p^m) over the factors of degree m, Q^d
    fixes F_(p^gcd(m, d)) in each, so K(d) = dim ker(Q^d - I) =
    sum_m c_m gcd(m, d) for c_m factors of degree m.  With N(e) = sum of
    c_m over e | m, K(d) = sum_(e|d) phi(e) N(e), which gives N and then c
    from the top degree down."""
    n = len(T) - 1

    def times(a, b):
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for k in range(2 * n - 2, n - 1, -1):
            top = prod[k] % p
            for i in range(n):
                prod[k - n + i] -= top * T[i]
        return [c % p for c in prod[:n]]

    x = [0, 1] + [0] * (n - 2)
    xp = [1] + [0] * (n - 1)
    for bit in bin(p)[2:]:
        xp = times(xp, xp)
        if bit == "1":
            xp = times(xp, x)
    Q = [[1] + [0] * (n - 1)]
    while len(Q) < n:
        Q.append(times(Q[-1], xp))
    cols = list(zip(*Q))
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    kernel_dims = {}
    for d in range(1, n + 1):
        M = [[sum(a * b for a, b in zip(row, col)) % p for col in cols]
             for row in M]
        shifted = [[x - (i == j) for j, x in enumerate(row)]
                   for i, row in enumerate(M)]
        kernel_dims[d] = n - rank_mod_p(shifted, p)

    def phi(m):
        return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)

    N = {}
    for d in range(1, n + 1):
        N[d] = (kernel_dims[d] - sum(phi(e) * N[e] for e in range(1, d)
                                     if d % e == 0)) // phi(d)
    counts = {}
    for m in range(n, 0, -1):
        counts[m] = N[m] - sum(counts[j] for j in range(2 * m, n + 1, m))
    return [m for m in sorted(counts) for _ in range(counts[m])]

def naive_row_hnf(M):
    """Textbook row HNF by elementary operations only (no pivot strategy):
    same canonical form as the library (positive pivots, entries above each
    pivot reduced into [0, pivot), zero rows last)."""
    H = [[int(x) for x in row] for row in M]
    rows = len(H)
    cols = len(H[0]) if rows else 0
    top = 0
    for col in range(cols):
        # gcd all entries below `top` into one row using plain row ops
        while True:
            nz = [i for i in range(top, rows) if H[i][col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(H[i][col]))
            base = nz[0]
            for i in nz[1:]:
                q = H[i][col] // H[base][col]
                H[i] = [x - q * y for x, y in zip(H[i], H[base])]
        nz = [i for i in range(top, rows) if H[i][col] != 0]
        if not nz:
            continue
        i0 = nz[0]
        H[top], H[i0] = H[i0], H[top]
        if H[top][col] < 0:
            H[top] = [-x for x in H[top]]
        for i in range(top):
            q = H[i][col] // H[top][col]
            H[i] = [x - q * y for x, y in zip(H[i], H[top])]
        top += 1
    return H


def column_hnf_naive(cols):
    """The library's ideal form, an upper-triangular column HNF (column j on
    rows 0..j, positive diagonal, entries right of it reduced into
    [0, diagonal)), from naive_row_hnf on the reversed coordinates."""
    n = len(cols[0])
    H = naive_row_hnf([list(reversed(c)) for c in cols])[:n]
    return tuple(tuple(reversed(r)) for r in reversed(H))


def in_column_hnf(hnf, v):
    """v lies in the lattice spanned by the columns of an upper-triangular
    column HNF, by back substitution."""
    v = list(v)
    for j in range(len(v) - 1, -1, -1):
        q, r = divmod(v[j], hnf[j][j])
        if r:
            return False
        v = [a - q * b for a, b in zip(v, hnf[j])]
    return True


def ideal_product_fractions(field, a_cols, b_cols):
    """HNF of the ideal spanned by all products x*y of generators, each taken
    as a product of AlgebraicNumbers."""
    cols = []
    for x in a_cols:
        for y in b_cols:
            c = (field.element(list(x)) * field.element(list(y))).coords
            assert all(v.denominator == 1 for v in c)
            cols.append([v.numerator for v in c])
    return column_hnf_naive(cols)


def principal_ideal_fractions(x):
    """HNF of <x> from the Fraction multiplication matrix of x."""
    m = x.mult_matrix()
    n = len(m)
    return column_hnf_naive([[int(m[i][j]) for i in range(n)]
                             for j in range(n)])


def divide_prime_by_inverse(field, hnf, P):
    """HNF of ideal * P^(-1) as (ideal * p*P^(-1)) / p, or None when the
    product is not divisible by p (P does not divide the ideal)."""
    prod = ideal_product_fractions(field, hnf, P.inv_basis)
    if any(v % P.p for c in prod for v in c):
        return None
    return column_hnf_naive([[v // P.p for v in c] for c in prod])


def _cofactor_ideal(x, idxs, exps, fb, field):
    """b with <x> = a*b for a = prod fb[idxs]^exps; exact divisions."""
    from classgroup.ideals import ideal_divide_prime, ideal_from_element
    b = ideal_from_element(x)
    for i, e in zip(idxs, exps):
        for _ in range(e):
            b = ideal_divide_prime(b, fb.primes[i], field)
    return b


def relations_by_cofactor(idxs, exps, cfg, field, fb):
    """The relation step in plain and multi modes through the cofactor: for
    each candidate x, b = <x> * a^(-1) is built by exact prime divisions, and
    the relation is a's exponents plus b's when b is smooth over the base.
    Returns (relations [(x, {PrimeIdeal: e})] without duplicates, candidates
    x rejected as not smooth)."""
    from classgroup import relations
    from classgroup.ideals import ideal_from_power_product, is_smooth_ideal
    a = ideal_from_power_product(fb, idxs, exps, field)
    beta = max(2, min(cfg.beta, field.degree))
    red = relations._reduce_ideal(a, beta, field)
    found, rejected, seen = [], [], set()
    for col in relations._candidates(red, cfg.mode, beta):
        x = relations._readback(a, col, field)
        b = _cofactor_ideal(x, idxs, exps, fb, field)
        b_exps = is_smooth_ideal(b, fb, field)
        if b_exps is None:
            rejected.append(x)
            continue
        out = {}
        for i, e in itertools.chain(zip(idxs, exps), b_exps.items()):
            out[fb.primes[i]] = out.get(fb.primes[i], 0) + e
        key = tuple(sorted((P.p, P.gen_poly, e) for P, e in out.items()))
        if key not in seen:
            seen.add(key)
            found.append((x, out))
    return found, rejected


def transformed_presentation(T, basis, a):
    """The presentation of Q[x]/(T) by theta' = a(theta): (T', basis'), with
    T' the characteristic polynomial of theta' (constant term first) and
    basis' the rows of `basis` (over the powers of theta; None for the power
    basis) written over the powers of theta'.  With V the matrix whose row
    k holds theta'^k over the powers of theta (k < n), theta'^n = c V^(-1)
    V gives T' = x^n - sum c_k x^k, and basis' = basis V^(-1); a must make
    V invertible, i.e. theta' must generate the field."""
    n = len(T) - 1
    if basis is None:
        basis = [[int(i == j) for j in range(n)] for i in range(n)]

    def times_a(v):  # v * a(theta) mod T, over the powers of theta
        prod = [0] * (2 * n)
        for i, x in enumerate(v):
            for j, y in enumerate(a):
                prod[i + j] += x * y
        for k in range(len(prod) - 1, n - 1, -1):
            for i in range(n + 1):
                prod[k - n + i] -= prod[k] * T[i]
        return prod[:n]

    powers = [[1] + [0] * (n - 1)]
    for _ in range(n):
        powers.append(times_a(powers[-1]))
    # Gauss-Jordan on [V | I] gives V^(-1)
    rows = [[Fraction(x) for x in v] + [Fraction(int(i == j)) for j in range(n)]
            for i, v in enumerate(powers[:n])]
    for k in range(n):
        piv = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[piv] = rows[piv], rows[k]
        rows[k] = [x / rows[k][k] for x in rows[k]]
        for i in range(n):
            if i != k and rows[i][k]:
                rows[i] = [x - rows[i][k] * y for x, y in zip(rows[i], rows[k])]
    inv = [r[n:] for r in rows]

    def over_theta_prime(v):
        return [sum(Fraction(x) * inv[i][j] for i, x in enumerate(v))
                for j in range(n)]

    c = over_theta_prime(powers[n])
    assert all(x.denominator == 1 for x in c)
    return ([-int(x) for x in c] + [1],
            [over_theta_prime(row) for row in basis])


def large_presentation(T, basis, digits, seed=0):
    """transformed_presentation of T and basis by a random a of degree
    deg T - 1 whose T' has a coefficient of at least 10^digits: the
    coefficients of a are drawn from [-c, c], c = 10^(digits // deg T) and
    multiplied by 10 until T' is that large."""
    rng = random.Random(seed)
    n = len(T) - 1
    c = 10 ** (digits // n)
    while True:
        a = [rng.randint(-c, c) for _ in range(n)]
        big, big_basis = transformed_presentation(T, basis, a)
        if max(map(abs, big)) >= 10 ** digits:
            return big, big_basis
        c *= 10


def valuation_by_containment(field, hnf, P):
    """v_P of the ideal with column HNF `hnf`: while every generator lies in
    P, divide by P through p*P^(-1)."""
    v = 0
    while all(in_column_hnf(P.hnf_basis, g) for g in hnf):
        hnf = divide_prime_by_inverse(field, hnf, P)
        v += 1
    return v


def naive_snf_divisors(M):
    """Nonzero Smith divisors by repeated elementary operations; plain
    smallest-entry pivoting with explicit divisibility repair."""
    A = [[int(x) for x in row] for row in M]
    r = len(A)
    c = len(A[0]) if r else 0
    out = []
    top = 0
    while top < min(r, c):
        best = None
        for i in range(top, r):
            for j in range(top, c):
                if A[i][j] and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i0, j0 = best
        A[top], A[i0] = A[i0], A[top]
        for row in A:
            row[top], row[j0] = row[j0], row[top]
        dirty = False
        for i in range(top + 1, r):
            q = A[i][top] // A[top][top]
            if q:
                A[i] = [x - q * y for x, y in zip(A[i], A[top])]
            if A[i][top]:
                dirty = True
        for j in range(top + 1, c):
            q = A[top][j] // A[top][top]
            if q:
                for i in range(r):
                    A[i][j] -= q * A[i][top]
            if A[top][j]:
                dirty = True
        if dirty:
            continue
        d = abs(A[top][top])
        bad = None
        for i in range(top + 1, r):
            if any(A[i][j] % d for j in range(top + 1, c)):
                bad = i
                break
        if bad is not None:
            A[top] = [x + y for x, y in zip(A[top], A[bad])]
            continue
        out.append(d)
        top += 1
    return [d for d in out if d != 0]


def brute_shortest(gram, box):
    """Exact minimum of the quadratic form over the coefficient box.

    Vectorized in int64; magnitudes are asserted small enough that the
    arithmetic is exact."""
    import numpy as np

    n = len(gram)
    gmax = max(abs(x) for row in gram for x in row)
    assert gmax * (box * n) ** 2 < 2 ** 62
    G = np.array(gram, dtype=np.int64)
    axes = [np.arange(-box, box + 1, dtype=np.int64)] * n
    C = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    q = ((C @ G) * C).sum(axis=1)
    q = q[np.any(C != 0, axis=1)]
    return int(q.min())


def dickman_quadrature(u_target, steps_per_unit):
    """rho by trapezoid marching on the delay ODE rho' = -rho(t-1)/t, with one
    Richardson extrapolation over a half-step run (refined-step oracle)."""

    def march(n_per_unit):
        h = 1.0 / n_per_unit
        total = int(round(u_target * n_per_unit))
        vals = [1.0] * (n_per_unit + 1)  # rho = 1 on [0, 1]
        f_prev = 0.0

        def delayed(idx):
            j = idx - n_per_unit
            return vals[j] if j >= 0 else 1.0

        for i in range(n_per_unit, total):
            t1 = (i + 1) * h
            f1 = delayed(i + 1) / t1
            t0 = i * h
            f0 = delayed(i) / t0 if t0 > 0 else 0.0
            vals.append(vals[i] - 0.5 * h * (f0 + f1))
        return vals[total]

    coarse = march(steps_per_unit)
    fine = march(2 * steps_per_unit)
    return (4 * fine - coarse) / 3


# -- the interval view of the embedding ---------------------------------------
#
# mpmath's interval arithmetic at the field precision plus the library's
# guard bits, around its certified root disks: the reference against which
# the integer embedding table and the fixed-point unit logs are tested.

@functools.lru_cache(maxsize=None)
def interval_context(precision):
    """mpmath's interval context at precision plus the guard bits."""
    from mpmath.ctx_iv import MPIntervalContext

    from classgroup.field import _GUARD_BITS

    ctx = MPIntervalContext()
    ctx.prec = precision + _GUARD_BITS
    return ctx


def _exact(t):
    """Exact value of a raw mpf tuple; mpmath.mpf(x) would round to the
    precision of the ambient context."""
    from mpmath.libmp import to_rational

    num, den = to_rational(t)
    return Fraction(int(num), int(den))


def iv_endpoints(interval):
    """Exact rational endpoints of an interval-context number."""
    lo, hi = interval._mpi_
    return _exact(lo), _exact(hi)


def frac_iv(ctx, lo, hi):
    """Interval enclosing the exact rationals [lo, hi]."""
    a = ctx.mpf(lo.numerator) / ctx.mpf(lo.denominator)
    b = ctx.mpf(hi.numerator) / ctx.mpf(hi.denominator)
    return ctx.mpf([a.a, b.b])


@functools.lru_cache(maxsize=64)
def root_balls(field):
    """Interval view of field.root_disks(): per disk a pair (re, im) of the
    real interval around its centre and, for a conjugate pair, the
    imaginary one (None at a real root), both of the disk's radius."""
    ctx = interval_context(field.precision)
    disks, bits = field.root_disks()
    den = 1 << bits
    return [(frac_iv(ctx, Fraction(a - r, den), Fraction(a + r, den)),
             None if b == 0 else
             frac_iv(ctx, Fraction(b - r, den), Fraction(b + r, den)))
            for a, b, r in disks]


def to_power_basis(x):
    """Coordinates of x over the power basis of theta."""
    out = [Fraction(0)] * x.field.degree
    for c, (row, d) in zip(x.coords, x.field.basis):
        if c:
            for j, b in enumerate(row):
                out[j] += Fraction(c) * b / d
    return out


def _eval_poly_civ(ctx, coeffs, re, im):
    """Interval Horner at re + i*im; at im = 0 the imaginary part stays
    exactly zero, so the real part is the real Horner value."""
    are, aim = ctx.mpf(0), ctx.mpf(0)
    for c in reversed(coeffs):
        cc = ctx.mpf(c.numerator) / ctx.mpf(c.denominator)
        are, aim = are * re - aim * im + cc, are * im + aim * re
    return are, aim


def embedding_data(field, x):
    """Raw embeddings of x by interval Horner evaluation of its power-basis
    polynomial at the root balls: (list of real intervals, list of
    (re, im))."""
    ctx = interval_context(field.precision)
    pb = to_power_basis(x)
    reals, cplx = [], []
    zero = ctx.mpf(0)
    for re, im in root_balls(field):
        if im is None:
            reals.append(_eval_poly_civ(ctx, pb, re, zero)[0])
        else:
            cplx.append(_eval_poly_civ(ctx, pb, re, im))
    return reals, cplx


def canonical_embedding(x):
    """The n real coordinates of x (sigma_1..sigma_r1, then sqrt2*Re,
    sqrt2*Im per conjugate pair) as intervals; PrecisionExhausted when one
    is wider than 2^-precision relative to 1 + |value|."""
    import mpmath

    from classgroup.errors import PrecisionExhausted

    field = x.field
    ctx = interval_context(field.precision)
    reals, cplx = embedding_data(field, x)
    sqrt2 = ctx.sqrt(ctx.mpf(2))
    out = list(reals)
    for re, im in cplx:
        out.append(sqrt2 * re)
        out.append(sqrt2 * im)
    tol = mpmath.mpf(2) ** (-field.precision)
    for v in out:
        if mpmath.mpf(v.delta.b) > tol * (1 + abs(mpmath.mpf(v.mid.b))):
            raise PrecisionExhausted(
                "embedding interval wider than 2^-precision")
    return out


def cubic_unit_search(field, box=8):
    """Smallest positive unit-log length among units a + b*theta + c*theta^2
    with bounded coefficients; for unit rank 1 this is the regulator when the
    fundamental unit lies inside the box."""
    import mpmath

    best = None
    for a, b, c in itertools.product(range(-box, box + 1), repeat=3):
        if (a, b, c) == (0, 0, 0):
            continue
        x = field.element([a, b, c])
        if abs(x.norm()) != 1:
            continue
        reals, cplx = embedding_data(field, x)
        lv = abs(float(mpmath.mpf(mpmath.log(abs(mpmath.mpf(reals[0].mid.b))))))
        if lv > 1e-9 and (best is None or lv < best):
            best = lv
    return best


def log_embedding_horner(field, x):
    """Unit-log vector of x from its power-basis polynomial evaluated at
    each certified root ball in interval arithmetic: log|sigma_i(x)| at real
    places, log(|sigma_i(x)|^2) at complex ones."""
    ctx = interval_context(field.precision)
    reals, cplx = embedding_data(field, x)
    out = []
    for m in [abs(v) for v in reals] + [re * re + im * im for re, im in cplx]:
        if iv_endpoints(m)[0] <= 0:
            raise ValueError("embedding interval touches zero")
        out.append(ctx.log(m))
    return out


def torsion_count_direct(field, box=3, exponent_cap=24):
    """Count torsion units by brute box search and powering up to the cap."""
    one = field.one()
    n = field.degree
    count = 0
    for coords in itertools.product(range(-box, box + 1), repeat=n):
        if all(v == 0 for v in coords):
            continue
        x = field.element(list(coords))
        if abs(x.norm()) != 1:
            continue
        y = one
        for m in range(1, exponent_cap + 1):
            y = y * x
            if y == one:
                count += 1
                break
    return count


def is_smooth_naive(n, B):
    m = n
    for p in range(2, B + 1):
        while m % p == 0:
            m //= p
    return m == 1


def smooth_count_range(start, count, B):
    """Number of B-smooth integers in [start, start + count), counted with
    the library's `is_smooth`; only the Dickman prediction is checked."""
    from classgroup.smoothness import is_smooth
    return sum(1 for N in range(start, start + count) if is_smooth(N, B))


def mult_table_fractions(field):
    """Structure constants in Fraction arithmetic: omega_i*omega_j as the
    product of two power-basis rows, reduced mod T by long division, and
    its coordinates over the basis by Gauss-Jordan on [basis^t | v].
    Returns the n x n table of coordinate tuples (Fractions)."""
    n = field.degree
    T = [Fraction(c) for c in field.poly]
    rows = [[Fraction(x, d) for x in row] for row, d in field.basis]

    def coordinates(v):
        a = [[rows[k][i] for k in range(n)] + [v[i]] for i in range(n)]
        for k in range(n):
            piv = next(i for i in range(k, n) if a[i][k])
            a[k], a[piv] = a[piv], a[k]
            a[k] = [x / a[k][k] for x in a[k]]
            for i in range(n):
                if i != k and a[i][k]:
                    a[i] = [x - a[i][k] * y for x, y in zip(a[i], a[k])]
        return tuple(a[i][n] for i in range(n))

    table = []
    for i in range(n):
        out = []
        for j in range(n):
            prod = [Fraction(0)] * (2 * n - 1)
            for s, x in enumerate(rows[i]):
                for t, y in enumerate(rows[j]):
                    prod[s + t] += x * y
            for k in range(2 * n - 2, n - 1, -1):
                c = prod[k]
                for t in range(n + 1):
                    prod[k - n + t] -= c * T[t]
            out.append(coordinates(prod[:n]))
        table.append(out)
    return table


def bkz_rank2_by_tours(gram):
    """(U, |b_0|^2, det) of lattice.bkz's general path on a rank-2 Gram:
    GramLLL's delta = 99/100 sweep, then tours over the one 2-block, whose
    candidates (1, 0), (0, 1) and the one of (+-1, 1) with x*b <= 0 are
    scored exactly and the least (norm^2, coefficients) under min(a, c)
    replaces b_0 while it is shorter.  After the sweep |b| <= a/2 and
    c >= 99a/100, so those candidates are the whole search."""
    from classgroup.lattice import GramLLL

    red = GramLLL(gram)
    red.reduce()
    while True:
        (a, b), (_, c) = red.G
        assert 2 * abs(b) <= a and 100 * c >= 99 * a
        cands = [((1, 0), a), ((0, 1), c),
                 ((-1 if b > 0 else 1, 1), a - 2 * abs(b) + c)]
        w, n2 = min((t for t in cands if t[1] <= min(a, c)),
                    key=lambda t: (t[1], t[0]))
        if n2 >= red.d[0]:
            return red.U, min(red.norms()), red.d[1]
        red.insert_block_vector(0, 2, w)
        red.reduce()

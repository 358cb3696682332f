"""Independent oracles for the test suite.

Everything here is deliberately implemented by a different route than the
library: class numbers by counting reduced binary quadratic forms,
fundamental units by continued fractions or bounded-height search, HNF/SNF and
ranks mod p by plain elementary operations, shortest vectors by exhaustive
coefficient boxes, Dickman rho by marching quadrature, and ideal valuations
and prime divisions by lattice containment and products with p*P^(-1) over
Fraction arithmetic, degree patterns mod p by the kernels of powers of
Berlekamp's matrix, relations through the cofactor ideal b = <x>/a, unit
logs by interval Horner evaluation of the power-basis polynomial at the root
balls.
"""

import itertools
import math
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

    Row j of Q is x^(pj) mod T, read off the powers x^0, x^1, ... formed one
    multiplication by x at a time.  On F_p[x]/(T), the product of the fields
    F_(p^m) over the factors of degree m, Q^d fixes F_(p^gcd(m, d)) in each,
    so K(d) = dim ker(Q^d - I) = sum_m c_m gcd(m, d) for c_m factors of
    degree m.  With N(e) = sum of c_m over e | m, K(d) = sum_(e|d) phi(e)
    N(e), which gives N and then c from the top degree down."""
    n = len(T) - 1
    power = [1] + [0] * (n - 1)
    Q = []
    for k in range(p * (n - 1) + 1):
        if k % p == 0:
            Q.append(list(power))
        top = power[-1]
        power = [(lo - top * t) % p for lo, t in zip([0] + power[:-1], T)]
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    kernel_dims = {}
    for d in range(1, n + 1):
        M = [[sum(row[k] * Q[k][j] for k in range(n)) % p for j in range(n)]
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
    with the Fraction arithmetic of AlgebraicNumber."""
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
        b = relations._cofactor_ideal(x, idxs, exps, fb, field)
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
        reals, cplx = field.embedding_data(x)
        lv = abs(float(mpmath.mpf(mpmath.log(abs(mpmath.mpf(reals[0].mid.b))))))
        if lv > 1e-9 and (best is None or lv < best):
            best = lv
    return best


def log_embedding_horner(field, x):
    """Unit-log vector of x from its power-basis polynomial evaluated at
    each certified root ball in interval arithmetic: log|sigma_i(x)| at real
    places, log(|sigma_i(x)|^2) at complex ones."""
    from classgroup.field import iv_endpoints

    reals, cplx = field.embedding_data(x)
    out = []
    for m in [abs(v) for v in reals] + [re * re + im * im for re, im in cplx]:
        if iv_endpoints(m)[0] <= 0:
            raise ValueError("embedding interval touches zero")
        out.append(field.iv.log(m))
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

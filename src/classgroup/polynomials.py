"""Exact univariate polynomial arithmetic over Z, Q and F_p: resultants and
discriminants, an irreducibility screen, the Sturm count of real roots (the
field's signature; field.py certifies the roots themselves), and
factorization and degree patterns mod p.

Coefficient lists are stored constant-term first and kept normalized (no
trailing zeros, the zero polynomial is []).  Everything here is exact: big
integers, fractions.Fraction and integers mod p.  Sizes are desk scale
(degrees below ~50), so the quadratic algorithms are fine.
"""

import itertools
import random
from fractions import Fraction

from .errors import Reducible, VerificationFailed


def normalize(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def degree(c):
    return len(c) - 1


def add(a, b):
    n = max(len(a), len(b))
    return normalize([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                      for i in range(n)])


def neg(a):
    return [-x for x in a]


def sub(a, b):
    return add(a, neg(b))


def mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return normalize(out)


def scale(a, s):
    return normalize([x * s for x in a])


def evaluate(a, x):
    acc = 0 * x if a else 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def derivative(a):
    return normalize([i * a[i] for i in range(1, len(a))])


def divmod_exact(a, b):
    """Polynomial division over a field (inputs may be int or Fraction)."""
    b = normalize(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = [Fraction(x) for x in a]
    lead = Fraction(b[-1])
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b) and normalize(r):
        r = normalize(r)
        if len(r) < len(b):
            break
        k = len(r) - len(b)
        f = r[-1] / lead
        q[k] = f
        for i in range(len(b)):
            r[k + i] -= f * b[i]
        r.pop()
    return normalize(q), normalize(r)


def sylvester_resultant(f, g):
    """Resultant of two integer polynomials via Bareiss elimination."""
    f, g = normalize(f), normalize(g)
    if not f or not g:
        return 0
    m, n = degree(f), degree(g)
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    size = m + n
    rows = []
    for i in range(n):
        row = [0] * size
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [0] * size
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    return bareiss_det(rows)


def bareiss_det(mat):
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    a = [row[:] for row in mat]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def discriminant(T):
    """Discriminant of a monic integer polynomial."""
    n = degree(T)
    res = sylvester_resultant(T, derivative(T))
    s = -1 if (n * (n - 1) // 2) % 2 else 1
    return s * res


# ---------------------------------------------------------------------------
# Irreducibility over Q (monic integer input)

def _divisors(n):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_root(T):
    """An integer root of a monic integer polynomial, or None."""
    if not T or T[0] == 0:
        return 0
    for d in _divisors(T[0]):
        for r in (d, -d):
            if evaluate(T, r) == 0:
                return r
    return None


def _quadratic_factor(T):
    """A monic quadratic integer factor x^2 + a*x + b of T, or None.

    b must divide T(0) and |a| <= 2*C for the Cauchy root bound C, so the
    search is exhaustive for desk-scale coefficients.
    """
    n = degree(T)
    if n < 4:
        return None
    if T[0] == 0:
        return [0, 0, 1]
    cauchy = 1 + max(abs(c) for c in T[:-1])
    abound = 2 * cauchy + 1
    for b in _divisors(T[0]):
        for bs in (b, -b):
            for a in range(-abound, abound + 1):
                q, r = divmod_exact(T, [bs, a, 1])
                if not r and all(x.denominator == 1 for x in q):
                    return [bs, a, 1]
    return None


def _subset_sums(degrees):
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    return sums


def check_irreducible(T, trials=25):
    """Raise Reducible if T is provably reducible over Q.

    Screen: rational roots, then factorization degree patterns modulo several
    good primes (a degree pattern proof of irreducibility is rigorous), then a
    quadratic-factor search which settles every degree up to 5.  For larger
    degrees an inconclusive screen is accepted.
    """
    n = degree(T)
    if n <= 1:
        return
    if rational_root(T) is not None:
        raise Reducible(f"polynomial has rational root")
    disc = discriminant(T)
    if disc == 0:
        raise Reducible("polynomial has repeated roots")
    possible = set(range(1, n))
    p = 2
    tried = 0
    while tried < trials and possible:
        if disc % p != 0:
            tried += 1
            sums = _subset_sums(degree_pattern(T, p, disc))
            possible &= sums
            if not possible:
                return  # modular degree patterns rule out proper factors
        p = next_prime(p)
    if {2} & possible or n <= 5:
        if _quadratic_factor(T) is not None:
            raise Reducible("polynomial has a quadratic factor")
        possible -= {2, n - 2}
    if n <= 5 and possible - {1, n - 1}:
        # degrees <= 5 are fully settled by root + quadratic searches
        possible = set()
    # inconclusive for n >= 6 with surviving patterns: accept (screen contract)


# ---------------------------------------------------------------------------
# Real root count (Sturm sequences, exact rational arithmetic)

def sturm_chain(T):
    chain = [[Fraction(c) for c in normalize(T)]]
    chain.append([Fraction(c) for c in derivative(T)])
    while normalize(chain[-1]) and degree(normalize(chain[-1])) > 0:
        _, r = divmod_exact(chain[-2], chain[-1])
        if not r:
            break
        chain.append(neg(r))
    return [normalize(c) for c in chain if normalize(c)]


def _sign_changes(values):
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(T):
    """Number of distinct real roots of T: how many sign changes the Sturm
    chain loses from -infinity to +infinity, read off its leading terms."""
    chain = sturm_chain(T)
    return (_sign_changes([c[-1] * (-1) ** degree(c) for c in chain])
            - _sign_changes([c[-1] for c in chain]))


# ---------------------------------------------------------------------------
# Arithmetic and factorization over F_p

def pmod(c, p):
    return normalize([x % p for x in c])


def pmod_divmod(a, b, p):
    """Quotient and remainder of a by b over F_p (b nonzero mod p).  The
    division runs by the monic multiple of b, so no row needs an inverse."""
    b = pmod(b, p)
    if not b:
        raise ZeroDivisionError("polynomial division by zero mod p")
    inv = pow(b[-1], -1, p)
    if inv != 1:
        b = [c * inv % p for c in b]
    q, r = _divmod_monic(pmod(a, p), b, p)
    if inv != 1:
        q = [c * inv % p for c in q]
    return q, r


def _divmod_monic(r, b, p):
    """(q, r mod b) for normalized r reduced mod p and monic b; r is
    consumed."""
    n = len(b) - 1
    q = []
    for k in range(len(r) - 1 - n, -1, -1):
        c = r[k + n] % p
        q.append(c)
        if c:
            for i in range(n):
                r[k + i] -= c * b[i]
    q.reverse()
    r = [x % p for x in r[:n]]
    while r and r[-1] == 0:
        r.pop()
    return q, r


def pmod_gcd(a, b, p):
    """Monic gcd over F_p; [] when both inputs vanish mod p."""
    a, b = pmod(a, p), pmod(b, p)
    while b:
        inv = pow(b[-1], -1, p)
        if inv != 1:
            b = [c * inv % p for c in b]
        a, b = b, _divmod_monic(a, b, p)[1]
    if a and a[-1] != 1:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


class _QuotientRing:
    """F_p[x]/(f) for monic f of degree n >= 1 on Kronecker-packed ints:
    c_0 + c_1 x + ... + c_(n-1) x^(n-1), each c_i in [0, p), is the int
    sum c_i 2^(w i).  A slot holds n^2 p^3 without carrying, so the product
    of up to three elements is one int multiplication."""

    def __init__(self, f, p):
        n = len(f) - 1
        self.n, self.p = n, p
        self.w = (2 * n * n * p ** 3).bit_length()
        self.mask = (1 << self.w) - 1
        self.tail = self.pack([(-c) % p for c in f[:n]])  # x^n mod f

    def pack(self, a):
        out = 0
        for c in reversed(a):
            out = (out << self.w) | c
        return out

    def unpack(self, h):
        w, mask = self.w, self.mask
        return normalize([(h >> (w * i)) & mask for i in range(self.n)])

    def reduce(self, s):
        """The element packed in s (slots below 2^w, degree <= 3n - 3):
        from the top, slot k >= n adds (s_k mod p) x^(k-n) (x^n mod f)
        below itself, then the low n slots are taken mod p."""
        w, mask, p, n = self.w, self.mask, self.p, self.n
        for k in range((s.bit_length() - 1) // w, n - 1, -1):
            c = ((s >> (w * k)) & mask) % p
            if c:
                s += (c * self.tail) << (w * (k - n))
        out = 0
        for i in range(n):
            out |= ((s & mask) % p) << (w * i)
            s >>= w
        return out

    def pow(self, h, e):
        """h^e by square-and-multiply from the top bit of e."""
        if e == 0:
            return 1
        out = h
        for bit in bin(e)[3:]:
            s = out * out
            if bit == "1":
                s *= h
            out = self.reduce(s)
        return out


def pmod_pow(base, e, mod, p):
    """base^e modulo (mod, p), as the canonical remainder; mod has degree
    at least 1."""
    mod = pmod(mod, p)
    inv = pow(mod[-1], -1, p)
    ring = _QuotientRing([c * inv % p for c in mod], p)
    base = pmod_divmod(base, mod, p)[1]
    return ring.unpack(ring.pow(ring.pack(base), e))


def _sqf_decomp_modp(f, p):
    """[(g, m)] with f = prod g^m, each g squarefree, pairwise coprime."""
    f = pmod(f, p)
    if degree(f) <= 0:
        return []
    df = pmod(derivative(f), p)
    if not df:
        # f = g(x^p) = g(x)^p over F_p
        g = normalize([f[i] for i in range(0, len(f), p)])
        return [(h, m * p) for h, m in _sqf_decomp_modp(g, p)]
    g = pmod_gcd(f, df, p)
    if g == [1]:
        return [(f, 1)]
    out = []
    w = pmod_divmod(f, g, p)[0]
    i = 1
    while w != [1]:
        y = pmod_gcd(w, g, p)
        z = pmod_divmod(w, y, p)[0]
        if z != [1]:
            out.append((z, i))
        w = y
        g = pmod_divmod(g, y, p)[0]
        i += 1
    if g != [1]:
        h = normalize([g[i] for i in range(0, len(g), p)])
        out.extend((q, m * p) for q, m in _sqf_decomp_modp(h, p))
    return out


def _ddf(f, p):
    """Distinct-degree factorization of squarefree monic f: [(product, d)].

    h runs through x^(p^d) mod f.  x^p costs one square-and-multiply, whose
    multiply step by x is a shift; each later power is h -> sum_j h_j Q[j]
    with the Frobenius matrix Q[j] = x^(pj) mod f (Cohen, GTM 138,
    Sec. 3.4), built when d = 2 is reached.  h stays reduced mod f: the
    unsplit part v divides f, so gcd(h - x, v) is unchanged."""
    out = []
    v = f
    ring = h = Q = None
    d = 0
    while degree(v) > 0:
        d += 1
        if 2 * d > degree(v):
            out.append((v, degree(v)))
            break
        if h is None:
            ring = _QuotientRing(f, p)
            h = ring.pow(ring.pack([0, 1]), p)
        else:
            if Q is None:
                Q = [1, h]
                while len(Q) < ring.n:
                    Q.append(ring.reduce(Q[-1] * h))
            h = ring.reduce(sum(c * row for c, row in zip(coeffs, Q)))
        coeffs = ring.unpack(h)
        g = pmod_gcd(v, sub(coeffs, [0, 1]), p)
        if degree(g) > 0:
            out.append((g, d))
            v = pmod_divmod(v, g, p)[0]
    return out


# Random splits _edf tries before giving up on a part.  A product of two or
# more degree-d irreducibles splits on each try with probability about 1/2,
# so a genuine part fails them all with probability about 2^-64.
EDF_TRIES = 64


def _edf(f, d, p, rng):
    """Cantor-Zassenhaus equal-degree split of squarefree f into degree-d
    irreducible factors.  Raises VerificationFailed when deg f is not a
    multiple of d, or when EDF_TRIES random splits all fail: then f is not a
    product of degree-d irreducibles."""
    n = degree(f)
    if n % d:
        raise VerificationFailed(
            f"degree {n} part is not a product of degree-{d} factors mod {p}")
    if n == d:
        return [f]
    for _ in range(EDF_TRIES):
        a = [rng.randrange(p) for _ in range(n)]
        a = normalize(a)
        if degree(a) < 1:
            continue
        if p == 2:
            # trace map: a + a^2 + a^4 + ... (2^(d-1) terms)
            t = list(a)
            acc = list(a)
            for _ in range(d - 1):
                acc = pmod_pow(acc, 2, f, p)
                t = pmod(add(t, acc), p)
            g = pmod_gcd(t, f, p)
        else:
            e = (p ** d - 1) // 2
            b = pmod_pow(a, e, f, p)
            g = pmod_gcd(sub(b, [1]), f, p)
        if 0 < degree(g) < n:
            left = _edf(g, d, p, rng)
            right = _edf(pmod_divmod(f, g, p)[0], d, p, rng)
            return left + right
    raise VerificationFailed(
        f"degree {n} part did not split into degree-{d} factors mod {p} in "
        f"{EDF_TRIES} tries")


def _sqf_ddf(T, p, disc=None):
    """[(part, d, m)]: T mod p is the product of part^m, and part is the
    product of the distinct degree-d irreducible factors of multiplicity m.
    When disc(T) is given and p does not divide it, T mod p is square-free
    and goes straight to the distinct-degree factorization."""
    f = pmod(T, p)
    if degree(f) != degree(T):
        raise ValueError("leading coefficient vanishes mod p (input not monic?)")
    squarefree = disc is not None and disc % p
    return [(part, d, m)
            for g, m in ([(f, 1)] if squarefree else _sqf_decomp_modp(f, p))
            for part, d in _ddf(g, p)]


def _check_factor_count(T, p, degs_mults):
    if sum(d * m for d, m in degs_mults) != degree(T):
        raise VerificationFailed(f"lost factors of T mod {p}")


def factor_mod_p(T, p):
    """Factor a monic integer polynomial modulo p.

    Returns [(g, e)] with g monic irreducible over F_p, sorted by (degree,
    coefficients), and prod g^e = T mod p.  Deterministic: the splitting RNG
    is seeded from (p, T).
    """
    rng = random.Random((p, tuple(pmod(T, p))).__repr__())
    factors = [(irr, m) for part, d, m in _sqf_ddf(T, p)
               for irr in _edf(part, d, p, rng)]
    factors.sort(key=lambda t: (degree(t[0]), t[0]))
    _check_factor_count(T, p, [(degree(g), e) for g, e in factors])
    return factors


def degree_pattern(T, p, disc=None):
    """Ascending degrees of the distinct irreducible factors of monic T mod p.

    `disc` is disc(T), computed here when not given; a caller that asks for
    many primes passes it once.  A quadratic reads the pattern from it: [1]
    when p divides it, otherwise [1, 1] or [2] as disc(T) is a square mod p
    or not (Legendre symbol; for p = 2, disc(T) mod 8).  Higher degrees take
    it from the distinct-degree factorization, preceded by the square-free
    decomposition only when p divides disc(T), without splitting equal
    degrees.
    """
    if disc is None:
        disc = discriminant(T)
    if degree(T) == 2:
        if disc % p == 0:
            return [1]
        if p == 2:
            square = disc % 8 == 1
        else:
            square = pow(disc, (p - 1) // 2, p) == 1
        return [1, 1] if square else [2]
    irreducibles = [(d, m) for part, d, m in _sqf_ddf(T, p, disc)
                    for _ in range(degree(part) // d)]
    _check_factor_count(T, p, irreducibles)
    return sorted(d for d, _ in irreducibles)


# ---------------------------------------------------------------------------
# Primes

def is_prime(n):
    """Deterministic Miller-Rabin for 64-bit-ish inputs."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n):
    n += 1
    while not is_prime(n):
        n += 1
    return n


def primes_up_to(n):
    """All primes <= n by sieve."""
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    i = 2
    while i * i <= n:
        if flags[i]:
            flags[i * i:n + 1:i] = bytearray(len(range(i * i, n + 1, i)))
        i += 1
    return list(itertools.compress(range(n + 1), flags))

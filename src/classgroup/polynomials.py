"""Exact univariate polynomial arithmetic over Z, Q and F_p: discriminants,
the degree-pattern irreducibility screen, the Sturm count of real roots
(the field's signature; field.py certifies the roots themselves), and
factorization and degree patterns mod p.

Coefficient lists are stored constant-term first and kept normalized (no
trailing zeros, the zero polynomial is []).  Everything here is exact: big
integers and integers mod p.  Sizes are desk scale (degrees below ~50), so
the quadratic algorithms are fine.
"""

import itertools
import math
import random

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


def taylor_shift(a, s):
    """The coefficients of a(x + s), by repeated synthetic division."""
    c = list(a)
    if s:
        for i in range(len(c) - 1):
            for k in range(len(c) - 2, i - 1, -1):
                c[k] += s * c[k + 1]
    return c


def rem_monic(a, T):
    """a mod T for integer a and monic integer T of degree n >= 1, in
    integers, as n coefficients."""
    n = len(T) - 1
    r = list(a) + [0] * (n - len(a))
    for k in range(len(r) - 1, n - 1, -1):
        c = r[k]
        if c:
            for i in range(n):
                r[k - n + i] -= c * T[i]
    return r[:n]


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
    """Discriminant of a monic integer polynomial T of degree n >= 1:
    (-1)^(n(n-1)/2) Res(T, T'), the Bareiss determinant of their Sylvester
    matrix."""
    dT = derivative(T)
    n, m = degree(T), degree(dT)
    rows = [[0] * i + list(reversed(f)) + [0] * (m + n - i - len(f))
            for f, k in ((T, m), (dT, n)) for i in range(k)]
    return (-1) ** (n * (n - 1) // 2) * bareiss_det(rows)


# ---------------------------------------------------------------------------
# Irreducibility over Q (monic integer input)

SCREEN_PRIMES = 25  # good primes whose degree patterns screen a defining T


def _subset_sums(degrees):
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    return sums


def check_irreducible(T, disc):
    """The proper factor degrees of monic T over Q that the degree patterns
    of the first SCREEN_PRIMES primes not dividing disc = disc(T) leave
    open.  A factor of degree d over Q gives one of degree d mod each such
    p, so d is a sum of pattern degrees there; the empty set proves T
    irreducible.  Raises Reducible when disc = 0 (repeated roots)."""
    if disc == 0:
        raise Reducible("polynomial has repeated roots")
    open_degrees = set(range(1, degree(T)))
    good = (p for p in itertools.count(2) if disc % p and is_prime(p))
    for p in itertools.islice(good, SCREEN_PRIMES):
        open_degrees &= _subset_sums(degree_pattern(T, p, disc))
        if not open_degrees:
            break
    return open_degrees


# ---------------------------------------------------------------------------
# Real root count (Sturm sequences in integers)

def _positive_remainder(a, b):
    """A positive multiple of the remainder of a by b, for integer a and b:
    the pseudo-remainder with multiplier |lc(b)|^(deg a - deg b + 1), each
    step scaling by |lc(b)| and clearing a leading term, over its content."""
    m = len(b) - 1
    lc, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    r = list(a)
    for k in range(len(a) - 1 - m, -1, -1):
        c = sign * r[k + m]
        r = [lc * x for x in r]
        for i, y in enumerate(b):
            r[k + i] -= c * y
    r = normalize(r[:m])
    g = math.gcd(*r)
    return [x // g for x in r]


def count_real_roots(T):
    """Number of distinct real roots of T: how many sign changes its Sturm
    chain loses from -infinity to +infinity, read off the leading terms; a
    positive multiple of each remainder keeps the signs, in integers."""
    chain = [normalize(T), derivative(T)]
    while degree(chain[-1]) > 0:
        r = _positive_remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append(neg(r))

    def changes(sign):
        signs = [c[-1] * sign ** degree(c) > 0 for c in chain]
        return sum(a != b for a, b in zip(signs, signs[1:]))
    return changes(-1) - changes(1)


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
    sum c_i 2^(w i).  A slot holds 2 n p^2 without carrying, so the product
    of two elements, and a sum of n elements times coefficients below p,
    are one int multiplication or sum away from reduce."""

    def __init__(self, f, p):
        n = len(f) - 1
        self.n, self.p = n, p
        self.w = (2 * n * p * p).bit_length()
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
        """The element packed in s (slots below n p^2, degree <= 2n - 2):
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
        """h^e by square-and-multiply from the top bit of e, reducing each
        product of two; multiplying by x (h packed as 2^w) is a shift."""
        if e == 0:
            return 1
        w = self.w if h == 1 << self.w else None
        out = h
        for bit in bin(e)[3:]:
            out = self.reduce(out * out)
            if bit == "1":
                out = self.reduce(out << w if w else out * h)
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


def _fit(m, d, odd):
    """The one partition of m into parts >= d whose number of parts has
    the parity odd, or None when none or several do.  An odd count fits
    only [m] when d <= m < 3d (three parts need 3d); an even count fits
    only [] when m = 0 and [d, m - d] when m is 2d or 2d + 1 (two parts
    >= d otherwise come in several ways, four parts need 4d)."""
    if odd:
        return [m] if d <= m < 3 * d else None
    if m == 0:
        return []
    return [d, m - d] if m in (2 * d, 2 * d + 1) else None


def _ddf(f, p, odd=None):
    """Distinct-degree factorization of squarefree monic f: [(product, d)].

    h runs through x^(p^d) mod f, as a coefficient list.  x^p is one packed
    square-and-multiply (pmod_pow); each later power is h -> sum_j h_j Q[j]
    with the Frobenius matrix Q[j] = x^(pj) mod f (Cohen, GTM 138, Sec.
    3.4), built when d = 2 is reached.  h stays reduced mod f: the unsplit
    part v divides f, so gcd(h - x, v) is unchanged.

    odd, when given, is the parity of the number of irreducible factors of
    f.  Then the loop stops before degree d as soon as one partition of
    deg v into parts >= d fits the parity of the factors still unfound
    (_fit), and ends with (None, e) for each part e of it: one irreducible
    factor of degree e, placed without being split off."""
    out = []
    v = f
    Q = None
    found = d = 0
    while degree(v) > 0:
        d += 1
        if odd is not None:
            fit = _fit(degree(v), d, (odd + found) % 2)
            if fit is not None:
                return out + [(None, e) for e in fit]
        if 2 * d > degree(v):
            out.append((v, degree(v)))
            break
        if d == 1:
            h = pmod_pow([0, 1], p, f, p)
        else:
            if Q is None:
                ring = _QuotientRing(f, p)
                Q = [1, ring.pack(h)]
                while len(Q) < ring.n:
                    Q.append(ring.reduce(Q[-1] * Q[1]))
            h = ring.unpack(ring.reduce(sum(c * row for c, row in zip(h, Q))))
        g = pmod_gcd(v, sub(h, [0, 1]), p)
        if degree(g) > 0:
            out.append((g, d))
            found += degree(g) // d
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


def _sqf_ddf(T, p, disc, odd=None):
    """[(part, d, m)]: T mod p is the product of part^m, and part is the
    product of the distinct degree-d irreducible factors of multiplicity m
    (or, with part None, one such factor; see _ddf).  When p does not
    divide disc = disc(T), T mod p is square-free and goes straight to the
    distinct-degree factorization, with the factor count's parity odd when
    given."""
    f = pmod(T, p)
    if degree(f) != degree(T):
        raise ValueError("leading coefficient vanishes mod p (input not monic?)")
    if disc % p:
        return [(part, d, 1) for part, d in _ddf(f, p, odd)]
    return [(part, d, m) for g, m in _sqf_decomp_modp(f, p)
            for part, d in _ddf(g, p)]


def _factor_parity(disc, p, n):
    """Parity of the number r of irreducible factors of a degree-n monic T
    mod an odd prime p not dividing disc = disc(T), or None at p = 2 and at
    p | disc.  Stickelberger's theorem (Swan, Pacific J. Math. 1962):
    (disc/p) = (-1)^(n - r)."""
    if p == 2 or disc % p == 0:
        return None
    return (n + (pow(disc, (p - 1) // 2, p) != 1)) % 2


def _check_factor_count(T, p, degs_mults, odd=None):
    """Raise VerificationFailed unless the irreducible factors (d, m) of T
    mod p have degrees summing to deg T, and their number the parity odd
    when that is given."""
    if (sum(d * m for d, m in degs_mults) != degree(T)
            or odd is not None and len(degs_mults) % 2 != odd):
        raise VerificationFailed(f"lost factors of T mod {p}")


def factor_mod_p(T, p, disc=None):
    """Factor a monic integer polynomial modulo p.

    Returns [(g, e)] with g monic irreducible over F_p, sorted by (degree,
    coefficients), and prod g^e = T mod p.  Deterministic: the splitting RNG
    is seeded from (p, T).  disc = disc(T) is computed when not given; at
    odd p not dividing it, the number of factors must have Stickelberger's
    parity.
    """
    if disc is None:
        disc = discriminant(T)
    rng = random.Random((p, tuple(pmod(T, p))).__repr__())
    factors = [(irr, m) for part, d, m in _sqf_ddf(T, p, disc)
               for irr in _edf(part, d, p, rng)]
    factors.sort(key=lambda t: (degree(t[0]), t[0]))
    _check_factor_count(T, p, [(degree(g), e) for g, e in factors],
                        _factor_parity(disc, p, degree(T)))
    return factors


# Primes per Frobenius walk.  x^k mod T is walked modulo the product M of
# this many primes, after one packed power mod M: a larger block spreads
# that power over more primes, but widens every step of the walk.  Timed
# alone on a 2-vCPU host at degrees 3 and 6, the walk at 16 was no slower
# than at 32 for a prime bound of 10^4, and about 15% faster at 10^5.
_WALK_BLOCK = 16


def _frobenius_walk(T, primes):
    """[x^p mod (T, p) for p in primes], canonical coefficient lists, for
    monic T and ascending primes.  One packed power gives x^k for k the
    first prime modulo (T, M), M the product of the primes (T is monic, so
    no inverse is needed); then x^k -> x^(k+1) is a shift that folds the top
    coefficient, taken mod M, back in by -T.  A coefficient takes at most n
    folds before it is the top, so all stay below (1 + n max|T_i|) M with
    no other reduction, and x^p is the walk's state mod p."""
    n = degree(T)
    M = 1
    for p in primes:
        M *= p
    ring = _QuotientRing([c % M for c in T], M)
    h = ring.unpack(ring.pow(ring.pack([0, 1]), primes[0]))
    h += [0] * (n - len(h))
    fold = [(i, -c) for i, c in enumerate(T[:n]) if c]
    k = primes[0]
    out = []
    for p in primes:
        if p < k:
            raise ValueError("the walk needs ascending primes")
        for _ in range(p - k):
            top = h.pop() % M
            h.insert(0, 0)
            for i, c in fold:
                h[i] += c * top
        k = p
        out.append(normalize([c % p for c in h]))
    return out


def pattern_groups(T, primes, disc=None):
    """The degree patterns of monic T at the distinct primes in the list
    primes, grouped by pattern: {pattern: [p, ...]}, each pattern the tuple
    of ascending degrees of the distinct irreducible factors of T mod p.

    disc = disc(T) is computed when not given.  One list pass takes
    Euler's criterion at every odd p (_euler_criterion): (disc/p), or 0 at
    p | disc.  Where it is +-1, Stickelberger's parity of the factor count
    (_factor_parity) settles the pattern for all such p at once when one
    partition of deg T fits it (_fit): every quadratic, and a cubic with
    (disc/p) = -1, needs no Frobenius power.  The other odd p > deg T not
    dividing disc go, ascending, in blocks of _WALK_BLOCK to
    _walked_patterns: one walk gives their x^p mod (T, p)
    (_frobenius_walk), and the traces of one Berlekamp matrix modulo their
    product count their factors (_frobenius_traces).  At p = 2, at p <= deg
    T and at p | disc, the pattern comes from the distinct-degree
    factorization (_pattern), preceded at p | disc by the square-free
    decomposition.  Every pattern that is not settled by the parity alone
    is checked: the degrees with their multiplicities sum to deg T, and
    where the parity is known the count has it; otherwise
    VerificationFailed."""
    if disc is None:
        disc = discriminant(T)
    n = degree(T)
    odd = [p for p in primes if p != 2]
    euler = _euler_criterion(disc, odd)
    groups = {}
    factored = [(2, None)] if len(odd) < len(primes) else []
    factored += [(p, None) for p, e in zip(odd, euler) if not e]
    walked = []
    for ps, parity in (([p for p, e in zip(odd, euler) if e == 1], n % 2),
                       ([p for p, e in zip(odd, euler) if e > 1], 1 - n % 2)):
        fit = _fit(n, 1, parity)
        if fit is not None:
            groups.setdefault(tuple(fit), []).extend(ps)
            continue
        factored += [(p, parity) for p in ps if p <= n]
        walked += [(p, parity) for p in ps if p > n]
    factored.sort()
    walked.sort()
    for p, parity in factored:
        groups.setdefault(tuple(_pattern(T, p, disc, parity)), []).append(p)
    for i in range(0, len(walked), _WALK_BLOCK):
        block = walked[i:i + _WALK_BLOCK]
        for (p, _), pattern in zip(block, _walked_patterns(T, block)):
            groups.setdefault(tuple(pattern), []).append(p)
    return groups


def _euler_criterion(disc, primes):
    """[disc^((p-1)/2) mod p for p in primes], odd primes: 0 at p | disc,
    else 1 or a value above 1 as (disc/p) is 1 or -1.  For fixed disc,
    (disc/p) depends only on p mod 4|disc|, so when the primes outnumber
    those classes, one power at a prime of each class serves the class:
    a class holding a prime factor of disc holds no other prime."""
    period = 4 * abs(disc)
    if not 0 < period < len(primes):
        return [pow(disc, p >> 1, p) for p in primes]
    classes = [p % period for p in primes]
    euler = {r: pow(disc, p >> 1, p)
             for r, p in dict(zip(classes, primes)).items()}
    return [euler[r] for r in classes]


def degree_patterns(T, primes, disc=None):
    """Yields degree_pattern(T, p) for each of the given distinct primes:
    the ascending degrees of the distinct irreducible factors of monic T
    mod p, all of them from one pattern_groups pass."""
    primes = list(primes)
    pattern_of = {p: pattern for pattern, ps in
                  pattern_groups(T, primes, disc).items() for p in ps}
    for p in primes:
        yield list(pattern_of[p])


def _walked_patterns(T, block):
    """The patterns at one block of walked primes, [(p, parity)] ascending,
    read off the Frobenius traces in one pass over d = 1, 2, ...: with R_d
    the number of roots of T in F_(p^d), T has c_d = (R_d - sum_(e | d, e <
    d) e c_e) / d irreducible factors of degree d, each a non-negative
    integer.  A prime leaves the pass as in _ddf: once a partition of its
    unsplit degree fits the parity of the factors still unfound (_fit), or
    once 2d exceeds it; R_d is read only while a prime is left.  Each
    pattern is checked by _check_factor_count."""
    primes = [p for p, _ in block]
    traces = _frobenius_traces(T, primes, _frobenius_walk(T, primes))
    patterns = [[] for _ in block]
    unsplit = [degree(T)] * len(block)
    left = range(len(block))
    d = 0
    while left:
        d += 1
        reading = []
        for i in left:
            m, pattern = unsplit[i], patterns[i]
            fit = _fit(m, d, (block[i][1] + len(pattern)) % 2)
            if fit is not None:
                pattern += fit
            elif 2 * d > m:
                pattern.append(m)
            else:
                reading.append(i)
        if reading:
            R = next(traces)
        for i in reading:
            # pattern holds each factor of degree e < d once: e c_e in all
            pattern = patterns[i]
            c, r = divmod(R[i] - sum(e for e in pattern if d % e == 0), d)
            if r or c < 0:
                raise VerificationFailed(f"lost factors of T mod {primes[i]}")
            pattern += [d] * c
            unsplit[i] -= d * c
        left = [i for i in reading if unsplit[i]]
    for (p, parity), pattern in zip(block, patterns):
        _check_factor_count(T, p, [(e, 1) for e in pattern], parity)
    return patterns


def _frobenius_traces(T, primes, hs):
    """Yields [Tr(Q^d) mod p for p in primes] for d = 1, 2, ..., where Q is
    Berlekamp's matrix of T mod p, row j = x^(pj) mod (T, p): the matrix of
    the Frobenius of F_p[x]/(T).  When T mod p is square-free and p > deg T,
    Tr(Q^d) mod p is the number of roots of T in F_(p^d): an irreducible
    factor of degree e adds e when e | d and 0 otherwise.

    One Q serves the block.  The x^p mod (T, p) in hs are joined by CRT
    into H modulo M, the product of the primes, and row j is H^j mod (T, M)
    (T is monic); then Tr(Q^d) = sum_ij (Q^a)_ij (Q^b)_ji with b = d // 2
    and a = d - b, so each odd d past 1 costs one matrix product mod M."""
    n = degree(T)
    M = 1
    for p in primes:
        M *= p
    H = [0] * n
    for p, h in zip(primes, hs):
        e = M // p
        e *= pow(e, -1, p)
        for k, c in enumerate(h):
            H[k] += c * e
    ring = _QuotientRing([c % M for c in T], M)
    rows = [1, ring.pack([c % M for c in H])]
    while len(rows) < n:
        rows.append(ring.reduce(rows[-1] * rows[1]))

    def matrix(packed):
        return [(ring.unpack(r) + [0] * n)[:n] for r in packed]

    Q = matrix(rows)
    powers = [None, Q]  # powers[a] = Q^a mod M
    d = 0
    while True:
        d += 1
        b = d // 2
        a = d - b
        if a == len(powers):
            # row i of Q^a is sum_k (Q^(a-1))_ik Q[k], one packed sum
            powers.append(matrix(
                ring.reduce(sum(c * r for c, r in zip(row, rows)))
                for row in powers[-1]))
        if b == 0:
            t = sum(Q[i][i] for i in range(n))
        else:
            t = sum(x * y for row, col in zip(powers[a], zip(*powers[b]))
                    for x, y in zip(row, col))
        yield [t % p for p in primes]


def _pattern(T, p, disc, odd):
    """degree_pattern at one prime from the distinct-degree factorization,
    with the count's parity odd when known, checked by
    _check_factor_count."""
    irreducibles = [(d, m) for part, d, m in _sqf_ddf(T, p, disc, odd)
                    for _ in range(1 if part is None else degree(part) // d)]
    _check_factor_count(T, p, irreducibles, odd)
    return sorted(d for d, _ in irreducibles)


def degree_pattern(T, p, disc=None):
    """Ascending degrees of the distinct irreducible factors of monic T mod
    p: degree_patterns for the one prime p."""
    return next(degree_patterns(T, [p], disc))


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


def primes_up_to(n):
    """All primes <= n, by a sieve over the odd numbers."""
    if n < 2:
        return []
    odd = bytearray([1]) * ((n + 1) // 2)  # odd[i]: is 2i + 1 prime
    odd[0] = 0
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            start = p * p // 2
            odd[start::p] = bytes((len(odd) - 1 - start) // p + 1)
    return [2, *itertools.compress(range(1, n + 1, 2), odd)]

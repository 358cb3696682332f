"""Number fields, algebraic numbers and the canonical embedding.

A field is defined by a monic irreducible integer polynomial T plus an
integral basis given over the power basis of a root theta.  When no basis is
supplied the equation order Z[theta] is assumed maximal (the caller asserts
this; all bundled test fields satisfy it).  The basis is kept as integer
rows over row denominators, and the index, inverse basis (fraction-free
Gauss-Jordan), structure constants and embedding table read that form, so
field setup builds no Fraction.

Irreducibility is checked in time polynomial in the size of T: degree 1 or
2 left open by the degree patterns (polynomials.check_irreducible) is
settled on the certified root disks, so degrees up to 5 are settled in
full.  A large T parses; without a basis, Z[theta] stands for O_K and
`compute` stops with exit code 4 once its Minkowski bound is beyond the
prime sieve (cli.MAX_BOUND).

Elements multiply one way: by the field's integer structure constants,
formed in integers, whose row j holds the coordinates of omega_j*omega_i,
through `NumberField.mult_columns` (the columns of multiplication by x)
and `combine_columns`.  Element products, norms, ideal products and the
mod-p algebra of the ideals module all go through it.

Root enclosures are certified in integers: every root, real or complex,
gets a Newton disk of radius n*|T(c)/T'(c)|, computed exactly at a centre c
with a power-of-two denominator, around an approximation from a fixed-point
Aberth iteration and a Newton polish, run on T or, for a presentation
shifted by a large integer, on T moved by the rounded mean of its roots.
The n disks, conjugates included, are checked pairwise disjoint, so each
provably holds one simple root, and the r1 disks centred on the real axis
(r1 from an integer Sturm count) hold the real roots.  The embedding table
of the integral basis is exact at the disk centres, with a bound for the
disk radius.  It is the one embedding: element embeddings (`embed`) and
unit logs (analytic.log_embedding) are read off it in integers.  The tests
check it against an interval view of the disks built in tests/oracles.py.

Embedding convention: a complex conjugate pair contributes the two real
coordinates (sqrt(2)*Re, sqrt(2)*Im), which makes det sigma(O_K) equal to
sqrt(|disc|) exactly rather than up to a power of 2.  sigma(x) of an
integral x is an integer combination (`embed`) of the basis's embedding,
certified once as a table of integer centres and radii.
"""

import copy
import itertools
import json
import math
from fractions import Fraction

from . import polynomials as poly
from .errors import (BasisNotClosed, BasisNotUnimodularScaling, NonMonic,
                     PrecisionExhausted, Reducible, VerificationFailed)

_GUARD_BITS = 64
_ABERTH_BITS = 64  # the Aberth iteration's first working precision
_ABERTH_STEPS = 200
_NEWTON_STEPS = 40
_HANDFUL = 4  # most integers a product-of-roots enclosure may hold


def _inverse_over_det(mat):
    """(M, d) with mat^(-1) = M/d for a nonsingular integer matrix, by
    fraction-free Gauss-Jordan on [mat | I], each step divided exactly by the
    previous pivot (Bareiss): [mat | I] ends as [d*I | M], d = +-det(mat)."""
    n = len(mat)
    a = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(mat)]
    prev = 1
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k])
        a[k], a[piv] = a[piv], a[k]
        ak, p = a[k], a[k][k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], ak)]
        prev = p
    return [row[n:] for row in a], prev


def _integer_rows(basis, n):
    """The basis matrix (the power basis when None) as integer rows over
    row denominators, ((row, d), ...) with omega_i = row_i(theta)/d_i: d_i
    is the lcm of the reduced denominators of row i, so the row is in
    lowest terms.  An entry that is neither int nor Fraction is parsed by
    Fraction."""
    if basis is None:
        basis = [[int(i == j) for j in range(n)] for i in range(n)]
    elif len(basis) != n or any(len(r) != n for r in basis):
        raise BasisNotUnimodularScaling("basis must be an n x n matrix")
    out = []
    for row in basis:
        row = [x if isinstance(x, (int, Fraction)) else Fraction(x)
               for x in row]
        d = math.lcm(*(x.denominator for x in row))
        out.append((tuple(x.numerator * (d // x.denominator) for x in row), d))
    return tuple(out)


def combine_columns(cols, coeffs):
    """sum_j coeffs[j]*cols[j], as long as a column, skipping zero terms: the
    coordinates of x*y for cols = mult_columns(x) and coeffs those of y."""
    out = [0] * len(cols[0])
    for c, col in zip(coeffs, cols):
        if c:
            for k, t in enumerate(col):
                if t:
                    out[k] += c * t
    return out


def combine_enclosures(coeffs, centres, radii):
    """sum_j coeffs[j]*(centres[j] within radii[j]) for integer vectors: the
    centres combine by coeffs, the radii by |coeffs|, in one pass."""
    V = [0] * len(centres[0])
    R = [0] * len(V)
    for x, cs, rs in zip(coeffs, centres, radii):
        if x:
            a = abs(x)
            for j, c in enumerate(cs):
                V[j] += x * c
                R[j] += a * rs[j]
    return V, R


class NumberField:
    """Immutable number field."""

    def __init__(self, coeffs, basis=None, precision=128):
        coeffs = poly.normalize(list(coeffs))
        if not coeffs or coeffs[-1] != 1:
            raise NonMonic("defining polynomial must be monic")
        n = poly.degree(coeffs)
        if n < 1:
            raise Reducible("constant polynomial does not define a field")
        disc_T = poly.discriminant(coeffs)
        open_degrees = poly.check_irreducible(coeffs, disc_T)
        self.poly = tuple(coeffs)
        self.degree = n
        self.precision = int(precision)
        self._disks = None
        self._embedding_table = self._doubled = None
        r1 = poly.count_real_roots(coeffs)
        if (n - r1) % 2:
            raise VerificationFailed(
                f"{r1} real roots leave an odd number of complex roots")
        self.signature = (r1, (n - r1) // 2)
        if open_degrees & {1, 2}:
            self._check_small_factors(open_degrees)

        self.basis = _integer_rows(basis, n)
        # what coordinates are read against: equal elements share it, and
        # the precision, which does not change an element, is left out
        self.presentation = (self.poly, self.basis)

        # det(basis) = det(rows) / prod(d_i), the inverse of the index
        rows = [list(r) for r, _ in self.basis]
        det = poly.bareiss_det(rows)
        if det == 0:
            raise BasisNotUnimodularScaling("basis matrix is singular")
        dens = math.prod(d for _, d in self.basis)
        if dens % det:
            raise BasisNotUnimodularScaling(
                f"basis determinant {det}/{dens} is not the inverse of an "
                "integer index")
        self.index = dens // abs(det)
        if disc_T % (self.index ** 2) != 0:
            raise BasisNotUnimodularScaling(
                "index squared does not divide disc(T)")
        self.discriminant = disc_T // (self.index ** 2)

        if (self.discriminant < 0) != (self.signature[1] % 2 == 1):
            raise VerificationFailed("discriminant sign must be (-1)^r2")
        # Minkowski's (n^n/n!) (pi/4)^(n/2) <= sqrt|disc| in logs, which take
        # any |disc|; sanity only
        if (n * math.log(n) - math.lgamma(n + 1) + n / 2 * math.log(
                math.pi / 4) > math.log(abs(self.discriminant)) / 2 + 1e-9):
            raise VerificationFailed("discriminant below Minkowski's bound")

        # the inverse basis matrix rows^(-1) diag(d) as integers over one
        # common denominator, in lowest terms
        num, den = _inverse_over_det(rows)
        inv = [[a * d for a, (_, d) in zip(row, self.basis)] for row in num]
        g = math.gcd(den, *(x for row in inv for x in row)) * (den // abs(den))
        self.basis_inverse = ([[x // g for x in row] for row in inv], den // g)
        self._mult_table = self._build_mult_table()
        self._one = self.element(self.power_to_basis([1] + [0] * (n - 1)))

    # -- construction helpers ------------------------------------------------

    def _build_mult_table(self):
        """Integer structure constants: table[i][j] holds the coordinates of
        omega_i*omega_j over the integral basis.  Each basis row is cleared
        of its denominators once, omega_i = B_i(theta)/d_i with B_i
        integral; B_i B_j is reduced mod T in integers (T is monic) and
        combined by the integer inverse basis, and each coordinate is one
        exact division by the inverse's denominator times d_i d_j.  A
        nonzero remainder raises BasisNotClosed."""
        n = self.degree
        T = list(self.poly)
        inv, den = self.basis_inverse
        table = [[None] * n for _ in range(n)]
        for i, (a, da) in enumerate(self.basis):
            for j in range(i, n):
                b, db = self.basis[j]
                q = den * da * db
                coords = combine_columns(inv, poly.rem_monic(poly.mul(a, b), T))
                if any(c % q for c in coords):
                    raise BasisNotClosed(
                        f"basis element {i} times element {j} has coordinates "
                        f"{[str(Fraction(c, q)) for c in coords]}, not all "
                        "integers")
                table[i][j] = table[j][i] = tuple(c // q for c in coords)
        return table

    def power_to_basis(self, vec):
        """Coordinates over the integral basis of a power-basis vector: an
        int where it is integral, else a Fraction."""
        inv, den = self.basis_inverse
        out = []
        for j in range(self.degree):
            c = sum(x * row[j] for x, row in zip(vec, inv))
            out.append(c // den if c % den == 0 else Fraction(c, den))
        return out

    def mult_columns(self, x):
        """Columns x*omega_j over the integral basis, for x given by its
        coordinates: row j of the structure-constant table holds the products
        omega_j*omega_i, so combining it by x gives x*omega_j.  Integer
        coordinates give integer columns."""
        return [combine_columns(row, x) for row in self._mult_table]

    def multiply(self, x, y):
        """Coordinates of x*y = sum_j y_j*(x*omega_j), for x and y given by
        their coordinates; only the columns with y_j != 0 are formed."""
        zero = (0,) * self.degree
        return combine_columns([combine_columns(row, x) if c else zero
                                for row, c in zip(self._mult_table, y)], y)

    def with_precision(self, precision):
        """This field at another precision, sharing everything but the root
        disks and the embedding table, which it builds on first use."""
        other = copy.copy(self)
        other.precision = int(precision)
        other._disks = other._embedding_table = other._doubled = None
        other._one = AlgebraicNumber(other, self._one.coords)
        return other

    def doubled(self):
        """This field at twice the precision, built on first use and kept, so
        an escalating caller certifies its roots and tables only once."""
        if self._doubled is None:
            self._doubled = self.with_precision(2 * self.precision)
        return self._doubled

    # -- elements ------------------------------------------------------------

    def element(self, coords):
        return AlgebraicNumber(self, coords)

    def zero(self):
        return self.element([0] * self.degree)

    def one(self):
        return self._one

    def theta(self):
        n = self.degree
        return self.element(self.power_to_basis([0, 1] + [0] * (n - 2)))

    # -- embeddings ------------------------------------------------------------

    def root_disks(self):
        """The certified root disks in canonical order, as (disks, bits):
        each (A, B, R) is the disk of centre (A + iB)/2^bits and radius
        R/2^bits, and holds exactly one root of T; real roots descending
        (B = 0), then one disk per conjugate pair (B > 0) by descending
        real part."""
        if self._disks is None:
            self._disks = self._certify_roots(self.precision)
        return self._disks

    def _certify_roots(self, precision):
        """Newton disks around the roots of T, in integers, as (disks, bits)
        for root_disks (_newton_disks).  Each attempt runs on T itself and,
        when the mean of the roots rounded to an integer s (_root_shift) is
        not 0, then on T(x + s), so that a presentation shifted by a large
        integer iterates near 0.  A failed certificate retries with the
        working precisions doubled, up to 4 attempts, so that roots closer
        than 2^-64 separate."""
        T = list(self.poly)
        shift = _root_shift(T)
        shifts = [(0, T)] + ([(shift, poly.taylor_shift(T, shift))]
                             if shift else [])
        for attempt in range(4):
            w = _ABERTH_BITS << attempt
            bits = (precision + 2 * _GUARD_BITS) << attempt
            for s, Ts in shifts:
                disks = _newton_disks(T, Ts, s, w, bits, precision,
                                      self.signature)
                if disks is not None:
                    return disks, bits
        raise PrecisionExhausted(
            "root disks failed certification after 4 attempts")

    def _check_small_factors(self, degrees):
        """Raise Reducible when T has a monic integer factor of degree 1 or
        2 among degrees, by exact division by each candidate of
        _small_factors.  If a product's enclosure holds too many integers,
        the disks are certified again (not kept) at the precision plus the
        bits of the largest root, which makes products of roots as narrow
        as sums; if that fails too, PrecisionExhausted."""
        r1 = self.signature[0]
        disks, bits = self.root_disks()
        found = _small_factors(disks, bits, r1, degrees)
        if found is None:
            top = max(abs(a) + abs(b) for a, b, _ in disks) >> bits
            found = _small_factors(
                *self._certify_roots(self.precision + top.bit_length()),
                r1, degrees)
        if found is None:
            raise PrecisionExhausted("a product of roots is not resolved")
        for f in found:
            if not any(poly.rem_monic(list(self.poly), f)):
                raise Reducible(
                    f"polynomial has a factor of degree {len(f) - 1}")

    def embedding_table(self):
        """Scaled-integer canonical embedding of the integral basis, built
        on first use: (centres, radii, guard) with
        |2^(precision+guard) * sigma_j(omega_i) - centres[i][j]| <= radii[i][j]
        for coordinate j of basis element omega_i.

        Each entry is exact up to the root disk: omega_i is the polynomial
        P = sum b_k x^k of its power-basis row taken in x - s, for the shift
        s of _root_shift, so that a presentation shifted by a large integer
        evaluates near 0; its value at the shifted disk centre c is computed
        exactly from the powers of c, and |P(c) - P(rho)| <=
        r * sum |k b_k| (|c| + r)^(k-1) for the root rho within r of c.  At a
        pair, sqrt(2) times each end of the enclosures of Re and Im is
        rounded outward with isqrt.  An entry wider than 2^-precision
        relative to 1 + |value| raises PrecisionExhausted."""
        if self._embedding_table is None:
            self._embedding_table = self._build_embedding_table()
        return self._embedding_table

    def _build_embedding_table(self):
        n, prec = self.degree, self.precision
        scale = prec + _GUARD_BITS
        disks, bits = self.root_disks()
        s = _root_shift(list(self.poly))
        d = n - 1
        rows = [(poly.taylor_shift(list(brow), s), den << (bits * d))
                for brow, den in self.basis]
        # per place, c^k and the error weights k r (|c| + r)^(k-1), all
        # over 2^(bits d)
        places = []
        for a, b, r in disks:
            a -= s << bits
            m = math.isqrt(a * a + b * b) + 1 + r
            re, im, mk = 1, 0, r
            powers, weights = [(1 << (bits * d), 0)], [0]
            for k in range(1, n):
                powers.append((re * a - im * b << bits * (d - k),
                               re * b + im * a << bits * (d - k)))
                re, im = re * a - im * b, re * b + im * a
                weights.append(k * mk << bits * (d - k))
                mk *= m
            places.append((b != 0, powers, weights))
        centres, radii = [], []
        for beta, q in rows:
            crow, rrow = [], []
            for cplx, powers, weights in places:
                err = sum(abs(c) * e for c, e in zip(beta, weights))
                for part in range(1 + cplx):  # Re, and Im at a pair
                    v = sum(c * z[part] for c, z in zip(beta, powers))
                    c, rad = _enclose(v, err, q, scale, cplx)
                    if 2 * rad > (1 << _GUARD_BITS) + (abs(c) >> prec):
                        raise PrecisionExhausted(
                            "embedding entry wider than 2^-precision")
                    crow.append(c)
                    rrow.append(rad)
            centres.append(crow)
            radii.append(rrow)
        return centres, radii, _GUARD_BITS

    def embed(self, x):
        """sigma(x) for integer coordinates x, as (V, R): since sigma is
        Z-linear, |2^(precision+guard) sigma_j(x) - V[j]| <= R[j] for the
        table's combinations V = sum x_i centres[i], R = sum |x_i| radii[i]."""
        centres, radii, _ = self.embedding_table()
        return combine_enclosures(x, centres, radii)

    def minkowski_bound(self):
        """(n!/n^n) (4/pi)^r2 sqrt|disc| as a float, inf beyond its range;
        sqrt|disc| goes through the integer square root when |disc| itself
        is beyond it."""
        n, (r1, r2) = self.degree, self.signature
        d = abs(self.discriminant)
        try:
            root = math.sqrt(d)
        except OverflowError:
            root = math.isqrt(d)
            root = float(root) if root.bit_length() < 1024 else math.inf
        return (math.factorial(n) / n ** n) * (4 / math.pi) ** r2 * root

    def __repr__(self):
        return f"NumberField({list(self.poly)}, disc={self.discriminant})"


def _newton_disks(T, Ts, s, w, bits, precision, signature):
    """Certified root disks of T in canonical order (root_disks), or None.
    Approximations come from Aberth's iteration on fixed-point Gaussian
    integers at 2^-w, then a Newton polish at 2^-bits, both on Ts = T(x +
    s), and are moved back by s.  The r1 approximations of smallest |Im| are
    centred on the real axis, the others with Im > 0 stand for the
    conjugate pairs, and each disk has radius n*|T(c)/T'(c)|, from the
    exact values of T and T' at its centre c, rounded up, so it holds a
    root of T.  When all n disks, conjugates included, are pairwise
    disjoint (which keeps each complex disk off the real axis), each holds
    exactly one root, and a disk centred on R holds a real one because it
    is closed under conjugation.  Each disk must also be narrower than
    2^-(precision+32)."""
    n = len(T) - 1
    r1, r2 = signature
    dT, dTs = poly.derivative(T), poly.derivative(Ts)
    approx = sorted(_aberth(Ts, w), key=lambda z: abs(z[1]))
    centres = [(x, 0) for x, _ in approx[:r1]]
    centres += [z for z in approx[r1:] if z[1] > 0]
    if len(centres) != r1 + r2:
        return None
    width = 1 << (bits - precision - _GUARD_BITS // 2)
    disks = []
    for x, y in centres:
        a, b = _newton(Ts, dTs, x << (bits - w), y << (bits - w), bits)
        a += s << bits
        if r1 <= len(disks) and b <= 0:
            return None  # a pair's centre left the upper half plane
        # t = 2^(bits n) T(c) and d = 2^(bits (n-1)) T'(c), so the radius is
        # n|t|/|d| over 2^bits; r rounds it up
        tr, ti = _horner_exact(T, a, b, bits)
        dr, di = _horner_exact(dT, a, b, bits)
        d2 = dr * dr + di * di
        if d2 == 0:
            return None
        r = math.isqrt(-(-n * n * (tr * tr + ti * ti) // d2)) + 1
        if 2 * r >= width:
            return None
        disks.append((a, b, r))
    every = disks + [(a, -b, r) for a, b, r in disks[r1:]]
    if not all((a - a2) ** 2 + (b - b2) ** 2 > (r + q) ** 2
               for i, (a, b, r) in enumerate(every)
               for a2, b2, q in every[i + 1:]):
        return None
    reals = sorted(disks[:r1], reverse=True)
    pairs = sorted(disks[r1:], key=lambda d: (-d[0], d[1]))
    return reals + pairs


def _root_shift(T):
    """The mean of the roots of monic T, -T_(n-1)/n, rounded to an integer
    (ties to even): 0 for a T whose T_(n-1) is 0 or +-1, n >= 2."""
    n = len(T) - 1
    s, r = divmod(-T[n - 1], n)
    return s + (2 * r > n or 2 * r == n and s % 2)


def _small_factors(disks, bits, r1, degrees):
    """The candidate monic integer factors of degree 1 and 2 (those in
    degrees), constant term first: x - k for each integer k in a real disk,
    and x^2 - s x + q for the integers s and q in the enclosures of the sum
    and product of the roots of two real disks or of a conjugate pair (the
    product only where the sum holds an integer); None when a product's
    enclosure holds more than _HANDFUL integers (a disk is narrower than
    2^-precision, so a root's or a sum's holds at most one).  An integer
    root is real, a monic integer quadratic has two real roots or a
    conjugate pair, and each disk holds one root: the candidates are
    exhaustive."""
    den = 1 << bits
    reals = [(a - r, a + r) for a, _, r in disks[:r1]]
    ends = [(lo, hi, None, None) for lo, hi in reals] if 1 in degrees else []
    if 2 in degrees:
        for (lo, hi), (lo2, hi2) in itertools.combinations(reals, 2):
            qs = (lo * lo2, lo * hi2, hi * lo2, hi * hi2)
            ends.append((lo + lo2, hi + hi2, min(qs), max(qs)))
        for a, b, r in disks[r1:]:
            m = math.isqrt(a * a + b * b)  # |centre| is in [m, m + 1]
            ends.append((2 * (a - r), 2 * (a + r), (m - r) ** 2,
                         (m + 1 + r) ** 2))
    found = []
    for lo, hi, q_lo, q_hi in ends:
        for s in range(-(-lo // den), hi // den + 1):
            if q_lo is None:
                found.append([-s, 1])
                continue
            qs = range(-(-q_lo // den ** 2), q_hi // den ** 2 + 1)
            if len(qs) > _HANDFUL:
                return None
            found += [[q, -s, 1] for q in qs]
    return found


def _fixed_horner(scaled, x, y, w):
    """T(z) and T'(z) at z = (x + iy)/2^w in fixed point, for T given by its
    coefficients times 2^w (a monic T's leading one too); each product is
    floored to 2^-w, and the values come back times 2^w."""
    pr, pi, dr, di = scaled[-1], 0, 0, 0
    for c in reversed(scaled[:-1]):
        dr, di = ((dr * x - di * y) >> w) + pr, ((dr * y + di * x) >> w) + pi
        pr, pi = ((pr * x - pi * y) >> w) + c, (pr * y + pi * x) >> w
    return pr, pi, dr, di


def _start_points(T, w):
    """Bini's starting points for the Aberth iteration, at scale 2^w: for
    each edge k0 < k1 of the upper convex hull of the points (k,
    log2|T_k|), k1 - k0 points on the circle of radius
    |T_k0 / T_k1|^(1/(k1 - k0)), at angles offset from each other's."""
    n = len(T) - 1
    hull = []
    for k, lg in ((k, math.log2(abs(c))) for k, c in enumerate(T) if c):
        # the last point leaves the hull when on or below the new chord
        while len(hull) > 1:
            (k0, l0), (k1, l1) = hull[-2:]
            if (k1 - k0) * (lg - l0) < (l1 - l0) * (k - k0):
                break
            hull.pop()
        hull.append((k, lg))
    zs = []
    for (k0, l0), (k1, l1) in zip(hull, hull[1:]):
        u = 2 ** ((l0 - l1) / (k1 - k0))
        for j in range(k1 - k0):
            t = 2 * math.pi * (j / (k1 - k0) + k0 / n) + 0.4
            zs.append((int(math.ldexp(u * math.cos(t), w)),
                       int(math.ldexp(u * math.sin(t), w))))
    return zs + [(0, 1 << w)] * (n - len(zs))


def _aberth(T, w):
    """Approximations to the n roots of the monic integer polynomial T, as
    Gaussian integers (x, y) standing for (x + iy)/2^w: Aberth's iteration
    z_k -= N_k / (1 - N_k sum_(j != k) 1/(z_k - z_j)), N_k = T(z_k)/T'(z_k),
    in fixed point from _start_points, each z_k updated in place.  A z_k
    stops moving once |T(z_k)| is within the rounding noise of its
    fixed-point Horner value, or its step is at most 2 units; the
    iteration ends when every one has stopped, or after _ABERTH_STEPS
    sweeps."""
    n = len(T) - 1
    scaled = [c << w for c in T]
    one = 1 << w
    zs = _start_points(T, w)
    live = list(range(n))
    for _ in range(_ABERTH_STEPS):
        if not live:
            break
        moving = []
        for k in live:
            x, y = zs[k]
            pr, pi, dr, di = _fixed_horner(scaled, x, y, w)
            # T(z_k) counts as zero within 4n sum_(j<=n) |z_k|^j units, a
            # multiple of the bound sqrt2 sum_(j<n) |z_k|^j on its rounding
            m, e = 2 * max(abs(x), abs(y)), one
            for _ in range(n):
                e = ((e * m) >> w) + one
            noise = (4 * n * e) >> w
            p2 = pr * pr + pi * pi
            if p2 <= noise * noise:
                continue
            # T'/T - sum_(j != k) 1/(z_k - z_j), then its inverse is the step
            qr = ((dr * pr + di * pi) << w) // p2
            qi = ((di * pr - dr * pi) << w) // p2
            for xj, yj in zs:
                ex, ey = x - xj, y - yj
                e2 = ex * ex + ey * ey
                if e2:  # z_k itself, or a coincident z_j the sweep moves
                    qr -= (ex << 2 * w) // e2
                    qi += (ey << 2 * w) // e2
            q2 = qr * qr + qi * qi
            if q2 == 0:
                continue
            cr, ci = (qr << 2 * w) // q2, (-qi << 2 * w) // q2
            zs[k] = (x - cr, y - ci)
            if abs(cr) + abs(ci) > 2:
                moving.append(k)
        live = moving
    return zs


def _newton(T, dT, x, y, w):
    """Newton's iteration for T from (x + iy)/2^w in fixed point at 2^-w,
    until a step is at most 2 units or after _NEWTON_STEPS; y = 0 stays
    real."""
    scaled = [c << w for c in T]
    for _ in range(_NEWTON_STEPS):
        pr, pi, dr, di = _fixed_horner(scaled, x, y, w)
        d2 = dr * dr + di * di
        if d2 == 0:
            break
        cr = ((pr * dr + pi * di) << w) // d2
        ci = ((pi * dr - pr * di) << w) // d2
        x, y = x - cr, y - ci
        if abs(cr) + abs(ci) <= 2:
            break
    return x, y


def _horner_exact(coeffs, a, b, w):
    """2^(w deg) f(c) exactly, as Gaussian integers, for the integer
    polynomial f and c = (a + ib)/2^w."""
    re, im = coeffs[-1], 0
    for k, c in enumerate(reversed(coeffs[:-1]), 1):
        re, im = re * a - im * b + (c << w * k), re * b + im * a
    return re, im


def _enclose(v, err, q, bits, root2):
    """Integers (c, r) with |2^bits x - c| <= r for every x in
    [(v - err)/q, (v + err)/q], or in sqrt(2) times it when root2: the ends
    are rounded outward, first to 2^-(bits+64) when sqrt(2) follows."""
    if root2:
        g = _GUARD_BITS
        lo = _floor_root2(((v - err) << bits + g) // q, g)
        hi = _ceil_root2(-((-v - err << bits + g) // q), g)
    else:
        lo = ((v - err) << bits) // q
        hi = -((-v - err << bits) // q)
    c = (lo + hi) >> 1
    return c, max(hi - c, c - lo)


def _floor_root2(v, g):
    """floor(sqrt(2) v / 2^g) for an integer v."""
    if v < 0:
        return -_ceil_root2(-v, g)
    return math.isqrt(2 * v * v) >> g


def _ceil_root2(v, g):
    """ceil(sqrt(2) v / 2^g) for an integer v."""
    if v <= 0:
        return -_floor_root2(-v, g)
    return -(-(math.isqrt(2 * v * v - 1) + 1) >> g)


def _exact(c):
    """c as an int when it is integral, else as a Fraction."""
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class AlgebraicNumber:
    """Element of a number field, exact coordinates over the integral basis:
    an integral coordinate is an int, any other a Fraction, so integer
    coordinates build no Fraction.  Elements are equal, and hash alike, when
    their fields share poly and basis and their coordinates agree."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        if len(coords) != field.degree:
            raise ValueError(f"{len(coords)} coordinates in a field of degree "
                             f"{field.degree}")
        self.field = field
        self.coords = tuple(c if type(c) is int else _exact(c) for c in coords)

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coords)

    @property
    def is_integral(self):
        return all(c.denominator == 1 for c in self.coords)

    def _same_field(self, other):
        if self.field is not other.field:
            raise ValueError("arithmetic on elements of different fields")

    def __add__(self, other):
        self._same_field(other)
        return AlgebraicNumber(self.field,
                               [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._same_field(other)
        return AlgebraicNumber(self.field,
                               [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return AlgebraicNumber(self.field, [-a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return AlgebraicNumber(self.field, [a * other for a in self.coords])
        self._same_field(other)
        return AlgebraicNumber(self.field,
                               self.field.multiply(self.coords, other.coords))

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, AlgebraicNumber) and \
            self.field.presentation == other.field.presentation and \
            self.coords == other.coords

    def __hash__(self):
        return hash((self.field.presentation, self.coords))

    def mult_matrix(self):
        """Matrix of multiplication by self on the integral basis (columns are
        the coordinates of self * omega_j)."""
        return [list(r) for r in zip(*self.field.mult_columns(self.coords))]

    def norm(self):
        """Field norm, exact (product of all conjugates), as a Fraction:
        N(y/d) = N(y)/d^n for integer coordinates y and d their common
        denominator."""
        d = math.lcm(*(c.denominator for c in self.coords))
        y = [c.numerator * (d // c.denominator) for c in self.coords]
        return Fraction(poly.bareiss_det(self.field.mult_columns(y)),
                        d ** len(y))

    def __repr__(self):
        return f"AlgebraicNumber({[str(c) for c in self.coords]})"


# -- spec-level operations ---------------------------------------------------

def parse_field(coeffs, basis=None, precision=128):
    return NumberField(coeffs, basis=basis, precision=precision)


def norm_of(x):
    return x.norm()


def load_field_file(path):
    """Field description JSON: {"poly": [c0..,1], "basis": optional row-major
    list of n*n rational strings, "precision": int}."""
    with open(path) as f:
        data = json.load(f)
    coeffs = [int(c) for c in data["poly"]]
    basis = None
    if data.get("basis") is not None:
        flat = [Fraction(str(v)) for v in data["basis"]]
        n = poly.degree(coeffs)
        if len(flat) != n * n:
            raise ValueError("basis must have n*n entries (row-major)")
        basis = [flat[i * n:(i + 1) * n] for i in range(n)]
    return parse_field(coeffs, basis=basis, precision=int(data.get("precision", 128)))

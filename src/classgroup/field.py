"""Number fields, algebraic numbers and the canonical embedding.

A field is defined by a monic irreducible integer polynomial T plus an
integral basis given over the power basis of a root theta.  When no basis is
supplied the equation order Z[theta] is assumed maximal (the caller asserts
this; all bundled test fields satisfy it).

Real arithmetic is interval arithmetic (mpmath's interval context) at a
per-field precision.  Root enclosures are certified: real roots by Sturm
bisection with exact rational endpoints, complex roots by exact-rational
Newton disks of radius n*|T(z)/T'(z)| around high-precision approximations,
checked pairwise disjoint so each disk provably holds one simple root.

Embedding convention: a complex conjugate pair contributes the two real
coordinates (sqrt(2)*Re, sqrt(2)*Im), which makes det sigma(O_K) equal to
sqrt(|disc|) exactly rather than up to a power of 2.
"""

import json
import math
from fractions import Fraction

import mpmath
from mpmath.ctx_iv import MPIntervalContext

from . import polynomials as poly
from .errors import (BasisNotClosed, BasisNotUnimodularScaling, NonMonic,
                     PrecisionExhausted, Reducible)

_GUARD_BITS = 64


def _isqrt_exact(n):
    r = math.isqrt(n)
    return r if r * r == n else None


def _frac_sqrt_upper(q, bits=320):
    """Rational upper bound on sqrt of a nonnegative Fraction, with absolute
    slack below 2^-bits."""
    if q == 0:
        return Fraction(0)
    scale = 1 << bits
    num = q.numerator * scale * scale
    r = math.isqrt(num // q.denominator) + 1
    return Fraction(r, scale)


def det_fractions(mat):
    """Exact determinant of a square matrix of Fractions (Gaussian)."""
    a = [[Fraction(x) for x in row] for row in mat]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = None
        for i in range(k, n):
            if a[i][k] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inv
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return det


def invert_fractions(mat):
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(mat)]
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[piv] = a[piv], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [row[n:] for row in a]


class _RootBall:
    """Certified enclosure of one embedding; complex ones have im != None."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=None):
        self.re = re
        self.im = im

    @property
    def is_real(self):
        return self.im is None


class NumberField:
    """Immutable number field; safe to share across threads."""

    def __init__(self, coeffs, basis=None, precision=128):
        coeffs = poly.normalize(list(coeffs))
        if not coeffs or coeffs[-1] != 1:
            raise NonMonic("defining polynomial must be monic")
        n = poly.degree(coeffs)
        if n < 1:
            raise Reducible("constant polynomial does not define a field")
        poly.check_irreducible(coeffs)
        self.poly = tuple(coeffs)
        self.degree = n
        if basis is None:
            basis = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        else:
            basis = [[Fraction(x) for x in row] for row in basis]
            if len(basis) != n or any(len(r) != n for r in basis):
                raise BasisNotUnimodularScaling("basis must be an n x n matrix")
        self.basis = tuple(tuple(r) for r in basis)

        disc_T = poly.discriminant(coeffs)
        detb = det_fractions(basis)
        if detb == 0:
            raise BasisNotUnimodularScaling("basis matrix is singular")
        inv_det = 1 / abs(detb)
        if inv_det.denominator != 1:
            raise BasisNotUnimodularScaling(
                f"basis determinant {detb} is not the inverse of an integer index")
        self.index = inv_det.numerator
        if disc_T % (self.index ** 2) != 0:
            raise BasisNotUnimodularScaling(
                "index squared does not divide disc(T)")
        self.discriminant = disc_T // (self.index ** 2)

        r1 = poly.count_real_roots(list(coeffs))
        assert (n - r1) % 2 == 0
        self.signature = (r1, (n - r1) // 2)
        r2 = self.signature[1]
        assert (self.discriminant < 0) == (r2 % 2 == 1), \
            "discriminant sign must be (-1)^r2"
        # Minkowski inequality (n^n/n!) (pi/4)^(n/2) <= sqrt|disc|, sanity only
        mink = (n ** n / math.factorial(n)) * (math.pi / 4) ** (n / 2)
        assert mink <= math.sqrt(abs(self.discriminant)) * (1 + 1e-9)

        self.precision = int(precision)
        self._basis_inv = invert_fractions(basis)
        self._mult_table = self._build_mult_table()
        self._iv = MPIntervalContext()
        self._iv.prec = self.precision + _GUARD_BITS
        self._roots = None

    # -- construction helpers ------------------------------------------------

    def _build_mult_table(self):
        n = self.degree
        table = [[None] * n for _ in range(n)]
        T = [Fraction(c) for c in self.poly]
        for i in range(n):
            for j in range(i, n):
                prod = poly.mul(list(self.basis[i]), list(self.basis[j]))
                _, rem = poly.divmod_exact(prod, T)
                rem = rem + [Fraction(0)] * (n - len(rem))
                coords = self._power_to_basis(rem)
                if any(c.denominator != 1 for c in coords):
                    raise BasisNotClosed(
                        f"basis element {i} times element {j} has coordinates "
                        f"{[str(c) for c in coords]}, not all integers")
                table[i][j] = table[j][i] = tuple(coords)
        return table

    def _power_to_basis(self, vec):
        """Coordinates over the integral basis of a power-basis vector."""
        inv = self._basis_inv
        n = self.degree
        return [sum(Fraction(vec[i]) * inv[i][j] for i in range(n)) for j in range(n)]

    def with_precision(self, precision):
        return NumberField(list(self.poly), [list(r) for r in self.basis], precision)

    # -- elements ------------------------------------------------------------

    def element(self, coords):
        return AlgebraicNumber(self, coords)

    def zero(self):
        return self.element([0] * self.degree)

    def one(self):
        one_pb = [Fraction(1)] + [Fraction(0)] * (self.degree - 1)
        return self.element(self._power_to_basis(one_pb))

    def theta(self):
        pb = [Fraction(0), Fraction(1)] + [Fraction(0)] * (self.degree - 2)
        return self.element(self._power_to_basis(pb))

    # -- embeddings ------------------------------------------------------------

    @property
    def iv(self):
        return self._iv

    def root_balls(self):
        """Certified enclosures for all n embeddings, in canonical order:
        real roots descending, then one representative per conjugate pair
        (positive imaginary part) by descending real part."""
        if self._roots is None:
            self._roots = self._certify_roots()
        return self._roots

    def _certify_roots(self):
        ctx = self._iv
        n = self.degree
        r1, r2 = self.signature
        T = list(self.poly)
        wprec = ctx.prec
        target = Fraction(1, 1 << (self.precision + _GUARD_BITS // 2))

        reals = []
        for lo, hi in poly.isolate_real_roots(T):
            lo, hi = poly.refine_root(T, lo, hi, target)
            reals.append((lo, hi))
        assert len(reals) == r1
        reals.sort(key=lambda ivl: ivl[0], reverse=True)

        balls = [_RootBall(self._frac_iv(lo, hi)) for lo, hi in reals]
        if r2:
            balls.extend(self._certify_complex_roots(reals, wprec))
        return balls

    def _certify_complex_roots(self, real_intervals, wprec):
        n = self.degree
        r1, r2 = self.signature
        T = list(self.poly)
        dT = poly.derivative(T)
        attempts = 0
        while True:
            attempts += 1
            with mpmath.workprec(wprec * (1 << (attempts - 1))):
                try:
                    approx = mpmath.polyroots([mpmath.mpf(c) for c in reversed(T)],
                                              maxsteps=200, extraprec=wprec)
                except mpmath.libmp.NoConvergence:
                    if attempts >= 4:
                        raise PrecisionExhausted("root finding did not converge")
                    continue
            cand = []
            for z in approx:
                b = _mpf_to_fraction(mpmath.im(z))
                if b > 0:
                    cand.append((_mpf_to_fraction(mpmath.re(z)), b))
            if len(cand) != r2:
                if attempts >= 4:
                    raise PrecisionExhausted("could not separate complex roots")
                continue
            disks = []
            ok = True
            for a, b in cand:
                tv = _eval_complex_rational(T, a, b)
                dv = _eval_complex_rational(dT, a, b)
                t2 = tv[0] ** 2 + tv[1] ** 2
                d2 = dv[0] ** 2 + dv[1] ** 2
                if d2 == 0:
                    ok = False
                    break
                r_up = _frac_sqrt_upper(Fraction(n * n) * t2 / d2)
                disks.append((a, b, r_up))
            if ok:
                for i, (a, b, r) in enumerate(disks):
                    if b <= r:  # disk may touch the real axis
                        ok = False
                    for a2, b2, s in disks[i + 1:]:
                        if (a - a2) ** 2 + (b - b2) ** 2 <= (r + s) ** 2:
                            ok = False
                    for lo, hi in real_intervals:
                        if lo - r <= a <= hi + r and b <= r:
                            ok = False
            if ok:
                disks.sort(key=lambda d: (-d[0], d[1]))
                return [_RootBall(self._frac_iv(a - r, a + r),
                                  self._frac_iv(b - r, b + r))
                        for a, b, r in disks]
            if attempts >= 4:
                raise PrecisionExhausted("complex root disks failed certification")

    def _frac_iv(self, lo, hi=None):
        ctx = self._iv
        if hi is None:
            hi = lo
        a = ctx.mpf(lo.numerator) / ctx.mpf(lo.denominator)
        b = ctx.mpf(hi.numerator) / ctx.mpf(hi.denominator)
        return ctx.mpf([a.a, b.b])

    def embedding_data(self, x):
        """Raw embeddings of x: (list of real intervals, list of (re, im))."""
        assert x.field is self or x.field.poly == self.poly
        pb = x.to_power_basis()
        reals, cplx = [], []
        for ball in self.root_balls():
            if ball.is_real:
                reals.append(_eval_poly_iv(self._iv, pb, ball.re))
            else:
                cplx.append(_eval_poly_civ(self._iv, pb, ball.re, ball.im))
        return reals, cplx

    def canonical_embedding(self, x):
        """The n real coordinates (sigma_1..sigma_r1, then sqrt2*Re, sqrt2*Im
        per conjugate pair), as intervals at the field precision."""
        ctx = self._iv
        reals, cplx = self.embedding_data(x)
        sqrt2 = ctx.sqrt(ctx.mpf(2))
        out = list(reals)
        for re, im in cplx:
            out.append(sqrt2 * re)
            out.append(sqrt2 * im)
        tol = mpmath.mpf(2) ** (-self.precision)
        for v in out:
            if mpmath.mpf(v.delta.b) > tol * (1 + abs(mpmath.mpf(v.mid.b))):
                raise PrecisionExhausted(
                    "embedding interval wider than 2^-precision")
        return out

    def minkowski_bound(self):
        n, (r1, r2) = self.degree, self.signature
        return (math.factorial(n) / n ** n) * (4 / math.pi) ** r2 * \
            math.sqrt(abs(self.discriminant))

    def __repr__(self):
        return f"NumberField({list(self.poly)}, disc={self.discriminant})"


def _raw_mpf_to_fraction(t):
    sign, man, exp, _ = t
    man = int(man)
    if man == 0:
        return Fraction(0)
    v = Fraction(man if sign == 0 else -man)
    return v * Fraction(2) ** exp if exp >= 0 else v / (Fraction(2) ** -exp)


def _mpf_to_fraction(x):
    # read mantissa/exponent directly; mpmath.mpf(x) would round to the
    # precision of the ambient context
    return _raw_mpf_to_fraction(x._mpf_)


def iv_endpoints(interval):
    """Exact rational endpoints of an interval-context number."""
    lo, hi = interval._mpi_
    return _raw_mpf_to_fraction(lo), _raw_mpf_to_fraction(hi)


def _eval_complex_rational(coeffs, a, b):
    """Evaluate an integer polynomial at a+bi with exact rationals."""
    re, im = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        re, im = re * a - im * b + c, re * b + im * a
    return re, im


def _eval_poly_iv(ctx, coeffs, x):
    acc = ctx.mpf(0)
    for c in reversed(coeffs):
        c = Fraction(c)
        cc = ctx.mpf(c.numerator) / ctx.mpf(c.denominator)
        acc = acc * x + cc
    return acc


def _eval_poly_civ(ctx, coeffs, re, im):
    are, aim = ctx.mpf(0), ctx.mpf(0)
    for c in reversed(coeffs):
        c = Fraction(c)
        cc = ctx.mpf(c.numerator) / ctx.mpf(c.denominator)
        are, aim = are * re - aim * im + cc, are * im + aim * re
    return are, aim


class AlgebraicNumber:
    """Element of a number field, exact coordinates over the integral basis."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        assert len(coords) == field.degree
        self.field = field
        self.coords = tuple(Fraction(c) for c in coords)

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coords)

    @property
    def is_integral(self):
        return all(c.denominator == 1 for c in self.coords)

    def to_power_basis(self):
        n = self.field.degree
        out = [Fraction(0)] * n
        for i, c in enumerate(self.coords):
            if c:
                for j in range(n):
                    out[j] += c * self.field.basis[i][j]
        return out

    def __add__(self, other):
        assert self.field is other.field
        return AlgebraicNumber(self.field,
                               [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        assert self.field is other.field
        return AlgebraicNumber(self.field,
                               [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return AlgebraicNumber(self.field, [-a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return AlgebraicNumber(self.field, [a * other for a in self.coords])
        assert self.field is other.field
        n = self.field.degree
        table = self.field._mult_table
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coords):
            if not a:
                continue
            for j, b in enumerate(other.coords):
                if not b:
                    continue
                ab = a * b
                row = table[i][j]
                for k in range(n):
                    if row[k]:
                        out[k] += ab * row[k]
        return AlgebraicNumber(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, e):
        assert e >= 0
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        return isinstance(other, AlgebraicNumber) and \
            self.field.poly == other.field.poly and self.coords == other.coords

    def __hash__(self):
        return hash((self.field.poly, self.coords))

    def mult_matrix(self):
        """Matrix of multiplication by self on the integral basis (columns are
        the coordinates of self * omega_j)."""
        n = self.field.degree
        cols = []
        for j in range(n):
            ej = [Fraction(0)] * n
            ej[j] = Fraction(1)
            cols.append((self * AlgebraicNumber(self.field, ej)).coords)
        return [[cols[j][i] for j in range(n)] for i in range(n)]

    def norm(self):
        """Field norm, exact (product of all conjugates)."""
        return det_fractions(self.mult_matrix())

    def __repr__(self):
        return f"AlgebraicNumber({[str(c) for c in self.coords]})"


# -- spec-level operations ---------------------------------------------------

def parse_field(coeffs, basis=None, precision=128):
    return NumberField(coeffs, basis=basis, precision=precision)


def canonical_embedding(x):
    return x.field.canonical_embedding(x)


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

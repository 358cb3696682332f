"""Number fields, algebraic numbers and the canonical embedding.

A field is defined by a monic irreducible integer polynomial T plus an
integral basis given over the power basis of a root theta.  When no basis is
supplied the equation order Z[theta] is assumed maximal (the caller asserts
this; all bundled test fields satisfy it).

Elements multiply one way: by the field's integer structure constants,
whose row j holds the coordinates of omega_j*omega_i, through
`NumberField.mult_columns` (the columns of multiplication by x) and
`combine_columns`.  Element products, norms, ideal products and the mod-p
algebra of the ideals module all go through it.

Real arithmetic is interval arithmetic (mpmath's interval context) at a
per-field precision.  Root enclosures are certified: every root, real or
complex, gets an exact-rational Newton disk of radius n*|T(z)/T'(z)| around
a high-precision approximation, and the n disks, conjugates included, are
checked pairwise disjoint, so each provably holds one simple root.  The r1
disks centred on the real axis (r1 from a Sturm count) hold the real roots.

Embedding convention: a complex conjugate pair contributes the two real
coordinates (sqrt(2)*Re, sqrt(2)*Im), which makes det sigma(O_K) equal to
sqrt(|disc|) exactly rather than up to a power of 2.  sigma(x) of an
integral x is an integer combination (`embed`) of the basis's embedding,
certified once as a table of integer centres and radii.
"""

import json
import math
from fractions import Fraction

import mpmath
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import to_rational

from . import polynomials as poly
from .errors import (BasisNotClosed, BasisNotUnimodularScaling, NonMonic,
                     PrecisionExhausted, Reducible)

_GUARD_BITS = 64


def _frac_sqrt_upper(q, bits):
    """Rational upper bound on sqrt of a nonnegative Fraction, with absolute
    slack below 2^-bits."""
    if q == 0:
        return Fraction(0)
    scale = 1 << bits
    num = q.numerator * scale * scale
    r = math.isqrt(num // q.denominator) + 1
    return Fraction(r, scale)


def det_fractions(mat):
    """Exact determinant of a square rational matrix: the integer Bareiss
    determinant of d*mat, for d the common denominator, over d^n."""
    rows = [[Fraction(x) for x in row] for row in mat]
    d = math.lcm(*(x.denominator for row in rows for x in row))
    det = poly.bareiss_det([[int(x * d) for x in row] for row in rows])
    return Fraction(det, d ** len(rows))


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
    """Immutable number field."""

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
        self._embedding_table = None
        self._doubled = None

    # -- construction helpers ------------------------------------------------

    def _build_mult_table(self):
        """Integer structure constants: table[i][j] holds the coordinates of
        omega_i*omega_j over the integral basis."""
        n = self.degree
        table = [[None] * n for _ in range(n)]
        T = [Fraction(c) for c in self.poly]
        for i in range(n):
            for j in range(i, n):
                prod = poly.mul(list(self.basis[i]), list(self.basis[j]))
                _, rem = poly.divmod_exact(prod, T)
                rem = rem + [Fraction(0)] * (n - len(rem))
                coords = self.power_to_basis(rem)
                if any(c.denominator != 1 for c in coords):
                    raise BasisNotClosed(
                        f"basis element {i} times element {j} has coordinates "
                        f"{[str(c) for c in coords]}, not all integers")
                table[i][j] = table[j][i] = tuple(c.numerator for c in coords)
        return table

    def power_to_basis(self, vec):
        """Coordinates over the integral basis of a power-basis vector."""
        inv = self._basis_inv
        n = self.degree
        return [sum(Fraction(vec[i]) * inv[i][j] for i in range(n)) for j in range(n)]

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
        return NumberField(list(self.poly), [list(r) for r in self.basis], precision)

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
        one_pb = [Fraction(1)] + [Fraction(0)] * (self.degree - 1)
        return self.element(self.power_to_basis(one_pb))

    def theta(self):
        pb = [Fraction(0), Fraction(1)] + [Fraction(0)] * (self.degree - 2)
        return self.element(self.power_to_basis(pb))

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
        """Newton disks around mpmath.polyroots' approximations.  The r1
        approximations of smallest |Im| are centred on the real axis, the
        others with Im > 0 stand for the conjugate pairs, and each disk has
        the exact rational radius n*|T(z)/T'(z)|, so it holds a root of T.
        When all n disks, conjugates included, are pairwise disjoint (which
        keeps each complex disk off the real axis), each holds exactly one
        root, and a disk centred on R holds a real one because it is closed
        under conjugation.  Each disk must also be narrower than
        2^-(precision+32).  A failed certificate retries at doubled working
        precision, up to 4 attempts."""
        n = self.degree
        r1, r2 = self.signature
        T = list(self.poly)
        dT = poly.derivative(T)
        wprec = self._iv.prec
        width = Fraction(1, 1 << (self.precision + _GUARD_BITS // 2))
        # the radius' rounding slack stays far below the disk widths
        bits = max(320, self.precision + 2 * _GUARD_BITS)
        for attempt in range(4):
            with mpmath.workprec(wprec << attempt):
                try:
                    approx = mpmath.polyroots(
                        [mpmath.mpf(c) for c in reversed(T)], maxsteps=200,
                        extraprec=wprec)
                except mpmath.libmp.NoConvergence:
                    continue
            approx.sort(key=lambda z: abs(mpmath.im(z)))
            centres = [(_exact(mpmath.re(z)._mpf_), Fraction(0))
                       for z in approx[:r1]]
            centres += [(_exact(mpmath.re(z)._mpf_),
                         _exact(mpmath.im(z)._mpf_))
                        for z in approx[r1:] if mpmath.im(z) > 0]
            if len(centres) != r1 + r2:
                continue
            disks = []
            for a, b in centres:
                tv = _eval_complex_rational(T, a, b)
                dv = _eval_complex_rational(dT, a, b)
                d2 = dv[0] ** 2 + dv[1] ** 2
                if d2 == 0:
                    break
                r = _frac_sqrt_upper(n * n * (tv[0] ** 2 + tv[1] ** 2) / d2,
                                     bits)
                if 2 * r >= width:
                    break
                disks.append((a, b, r))
            if len(disks) != r1 + r2:
                continue
            every = disks + [(a, -b, r) for a, b, r in disks[r1:]]
            if all((a - a2) ** 2 + (b - b2) ** 2 > (r + s) ** 2
                   for i, (a, b, r) in enumerate(every)
                   for a2, b2, s in every[i + 1:]):
                reals = sorted(disks[:r1], reverse=True)
                pairs = sorted(disks[r1:], key=lambda d: (-d[0], d[1]))
                return ([_RootBall(self.frac_iv(a - r, a + r))
                         for a, _, r in reals] +
                        [_RootBall(self.frac_iv(a - r, a + r),
                                   self.frac_iv(b - r, b + r))
                         for a, b, r in pairs])
        raise PrecisionExhausted(
            "root disks failed certification after 4 attempts")

    def frac_iv(self, lo, hi):
        """Interval enclosing the exact rationals [lo, hi]."""
        ctx = self._iv
        a = ctx.mpf(lo.numerator) / ctx.mpf(lo.denominator)
        b = ctx.mpf(hi.numerator) / ctx.mpf(hi.denominator)
        return ctx.mpf([a.a, b.b])

    def embedding_data(self, x):
        """Raw embeddings of x: (list of real intervals, list of (re, im))."""
        assert x.field is self or x.field.poly == self.poly
        pb = x.to_power_basis()
        reals, cplx = [], []
        zero = self._iv.mpf(0)
        for ball in self.root_balls():
            if ball.is_real:
                reals.append(_eval_poly_civ(self._iv, pb, ball.re, zero)[0])
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

    def embedding_table(self):
        """Scaled-integer canonical embedding of the integral basis, built
        from canonical_embedding on first use: (centres, radii, guard) with
        |2^(precision+guard) * sigma_j(omega_i) - centres[i][j]| <= radii[i][j]
        for coordinate j of basis element omega_i."""
        if self._embedding_table is None:
            scale = 1 << (self.precision + _GUARD_BITS)
            n = self.degree
            rows = [[iv_scaled(v, scale) for v in self.canonical_embedding(
                self.element([int(i == k) for k in range(n)]))]
                for i in range(n)]
            self._embedding_table = ([[c for c, _ in row] for row in rows],
                                     [[r for _, r in row] for row in rows],
                                     _GUARD_BITS)
        return self._embedding_table

    def embed(self, x):
        """sigma(x) for integer coordinates x, as (V, R): since sigma is
        Z-linear, |2^(precision+guard) sigma_j(x) - V[j]| <= R[j] for the
        table's combinations V = sum x_i centres[i], R = sum |x_i| radii[i]."""
        centres, radii, _ = self.embedding_table()
        return combine_enclosures(x, centres, radii)

    def minkowski_bound(self):
        n, (r1, r2) = self.degree, self.signature
        return (math.factorial(n) / n ** n) * (4 / math.pi) ** r2 * \
            math.sqrt(abs(self.discriminant))

    def __repr__(self):
        return f"NumberField({list(self.poly)}, disc={self.discriminant})"


def _exact(t):
    """Exact value of a raw mpf tuple; mpmath.mpf(x) would round to the
    precision of the ambient context."""
    num, den = to_rational(t)
    return Fraction(int(num), int(den))


def iv_endpoints(interval):
    """Exact rational endpoints of an interval-context number."""
    lo, hi = interval._mpi_
    return _exact(lo), _exact(hi)


def iv_scaled(interval, scale):
    """Integers (c, r) with |scale*v - c| <= r for every v in the interval."""
    lo, hi = iv_endpoints(interval)
    lo, hi = lo * scale, hi * scale
    c = math.floor((lo + hi) / 2)
    return c, max(math.ceil(hi) - c, c - math.floor(lo))


def _eval_complex_rational(coeffs, a, b):
    """Evaluate an integer polynomial at a+bi with exact rationals."""
    re, im = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        re, im = re * a - im * b + c, re * b + im * a
    return re, im


def _eval_poly_civ(ctx, coeffs, re, im):
    """Interval Horner at re + i*im; at im = 0 the imaginary part stays
    exactly zero, so the real part is the real Horner value."""
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
        return AlgebraicNumber(self.field,
                               self.field.multiply(self.coords, other.coords))

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
        return [list(r) for r in zip(*self.field.mult_columns(self.coords))]

    def norm(self):
        """Field norm, exact (product of all conjugates)."""
        return det_fractions(self.field.mult_columns(self.coords))

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

"""Prime ideals, ideal arithmetic in HNF representation, factor bases and
ideal smoothness tests.

Ideals are stored as full column-HNF Z-bases over the field's integral basis,
so products, norms, memberships and exact divisions are deterministic integer
linear algebra.  The prime ideals above p come from factoring the defining
polynomial mod p when p is coprime to the index [O_K : Z[theta]]
(Dedekind-Kummer), and from the Buchmann-Lenstra decomposition of the
F_p-algebra O_K/pO_K when p divides it.  The inverse-complement p*P^(-1) is
a mod-p kernel of multiplication matrices, with its norm checked; a split
by either route is checked exactly (sum e*f = n, and prod P^e equals pO_K as
an HNF on the Buchmann-Lenstra route), so no splitting-theory edge case can
silently corrupt a division.

Every HNF folds generators into a triangle the ideal contains
(intlinalg.column_hnf): pO_K for a prime and its inverse complement,
|N(x)|O_K for <x>, N(b)*H_a for a*b, the ideal for ideal * P^(-1).  Products
multiply coordinate columns by the field's one product
(NumberField.mult_columns, combine_columns), which the Buchmann-Lenstra route
reduces mod p.  A product by a prime P = (p, pi) is the HNF of the 2n
generators p*a and pi*a (Cohen, GTM 138, Sec. 4.7), pi*a read off pi's
multiplication columns and folded into p*H_a.  An inert P is pO_K, its pi
in pO_K, so a*P is p*a, p times a's HNF; other products fold the n^2
products of the two bases.  An ideal whose HNF diagonal is
(N, 1, ..., 1) is cyclic, O/a = Z/N, and x lies in it exactly when
x_0 = sum_{j>=1} x_j*H[0][j] (mod N); two cyclic ideals of coprime norms
multiply as their intersection, whose residues H[0][j] are the CRT lifts of
theirs, in O(n) steps.  A factor base keeps each prime power P^e after it
is first built, so a power product builds only the factors its cached start
leaves out, and joins P^e by one such CRT product when P is unramified of
degree 1 and cyclic, as almost every base prime is at desk scale.
Valuations and divisions by P use an anti-uniformizer tau in
p*P^(-1) outside pO_K (Cohen, GTM 138, Sec. 4.8.3): x*tau/p is integral
exactly when x lies in P, and ideal * P^(-1) = ideal + (tau/p)*ideal.  The
smoothness test of an element avoids that loop where it can: with k what
is left of v_p(N(x)), v_P(x) at such a P is min(k, v_p(x_0 - sum x_j*H[0][j]))
over the HNF of P^k, and when every prime above p is in the base the last
one's valuation is what the norm leaves.  verify_relation keeps the tau
loop, so a stored relation is checked by an algorithm independent of the
one that found it.  Norm checks on products and divisions raise
VerificationFailed.

A factor base builds only its primes: T mod p is factored once, and only
the factors with p^f <= B become prime ideals.

Ideal lattices are integer too.  The field certifies the canonical
embedding of its integral basis once, as an integer table of centres and
radii 64 guard bits below the lattice scale; a lattice coordinate is the
field's integer embedding of the HNF column (NumberField.embed), rounded
only when the whole enclosing interval rounds to one integer.  An ambiguous
rounding raises PrecisionExhausted, and the relation search retries in the
field's doubled-precision copy.
"""

import itertools
import json
import math
from dataclasses import dataclass, field as dc_field, replace

from . import polynomials as poly
from .errors import (BasisNotMaximal, EmptyFactorBase, PrecisionExhausted,
                     VerificationFailed)
from .field import combine_columns
from .intlinalg import column_hnf
from .lattice import LatticeBasis
from .smoothness import smooth_part


@dataclass(frozen=True)
class Ideal:
    """Integral ideal: columns of hnf_basis are a Z-basis over the integral
    basis, in upper-triangular column HNF; norm equals the determinant."""
    hnf_basis: tuple  # tuple of column tuples
    norm: int

    def __eq__(self, other):
        return isinstance(other, Ideal) and self.hnf_basis == other.hnf_basis

    def __hash__(self):
        return hash(self.hnf_basis)


@dataclass(frozen=True)
class PrimeIdeal:
    """Prime ideal P = (p, alpha).  gen_poly holds alpha mod p and keys the
    prime in factor bases, relation matrices and dumps.  For p coprime to the
    index it is the monic factor g of T mod p (coefficients of alpha = g(theta)
    in the power basis, constant first); for p dividing the index it is the
    n coordinates of alpha over the integral basis.

    tau lies in p*P^(-1) outside pO_K, so v_P(tau) = e - 1, v_Q(tau) >= e_Q
    at the other Q above p, and pO_K + tau*O_K = p*P^(-1); tau_mult holds
    the integer columns tau*omega_j, and gen_mult the columns alpha*omega_j
    of the second generator.  The hash leaves out the HNF bases, which
    (p, gen_poly) determines; equality compares them too."""
    p: int
    gen_poly: tuple
    ram_e: int
    res_f: int
    norm: int
    hnf_basis: tuple = dc_field(hash=False)
    inv_basis: tuple = dc_field(hash=False)  # HNF basis of p * P^(-1)
    tau: tuple = dc_field(compare=False)
    tau_mult: tuple = dc_field(compare=False)
    gen_mult: tuple = dc_field(compare=False)

    def as_ideal(self):
        return Ideal(self.hnf_basis, self.norm)

    def __repr__(self):
        return f"PrimeIdeal(p={self.p}, e={self.ram_e}, f={self.res_f})"


def _ideal_of_hnf(h):
    norm = 1
    for j, c in enumerate(h):
        norm *= c[j]
    return Ideal(tuple(tuple(c) for c in h), norm)


def _hnf_ideal_over(tri, cols):
    """The Ideal spanned by cols and a triangle tri inside it (column_hnf)."""
    return _ideal_of_hnf(column_hnf(tri, cols))


def _scalar_columns(d, n):
    """The HNF columns of dO_K."""
    return [[d if i == j else 0 for i in range(n)] for j in range(n)]


def unit_ideal(field):
    return _ideal_of_hnf(_scalar_columns(1, field.degree))


def _element_of_gen_poly(gen_poly, field):
    """Integer coordinates of g(theta): g is reduced mod the monic T in
    integers (an inert prime has deg g = n and g(theta) lands in pO), then
    mapped by the integer basis inverse and divided exactly by its common
    denominator."""
    n, T = field.degree, field.poly
    rem = [int(c) for c in gen_poly]
    for k in range(len(rem) - 1, n - 1, -1):
        c = rem.pop()
        for i in range(n):
            rem[k - n + i] -= c * T[i]
    inv, den = field.basis_inverse
    coords = []
    for j in range(n):
        q, r = divmod(sum(x * row[j] for x, row in zip(rem, inv)), den)
        if r:
            raise VerificationFailed(
                f"g(theta) for g = {list(gen_poly)} has a non-integral "
                f"coordinate")
        coords.append(q)
    return coords


def integral_norm(x):
    """(|N(x)|, integer multiplication-by-x columns) for integral x."""
    if not x.is_integral:
        raise VerificationFailed("element is not integral")
    cols = x.field.mult_columns([c.numerator for c in x.coords])
    return abs(poly.bareiss_det(cols)), cols


def ideal_from_element(x):
    """Principal ideal <x> for integral x: the columns x*omega_j folded into
    |N(x)|O_K; its norm is checked against |N(x)|, their determinant."""
    if x.is_zero:
        raise ValueError("the zero element generates no ideal of finite norm")
    nx, cols = integral_norm(x)
    ideal = _hnf_ideal_over(_scalar_columns(nx, x.field.degree), cols)
    if ideal.norm != nx:
        raise VerificationFailed("HNF determinant of <x> differs from |N(x)|")
    return ideal


def _ideal_product(a, b, field):
    """a*b: the n^2 products of the two bases folded into N(b)*H_a."""
    cols = []
    for x in a.hnf_basis:
        mult = field.mult_columns(x)
        cols.extend(combine_columns(mult, y) for y in b.hnf_basis)
    tri = [[b.norm * v for v in g] for g in a.hnf_basis]
    return _hnf_ideal_over(tri, cols)


def _is_cyclic(a):
    """Whether a's HNF diagonal is (N, 1, ..., 1): then O/a is Z/N, which
    omega_0 generates, and x lies in a exactly when
    x_0 = sum_{j>=1} x_j*H[0][j] (mod N)."""
    return a.norm == a.hnf_basis[0][0]


def _has_cyclic_powers(P):
    """Whether every power of P is cyclic: P is unramified of degree 1 and
    cyclic, so O/P^k is Z/p^k and omega_0, outside P, generates it."""
    return P.ram_e == 1 and P.res_f == 1 and _is_cyclic(P)


def _crt_product(a, b):
    """a*b = a cap b for cyclic a, b of coprime norms: the congruence mod
    N(a)*N(b) whose residues are the CRT lifts of a's and b's."""
    n, na, nb = len(a.hnf_basis), a.norm, b.norm
    u = pow(na, -1, nb)
    cols = [[na * nb] + [0] * (n - 1)]
    for j in range(1, n):
        r = a.hnf_basis[j][0]
        col = [0] * n
        col[0], col[j] = r + na * ((b.hnf_basis[j][0] - r) * u % nb), 1
        cols.append(col)
    return Ideal(tuple(map(tuple, cols)), na * nb)


def _is_inert(P, n):
    """Whether the PrimeIdeal P = (p, alpha) is pO_K: P has degree n and
    its second generator alpha lies in pO_K (every column of gen_mult is
    0 mod p)."""
    return P.res_f == n and not any(v % P.p for c in P.gen_mult for v in c)


def _scalar_product(a, p):
    """p*a: p times a's HNF columns, which is again an HNF."""
    return _ideal_of_hnf([[p * v for v in g] for g in a.hnf_basis])


def ideal_mul(a, b, field):
    """a*b, its norm checked.  When a and b are cyclic (_is_cyclic) of
    coprime norms it is their intersection, read off by CRT.  Otherwise, for
    an inert PrimeIdeal b = pO_K (_is_inert) it is p*a; for any other
    PrimeIdeal b = (p, alpha), the HNF of the 2n generators p*g and alpha*g
    over a's HNF columns g, the columns alpha*g from b.gen_mult folded into
    the triangular p*g; otherwise of the n^2 products."""
    if (_is_cyclic(a) and _is_cyclic(b)
            and math.gcd(a.norm, b.norm) == 1):
        out = _crt_product(a, b)
    elif isinstance(b, PrimeIdeal):
        if _is_inert(b, len(a.hnf_basis)):
            out = _scalar_product(a, b.p)
        else:
            out = _hnf_ideal_over(
                [[b.p * v for v in g] for g in a.hnf_basis],
                [combine_columns(b.gen_mult, g) for g in a.hnf_basis])
    else:
        out = _ideal_product(a, b, field)
    if out.norm != a.norm * b.norm:
        raise VerificationFailed("ideal norms do not multiply")
    return out


def ideal_pow(a, e, field):
    """a^e by e - 1 products; the unit ideal when e = 0."""
    return _fold_product([a] * e, field)


def _fold_product(factors, field):
    """One ideal_mul per factor after the first; [] gives the unit ideal."""
    out = factors[0] if factors else unit_ideal(field)
    for b in factors[1:]:
        out = ideal_mul(out, b, field)
    return out


# ---------------------------------------------------------------------------
# Prime splitting

def _modp_kernel(mat, p):
    """Basis of the kernel of an m x n integer matrix over F_p: one vector
    per free column of the reduced row echelon form."""
    n = len(mat[0])
    echelon = _modp_echelon(mat, p)
    kernel = []
    for fc in range(n):
        if fc in echelon:
            continue
        v = [0] * n
        v[fc] = 1
        for c, row in echelon.items():
            v[c] = (-row[fc]) % p
        kernel.append(v)
    return kernel


def _anti_uniformizer(p, inv_basis, field):
    """tau: the first column of p*P^(-1)'s HNF outside pO_K, with its
    multiplication columns."""
    tau = next(c for c in inv_basis if any(v % p for v in c))
    return tau, tuple(tuple(c) for c in field.mult_columns(tau))


def _check_norm(ideal, expected, what):
    if ideal.norm != expected:
        raise VerificationFailed(
            f"{what} has determinant {ideal.norm}, expected {expected}")


def _check_invertible(ideal, inv_ideal, p, field):
    """BasisNotMaximal unless P * (pO : P) = pO_K.  Every P above p is
    invertible iff the basis is maximal at p, and valuation relies on it:
    at a P that is not, its x -> x*tau/p loop never ends."""
    pO = _ideal_of_hnf(_scalar_columns(p, field.degree))
    if _ideal_product(ideal, inv_ideal, field) != pO:
        raise BasisNotMaximal(p)


def _prime_from_gen(p, gen_poly, e, f, field):
    n = field.degree
    g_mult = field.mult_columns(_element_of_gen_poly(gen_poly, field))
    p_cols = _scalar_columns(p, n)
    ideal = _hnf_ideal_over(p_cols, g_mult)
    _check_norm(ideal, p ** f, f"prime ideal above {p}")
    # p * P^(-1) = (pO : P) = { x in O : x*g in pO } + pO, via mod-p kernel
    kern = _modp_kernel(_columns_to_rows(g_mult), p)
    inv_ideal = _hnf_ideal_over(p_cols, kern)
    _check_norm(inv_ideal, p ** (n - f), f"inverse complement above {p}")
    # Z[theta] is maximal at p when p^2 does not divide disc(T)
    if (field.discriminant * field.index ** 2) % (p * p) == 0:
        _check_invertible(ideal, inv_ideal, p, field)
    tau, tau_mult = _anti_uniformizer(p, inv_ideal.hnf_basis, field)
    return PrimeIdeal(p=p, gen_poly=tuple(int(c) % p for c in gen_poly),
                      ram_e=e, res_f=f, norm=p ** f,
                      hnf_basis=ideal.hnf_basis, inv_basis=inv_ideal.hnf_basis,
                      tau=tau, tau_mult=tau_mult,
                      gen_mult=tuple(tuple(c) for c in g_mult))


# Index divisors: Buchmann-Lenstra decomposition of O_K/pO_K (Cohen, GTM 138,
# Sec. 6.2.2 and Alg. 6.2.9).  Elements of O_K/pO_K are coordinate lists mod p
# over the integral basis, multiplied by the field's product reduced mod p;
# F_p-subspaces are reduced row echelon forms {pivot column: row}.

def _modp_mul(x, y, field, p):
    return [v % p for v in field.multiply(x, y)]


def _modp_pow(x, e, one, field, p):
    result, base = one, x
    while e:
        if e & 1:
            result = _modp_mul(result, base, field, p)
        base = _modp_mul(base, base, field, p)
        e >>= 1
    return result


def _modp_reduce(v, echelon, p):
    """v minus its component along the subspace: zero iff v lies in it."""
    v = [x % p for x in v]
    for c, row in echelon.items():
        if v[c]:
            f = v[c]
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return v


def _modp_echelon(vectors, p):
    """Reduced row echelon form of the F_p-span of vectors (canonical)."""
    echelon = {}
    for v in vectors:
        v = _modp_reduce(v, echelon, p)
        c = next((i for i, x in enumerate(v) if x), None)
        if c is None:
            continue
        inv = pow(v[c], -1, p)
        v = [(x * inv) % p for x in v]
        for k, row in echelon.items():
            if row[c]:
                f = row[c]
                echelon[k] = [(a - f * b) % p for a, b in zip(row, v)]
        echelon[c] = v
    return {c: echelon[c] for c in sorted(echelon)}


def _columns_to_rows(cols):
    return [list(r) for r in zip(*cols)]


def _mult_rows_modp(x, field, p):
    """Rows of the multiplication-by-x matrix mod p (column j is x * w_j)."""
    return _columns_to_rows([[v % p for v in col]
                             for col in field.mult_columns(x)])


def _maximal_ideals_modp(p, field):
    """Maximal ideals of O_K/pO_K as echelon forms of their F_p-subspaces.

    The p-radical is the kernel of x -> x^(p^k) with p^k >= n.  An ideal J
    containing it has a semisimple quotient with as many simple factors as
    the Berlekamp kernel {x : x^p - x in J} exceeds J in dimension.  Until
    that excess is 1, an alpha in the kernel but outside F_p + J has a
    minimal polynomial prod (X - c) mod J with distinct c in F_p, and the
    ideals J + (alpha - c) split the quotient into smaller products."""
    n = field.degree
    one = [int(c) % p for c in field.one().coords]
    basis = [[int(i == j) for i in range(n)] for j in range(n)]
    q = p
    while q < n:
        q *= p
    radical = _modp_kernel(
        _columns_to_rows([_modp_pow(w, q, one, field, p) for w in basis]), p)
    berlekamp = [[(a - b) % p
                  for a, b in zip(_modp_pow(w, p, one, field, p), w)]
                 for w in basis]
    pending = [_modp_echelon(radical, p)]
    maximal = []
    while pending:
        J = pending.pop()
        fixed = _modp_kernel(_columns_to_rows(
            [_modp_reduce(v, J, p) for v in berlekamp]), p)
        if len(fixed) - len(J) == 1:
            maximal.append(J)
            continue
        scalars = _modp_echelon(list(J.values()) + [one], p)
        alpha = next(v for v in fixed if any(_modp_reduce(v, scalars, p)))
        powers = [one]
        while True:
            powers.append(_modp_mul(powers[-1], alpha, field, p))
            dep = _modp_kernel(_columns_to_rows(
                [_modp_reduce(v, J, p) for v in powers]), p)
            if dep:
                break
        for g, e in poly.factor_mod_p(dep[0], p):
            if poly.degree(g) != 1 or e != 1:
                raise VerificationFailed(
                    f"minimal polynomial mod {p} must split into distinct "
                    "linear factors")
            shifted = [(a + g[0] * b) % p for a, b in zip(alpha, one)]
            gens = list(J.values()) + [_modp_mul(shifted, w, field, p)
                                       for w in basis]
            pending.append(_modp_echelon(gens, p))
    return maximal


def _second_generator(gens, field, p):
    """First alpha = sum c_i gens[i] with (p, alpha) = P, where gens span
    P/pO_K: alpha*O_K/pO_K must have the dimension of P/pO_K.  Coefficient
    vectors are tried by height, then lexicographically."""
    n = field.degree
    d = len(gens)
    if d == 0:
        return [0] * n
    for h in range(1, p):
        for cs in itertools.product(range(h + 1), repeat=d):
            if h not in cs:
                continue
            alpha = [sum(c * g[k] for c, g in zip(cs, gens)) % p for k in range(n)]
            if n - len(_modp_kernel(_mult_rows_modp(alpha, field, p), p)) == d:
                return alpha
    raise VerificationFailed(f"no second generator for a prime above {p}")


def _index_divisor_primes(p, field):
    """Prime ideals above a p dividing the index, with inverse complements,
    ramification from the valuation of pO_K, and prod P^e = pO_K checked."""
    n = field.degree
    p_cols = _scalar_columns(p, n)
    pO = _ideal_of_hnf(p_cols)
    out = []
    for J in _maximal_ideals_modp(p, field):
        gens = list(J.values())
        f = n - len(gens)
        ideal = _hnf_ideal_over(p_cols, gens)
        _check_norm(ideal, p ** f, f"prime ideal above {p}")
        # p * P^(-1) = { x in O : x*P in pO }, via mod-p kernel over P's HNF
        rows = [r for g in ideal.hnf_basis
                for r in _mult_rows_modp(g, field, p)]
        inv_ideal = _hnf_ideal_over(p_cols, _modp_kernel(rows, p))
        _check_invertible(ideal, inv_ideal, p, field)
        _check_norm(inv_ideal, p ** (n - f), f"inverse complement above {p}")
        alpha = _second_generator(gens, field, p)
        tau, tau_mult = _anti_uniformizer(p, inv_ideal.hnf_basis, field)
        P = PrimeIdeal(p=p, gen_poly=tuple(alpha), ram_e=0, res_f=f,
                       norm=p ** f, hnf_basis=ideal.hnf_basis,
                       inv_basis=inv_ideal.hnf_basis, tau=tau,
                       tau_mult=tau_mult, gen_mult=tuple(
                           tuple(c) for c in field.mult_columns(alpha)))
        out.append(replace(P, ram_e=valuation(pO, P, field)))
    if _fold_product([P.as_ideal() for P in out for _ in range(P.ram_e)],
                     field) != pO:
        raise VerificationFailed(
            f"product of the primes above {p} is not {p}O_K")
    return out


def factor_prime(p, field):
    """Prime ideals above p, sorted by (norm, gen_poly).

    For p coprime to the index [O_K : Z[theta]] they come from the
    factorization of T mod p; for p dividing it, from the Buchmann-Lenstra
    decomposition of O_K/pO_K.  Either route raises BasisNotMaximal when the
    integral basis spans an order that is not maximal at p, which the
    Dedekind-Kummer route checks only where p^2 divides disc(T).
    """
    return _primes_above(p, field, p ** field.degree)


def _primes_above(p, field, bound):
    """Primes above p of norm <= bound, sorted by (norm, gen_poly), with sum
    e*f = n checked; for p coprime to the index only these are built."""
    if field.index % p == 0:
        every = _index_divisor_primes(p, field)
        split = [(P.ram_e, P.res_f) for P in every]
        out = [P for P in every if P.norm <= bound]
    else:
        factors = poly.factor_mod_p(list(field.poly), p,
                                    field.discriminant * field.index ** 2)
        split = [(e, poly.degree(g)) for g, e in factors]
        out = [_prime_from_gen(p, g, e, f, field)
               for (g, _), (e, f) in zip(factors, split) if p ** f <= bound]
    if sum(e * f for e, f in split) != field.degree:
        raise VerificationFailed(f"lost prime ideals above {p}")
    out.sort(key=lambda P: (P.norm, P.gen_poly))
    return out


def _tau_over_p(gens, P):
    """[g*tau/p for g in gens], or None when some g lies outside P."""
    out = []
    for g in gens:
        q = []
        for c in combine_columns(P.tau_mult, g):
            d, r = divmod(c, P.p)
            if r:
                return None
            q.append(d)
        out.append(q)
    return out


def ideal_divide_prime(ideal, P, field):
    """Exact division ideal * P^(-1); P must divide ideal.  Since
    p*P^(-1) = pO + tau*O, the quotient is ideal + (tau/p)*ideal: the HNF of
    the generators g_j and g_j*tau/p, the latter folded into the g_j."""
    quotients = _tau_over_p(ideal.hnf_basis, P)
    if quotients is None:
        raise VerificationFailed(f"{P!r} does not divide the ideal")
    out = _hnf_ideal_over(ideal.hnf_basis, quotients)
    if out.norm * P.norm != ideal.norm:
        raise VerificationFailed(
            f"quotient by {P!r} has norm {out.norm}, expected "
            f"{ideal.norm // P.norm}")
    return out


def valuation(target, P, field=None):
    """Exact P-adic valuation of an Ideal, an integral AlgebraicNumber, or
    the integer coordinates (a list) of a nonzero algebraic integer: how
    many times x -> x*tau/p keeps every generator integral, the generators
    being the element itself or the HNF columns of the ideal.  A zero or
    non-integral AlgebraicNumber raises ValueError; a caller that already
    holds an element's integer coordinates passes them, and skips that
    check."""
    if hasattr(target, "coords"):
        if target.is_zero or not target.is_integral:
            raise ValueError("valuation needs a nonzero algebraic integer")
        gens = [[c.numerator for c in target.coords]]
    elif isinstance(target, list):
        if not any(target):
            raise ValueError("valuation needs a nonzero algebraic integer")
        gens = [target]
    else:
        gens = target.hnf_basis
    v = 0
    while True:
        gens = _tau_over_p(gens, P)
        if gens is None:
            return v
        v += 1


# ---------------------------------------------------------------------------
# Factor base

@dataclass
class FactorBase:
    bound: int
    primes: list  # PrimeIdeal, sorted by (norm, p, gen_poly)
    bach_bound: int

    @property
    def size(self):
        return len(self.primes)

    def primes_above(self, p):
        """The base primes above the rational prime p, in base order."""
        return self._above.get(p, ())

    def holds_every_prime_above(self, p):
        """Whether every prime above the rational prime p is in the base:
        sum e*f = n over the base primes above p."""
        return p in self._complete

    def index_of(self, P):
        return self._index[(P.p, P.gen_poly)]

    def power(self, i, e, field):
        """primes[i]^e for e >= 1, kept after it is first built: P^e is
        P^(e-1) times P's two generators, so a first build of P^e costs e - 1
        products."""
        out = self._powers.get((i, e))
        if out is None:
            P = self.primes[i]
            out = (P.as_ideal() if e == 1 else
                   ideal_mul(self.power(i, e - 1, field), P, field))
            self._powers[(i, e)] = out
        return out

    def __post_init__(self):
        self._powers = {}
        self._index = {(P.p, P.gen_poly): i for i, P in enumerate(self.primes)}
        above = {}
        for P in self.primes:
            above.setdefault(P.p, []).append(P)
        self._above = {p: tuple(Ps) for p, Ps in above.items()}
        self._complete = {p for p, Ps in above.items() if sum(
            P.ram_e * P.res_f for P in Ps) == len(Ps[0].hnf_basis)}

    def dump_jsonl(self, fh):
        for P in self.primes:
            fh.write(json.dumps({"p": P.p, "f": P.res_f, "e": P.ram_e,
                                 "norm": P.norm,
                                 "gen_poly": list(P.gen_poly)}) + "\n")


def bach_bound(field):
    """ceil(12 (log |disc|)^2), the ERH generating bound for the class group."""
    return math.ceil(12 * math.log(abs(field.discriminant)) ** 2)


def build_factor_base(field, B):
    """All prime ideals of norm <= B, sorted by (norm, p, gen_poly).  At a
    p not dividing disc(T), and so not the index, the degree pattern of T
    mod p (one polynomials.pattern_groups pass) gives the residue degrees
    above p first, and p is not factored when p^f > B for each of them."""
    if B < 2:
        raise EmptyFactorBase(f"no prime ideal has norm <= {B}")
    disc = field.discriminant * field.index ** 2
    primes = poly.primes_up_to(B)
    too_large = {p for degs, ps in poly.pattern_groups(
                     list(field.poly), [p for p in primes if disc % p],
                     disc).items()
                 for p in ps if p ** degs[0] > B}
    primes = [P for p in primes if p not in too_large
              for P in _primes_above(p, field, B)]
    if not primes:
        raise EmptyFactorBase(f"no prime ideal has norm <= {B}")
    primes.sort(key=lambda P: (P.norm, P.p, P.gen_poly))
    return FactorBase(bound=B, primes=primes, bach_bound=bach_bound(field))


def ideal_from_power_product(fb, indices, exponents, field):
    """prod fb.primes[i]^e; the empty product is the unit ideal.  The first
    factor of largest exponent comes from fb.power.  Another factor joins as
    its power P^e from fb.power, by one CRT product, when P^e and the
    product so far are cyclic and coprime (_has_cyclic_powers, _is_cyclic);
    otherwise P multiplies in by its two generators, or as p*a when P is
    inert, one product per unit of exponent.  Either way it takes sum(e) - 1
    products when the powers are not yet kept.  Raises ValueError for an
    exponent below 1."""
    if any(e < 1 for e in exponents):
        raise ValueError(f"power-product exponents {list(exponents)} must "
                         "all be at least 1")
    factors = list(zip(indices, exponents, strict=True))
    if not factors:
        return unit_ideal(field)
    first = max(range(len(factors)), key=lambda t: factors[t][1])
    out = fb.power(*factors.pop(first), field)
    for i, e in factors:
        P = fb.primes[i]
        if _has_cyclic_powers(P) and _is_cyclic(out) and out.norm % P.p:
            out = ideal_mul(out, fb.power(i, e, field), field)
        else:
            for _ in range(e):
                out = ideal_mul(out, P, field)
    return out


# ---------------------------------------------------------------------------
# Smoothness of ideals

def _congruence_valuation(x, Pk, p, k):
    """min(k, v_P(x)) for the coordinates x of a nonzero algebraic integer,
    where Pk = P^k is cyclic: x lies in P^m for m <= k exactly when p^m
    divides x_0 - sum_{j>=1} x_j*H[0][j] over Pk's HNF H."""
    if not _is_cyclic(Pk):
        raise VerificationFailed(f"a power of a prime above {p} is not cyclic")
    d = (x[0] - sum(c * col[0] for c, col in zip(x[1:], Pk.hnf_basis[1:]))) \
        % Pk.norm
    if not d:
        return k
    v = 0
    while d % p == 0:
        d //= p
        v += 1
    return v


def _element_valuations(x, smooth, fb, field):
    """(P, v_P(x)) for the base primes P above each p of smooth, the
    exponents of |N(x)| at the p <= B, for the coordinates x of a nonzero
    algebraic integer.  At p, k is what is left of v_p(N(x)) after the
    primes before P: a prime with cyclic powers takes the congruence of P^k,
    once nothing is left a prime takes 0, and when every prime above p is in
    the base the last one takes (k - sum f*v)/f from the norm; every other
    prime takes the tau-loop of valuation."""
    for p, k in smooth.items():
        above = fb.primes_above(p)
        complete = fb.holds_every_prime_above(p)
        for P in above:
            if complete and P is above[-1]:
                v, r = divmod(k, P.res_f)
                if r or v < 0:
                    raise VerificationFailed(
                        f"{k} left of the norm at {p} is not a valuation "
                        f"at {P!r}")
            elif not k:
                v = 0
            elif _has_cyclic_powers(P):
                v = _congruence_valuation(
                    x, fb.power(fb.index_of(P), k, field), p, k)
            else:
                v = valuation(x, P)
            k -= P.res_f * v
            yield P, v


def is_smooth_ideal(target, fb, field, norm=None):
    """Exponent dict {factor base index: valuation} if the Ideal, or the
    principal ideal of an integral element, factors completely over fb, else
    None.  Reconstruction is verified exactly: prod norm(P)^e must equal the
    norm, which a caller that holds |N(x)| of an element passes as `norm`.
    An element's valuations come from _element_valuations on its integer
    coordinates, taken once; an Ideal's from the tau-loop of valuation."""
    if norm is None:
        norm = (integral_norm(target)[0] if hasattr(target, "coords")
                else target.norm)
    if norm == 1:
        return {}
    res = smooth_part(norm, fb.bound)
    if res.cofactor != 1:
        return None
    if hasattr(target, "coords"):
        found = _element_valuations([c.numerator for c in target.coords],
                                    res.smooth_part, fb, field)
    else:
        found = ((P, valuation(target, P, field))
                 for p in res.smooth_part for P in fb.primes_above(p))
    exps = {}
    check = 1
    for P, v in found:
        if v:
            exps[fb.index_of(P)] = v
            check *= P.norm ** v
    if check != norm:
        return None  # a prime of norm > B over a smooth p divides it
    return exps


# ---------------------------------------------------------------------------
# Ideal lattices

def ideal_lattice(ideal, field):
    """Scaled-integer basis of the canonical embedding of the ideal: column
    j is round(2^s * sigma(g_j)) for the HNF generator g_j, where s is the
    field precision, recorded as scale_bits.  Each coordinate is the
    field's integer embedding V within R of g_j (field.embed), and is
    rounded only when V - R and V + R round to the same integer.  Otherwise
    PrecisionExhausted asks the caller to retry in field.doubled().  The
    Gram determinant of the unrounded embedding is |disc| * N(ideal)^2.
    """
    guard = field.embedding_table()[2]
    half = 1 << (guard - 1)
    cols = []
    for g in ideal.hnf_basis:
        col = []
        for v, r in zip(*field.embed(g)):
            lo = (v + half - r) >> guard
            if lo != (v + half + r) >> guard:
                raise PrecisionExhausted(
                    "embedding rounding ambiguous at the lattice scale")
            col.append(lo)
        cols.append(col)
    return LatticeBasis(cols, scale_bits=field.precision)

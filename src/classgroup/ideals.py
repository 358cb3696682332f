"""Prime ideals, ideal arithmetic in HNF representation, factor bases and
ideal smoothness tests.

Ideals are stored as full column-HNF Z-bases over the field's integral basis,
so products, norms, memberships and exact divisions are deterministic integer
linear algebra.  The prime ideals above p come from factoring the defining
polynomial mod p when p is coprime to the index [O_K : Z[theta]]
(Dedekind-Kummer), and from the Buchmann-Lenstra decomposition of the
F_p-algebra O_K/pO_K when p divides it.  The inverse-complement p*P^(-1) is
a mod-p kernel of multiplication matrices, with its norm asserted; a split
by either route is checked exactly (sum e*f = n, and prod P^e equals pO_K as
an HNF on the Buchmann-Lenstra route), so no splitting-theory edge case can
silently corrupt a division.

Products multiply coordinate columns by the field's one product
(NumberField.mult_columns, combine_columns), which the Buchmann-Lenstra route
reduces mod p.  Valuations and divisions by P use an anti-uniformizer tau in
p*P^(-1) outside pO_K (Cohen, GTM 138, Sec. 4.8.3): x*tau/p is integral
exactly when x lies in P, and ideal * P^(-1) = ideal + (tau/p)*ideal.
Norm checks on products and divisions raise VerificationFailed.

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
    the integer columns tau*omega_j."""
    p: int
    gen_poly: tuple
    ram_e: int
    res_f: int
    norm: int
    hnf_basis: tuple
    inv_basis: tuple  # HNF basis of p * P^(-1)
    tau: tuple = dc_field(compare=False)
    tau_mult: tuple = dc_field(compare=False)

    def as_ideal(self):
        return Ideal(self.hnf_basis, self.norm)

    def __repr__(self):
        return f"PrimeIdeal(p={self.p}, e={self.ram_e}, f={self.res_f})"


def _hnf_ideal(cols, field):
    n = field.degree
    h = column_hnf(cols, n)
    norm = 1
    for j in range(n):
        norm *= h[j][j]
    return Ideal(tuple(tuple(c) for c in h), norm)


def unit_ideal(field):
    n = field.degree
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    return Ideal(tuple(tuple(c) for c in cols), 1)


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
    """Principal ideal <x> for integral x; its norm is checked against
    |N(x)|, the determinant of the multiplication-by-x columns."""
    assert not x.is_zero
    nx, cols = integral_norm(x)
    ideal = _hnf_ideal(cols, x.field)
    if ideal.norm != nx:
        raise VerificationFailed("HNF determinant of <x> differs from |N(x)|")
    return ideal


def _ideal_product(a, b, field):
    cols = []
    for x in a.hnf_basis:
        mult = field.mult_columns(x)
        cols.extend(combine_columns(mult, y) for y in b.hnf_basis)
    return _hnf_ideal(cols, field)


def ideal_mul(a, b, field):
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
    n = field.degree
    pO = tuple(tuple(p if i == j else 0 for i in range(n)) for j in range(n))
    if _ideal_product(ideal, inv_ideal, field).hnf_basis != pO:
        raise BasisNotMaximal(p)


def _prime_from_gen(p, gen_poly, e, f, field):
    n = field.degree
    g_mult = field.mult_columns(_element_of_gen_poly(gen_poly, field))
    p_cols = [[p if i == j else 0 for i in range(n)] for j in range(n)]
    ideal = _hnf_ideal(p_cols + g_mult, field)
    _check_norm(ideal, p ** f, f"prime ideal above {p}")
    # p * P^(-1) = (pO : P) = { x in O : x*g in pO } + pO, via mod-p kernel
    kern = _modp_kernel(_columns_to_rows(g_mult), p)
    inv_ideal = _hnf_ideal(p_cols + kern, field)
    _check_norm(inv_ideal, p ** (n - f), f"inverse complement above {p}")
    # Z[theta] is maximal at p when p^2 does not divide disc(T)
    if (field.discriminant * field.index ** 2) % (p * p) == 0:
        _check_invertible(ideal, inv_ideal, p, field)
    tau, tau_mult = _anti_uniformizer(p, inv_ideal.hnf_basis, field)
    return PrimeIdeal(p=p, gen_poly=tuple(int(c) % p for c in gen_poly),
                      ram_e=e, res_f=f, norm=p ** f,
                      hnf_basis=ideal.hnf_basis, inv_basis=inv_ideal.hnf_basis,
                      tau=tau, tau_mult=tau_mult)


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
            assert poly.degree(g) == 1 and e == 1, "minimal polynomial must split"
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
    raise AssertionError(f"no second generator for a prime above {p}")


def _index_divisor_primes(p, field):
    """Prime ideals above a p dividing the index, with inverse complements,
    ramification from the valuation of pO_K, and prod P^e = pO_K checked."""
    n = field.degree
    p_cols = [[p if i == j else 0 for i in range(n)] for j in range(n)]
    pO = Ideal(tuple(tuple(c) for c in p_cols), p ** n)
    out = []
    for J in _maximal_ideals_modp(p, field):
        gens = list(J.values())
        f = n - len(gens)
        ideal = _hnf_ideal(p_cols + gens, field)
        _check_norm(ideal, p ** f, f"prime ideal above {p}")
        # p * P^(-1) = { x in O : x*P in pO }, via mod-p kernel over P's HNF
        rows = [r for g in ideal.hnf_basis
                for r in _mult_rows_modp(g, field, p)]
        inv_ideal = _hnf_ideal(p_cols + _modp_kernel(rows, p), field)
        _check_invertible(ideal, inv_ideal, p, field)
        _check_norm(inv_ideal, p ** (n - f), f"inverse complement above {p}")
        alpha = _second_generator(gens, field, p)
        tau, tau_mult = _anti_uniformizer(p, inv_ideal.hnf_basis, field)
        P = PrimeIdeal(p=p, gen_poly=tuple(alpha), ram_e=0, res_f=f,
                       norm=p ** f, hnf_basis=ideal.hnf_basis,
                       inv_basis=inv_ideal.hnf_basis, tau=tau,
                       tau_mult=tau_mult)
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
    the generators g_j and g_j*tau/p."""
    quotients = _tau_over_p(ideal.hnf_basis, P)
    if quotients is None:
        raise VerificationFailed(f"{P!r} does not divide the ideal")
    out = _hnf_ideal([list(g) for g in ideal.hnf_basis] + quotients, field)
    if out.norm * P.norm != ideal.norm:
        raise VerificationFailed(
            f"quotient by {P!r} has norm {out.norm}, expected "
            f"{ideal.norm // P.norm}")
    return out


def valuation(target, P, field=None):
    """Exact P-adic valuation of an Ideal or integral AlgebraicNumber: how
    many times x -> x*tau/p keeps every generator integral, the generators
    being the element itself or the HNF columns of the ideal."""
    if hasattr(target, "coords"):
        if target.is_zero or not target.is_integral:
            raise ValueError("valuation needs a nonzero algebraic integer")
        gens = [[c.numerator for c in target.coords]]
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

    def index_of(self, P):
        return self._index[(P.p, P.gen_poly)]

    def __post_init__(self):
        self._index = {(P.p, P.gen_poly): i for i, P in enumerate(self.primes)}
        above = {}
        for P in self.primes:
            above.setdefault(P.p, []).append(P)
        self._above = {p: tuple(Ps) for p, Ps in above.items()}

    def dump_jsonl(self, fh):
        for P in self.primes:
            fh.write(json.dumps({"p": P.p, "f": P.res_f, "e": P.ram_e,
                                 "norm": P.norm,
                                 "gen_poly": list(P.gen_poly)}) + "\n")


def bach_bound(field):
    """ceil(12 (log |disc|)^2), the ERH generating bound for the class group."""
    return math.ceil(12 * math.log(abs(field.discriminant)) ** 2)


def build_factor_base(field, B):
    """All prime ideals of norm <= B, sorted by (norm, p, gen_poly)."""
    if B < 2:
        raise EmptyFactorBase(f"no prime ideal has norm <= {B}")
    primes = [P for p in poly.primes_up_to(B)
              for P in _primes_above(p, field, B)]
    if not primes:
        raise EmptyFactorBase(f"no prime ideal has norm <= {B}")
    primes.sort(key=lambda P: (P.norm, P.p, P.gen_poly))
    return FactorBase(bound=B, primes=primes, bach_bound=bach_bound(field))


def ideal_from_power_product(fb, indices, exponents, field):
    """prod fb.primes[i]^e by sum(e) - 1 products; empty product is the
    unit ideal.  Raises ValueError for an exponent below 1."""
    if any(e < 1 for e in exponents):
        raise ValueError(f"power-product exponents {list(exponents)} must "
                         "all be at least 1")
    return _fold_product([fb.primes[i].as_ideal()
                          for i, e in zip(indices, exponents, strict=True)
                          for _ in range(e)], field)


# ---------------------------------------------------------------------------
# Smoothness of ideals

def is_smooth_ideal(target, fb, field):
    """Exponent dict {factor base index: valuation} if the Ideal, or the
    principal ideal of an integral element, factors completely over fb, else
    None.  Reconstruction is verified exactly: prod norm(P)^e must equal the
    norm."""
    N = integral_norm(target)[0] if hasattr(target, "coords") else target.norm
    if N == 1:
        return {}
    res = smooth_part(N, fb.bound)
    if res.cofactor != 1:
        return None
    exps = {}
    check = 1
    for p in res.smooth_part:
        for P in fb.primes_above(p):
            v = valuation(target, P, field)
            if v:
                exps[fb.index_of(P)] = v
                check *= P.norm ** v
    if check != N:
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

"""Integer smoothness machinery: smooth-part extraction by trial division,
the Dickman rho function, and L-notation estimates.

Trial division (`kernels.trial_divide_int64`, one path for integers of
every size) implements the smooth-part contract exactly at desk scale
(bounds up to ~10^6); an ECM-based routine with the same signature is the
documented extension point for asymptotic bounds.

rho is evaluated from exact rational Taylor expansions about the midpoints
a_k = k + 1/2 of each interval [k, k+1].  Differentiating the delay equation
u rho'(u) = -rho(u-1) term by term gives the recurrence

    c_{j+1} = -(cprev_j + j c_j) / (a_k (j + 1))

where cprev are the previous interval's coefficients (centers are 1 apart, so
offsets align), and the constant term follows from continuity at u = k.  With
|x| <= 1/2 the truncation error after 90 terms is far below any float64
digit, so the only approximation is the final rounding to float.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import kernels
from .errors import AlphaOrder, DomainTooSmall
from .lattice import log_big
from .polynomials import primes_up_to

RHO_CAP = 20
_SERIES_TERMS = 90


@dataclass(frozen=True)
class SmoothnessResult:
    smooth_part: dict  # prime -> exponent
    cofactor: int

    def reconstruct(self):
        n = self.cofactor
        for p, e in self.smooth_part.items():
            n *= p ** e
        return n


@lru_cache(maxsize=64)
def _prime_table(B):
    return tuple(primes_up_to(B))


def smooth_part(N, B):
    """B-smooth part of N >= 1: exponents of all primes <= B plus the
    cofactor, which has no prime factor <= B.  Deterministic trial division."""
    assert N >= 1 and B >= 2
    cof, exps = kernels.trial_divide_int64(N, _prime_table(B))
    return SmoothnessResult(exps, cof)


def is_smooth(N, B):
    return smooth_part(N, B).cofactor == 1


# ---------------------------------------------------------------------------
# Dickman rho

@lru_cache(maxsize=1)
def _rho_series(cap=RHO_CAP):
    """Per-interval Taylor coefficients about a_k = k + 1/2, exact Fractions."""
    terms = _SERIES_TERMS
    tables = [[Fraction(1)] + [Fraction(0)] * (terms - 1)]  # rho = 1 on [0,1]
    rho_at_k = Fraction(1)  # rho(1)
    for k in range(1, cap):
        a = Fraction(2 * k + 1, 2)
        prev = tables[k - 1]
        c = [Fraction(0)] * terms
        for j in range(terms - 1):
            c[j + 1] = -(prev[j] + j * c[j]) / (a * (j + 1))
        # continuity at u = k: value at offset -1/2 must be rho(k)
        half = Fraction(-1, 2)
        tail = Fraction(0)
        xp = half
        for j in range(1, terms):
            tail += c[j] * xp
            xp *= half
        c[0] = rho_at_k - tail
        tables.append(c)
        # rho at the right endpoint feeds the next interval
        xp = Fraction(1, 2)
        val = c[0]
        for j in range(1, terms):
            val += c[j] * xp
            xp *= Fraction(1, 2)
        rho_at_k = val
    return tables


def dickman_rho(u, cap=RHO_CAP):
    """Dickman rho, relative accuracy far below 1e-12 over [0, cap]."""
    if u < 0:
        return 0.0
    if u <= 1:
        return 1.0
    if u > cap:
        raise ValueError(f"u = {u} beyond configured cap {cap}")
    tables = _rho_series(RHO_CAP)
    k = int(math.floor(u))
    if k == u and k >= 1:
        k = k - 1  # evaluate right endpoint from the left interval
    x = Fraction(u).limit_denominator(1 << 60) - Fraction(2 * k + 1, 2) \
        if not isinstance(u, (int, Fraction)) else Fraction(u) - Fraction(2 * k + 1, 2)
    c = tables[k]
    acc = Fraction(0)
    for j in range(len(c) - 1, -1, -1):
        acc = acc * x + c[j]
    return float(acc)


# ---------------------------------------------------------------------------
# L-notation

@dataclass(frozen=True)
class LExpr:
    """L_N(alpha, c); with_o1 distinguishes the asymptotic L (carrying an
    implicit (1 + o(1)) in the constant) from the exact-constant variant.

    Headline complexities have alpha in [0, 1], but intermediate size bounds
    fed into smooth_probability legitimately exceed 1 (norm bounds grow
    faster than the discriminant in the large-degree regime)."""
    alpha: Fraction
    c: float
    with_o1: bool = True

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.alpha < 0 or self.c < 0:
            raise ValueError(f"L-expression needs alpha >= 0 and c >= 0, got "
                             f"alpha = {self.alpha}, c = {self.c}")

    def __str__(self):
        tag = "L" if self.with_o1 else "Lnot"
        return f"{tag}({self.alpha}, {self.c:.6g})"


def eval_L(expr, N):
    """exp(c (log N)^alpha (log log N)^(1-alpha)); needs N >= 16."""
    if N < 16:
        raise DomainTooSmall(f"N = {N} < 16")
    ln = log_big(N)
    lln = math.log(ln)
    a = float(expr.alpha)
    return math.exp(expr.c * ln ** a * lln ** (1 - a))


def smooth_probability(x, y):
    """L-expression whose reciprocal lower-bounds the probability that a
    number (or ideal norm) of size x is y-smooth, for x = L(a1,c1),
    y = L(a2,c2) with a1 > a2: L(a1-a2, (a1-a2) c1/c2)."""
    if x.alpha <= y.alpha:
        raise AlphaOrder(f"need alpha1 > alpha2, got {x.alpha} <= {y.alpha}")
    da = x.alpha - y.alpha
    return LExpr(da, float(da) * x.c / y.c, with_o1=True)


def heuristic_probability(x_bound, y_bound):
    """Raw u^-u lower estimate: exp(-u log u) with u = log x / log y."""
    u = log_big(x_bound) / log_big(y_bound)
    if u <= 1:
        return 1.0
    return math.exp(-u * math.log(u))

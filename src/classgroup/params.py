"""Parameter selection and degree classification.

Fields are classified by the exponent alpha with n ~ (log|disc|/loglog|disc|)^alpha;
the factor-base bound and BKZ block size follow the optimal schedule, with a
transition at alpha = 3/4 and a separate schedule for the HNF-sublattice
variant.  Predicted runtimes are reported as L-expressions; the asymptotic
claims are evaluated as formulas only, never benchmarked.

Desk-scale inputs make the asymptotic formulas tiny, so selected values are
clamped into practical ranges and every clamp is recorded in the report.
"""

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import DegreeOne, DomainTooSmall
from .smoothness import LExpr

B_CAP = 10 ** 6
BETA_CAP = 30
LARGE_MODE_CB = 0.05  # stands in for the "arbitrarily small" constant


@dataclass(frozen=True)
class ClassDParams:
    n0: float
    d0: float
    alpha: Fraction
    gamma: float
    band: tuple  # (n_lower, n_upper) implied by alpha and n0

    def as_dict(self):
        return {"n0": self.n0, "d0": self.d0, "alpha": float(self.alpha),
                "gamma": self.gamma,
                "band": [self.band[0], self.band[1]]}


@dataclass
class PlanReport:
    mode: str  # medium | large | cheon
    B: int
    beta_block: int
    c_b: float
    omega: float
    alpha: Fraction
    predicted: LExpr
    clamps: list = dc_field(default_factory=list)

    def as_dict(self):
        return {"mode": self.mode, "B": self.B, "beta_block": self.beta_block,
                "c_b": self.c_b, "omega": self.omega,
                "alpha": float(self.alpha),
                "predicted": {"alpha": float(self.predicted.alpha),
                              "c": self.predicted.c,
                              "with_o1": self.predicted.with_o1},
                "clamps": list(self.clamps)}


def classify_invariants(n, log_disc, height, n0=1.5, d0=1.0):
    """alpha from inverting the band center n = (log/loglog)^alpha, clamped to
    [0, 1]; gamma from the height bound, floored at 1 - alpha.  Raises
    DegreeOne for n < 2, and DomainTooSmall unless log_disc > 1, so that
    log log|disc| > 0."""
    if n < 2:
        raise DegreeOne("degree-1 fields are not classified")
    if not log_disc > 1:
        raise DomainTooSmall(f"log|disc| = {log_disc} must exceed 1 to "
                             "classify")
    lld = math.log(log_disc)
    x = log_disc / lld
    alpha = Fraction(math.log(n) / math.log(x)).limit_denominator(1 << 40)
    alpha = max(Fraction(0), min(Fraction(1), alpha))
    d = math.log(height) if height > 1 else 0.0
    if d > 0 and d0 > 0 and x > 1:
        gamma = math.log(d / (d0 * lld)) / math.log(x) if d > d0 * lld else 0.0
    else:
        gamma = 0.0
    gamma = max(gamma, 1.0 - float(alpha))
    band = (x ** float(alpha) / n0, n0 * x ** float(alpha))
    return ClassDParams(n0=n0, d0=d0, alpha=alpha, gamma=gamma, band=band)


def classify_D(field, n0=1.5, d0=1.0):
    height = max(abs(c) for c in field.poly)
    return classify_invariants(field.degree, math.log(abs(field.discriminant)),
                               height, n0=n0, d0=d0)


def _factor(m):
    """{p: k} with m = prod p^k, by trial division."""
    fac = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            fac[p] = fac.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        fac[m] = fac.get(m, 0) + 1
    return fac


def cyclotomic_invariants(l):
    """(degree, log|disc|) of the l-th cyclotomic field:
    phi(l) and phi(l) log l - sum_i phi(l)/(p_i - 1) log p_i, for l >= 3;
    a smaller l raises ValueError."""
    if l < 3:
        raise ValueError(f"cyclotomic_invariants needs l >= 3, got {l}")
    fac = _factor(l)
    phi = 1
    for p, k in fac.items():
        phi *= (p - 1) * p ** (k - 1)
    log_disc = phi * math.log(l) - sum(phi / (p - 1) * math.log(p) for p in fac)
    return phi, log_disc


def cyclotomic_degree_ratio(l):
    """Ratio of sums relating phi(l) to log|disc|/loglog|disc| for the l-th
    cyclotomic field; tends to 1 as l grows."""
    fac = _factor(l)
    num = sum((k - 1) * math.log(p) + math.log(p - 1) for p, k in fac.items())
    den = sum((k - 1 / (p - 1)) * math.log(p) for p, k in fac.items())
    return num / den


def mode_exponent(mode, alpha):
    alpha = Fraction(alpha)
    if mode == "medium":
        return Fraction(1, 2)
    if mode == "large":
        return 2 * alpha / 3
    if mode == "cheon":
        return (2 * alpha + 1) / 5
    raise ValueError(f"unknown mode {mode}")


def predicted_complexity(params, omega, mode):
    """Headline L-expression for the chosen schedule; for alpha < 1/2 the
    small-polynomial algorithm's figure L(max(alpha, gamma/2)) is quoted."""
    alpha = Fraction(params.alpha)
    if alpha < Fraction(1, 2) and mode == "medium":
        a = max(alpha, Fraction(params.gamma).limit_denominator(1 << 30) / 2)
        return LExpr(min(a, Fraction(1)), 0.0, with_o1=True)
    if mode == "medium":
        return LExpr(Fraction(1, 2), (omega + 1) / (2 * math.sqrt(omega)),
                     with_o1=True)
    return LExpr(mode_exponent(mode, alpha), 0.0, with_o1=True)


def select_params(field, omega=math.log2(7), mode_override=None, n0=1.5, d0=1.0):
    """Factor-base bound and block size per the optimal schedule, with
    desk-scale caps (B <= 10^6, beta <= 30) and floors recorded as clamps."""
    if not 2 <= omega <= 3:
        raise ValueError(f"omega = {omega} is outside [2, 3]")
    cd = classify_D(field, n0=n0, d0=d0)
    alpha = cd.alpha
    if mode_override:
        mode = mode_override
    else:
        mode = "medium" if alpha <= Fraction(3, 4) else "large"
    log_disc = math.log(abs(field.discriminant))
    lld = math.log(log_disc)
    clamps = []
    if mode == "medium":
        c_b = 1 / (2 * math.sqrt(omega))
        expo = Fraction(1, 2)
        beta_raw = log_disc ** 0.5
    elif mode == "large":
        c_b = LARGE_MODE_CB
        expo = 2 * alpha / 3
        beta_raw = log_disc ** float(expo)
    else:
        c_b = LARGE_MODE_CB
        expo = (2 * alpha + 1) / 5
        beta_raw = log_disc ** float(expo)
    B_raw = math.exp(c_b * log_disc ** float(expo) * lld ** float(1 - expo))
    B = int(round(B_raw))
    if B < 2:
        clamps.append(f"B raised from {B} to 2")
        B = 2
    if B > B_CAP:
        clamps.append(f"B capped from {B} to {B_CAP}")
        B = B_CAP
    beta = int(round(beta_raw))
    if beta < 2:
        clamps.append(f"beta raised from {beta} to 2")
        beta = 2
    if beta > BETA_CAP:
        clamps.append(f"beta capped from {beta} to {BETA_CAP}")
        beta = BETA_CAP
    return PlanReport(mode=mode, B=B, beta_block=beta, c_b=c_b, omega=omega,
                      alpha=alpha, predicted=predicted_complexity(cd, omega, mode),
                      clamps=clamps)

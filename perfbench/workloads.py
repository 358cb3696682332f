"""Workload definitions and the independent references each answer is
checked against.

An item is one unit of work in the closed loop: a field solved through
`cli.run_compute`, or one `relations.collect` call in `collect-modes`.  The
pipeline seed of every item is pinned (see README.md for why it is not
derived from the workload seed); the workload seed fixes the order in which
the items run and the names of the generated input files.

References never come from the pipeline: class numbers of imaginary
quadratic fields by counting reduced forms (tests/oracles.py), real
quadratic fields by form cycles and continued fractions, the regulator of
x^3-x-1 by a bounded-height unit search, Q(zeta7) from its cyclotomic units,
and the remaining fields from constants pinned in the test suite.
"""

import json
import math
import os
import random
from dataclasses import dataclass

# discriminants of the 20 imaginary quadratic acceptance fields
IMAG_DISCS = [-3, -4, -7, -8, -11, -15, -19, -20, -23, -24,
              -31, -35, -39, -40, -43, -47, -51, -52, -56, -84]

ZETA7_REG = 2.1018187285  # 4 * Reg(Q(zeta7)+) to 10 digits

COLLECT_POLY = (250001, -1, 1)  # x^2 - x + 250001, D = -1000003
COLLECT_B = 150  # below the Minkowski floor, so smoothness failures occur
COLLECT_TARGET_ROWS = 300
COLLECT_SEED = 3
COLLECT_MODES = (("plain", 1), ("multi", 1), ("cheon", 1), ("plain", 2))


@dataclass(frozen=True)
class Reference:
    h: int
    reg: float  # exactly 1.0 when the unit rank is 0
    tol: float
    w: int  # number of roots of unity


@dataclass(frozen=True)
class Item:
    key: str
    poly: tuple
    seed: int  # pipeline seed, pinned per item
    mode: str = "plain"
    threads: int = 1
    ref: Reference = None  # None for collect items
    field: str = None  # field file name when items share one; default key


def poly_for_disc(D):
    if D % 4 == 0:
        return (-D // 4, 0, 1)
    return ((1 - D) // 4, -1, 1)


def _imag_ref(D):
    from oracles import class_number_imag_quadratic
    return Reference(class_number_imag_quadratic(D), 1.0, 0.0,
                     {-3: 6, -4: 4}.get(D, 2))


def _real_quadratic_ref(d):
    from oracles import class_number_real_quadratic, pell_fundamental_unit
    x, y, _ = pell_fundamental_unit(d)
    return Reference(class_number_real_quadratic(d),
                     math.log(x + y * math.sqrt(d)), 1e-6, 2)


def _cubic_ref():
    from classgroup.field import parse_field
    from oracles import cubic_unit_search
    # h = 1: disc -23 is the cubic field of smallest |disc|, class number 1
    reg = cubic_unit_search(parse_field([-1, -1, 0, 1]))
    return Reference(1, reg, 1e-6, 2)


def zeta7_regulator():
    """4 * Reg(Q(zeta7)+) from the cyclotomic units 2cos(2 pi k / 7): the
    conjugates of eta_j = 2cos(2 pi j/7) are eta_{jk}, so the regulator of
    the real cubic subfield is |det log|eta_{jk}|| over j, k in {1, 2}; the
    unit index of Q(zeta_p) is 1, and each complex place doubles the log."""
    import mpmath
    with mpmath.workdps(40):
        def lg(j, k):
            return mpmath.log(abs(2 * mpmath.cos(2 * mpmath.pi * j * k / 7)))
        det = lg(1, 1) * lg(2, 2) - lg(2, 1) * lg(1, 2)
        return float(4 * abs(det))


def small_fields():
    """The 25 acceptance fields with the acceptance suite's seeds."""
    items = [Item(f"imag{D}", poly_for_disc(D), abs(D), ref=_imag_ref(D))
             for D in IMAG_DISCS]
    return items + [
        Item("sqrt2", (-2, 0, 1), 2, ref=_real_quadratic_ref(2)),
        Item("sqrt10", (-10, 0, 1), 10, ref=_real_quadratic_ref(10)),
        Item("cubic-23", (-1, -1, 0, 1), 23, ref=_cubic_ref()),
        # constants pinned in tests/test_pipeline_extra.py
        Item("cubic81", (-1, -3, 0, 1), 3,
             ref=Reference(1, 0.8492874506461925, 1e-8, 2)),
        Item("zeta5", (1, 1, 1, 1, 1), 3,
             ref=Reference(1, 0.9624236501192069, 1e-9, 10)),
    ]


def zeta7():
    reg = zeta7_regulator()
    if abs(reg - ZETA7_REG) > 1e-6:
        raise RuntimeError(f"zeta7 reference {reg!r} is off {ZETA7_REG}")
    return [Item("zeta7", (1, 1, 1, 1, 1, 1, 1), 3,
                 ref=Reference(1, reg, 1e-6, 14))]


def large_disc():
    return [Item(f"imag{D}", poly_for_disc(D), 3, ref=_imag_ref(D))
            for D in (-100003, -1000003)]


def collect_modes():
    return [Item(f"{mode}-t{threads}", COLLECT_POLY, COLLECT_SEED, mode,
                 threads, field="imag-1000003")
            for mode, threads in COLLECT_MODES]


WORKLOADS = {
    "fields": lambda: small_fields() + zeta7() + large_disc(),
    "collect-modes": collect_modes,
}


def build(name, seed, input_dir):
    """The workload's items in the seed's order, each with the path of its
    field file, which this writes: [(item, path)]."""
    rng = random.Random(seed)
    items = WORKLOADS[name]()
    rng.shuffle(items)
    tag = rng.getrandbits(32)
    os.makedirs(input_dir, exist_ok=True)
    out = []
    for item in items:
        name = f"{item.field or item.key}-{tag:08x}.json"
        path = os.path.join(input_dir, name)
        with open(path, "w") as f:
            json.dump({"poly": list(item.poly), "precision": 128}, f)
        out.append((item, path))
    return out

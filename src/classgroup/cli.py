"""Command-line front end and the end-to-end compute pipeline.

The `compute` subcommand runs factor-base construction, relation collection
(which ends once the class group reads off the relations), regulator
extraction and the analytic ratio test.  A round ends
without an answer only on ZeroVolume or a ratio REJECT; then the relation
surplus K doubles and collection resumes, prior relations retained, for up
to five rounds.

Exit codes: 0 accept, 2 reject, 3 stalled, 4 input error (usage errors
included).
"""

import argparse
import json
import logging
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import analytic, params
from .errors import (BoundTooLarge, ClassGroupError, DegreeOne, Stalled,
                     ZeroVolume)
from .field import load_field_file
from .ideals import build_factor_base
from .intlinalg import left_kernel
from .lattice import bkz, lll, read_matrix_file, write_matrix_file
from .relations import CollectionConfig, collect
from .smoothness import LExpr, dickman_rho, eval_L

# Not called here: kept, like relations._TRACED_ONLY, for the benchmark
# tracer, which wraps this binding by name.
from .intlinalg import class_group_from_relations

_TRACED_ONLY = (class_group_from_relations,)

logger = logging.getLogger(__name__)

EXIT_ACCEPT = 0
EXIT_REJECT = 2
EXIT_STALLED = 3
EXIT_INPUT = 4

MAX_ROUNDS = 5
# the largest factor-base bound the prime sieve is asked to hold; above
# every bound in use (Q(zeta23)'s desk floor is 9.3e6)
MAX_BOUND = 10 ** 8


@dataclass
class RunConfig:
    """Options of `compute`.  `threads` is accepted for compatibility and has
    no effect: relation collection runs on one thread."""
    field_path: str
    mode: str = "plain"
    seed: int = 0
    precision: int = None  # None: use the field file's value
    B: int = None
    beta: int = None
    k: int = 2
    A: int = 2
    K: int = 2
    prime_bound: int = 10 ** 4
    threads: int = 1
    out: str = None


@dataclass
class ClassGroupResult:
    group: object
    regulator: float
    ratio: float
    verdict: str
    statistics: dict
    config: dict

    def as_dict(self):
        return {
            "group": self.group.as_dict() if self.group else None,
            "regulator": repr(self.regulator),
            "ratio": repr(self.ratio),
            "verdict": self.verdict,
            "statistics": self.statistics,
            "config": self.config,
        }

    def to_json(self):
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)


def _desk_bound_floor(field):
    """The factor base must generate the class group; every ideal class has a
    representative of norm within the Minkowski bound, so that is a hard
    floor.  Higher unit rank needs a richer base for the relation kernel to
    span the whole unit-log lattice, hence the rank-dependent cushion."""
    r1, r2 = field.signature
    unit_rank = r1 + r2 - 1
    mink = field.minkowski_bound()  # inf beyond the float range
    return max(12 + 10 * unit_rank,
               math.ceil(mink) + 1 if math.isfinite(mink) else mink)


def _bound_and_block(field, B, beta):
    """Factor-base bound and BKZ block size of `compute` and `collect`: the
    given values, else the desk floor and beta = 2, clamped to 2..degree.
    The `params` plan is not consulted: on every field measured its B was
    below the floor (2-11 against 12 and up), and every beta gave the same
    relations, beta = 2 the cheapest.  Degree 1 raises DegreeOne, and a B
    above MAX_BOUND BoundTooLarge before any sieve runs."""
    if field.degree < 2:
        raise DegreeOne("compute and collect need a field of degree 2 or more")
    B = B or _desk_bound_floor(field)
    if B > MAX_BOUND:
        raise BoundTooLarge(
            f"factor-base bound B = {B:.4g} (|disc| has "
            f"{len(str(abs(field.discriminant)))} digits) is above "
            f"{MAX_BOUND:.0e}, more than the prime sieve can hold; the field "
            "file needs an integral basis of O_K")
    return B, max(2, min(beta or 2, field.degree))


def run_compute(cfg):
    t0 = time.monotonic()
    field = load_field_file(cfg.field_path)
    if cfg.precision:
        field = field.with_precision(cfg.precision)
    B, beta = _bound_and_block(field, cfg.B, cfg.beta)
    fb = build_factor_base(field, B)
    an = analytic.compute_analytic(field, cfg.prime_bound)
    matrix = None
    K = cfg.K
    stats_rounds = []
    reg = None
    ratio = None
    verdict = "REJECT"
    unit_logs = {}  # generator -> log vector, kept across rounds
    for rnd in range(MAX_ROUNDS):
        ccfg = CollectionConfig(
            bound_B=B, k=min(cfg.k, fb.size), A=cfg.A, beta=beta,
            multiplier_K=K, rng_seed=cfg.seed + rnd, mode=cfg.mode,
            threads=cfg.threads)
        matrix, st = collect(field, fb, ccfg, matrix=matrix)
        st["round"] = rnd
        st["K"] = K
        stats_rounds.append(st)
        group = matrix.group
        kernel = left_kernel(matrix.dense_rows()) if an.unit_rank > 0 else []
        try:
            reg = analytic.regulator_from_kernel(
                kernel, [r.generator for r in matrix.rows], field, unit_logs)
        except ZeroVolume as e:
            logger.info("round %d: %s", rnd, e)
            K *= 2
            continue
        ratio, verdict = analytic.verify(group.class_number, reg, an, field)
        logger.info("round %d: h=%s reg=%.9f ratio=%.4f %s",
                    rnd, group.class_number, reg, ratio, verdict)
        if verdict == "ACCEPT":
            break
        K *= 2
    wall = time.monotonic() - t0
    statistics = {
        "rounds": stats_rounds,
        "relations": len(matrix.rows) if matrix else 0,
        "factor_base_size": fb.size,
        "bach_bound": fb.bach_bound,
        "residue": an.residue_approx,
        "w": an.w_K,
        "wall_time_s": wall,
    }
    config_echo = {
        "field_path": cfg.field_path, "mode": cfg.mode, "seed": cfg.seed,
        "B": B, "beta": beta, "k": cfg.k, "A": cfg.A, "K_initial": cfg.K,
        "prime_bound": cfg.prime_bound, "threads": cfg.threads,
        "precision": field.precision,
    }
    return ClassGroupResult(group=group, regulator=reg, ratio=ratio,
                            verdict=verdict, statistics=statistics,
                            config=config_echo)


def _cmd_compute(args):
    cfg = RunConfig(field_path=args.field, mode=args.mode, seed=args.seed,
                    precision=args.precision, B=args.B, beta=args.beta,
                    k=args.k, A=args.A, K=args.K,
                    prime_bound=args.prime_bound, threads=args.threads,
                    out=args.out)
    try:
        result = run_compute(cfg)
    except Stalled as e:
        print(json.dumps({"error": "stalled", "detail": str(e),
                          "stats": e.stats}), file=sys.stderr)
        return EXIT_STALLED
    text = result.to_json()
    if cfg.out:
        with open(cfg.out, "w") as f:
            f.write(text + "\n")
    print(text)
    return EXIT_ACCEPT if result.verdict == "ACCEPT" else EXIT_REJECT


def _cmd_factorbase(args):
    field = load_field_file(args.field)
    fb = build_factor_base(field, args.B)
    fb.dump_jsonl(sys.stdout)
    return 0


def _cmd_collect(args):
    logging.getLogger("classgroup.relations").setLevel(logging.INFO)
    field = load_field_file(args.field)
    B, beta = _bound_and_block(field, args.B, args.beta)
    fb = build_factor_base(field, B)
    ccfg = CollectionConfig(bound_B=B, k=min(args.k, fb.size), A=args.A,
                            beta=beta, multiplier_K=args.K,
                            rng_seed=args.seed, mode=args.mode,
                            threads=args.threads)
    matrix, st = collect(field, fb, ccfg)
    matrix.dump_jsonl(sys.stdout)
    print(json.dumps(st), file=sys.stderr)
    return 0


def _cmd_reduce(args):
    basis = read_matrix_file(args.matrix)
    if args.beta and args.beta >= 2:
        reduced, report = bkz(basis, min(args.beta, basis.k))
        print(f"# beta={report.block_size_beta} "
              f"first={report.first_vector_norm:.6g} "
              f"hermite_bound={report.hermite_bound:.6g} "
              f"nodes={report.enumeration_nodes}", file=sys.stderr)
    else:
        reduced = lll(basis)
    if args.out:
        write_matrix_file(args.out, reduced)
    else:
        print(f"{reduced.n} {reduced.k}")
        for i in range(reduced.n):
            print(" ".join(str(reduced.columns[j][i]) for j in range(reduced.k)))
    return 0


def _cmd_params(args):
    field = load_field_file(args.field)
    pl = params.select_params(field, omega=args.omega,
                              mode_override=args.mode)
    print(json.dumps(pl.as_dict(), sort_keys=True, indent=2))
    return 0


def _cmd_classify(args):
    field = load_field_file(args.field)
    cd = params.classify_D(field, n0=args.n0, d0=args.d0)
    print(json.dumps(cd.as_dict(), sort_keys=True, indent=2))
    return 0


def _cmd_verify(args):
    field = load_field_file(args.field)
    an = analytic.compute_analytic(field, args.prime_bound)
    ratio, verdict = analytic.verify(args.h, args.reg, an, field)
    print(json.dumps({"ratio": ratio, "verdict": verdict,
                      "residue": an.residue_approx,
                      "prime_bound": an.prime_bound,
                      "w": an.w_K, "regulator": args.reg},
                     sort_keys=True, indent=2))
    return EXIT_ACCEPT if verdict == "ACCEPT" else EXIT_REJECT


def _cmd_rho(args):
    print(repr(dickman_rho(args.u)))
    return 0


def _cmd_lnot(args):
    expr = LExpr(Fraction(args.alpha).limit_denominator(10 ** 9), args.c,
                 with_o1=False)
    print(repr(eval_L(expr, args.N)))
    return 0


_BETA_HELP = "BKZ block size, clamped to 2..degree (default 2)"
_THREADS_HELP = ("accepted for compatibility and has no effect: collection "
                 "runs on one thread")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_INPUT; argparse's own 2 is EXIT_REJECT."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser():
    ap = _Parser(
        prog="classgroup",
        description="Class group, class number and regulator computation "
                    "via BKZ-reduced relation collection")
    ap.add_argument("-v", "--verbose", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="full pipeline on a field file")
    pc.add_argument("field")
    pc.add_argument("--mode", choices=["plain", "multi"], default="plain")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--precision", type=int, default=None)
    pc.add_argument("--B", type=int, default=None)
    pc.add_argument("--beta", type=int, default=None, help=_BETA_HELP)
    pc.add_argument("--k", type=int, default=2)
    pc.add_argument("--A", type=int, default=2)
    pc.add_argument("--K", type=int, default=2)
    pc.add_argument("--prime-bound", dest="prime_bound", type=int,
                    default=10 ** 4)
    pc.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=_cmd_compute)

    pf = sub.add_parser("factorbase", help="dump the factor base as JSONL")
    pf.add_argument("field")
    pf.add_argument("--B", type=int, required=True)
    pf.set_defaults(func=_cmd_factorbase)

    pl = sub.add_parser("collect", help="collect relations, JSONL to stdout")
    pl.add_argument("field")
    pl.add_argument("--mode", choices=["plain", "multi"], default="plain")
    pl.add_argument("--seed", type=int, default=0)
    pl.add_argument("--B", type=int, default=None)
    pl.add_argument("--beta", type=int, default=None, help=_BETA_HELP)
    pl.add_argument("--k", type=int, default=2)
    pl.add_argument("--A", type=int, default=2)
    pl.add_argument("--K", type=int, default=2)
    pl.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    pl.set_defaults(func=_cmd_collect)

    pr = sub.add_parser("reduce", help="LLL/BKZ-reduce a matrix file")
    pr.add_argument("matrix")
    pr.add_argument("--beta", type=int, default=None)
    pr.add_argument("--out", default=None)
    pr.set_defaults(func=_cmd_reduce)

    pp = sub.add_parser("params", help="parameter plan for a field")
    pp.add_argument("field")
    pp.add_argument("--omega", type=float, default=math.log2(7))
    pp.add_argument("--mode", choices=["medium", "large", "cheon"],
                    default=None)
    pp.set_defaults(func=_cmd_params)

    pk = sub.add_parser("classify", help="degree-class parameters")
    pk.add_argument("field")
    pk.add_argument("--n0", type=float, default=1.5)
    pk.add_argument("--d0", type=float, default=1.0)
    pk.set_defaults(func=_cmd_classify)

    pv = sub.add_parser("verify", help="ratio test for candidate h and Reg")
    pv.add_argument("field")
    pv.add_argument("--h", type=int, required=True)
    pv.add_argument("--reg", type=float, required=True)
    pv.add_argument("--prime-bound", dest="prime_bound", type=int,
                    default=10 ** 4)
    pv.set_defaults(func=_cmd_verify)

    ph = sub.add_parser("rho", help="Dickman rho value")
    ph.add_argument("u", type=float)
    ph.set_defaults(func=_cmd_rho)

    pn = sub.add_parser("lnot", help="evaluate Lnot_N(alpha, c)")
    pn.add_argument("alpha", type=float)
    pn.add_argument("c", type=float)
    pn.add_argument("N", type=int)
    pn.set_defaults(func=_cmd_lnot)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, ClassGroupError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

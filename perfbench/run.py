"""Pipeline benchmark: time to a verified class group and regulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fields --seed 1 --seconds 50 --trace 0

One process runs the workload's items one after another (closed loop, one
client), cycling through them until the next item would end after --seconds;
the first full pass always runs.  Every answer is checked against an
independent reference, and every non-timing output against the item's other
runs, against the previous run of the same code with the same seed, and
(collect-modes) against the 1-thread run.  Reported times are rescaled to a
reference host speed measured between items (host_speed).  The last line of
stdout is one JSON object {correct, attempted, failed, metrics}.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each item
untraced and then traced, back to back, in whole passes, and reports
per-layer times and counts from spans around each module's public functions
(see spans.py) together with the tracing overhead.  Generated inputs, stored
outputs and the span file go to .perfbench_out/ in the checkout.  README.md
describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
HARD_LIMIT_S = 170  # the whole run ends inside a 180 s allowance
SETUP_PROBES = 8
# about the calibration kernel's time on the reference host (README.md), so
# that rescaled times stay close to measured ones there; only a scale
REF_CALIB_S = 0.0136
_CALIB_MOD = 10 ** 300 + 7


class ItemTimeout(BaseException):
    """Raised by the alarm in an item that overruns the run's time limit; a
    BaseException, so that no `except Exception` in the program absorbs it."""


def _on_alarm(signum, frame):
    raise ItemTimeout()


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def cpu_now():
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def _calib_kernel():
    """Fixed pure-Python work of the kinds the program does: Fraction sums,
    big-integer products reduced modulo a big integer, dict updates.  It
    does not use classgroup, so a change to the program cannot move it."""
    acc = Fraction(0)
    x = 3 ** 200
    d = {}
    for i in range(1, 1200):
        acc += Fraction(i, i + 7)
        x = x * x % _CALIB_MOD
        d[i % 97] = d.get(i % 97, 0) + x % 1000
    return acc, d


def host_speed():
    """Speed of the host right now relative to the reference host: the
    reference time of the calibration kernel over the best of five."""
    best = None
    for _ in range(5):
        t = time.perf_counter()
        _calib_kernel()
        t = time.perf_counter() - t
        best = t if best is None else min(best, t)
    return REF_CALIB_S / best


def setup_probes(paths, count, warm_up=False):
    """Times of `import classgroup` plus `load_field_file` of every field
    file, each in a fresh interpreter and rescaled to the reference speed
    with host_speed() before and after it.  The warm-up probe writes the
    bytecode caches and is not counted."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py")]
    cmd += sorted(set(paths))
    times = []
    speed = host_speed()
    for i in range(count + warm_up):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        if done.returncode != 0:
            die(f"setup probe failed: {done.stderr.strip()[-500:]}")
        before, speed = speed, host_speed()
        if i or not warm_up:
            times.append(float(done.stdout.split()[-1]) * (before + speed) / 2)
    return times


def source_digest():
    """Hash of the program and the benchmark, so that stored outputs are
    compared only with runs of the same code."""
    h = hashlib.sha256()
    for d in (os.path.join(ROOT, "src", "classgroup"), HERE):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), "rb") as f:
                    h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


def compare_stored(workload, seed, trace, outputs):
    """(item, message) for every item whose outputs differ from the last run
    of the same code with the same workload, seed and trace flag; stores the
    outputs when there is no such run."""
    d = os.path.join(OUT_DIR, "outputs")
    os.makedirs(d, exist_ok=True)
    name = f"{workload}-s{seed}-t{trace}-{source_digest()}.json"
    path = os.path.join(d, name)
    if os.path.exists(path):
        with open(path) as f:
            old = json.load(f)
        return [(k, f"outputs differ from the previous run with seed {seed}")
                for k in sorted(outputs) if old.get(k) != outputs[k]]
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as f:
        json.dump(outputs, f, sort_keys=True)
    os.replace(tmp, path)
    return []


class Bench:
    """Runs and checks the items of one workload."""

    def __init__(self, mods, items, tracer):
        self.m = mods
        self.items = items  # [(workloads.Item, field file path)]
        self.tracer = tracer
        self.errors = []  # (item key, message)
        self.attempted = 0
        self.failed = 0
        self.first = {}  # item key -> outputs of its first run
        self.collect_s = 0.0  # wall time inside relations.collect
        self.collect_ctx = None  # (field, factor base) for collect items
        self.speed = host_speed()  # as last measured, between items
        self.untraced = {}  # item key -> [sample], traced runs' baseline
        self.last_matrix = None
        # the untraced function, for re-verification outside the timed region
        self.verify_relation = mods["relations"].verify_relation

    def setup_collect(self, path):
        """Field and factor base of collect-modes, built once and outside the
        timed region: only `relations.collect` is timed there."""
        import workloads
        field = self.m["field"].load_field_file(path)
        fb = self.m["ideals"].build_factor_base(field, workloads.COLLECT_B)
        self.collect_ctx = (field, fb)

    def install_stopwatch(self):
        """Time every collect call of run_compute, for relations_per_s."""
        cli = self.m["cli"]
        inner = cli.collect

        def collect(*args, **kwargs):
            t = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.collect_s += time.perf_counter() - t

        cli.collect = collect

    def run_item(self, item, path):
        """(non-timing outputs, relations stored); raises on failure."""
        if item.ref is None:
            return self._collect_item(item)
        cli = self.m["cli"]
        res = cli.run_compute(cli.RunConfig(field_path=path, seed=item.seed))
        rounds = res.statistics["rounds"]
        out = {
            "verdict": res.verdict,
            "h": str(res.group.class_number) if res.group else None,
            "divisors": [str(d) for d in res.group.elementary_divisors]
            if res.group else [],
            "reg": repr(res.regulator),
            "ratio": repr(res.ratio),
            "trials": [r["trials"] for r in rounds],
            "hits": [r["hits"] for r in rounds],
            "rows": res.statistics["relations"],
            "rounds": len(rounds),
            "w": res.statistics["w"],
        }
        return out, out["rows"]

    def _collect_item(self, item):
        import workloads
        rel = self.m["relations"]
        field, fb = self.collect_ctx
        cfg = rel.CollectionConfig(bound_B=fb.bound, k=min(2, fb.size), A=2,
                                   beta=2, multiplier_K=2, rng_seed=item.seed,
                                   mode=item.mode, threads=item.threads)
        t = time.perf_counter()
        try:
            matrix, st = rel.collect(field, fb, cfg,
                                     target_rows=workloads.COLLECT_TARGET_ROWS)
        finally:
            self.collect_s += time.perf_counter() - t
        h = hashlib.sha256()
        for r in matrix.rows:
            h.update(repr((sorted(r.exponents.items()),
                           [str(c) for c in r.generator.coords],
                           r.provenance)).encode())
        self.last_matrix = matrix
        out = {"trials": st["trials"], "hits": st["hits"],
               "rows": len(matrix.rows), "relations": h.hexdigest()}
        return out, out["rows"]

    def check(self, item, out):
        """Every way the outputs miss the item's reference."""
        ref = item.ref
        if ref is None:
            return self._check_collect(item)
        bad = []
        if out["verdict"] != "ACCEPT":
            bad.append(f"verdict {out['verdict']}")
        if out["h"] is None or int(out["h"]) != ref.h:
            bad.append(f"h={out['h']}, reference {ref.h}")
        divs = [int(d) for d in out["divisors"]]
        prod = 1
        for d in divs:
            prod *= d
        if prod != ref.h or any(b % a for a, b in zip(divs, divs[1:])):
            bad.append(f"divisors {divs} are not a divisor chain with "
                       f"product {ref.h}")
        if abs(float(out["reg"]) - ref.reg) > ref.tol:
            bad.append(f"Reg={out['reg']}, reference {ref.reg!r}")
        if out["w"] != ref.w:
            bad.append(f"w={out['w']}, reference {ref.w}")
        return bad

    def _check_collect(self, item):
        """Row target reached; on the item's first run every stored relation
        passes the exact check again (later runs must repeat its outputs)."""
        import workloads
        matrix = self.last_matrix
        bad = []
        if len(matrix.rows) < workloads.COLLECT_TARGET_ROWS:
            bad.append(f"{len(matrix.rows)} rows, below the target")
        if item.key not in self.first:
            field = self.collect_ctx[0]
            for r in matrix.rows:
                pe = {matrix.columns[i]: e for i, e in r.exponents.items()}
                if not self.verify_relation(r.generator, pe, field):
                    bad.append(f"relation from trial {r.provenance[0]} "
                               "fails exact verification")
        return bad

    def compare(self, item, out):
        """Non-timing outputs repeat exactly across runs of the item, and a
        collect item matches the same mode at another thread count.
        enum_nodes exists only in traced runs and is compared among those."""
        first = self.first.setdefault(item.key, dict(out))
        if "enum_nodes" in out:
            first.setdefault("enum_nodes", out["enum_nodes"])
        bad = [f"{k} changed between runs: {first[k]!r} -> {v!r}"
               for k, v in out.items() if first[k] != v]
        if item.ref is None:
            for key, other in self.first.items():
                if key != item.key and key.startswith(f"{item.mode}-t"):
                    bad += [f"{k} differs from {key}: {other[k]!r} -> {v!r}"
                            for k, v in out.items()
                            if other.get(k) is not None and other[k] != v]
        return bad

    def fail(self, item, msg):
        self.errors.append((item.key, msg))
        self.failed += 1

    def run_checked(self, item, path, deadline, traced):
        """Run and check one item.  Returns its timing sample, or None when
        it overran the run's time limit."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.item = item.key
        nodes0 = self.tracer.counts["lattice.enum_nodes"] if traced else 0
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            self.fail(item, "run time limit reached")
            return None
        cpu0 = cpu_now()
        collect0 = self.collect_s
        t = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            out, rows = self.run_item(item, path)
        except ItemTimeout:
            self.fail(item, "stalled past the run's time limit")
            return None
        except Exception as e:  # an item that raises fails; the loop goes on
            out, rows = None, 0
            self.fail(item, f"raised {e!r}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t
        cpu = cpu_now() - cpu0
        before, self.speed = self.speed, host_speed()
        speed = (before + self.speed) / 2
        # times rescaled to the reference host speed; "raw" is as measured
        sample = {"wall": wall * speed, "cpu": cpu * speed,
                  "collect_s": (self.collect_s - collect0) * speed,
                  "raw": wall, "speed": speed, "rows": rows}
        if out is not None:
            if traced:
                out["enum_nodes"] = (self.tracer.counts["lattice.enum_nodes"]
                                     - nodes0)
            bad = self.check(item, out) + self.compare(item, out)
            self.errors += [(item.key, b) for b in bad]
            self.failed += bool(bad)
        log(f"{item.key}: {wall:.3f} s at host speed {speed:.3f}")
        return sample

    def run_untraced(self, item, path, deadline):
        return self.run_checked(item, path, deadline, False)

    def run_paired(self, item, path, deadline):
        """The item untraced, then traced right after it, so that both runs
        see the same host; returns the traced sample."""
        base = self.run_checked(item, path, deadline, False)
        if base is None:
            return None
        self.untraced.setdefault(item.key, []).append(base)
        self.tracer.install()
        try:
            return self.run_checked(item, path, deadline, True)
        finally:
            self.tracer.uninstall()

    def loop(self, window_end, deadline, step, whole_passes):
        """Closed loop over the items in order, cycling, until the next item
        (with whole_passes, the next pass) would end after window_end; the
        first pass always runs.  step(item, path, deadline) runs one item
        and returns its sample, or None when it overran the run's time
        limit.  Returns ({item key: [sample]}, completed)."""
        samples = {item.key: [] for item, _ in self.items}
        n = len(self.items)
        k = 0
        pass_start = time.monotonic()
        while True:
            item, path = self.items[k % n]
            if k >= n:
                if not whole_passes:
                    est = statistics.median(
                        s["raw"] for s in samples[item.key])
                elif k % n == 0:
                    now = time.monotonic()
                    est, pass_start = now - pass_start, now
                else:
                    est = 0.0
                if time.monotonic() + est > window_end:
                    return samples, True
            sample = step(item, path, deadline)
            if sample is None:
                return samples, False
            samples[item.key].append(sample)
            k += 1


def per_item(samples, key):
    """Median of one sample field per item, over the items that ran."""
    return {k: statistics.median(s[key] for s in v)
            for k, v in samples.items() if v}


def end_to_end(samples, setup_s, attempted, failed):
    """Times are at the reference host speed, and are sums or medians of
    each item's median over its runs, so solve_s is one pass over the
    workload with repeated items' noise filtered out."""
    wall = per_item(samples, "wall")
    collect = sum(per_item(samples, "collect_s").values())
    rows = sum(v[0]["rows"] for v in samples.values() if v)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "solve_s": (sum(wall.values()), "s"),
        "field_s.p50": (statistics.median(wall.values()), "s"),
        "relations_per_s": (rows / collect if collect else 0.0, "1/s"),
        "setup_s": (setup_s, "s"),
        "cpu_s": (sum(per_item(samples, "cpu").values()), "s"),
        "peak_rss_mb": (peak, "MB"),
        "verified_share": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(tracer, bench, traced, untraced):
    """Per-pass means over the traced passes, counts that are fixed per
    pass, the longest single item, and the tracing overhead.  Span times
    are as measured; host.speed rescales them to the reference host."""
    n = min(len(v) for v in traced.values())
    out = {}
    for name, (incl, self_s, calls) in sorted(tracer.layer_times().items()):
        out[f"{name}_s"] = (incl / n, "s")
        out[f"{name}_self_s"] = (self_s / n, "s")
        out[f"{name}_calls"] = (calls / n, "count")
    longest = tracer.longest()
    for name in ("cli.run_compute", "relations.collect"):
        out[f"{name}_max_s"] = (longest.get(name, 0.0), "s")
    c = tracer.counts
    for key in ("lattice.enum_nodes", "lattice.bkz_tours",
                "lattice.bkz_fallbacks", "relations.trials", "relations.hits"):
        out[key] = (c[key] / n, "count")
    out["relations.yield"] = (c["relations.hits"] / c["relations.trials"]
                              if c["relations.trials"] else 1.0, "hits/trial")
    first = list(bench.first.values())
    out["relations.rows"] = (sum(o["rows"] for o in first), "count")
    rounds = sum(o.get("rounds", 0) for o in first)
    rejected = sum(o["rounds"] - (o["verdict"] == "ACCEPT")
                   for o in first if "rounds" in o)
    out["cli.rounds"] = (rounds, "count")
    out["cli.rejected_rounds"] = (rejected, "count")
    out["cli.rejected_round_share"] = (rejected / rounds if rounds else 0.0,
                                       "ratio")
    t_solve = sum(per_item(traced, "wall").values())
    u_solve = sum(per_item(untraced, "wall").values())
    out["trace.solve_s"] = (t_solve, "s")
    out["trace.untraced_solve_s"] = (u_solve, "s")
    out["trace.overhead_s"] = (t_solve - u_solve, "s")
    out["trace.overhead_share"] = ((t_solve - u_solve) / u_solve, "ratio")
    out["trace.spans"] = (len(tracer.spans) / n, "count")
    out["host.speed"] = (statistics.median(
        s["speed"] for v in traced.values() for s in v), "ratio")
    out["host.raw_solve_s"] = (sum(per_item(traced, "raw").values()), "s")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    if sys.flags.optimize:
        die("refusing to run under -O: the exact relation check inside "
            "relations.collect is an assert")
    if args.seconds < 1:
        die("--seconds must be at least 1")
    for need in ("src/classgroup/__init__.py", "tests/oracles.py"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            die(f"{need} not found: run from the root of a classgroup "
                "checkout")
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"),
                    HERE]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}")

    items = workloads.build(args.workload, args.seed, os.path.join(
        OUT_DIR, "inputs", f"{args.workload}-s{args.seed}"))
    paths = [p for _, p in items]
    # half the setup probes run before the loop and half after it, so that
    # their median spans the run
    setup_times = [] if args.trace else setup_probes(
        paths, SETUP_PROBES // 2, warm_up=True)

    from classgroup import (analytic, cli, field, ideals, kernels, lattice,
                            relations, smoothness)
    from spans import Tracer
    mods = {"analytic": analytic, "cli": cli, "field": field,
            "ideals": ideals, "kernels": kernels, "lattice": lattice,
            "relations": relations, "smoothness": smoothness}
    tracer = Tracer(mods) if args.trace else None
    bench = Bench(mods, items, tracer)
    if items[0][0].ref is None:
        bench.setup_collect(paths[0])
    bench.install_stopwatch()
    signal.signal(signal.SIGALRM, _on_alarm)

    # a traced run runs each item untraced and then traced, back to back,
    # in whole passes; the untraced runs are the baseline for the overhead
    step = bench.run_paired if args.trace else bench.run_untraced
    samples, completed = bench.loop(time.monotonic() + args.seconds,
                                    hard_deadline, step, bool(args.trace))
    if completed:
        mismatches = compare_stored(args.workload, args.seed, args.trace,
                                    bench.first)
        bench.errors += mismatches
        bench.failed += len(mismatches)
    for key, msg in bench.errors:
        log(f"FAIL {key}: {msg}")

    metrics = {}
    if args.trace and completed:
        metrics = per_layer(tracer, bench, samples, bench.untraced)
        tracer.write(os.path.join(
            OUT_DIR, f"trace-{args.workload}-s{args.seed}.tsv.gz"))
    elif not args.trace and any(samples.values()):
        setup_times += setup_probes(paths, SETUP_PROBES // 2)
        metrics = end_to_end(samples, statistics.median(setup_times),
                             bench.attempted, bench.failed)
        log(f"one pass as measured: "
            f"{sum(per_item(samples, 'raw').values()):.3f} s")
    print(json.dumps({
        "correct": completed and not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around calls into the public functions of each classgroup module.

The tracer replaces module attributes with wrappers and restores them on
`uninstall`.  A function imported by name into another module is patched
there too, because that is the binding its caller looks up.  Spans are kept
in memory as [name, start, end, parent span, item id] and written out when
the run ends; nothing is recorded inside the program itself.  A span opened
in a pool thread has no parent.
"""

import functools
import gzip
import threading
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  Every binding a caller looks up is listed.
PATCHES = [
    ("cli", "run_compute", "cli.run_compute"),
    ("cli", "load_field_file", "field.load"),
    ("field", "load_field_file", "field.load"),
    ("cli", "build_factor_base", "ideals.factor_base"),
    ("ideals", "build_factor_base", "ideals.factor_base"),
    ("cli", "collect", "relations.collect"),
    ("relations", "collect", "relations.collect"),
    ("relations", "verify_relation", "relations.verify"),
    ("cli", "class_group_from_relations", "intlinalg.class_group"),
    ("cli", "left_kernel", "intlinalg.left_kernel"),
    ("relations", "matrix_rank", "intlinalg.rank"),
    ("analytic", "euler_residue", "analytic.euler_residue"),
    ("analytic", "count_roots_of_unity", "analytic.roots_of_unity"),
    ("analytic", "regulator_from_kernel", "analytic.regulator"),
    ("relations", "ideal_from_power_product", "ideals.power_product"),
    ("ideals", "ideal_mul", "ideals.ideal_mul"),
    ("relations", "ideal_divide_prime", "ideals.divide_prime"),
    ("ideals", "ideal_divide_prime", "ideals.divide_prime"),
    ("relations", "valuation", "ideals.valuation"),
    ("ideals", "valuation", "ideals.valuation"),
    ("relations", "is_smooth_ideal", "ideals.smooth_test"),
    ("relations", "ideal_lattice", "ideals.ideal_lattice"),
    ("analytic", "ideal_lattice", "ideals.ideal_lattice"),
    ("relations", "bkz", "lattice.bkz"),
    ("lattice", "bkz", "lattice.bkz"),
    ("relations", "cheon_reduce", "lattice.cheon_reduce"),
    ("kernels", "enum_collect", "kernels.enum"),
    ("kernels", "trial_divide_int64", "kernels.trial_divide"),
    ("relations", "smooth_part", "smoothness.smooth_part"),
    ("ideals", "smooth_part", "smoothness.smooth_part"),
]

SPAN_NAMES = sorted({name for _, _, name in PATCHES})


def _bkz_counts(result, add):
    _, report = result
    add("lattice.enum_nodes", report.enumeration_nodes)
    add("lattice.bkz_tours", report.tours)
    add("lattice.bkz_fallbacks", int(report.fallback_full_enum))


def _collect_counts(result, add):
    _, stats = result
    add("relations.trials", stats["trials"])
    add("relations.hits", stats["hits"])


# counters read from what a traced call returns
ON_RESULT = {"lattice.bkz": _bkz_counts, "relations.collect": _collect_counts}


class Tracer:
    def __init__(self, modules):
        self.modules = modules  # short name -> module object
        self.spans = []
        self.counts = Counter()
        self.item = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved = []

    def add(self, key, value):
        with self._lock:
            self.counts[key] += value

    def _wrap(self, name, fn):
        spans = self.spans
        local = self._local
        clock = time.perf_counter
        on_result = ON_RESULT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.item]
            spans.append(span)
            stack.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, self.add)
            return result

        return traced

    def install(self):
        for mod, attr, name in PATCHES:
            module = self.modules[mod]
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def layer_times(self):
        """{name: (inclusive s, self s, calls)}.  Inclusive time counts only
        the outermost span of each name; self time is the span's duration
        minus the duration of its direct children."""
        child = defaultdict(float)
        for s in self.spans:
            if s[3] is not None:
                child[id(s[3])] += s[2] - s[1]
        out = {n: [0.0, 0.0, 0] for n in SPAN_NAMES}
        for s in self.spans:
            dur = s[2] - s[1]
            acc = out[s[0]]
            acc[1] += dur - child.get(id(s), 0.0)
            acc[2] += 1
            p = s[3]
            while p is not None and p[0] != s[0]:
                p = p[3]
            if p is None:
                acc[0] += dur
        return out

    def longest(self):
        """{name: duration of its longest span}."""
        out = {}
        for s in self.spans:
            out[s[0]] = max(out.get(s[0], 0.0), s[2] - s[1])
        return out

    def write(self, path):
        """One line per span: id parent item name start end (seconds)."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with gzip.open(path, "wt") as f:
            f.write("id\tparent\titem\tname\tstart\tend\n")
            for i, s in enumerate(self.spans):
                parent = ids[id(s[3])] if s[3] is not None else -1
                f.write(f"{i}\t{parent}\t{s[4]}\t{s[0]}\t"
                        f"{s[1]:.6f}\t{s[2]:.6f}\n")

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from classgroup import kernels
from classgroup.smoothness import is_smooth


def _ldl(G):
    n = len(G)
    L = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    D = [0.0] * n
    for i in range(n):
        for j in range(i):
            L[i][j] = (G[i][j] - sum(L[i][k] * L[j][k] * D[k]
                                     for k in range(j))) / D[j]
        D[i] = G[i][i] - sum(L[i][k] ** 2 * D[k] for k in range(i))
    return L, D


def _canon(c):
    c = tuple(int(v) for v in c)
    for t in range(len(c) - 1, -1, -1):
        if c[t] != 0:
            if c[t] < 0:
                c = tuple(-v for v in c)
            break
    return c


def test_enum_collect_matches_bruteforce():
    rng = np.random.default_rng(2)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        B = rng.integers(-5, 6, size=(n, n))
        G = (B @ B.T).astype(object)
        if np.linalg.matrix_rank(np.array(G, dtype=float)) < n:
            continue
        mu, rr = _ldl([[int(x) for x in row] for row in G])
        bound = float(min(int(G[i][i]) for i in range(n))) * 1.5 + 1
        cnt, out, nodes = kernels.enum_collect(mu, rr, bound, 100000)
        got = {_canon(out[i]) for i in range(cnt)}
        # brute force within a box; everything the box finds must be present
        for cand in itertools.product(range(-4, 5), repeat=n):
            if all(v == 0 for v in cand):
                continue
            q = sum(cand[i] * cand[j] * int(G[i][j])
                    for i in range(n) for j in range(n))
            if q <= bound * (1 - 1e-9) - 1e-9:
                assert _canon(cand) in got


# (count, nodes) of enum_collect on the Gram matrices drawn below, recorded
# with the earlier NumPy kernel; None marks a singular draw
PINNED_ENUM = [(24, 292), (41, 191), (32, 200), None, (7, 21), (2, 6),
               (14, 56), (15, 53), (13, 99), (2, 8), (30, 166), (1, 11),
               (12, 94), (7, 77), (5, 21), (5, 41), (7, 23), (2, 44),
               (4, 58), (33, 197)]


def test_enum_collect_pinned_counts():
    rng = np.random.default_rng(3)
    got = []
    for _ in range(20):
        n = int(rng.integers(2, 6))
        B = rng.integers(-4, 5, size=(n, n))
        G = (B @ B.T).tolist()
        if np.linalg.matrix_rank(np.array(G, dtype=float)) < n:
            got.append(None)
            continue
        mu, rr = _ldl(G)
        bound = float(min(G[i][i] for i in range(n))) * 1.2 + 1
        count, out, nodes = kernels.enum_collect(mu, rr, bound, 50000)
        assert len(out) == count
        got.append((count, nodes))
    assert got == PINNED_ENUM


def test_trial_divide_matches_factor():
    primes = [2, 3, 5, 7, 11, 13]
    for n in (1, 2, 30, 77, 720, 123456, 2 ** 40 + 1):
        cof, exps = kernels.trial_divide_int64(n, primes)
        factors = _factor(n)
        assert exps == {p: factors.count(p) for p in primes if p in factors}
        want_cof = 1
        for q in factors:
            if q not in primes:
                want_cof *= q
        assert cof == want_cof


def test_smooth_flags_correct():
    flags = [1 if is_smooth(n, 5) else 0 for n in range(1, 31)]
    want = [1 if all(p in (2, 3, 5) for p in _factor(n)) else 0
            for n in range(1, 31)]
    assert flags == want


def _factor(n):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def test_import_leaves_out_numpy_and_numba():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, classgroup; "
         "print('numpy' in sys.modules, 'numba' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        check=True)
    assert out.stdout.split() == ["False", "False"]

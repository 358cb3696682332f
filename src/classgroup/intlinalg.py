"""Exact integer matrix normal forms: row HNF with or without its
pre-multiplier, the column HNF of a lattice or ideal basis by folding its
generators into a triangle the lattice contains, the Smith normal form from
alternating row HNFs, kernels, and structured elimination of sparse relation
rows.

Matrices are lists of lists of Python ints (arbitrary precision); relation
rows may also be sparse {column: entry} dicts.  The class group of a
relation matrix, which is also collection's stop check, first eliminates
every +-1 pivot it can, in Markowitz order, which leaves a small dense core:
at D = -10000003 the 336 columns of the factor base shrink to 5-27.  Only
that core goes through the HNF, which pivots on the smallest remaining entry
of each column.  `rank` takes the same route.
"""

import math
from dataclasses import dataclass

from .errors import RankDeficient, VerificationFailed


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    rb = len(B)
    cb = len(B[0]) if B else 0
    return [[sum(A[i][k] * B[k][j] for k in range(rb)) for j in range(cb)]
            for i in range(len(A))]


def _row_sub(H, U, i, j, q):
    """H[i] -= q*H[j], mirrored on U."""
    if q == 0:
        return
    Hi, Hj = H[i], H[j]
    for t in range(len(Hi)):
        Hi[t] -= q * Hj[t]
    if U is not None:
        Ui, Uj = U[i], U[j]
        for t in range(len(Ui)):
            Ui[t] -= q * Uj[t]


def _pivot(H, U, top, col):
    """Clear column `col` below row `top` but for one entry, pivoting on the
    smallest; returns that entry's row, or None if the column is zero."""
    rows = [i for i in range(top, len(H)) if H[i][col] != 0]
    if not rows:
        return None
    while len(rows) > 1:
        rows.sort(key=lambda i: abs(H[i][col]))
        i0 = rows[0]
        a = H[i0][col]
        for i in rows[1:]:
            _row_sub(H, U, i, i0, H[i][col] // a)
        rows = [i for i in rows if H[i][col] != 0]
    return rows[0]


def _hnf(M, U):
    """Row Hermite normal form of M, with every row operation mirrored on U
    unless U is None.

    H has positive pivots in column order, entries above each pivot reduced
    into [0, pivot), and zero rows collected at the bottom.
    """
    H = [[int(x) for x in row] for row in M]
    pivot_row = 0
    for col in range(len(H[0]) if H else 0):
        i0 = _pivot(H, U, pivot_row, col)
        if i0 is None:
            continue
        if i0 != pivot_row:
            H[i0], H[pivot_row] = H[pivot_row], H[i0]
            if U is not None:
                U[i0], U[pivot_row] = U[pivot_row], U[i0]
        if H[pivot_row][col] < 0:
            H[pivot_row] = [-x for x in H[pivot_row]]
            if U is not None:
                U[pivot_row] = [-x for x in U[pivot_row]]
        p = H[pivot_row][col]
        for i in range(pivot_row):
            _row_sub(H, U, i, pivot_row, H[i][col] // p)
        pivot_row += 1
    return H


def hnf(M):
    """Row Hermite normal form of M; no transform is kept."""
    return _hnf(M, None)


def hnf_with_transform(M):
    """Row Hermite normal form H = U*M with U unimodular (a product of row
    swaps, negations and additions of multiples of other rows)."""
    U = identity(len(M))
    return _hnf(M, U), U


def left_kernel(M):
    """Basis of {v integer row : v*M = 0}, from the zero rows of the HNF.

    Each vector is checked exactly against M; raises VerificationFailed if
    one is not in the kernel."""
    H, U = hnf_with_transform(M)
    kernel = [u for h, u in zip(H, U) if not any(h)]
    sparse = [[(j, x) for j, x in enumerate(row) if x] for row in M]
    for v in kernel:
        acc = {}
        for i, vi in enumerate(v):
            if vi:
                for j, x in sparse[i]:
                    acc[j] = acc.get(j, 0) + vi * x
        if any(acc.values()):
            raise VerificationFailed("left kernel vector v has v*M != 0")
    return kernel


def unit_eliminate(rows):
    """Structured Gaussian elimination of sparse {column: entry} rows on
    unit pivots (Cavallar, *Strategies in filtering in the NFS*, 2000;
    Biasse 2010).  The rows given are not modified.

    While some entry is +-1, pivot on it: its row is substituted into every
    other row holding its column, then that row and column are dropped.  A
    unit pivot is unimodular and removes one generator with one relation, so
    the cokernel and the rank are those of the core plus the pivots.  Each
    pass sorts the unit entries by Markowitz cost (row weight - 1) * (column
    weight - 1), then (row, column), and takes them in that order, skipping
    any whose row or column an earlier pivot of the pass changed; the next
    pass rescores those.  Returns (number of pivots, core): the core is the
    remaining nonzero rows, dense over the remaining columns in ascending
    order.
    """
    rows = [dict(r) for r in rows]
    holders = {}  # column -> indices of the live rows with an entry there
    for i, r in enumerate(rows):
        for j in r:
            holders.setdefault(j, set()).add(i)
    eliminated = 0
    while True:
        units = sorted(((len(r) - 1) * (len(holders[j]) - 1), i, j)
                       for i, r in enumerate(rows) if r
                       for j, e in r.items() if e == 1 or e == -1)
        if not units:
            break
        changed_rows, changed_cols = set(), set()
        for _, i, j in units:
            if i in changed_rows or j in changed_cols:
                continue
            piv = rows[i]
            sign = piv[j]
            for k in holders.pop(j) - {i}:
                r = rows[k]
                q = r[j] * sign
                for c, e in piv.items():
                    v = r.get(c, 0) - q * e
                    if v:
                        if c not in r:
                            holders[c].add(k)
                        r[c] = v
                    else:
                        del r[c]
                        if c != j:
                            holders[c].discard(k)
                changed_rows.add(k)
            for c in piv:
                if c != j:
                    holders[c].discard(i)
            changed_rows.add(i)
            changed_cols.update(piv)
            rows[i] = {}
            eliminated += 1
    cols = sorted(j for j, held in holders.items() if held)
    core = [[r.get(j, 0) for j in cols] for r in rows if r]
    return eliminated, core


def rank(M):
    """Rank of M, given as dense rows or as sparse {column: entry} rows: the
    pivots of `unit_eliminate` plus the nonzero rows of its core's HNF."""
    rows = [r if isinstance(r, dict) else {j: x for j, x in enumerate(r) if x}
            for r in M]
    eliminated, core = unit_eliminate(rows)
    return eliminated + sum(1 for row in hnf(core) if any(row))


def _xgcd(a, b):
    """(g, s, t) with s*a + t*b = g = gcd(a, b) > 0, for a > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a > 0 else (-a, -s0, -t0)


def column_hnf(tri, cols):
    """Column HNF of the lattice spanned by tri and cols in Z^n, for a
    triangle tri it is known to contain (column j on rows 0..j, positive
    diagonal; ValueError otherwise), such as D*I for a multiple D of its
    determinant (Cohen, GTM 138, Sec. 2.4.2; Domich, Kannan and Trotter,
    1987).  Each column of cols is folded into the triangle from its last
    row up, losing that row at each step, by one extended-gcd step wherever
    the pivot does not divide it.  Returns n columns, col j on rows 0..j,
    with a positive diagonal and 0 <= H[i][j] < H[i][i] for j > i."""
    n = len(tri)
    if any(len(c) != n or c[j] <= 0 or any(c[j + 1:])
           for j, c in enumerate(tri)):
        raise ValueError("column_hnf needs n upper-triangular columns in Z^n "
                         "with a positive diagonal")
    h = [list(c[:j + 1]) for j, c in enumerate(tri)]
    for v in cols:
        v = list(v)
        while v:
            x = v.pop()
            if not x:
                continue
            piv = h[len(v)]
            d = piv[-1]
            q, m = divmod(x, d)
            if m:
                g, s, t = _xgcd(d, x)
                dg, xg = d // g, x // g
                h[len(v)] = [s * a + t * b for a, b in zip(piv, v)] + [g]
                v = [dg * b - xg * a for a, b in zip(piv, v)]
            else:
                v = [b - q * a for a, b in zip(piv, v)]
    for j in range(1, n):
        cj = h[j]
        for i in range(j - 1, -1, -1):
            ci = h[i]
            q = cj[i] // ci[i]
            if q:
                for t in range(i + 1):
                    cj[t] -= q * ci[t]
    return [c + [0] * (n - 1 - j) for j, c in enumerate(h)]


def smith_normal_form(M):
    """Diagonal entries d_1 | d_2 | ... of the Smith normal form: all
    min(rows, columns) of them, zeros last when the rank is short.

    Row HNFs of the matrix and of its transpose alternate until it is
    diagonal (Cohen, GTM 138, Sec. 2.4): the leading pivot divides the one
    before it, and once it divides its whole row, that row and its column
    are clear for good.  The diagonal then becomes a divisor chain by
    (d_i, d_j) -> (gcd, lcm), which leaves the cokernel alone."""
    A = [[int(x) for x in row] for row in M]
    while any(x for i, row in enumerate(A) for j, x in enumerate(row)
              if i != j):
        A = [list(col) for col in zip(*hnf(A))]
    diag = [abs(A[i][i]) for i in range(min(len(A), len(A[0]) if A else 0))]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            diag[i], diag[j] = (math.gcd(diag[i], diag[j]),
                                math.lcm(diag[i], diag[j]))
    return diag


@dataclass(frozen=True)
class GroupStructure:
    """Finite abelian group invariants: d_1 | d_2 | ... (nontrivial only)."""
    elementary_divisors: tuple
    class_number: int

    def as_dict(self):
        return {"divisors": [str(d) for d in self.elementary_divisors],
                "class_number": str(self.class_number)}


def snf(M):
    """GroupStructure of coker(M) restricted to its torsion part."""
    diag = [d for d in smith_normal_form(M) if d != 0]
    divisors = tuple(d for d in diag if d != 1)
    h = 1
    for d in divisors:
        h *= d
    return GroupStructure(divisors, h)


def snf_of_hnf(H):
    """GroupStructure of coker(H) for a square row HNF of full rank.  A unit
    pivot's column is e_j, so row j only eliminates generator j: row and
    column j are dropped before the SNF, which leaves the cokernel alone."""
    big = [j for j in range(len(H)) if H[j][j] != 1]
    return snf([[H[i][j] for j in big] for i in big])


def class_group_from_relations(R):
    """Group structure of Z^N modulo the row lattice of a relation matrix.

    Columns never touched by a relation are dropped; this is only legitimate
    for primes above the Bach bound, which is checked here.  The unit pivots
    of `unit_eliminate` leave the cokernel alone, so the group is read from
    the HNF of its core.  Raises RankDeficient when the surviving columns are
    not of full rank (the caller must collect more relations), and
    VerificationFailed when the SNF's class number differs from the product
    of the core HNF's diagonal.
    """
    used = set()
    for rel in R.rows:
        used.update(rel.exponents)
    for j, P in enumerate(R.columns):
        if j not in used and P.norm <= R.bach_bound:
            raise RankDeficient(
                f"prime of norm {P.norm} below the Bach bound "
                f"{R.bach_bound} appears in no relation")
    if not R.rows:
        raise RankDeficient("no relations")
    eliminated, core = unit_eliminate([rel.exponents for rel in R.rows])
    nonzero = [row for row in hnf(core) if any(row)]
    if eliminated + len(nonzero) < len(used):
        raise RankDeficient(
            f"relation lattice has rank {eliminated + len(nonzero)} "
            f"< {len(used)}")
    h = 1
    for j in range(len(nonzero)):
        h *= nonzero[j][j]
    struct = snf_of_hnf(nonzero)
    if struct.class_number != h:
        raise VerificationFailed(
            f"SNF class number {struct.class_number} differs from the HNF "
            f"diagonal product {h}")
    return struct

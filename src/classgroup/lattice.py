"""Exact lattice reduction: LLL and BKZ on integer Gram matrices, shortest
vector enumeration, and reduction of HNF prefix sublattices.

All reduction state is exact.  The Gram matrix and the transform are big
integers; Gram-Schmidt data uses the classical integral (d_i, lambda_ij)
representation with mu_ij = lambda_ij/d_j and |b*_i|^2 = d_i/d_{i-1}, so the
Lovasz condition and all block comparisons are integer comparisons.  Floating
point appears only inside the enumeration kernel, whose candidate vectors are
re-scored exactly before anything is accepted, with the search radius opened
by a safety margin so the true minimum cannot be pruned away.
"""

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import kernels
from .errors import DeterminantTooLarge, DimensionCap, RankDeficient
from .intlinalg import column_hnf, identity, mat_mul
from .polynomials import bareiss_det

ENUM_DIM_CAP = 30
_ENUM_MARGIN = 1e-3
_MAX_TOURS = 64


@dataclass
class LatticeBasis:
    """Integer basis; columns[j] is the j-th basis vector in Z^n.

    Entries may be fixed-point scalings of real embeddings; scale_bits records
    the exponent so reports can be read in unscaled units.
    """
    columns: list
    scale_bits: int = 0
    transform: list = None  # columns of the unimodular map from the parent basis

    @property
    def n(self):
        return len(self.columns[0])

    @property
    def k(self):
        return len(self.columns)

    def gram(self):
        cols = self.columns
        k = len(cols)
        g = [[0] * k for _ in range(k)]
        for i in range(k):
            ci = cols[i]
            for j in range(i, k):
                cj = cols[j]
                s = 0
                for t in range(len(ci)):
                    s += ci[t] * cj[t]
                g[i][j] = g[j][i] = s
        return g

    def det_squared(self):
        return bareiss_det(self.gram())


@dataclass
class ReductionReport:
    block_size_beta: int
    first_vector_norm: float
    hermite_bound: float
    enumeration_nodes: int = 0
    m_sub: int = None  # sublattice dimension chosen by cheon_reduce
    tours: int = 0
    fallback_full_enum: bool = False


def log_big(n):
    """math.log for arbitrarily large positive ints/Fractions."""
    if isinstance(n, Fraction):
        return log_big(n.numerator) - log_big(n.denominator)
    n = int(n)
    assert n > 0
    if n.bit_length() <= 900:
        return math.log(n)
    sh = n.bit_length() - 64
    return math.log(n >> sh) + sh * math.log(2)


class GramLLL:
    """LLL state over an exact integer Gram matrix with tracked transform."""

    def __init__(self, gram, delta=Fraction(99, 100)):
        k = len(gram)
        self.k = k
        self.G = [[int(x) for x in row] for row in gram]
        self.U = identity(k)
        assert Fraction(1, 4) < delta < 1
        self.delta = Fraction(delta)
        self.d = [0] * k       # d[i] = det Gram(b_0..b_i) > 0
        self.lam = [[0] * k for _ in range(k)]
        for i in range(k):
            self._gso_row(i)

    def _gso_row(self, i):
        G, d, lam = self.G, self.d, self.lam
        for j in range(i + 1):
            u = G[i][j]
            for t in range(j):
                prev = d[t - 1] if t else 1
                u = (d[t] * u - lam[i][t] * lam[j][t]) // prev
            if j < i:
                lam[i][j] = u
            else:
                if u <= 0:
                    raise RankDeficient("Gram matrix is not positive definite")
                d[i] = u

    def _col_sub(self, i, j, q):
        """b_i -= q*b_j on G and U."""
        if q == 0:
            return
        G, U, k = self.G, self.U, self.k
        gii = G[i][i] - 2 * q * G[i][j] + q * q * G[j][j]
        for t in range(k):
            G[i][t] -= q * G[j][t]
        for t in range(k):
            G[t][i] = G[i][t]
        G[i][i] = gii
        for t in range(k):
            U[t][i] -= q * U[t][j]

    def _red(self, i, j):
        d, lam = self.d, self.lam
        if 2 * abs(lam[i][j]) > d[j]:
            q = (2 * lam[i][j] + d[j]) // (2 * d[j])
            self._col_sub(i, j, q)
            lam[i][j] -= q * d[j]
            for t in range(j):
                lam[i][t] -= q * lam[j][t]

    def _swap(self, i):
        """Swap b_i and b_{i-1}, then rebuild the affected GSO rows."""
        G, U, k = self.G, self.U, self.k
        G[i], G[i - 1] = G[i - 1], G[i]
        for row in G:
            row[i], row[i - 1] = row[i - 1], row[i]
        for row in U:
            row[i], row[i - 1] = row[i - 1], row[i]
        for t in range(i - 1, k):
            self._gso_row(t)

    def reduce(self):
        """Standard LLL sweep; exact Lovasz test with delta = a/b."""
        a, b = self.delta.numerator, self.delta.denominator
        d, lam = self.d, self.lam
        i = 1
        while i < self.k:
            self._red(i, i - 1)
            dm2 = d[i - 2] if i >= 2 else 1
            if b * (d[i] * dm2 + lam[i][i - 1] ** 2) < a * d[i - 1] ** 2:
                self._swap(i)
                i = max(i - 1, 1)
            else:
                for j in range(i - 2, -1, -1):
                    self._red(i, j)
                i += 1

    def norms(self):
        return [self.G[i][i] for i in range(self.k)]

    def det_gram(self):
        return self.d[self.k - 1]

    def projected_block_gram(self, lo, hi):
        """Exact Gram of b_lo..b_{hi-1} projected orthogonally to
        span(b_0..b_{lo-1}), scaled by denom = d[lo-1] to integers."""
        d, lam, G = self.d, self.lam, self.G
        denom = d[lo - 1] if lo else 1
        m = hi - lo
        out = [[0] * m for _ in range(m)]
        for ii in range(m):
            for jj in range(ii, m):
                i, j = lo + ii, lo + jj
                val = Fraction(G[i][j])
                for t in range(lo):
                    prev = d[t - 1] if t else 1
                    val -= Fraction(lam[i][t] * lam[j][t], d[t] * prev)
                scaled = val * denom
                assert scaled.denominator == 1
                out[ii][jj] = out[jj][ii] = scaled.numerator
        return out, denom

    def insert_block_vector(self, lo, hi, w):
        """Replace b_lo by sum w_t b_{lo+t} via a unimodular transform of the
        block; gcd(w) must be 1."""
        M = _unimodular_first_col(w)
        m = hi - lo
        U, G, k = self.U, self.G, self.k
        # columns lo..hi-1 of U and of the basis change: new_col_j = sum M[t][j] old_col_{lo+t}
        for row in U:
            seg = [row[lo + t] for t in range(m)]
            for j in range(m):
                row[lo + j] = sum(M[t][j] * seg[t] for t in range(m))
        # G <- S^T G S for the block-embedded M: update columns then rows
        for row in G:
            seg = [row[lo + t] for t in range(m)]
            for j in range(m):
                row[lo + j] = sum(M[t][j] * seg[t] for t in range(m))
        for col in range(k):
            seg = [G[lo + t][col] for t in range(m)]
            for j in range(m):
                G[lo + j][col] = sum(M[t][j] * seg[t] for t in range(m))
        for t in range(lo - 1 if lo else 0, k):
            self._gso_row(t)

    def float_gso(self):
        """(mu, rr) as lists of floats, rr scaled by a common power of two.
        Returns (mu, rr, scale_log2); row mu[i] holds mu_ij for j < i."""
        k, d, lam = self.k, self.d, self.lam
        rr = [Fraction(d[i], d[i - 1] if i else 1) for i in range(k)]
        e = max(f.numerator.bit_length() - f.denominator.bit_length() for f in rr)
        scale = Fraction(2) ** e
        rrf = [float(f / scale) for f in rr]
        mu = [[float(Fraction(lam[i][j], d[j])) for j in range(i)]
              for i in range(k)]
        return mu, rrf, e


def _unimodular_first_col(w):
    """A unimodular integer matrix whose first column is w (gcd(w) = +-1).

    Maintains the invariant M @ v = w while v is reduced to e_0 by gcd row
    operations, mirroring each by the inverse column operation on M.
    """
    m = len(w)
    v = [int(x) for x in w]
    M = identity(m)
    assert any(v), "zero vector cannot start a basis"
    while True:
        nz = [t for t in range(m) if v[t] != 0]
        if len(nz) == 1:
            break
        nz.sort(key=lambda t: abs(v[t]))
        piv = nz[0]
        for t in nz[1:]:
            q = v[t] // v[piv]
            v[t] -= q * v[piv]
            # inverse column op on M: col_piv += q * col_t
            for r in range(m):
                M[r][piv] += q * M[r][t]
    t = next(i for i in range(m) if v[i] != 0)
    assert abs(v[t]) == 1, "input vector was not primitive"
    if t != 0:
        v[0], v[t] = v[t], v[0]
        for r in range(m):
            M[r][0], M[r][t] = M[r][t], M[r][0]
    if v[0] == -1:
        for r in range(m):
            M[r][0] = -M[r][0]
    return M


def _exact_quadratic(G, c):
    s = 0
    k = len(G)
    for i in range(k):
        ci = c[i]
        if ci:
            row = G[i]
            for j in range(k):
                if c[j]:
                    s += ci * c[j] * row[j]
    return s


def enumerate_gram(red, bound2_exact=None, margin=_ENUM_MARGIN, max_out=20000):
    """All coefficient vectors (w.r.t. red's current basis) with exact norm^2
    at most bound2_exact, via the float kernel with an opened radius.

    bound2_exact defaults to the smallest diagonal entry.  Returns a list of
    (coeffs tuple, exact_norm2) and the node count.
    """
    mu, rrf, e = red.float_gso()
    if bound2_exact is None:
        bound2_exact = min(red.norms())
    nodes_total = 0
    while True:
        bf = float(Fraction(bound2_exact) / Fraction(2) ** e) * (1 + margin)
        count, out, nodes = kernels.enum_collect(mu, rrf, bf, max_out)
        nodes_total += nodes
        if count <= max_out:
            break
        # too many candidates: tighten to the best exact norm seen so far
        best = min(_exact_quadratic(red.G, c) for c in out)
        if best < bound2_exact:
            bound2_exact = best
        else:
            max_out *= 4
    result = []
    seen = set()
    for c in out:
        # sign-canonical: the kernel halves the space only when the top
        # coefficient is nonzero, so normalize and dedupe here
        for t in range(len(c) - 1, -1, -1):
            if c[t] != 0:
                if c[t] < 0:
                    c = [-v for v in c]
                break
        key = tuple(c)
        if key in seen:
            continue
        seen.add(key)
        n2 = _exact_quadratic(red.G, c)
        if n2 <= bound2_exact:
            result.append((key, n2))
    return result, nodes_total


def shortest_of_gram(gram, cap=ENUM_DIM_CAP):
    """Exact shortest nonzero vector of the lattice with this Gram matrix.

    Returns (coeffs in the *input* basis, exact norm^2, nodes).  Deterministic
    tie-break: smallest (norm2, coefficient tuple).
    """
    k = len(gram)
    if k > cap:
        raise DimensionCap(f"enumeration dimension {k} exceeds cap {cap}")
    if k == 1:
        assert gram[0][0] > 0
        return (1,), gram[0][0], 1
    red = GramLLL(gram)
    red.reduce()
    cands, nodes = enumerate_gram(red)
    best = min(cands, key=lambda t: (t[1], t[0]))
    coeffs, n2 = best
    # map back through the LLL transform
    out = tuple(sum(red.U[t][i] * coeffs[i] for i in range(k)) for t in range(k))
    return out, n2, nodes


def enumerate_svp(gram, cap=ENUM_DIM_CAP):
    """Spec-level wrapper: exact shortest vector coefficients of a Gram."""
    coeffs, n2, _ = shortest_of_gram(gram, cap=cap)
    return coeffs, n2


def lll(basis, delta=Fraction(99, 100)):
    """LLL-reduce a LatticeBasis; returns a new basis with .transform set."""
    red = GramLLL(basis.gram(), delta=delta)
    red.reduce()
    cols = _apply_transform(basis.columns, red.U)
    return LatticeBasis(cols, basis.scale_bits, transform=red.U)


def _apply_transform(cols, U):
    k = len(cols)
    n = len(cols[0])
    out = []
    for j in range(k):
        v = [0] * n
        for t in range(k):
            c = U[t][j]
            if c:
                ct = cols[t]
                for r in range(n):
                    v[r] += c * ct[r]
        out.append(v)
    return out


def theorem_bound_holds(norm2, beta, k, det_gram):
    """Exact check of |v| <= beta^((k-1)/(2(beta-1))) * det(L)^(1/k):
    equivalent to norm2^(k*(beta-1)) <= beta^(k*(k-1)) * det_gram^(beta-1)."""
    return norm2 ** (k * (beta - 1)) <= beta ** (k * (k - 1)) * det_gram ** (beta - 1)


def bkz(basis, beta):
    """BKZ-reduce with exact block SVP; hard postcondition: the smallest
    output vector satisfies the block-reduction quality bound
    |v| <= beta^((k-1)/(2(beta-1))) * det^(1/k) (checked exactly; a full
    enumeration fallback enforces it in the rare case tours stall early)."""
    k = basis.k
    assert 2 <= beta <= k, f"block size {beta} outside [2, {k}]"
    red = GramLLL(basis.gram())
    red.reduce()
    nodes_total = 0
    tours = 0
    for _ in range(_MAX_TOURS):
        improved = False
        tours += 1
        for kappa in range(k - 1):
            hi = min(kappa + beta, k)
            if hi - kappa < 2:
                continue
            gp, denom = red.projected_block_gram(kappa, hi)
            sub = GramLLL(gp)
            sub.reduce()
            cands, nodes = enumerate_gram(sub)
            nodes_total += nodes
            w_red, n2 = min(cands, key=lambda t: (t[1], t[0]))
            # exact improvement test: n2/denom < |b*_kappa|^2 = d[kappa]/d[kappa-1]
            dprev = red.d[kappa - 1] if kappa else 1
            if n2 * dprev < red.d[kappa] * denom:
                m = hi - kappa
                w = [sum(sub.U[t][i] * w_red[i] for i in range(m)) for t in range(m)]
                g = math.gcd(*w) if len(w) > 1 else abs(w[0])
                assert g == 1, "shortest block vector must be primitive"
                red.insert_block_vector(kappa, hi, w)
                red.reduce()
                improved = True
        if not improved:
            break
    fallback = False
    norms = red.norms()
    v2 = min(norms)
    det_gram = red.det_gram()
    if not theorem_bound_holds(v2, beta, k, det_gram):
        # enforce the guarantee with the true shortest vector (always valid
        # since lambda_1 <= sqrt(k) det^(1/k) <= beta^((k-1)/(2(beta-1))) det^(1/k))
        coeffs, v2, nodes = shortest_of_gram(red.G)
        nodes_total += nodes
        red.insert_block_vector(0, k, list(coeffs))
        red.reduce()
        fallback = True
        v2 = min(red.norms())
        assert theorem_bound_holds(v2, beta, k, det_gram)
    cols = _apply_transform(basis.columns, red.U)
    out = LatticeBasis(cols, basis.scale_bits, transform=red.U)
    report = ReductionReport(
        block_size_beta=beta,
        first_vector_norm=math.exp(0.5 * log_big(v2)),
        hermite_bound=math.exp((k - 1) / (2 * (beta - 1)) * math.log(beta)
                               + log_big(det_gram) / (2 * k)),
        enumeration_nodes=nodes_total,
        tours=tours,
        fallback_full_enum=fallback,
    )
    return out, report


def hnf_lattice(basis):
    """Upper-triangular Hermite form generating the same column lattice."""
    n = basis.n
    cols = column_hnf(basis.columns, n)
    return LatticeBasis(cols, basis.scale_bits)


def round_half_even(x):
    f = math.floor(x)
    r = x - f
    if r > 0.5:
        return f + 1
    if r < 0.5:
        return f
    return f if f % 2 == 0 else f + 1


def cheon_reduce(basis, beta):
    """Reduce the m-dimensional HNF prefix sublattice, m ~ sqrt(2 beta
    log_beta det L), and return its smallest vector (in ambient coordinates).

    Precondition det L <= beta^(n^2/(2 beta)) is checked exactly on the
    squared determinant; violation raises DeterminantTooLarge and the caller
    is expected to fall back to plain bkz.
    """
    n = basis.n
    assert basis.k == n, "cheon_reduce expects a full-rank square basis"
    det2 = basis.det_squared()
    if not _det_condition(det2, beta, n):
        raise DeterminantTooLarge("det L exceeds beta^(n^2/(2 beta))")
    H = hnf_lattice(basis)
    log_det = 0.5 * log_big(det2)
    log_beta_det = log_det / math.log(beta)
    m = round_half_even(math.sqrt(2 * beta * log_beta_det)) if log_beta_det > 0 else 0
    m = max(beta, min(n, m))
    sub_cols = [[H.columns[j][i] for i in range(m)] for j in range(m)]
    sub = LatticeBasis(sub_cols, basis.scale_bits)
    reduced, report = bkz(sub, beta)
    norms = [_exact_quadratic(_gram_of(reduced.columns), ej)
             for ej in _unit_vectors(m)]
    jmin = norms.index(min(norms))
    v = [0] * n
    for i in range(m):
        v[i] = reduced.columns[jmin][i]
    report.m_sub = m
    report.first_vector_norm = math.exp(0.5 * log_big(min(norms)))
    return v, report


def _det_condition(det2, beta, n):
    # det L <= beta^(n^2 / (2 beta))  <=>  det2^(2*beta) <= beta^(2*n^2)
    return det2 ** (2 * beta) <= beta ** (2 * n * n)


def _gram_of(cols):
    k = len(cols)
    return [[sum(cols[i][t] * cols[j][t] for t in range(len(cols[i])))
             for j in range(k)] for i in range(k)]


def _unit_vectors(m):
    return [[1 if t == j else 0 for t in range(m)] for j in range(m)]


def lattice_member(hnf_basis, vec):
    """Exact membership of vec in the column lattice of an upper-triangular
    HNF basis; returns the coefficient vector or None."""
    n = len(vec)
    y = [int(x) for x in vec]
    coeffs = [0] * n
    for i in range(n - 1, -1, -1):
        di = hnf_basis.columns[i][i]
        if y[i] % di != 0:
            return None
        q = y[i] // di
        coeffs[i] = q
        col = hnf_basis.columns[i]
        for t in range(n):
            y[t] -= q * col[t]
    return coeffs if all(v == 0 for v in y) else None


def read_matrix_file(path):
    """Text format: first line "n m", then n rows of m integers."""
    with open(path) as f:
        head = f.readline().split()
        n, m = int(head[0]), int(head[1])
        rows = []
        for _ in range(n):
            rows.append([int(x) for x in f.readline().split()])
            assert len(rows[-1]) == m
    cols = [[rows[i][j] for i in range(n)] for j in range(m)]
    return LatticeBasis(cols)


def write_matrix_file(path, basis):
    n, k = basis.n, basis.k
    with open(path, "w") as f:
        f.write(f"{n} {k}\n")
        for i in range(n):
            f.write(" ".join(str(basis.columns[j][i]) for j in range(k)) + "\n")

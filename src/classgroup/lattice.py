"""Exact lattice reduction: LLL and BKZ on integer Gram matrices, shortest
vector enumeration, and reduction of HNF prefix sublattices.

All reduction state is exact.  The Gram matrix and the transform are big
integers; Gram-Schmidt data uses the classical integral (d_i, lambda_ij)
representation with mu_ij = lambda_ij/d_j and |b*_i|^2 = d_i/d_{i-1}, so the
Lovasz condition and all block comparisons are integer comparisons.  BKZ
reads each block's GSO off the reduced basis's (d, lambda) with no sub-LLL:
a projected block of an LLL-reduced basis is already LLL-reduced.  A
2-dimensional BKZ block's short vectors are read off its integer Gram in
closed form, from three exact quadratic forms.  A rank-2 lattice, the
lattice of every ideal of a quadratic field, is one such block: BKZ-2 on it
is Gauss-Lagrange reduction, which bkz runs on the Gram's three entries
with no GramLLL, to the transform the tours would give.  Floating point
appears only inside the enumeration kernel, whose candidate vectors are
re-scored exactly before anything is accepted, with the search radius
opened by a safety margin so the true minimum cannot be pruned away.

A lattice of rank above 2 whose entries are scaled by more than
2^ROUND_BITS is first reduced as a copy rounded to that scale (Buchmann,
Reducing lattice bases by means of approximations, ANTS-I, 1994); the
copy's transform is applied to the exact columns, and the quality bound is
checked on the exact Gram and determinant.  Only if that check fails, or
the copy is rank deficient, is the lattice reduced again at full scale.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import kernels
from .errors import (DeterminantTooLarge, DimensionCap, RankDeficient,
                     VerificationFailed)
from .intlinalg import column_hnf, identity
from .polynomials import bareiss_det

ENUM_DIM_CAP = 30
_ENUM_MARGIN = 1e-3  # relative opening of the float search radius
_ENUM_MAX_OUT = 20000  # candidates kept per kernel call before tightening
_MAX_TOURS = 64
ROUND_BITS = 32  # scale of the rounded copy bkz reduces first


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
        return _gram_of(self.columns)

    def det_squared(self):
        """det of the Gram; for a square basis det(B)^2, whose Bareiss
        entries are half the Gram's size."""
        if self.k == self.n:
            return bareiss_det(self.columns) ** 2
        return bareiss_det(self.gram())


@dataclass
class ReductionReport:
    """What bkz (and cheon_reduce) did: first_vector_norm and hermite_bound
    are read off the exact norm^2 v2 of the shortest output vector and the
    Gram determinant det_gram of the rank-k input, only when read."""
    block_size_beta: int
    rank: int
    v2: int
    det_gram: int
    enumeration_nodes: int = 0
    m_sub: int = None  # sublattice dimension chosen by cheon_reduce
    tours: int = 0
    fallback_full_enum: bool = False
    # the rounded copy was refused, so the lattice was reduced at full scale
    full_scale_retry: bool = False

    @property
    def first_vector_norm(self):
        return math.exp(0.5 * log_big(self.v2))

    @property
    def hermite_bound(self):
        """beta^((k-1)/(2(beta-1))) * det^(1/k), the quality bound."""
        k, beta = self.rank, self.block_size_beta
        return math.exp((k - 1) / (2 * (beta - 1)) * math.log(beta)
                        + log_big(self.det_gram) / (2 * k))


def log_big(n):
    """math.log for arbitrarily large positive ints."""
    n = int(n)
    if n.bit_length() <= 900:
        return math.log(n)
    sh = n.bit_length() - 64
    return math.log(n >> sh) + sh * math.log(2)


class GramGSO:
    """Gram matrix G with its integral GSO (d, lam): what enumeration reads."""

    def __init__(self, G, d, lam):
        self.k, self.G, self.d, self.lam = len(G), G, d, lam

    def norms(self):
        return [self.G[i][i] for i in range(self.k)]

    def float_gso(self):
        """(mu, rr, scale_log2): floats, rr scaled by 2^-scale_log2.  rr[i] is
        |b*_i|^2 = d[i]/d[i-1] in lowest terms a/b, scale_log2 the largest
        bit-length difference of a and b (at least 0, since d[0] is a
        positive integer), and rr[i] = a/(b << scale_log2); row mu[i] holds
        mu_ij for j < i.  Both by int true division, which rounds correctly."""
        k, d, lam = self.k, self.d, self.lam
        rr = []
        for i in range(k):
            a, b = d[i], d[i - 1] if i else 1
            g = math.gcd(a, b)
            rr.append((a // g, b // g))
        e = max(a.bit_length() - b.bit_length() for a, b in rr)
        rrf = [a / (b << e) for a, b in rr]
        mu = [[lam[i][j] / d[j] for j in range(i)] for i in range(k)]
        return mu, rrf, e


class GramLLL(GramGSO):
    """LLL state over an exact integer Gram matrix with tracked transform."""

    def __init__(self, gram, delta=Fraction(99, 100)):
        k = len(gram)
        super().__init__([[int(x) for x in row] for row in gram], [0] * k,
                         [[0] * k for _ in range(k)])
        self.U = identity(k)
        if not isinstance(delta, Fraction):
            delta = Fraction(delta)
        if not delta.denominator < 4 * delta.numerator < 4 * delta.denominator:
            raise ValueError(f"LLL delta {delta} outside (1/4, 1)")
        self.delta = delta
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
        """Swap b_i and b_{i-1} and update (d, lambda) in O(k) exact steps
        (Cohen, GTM 138, Alg. 2.6.7 SWAPI); every division is exact, so the
        state equals a rebuild of the rows from i-1 on."""
        G, U, k, d, lam = self.G, self.U, self.k, self.d, self.lam
        G[i], G[i - 1] = G[i - 1], G[i]
        for row in G:
            row[i], row[i - 1] = row[i - 1], row[i]
        for row in U:
            row[i], row[i - 1] = row[i - 1], row[i]
        li, lp = lam[i], lam[i - 1]
        for j in range(i - 1):
            li[j], lp[j] = lp[j], li[j]
        lm = li[i - 1]
        di, dp = d[i], d[i - 1]
        b = ((d[i - 2] if i >= 2 else 1) * di + lm * lm) // dp
        for t in range(i + 1, k):
            lt = lam[t]
            x = lt[i]
            lt[i] = (di * lt[i - 1] - lm * x) // dp
            lt[i - 1] = (b * x + lm * lt[i]) // di
        d[i - 1] = b

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
            li = lam[lo + ii]
            for jj in range(ii, m):
                lj = lam[lo + jj]
                # the _gso_row recurrence stopped at t = lo leaves
                # d[lo-1] * <pi(b_i), pi(b_j)>
                u = G[lo + ii][lo + jj]
                for t in range(lo):
                    u, r = divmod(d[t] * u - li[t] * lj[t],
                                  d[t - 1] if t else 1)
                    if r:
                        raise VerificationFailed(
                            "projected block Gram entry is not integral")
                out[ii][jj] = out[jj][ii] = u
        return out, denom

    def block_gso(self, lo, hi):
        """GSO of the projected block b_lo..b_{hi-1}, read off self: for denom
        = d[lo-1], the Gram of projected_block_gram, d'_i = denom^i d[lo+i] and
        lam'_ij = denom^j lam[lo+i][lo+j], as GramLLL of that Gram would give;
        its reduce() would change nothing once self is reduced (Cohen 2.6)."""
        gp, denom = self.projected_block_gram(lo, hi)
        m = hi - lo
        d = [denom ** i * self.d[lo + i] for i in range(m)]
        lam = [[denom ** j * self.lam[lo + i][lo + j] if j < i else 0
                for j in range(m)] for i in range(m)]
        return GramGSO(gp, d, lam)

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


def _unimodular_first_col(w):
    """A unimodular integer matrix whose first column is w (gcd(w) = +-1).

    Maintains the invariant M @ v = w while v is reduced to e_0 by gcd row
    operations, mirroring each by the inverse column operation on M.
    """
    m = len(w)
    v = [int(x) for x in w]
    M = identity(m)
    if not any(v):
        raise VerificationFailed("zero vector cannot start a basis")
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
    if abs(v[t]) != 1:
        raise VerificationFailed("input vector was not primitive")
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


def enumerate_gram(red, bound2_exact=None):
    """All coefficient vectors (w.r.t. red's current basis) with exact norm^2
    at most bound2_exact, via the float kernel with an opened radius.

    bound2_exact defaults to the smallest diagonal entry.  Returns a list of
    (coeffs tuple, exact_norm2) and the node count.
    """
    mu, rrf, e = red.float_gso()
    if bound2_exact is None:
        bound2_exact = min(red.norms())
    nodes_total = 0
    max_out = _ENUM_MAX_OUT
    while True:
        bf = bound2_exact / (1 << e) * (1 + _ENUM_MARGIN)
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


def _block_candidates(block):
    """enumerate_gram(block): (candidates, nodes).  A 2-dimensional block
    [[a, b], [b, c]] with 2|b| <= a and 4(ac - b^2) > a*min(a, c) is read
    off in closed form, with no nodes.  A vector (x, y) of norm^2 at most
    min(a, c) then has |y| <= 1, its norm^2 being at least y^2 (ac - b^2)/a,
    and |x| <= 1, since |x + yb/a| <= 1/2 at the best x.  The norms of
    (1, 1) and (-1, 1) sum to 2a + 2c, so at most one passes, the one with
    xb <= 0.  The candidates are those of (1, 0), (0, 1) and that one
    under the bound, in the kernel's zig-zag order.  Every projected
    2-block of an LLL-reduced basis passes the test."""
    if block.k == 2:
        (a, b), (_, c) = block.G
        bound = min(a, c)
        if 2 * abs(b) <= a and 4 * (a * c - b * b) > a * bound:
            out = [((1, 0), a), ((0, 1), c),
                   ((-1 if b > 0 else 1, 1), a - 2 * abs(b) + c)]
            return [t for t in out if t[1] <= bound], 0
    return enumerate_gram(block)


def shortest_of_gram(gram, cap=ENUM_DIM_CAP):
    """Exact shortest nonzero vector of the lattice with this Gram matrix.

    Returns (coeffs in the *input* basis, exact norm^2, nodes).  Deterministic
    tie-break: smallest (norm2, coefficient tuple).
    """
    k = len(gram)
    if k > cap:
        raise DimensionCap(f"enumeration dimension {k} exceeds cap {cap}")
    if k == 1:
        if gram[0][0] <= 0:
            raise RankDeficient("Gram matrix is not positive definite")
        return (1,), gram[0][0], 1
    red = GramLLL(gram)
    red.reduce()
    cands, nodes = enumerate_gram(red)
    coeffs, n2 = min(cands, key=lambda t: (t[1], t[0]))
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


def _gauss_lagrange(a, b, c):
    """(U, |b_0|^2, det) of the rank-2 Gram [[a, b], [b, c]] reduced by
    Gauss-Lagrange in integers (Cohen, GTM 138, Sec. 1.3): size-reduce
    b_1 against b_0 with GramLLL._red's rounding, swap while c < a.  U's
    columns express the reduced basis in the input one, and are those of
    GramLLL's delta = 99/100 sweep followed by the closed-form 2-block
    tours, which swap alike except at one tie: at 99a <= 100c < 100a and
    2b = a, the tour's (-1, 1) beats (0, 1) at equal norm and b_0 becomes
    b_1 - b_0, which ends the reduction.  A Gram that is not positive
    definite raises RankDeficient."""
    det = a * c - b * b
    if a <= 0 or det <= 0:
        raise RankDeficient("Gram matrix is not positive definite")
    u0, u1, v0, v1 = 1, 0, 0, 1  # columns (u0, u1) and (v0, v1) of U
    while True:
        if 2 * abs(b) > a:
            q = (2 * b + a) // (2 * a)
            c -= q * (2 * b - q * a)
            b -= q * a
            v0 -= q * u0
            v1 -= q * u1
        if c >= a:
            break
        if 2 * b == a and 100 * c >= 99 * a:
            a, b = c, c - b
            u0, u1 = v0 - u0, v1 - u1
            break
        a, c = c, a
        u0, u1, v0, v1 = v0, v1, u0, u1
    return [[u0, v0], [u1, v1]], a, det


def bkz(basis, beta):
    """BKZ-reduce with exact block SVP; hard postcondition: the smallest
    output vector satisfies the block-reduction quality bound
    |v| <= beta^((k-1)/(2(beta-1))) * det^(1/k) (checked exactly; a full
    enumeration fallback enforces it in the rare case tours stall early).
    A rank-2 basis, whose one block is the whole lattice, is reduced by
    Gauss-Lagrange on its three Gram entries (_gauss_lagrange), with no
    GramLLL: the same transform as the tours, the two reduced columns formed
    from it directly, one tour reported and no nodes.
    A basis of rank k > 2 with scale_bits above ROUND_BITS is reduced in
    two passes at most: first a copy rounded to 2^ROUND_BITS, whose
    transform is kept only if the exact columns it gives pass the bound on
    their exact Gram and determinant; then, if the copy is rank deficient
    or fails the bound, the full-scale lattice (report.full_scale_retry)."""
    k = basis.k
    if not 2 <= beta <= k:
        raise ValueError(f"block size {beta} outside [2, {k}]")
    if k == 2:
        x, y = basis.columns
        U, v2, det_gram = _gauss_lagrange(sum(map(mul, x, x)),
                                          sum(map(mul, x, y)),
                                          sum(map(mul, y, y)))
        # b_0 is a shortest vector, so the bound always holds: v2^2 <= 4/3 det
        if not theorem_bound_holds(v2, beta, k, det_gram):
            raise VerificationFailed(
                "BKZ output violates the block-reduction quality bound")
        (u0, v0), (u1, v1) = U
        cols = [[u0 * s + u1 * t for s, t in zip(x, y)],
                [v0 * s + v1 * t for s, t in zip(x, y)]]
        return (LatticeBasis(cols, basis.scale_bits, transform=U),
                ReductionReport(beta, k, v2, det_gram, tours=1))
    retry = False
    if basis.scale_bits > ROUND_BITS:
        shift = basis.scale_bits - ROUND_BITS
        half = 1 << (shift - 1)
        rounded = [[(c + half) >> shift for c in col] for col in basis.columns]
        try:
            red, nodes, tours, fallback = _bkz_gram(_gram_of(rounded), beta)
        except RankDeficient:
            pass
        else:
            cols = _apply_transform(basis.columns, red.U)
            v2 = min(sum(x * x for x in col) for col in cols)
            det_gram = basis.det_squared()
            if theorem_bound_holds(v2, beta, k, det_gram):
                return _bkz_result(basis, red.U, cols, beta, v2, det_gram,
                                   nodes, tours, fallback)
        retry = True
    red, nodes, tours, fallback = _bkz_gram(basis.gram(), beta)
    v2, det_gram = min(red.norms()), red.det_gram()
    if not theorem_bound_holds(v2, beta, k, det_gram):
        raise VerificationFailed(
            "BKZ output violates the block-reduction quality bound")
    out, report = _bkz_result(basis, red.U,
                              _apply_transform(basis.columns, red.U), beta,
                              v2, det_gram, nodes, tours, fallback)
    report.full_scale_retry = retry
    return out, report


def _bkz_gram(gram, beta):
    """BKZ tours on an integer Gram of rank at least 3; returns (the
    GramLLL state, enumeration nodes, tours, whether the full enumeration
    ran).  The enumeration runs when the tours end short of the quality
    bound on this Gram, and inserts the true shortest vector, which always
    satisfies it since lambda_1 <= sqrt(k) det^(1/k) <=
    beta^((k-1)/(2(beta-1))) det^(1/k)."""
    k = len(gram)
    red = GramLLL(gram)
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
            cands, nodes = _block_candidates(red.block_gso(kappa, hi))
            nodes_total += nodes
            w, n2 = min(cands, key=lambda t: (t[1], t[0]))
            # exact: n2 / d[kappa-1] < |b*_kappa|^2 = d[kappa] / d[kappa-1]
            if n2 < red.d[kappa]:
                if math.gcd(*w) != 1:
                    raise VerificationFailed(
                        "shortest block vector must be primitive")
                red.insert_block_vector(kappa, hi, w)
                red.reduce()
                improved = True
        if not improved:
            break
    fallback = not theorem_bound_holds(min(red.norms()), beta, k,
                                       red.det_gram())
    if fallback:
        coeffs, _, nodes = shortest_of_gram(red.G)
        nodes_total += nodes
        red.insert_block_vector(0, k, list(coeffs))
        red.reduce()
    return red, nodes_total, tours, fallback


def _bkz_result(basis, U, cols, beta, v2, det_gram, nodes, tours, fallback):
    """bkz's (reduced basis, report) for the transform U, which gives the
    exact columns cols."""
    return (LatticeBasis(cols, basis.scale_bits, transform=U),
            ReductionReport(beta, basis.k, v2, det_gram,
                            enumeration_nodes=nodes, tours=tours,
                            fallback_full_enum=fallback))


def hnf_lattice(basis):
    """Upper-triangular Hermite form of the column lattice of a square basis
    B, which holds |det B| Z^n since B adj(B) = det(B) I: B folds into that
    (intlinalg.column_hnf).  ValueError unless B is square, RankDeficient
    if it is singular."""
    n = basis.n
    if basis.k != n:
        raise ValueError(f"hnf_lattice needs a square basis, got {n} x "
                         f"{basis.k}")
    d = abs(bareiss_det(basis.columns))
    if not d:
        raise RankDeficient("singular basis has no full-rank Hermite form")
    tri = [[d if i == j else 0 for i in range(n)] for j in range(n)]
    return LatticeBasis(column_hnf(tri, basis.columns), basis.scale_bits)


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
    is expected to fall back to plain bkz.  A basis that is not square raises
    ValueError.
    """
    n = basis.n
    if basis.k != n:
        raise ValueError(f"cheon_reduce needs a square basis, got {n} x "
                         f"{basis.k}")
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
    norms = [sum(c * c for c in col) for col in reduced.columns]
    jmin = norms.index(min(norms))
    v = reduced.columns[jmin] + [0] * (n - m)  # back to ambient coordinates
    report.m_sub = m
    return v, report


def _det_condition(det2, beta, n):
    # det L <= beta^(n^2 / (2 beta))  <=>  det2^(2*beta) <= beta^(2*n^2)
    return det2 ** (2 * beta) <= beta ** (2 * n * n)


def _gram_of(cols):
    """Exact Gram matrix of the columns (rows work alike), filled from the
    upper triangle."""
    k = len(cols)
    g = [[0] * k for _ in range(k)]
    for i in range(k):
        ci = cols[i]
        for j in range(i, k):
            g[i][j] = g[j][i] = sum(map(mul, ci, cols[j]))
    return g


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
    """Text format: first line "n m", then n rows of m integers; a file that
    does not match its header raises ValueError."""
    with open(path) as f:
        head = f.readline().split()
        if len(head) != 2:
            raise ValueError(f"{path}: header must be \"n m\", got {head}")
        n, m = int(head[0]), int(head[1])
        if n < 1 or m < 1:
            raise ValueError(f"{path}: matrix size {n} x {m} is empty")
        rows = []
        for i in range(n):
            rows.append([int(x) for x in f.readline().split()])
            if len(rows[-1]) != m:
                raise ValueError(f"{path}: row {i + 1} has {len(rows[-1])} "
                                 f"entries, expected {m}")
        if f.read().strip():
            raise ValueError(f"{path}: more than {n} rows")
    cols = [[rows[i][j] for i in range(n)] for j in range(m)]
    return LatticeBasis(cols)


def write_matrix_file(path, basis):
    n, k = basis.n, basis.k
    with open(path, "w") as f:
        f.write(f"{n} {k}\n")
        for i in range(n):
            f.write(" ".join(str(basis.columns[j][i]) for j in range(k)) + "\n")

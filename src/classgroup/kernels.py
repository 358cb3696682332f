"""The two inner loops of relation collection, on plain Python data.

Lattice-vector enumeration is the inner loop of every BKZ block; trial
division is the smoothness test of every cofactor norm.  The exact big
integer layers live elsewhere and hand these loops float Gram-Schmidt data
(enumeration) or a prime table (trial division).

`perfbench/spans.py` patches both functions by attribute name, which is why
`trial_divide_int64` keeps its suffix although it takes ints of any size.
"""


def enum_collect(mu, rr, bound2, max_out):
    """Collect integer coefficient vectors x != 0, x[n-1] >= 0, with
    sum_j rr[j] * (x[j] - c_j)^2 <= bound2 where c_j = -sum_{i>j} mu[i][j]x[i].

    mu is the unit lower-triangular Gram-Schmidt coefficient matrix and rr the
    squared Gram-Schmidt lengths, both floats.  Schnorr-Euchner zig-zag order;
    pruning relies on |x[j] - c_j| being non-decreasing along each zig-zag.

    Returns (count, out, nodes).  out holds the first min(count, max_out)
    vectors; count may exceed max_out, in which case the caller must retry
    with a larger buffer.
    """
    n = len(rr)
    out = []
    x = [0] * n
    dx = [0] * n
    ddx = [0] * n
    center = [0.0] * n
    dist = [0.0] * (n + 1)
    count = 0
    nodes = 0
    j = n - 1
    while True:
        nodes += 1
        y = x[j] - center[j]
        rho = dist[j + 1] + rr[j] * y * y
        if rho <= bound2:
            if j == 0:
                if any(x):
                    if count < max_out:
                        out.append(list(x))
                    count += 1
                ddx[0] = -ddx[0]
                dx[0] = ddx[0] - dx[0]
                x[0] += dx[0]
            else:
                dist[j] = rho
                j -= 1
                c = 0.0
                for i in range(j + 1, n):
                    c -= mu[i][j] * x[i]
                center[j] = c
                xj = round(c)  # half-even
                x[j] = xj
                dx[j] = 0
                ddx[j] = -1 if c >= xj else 1
        else:
            if j == n - 1:
                break
            j += 1
            if j == n - 1:
                x[j] += 1  # top level explores the nonnegative branch only
            else:
                ddx[j] = -ddx[j]
                dx[j] = ddx[j] - dx[j]
                x[j] += dx[j]
    return count, out, nodes


def trial_divide_int64(n, primes):
    """Trial division of n >= 1 by `primes`, all primes up to some bound in
    ascending order.  Returns (cofactor, {p: e}) with the primes ascending;
    the cofactor has no factor in `primes`."""
    exps = {}
    m = n
    for p in primes:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            exps[p] = e
    if m != 1 and primes and m <= primes[-1]:
        # leftover is a prime of the table, larger than every divisor found
        exps[m] = 1
        m = 1
    return m, exps

import hashlib
import math
import random
from fractions import Fraction

import pytest

from oracles import brute_shortest, bkz_rank2_by_tours
from under_O import run_under_O
from classgroup import kernels, lattice
from classgroup.errors import DeterminantTooLarge, DimensionCap, RankDeficient
from classgroup.intlinalg import identity
from classgroup.lattice import (GramLLL, LatticeBasis, bkz, cheon_reduce,
                                enumerate_svp, hnf_lattice, lattice_member,
                                lll, log_big, round_half_even,
                                shortest_of_gram, theorem_bound_holds,
                                _apply_transform, _gram_of)
from classgroup.polynomials import bareiss_det


def random_unimodular(n, rng, steps=50):
    U = identity(n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-3, 3)
        for t in range(n):
            U[t][i] += q * U[t][j]
    return U


def hadamard_defect(cols):
    d2 = bareiss_det(_gram_of(cols))
    s = sum(math.log(sum(c * c for c in col)) for col in cols)
    return 0.5 * log_big(d2) - 0.5 * s  # log of (det / prod |b_i|), <= 0


def test_lll_examples():
    assert lll(LatticeBasis([[1, 0], [0, 1]])).columns == [[1, 0], [0, 1]]
    red = lll(LatticeBasis([[1, 0], [4, 1]]))
    assert red.columns[0] == [1, 0]


def test_lll_hadamard_property():
    rng = random.Random(21)
    for _ in range(50):
        n = 8
        cols = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
        if bareiss_det(_gram_of(cols)) == 0:
            continue
        B = LatticeBasis(cols)
        red = lll(B)
        assert hadamard_defect(red.columns) >= hadamard_defect(cols) - 1e-9
        assert abs(bareiss_det(red.transform)) == 1


def test_enumerate_svp_examples():
    coeffs, n2 = enumerate_svp([[9]])
    assert coeffs == (1,) and n2 == 9
    coeffs, n2 = enumerate_svp([[2, 1], [1, 2]])
    assert n2 == 2
    with pytest.raises(DimensionCap):
        enumerate_svp([[1] * 31 for _ in range(31)], cap=30)


def test_enumerate_svp_vs_bruteforce():
    rng = random.Random(5)
    for _ in range(30):
        n = 6
        cols = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        g = _gram_of(cols)
        if bareiss_det(g) == 0:
            continue
        coeffs, n2 = enumerate_svp(g)
        b = brute_shortest(g, 4)
        assert n2 <= b  # a box candidate can never beat exact enumeration
        if all(abs(c) <= 4 for c in coeffs):
            assert n2 == b  # the box saw the same vector


def test_bkz_rank2_ideal_example(qi):
    from classgroup.ideals import ideal_from_element, ideal_lattice
    L = ideal_lattice(ideal_from_element(qi.element([2, 1])), qi)
    red, rep = bkz(L, 2)
    v2 = min(sum(c * c for c in col) for col in red.columns)
    scaled = v2 / 4.0 ** L.scale_bits
    assert abs(scaled - 10) < 1e-6
    assert rep.first_vector_norm <= rep.hermite_bound * (1 + 1e-12)


def test_bkz_bound_random_lattices():
    rng = random.Random(77)
    checked = 0
    for _ in range(20):
        n = rng.randint(8, 12)
        cols = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
        g = _gram_of(cols)
        if bareiss_det(g) == 0:
            continue
        B = LatticeBasis(cols)
        for beta in (2, 4, 8):
            red, rep = bkz(B, beta)
            v2 = min(sum(c * c for c in col) for col in red.columns)
            assert theorem_bound_holds(v2, beta, n, bareiss_det(_gram_of(red.columns)))
            assert abs(bareiss_det(red.transform)) == 1
            checked += 1
    assert checked >= 30


def test_hnf_lattice_examples():
    assert hnf_lattice(LatticeBasis([[1, 0], [0, 1]])).columns == [[1, 0], [0, 1]]
    H = hnf_lattice(LatticeBasis([[2, 0], [1, 3]]))
    assert H.columns == [[2, 0], [1, 3]]


def test_hnf_prefix_determinant_monotone():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(2, 6)
        cols = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if bareiss_det(_gram_of(cols)) == 0:
            continue
        H = hnf_lattice(LatticeBasis(cols))
        prev = None
        for m in range(1, n + 1):
            sub = [H.columns[j][:] for j in range(m)]
            det2 = bareiss_det(_gram_of(sub))
            if prev is not None:
                assert det2 >= prev  # prefix determinants non-decreasing
            prev = det2


def test_cheon_m_selection_and_bounds():
    rng = random.Random(11)
    n = 16
    diag = [1] * n
    diag[5] = 4 ** 32
    cols = [[diag[i] if i == j else 0 for i in range(n)] for j in range(n)]
    B = LatticeBasis(_apply_transform(cols, random_unimodular(n, rng)))
    v, rep = cheon_reduce(B, 4)
    assert rep.m_sub == 16  # round(sqrt(2*4*32)) exactly
    assert lattice_member(hnf_lattice(B), v) is not None
    # det = 1 clamps m to beta
    cols = identity(8)
    B = LatticeBasis(_apply_transform(cols, random_unimodular(8, rng, 30)))
    _, rep = cheon_reduce(B, 4)
    assert rep.m_sub == 4
    # oversized determinant refused
    big = [[10 ** 9 if i == j else 0 for i in range(6)] for j in range(6)]
    with pytest.raises(DeterminantTooLarge):
        cheon_reduce(LatticeBasis(big), 2)


def test_cheon_planted_instances():
    rng = random.Random(42)
    done = 0
    while done < 15:
        n = rng.randint(16, 20)
        beta = 4
        D = rng.randint(20, min(34, n * n // (2 * beta)))
        diag = [1] * n
        rem = D
        idx = list(range(n))
        rng.shuffle(idx)
        for i in idx[:4]:
            e = rng.randint(0, rem)
            diag[i] = 4 ** e
            rem -= e
        diag[idx[4]] *= 4 ** rem
        cols = [[diag[i] if i == j else 0 for i in range(n)] for j in range(n)]
        B = LatticeBasis(_apply_transform(cols, random_unimodular(n, rng)))
        v, rep = cheon_reduce(B, beta)
        lhs = math.log(rep.first_vector_norm, beta)
        assert lhs <= 1.1 * math.sqrt(2 / beta * D)
        done += 1


def test_round_half_even():
    assert round_half_even(2.5) == 2
    assert round_half_even(3.5) == 4
    assert round_half_even(2.4) == 2
    assert round_half_even(2.6) == 3


def test_matrix_file_roundtrip(tmp_path):
    from classgroup.lattice import read_matrix_file, write_matrix_file
    B = LatticeBasis([[1, 2, 3], [0, 1, 4]])
    p = tmp_path / "m.txt"
    write_matrix_file(str(p), B)
    B2 = read_matrix_file(str(p))
    assert B2.columns == B.columns
    assert p.read_text().splitlines()[0] == "3 2"


_BKZ_UNDER_O = """
from classgroup import lattice
from classgroup.errors import VerificationFailed

assert not __debug__, "run with python -O"
# a quality check that always fails: the full-enumeration fallback cannot
# satisfy it either, so bkz must refuse its output
lattice.theorem_bound_holds = lambda *args: False
try:
    lattice.bkz(lattice.LatticeBasis([[3, 1], [1, 3]]), 2)
except VerificationFailed as e:
    print("rejected:", e)
"""


def test_bkz_quality_check_survives_python_O():
    lines = run_under_O(_BKZ_UNDER_O)
    assert lines == ["rejected: BKZ output violates the block-reduction "
                     "quality bound"], lines


_OUT_OF_RANGE_UNDER_O = """
from classgroup import lattice

assert not __debug__, "run with python -O"
for call in (lambda: lattice.bkz(lattice.LatticeBasis([[3, 1], [1, 3]]), 3),
             lambda: lattice.bkz(lattice.LatticeBasis([[3, 1], [1, 3]]), 1),
             lambda: lattice.GramLLL([[1]], delta=1)):
    try:
        call()
    except ValueError as e:
        print("rejected:", e)
"""

_NOT_PRIMITIVE_UNDER_O = """
from classgroup import lattice
from classgroup.errors import VerificationFailed

assert not __debug__, "run with python -O"
# a block "shortest vector" of norm 0 with gcd 2 always looks like an
# improvement, so only the primitivity check stands between it and the basis;
# a 2-dimensional block is read off in closed form, so the block has three
lattice.enumerate_gram = lambda red: ([((2,) + (0,) * (red.k - 1), 0)], 1)
try:
    lattice.bkz(lattice.LatticeBasis([[3, 1, 0], [1, 3, 1], [0, 1, 3]]), 3)
except VerificationFailed as e:
    print("rejected:", e)
"""


def test_range_and_primitivity_checks_survive_python_O():
    assert run_under_O(_OUT_OF_RANGE_UNDER_O) == [
        "rejected: block size 3 outside [2, 2]",
        "rejected: block size 1 outside [2, 2]",
        "rejected: LLL delta 1 outside (1/4, 1)"]
    assert run_under_O(_NOT_PRIMITIVE_UNDER_O) == [
        "rejected: shortest block vector must be primitive"]


def _seeded_bases(seed, count):
    """Independent integer columns of three shapes, in turn: small random
    square bases, square bases with one long column, and regulator-shaped
    rows [2^64-scaled unit logs | I] whose logs are small integer
    combinations of a few fundamental ones, so that LLL must find the
    dependencies."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        shape = len(out) % 3
        if shape == 0:
            n = rng.randint(3, 10)
            cols = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
        elif shape == 1:
            n = rng.randint(3, 8)
            cols = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            cols[0] = [rng.randint(-2 ** 40, 2 ** 40) for _ in range(n)]
        else:
            r = rng.randint(2, 4)
            k = rng.randint(r, r + 4)
            fund = []
            for _ in range(r - 1):
                v = [rng.uniform(-5, 5) for _ in range(r - 1)]
                fund.append(v + [-sum(v)])
            cols = []
            for i in range(k):
                c = [rng.randint(-3, 3) for _ in fund]
                logs = [sum(cj * f[t] for cj, f in zip(c, fund))
                        for t in range(r)]
                cols.append([round(x * 2 ** 64) for x in logs]
                            + [int(i == j) for j in range(k)])
        if bareiss_det(_gram_of(cols)) > 0:
            out.append(cols)
    return out


def _record_swaps(monkeypatch, after=None):
    """Wrap GramLLL._swap; the returned list gets the index of every swap,
    and after(state) runs once each swap is done."""
    swaps = []
    orig = GramLLL._swap

    def wrapped(self, i):
        orig(self, i)
        swaps.append(i)
        if after is not None:
            after(self)

    monkeypatch.setattr(GramLLL, "_swap", wrapped)
    return swaps


def test_swap_update_matches_rebuild(monkeypatch):
    def check(red):
        fresh = GramLLL(red.G)  # every GSO row rebuilt from the current G
        assert (red.d, red.lam) == (fresh.d, fresh.lam)

    swaps = _record_swaps(monkeypatch, check)
    for cols in _seeded_bases(23, 30):
        GramLLL(_gram_of(cols)).reduce()
    assert len(swaps) > 500 and max(swaps) >= 6
    # BKZ also swaps right after inserting a block vector
    del swaps[:]
    for cols in _seeded_bases(29, 6):
        if len(cols) >= 3:
            bkz(LatticeBasis(cols), 3)
    assert swaps


def test_projected_block_gram_matches_fractions():
    blocks = 0
    for cols in _seeded_bases(31, 15):
        red = GramLLL(_gram_of(cols))
        red.reduce()
        d, lam, G, k = red.d, red.lam, red.G, red.k
        for lo in range(k - 1):
            for hi in range(lo + 2, k + 1):
                got, denom = red.projected_block_gram(lo, hi)
                assert denom == (d[lo - 1] if lo else 1)
                for i in range(lo, hi):
                    for j in range(lo, hi):
                        val = Fraction(G[i][j]) - sum(
                            Fraction(lam[i][t] * lam[j][t],
                                     d[t] * (d[t - 1] if t else 1))
                            for t in range(lo))
                        assert got[i - lo][j - lo] == val * denom
                blocks += 1
    assert blocks > 200


# (swap count, sha256 of repr(U)) of LLL on _seeded_bases(17, 30), recorded
# while every swap still rebuilt the GSO rows: the swap update must take the
# same decisions
_PINNED_TRANSFORMS = [
    (49, "39695604cce1d402e2759fde0668b29399decb17ad61089a7a554754a67ee70b"),
    (13, "5d0a7b9ddc481f20fe3b65541688c539c9d704e78abcda9152984fc2cf9a2b76"),
    (6, "0e31c7315d04bb231450d6985ff75c066a40a031d712f1272df6ea981d526990"),
    (8, "89094d09199230d3788ee1d169b0880a9a786b5009e4cc309303add58a6c9e99"),
    (2, "0e91067352d71aa82e360f69196fa8556b58514f600e943b185b4a8f772ab8a8"),
    (49, "dd1b973f015e06527960c71f16afceef992b685608d51ae9e5b18c5324e8fe50"),
    (43, "c967ca3d6964902e2777395e3f9a492be6b7233bc982d9156d6b7098915d2cb6"),
    (28, "7674954e5af3be9d0f59f68880ee43d3a6f99235e0fec73eadee819d318d23fc"),
    (6, "c561fee760d4f8313ea71dcceb88dd494cb31d8ea1aff070710e9b3c81028f12"),
    (18, "2dc0ef28b18dd1465f0720ea85be49bcae492922aa24ca503d67b42873d4433f"),
    (10, "0ee44e541c78337683bd90e3a35428a6540dc97b2c9450fa9e0a10d6cb47251a"),
    (7, "cf5b94a46a56917a86f98462fd678072e7a520f2a26ea688f6a60c2c14bf08f1"),
    (3, "73271763b9d12f5bfb4f718d561fbe52d6dc074bfe55a7ea050847282e38a020"),
    (3, "1118d199f5dd35b0a7706c34d9966a0cd80f0e2169114b66831caa14afed2a10"),
    (23, "cc3c46e6b47bbf37e590e7a1bd2b1a1764bffae4b8332cff79e757ec7da22fc2"),
    (81, "060d044f073b9b1d28182f5970e89d16f2c3d10a038a647be9382a3cd9a385bf"),
    (7, "2db70c5c86d23c7743e89540d5ae640b7acbe56b1d21589a152b330462c89c12"),
    (7, "ad60deefc863d8e4007a8804808b76b819d5e46f7ec2200f7209bc96570f06b7"),
    (4, "bf5128100a15e485aed7dea110796d2c8d96690158a730d57e4066139e089934"),
    (33, "f62b0a787eb8b6341caddeb0f8c0e90a95d607ba8c56bd0fac7912469fb1b1e9"),
    (4, "718d7d0ab389241310942feb92007944f0b41fb28ad45b8e4703229a50cc7f57"),
    (3, "ef949e2da9d56178b4a712fbe54b6e2246ce155bbb5691d93a10d3387969c115"),
    (19, "8019e7667400e75068dfe7f8ac26b827af3fcba83829281c2758aaf54c520059"),
    (3, "f73ad6b57620f8620da802276ca1b9a409e607eeb0b58a44387ab19c6db321b9"),
    (16, "ae6d40d248a0d8860d338aef0a2a42671bdeeafdc5f41085fa80c299cd5e0491"),
    (2, "62093a54fb932c906e8fe6154155f2f9e2d2beecf80d24b3570ea0600efcfee4"),
    (76, "a840292993bb0015a5a916e6dacfe8e731a0d487bcc4c9ada3fa757cdc5ae47e"),
    (67, "3a4e2183e63c0d3cd816832b48a3cd1781e18a4423aff77e8734d88092c3cab2"),
    (15, "4ddcb63f54bd429742948c8ca5d5147add28a9e162b195604e54c6a03b127298"),
    (0, "96e2842b61378b276457934f786303cbfc11a17102c65dd5bc9d51d975d21e79"),
]


def test_lll_transforms_pinned(monkeypatch):
    swaps = _record_swaps(monkeypatch)
    got = []
    for cols in _seeded_bases(17, 30):
        del swaps[:]
        red = GramLLL(_gram_of(cols))
        red.reduce()
        got.append((len(swaps),
                     hashlib.sha256(repr(red.U).encode()).hexdigest()))
    assert got == _PINNED_TRANSFORMS


def _fraction_gso(G):
    """(mu, |b*|^2) of a Gram matrix by Gram-Schmidt over the rationals."""
    k = len(G)
    mu = [[Fraction(0)] * k for _ in range(k)]
    bb = []
    for i in range(k):
        for j in range(i):
            mu[i][j] = (Fraction(G[i][j]) - sum(
                mu[i][t] * mu[j][t] * bb[t] for t in range(j))) / bb[j]
        bb.append(Fraction(G[i][i])
                  - sum(mu[i][t] ** 2 * bb[t] for t in range(i)))
    return mu, bb


def test_block_gso_is_the_reduced_sub_lll_state():
    blocks = 0
    for cols in _seeded_bases(37, 15):
        red = GramLLL(_gram_of(cols))
        red.reduce()
        for lo in range(red.k):
            for hi in range(lo + 1, red.k + 1):
                block = red.block_gso(lo, hi)
                sub = GramLLL(red.projected_block_gram(lo, hi)[0])
                assert (block.G, block.d, block.lam) == (sub.G, sub.d, sub.lam)
                sub.reduce()
                assert (block.G, block.d, block.lam) == (sub.G, sub.d, sub.lam)
                assert sub.U == identity(hi - lo)
                mu, bb = _fraction_gso(block.G)
                e = max(b.numerator.bit_length() - b.denominator.bit_length()
                        for b in bb)
                assert block.float_gso() == (
                    [[float(mu[i][j]) for j in range(i)]
                     for i in range(hi - lo)],
                    [float(b / Fraction(2) ** e) for b in bb], e)
                blocks += 1
    assert blocks > 300


# (tours, enumeration nodes, sha256 of repr(U)) of bkz with beta = 3 and 4
# on _seeded_bases(43, 30), recorded while each block was still LLL-reduced
# on its own before enumeration: reading the block's GSO from the reduced
# basis must take the same decisions.  The node counts were re-recorded when
# 2-dimensional blocks went to the closed form, which counts no nodes
_PINNED_BKZ = [
    (1, 8, 'eb099f052092aa52b6d287c27ffbe4fab2f85cab3e4c69dc7fa9a23b641adffb'),
    (1, 8, '25cbfd8a7a544de432f87f28e03d716b6117bb52c5b1ef91d30ac4f8cdadc688'),
    (1, 46, 'ed2d73ce0db8ae2fe62f64b7b4ba0dc8331e5fae5f9336c32c1db89fb061ad0c'),
    (1, 52, 'ed2d73ce0db8ae2fe62f64b7b4ba0dc8331e5fae5f9336c32c1db89fb061ad0c'),
    (1, 32, 'c481dbe53e5c80636ec80b1413ffb687aa2e573ef4e449329b16052806de10e1'),
    (1, 38, 'c481dbe53e5c80636ec80b1413ffb687aa2e573ef4e449329b16052806de10e1'),
    (1, 8, '11f792de22c64280d765e4c990e4bd7fb45f0b3f3b1810667de04bb81698c59b'),
    (2, 60, 'e6ad8875f3f31eba43be461e29973d6c67c2f9a49228fb3fec45038762513098'),
    (2, 68, 'e6ad8875f3f31eba43be461e29973d6c67c2f9a49228fb3fec45038762513098'),
    (1, 50, '3cd80d9ec53f1f7d5e0dffde5d201976027d834937fc5ead9f0d263f96a76810'),
    (1, 66, '3cd80d9ec53f1f7d5e0dffde5d201976027d834937fc5ead9f0d263f96a76810'),
    (1, 40, '4a618f8b7dd2db22742b2fae869515abf60dd6cac5ced8bb43374646e7371eac'),
    (1, 48, '4a618f8b7dd2db22742b2fae869515abf60dd6cac5ced8bb43374646e7371eac'),
    (1, 8, 'f07ebdb18952fcc2ac8fdb44858bc750e165940df5c3ce7c14bb18d93af73cb8'),
    (1, 44, '873dc5f7b4a32288ca3f136d744a509b4d470381efb31ad5b9fe84b5ed38deef'),
    (1, 52, '873dc5f7b4a32288ca3f136d744a509b4d470381efb31ad5b9fe84b5ed38deef'),
    (1, 52, 'a8c1b52ec38a1db09da73b3c57f033888aee626a8533bd7321b9a7e1ecc6b9fe'),
    (1, 62, 'a8c1b52ec38a1db09da73b3c57f033888aee626a8533bd7321b9a7e1ecc6b9fe'),
    (1, 16, '3ac31df47fe6a25132ad5affe6ef956585ef9e19f6826d2528a9902b28a05bf0'),
    (1, 18, '3ac31df47fe6a25132ad5affe6ef956585ef9e19f6826d2528a9902b28a05bf0'),
    (1, 8, '0efe6963b3360fe82b4c99835f88c6fb8fd80c8108734f477be393d2605bf16e'),
    (1, 44, 'bed395df582b7e2cf5a9ca7a9c4a969d1060cb423bf4a8eee733168504676e0d'),
    (1, 52, 'bed395df582b7e2cf5a9ca7a9c4a969d1060cb423bf4a8eee733168504676e0d'),
    (1, 8, '7b0e2d77fc70a225369cf50d105339a49e5e334c1ba88929c54c99e2a88d5646'),
    (1, 44, 'e4f4d126f51ec8d48779913f2b65fe2b06ecd622be35f8d32abda9b03c491e7b'),
    (1, 52, 'e4f4d126f51ec8d48779913f2b65fe2b06ecd622be35f8d32abda9b03c491e7b'),
    (1, 54, 'cb1ba3ca12b2e62d6809bcb19c902ad7ab7c549eb48ec09490d801628efadc8d'),
    (1, 64, 'cb1ba3ca12b2e62d6809bcb19c902ad7ab7c549eb48ec09490d801628efadc8d'),
    (2, 181, 'c775b861c9c3343c24f87ee144807a1b70547566c79ab3252247c2c0f7ae6712'),
    (2, 244, 'c775b861c9c3343c24f87ee144807a1b70547566c79ab3252247c2c0f7ae6712'),
    (1, 8, 'e9100f630b78400bd5c3f2670da280322d8bb6245995f5dd86d26d6615a24dc6'),
    (1, 48, '177e8ff1c5c8abe2ee40fea0dfa3a59fde0415920f158fb356548b66074607a1'),
    (1, 58, '177e8ff1c5c8abe2ee40fea0dfa3a59fde0415920f158fb356548b66074607a1'),
    (2, 108, '1ae95e57a55ff3448d88d4416327fd2f35653c215039a670f21fe01f027bd5bc'),
    (2, 132, '1ae95e57a55ff3448d88d4416327fd2f35653c215039a670f21fe01f027bd5bc'),
    (1, 8, '0cee650ac15cdb096fed0a6ad6107b7ed688f0be7c1254c9324d4701a5deab7b'),
    (1, 22, '4fb35667e4a8a70ef20b75a99ac18f79efa75903fbaf5e6102753a1d7fc7d9e2'),
    (1, 24, '4fb35667e4a8a70ef20b75a99ac18f79efa75903fbaf5e6102753a1d7fc7d9e2'),
    (2, 154, 'bac87303ad33d88ddb048767816ecebb4a8abe8888f9a411f5ea777c9919250e'),
    (2, 226, 'bac87303ad33d88ddb048767816ecebb4a8abe8888f9a411f5ea777c9919250e'),
    (1, 12, '07bf670df5e2e0fb8b53de226c9f80cbe257c9aa21437488fdaff93fe2b6dcad'),
    (1, 52, '4f3af0d041966f1b99273c4da634443646ea3595ebc57b405d3847b50faee833'),
    (1, 62, '4f3af0d041966f1b99273c4da634443646ea3595ebc57b405d3847b50faee833'),
    (1, 32, '135c14d7b8d8c7a9104acd181ac311ef93427b9182049b7c4896c80356874bf9'),
    (1, 38, '135c14d7b8d8c7a9104acd181ac311ef93427b9182049b7c4896c80356874bf9'),
    (2, 64, '4b34eacd6cb2d0bd9f55a039084a83c2ce61582d9352b920f5375e23cc453aa6'),
    (2, 76, '4b34eacd6cb2d0bd9f55a039084a83c2ce61582d9352b920f5375e23cc453aa6'),
    (2, 114, 'aaaca2a660c5c27906ba8122f42ebc661fdc4df97c7ce016636f48fe9cea0241'),
    (2, 140, 'aaaca2a660c5c27906ba8122f42ebc661fdc4df97c7ce016636f48fe9cea0241'),
]


def test_bkz_decisions_pinned():
    got = []
    for cols in _seeded_bases(43, 30):
        for beta in (3, 4):
            if len(cols) >= beta:
                out, report = bkz(LatticeBasis(cols), beta)
                got.append((report.tours, report.enumeration_nodes,
                            hashlib.sha256(repr(out.transform).encode())
                            .hexdigest()))
    assert got == _PINNED_BKZ


def _closed_form_applies(G):
    (a, b), (_, c) = G
    return 2 * abs(b) <= a and 4 * (a * c - b * b) > a * min(a, c)


def _counting_kernel(monkeypatch):
    calls = []
    inner = kernels.enum_collect

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(kernels, "enum_collect", counted)
    return calls


def test_two_block_closed_form_matches_float_enumeration(monkeypatch):
    # the same candidates in the same order, and so the same minimum, as
    # the float kernel, with no kernel call; exact ties and entries past
    # 2^256 included
    calls = _counting_kernel(monkeypatch)
    grams = []
    for s in (1, 7, 2 ** 256 + 1):
        grams += [[[s, 0], [0, s]], [[2 * s, s], [s, 2 * s]],
                  [[2 * s, -s], [-s, 2 * s]]]
    rng = random.Random(28)
    while len(grams) < 600:
        a = rng.randint(1, 2 ** rng.choice((6, 40, 300)))
        b = rng.randint(-(a // 2), a // 2)
        c = rng.randint(max(1, (b * b) // a), 3 * a)
        if _closed_form_applies([[a, b], [b, c]]):
            grams.append([[a, b], [b, c]])
    below = 0
    for G in grams:
        assert _closed_form_applies(G)
        below += G[1][1] < G[0][0]
        del calls[:]
        got, nodes = lattice._block_candidates(GramLLL(G))
        assert (calls, nodes) == ([], 0)
        want, _ = lattice.enumerate_gram(GramLLL(G))
        assert calls
        assert got == want, G
        key = lambda t: (t[1], t[0])
        assert min(got, key=key) == min(want, key=key)
    assert below > 100
    ties = lattice._block_candidates(GramLLL([[14, 7], [7, 14]]))[0]
    assert ties == [((1, 0), 14), ((0, 1), 14), ((-1, 1), 14)]


def test_two_block_falls_back_to_the_kernel(monkeypatch):
    # a Gram that fails either integer test goes to enumerate_gram
    calls = _counting_kernel(monkeypatch)
    grams = [[[4, 3], [3, 10]], [[10, 5], [5, 3]]]
    rng = random.Random(29)
    while len(grams) < 100:
        a, c = rng.randint(1, 2 ** 40), rng.randint(1, 2 ** 40)
        b = rng.randint(-a, a)
        if a * c > b * b and not _closed_form_applies([[a, b], [b, c]]):
            grams.append([[a, b], [b, c]])
    for G in grams:
        del calls[:]
        got = lattice._block_candidates(GramLLL(G))
        assert calls
        assert got == lattice.enumerate_gram(GramLLL(G))


def test_collect_on_a_quadratic_field_never_enumerates(monkeypatch):
    # every BKZ block of a quadratic field is 2-dimensional
    from classgroup.field import parse_field
    from classgroup.ideals import build_factor_base
    from classgroup.relations import CollectionConfig, collect
    calls = _counting_kernel(monkeypatch)
    K = parse_field([250001, -1, 1])
    fb = build_factor_base(K, 150)
    for mode in ("plain", "multi"):
        cfg = CollectionConfig(bound_B=150, k=2, A=2, beta=2, rng_seed=3,
                               mode=mode)
        matrix, stats = collect(K, fb, cfg)
        assert stats["trials"] >= fb.size
    assert calls == []


# the Gram of ideal_lattice(<2>) in x^2 - x + 1 (Q(sqrt -3), precision 128),
# which compute --seed 3 reduces: hexagonal up to rounding, so the 2-block
# tour takes (-1, 1) over (0, 1) at equal norm
_HEXAGONAL = _gram_of([
    [3368623568352063161630472814686750796980, 0],
    [1684311784176031580815236407343375398490,
     2917313585979872058846961106930432851755]])


def _rank2_grams(rng, count):
    """Positive definite 2x2 Grams: from random columns, from random entries
    up to 2^300, and near-hexagonal ones [[a, +-a/2], [+-a/2, c]] with
    99a <= 100c <= 100a, which size reduction leaves alone."""
    out = []
    while len(out) < count:
        bits = rng.choice((4, 8, 30, 150))
        G = _gram_of([[rng.randint(-2 ** bits, 2 ** bits) for _ in range(2)]
                      for _ in range(2)])
        a, c = rng.randint(1, 2 ** 300), rng.randint(1, 2 ** 300)
        r = math.isqrt(a * c - 1)
        grams = [G, [[a, (b := rng.randint(-r, r))], [b, c]]]
        a = 2 * rng.randint(1, 2 ** rng.choice((3, 20, 300)))
        c = rng.randint((99 * a + 99) // 100, a)
        b = rng.choice((1, -1)) * a // 2
        grams.append([[a, b], [b, c]])
        out += [g for g in grams if g[0][0] * g[1][1] > g[0][1] ** 2]
    return out


def _recorded_rank2_bases(monkeypatch):
    """Every lattice that collect reduces on Q(sqrt -1000003) at B = 150,
    seed 3, in plain and multi mode."""
    from classgroup import relations
    from classgroup.field import parse_field
    from classgroup.ideals import build_factor_base
    recorded = []
    inner = relations.bkz
    monkeypatch.setattr(relations, "bkz", lambda basis, beta: (
        recorded.append(basis), inner(basis, beta))[1])
    K = parse_field([250001, -1, 1])
    fb = build_factor_base(K, 150)
    for mode in ("plain", "multi"):
        relations.collect(K, fb, relations.CollectionConfig(
            bound_B=150, rng_seed=3, mode=mode))
    return recorded


def test_rank2_gauss_lagrange_matches_the_tours(monkeypatch):
    # the transform, the first norm and the quality bound of the general
    # path's tours (tests/oracles.py), exact ties and entries past 2^256
    # included
    grams = [_HEXAGONAL]
    for s in (1, 7, 2 ** 256 + 1):
        grams += [[[s, 0], [0, s]], [[2 * s, s], [s, 2 * s]],
                  [[2 * s, -s], [-s, 2 * s]]]
    grams += _rank2_grams(random.Random(29), 2000)
    ties = 0
    for G in grams:
        (a, b), (_, c) = G
        U, v2, det = lattice._gauss_lagrange(a, b, c)
        assert (U, v2, det) == bkz_rank2_by_tours(G), G
        assert theorem_bound_holds(v2, 2, 2, det)
        assert abs(U[0][0] * U[1][1] - U[0][1] * U[1][0]) == 1
        red = GramLLL(G)
        red.reduce()
        (a, b), (_, c) = red.G
        ties += 2 * b == a and c < a
    assert len(grams) >= 2000 and ties > 100
    bases = _recorded_rank2_bases(monkeypatch)
    assert len(bases) > 100
    for basis in bases + [LatticeBasis([[1, 0], [1, 1]])]:
        out, report = bkz(basis, 2)
        U, v2, det = bkz_rank2_by_tours(basis.gram())
        assert out.transform == U
        assert out.columns == _apply_transform(basis.columns, U)
        assert min(map(sum, ([x * x for x in c] for c in out.columns))) == v2
        assert (report.tours, report.enumeration_nodes,
                report.fallback_full_enum) == (1, 0, False)
        assert theorem_bound_holds(v2, 2, 2, det)


def test_hexagonal_tie_takes_the_tour_vector():
    # at equal norm the tour's (-1, 1) beats (0, 1), so b_0 becomes b_1 - b_0
    # rather than b_1, and a plain swap would give another basis
    (a, b), (_, c) = _HEXAGONAL
    U, v2, _ = lattice._gauss_lagrange(a, b, c)
    red = GramLLL(_HEXAGONAL)
    red.reduce()
    (a, b), (_, c) = red.G
    assert 2 * b == a and 99 * a <= 100 * c < 100 * a
    assert v2 == c
    assert [U[0][0], U[1][0]] == [red.U[t][1] - red.U[t][0] for t in (0, 1)]


def test_quadratic_collect_builds_no_gram_lll(monkeypatch):
    from classgroup.field import parse_field
    from classgroup.ideals import build_factor_base
    from classgroup.relations import CollectionConfig, collect
    built = []
    inner = GramLLL.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        inner(self, *args, **kwargs)

    monkeypatch.setattr(GramLLL, "__init__", counted)
    K = parse_field([250001, -1, 1])
    fb = build_factor_base(K, 150)
    for mode in ("plain", "multi"):
        matrix, stats = collect(K, fb, CollectionConfig(
            bound_B=150, rng_seed=3, mode=mode))
        assert stats["trials"] >= fb.size
    assert built == []
    GramLLL([[2, 1], [1, 2]])
    assert built == [1]


def test_rank2_rank_deficient_basis():
    for cols in ([[1, 2], [2, 4]], [[3, -1], [0, 0]], [[0, 0], [0, 0]]):
        with pytest.raises(RankDeficient, match="not positive definite"):
            bkz(LatticeBasis(cols), 2)


_RANK_DEFICIENT_UNDER_O = """
from classgroup import lattice
from classgroup.errors import RankDeficient

assert not __debug__, "run with python -O"
# parallel columns: the Gram is singular, so bkz must refuse it
try:
    lattice.bkz(lattice.LatticeBasis([[1, 2], [2, 4]]), 2)
except RankDeficient as e:
    print("rejected:", e)
"""


def test_rank2_rank_deficiency_survives_python_O():
    assert run_under_O(_RANK_DEFICIENT_UNDER_O) == [
        "rejected: Gram matrix is not positive definite"]


def _near_parallel_basis(scale_bits=128):
    """Three columns at scale 2^scale_bits that differ only below bit 96:
    the rounded copy sees one column three times, so its Gram is singular,
    while the exact columns are independent."""
    base = [3 << (scale_bits - 1), 5 << (scale_bits - 2), 7 << scale_bits]
    delta = [[1 << 90, 0, 0], [0, 3 << 80, 0], [0, 0, 5 << 70]]
    return LatticeBasis([[x + d for x, d in zip(base, col)] for col in delta],
                        scale_bits)


def test_rounded_copy_rank_deficient_retries_at_full_scale():
    basis = _near_parallel_basis()
    shift = basis.scale_bits - lattice.ROUND_BITS
    rounded = [[(c + (1 << (shift - 1))) >> shift for c in col]
               for col in basis.columns]
    assert rounded[0] == rounded[1] == rounded[2]
    assert bareiss_det(basis.gram()) > 0
    for beta in (2, 3):
        out, report = bkz(basis, beta)
        assert report.full_scale_retry
        # the full-scale pass is the exact reduction of the same columns
        want, exact = bkz(LatticeBasis(basis.columns), beta)
        assert not exact.full_scale_retry
        assert (out.columns, out.transform) == (want.columns, want.transform)
        assert (report.tours, report.enumeration_nodes,
                report.fallback_full_enum, report.first_vector_norm,
                report.hermite_bound) == (
            exact.tours, exact.enumeration_nodes, exact.fallback_full_enum,
            exact.first_vector_norm, exact.hermite_bound)


def test_rounded_copy_refused_by_the_exact_bound_retries(monkeypatch):
    # bkz checks the bound four times when it retries: the rounded copy's
    # tours on its own Gram, the copy's exact columns, then the full-scale
    # tours and their result.  Refusing the second check alone forces the
    # full-scale pass, which is the exact reduction of the same columns
    cols = _seeded_bases(43, 1)[0]
    scaled = LatticeBasis([[x << 96 for x in col] for col in cols],
                          scale_bits=128)
    want, _ = bkz(LatticeBasis(scaled.columns), 3)
    calls = []
    inner = lattice.theorem_bound_holds

    def second_fails(*args):
        calls.append(args)
        return len(calls) != 2 and inner(*args)

    monkeypatch.setattr(lattice, "theorem_bound_holds", second_fails)
    out, report = bkz(scaled, 3)
    assert len(calls) == 4 and report.full_scale_retry
    assert (out.columns, out.transform) == (want.columns, want.transform)
    del calls[:]
    monkeypatch.setattr(lattice, "theorem_bound_holds",
                        lambda *args: calls.append(args) or inner(*args))
    out, report = bkz(scaled, 3)
    assert len(calls) == 2 and not report.full_scale_retry


def _ideal_lattices(coeffs, B, count, seed):
    """sigma(a) of random power products a of the factor base at bound B."""
    from classgroup.field import parse_field
    from classgroup.ideals import (build_factor_base,
                                   ideal_from_power_product, ideal_lattice)
    from classgroup.relations import CollectionConfig, sample_ideal
    K = parse_field(coeffs)
    fb = build_factor_base(K, B)
    cfg = CollectionConfig(bound_B=B, k=3, A=3)
    rng = random.Random(seed)
    return [ideal_lattice(ideal_from_power_product(
        fb, *sample_ideal(fb, cfg, rng), K), K) for _ in range(count)]


def test_rounded_reduction_of_cyclotomic_ideal_lattices():
    # zeta7 and zeta11: the rounded copy's transform is unimodular, its
    # exact columns meet the quality bound, and no lattice retries
    checked = 0
    for coeffs, B in (([1] * 7, 60), ([1] * 11, 200)):
        for L in _ideal_lattices(coeffs, B, 12, 7):
            assert L.scale_bits > lattice.ROUND_BITS
            det_gram = bareiss_det(L.gram())
            for beta in (2, 3, 5):
                out, report = bkz(L, beta)
                assert not report.full_scale_retry
                assert abs(bareiss_det(out.transform)) == 1
                assert out.columns == _apply_transform(L.columns,
                                                       out.transform)
                v2 = min(sum(x * x for x in col) for col in out.columns)
                assert theorem_bound_holds(v2, beta, L.k, det_gram)
                checked += 1
    assert checked == 72


def test_collect_counts_full_scale_retries(monkeypatch):
    # a copy rounded below every entry is all zeros, so each reduction
    # retries at full scale; collect counts every retry the reports record.
    # On zeta7 the full-scale pass stores the rows the rounded one does; a
    # generator may differ by a unit, which the rows do not see
    from classgroup import relations
    from classgroup.field import parse_field
    from classgroup.ideals import build_factor_base
    K = parse_field([1] * 7)
    fb = build_factor_base(K, 60)

    def run():
        M, stats = relations.collect(K, fb, relations.CollectionConfig(
            bound_B=60, rng_seed=3))
        return [(r.exponents, r.provenance) for r in M.rows], stats

    rows, stats = run()
    assert (stats["beta"], stats["full_scale_retries"]) == (2, 0)
    reports = []
    inner = relations.bkz
    monkeypatch.setattr(relations, "bkz", lambda basis, beta: (
        lambda out: reports.append(out[1]) or out)(inner(basis, beta)))
    monkeypatch.setattr(lattice, "ROUND_BITS", -64)
    again, stats = run()
    assert again == rows
    assert len(reports) == stats["trials"] > 0
    assert all(r.full_scale_retry for r in reports)
    assert stats["full_scale_retries"] == stats["trials"]


_BAD_FIRST_COLUMN_UNDER_O = """
from classgroup import lattice
from classgroup.errors import RankDeficient, VerificationFailed

assert not __debug__, "run with python -O"
for call in (lambda: lattice._unimodular_first_col([2, 4, -6]),
             lambda: lattice._unimodular_first_col([0, 0, 0]),
             lambda: lattice.shortest_of_gram([[0]])):
    try:
        call()
    except (RankDeficient, VerificationFailed) as e:
        print(type(e).__name__ + ":", e)
# bkz's full-enumeration fallback inserts what shortest_of_gram returns: a
# non-primitive vector there must stop the reduction
lattice.theorem_bound_holds = lambda *args: False
lattice.shortest_of_gram = lambda G: ((2,) + (0,) * (len(G) - 1), 0, 1)
try:
    lattice.bkz(lattice.LatticeBasis([[3, 1, 0], [1, 3, 1], [0, 1, 3]]), 2)
except VerificationFailed as e:
    print("rejected:", e)
"""


def test_first_column_checks_survive_python_O():
    assert run_under_O(_BAD_FIRST_COLUMN_UNDER_O) == [
        "VerificationFailed: input vector was not primitive",
        "VerificationFailed: zero vector cannot start a basis",
        "RankDeficient: Gram matrix is not positive definite",
        "rejected: input vector was not primitive"]


def _eager_report_fields(cols, basis, beta):
    """(first_vector_norm, hermite_bound) by the formulas bkz's report once
    evaluated as it was built: the exact shortest norm^2 of the output
    columns and the Gram determinant of the input basis."""
    k = basis.k
    v2 = min(sum(x * x for x in col) for col in cols)
    det = bareiss_det(_gram_of(basis.columns))
    return (math.exp(0.5 * log_big(v2)),
            math.exp((k - 1) / (2 * (beta - 1)) * math.log(beta)
                     + log_big(det) / (2 * k)))


def test_report_fields_read_off_the_exact_values(monkeypatch):
    # first_vector_norm and hermite_bound, derived when read, equal the
    # eager formulas bit for bit: rank 2 (the hexagonal tie, entries past
    # 2^256), ranks 3-6 with the rounded copy accepted and with a forced
    # full-scale retry, and cheon_reduce
    hexagonal = [[3368623568352063161630472814686750796980, 0],
                 [1684311784176031580815236407343375398490,
                  2917313585979872058846961106930432851755]]
    big = 2 ** 256 + 1
    rank2 = [hexagonal, [[1000, 0], [500, 865]],
             [[big * x for x in col] for col in hexagonal],
             [[big, 3], [7 * big, -big]]]
    rng = random.Random(61)
    rank2 += [[[rng.randint(-2 ** 300, 2 ** 300) for _ in range(2)]
               for _ in range(2)] for _ in range(20)]
    checked = 0
    for cols in rank2:
        basis = LatticeBasis(cols)
        out, report = bkz(basis, 2)
        assert (report.first_vector_norm, report.hermite_bound) == \
            _eager_report_fields(out.columns, basis, 2)
        checked += 1
    wide = [cols for cols in _seeded_bases(43, 60) if 3 <= len(cols) <= 6]
    assert {len(cols) for cols in wide} == {3, 4, 5, 6}
    for forced in (False, True):
        if forced:
            # a copy rounded below every entry is all zeros
            monkeypatch.setattr(lattice, "ROUND_BITS", -512)
        for cols in wide:
            for basis in (LatticeBasis(cols), LatticeBasis(
                    [[x << 96 for x in col] for col in cols], 128)):
                for beta in range(2, basis.k + 1):
                    out, report = bkz(basis, beta)
                    assert report.full_scale_retry == forced
                    assert (report.first_vector_norm,
                            report.hermite_bound) == _eager_report_fields(
                                out.columns, basis, beta)
                    checked += 1
    monkeypatch.undo()
    for n, e, beta in ((16, 32, 4), (12, 16, 3), (8, 6, 2)):
        diag = [1] * n
        diag[n // 3] = 4 ** e
        cols = [[diag[i] if i == j else 0 for i in range(n)]
                for j in range(n)]
        B = LatticeBasis(_apply_transform(cols, random_unimodular(n, rng)))
        v, report = cheon_reduce(B, beta)
        m = report.m_sub
        H = hnf_lattice(B)
        sub = LatticeBasis([col[:m] for col in H.columns[:m]])
        assert (report.first_vector_norm, report.hermite_bound) == \
            _eager_report_fields([v], sub, beta)
        checked += 1
    assert checked > 150


def test_hnf_lattice_needs_a_square_nonsingular_basis():
    # |det B| Z^n is the triangle the columns fold into: a basis that is not
    # square has no such det, and a singular one no full-rank Hermite form
    with pytest.raises(ValueError, match="square basis"):
        hnf_lattice(LatticeBasis([[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(RankDeficient, match="singular"):
        hnf_lattice(LatticeBasis([[1, 2], [2, 4]]))
    # the sign of det B does not matter
    assert hnf_lattice(LatticeBasis([[1, 3], [2, 0]])).columns == \
        [[2, 0], [1, 3]]

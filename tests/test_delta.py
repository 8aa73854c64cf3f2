from __future__ import annotations

import hashlib
import itertools
import re
import struct
import subprocess
import sys
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nldistill.delta
from nldistill import build_tables, kernels, load_tables, wedge
from nldistill.delta import (
    DeltaTables,
    MemoryBudgetError,
    TableChecksumError,
    TableFormatError,
    TableHeaderError,
    TableVersionError,
    fits_int64,
)

import scalar_kernels

F = Fraction


def naive_delta(p: Fraction):
    """Direct memoized evaluation of the recursion: the independent oracle."""

    @lru_cache(maxsize=None)
    def d(sign: str, m: int, k: int, l: int) -> Fraction:
        if m == 0:
            return F(k * l)
        h = 2 ** (m - 1)
        opt = max if sign == "+" else min
        return opt(
            p * (d(sign, m - 1, i, j) + d(sign, m - 1, k - i, l - j))
            + (F(1, 2) - p) * (d(sign, m - 1, i, l - j) + d(sign, m - 1, k - i, j))
            for i in range(k - min(k, h), min(k, h) + 1)
            for j in range(l - min(l, h), min(l, h) + 1)
        )

    return d


def one_copy_extrema(system) -> tuple[dict, dict]:
    """Brute-force f^T P(.|u,v) g over singleton/arbitrary preimage classes."""
    hi: dict = {}
    lo: dict = {}
    for u, v in itertools.product((0, 1), (0, 1)):
        for fm in range(4):
            for gm in range(4):
                k, l = bin(fm).count("1"), bin(gm).count("1")
                val = sum(
                    system.prob(a, b, u, v)
                    for a in (0, 1) if (fm >> a) & 1
                    for b in (0, 1) if (gm >> b) & 1
                )
                hi[k, l] = max(hi.get((k, l), F(0)), val)
                lo[k, l] = min(lo.get((k, l), F(1)), val)
    return hi, lo


def levels(p, n):
    """The tables of each level 0..n at p, each built on its own."""
    return [build_tables(p, m) for m in range(n + 1)]


def test_base_level():
    t = build_tables(F(2, 5), 0)
    assert t.n == 0 and t.denominator == 1
    for k, l in itertools.product((0, 1), (0, 1)):
        assert t.delta("+", k, l) == k * l
        assert t.delta("-", k, l) == k * l


def test_level_one_oracle_values():
    t = build_tables(F(2, 5), 1)
    assert t.delta("+", 1, 1) == F(2, 5)
    assert t.delta("-", 1, 1) == F(1, 10)
    assert t.delta("+", 1, 2) == F(1, 2)
    # and the recursion level 1 equals the one-copy wiring optimum for an
    # isotropic source with this p
    hi, lo = one_copy_extrema(wedge(F(1, 5), 0))
    for k in range(3):
        for l in range(3):
            assert t.delta("+", k, l) == hi[k, l]
            assert t.delta("-", k, l) == lo[k, l]


@pytest.mark.parametrize("p", [F(0), F(1, 7), F(3, 8), F(2, 5), F(1, 2)])
def test_top_corner_is_one(p):
    for m, t in enumerate(levels(p, 3)):
        assert t.delta("+", 2 ** m, 2 ** m) == 1
        assert t.delta("-", 2 ** m, 2 ** m) == 1


def assert_matches_naive(t):
    ref = naive_delta(t.p)
    for sign in "+-":
        for k in range(2 ** t.n + 1):
            for l in range(2 ** t.n + 1):
                assert t.delta(sign, k, l) == ref(sign, t.n, k, l), (sign, t.n, k, l)


@pytest.mark.parametrize("p", [F(0), F(1, 2), F(2, 5), F(1, 7), F(3, 8),
                               F(1929, 15625), F(1234567, 8000000)])
def test_matches_naive_recursion(p):
    for t in levels(p, 3):
        assert_matches_naive(t)


def wedge_cells(grid, size):
    """The wedge cells k <= min(l, size/2) of a grid, others set to 0."""
    k, l = np.indices(grid.shape)
    return np.where((k <= l) & (k <= size // 2), grid, 0)


def test_backends_agree():
    # The scalar reference body and the public fill kernel run on the same
    # previous level; op counts and every wedge cell must match once the
    # kernel's capped wedge k <= l <= size - k is completed.  The built
    # tables derive the minus grid from the plus grid, so its wedge is
    # checked against the scalar min fill of the minus level below.  At
    # p = 0 ca is 0 and at p = 1/2 cb is 0, where ties abound.
    for p in (F(2, 5), F(0), F(1, 2)):
        t = levels(p, 6)
        ca, cb = 2 * p.numerator, p.denominator - 2 * p.numerator
        for m in range(1, 7):
            size = 2 ** m
            scalar = np.zeros((size + 1, size + 1), dtype=np.int64)
            ops_s = scalar_kernels.fill_wedge(
                t[m - 1].plus, scalar, size, np.int64(ca), np.int64(cb), True
            )
            vector, _ = kernels.fill_wedge(t[m - 1].plus, ca, cb)
            nldistill.delta._complete_grid(vector, p.denominator ** m)
            assert np.array_equal(scalar, wedge_cells(vector, size)), (p, m)
            assert ops_s == kernels._wedge_pairs(size), (p, m)
            assert 2 * ops_s == t[6].ops_per_level[m], (p, m)
            scalar = np.zeros((size + 1, size + 1), dtype=np.int64)
            scalar_kernels.fill_wedge(
                t[m - 1].minus, scalar, size, np.int64(ca), np.int64(cb), False
            )
            assert np.array_equal(wedge_cells(t[m].minus, size), scalar), (p, m)


def test_filtered_fill_matches_int64_kernel():
    # The same levels as object arrays take the float filter: the grids must
    # equal the int64 kernel's, which below PRUNE_MIN_SIZE counts no path.
    # At p = 1/2 and p = 0 ties abound; their level-7 blocks keep more than
    # FILTER_CAP pairs and run the exact sweep, while p = 2/5 re-checks its
    # survivors only.
    for p in (F(2, 5), F(1, 2), F(0)):
        ca, cb = 2 * p.numerator, p.denominator - 2 * p.numerator
        for m, t in enumerate(levels(p, 6), start=1):
            prev = t.plus
            want, want_counts = kernels.fill_wedge(prev, ca, cb)
            got, counts = kernels.fill_wedge(prev.astype(object), ca, cb)
            assert got.dtype == object
            assert got.tolist() == want.tolist(), (p, m)
            assert not want_counts
            assert counts["filter_survivors"] > 0 or counts["filter_fallbacks"] > 0
            if m == 7:
                assert (counts["filter_fallbacks"] > 0) == (p != F(2, 5)), (p, counts)


def test_filter_margin_keeps_near_ties():
    # At p = 1/3 + 2^-101 window pairs that tie at p = 1/3 differ by about
    # 2^-101 and round in either order; a filter keeping only the float
    # optimum (margin 0) gets the plus cell (5, 6) at level 5 wrong, and the
    # minus grid, derived from the plus grid, follows it.
    p = F(1, 3) + F(1, 2 ** 101)
    t = build_tables(p, 5)
    assert t.plus.dtype == object
    ref = naive_delta(p)
    for sign in "+-":
        for k in range(8):
            for l in range(33):
                assert t.delta(sign, k, l) == ref(sign, 5, k, l), (sign, k, l)


@pytest.mark.parametrize("block_rows", [1, 5, kernels.FILL_BLOCK_ROWS])
def test_fill_blocks_match_the_row_list_generator(monkeypatch, block_rows):
    # the block cuts decide the PRUNE_CAP fallbacks and prune_kept, so the
    # vectorised generator must cut where the list-of-rows one did; from
    # size 1024 on (or a smaller block) some k alone holds more than a
    # block's rows
    monkeypatch.setattr(kernels, "FILL_BLOCK_ROWS", block_rows)
    for size in [2 ** m for m in range(1, 12)] + [3, 6, 10, 100, 513, 1000, 1030]:
        got = list(kernels._fill_blocks(size))
        want = list(scalar_kernels.fill_blocks(size, block_rows))
        assert len(got) == len(want), size
        for (k_lo, ks, iv), (w_lo, w_ks, w_iv) in zip(got, want):
            assert k_lo == w_lo and ks.dtype == w_ks.dtype == iv.dtype, size
            assert ks.tolist() == w_ks.tolist() and iv.tolist() == w_iv.tolist(), size


def write_capped(out, best, k_lo, ks, size):
    """Copy a block's capped wedge cells k <= l <= size - k into ``out``."""
    for r, k in enumerate(range(k_lo, int(ks[-1]) + 1)):
        out[k, k:size - k + 1] = best[r, k - k_lo:size - k - k_lo + 1]


def sweep_wedge(q, size, ca, cb):
    """The (max,+) fill of q through the exact block sweep: the capped wedge
    cells of a grid whose other cells are 0.  Signed and synthetic q break
    the complement identity, so no other cell follows from them."""
    out = np.zeros((size + 1, size + 1), dtype=np.int64)
    for k_lo, ks, iv in kernels._fill_blocks(size):
        _, _, acc = kernels._block_sweep(q, ks, iv, ca, cb, k_lo, -(1 << 62))
        best = np.maximum.reduceat(acc, np.flatnonzero(iv == 0), axis=0)
        write_capped(out, best, k_lo, ks, size)
    return out


def pruned_wedge(monkeypatch, q, size, ca, cb):
    """The same grid through the pruned block body, never falling back."""
    monkeypatch.setattr(kernels, "PRUNE_CAP", 1.0)
    pruner = kernels._Pruner(q, ca, cb)
    out = np.zeros((size + 1, size + 1), dtype=np.int64)
    for k_lo, ks, iv in kernels._fill_blocks(size):
        best, evaluated = pruner.block(ks, iv, k_lo)
        assert 0 < evaluated <= sum(size + 1 - 2 * ks)
        write_capped(out, best, k_lo, ks, size)
    return out


@pytest.mark.parametrize("p", [F(2, 5), F(13, 32), F(31, 80), F(39, 80),
                               F(0), F(1, 2)])
def test_pruned_block_matches_sweep(monkeypatch, p):
    # The pruned body is called directly, so levels below PRUNE_MIN_SIZE and
    # the tie-heavy p = 0 and 1/2 (whose blocks fall back in fill_wedge)
    # exercise it too.  The cases q = -P exercise signed rows.
    ca, cb = 2 * p.numerator, p.denominator - 2 * p.numerator
    for m, t in enumerate(levels(p, 7)[2:], start=3):
        for sign, prev in ((1, t.plus), (-1, t.minus)):
            q = sign * prev
            assert np.array_equal(pruned_wedge(monkeypatch, q, 2 ** m, ca, cb),
                                  sweep_wedge(q, 2 ** m, ca, cb)), (p, m, sign)


def test_pruned_block_keeps_near_ties(monkeypatch):
    # Rows of one concave curve just below 2^58, where floats step by 32,
    # plus row offsets below 2^12 and noise below 64: the rows' float bounds
    # fall in either order, and a pruner without its margin drops rows that
    # hold some cell's optimum.
    h = 8
    rng = np.random.default_rng(14)
    j = np.arange(h + 1)
    curve = -(j - rng.integers(0, h + 1)) ** 2 * int(rng.integers(1, 64))
    q = ((1 << 58) - (1 << 30) + curve[None, :]
         + rng.integers(0, 64, (h + 1, h + 1)) + rng.integers(0, 1 << 12, (h + 1, 1)))
    assert q.dtype == np.int64 and (1 << 57) < q.min() and q.max() < (1 << 58)
    assert np.array_equal(pruned_wedge(monkeypatch, q, 2 * h, 1, 1),
                          sweep_wedge(q, 2 * h, 1, 1))


def test_majorant_margin_keeps_vertices_within_rounding():
    # Rows (a, deep, j, b) near 2^58 whose point j lies above the chord of a
    # and b in exact integers, by 1/3 to 63 units, but below it as read in
    # floats: the cross product _majorant_slopes takes for j is negative, and
    # only its margin keeps j.  The rows are kept where the two float slopes
    # around j differ, so that the survivors show in the returned slopes.
    rng = np.random.default_rng(13)
    count = 1 << 14
    qa = -rng.integers(1 << 56, 1 << 57, count)
    qb = rng.integers(1 << 57, 1 << 58, count)
    qj = (qa + 2 * qb) // 3 + rng.integers(1, 64, count)
    q = np.stack([qa, qa - (1 << 56), qj, qb], axis=1)
    x = q.astype(np.float64)
    near = (((x[:, 2] - x[:, 0]) * 3 - (x[:, 3] - x[:, 0]) * 2 < 0)
            & ((x[:, 2] - x[:, 0]) / 2 != x[:, 3] - x[:, 2]))
    q = q[near]
    assert len(q) > 50
    for row, d in zip(q.tolist(), kernels._majorant_slopes(q).tolist()):
        assert 3 * (row[2] - row[0]) > 2 * (row[3] - row[0])
        # the line through the survivors, in exact integers, lies on or
        # above every point of the row
        kept = [0] + [t for t in range(1, 3) if d[t - 1] != d[t]] + [3]
        for s, e in zip(kept, kept[1:]):
            for t in range(s, e + 1):
                assert (row[t] - row[s]) * (e - s) <= (row[e] - row[s]) * (t - s), row


def test_pruned_levels_report_counts():
    # level 8 is pruned: the regular p keeps a small share of its (row, l)
    # pairs; at p = 0 the first block keeps nearly all, so every block of the
    # level sweeps
    size = kernels.PRUNE_MIN_SIZE
    for p in (F(31, 80), F(0)):
        t = build_tables(p, 7)
        ca, cb = 2 * p.numerator, p.denominator - 2 * p.numerator
        blocks = len(list(kernels._fill_blocks(size)))
        _, counts = kernels.fill_wedge(t.plus, ca, cb)
        if p:
            assert counts["prune_fallbacks"] == 0
            assert 0 < counts["prune_kept"] < kernels.PRUNE_CAP * kernels._wedge_pairs(size)
        else:
            assert counts == {"prune_kept": 0, "prune_fallbacks": blocks}
    events = []
    build_tables(F(31, 80), 8, progress=events.append)
    filled = [e for e in events if e["event"] == "level_filled"]
    assert all("prune_kept" not in e for e in filled[:7])
    assert filled[7]["prune_kept"] > 0 and filled[7]["prune_fallbacks"] == 0


def test_pruned_fill_falls_back_mid_level(monkeypatch):
    # every block of the level 8 fill at 31/80 prunes at the shipped cap; a
    # cap lowered to 0 after the fifth block makes the sixth return None, and
    # it and the rest of the level sweep without asking the pruner again
    p = F(31, 80)
    t = build_tables(p, 7)
    ca, cb = 2 * p.numerator, p.denominator - 2 * p.numerator
    real = kernels._Pruner.block
    evaluated = []

    def block(self, ks, iv, k_lo):
        if len(evaluated) == 5:
            monkeypatch.setattr(kernels, "PRUNE_CAP", 0.0)
        found = real(self, ks, iv, k_lo)
        evaluated.append(None if found is None else found[1])
        return found

    monkeypatch.setattr(kernels._Pruner, "block", block)
    grid, counts = kernels.fill_wedge(t.plus, ca, cb)
    blocks = len(list(kernels._fill_blocks(256)))
    assert len(evaluated) == 6 and evaluated[5] is None and blocks > 6
    assert counts == {"prune_kept": sum(evaluated[:5]), "prune_fallbacks": blocks - 5}
    assert np.array_equal(grid, sweep_wedge(t.plus, 256, ca, cb))


_PRUNED_8 = [()] * 7 + [(("prune_kept", 33391), ("prune_fallbacks", 0))]
_SWEPT_8 = [()] * 7 + [(("prune_kept", 0), ("prune_fallbacks", 18))]


@pytest.mark.parametrize("p, n, counters", [
    (F(2, 5), 4, [()] * 4),  # int64 below PRUNE_MIN_SIZE: no counters
    (F(31, 80), 8, _PRUNED_8),
    (F(0), 8, _SWEPT_8),  # tie-heavy: every block of level 8 sweeps
    (F(1, 2), 8, _SWEPT_8),
    (F(1, 10 ** 12), 6, [(("filter_survivors", s), ("filter_fallbacks", f))
                         for s, f in ((5, 0), (15, 0), (64, 0), (324, 0),
                                      (2228, 0), (9, 1))]),
], ids=["int64", "pruned", "p0", "p1/2", "bigint"])
def test_level_filled_counters_are_pinned(p, n, counters):
    # each level_filled event ends with the counters fill_wedge returns for
    # its path, in this order and with these values
    events = []
    build_tables(p, n, progress=events.append)
    filled = [e for e in events if e["event"] == "level_filled"]
    assert [list(e)[:5] for e in filled] == [["event", "m", "ops", "seconds", "dtype"]] * n
    assert [tuple(e.items())[5:] for e in filled] == counters


@pytest.mark.longrun
def test_pruned_level_9_matches_sweep():
    p = F(13, 32)
    below, t = build_tables(p, 8), build_tables(p, 9)
    ca, cb = 2 * p.numerator, p.denominator - 2 * p.numerator
    grid, counts = kernels.fill_wedge(below.plus, ca, cb)
    assert counts["prune_fallbacks"] == 0
    nldistill.delta._complete_grid(grid, p.denominator ** 9)
    assert np.array_equal(wedge_cells(grid, 512),
                          scalar_kernels.wedge_sweep(below.plus, 512, ca, cb))
    # the derived minus grid against the min fill of the minus level below
    assert np.array_equal(wedge_cells(t.minus, 512),
                          -scalar_kernels.wedge_sweep(-below.minus, 512, ca, cb))


#: the p of the capped-fill tests: two prune at level 8, 1/3 has an odd
#: den(p), and ca = 0 at p = 0 and cb = 0 at p = 1/2, where ties abound
CAPPED_PS = [F(2, 5), F(31, 80), F(1, 3), F(0), F(1, 2)]


def capped_fill_completed(prev, m, p, dtype):
    """The level-m fill of ``prev`` as ``dtype``, checked to write the capped
    wedge k <= l <= 2^m - k only, then completed by ``_complete_grid``."""
    size = 2 ** m
    grid, _ = kernels.fill_wedge(prev.astype(dtype), 2 * p.numerator,
                                 p.denominator - 2 * p.numerator)
    k, l = np.indices(grid.shape)
    assert not grid[(k > l) | (k + l > size)].any(), (p, m)
    nldistill.delta._complete_grid(grid, p.denominator ** m)
    return grid


def assert_completes_the_sweep(prev, m, p, dtype):
    # the wedge k <= min(l, h) cell for cell against the full sweep, then the
    # symmetry and the complement identity on the whole grid: these fix every
    # other cell from the wedge
    size, ca, cb = 2 ** m, 2 * p.numerator, p.denominator - 2 * p.numerator
    grid = capped_fill_completed(prev, m, p, dtype)
    want = scalar_kernels.wedge_sweep(prev, size, ca, cb)
    assert wedge_cells(grid, size).tolist() == want.tolist(), (p, m, dtype)
    k, l = np.indices(grid.shape)
    assert (grid == grid.T).all(), (p, m, dtype)
    assert (grid[::-1, ::-1] == grid + (size - k - l) * p.denominator ** m).all(), \
        (p, m, dtype)


@pytest.mark.parametrize("dtype", [np.int64, object])
@pytest.mark.parametrize("p", CAPPED_PS, ids=str)
def test_capped_fill_completes_to_the_full_sweep(p, dtype):
    for m, t in enumerate(levels(p, 7), start=1):
        assert_completes_the_sweep(t.plus, m, p, dtype)


@pytest.mark.longrun
@pytest.mark.parametrize("dtype", [np.int64, object])
@pytest.mark.parametrize("p", [F(2, 5), F(13, 32), F(1, 3), F(0), F(1, 2)], ids=str)
def test_capped_fill_completes_to_the_full_sweep_level_9(p, dtype):
    # 31/80 leaves int64 at level 9, (2*80)^9 > 2^59, and the reference
    # sweep runs in int64; 13/32 prunes at level 9 in its place
    assert_completes_the_sweep(build_tables(p, 8).plus, 9, p, dtype)


@pytest.mark.parametrize("p", CAPPED_PS, ids=str)
def test_capped_fill_completes_to_the_naive_recursion(p):
    ref = naive_delta(p)
    for m, t in enumerate(levels(p, 3), start=1):
        scale = (2 * p.denominator) ** m
        want = [[ref("+", m, k, l) * scale for l in range(2 ** m + 1)]
                for k in range(2 ** m + 1)]
        for dtype in (np.int64, object):
            grid = capped_fill_completed(t.plus, m, p, dtype)
            assert grid.tolist() == want, (p, m, dtype)


def test_fill_op_count_closed_form():
    # the closed form counts the window pairs the scalar reference covers
    for m in range(1, 8):
        size = 2 ** m
        prev = np.zeros((size // 2 + 1, size // 2 + 1), dtype=np.int64)
        out = np.zeros((size + 1, size + 1), dtype=np.int64)
        ops = scalar_kernels.fill_wedge(prev, out, size, np.int64(1),
                                        np.int64(1), True)
        assert kernels._wedge_pairs(size) == ops, m


#: the level fill's coverage check, broken once: ``kernels._window_chunks``
#: loses its second chunk, so the (row, l) pairs of one group of window
#: widths, every row of their l, go unevaluated.  One level-5 block at
#: 301/800 in Python ints; prints how the fill ends.
BROKEN_COVERAGE = """
from fractions import Fraction
from nldistill import build_tables, kernels
chunks = kernels._window_chunks
def skipping(*args):
    for c, chunk in enumerate(chunks(*args)):
        if c != 1:
            yield chunk
kernels._window_chunks = skipping
prev = build_tables(Fraction(301, 800), 4).plus.astype(object)
try:
    kernels.fill_wedge(prev, 602, 198)
except AssertionError as exc:
    print("raised", exc)
else:
    print("filled")
"""


def test_filtered_fill_checks_its_cell_coverage(monkeypatch, capsys):
    # recorded, so that teardown restores the chunks the code replaces
    monkeypatch.setattr(kernels, "_window_chunks", kernels._window_chunks)
    exec(BROKEN_COVERAGE, {})
    assert re.fullmatch(r"raised the float filter kept \d+ of \d+ wedge cells\n",
                        capsys.readouterr().out)


def test_filtered_fill_coverage_check_survives_optimize_flag():
    proc = subprocess.run([sys.executable, "-O", "-c", "print('debug', __debug__)"
                           + BROKEN_COVERAGE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    debug, raised = proc.stdout.splitlines()
    assert debug == "debug False"
    assert re.fullmatch(r"raised the float filter kept \d+ of \d+ wedge cells", raised)


@st.composite
def bigint_p(draw):
    """p in [0, 1/2] whose denominator puts level 3 on the object path."""
    den = draw(st.integers(min_value=2 ** 20, max_value=2 ** 70))
    p = F(draw(st.integers(min_value=0, max_value=den // 2)), den)
    assume(not fits_int64(p, 3))
    return p


@settings(max_examples=8, deadline=None)
@given(bigint_p())
def test_bigint_fill_matches_naive_recursion(p):
    for t in levels(p, 3):
        assert_matches_naive(t)
    assert t.plus.dtype == object


def test_int64_guard_picks_object_path():
    p = F(1234567, 8000000)
    assert not fits_int64(p, 3)
    t = build_tables(p, 3)
    assert t.plus.dtype == object
    assert fits_int64(F(2, 5), 9)


@pytest.mark.parametrize("p", [F(2, 5), F(3, 8), F(1, 7)])
def test_symmetry_monotonicity_range(p):
    for t in levels(p, 4):
        size = 2 ** t.n
        for sign in "+-":
            for k in range(size + 1):
                assert t.delta(sign, k, 0) == 0
                assert t.delta(sign, 0, k) == 0
                for l in range(size + 1):
                    v = t.delta(sign, k, l)
                    assert v == t.delta(sign, l, k)
                    assert 0 <= v <= 1
        for k in range(size + 1):
            for l in range(size + 1):
                assert t.delta("-", k, l) <= t.delta("+", k, l)


def test_plus_monotone_in_preimage_size():
    for t in levels(F(2, 5), 4):
        size = 2 ** t.n
        for k in range(size):
            for l in range(size + 1):
                assert t.delta("+", k, l) <= t.delta("+", k + 1, l)


def test_p_flip_invariance():
    # swapping p and 1/2 - p relabels the window only
    for a, b in zip(levels(F(2, 5), 3), levels(F(1, 10), 3)):
        for sign in "+-":
            for k in range(2 ** a.n + 1):
                for l in range(2 ** a.n + 1):
                    assert a.delta(sign, k, l) == b.delta(sign, k, l)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_tables(F(3, 5), 2)
    with pytest.raises(ValueError):
        build_tables(F(-1, 5), 2)
    with pytest.raises(ValueError):
        build_tables(F(1, 4), -1)


def test_memory_budget_admits_the_documented_levels():
    # the build holds levels n - 1 and n, and bound and grid add the level-n
    # minus grid: int64 fits up to n = 13 and big ints up to n = 11
    budget = nldistill.delta.MEMORY_BUDGET
    for int64, top in ((True, 13), (False, 11)):
        assert nldistill.delta._estimate_bytes(top, int64) <= budget
        assert nldistill.delta._estimate_bytes(top + 1, int64) > budget
    assert nldistill.delta._estimate_bytes(8, True) == (2 * 257 ** 2 + 129 ** 2) * 8


def test_memory_budget_reports_requirement(monkeypatch):
    monkeypatch.setattr(nldistill.delta, "MEMORY_BUDGET", 1000)
    with pytest.raises(MemoryBudgetError) as exc:
        build_tables(F(2, 5), 6)
    assert exc.value.required > 1000 and exc.value.budget == 1000
    assert f"{exc.value.required} bytes" in str(exc.value)
    assert "1000 bytes" in str(exc.value)


def test_accessor_range_errors():
    t = build_tables(F(2, 5), 2)
    with pytest.raises(ValueError):
        t.delta("x", 0, 0)
    with pytest.raises(IndexError):
        t.delta("+", 5, 0)
    with pytest.raises(IndexError):
        t.delta("+", 0, -1)
    assert t.delta("+", 4, 4) == 1


def test_tables_hold_p_and_the_plus_grids_only():
    # n, the denominator and ops_per_level follow from the one grid; no
    # constructor takes them
    t = build_tables(F(2, 5), 3)
    assert isinstance(t.plus, np.ndarray) and t.plus.shape == (9, 9)
    assert not t.plus.flags.writeable and not t.minus.flags.writeable
    again = DeltaTables(p=t.p, plus=t.plus)
    assert again == t and again.n == 3 and again.denominator == 10 ** 3
    assert again.ops_per_level == (0, 20, 86, 580)
    assert again != DeltaTables(p=t.p, plus=t.plus.astype(object))
    assert again != build_tables(F(2, 5), 2)
    for extra in ({"n": 3}, {"ops_per_level": t.ops_per_level}):
        with pytest.raises(TypeError):
            DeltaTables(p=t.p, plus=t.plus, **extra)


def test_save_load_round_trip(tmp_path):
    t = build_tables(F(2, 5), 3)
    path = tmp_path / "t.nldt"
    t.save(path)
    again = load_tables(path)
    assert again == t
    assert again.ops_per_level == t.ops_per_level
    for a, b in ((again.plus, t.plus), (again.minus, t.minus)):
        assert a.dtype == b.dtype == np.int64
    assert again.delta("+", 3, 5) == t.delta("+", 3, 5)


def test_saved_bytes_are_pinned(tmp_path):
    # any change to the layout must come with a new _FORMAT_VERSION
    path = tmp_path / "t.nldt"
    build_tables(F(1, 2), 1).save(path)
    assert path.read_bytes() == (
        b"NLDELTA 6\n"
        b"n=1 p=1/2\n"
        b"sha256=32a7ee3f0f32fe5595fe40d84776ff2aa2e6c114e85b2bc113379cf7c74afe1b\n"
        + struct.pack("<9Q", 0, 0, 0, 0, 2, 2, 0, 2, 4)
    )


def test_saved_level_6_digest_is_pinned(tmp_path):
    # a fill change that alters the grid changes these digests; the payload
    # is the level-6 tail of the format-5 payload, whose lower levels it drops
    path = tmp_path / "t.nldt"
    t = build_tables(F(2, 5), 6)
    t.save(path)
    head, payload = _split(path.read_bytes())
    assert payload == _split(scalar_kernels.format_5_file(t.p, 6))[1][-len(payload):]
    assert head == [
        b"NLDELTA 6",
        b"n=6 p=2/5",
        b"sha256=ccb7fa44037b10adb53c49cc8afaa9a1d5bdea7ce310b9a71e17fb3cd3d823a6",
    ]
    assert hashlib.sha256(payload).hexdigest() == \
        "6ee7043c33d9235dce81f390e62846d9aabb17aba1b97391a941a91d97930f49"
    ops = (0, 20, 86, 580, 5550, 66810, 919666)
    assert t.ops_per_level == load_tables(path).ops_per_level == ops


def test_failed_save_leaves_no_torn_file(tmp_path, monkeypatch):
    # the payload write fails half-way: neither a new file nor a good file
    # already at the target may be left torn
    good = tmp_path / "good.nldt"
    build_tables(F(1, 3), 2).save(good)
    before = good.read_bytes()
    real_open = open

    class Torn:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            if data.startswith(b"NLDELTA"):  # the header goes through
                return self.fh.write(data)
            self.fh.write(data[: len(data) // 2])
            raise OSError("disk full")

    monkeypatch.setattr(nldistill.delta, "open",
                        lambda *a, **k: Torn(real_open(*a, **k)), raising=False)
    t = build_tables(F(2, 5), 3)
    fresh = tmp_path / "fresh.nldt"
    for target in (fresh, good):
        with pytest.raises(OSError, match="disk full"):
            t.save(target)
    assert not fresh.exists()
    assert good.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [good]  # no temporary file left


def test_save_load_object_path(tmp_path):
    t = build_tables(F(1234567, 8000000), 3)
    path = tmp_path / "t.nldt"
    t.save(path)
    again = load_tables(path)
    assert again == t
    assert again.ops_per_level == t.ops_per_level
    for a, b in ((again.plus, t.plus), (again.minus, t.minus)):
        assert a.dtype == b.dtype == object


@pytest.mark.parametrize("p, n, dtype", [
    (F(2, 5), 7, np.int64), (F(1, 3), 7, np.int64), (F(0), 7, np.int64),
    (F(1, 2), 7, np.int64), (F(301, 800), 6, object), (F(3, 1000), 6, object),
    (F(31, 80), 8, np.int64),  # level 8 runs the pruned fill
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_level_grids_satisfy_the_scan_identities(tmp_path, p, n, dtype):
    # the symmetry and the complement identity that the ``delta`` docstring
    # proves, on the plus and the minus grids, built and loaded: both scans
    # rely on them unchecked (iso_scan's k0 cap, grid_scan's orbit sweep)
    built = levels(p, n)
    assert built[n].plus.dtype == dtype
    for m, t in enumerate(built):
        path = tmp_path / f"t{m}.nldt"
        t.save(path)
        for tables in (t, load_tables(path)):
            for sign, grid in (("+", tables.plus), ("-", tables.minus)):
                assert grid.dtype == (np.int64 if fits_int64(p, m) else object), (m, sign)
                assert np.array_equal(grid, grid.T), (m, sign)
                assert scalar_kernels.complement_holds(grid, p.denominator ** m), \
                    (m, sign)


def test_load_error_cases(tmp_path):
    t = build_tables(F(2, 5), 2)
    path = tmp_path / "t.nldt"
    t.save(path)
    data = path.read_bytes()

    truncated = tmp_path / "trunc.nldt"
    truncated.write_bytes(data[:-25])
    with pytest.raises(TableChecksumError):
        load_tables(truncated)

    versioned = tmp_path / "version.nldt"
    for old in (b"NLDELTA 2", b"NLDELTA 3"):
        versioned.write_bytes(data.replace(b"NLDELTA 6", old, 1))
        with pytest.raises(TableVersionError):
            load_tables(versioned)
    format_5 = scalar_kernels.format_5_file(t.p, t.n)
    for old, version in ((format_5, 5),
                         (scalar_kernels.format_4_file(format_5, t.ops_per_level), 4)):
        versioned.write_bytes(old)
        with pytest.raises(TableVersionError, match=f"version {version} unsupported"):
            load_tables(versioned)

    # the checksum covers the n line
    wrong_n = tmp_path / "n.nldt"
    wrong_n.write_bytes(data.replace(b"n=2", b"n=1", 1))
    with pytest.raises(TableChecksumError):
        load_tables(wrong_n)

    with pytest.raises(TableHeaderError):
        load_tables(path, expect_n=3)
    with pytest.raises(TableHeaderError):
        load_tables(path, expect_p=F(1, 3))

    garbage = tmp_path / "garbage.nldt"
    garbage.write_bytes(data[: data.index(b"\n", data.index(b"sha256")) + 1]
                        + b"zz:not-a-number")
    with pytest.raises((TableFormatError, TableChecksumError)):
        load_tables(garbage)


def test_header_n_must_fit_the_payload(tmp_path):
    # level n holds more than 4^n entries of 8 bytes, so the loader rejects
    # a larger header n before any work of size n: at n = 8000 the old
    # payload check could not even print its entry count
    path = tmp_path / "delta_p2_5_n8000.nldt"
    build_tables(F(2, 5), 2).save(path)
    head, payload = _split(path.read_bytes())
    assert len(payload) == 8 * 25
    path.write_bytes(_restamp([head[0], b"n=8000 p=2/5"], payload))
    with pytest.raises(TableHeaderError, match="n=8000 does not fit"):
        load_tables(path)
    # 8 * 4^3 = 512 bytes: one byte short fails the header, a payload of
    # exactly 512 bytes passes it and fails the length check
    for extra, error in ((511, TableHeaderError), (512, TableFormatError)):
        path.write_bytes(_restamp([head[0], b"n=3 p=2/5"], bytes(extra)))
        with pytest.raises(error):
            load_tables(path)


@pytest.mark.parametrize("head, error, message", [
    (b"NLDELTB 6\nn=2 p=2/5\nsha256=0\n", TableVersionError, "not a delta table file"),
    (b"NLDELTA 6\nn=2 p=2/5", TableFormatError, "file too short for a table header"),
    (b"NLDELTA 6\nn=two p=2/5\nsha256=0\n", TableHeaderError, "malformed header line"),
    (b"NLDELTA 6\nn=2 p=3/5\nsha256=0\n", TableHeaderError, "header out of range"),
], ids=["magic", "short", "malformed", "range"])
def test_load_rejects_each_bad_header(tmp_path, head, error, message):
    # each header check raises before the checksum is read
    path = tmp_path / "t.nldt"
    path.write_bytes(head)
    with pytest.raises(error, match=message):
        load_tables(path)


def _split(data: bytes) -> tuple[list[bytes], bytes]:
    """The three header lines of a table file, without their newlines, and
    its binary payload."""
    *head, payload = data.split(b"\n", 3)
    return head, payload


def _restamp(head: list[bytes], payload: bytes) -> bytes:
    """A table file of these header lines and payload under a recomputed
    sha256 line, so that only the payload checks can object."""
    digest = hashlib.sha256(b"".join(line + b"\n" for line in head[:2]) + payload)
    return b"\n".join(head[:2] + [b"sha256=" + digest.hexdigest().encode()]) + b"\n" + payload


@pytest.mark.parametrize("p, dtype, limbs", [(F(1, 2), np.int64, 1),
                                             (F(1234567, 8000000), object, 2)],
                         ids=["int64", "bigint"])
def test_malformed_payload_is_distinct(tmp_path, p, dtype, limbs):
    t = build_tables(p, 3)
    path = tmp_path / "t.nldt"
    t.save(path)
    assert load_tables(path).plus.dtype == dtype
    head, payload = _split(path.read_bytes())
    assert _restamp(head, payload) == path.read_bytes()
    width = 8 * limbs
    assert len(payload) == 81 * width
    # entry 80 is the last of the level-3 grid, D_3 itself
    at = 80 * width
    top = t.denominator
    assert int.from_bytes(payload[at:at + width], "little") == top
    bad_payloads = [
        payload[:-width],  # one entry short
        payload + bytes(width),  # one entry extra
        payload[:-1],  # a torn last entry
        # a numerator above D_1
        payload[:at] + (top + 1).to_bytes(width, "little") + payload[at + width:],
    ]
    if dtype == np.int64:  # an entry that reads negative as int64
        bad_payloads.append(payload[:at] + (1 << 63).to_bytes(8, "little")
                            + payload[at + 8:])
    bad = tmp_path / "bad.nldt"
    for bad_payload in bad_payloads:
        bad.write_bytes(_restamp(head, bad_payload))
        with pytest.raises(TableFormatError):
            load_tables(bad)


def test_payload_checks_survive_optimize_flag(tmp_path):
    # the payload length and range checks must raise even under python -O,
    # which strips assert statements
    code = f"""
import hashlib
from fractions import Fraction
from nldistill.delta import TableFormatError, build_tables, load_tables
path = {str(tmp_path / "t.nldt")!r}
build_tables(Fraction(1, 2), 2).save(path)
data = open(path, "rb").read()
*head, payload = data.split(b"\\n", 3)
top = (17).to_bytes(8, "little")  # D_2 + 1 over the last entry
for bad in (payload[:-8], payload + bytes(8), payload[:-8] + top):
    digest = hashlib.sha256(b"".join(h + b"\\n" for h in head[:2]) + bad).hexdigest()
    open(path, "wb").write(b"".join(h + b"\\n" for h in head[:2])
                           + f"sha256={{digest}}\\n".encode() + bad)
    try:
        load_tables(path)
    except TableFormatError:
        continue
    raise SystemExit("accepted a malformed payload")
print("ok")
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr


@pytest.mark.parametrize("p, n", [(F(2, 5), 8), (F(13, 32), 8), (F(0), 8), (F(1, 2), 8),
                                  (F(1234567, 8000000), 7), (F(301, 800), 7)])
def test_bulk_load_matches_token_reference(tmp_path, p, n):
    # the loader decodes every grid from one buffer; the per-entry reference
    # reads each entry's bytes apart
    path = tmp_path / "t.nldt"
    build_tables(p, n).save(path)
    got = load_tables(path)
    ref_plus = scalar_kernels.load_payload(_split(path.read_bytes())[1], p, n)
    # the minus grid is derived from the plus grid: l*dp^n - plus[2^n - k, l]
    ref_minus = (np.arange(2 ** n + 1).astype(ref_plus.dtype) * p.denominator ** n
                 - ref_plus[::-1])
    for grid, ref in ((got.plus, ref_plus), (got.minus, ref_minus)):
        assert grid.dtype == ref.dtype and np.array_equal(grid, ref), grid.dtype
        assert not grid.flags.writeable


@pytest.mark.parametrize("p, n, limbs", [(F(1, 30000), 4, 1), (F(1, 32768), 4, 2),
                                         (F(1, 10 ** 9), 5, 3)],
                         ids=["64-bit", "2^64", "3-limb"])
def test_limb_boundary_round_trip(tmp_path, p, n, limbs):
    # D_n of 64 bits takes one limb, D_n = 2^64 two; all three are big-int
    # tables, and each entry takes exactly its limbs in the file
    t = build_tables(p, n)
    assert not fits_int64(p, n)
    assert 64 * (limbs - 1) < ((2 * p.denominator) ** n).bit_length() <= 64 * limbs
    path = tmp_path / "t.nldt"
    t.save(path)
    assert len(_split(path.read_bytes())[1]) == (2 ** n + 1) ** 2 * 8 * limbs
    again = load_tables(path)
    assert again == t
    assert again.plus.dtype == object and not again.plus.flags.writeable
    assert again.plus[-1, -1] == (2 * p.denominator) ** n


def test_load_raises_no_warning(tmp_path):
    # a well-formed cache of either dtype must load without any warning
    for p in (F(2, 5), F(1234567, 8000000)):
        path = tmp_path / f"{p.denominator}.nldt"
        build_tables(p, 4).save(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_tables(path) == build_tables(p, 4)


def test_ops_counts_criterion_window():
    t = build_tables(F(2, 5), 7)
    ops = t.ops_per_level
    for m in (5, 6, 7):
        ratio = ops[m] / ops[m - 1]
        assert 12 <= ratio <= 20

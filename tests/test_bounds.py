from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nldistill import (
    ANTI_PR,
    ClassProfile,
    P_C,
    PR,
    build_tables,
    class_bound,
    class_grid,
    general_bound,
    iso_bound,
    kernels,
    mix,
    nl_value,
    wedge,
)

from nldistill import bounds as bounds_module
from nldistill import decompose as decompose_module
from nldistill.bounds import envelope_bound
from nldistill.boxes import nl_value_int
from nldistill.cli import main as cli_main
from nldistill.decompose import minimal_isotropic

import scalar_kernels

F = Fraction


def wedge_pair(q):
    """P_q = (1-q) * P_{1/5,0} + q * P_{1/5,4/5}."""
    return mix([(1 - q, wedge(F(1, 5), 0)), (q, wedge(F(1, 5), F(4, 5)))])


def test_class_bound_hand_value():
    t = build_tables(F(2, 5), 1)
    assert class_bound(t, 1, ClassProfile(1, 1, 1, 1)) == F(12, 5)
    assert class_bound(t, 1, ClassProfile(0, 0, 0, 0)) == 2
    with pytest.raises(ValueError):
        class_bound(t, 1, ClassProfile(3, 0, 0, 0))
    with pytest.raises(ValueError):
        class_bound(t, 2, ClassProfile(0, 0, 0, 0))


def test_iso_bound_small_n():
    w = wedge(F(1, 5), 0)
    r = iso_bound(w, 1)
    assert r.raw_bound == F(12, 5)
    assert r.witness_profile.as_tuple() == (1, 1, 1, 1)
    r6 = iso_bound(w, 6)
    assert r6.raw_bound == F(12, 5)
    assert r6.witness_profile.as_tuple() == (32, 32, 32, 32)


def test_iso_bound_reduced_equals_unreduced_up_to_n4():
    # iso_bound sweeps k0 <= 2^(n-1) only; the full k0 sweep on the same
    # tables finds the same maximum and the same lex-min witness
    for eps in (F(1, 5), F(1, 2), F(7, 9)):
        w = wedge(eps, 0)
        for n in range(1, 5):
            t = build_tables(w.prob(0, 0, 0, 0), n)
            size = 2 ** n
            best, witness = kernels.iso_scan(t.plus[n], t.minus[n],
                                             t.p.denominator ** n, size, size)
            report = iso_bound(w, n, tables=t)
            assert report.raw_bound == F(4 * best, t.level_denominator(n))
            assert report.witness_profile.as_tuple() == witness


def test_iso_bound_requires_isotropic():
    with pytest.raises(ValueError):
        iso_bound(wedge(F(1, 5), F(1, 5)), 2)
    with pytest.raises(ValueError):
        iso_bound(wedge(F(1, 5), 0), 0)


def test_iso_bound_accepts_prebuilt_tables():
    w = wedge(F(1, 5), 0)
    t = build_tables(F(2, 5), 4)
    assert iso_bound(w, 3, tables=t).raw_bound == F(12, 5)
    with pytest.raises(ValueError):
        iso_bound(w, 5, tables=t)
    with pytest.raises(ValueError):
        iso_bound(wedge(F(1, 2), 0), 3, tables=t)


def _n4_scan_inputs(system):
    """The n = 4 scan inputs of an isotropic box, as bounds.iso_bound forms them."""
    t = build_tables(system.prob(0, 0, 0, 0), 4)
    return t, t.plus[4], t.minus[4], t.p.denominator ** 4, 2 ** 4


def test_backends_agree_on_bound():
    # The scalar reference body and the public scan kernel run on the same
    # inputs.  The local box wedge(0, 0) ties at 2 on every profile that
    # kills the delta terms, so it also checks the lex-min tie-break.
    cases = [(wedge(F(3, 7), 0), F(20, 7), (8, 8, 8, 8)),
             (wedge(0, 0), F(2), (0, 0, 0, 0))]
    for w, bound, profile in cases:
        t, xp, xm, dpn, size = _n4_scan_inputs(w)
        # iso_bound's reduced sweep (k0 <= size/2) against both sweeps
        report = iso_bound(w, 4, tables=t)
        for k0_cap in (size // 2, size):
            scalar = scalar_kernels.iso_scan(xp, xm, np.int64(dpn), k0_cap, size)
            vector = kernels.iso_scan(xp, xm, dpn, k0_cap, size)
            best, *witness = (int(v) for v in scalar)
            assert (best, tuple(witness)) == vector, (bound, k0_cap)
            assert report.raw_bound == F(4 * best, t.level_denominator(4)) == bound
            assert report.witness_profile.as_tuple() == tuple(witness) == profile
    # all-zero inputs tie on every profile, so both bodies must pick the
    # lexicographically smallest maximizer inside each cell as well
    zeros = np.zeros((17, 17), dtype=np.int64)
    for k0_cap in (8, 16):
        scalar = scalar_kernels.iso_scan(zeros, zeros, np.int64(0), k0_cap, 16)
        best, witness = kernels.iso_scan(zeros, zeros, 0, k0_cap, 16)
        assert [int(v) for v in scalar] == [best, *witness] == [0] * 5


def test_grid_scan_backends_agree():
    w = wedge(F(3, 7), 0)
    t, xp, xm, dpn, size = _n4_scan_inputs(w)
    scalar = scalar_kernels.grid_scan(xp, xm, np.int64(dpn), size)
    vector = kernels.grid_scan(xp, xm, dpn, size)
    assert np.array_equal(scalar, vector)
    grid = class_grid(w, 4, tables=t)
    denom = t.level_denominator(4)
    assert grid.values == tuple(
        tuple(F(4 * int(v), denom) for v in row) for row in scalar
    )


@st.composite
def tie_heavy_scan_inputs(draw):
    """Small level grids whose entries take 3 or 4 values, so ties abound.

    Entries stay in [0, size*dpn], as in real tables."""
    size = draw(st.integers(min_value=2, max_value=6))
    dpn = draw(st.integers(min_value=1, max_value=2))
    top = min(draw(st.integers(min_value=2, max_value=3)), size * dpn)
    grid = st.lists(st.integers(min_value=0, max_value=top),
                    min_size=(size + 1) ** 2, max_size=(size + 1) ** 2)
    xp, xm = (np.array(draw(grid), dtype=np.int64).reshape(size + 1, size + 1)
              for _ in range(2))
    return xp, xm, dpn, size


def _int64_and_object(xp, xm):
    # the same values as int64 and as Python ints in object arrays
    return [(xp, xm), (xp.astype(object), xm.astype(object))]


@settings(max_examples=150, deadline=None)
@given(tie_heavy_scan_inputs())
def test_iso_scan_matches_reference_on_ties(inputs):
    xp, xm, dpn, size = inputs
    for k0_cap in (size // 2, size):
        scalar = scalar_kernels.iso_scan(xp, xm, np.int64(dpn), k0_cap, size)
        best, *witness = (int(v) for v in scalar)
        for xp_, xm_ in _int64_and_object(xp, xm):
            assert kernels.iso_scan(xp_, xm_, dpn, k0_cap, size) \
                == (best, tuple(witness)), (k0_cap, xp_.dtype)


GRID_PS = [F(2, 5), F(31, 80), F(39, 80), F(13, 32), F(1, 3), F(0), F(1, 2)]


@pytest.mark.parametrize("p", GRID_PS + [F(301, 800)], ids=str)
def test_grid_scan_equals_the_sweep(p):
    # the kernel sweeps one profile per orbit of the complement map and the
    # transpose and reflects twice, relying on the complement identity and
    # the symmetry of real tables, while the reference sweeps every l0;
    # 301/800 fills every level in Python ints
    tables = build_tables(p, 6)
    for n in range(1, 7):
        xp, xm = tables.plus[n], tables.minus[n]
        dpn, size = p.denominator ** n, 2 ** n
        assert scalar_kernels.complement_holds(xp, dpn)
        assert scalar_kernels.complement_holds(xm, dpn)
        assert np.array_equal(xp, xp.T) and np.array_equal(xm, xm.T)
        want = scalar_kernels.grid_sweep(xp, xm, dpn, size)
        pairs = [(xp, xm)] if xp.dtype == object else _int64_and_object(xp, xm)
        for xp_, xm_ in pairs:
            got = kernels.grid_scan(xp_, xm_, dpn, size)
            # the reference's dtype is its input's, int64 values are exact
            assert got.dtype == xp_.dtype, (n, xp_.dtype)
            assert got.tolist() == want.tolist(), (n, xp_.dtype)


@pytest.mark.parametrize("p", [F(2, 5), F(1, 3)], ids=str)
def test_grid_scan_equals_the_sweep_n7(p):
    # from n = 7 on a grid_scan block holds a single l0, with its own cap
    tables = build_tables(p, 7)
    xp, xm = tables.plus[7], tables.minus[7]
    assert xp.dtype == np.int64
    dpn = p.denominator ** 7
    want = scalar_kernels.grid_sweep(xp, xm, dpn, 128)
    got = kernels.grid_scan(xp, xm, dpn, 128)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


def _complemented_grid(draw, size: int, dpn: int, values):
    """A level-like grid drawn on the wedge k <= l, k + l <= size and
    completed by the (k, l) <-> (l, k) reflection and the complement
    identity x[size-k, size-l] = x[k, l] + (size-k-l)*dpn, so it is
    symmetric, x = x^T, as every level grid is.  An entry at (k, l) is
    dpn*min(t, k, l) for a drawn t in ``values``, so entries lie in
    [max(0, k+l-size), min(k, l)]*dpn, as in real tables."""
    x = np.zeros((size + 1, size + 1), dtype=np.int64)
    for k in range(size + 1):
        for l in range(k, size - k + 1):
            x[k, l] = x[l, k] = dpn * min(draw(st.sampled_from(values)), k)
    for k in range(size + 1):
        for l in range(size - k + 1, size + 1):
            x[k, l] = x[size - k, size - l] + (k + l - size) * dpn
    return x


@st.composite
def complemented_scan_inputs(draw):
    """Tie-heavy scan inputs that satisfy the complement identity and are
    symmetric, as every level grid is, so the kernel's orbit sweep
    applies.  xm comes from a second plus-like grid x2 through
    xm[k, l] = l*dpn - x2[size-k, l], as ``DeltaTables.minus`` derives it;
    it is symmetric because x2 is and x2 satisfies the complement
    identity (the comment above ``kernels.grid_scan``)."""
    size = draw(st.integers(min_value=1, max_value=8))
    dpn = draw(st.integers(min_value=1, max_value=2))
    values = draw(st.lists(st.integers(min_value=0, max_value=3),
                           min_size=1, max_size=2, unique=True))
    xp = _complemented_grid(draw, size, dpn, values)
    x2 = _complemented_grid(draw, size, dpn, values)
    xm = np.arange(size + 1, dtype=np.int64) * dpn - x2[::-1, :]
    return xp, xm, dpn, size


@settings(max_examples=100, deadline=None)
@given(complemented_scan_inputs())
def test_grid_scan_orbit_sweep_matches_reference_on_ties(inputs):
    xp, xm, dpn, size = inputs
    assert scalar_kernels.complement_holds(xp, dpn)
    assert scalar_kernels.complement_holds(xm, dpn)
    assert np.array_equal(xp, xp.T) and np.array_equal(xm, xm.T)
    scalar = scalar_kernels.grid_scan(xp, xm, np.int64(dpn), size)
    for xp_, xm_ in _int64_and_object(xp, xm):
        vector = kernels.grid_scan(xp_, xm_, dpn, size)
        assert vector.dtype == xp_.dtype
        assert vector.tolist() == scalar.tolist()


def test_iso_scan_tied_columns_take_the_least_rows():
    # In the l0 = 0 slab the columns l1 = 0 and l1 = 2 tie on the best
    # value 5.  Column 0 reaches it at (k0, k1) = (1, 2), column 2 at
    # (0, 1), so the lex-min witness is (0, 1, 0, 2); a scan that kept the
    # first tied column would report (1, 2, 0, 0).
    xp = np.array([[0, 0, 2], [2, 1, 0], [2, 1, 2]], dtype=np.int64)
    xm = np.array([[2, 2, 1], [2, 2, 0], [1, 1, 2]], dtype=np.int64)
    for k0_cap in (1, 2):
        scalar = scalar_kernels.iso_scan(xp, xm, np.int64(1), k0_cap, 2)
        assert [int(v) for v in scalar] == [5, 0, 1, 0, 2]
        for xp_, xm_ in _int64_and_object(xp, xm):
            assert kernels.iso_scan(xp_, xm_, 1, k0_cap, 2) == (5, (0, 1, 0, 2))


def _iso_oracle(xp, xm, dpn, k0_cap, size):
    """Brute-force max of the scaled class bound with its lex-min profile."""
    value, profile = min(
        (-((size // 2 - k0 - l0) * dpn + xp[k0, l0] + xp[k0, l1]
           + xp[k1, l0] - xm[k1, l1]), (k0, k1, l0, l1))
        for k0 in range(k0_cap + 1) for k1, l0, l1 in
        itertools.product(range(size + 1), repeat=3))
    return -value, profile


def test_iso_scan_filter_keeps_near_ties():
    # Big-int grids near thirds of the scale, perturbed by a few units:
    # cells that differ by 1 in 2^97 round in either order, so a filter
    # keeping only the float optimum (margin 0) misses about one case in 25.
    rng = random.Random(1)
    size, dpn = 2, 3 ** 60
    third = size * dpn // 3
    for _ in range(200):
        xp, xm = (np.array([max(0, rng.randrange(4) * third + rng.randrange(-2, 3))
                            for _ in range(9)], dtype=object).reshape(3, 3)
                  for _ in range(2))
        for k0_cap in (1, 2):
            assert kernels.iso_scan(xp, xm, dpn, k0_cap, size) \
                == _iso_oracle(xp, xm, dpn, k0_cap, size)


def test_iso_scan_all_tie_grids_take_the_least_profile():
    # grids xp = xm = (k + l)*dpn/2 give every profile the value size/2*dpn,
    # so every cell survives the float filter of the object scan and is
    # re-checked exactly; both dtypes must pick the lex-min profile
    for size in (64, 128):
        x = np.add.outer(np.arange(size + 1), np.arange(size + 1)) * 3
        for k0_cap in (size // 2, size):
            for xp, xm in _int64_and_object(x, x):
                assert kernels.iso_scan(xp, xm, 6, k0_cap, size) \
                    == (size // 2 * 6, (0, 0, 0, 0)), (size, k0_cap, xp.dtype)


TILED_SCAN_PS = ["2/5", "13/32", "31/80", "39/80", "0", "1/2", "5/12", "17/40"]


def _check_tiled_scan_on_tables(p, n_max):
    # the object rows run the float pass on the same tables as big ints
    t = build_tables(F(p), n_max)
    for n in range(1, n_max + 1):
        xp, xm, dpn, size = t.plus[n], t.minus[n], t.p.denominator ** n, 2 ** n
        assert xp.dtype == np.int64
        pairs = _int64_and_object(xp, xm) if n <= 6 else [(xp, xm)]
        for k0_cap in (size // 2, size):
            want = scalar_kernels.iso_sweep(xp, xm, dpn, k0_cap, size)
            for xp_, xm_ in pairs:
                assert kernels.iso_scan(xp_, xm_, dpn, k0_cap, size) == want, \
                    (n, k0_cap, xp_.dtype)


@pytest.mark.parametrize("p", TILED_SCAN_PS)
def test_tiled_iso_scan_matches_full_sweep(p):
    # value and lex-min witness of the tiled scan equal the full sweep's,
    # reduced (k0 <= size/2) and unreduced, at every n up to 8
    _check_tiled_scan_on_tables(p, 8)


@pytest.mark.longrun
@pytest.mark.parametrize("p", ["2/5", "13/32", "0", "1/2", "5/12", "17/40"])
def test_tiled_iso_scan_matches_full_sweep_n9(p):
    # 31/80 and 39/80 leave int64 at n = 9
    _check_tiled_scan_on_tables(p, 9)


@pytest.mark.parametrize("p", ["301/800", "303/800", "311/800", "399/800",
                               "1234567/8000000"])
def test_tiled_iso_scan_matches_full_sweep_on_big_ints(p):
    # tables filled in Python ints at every level; at n = 7 the float tile
    # bound keeps from under 1 % (399/800) to about a quarter (301/800,
    # 303/800) of the tile pairs
    t = build_tables(F(p), 7)
    for n in range(5, 8):
        xp, xm, dpn, size = t.plus[n], t.minus[n], t.p.denominator ** n, 2 ** n
        assert xp.dtype == object
        for k0_cap in (size // 2, size):
            assert kernels.iso_scan(xp, xm, dpn, k0_cap, size) \
                == scalar_kernels.iso_sweep(xp, xm, dpn, k0_cap, size), (n, k0_cap)


def test_tiled_iso_scan_finds_witness_outside_the_top_tile():
    # size 16 makes tiles of width isqrt(16) // 2 = 2: {0, 1}, ...,
    # {14, 15} and the ragged last tile {16}.  Row 5 has 1 at l = 4 and
    # row 12 has 1 at l = 5, so the tile pair ({4, 5}, {4, 5}) bounds its
    # cells by 3 (k0 = 5 takes 1 + 1, k1 = 12 takes 1 - 0), although none
    # of them exceeds 2: row 12 lies past k0_cap = 8, and xm = 10 on row 5
    # keeps k1 = 5 from paying.
    # Row 1 has 1 at l = 16 and xm = 10: the cell (16, 16) reaches 2 as
    # (k0, k1) = (1, 0), and the bound of its tile pair is exactly 2.  So
    # the lex-min witness lies in a tile pair whose bound only equals the
    # top pair's best value.
    size, k0_cap = 16, 8
    xp = np.zeros((size + 1, size + 1), dtype=np.int64)
    xm = np.zeros_like(xp)
    xp[5, 4] = xp[12, 5] = xp[1, 16] = 1
    xm[5] = xm[1] = 10
    # dpn = 0: both offsets vanish
    zeros = np.zeros(size + 1, dtype=np.int64)
    bound = kernels._tile_bounds(xp, xm, zeros[:k0_cap + 1], zeros,
                                 np.arange(0, size + 1, 2))
    assert np.unravel_index(bound.argmax(), bound.shape) == (2, 2)
    assert bound[2, 2] == 3 and bound[8, 8] == 2
    want = (2, (1, 0, 16, 16))
    assert _iso_oracle(xp, xm, 0, k0_cap, size) \
        == scalar_kernels.iso_sweep(xp, xm, 0, k0_cap, size) == want
    assert kernels.iso_scan(xp, xm, 0, k0_cap, size) == want


@st.composite
def tie_heavy_tiled_inputs(draw):
    """Grids of size 16 to 64, so tiles are 2 to 4 wide, whose entries take
    3 or 4 values; dpn = 0 drops the offsets, so whole tiles tie."""
    size = draw(st.integers(min_value=16, max_value=64))
    dpn = draw(st.integers(min_value=0, max_value=2))
    top = draw(st.integers(min_value=2, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    xp, xm = rng.integers(0, top + 1, size=(2, size + 1, size + 1))
    return xp, xm, dpn, size


@settings(max_examples=80, deadline=None)
@given(tie_heavy_tiled_inputs())
def test_tiled_iso_scan_matches_full_sweep_on_ties(inputs):
    # the object scan's shadows divide by size*dpn, so it needs dpn >= 1
    xp, xm, dpn, size = inputs
    pairs = _int64_and_object(xp, xm) if dpn >= 1 else [(xp, xm)]
    for k0_cap in (size // 2, size):
        want = scalar_kernels.iso_sweep(xp, xm, dpn, k0_cap, size)
        for xp_, xm_ in pairs:
            assert kernels.iso_scan(xp_, xm_, dpn, k0_cap, size) == want, \
                (k0_cap, xp_.dtype)


def test_filter_checks_survive_optimize_flag():
    # a big-int entry above size*dpn breaks the margin's premise; the
    # shadow's range check must raise even under python -O
    code = """
import numpy as np
from nldistill import kernels
xp = np.zeros((3, 3), dtype=object)
xp[1, 2] = 2 ** 71
print("debug", __debug__)
try:
    kernels.iso_scan(xp, xp, 2 ** 69, 1, 2)
except ValueError as exc:
    print("raised", exc)
try:
    kernels.bilinear_scan(xp.reshape(1, 3, 3), 2 ** 70)
except ValueError as exc:
    print("raised", exc)
u = np.zeros((1, 2, 2), dtype=np.int64)
u[0, :, 1] = [3, -2]
try:
    kernels.bilinear_scan(u, 4)
except ValueError as exc:
    print("raised", exc)
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "debug False",
        f"raised a float shadow entry lies outside [-{2 ** 70}, {2 ** 70}]",
        f"raised a float shadow entry lies outside [-{2 ** 70}, {2 ** 70}]",
        "raised a column of u sums past 4 in absolute value"]


def _shadow_inputs(rng, e):
    """+-2^e, small entries, half-ulp ties and random entries in [-2^e, 2^e]."""
    vals = [2 ** e, -2 ** e, 0, 1, -1, 2 ** e - 1, 1 - 2 ** e]
    if e > 60:
        tie = 2 ** (e - 1) + 2 ** (e - 55)  # halfway between two floats
        vals += [tie, -tie, tie + 1, tie - 1, tie + 2 ** (e - 54)]
    vals += [rng.randrange(-2 ** e, 2 ** e + 1) for _ in range(256 - len(vals))]
    return np.array(vals, dtype=object).reshape(-1, 8)


def test_float_shadow_rounds_each_entry_once():
    # x / 2^e correctly rounded, entry by entry, 2^e the least power of two
    # >= scale; +-2^e read +-1
    rng = random.Random(24)
    for scale in (1, 2, 3, 5, 6, 2 ** 53 + 1, 3 ** 60, 128 * 800 ** 7,
                  10 ** 300, 2 ** 1000):
        e = (scale - 1).bit_length()
        x = _shadow_inputs(rng, e)
        shadow = kernels.float_shadow(x, scale)
        assert shadow.dtype == np.float64 and shadow.shape == x.shape
        for v, f in zip(x.ravel().tolist(), shadow.ravel().tolist()):
            assert f == float(F(v, 2 ** e)), (scale, v)
        assert shadow[0, :2].tolist() == [1.0, -1.0]
    # past 2^1024 the entries are floored to 1000 bits first: each reads
    # within 2^-1000 plus one ulp of x / 2^e, and in [-1, 1]
    for scale in (2 ** 1000 + 1, 10 ** 400, 3 ** 1000, 2 ** 1500):
        e = (scale - 1).bit_length()
        x = _shadow_inputs(rng, e)
        shadow = kernels.float_shadow(x, scale)
        assert np.abs(shadow).max() <= 1.0
        for v, f in zip(x.ravel().tolist(), shadow.ravel().tolist()):
            assert abs(F(f) - F(v, 2 ** e)) <= F(1, 2 ** 1000) + F(math.ulp(f)), (scale, v)
        assert shadow[0, :2].tolist() == [1.0, -1.0]
    # entries past 2^e, by a rounding step or past float range, raise
    for scale, v in ((5, 9), (2 ** 60, 2 ** 60 + 2 ** 20), (2 ** 10, 2 ** 2000),
                     (10 ** 400, -2 ** 1400), (2 ** 1500, 2 ** 1500 + 2 ** 1460)):
        with pytest.raises(ValueError, match="float shadow entry lies outside"):
            kernels.float_shadow(np.array([0, v], dtype=object), scale)


def test_bound_check_survives_optimize_flag():
    # all-zero plus grids, and the minus grids derived from them, bound
    # wedge(1/5, 0) at n=2 by 2 < NL = 12/5 (at (0, 0, 0, 0)); the check
    # must raise even under python -O, which strips assert statements
    code = """
from fractions import Fraction
import numpy as np
from nldistill import DeltaTables, iso_bound, wedge
zeros = tuple(np.zeros((2 ** m + 1, 2 ** m + 1), dtype=np.int64) for m in range(3))
tables = DeltaTables(p=Fraction(2, 5), plus=zeros)
print("debug", __debug__)
try:
    iso_bound(wedge(Fraction(1, 5), 0), 2, tables=tables)
except AssertionError as exc:
    print("raised", exc)
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "debug False"
    assert lines[1].startswith("raised bound 2 fell below")


WRONG_WITNESS_SCAN = """
from fractions import Fraction
from nldistill import iso_bound, kernels, wedge
real_scan = kernels.iso_scan
def wrong_witness(*args):
    best, _ = real_scan(*args)
    return best, (0, 0, 0, 0)  # evaluates to 2, below the scanned maximum
kernels.iso_scan = wrong_witness
print("debug", __debug__)
try:
    iso_bound(wedge(Fraction(1, 5), 0), 2)
except AssertionError as exc:
    print("raised", exc)
"""


def test_inconsistent_witness_raises():
    # iso_bound re-evaluates the scan's witness with class_bound, so a
    # kernel whose witness does not attain its maximum fails at run time,
    # also under python -O, which strips assert statements
    proc = subprocess.run([sys.executable, "-O", "-c", WRONG_WITNESS_SCAN],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "debug False"
    assert lines[1].startswith("raised witness profile (0, 0, 0, 0) evaluates to 2,")


def test_grid_small_properties():
    w = wedge(F(1, 5), 0)
    g = class_grid(w, 3)
    size = 2 ** 4
    assert len(g.values) == size + 1
    best, arg = g.max_cell()
    assert best == F(12, 5) and arg == (8, 8)
    for sk in range(size + 1):
        for sl in range(size + 1):
            assert g.values[sk][sl] == g.values[sl][sk]
            assert g.values[sk][sl] == g.values[size - sk][size - sl]
    # k0 = k1 = 0 kills every delta term
    for sl in range(size + 1):
        assert g.values[0][sl] == 2 - F(max(0, sl - 8), 2)
        assert g.values[0][sl] <= 2
    # the aggregated cell of the balanced class dominates the grid max
    t = build_tables(F(2, 5), 3)
    assert class_bound(t, 3, ClassProfile(4, 4, 4, 4)) == best


@pytest.mark.parametrize("eps", [F(1, 5), F(1, 2 ** 101), F(1, 7) + F(1, 2 ** 120)],
                         ids=["int64", "bigint", "bigint-mixed"])
def test_grid_is_per_cell_max_of_class_bound(eps):
    # every aggregated cell is the max of class_bound over the profiles that
    # land in it; the last two p take the big-int path, where the scaled
    # objective falls far below any fixed seed
    n, size = 3, 2 ** 3
    w = wedge(eps, 0)
    t = build_tables(w.prob(0, 0, 0, 0), n)
    assert (t.plus[n].dtype == object) == (eps != F(1, 5))
    cells: dict = {}
    for k0, k1, l0, l1 in itertools.product(range(size + 1), repeat=4):
        v = class_bound(t, n, ClassProfile(k0, k1, l0, l1))
        key = (k0 + k1, l0 + l1)
        cells[key] = max(cells.get(key, v), v)
    g = class_grid(w, n, tables=t)
    assert g.values == tuple(
        tuple(cells[sk, sl] for sl in range(2 * size + 1))
        for sk in range(2 * size + 1)
    )


def test_grid_matches_profile_scan_max():
    w = wedge(F(2, 7), 0)
    g = class_grid(w, 2)
    assert g.max_cell()[0] == iso_bound(w, 2).raw_bound


def test_grid_csv_format():
    g = class_grid(wedge(F(1, 5), 0), 2)
    lines = g.to_csv().splitlines()
    assert lines[0] == "s_k,s_l,bound_num,bound_den"
    assert len(lines) == 1 + 9 * 9
    approx = g.to_csv(approx=True).splitlines()
    assert approx[0].endswith("bound_approx")


def _hand_grid(denominator, dtype):
    # n = 1: a 5 x 5 grid of values that share every factor of the
    # denominator with some cell, a negative one and (object) ones past int64
    rng = random.Random(denominator)
    big = 2 ** 70 if dtype == object else 1
    values = [rng.choice([0, 1, 2, 3, -3, 12, denominator, 4 * denominator])
              * rng.choice([1, big]) + rng.randrange(3) for _ in range(25)]
    return bounds_module.ClassGrid(
        n=1, scaled=np.array(values, dtype=dtype).reshape(5, 5),
        denominator=denominator)


GRID_CASES = {
    "int64": lambda: class_grid(wedge(F(1, 5), 0), 3),
    "object": lambda: class_grid(wedge(F(3, 1000), 0), 5),
    "den 2 mod 4": lambda: _hand_grid(18, np.int64),
    "odd den": lambda: _hand_grid(81, np.int64),
    "odd den, object": lambda: _hand_grid(3 ** 50, object),
}
#: the factor m4 = 4/gcd(d, 4) of the hand-built grids' reduced cells
HAND_M4 = {"den 2 mod 4": 2, "odd den": 4, "odd den, object": 4}


@pytest.mark.parametrize("case", GRID_CASES)
def test_grid_cells_are_the_reduced_fractions(case):
    # every json cell and csv row against Fraction(4v, d), cell by cell, and
    # both texts byte for byte against json.dumps and the csv module
    g = GRID_CASES[case]()
    if case == "object":
        assert g.scaled.dtype == object
    if case in HAND_M4:
        assert 4 // math.gcd(g.denominator, 4) == HAND_M4[case]
    cells = [[Fraction(4 * v, g.denominator) for v in row] for row in g.scaled.tolist()]
    obj = json.loads(g.to_json())
    best, arg = g.max_cell()
    assert obj == {"n": g.n, "max": str(best), "max_cell": list(arg),
                   "cells": [[str(c) for c in row] for row in cells]}
    assert g.to_json() == json.dumps(obj)
    for approx in (False, True):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["s_k", "s_l", "bound_num", "bound_den"]
                        + ["bound_approx"] * approx)
        for sk, row in enumerate(cells):
            for sl, c in enumerate(row):
                writer.writerow([sk, sl, c.numerator, c.denominator]
                                + [f"{c.numerator / c.denominator:.12g}"] * approx)
        assert g.to_csv(approx=approx) == buf.getvalue()
        lines = g.to_csv(approx=approx).split("\r\n")
        assert len(lines) == 2 + len(cells) ** 2 and lines[-1] == ""
        for line, (sk, sl) in zip(lines[1:], itertools.product(range(len(cells)), repeat=2)):
            c = cells[sk][sl]
            assert line.split(",")[:4] == [str(sk), str(sl), str(c.numerator),
                                           str(c.denominator)]


def test_general_bound_isotropic_fixed_point():
    w = wedge(F(1, 5), 0)
    for n in (1, 2, 3):
        assert general_bound(w, n).raw_bound == iso_bound(w, n).raw_bound


def test_general_bound_monotone_in_q():
    values = []
    for q in (0, F(1, 5), F(2, 5), F(3, 5), F(4, 5), 1):
        r = general_bound(wedge_pair(q), 2)
        values.append(r.raw_bound)
        assert r.decomposition is not None
        assert r.raw_bound >= nl_value(wedge_pair(q))[0]
    assert values[0] == F(12, 5)
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_general_bound_clamp_and_local():
    r = general_bound(wedge(F(1, 5), F(4, 5)), 2)
    assert r.clamped_bound <= 4
    assert r.raw_bound >= F(12, 5)
    local = general_bound(P_C, 3)
    assert local.raw_bound == 2
    assert local.decomposition.epsilon == 0


def test_envelope_bound_takes_an_envelope_exactly_for_nonlocal_boxes():
    box = wedge(F(1, 5), F(1, 5))
    dec = minimal_isotropic(box)
    assert envelope_bound(box, 2, dec, iso_bound(dec.p_iso, 2)) == \
        general_bound(box, 2)
    with pytest.raises(ValueError):
        envelope_bound(box, 2, dec, None)
    local = minimal_isotropic(P_C)
    assert envelope_bound(P_C, 2, local, None) == general_bound(P_C, 2)
    with pytest.raises(ValueError):
        envelope_bound(P_C, 2, local, iso_bound(PR, 2))


def test_general_bound_evaluates_each_nl_once(monkeypatch, capsys):
    # the box, its isotropic envelope and its local residue: one NL
    # evaluation each, in the library and in the CLI's bound path; the
    # bounds module takes NL(p_iso) from the isotropic epsilon.  The
    # decomposition evaluates NL on integer numerators, and the four entries
    # of one input pair sum to the denominator, so each table read back
    # over that sum is the box it was evaluated on
    seen = []

    def counted(numerators):
        seen.append(tuple(F(v, sum(numerators[:4])) for v in numerators))
        return nl_value_int(numerators)

    assert not hasattr(bounds_module, "nl_value")
    monkeypatch.setattr(decompose_module, "nl_value_int", counted)
    box = wedge(F(1, 5), F(1, 5))
    report = general_bound(box, 2)
    dec = report.decomposition
    assert dec.q < 1 and report.system_nl == nl_value(box)[0]
    assert sorted(seen) == sorted([box.table, dec.p_iso.table, dec.p_l.table])
    seen.clear()
    assert cli_main(["bound", "--wedge", "1/5,1/5", "--n", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == report.to_json_obj()
    assert sorted(seen) == sorted([box.table, dec.p_iso.table, dec.p_l.table])


def test_soundness_on_isotropic_line():
    rng = random.Random(5)
    for _ in range(10):
        eps = F(rng.randrange(0, 33), 32)
        w = wedge(eps, 0)
        r = iso_bound(w, rng.randrange(1, 4))
        assert r.raw_bound >= nl_value(w)[0]


def test_bound_report_json():
    r = general_bound(wedge_pair(F(1, 2)), 2)
    obj = r.to_json_obj()
    assert obj["raw_bound"] == str(r.raw_bound)
    assert obj["decomposition"]["epsilon"] == "1/3"
    assert obj["witness_profile"] == list(r.witness_profile.as_tuple())


def test_bound_pr_is_clamped():
    r = iso_bound(PR, 1)
    assert r.raw_bound == 4 and r.clamped_bound == 4


def test_bounds_for_relabeled_isotropic_families():
    # mixtures of opposite vertices from every family, dominant either way
    from nldistill import nonlocal_vertex

    for alpha, beta in ((0, 1), (1, 0), (1, 1)):
        v, vbar = nonlocal_vertex(alpha, beta, 0), nonlocal_vertex(alpha, beta, 1)
        for q in (F(7, 8), F(1, 8)):
            box = mix([(q, v), (1 - q, vbar)])
            eps = 2 * abs(2 * q - 1) - 1
            assert nl_value(box)[0] == 2 * (1 + eps)
            canonical = mix([(q, PR), (1 - q, ANTI_PR)])
            for n in (1, 2, 3):
                r = iso_bound(box, n)
                assert r.raw_bound >= 2 * (1 + eps)
                assert r.raw_bound == iso_bound(canonical, n).raw_bound
            g = general_bound(box, 2)
            assert g.decomposition.epsilon == eps
            assert g.raw_bound == iso_bound(box, 2).raw_bound

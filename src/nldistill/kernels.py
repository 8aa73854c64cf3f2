"""Kernels for table filling and profile scans.

Every hot loop in this package works on integer numerators over a common
denominator, with max reductions.  Each kernel is one numpy body that
runs on int64 arrays and on object arrays of Python big ints; callers only
produce int64 arrays once they have proved that all intermediate
magnitudes fit.  On object arrays ``fill_wedge``, the profile scan
``iso_scan`` and the search's ``bilinear_scan`` first run the same body on
a float64 shadow of their inputs, keep the candidates within a proved
rounding margin of the float optimum (``filter_margin``) and evaluate only
those in Python ints; a fill block with more than ``FILTER_CAP`` such
survivors runs the exact body instead.  ``float_shadow`` converts a whole
array at once: each entry over a power of two 2^e >= the scale, so that
only the int -> float conversion rounds.
``grid_scan`` sweeps only the profiles with l0 <= size/2 and gets the rest
of the grid by a reflection; like ``iso_scan``'s k0 cap, it relies on the
complement identity proved in the ``delta`` module docstring (see the
comment above ``grid_scan``).  On object arrays it runs in Python ints.
``bilinear_scan`` never forms the search's atom table: for fixed b0, b1
the best decision tables are sign patterns, so each cell is a sum of
absolute values of the wiring vectors (see the comment above
``_sign_pass``).  On integers it runs in int32 when 4*scale < 2^31, which
bounds every integer it forms (see the comment above ``bilinear_scan``).
``fill_wedge`` computes only the capped wedge k <= l <= size - k of a
level; ``delta._complete_grid`` derives every other cell by the symmetry
and the transposed complement.  Large int64 levels of ``fill_wedge`` bound
each row's optimum from above in floats and evaluate in int64 only the
rows whose bound reaches an exact lower bound of their cell (see the
comment above ``fill_wedge``).
``iso_scan`` takes one tiled pass on both dtypes, on int64 grids and on
the float shadows of object grids: it bounds each pair of (l0, l1) tiles
from above by tile extremes and evaluates only the pairs whose bound
reaches, within the margin, the best value of the pair of largest bound
(see the comment above ``_tile_bounds``).  Results are exact on every path.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np


# ---------------------------------------------------------------------------
# Certified float filter (filter, then re-check exactly: the pattern of
# Shewchuk, "Adaptive precision floating-point arithmetic and fast robust
# geometric predicates", 1997).
# ---------------------------------------------------------------------------

#: unit roundoff of float64 (round to nearest)
UNIT_ROUNDOFF = 2.0 ** -53

#: a fill block with more float survivors than this runs the exact sweep
#: instead of re-checking them one by one
FILTER_CAP = 1 << 14


#: shadows of entries past 2^SHADOW_EXP are shifted right first, so that
#: every entry converts to a float, none of them subnormal once scaled
SHADOW_EXP = 1000


def float_shadow(x: np.ndarray, scale: int) -> np.ndarray:
    """x / 2^e in float64, 2^e the least power of two >= scale, by one
    vectorised conversion.

    CPython's int -> float conversion rounds correctly, once, and scaling by
    a power of two is exact, so each entry is x / 2^e correctly rounded.
    Past float range (e > SHADOW_EXP) the entries are first floored by
    2^(e - SHADOW_EXP), which moves each by less than 2^-SHADOW_EXP in
    shadow units, far inside the slack of ``filter_margin``.  No entry
    becomes subnormal: a nonzero one reads at least 2^-SHADOW_EXP.  Raises
    ValueError when an entry reads outside [-1, 1]; rounding is monotone,
    so every entry that passes has |x| / 2^e <= 1 + 2^-53, as
    ``filter_margin`` assumes.
    """
    e = (scale - 1).bit_length()
    shift = max(0, e - SHADOW_EXP)
    try:
        shadow = np.ldexp((x >> shift if shift else x).astype(np.float64), shift - e)
    except OverflowError:  # an entry far past 2^e
        shadow = None
    if shadow is None or shadow.size and np.abs(shadow).max() > 1.0:
        raise ValueError(f"a float shadow entry lies outside [-{1 << e}, {1 << e}]")
    return shadow


def filter_margin(depth: int, magnitude: float) -> float:
    """A float filter margin that no exact optimum can fall outside.

    Each candidate is a sum V = sum_i c_i x_i whose inputs x_i, integers
    over one power of two 2^e, are read from a ``float_shadow``
    (|x_i| <= 1 + u, u = 2^-53) and whose coefficients are exact or
    correctly rounded; in the fill c = alpha or beta with alpha, beta >= 0
    and alpha + beta = 1.  Reading x_i is one correct rounding, the
    conversion of the integer, since the division by 2^e is exact.  If
    each term meets at most ``depth`` roundings on its way into the float
    result F (reading x_i, rounding c_i, its product and each later sum),
    the usual bound for floating-point sums (Higham, "Accuracy and
    Stability of Numerical Algorithms", Lemma 3.1) gives

        |F - V| <= gamma_depth * sum_i |c_i x_i| <= gamma_depth * M * (1 + u) =: E,

    gamma_d = d*u / (1 - d*u), M = ``magnitude`` >= sum_i |c_i|.  Shadows
    past float range floor their integers first, which adds less than
    2^-1000 * M to |F - V|, far below the slack that the margin below
    leaves (more than depth*u*M), so the arguments that follow hold with
    it.  Rounding is monotone, so a max of float sums equals the float sum
    of the maxes, and max moves no value by more than its arguments move:
    the float optimum F* of a set of candidates lies within E of its exact
    optimum V*.  Every candidate with V = V* thus has F >= V* - E >= F* - 2E.
    Keeping the candidates with F >= fl(F* - margin) loses none of them
    once margin >= 2E + u*(|F*| + margin), the last term for the rounding
    of the threshold itself.  The value returned, 4*(depth + 1)*u*M, meets
    that for every depth up to 2^40 (where gamma_depth <= 1.001*depth*u),
    and it is more than twice E.

    The pruned int64 fill uses the margin the other way round.  Its float
    bound F of a row's exact optimum V is a sorted cumulative sum of
    computed slopes.  The slopes F sums and those of the split that attains
    V are each a subset of terms of total magnitude at most M, so
    F >= V - 2E.  The row is dropped when F < fl(fl(L) - margin), L the
    exact value of one candidate of its cell, so L <= the cell's optimum and
    |L| <= M.  A row with V >= L has F >= fl(L) - 2E - u*|L| >= fl(L) - 3E,
    so it is kept once margin >= 3E + u*(|fl(L)| + margin), which the value
    returned also meets (3.003*depth + 1 < 4*(depth + 1)); the rows holding
    the optimum are among those kept.  There depth grows with h, 2h + 5 for
    the 2h-term sums, within 2^40 while h <= 2^39.  A float sum below
    -margin has an exact value below 0, since margin > E; the fill's
    majorant test relies on that.
    """
    return 4 * (depth + 1) * UNIT_ROUNDOFF * magnitude


# ---------------------------------------------------------------------------
# Level fill: one dynamic-programming level of the delta tables.
#
# prev (P) holds the level m-1 plus grid, numerators over D_{m-1}; the new
# level entry is
#   max_{i,j} ca*(P[i,j] + P[k-i,l-j]) + cb*(P[i,l-j] + P[k-i,j])
# over the window i in [max(0,k-h), min(k,h)], j likewise, h = 2^(m-1),
# with ca = 2*num(p), cb = den(p) - 2*num(p), all over D_m = 2*den(p)*D_{m-1}.
# Only the capped wedge k <= l <= 2h - k is computed here (so k <= h); the
# caller completes the grid by the (k,l) <-> (l,k) reflection, which gives
# every cell with k + l <= 2h, and the transposed complement
#   x[k, l] = x[2h - l, 2h - k] + (k + l - 2h)*den(p)^m
# for the cells with k + l > 2h, a third of the wedge k <= min(l, h) and of
# its window pairs.  ``DeltaTables.minus`` derives the minus grid from the
# plus grid (see the ``delta`` module docstring for all three identities).
#
# For k <= h the i window is 0..k.  With the rows
#   U_i = ca*P[i] + cb*P[k-i],   V_i = ca*P[k-i] + cb*P[i]
# the entry is the (max,+) convolution
#   out[k, l] = max_i max_j U_i[j] + V_i[l-j],
# the j window being exactly the j with 0 <= j, l-j <= h.  The orbit
# (i, j) -> (k-i, l-j) swaps U_i and V_i, so the rows i <= k/2 suffice.
# The rows (k, i) of consecutive k are stacked in blocks of about
# FILL_BLOCK_ROWS; each block sweeps j once, one add and one max per j,
# over the capped columns k_lo <= l <= 2h - k_lo of its smallest k = k_lo,
# and reduces its rows per k.
#
# Big-int levels sweep each block on the shadow P/2^e, 2^e the least power
# of two >= max(P), with alpha = ca/(ca+cb), beta = cb/(ca+cb), list the
# (row, l) pairs whose float row optimum lies within filter_margin of their
# cell's float optimum, gather those pairs' windows to list the pairs
# (r, j, l) that do, and evaluate only those in Python ints.  A candidate
# sums four terms in [0, 1] of coefficient alpha or beta, alpha + beta = 1,
# so M = 2; each meets 5 roundings (reading P, one conversion, as the
# division by 2^e is exact; rounding alpha; the product; U's sum; U + V).
#
# int64 levels with size >= PRUNE_MIN_SIZE bound, then prune.  A majorant
# phi_x of each row P[x] (the line through the points the float test of
# _majorant_slopes keeps, every vertex of the row's concave majorant among
# them) gives the majorants ca*phi_i + cb*phi_{k-i} of U_i and
# ca*phi_{k-i} + cb*phi_i of V_i.
# U[0] + V[0] plus the sum of the l largest of the two rows' 2h unit-step
# slopes is at least U[j] + V[l-j] for every j: those two sums take j and
# l - j of the slopes.  For concave majorants it is their (max,+)
# convolution, the merge of their slope sequences (Bremner et al.,
# "Necklaces, convolutions, and X+Y", 2014), so one descending sort and a
# cumsum, stopped at l = 2h - k_lo, bound a row at every capped l at once.
# Each cell (k, l) takes the exact optimum L of its largest-bound row as a
# lower bound, and only the other (row, l) pairs whose float bound, widened
# by filter_margin, reaches L are evaluated in int64.  On the four
# cold_int64 tables of the benchmark a level 8 fill evaluates 9-12 % of
# its capped (row, l) pairs; below level 8 the bound pass costs more than
# it saves.  A block past PRUNE_CAP sweeps
# instead, and so does the rest of its level.  At p = 0 and p = 1/2, where
# ca*cb = 0, nearly every row ties with its cell's optimum (97 % of the
# (row, l) pairs at level 8 reach L), so those levels sweep from the start
# without building a pruner; every block still counts as a prune fallback.
# ---------------------------------------------------------------------------

#: rows (k, i) per block of the level fill; about 1 MB of int64 working
#: set at level 8
FILL_BLOCK_ROWS = 256

#: int64 levels of at least this size bound, then prune; at level 7 the
#: pruned fill ran at 0.6-0.9x of the sweep, at level 8 about 2x
PRUNE_MIN_SIZE = 256

#: a pruned block that must evaluate more than this share of its capped
#: (row, l) pairs sweeps instead, and so does the rest of its level
PRUNE_CAP = 0.25

#: about this many elements per chunk of gathered windows
GATHER_CHUNK = 1 << 15

#: pads a gathered window past its j range: while |U|, |V| <= 2^59 (on
#: tables (ca+cb)*max(P) <= D_m/2 <= 2^58), a sum with a pad lies below
#: every candidate U + V, and two pads add up without overflow
_INT_PAD = -(1 << 61)


def fill_wedge(prev: np.ndarray, ca, cb):
    """Fill the capped wedge k <= l <= size - k of one level's plus grid,
    size = 2*(len(prev) - 1), the other cells 0; returns (grid, counts).
    ``counts`` holds the paths the fill took: big-int ``survivors`` (pairs
    evaluated exactly) and ``fallbacks`` (blocks swept exactly), int64
    ``prune_kept`` ((row, l) pairs evaluated exactly) and ``prune_fallbacks``
    (blocks swept in full)."""
    size = 2 * (len(prev) - 1)
    out = np.zeros((size + 1, size + 1), dtype=prev.dtype)
    counts = Counter()
    filtered = prev.dtype == object
    prunes = not filtered and size >= PRUNE_MIN_SIZE
    if filtered:
        shadow = float_shadow(prev, max(int(prev.max()), 1))
        alpha, beta = ca / (ca + cb), cb / (ca + cb)
    pruner = _Pruner(prev, ca, cb) if prunes and ca * cb else None
    for k_lo, ks, iv in _fill_blocks(size):
        best = None
        if filtered:
            kept = _filtered_block(out, prev, shadow, ks, iv, k_lo, ca, cb,
                                   alpha, beta)
            if kept is not None:
                counts["survivors"] += kept
                continue
            counts["fallbacks"] += 1
        elif pruner is not None:
            found = pruner.block(ks, iv, k_lo)
            if found is None:
                pruner = None  # the rest of the level sweeps as well
            else:
                best = found[0]
                counts["prune_kept"] += found[1]
        if best is None:
            if prunes:
                counts["prune_fallbacks"] += 1
            # entries and coefficients are >= 0, so every candidate is too
            _, _, acc = _block_sweep(prev, ks, iv, ca, cb, k_lo, -1)
            best = np.maximum.reduceat(acc, np.flatnonzero(iv == 0), axis=0)
        for r, kk in enumerate(range(k_lo, int(ks[-1]) + 1)):
            out[kk, kk:size - kk + 1] = best[r, kk - k_lo:size - kk - k_lo + 1]
    return out, counts


def _fill_blocks(size: int):
    """(k_lo, ks, iv) per block: the rows (k, i <= k/2) of consecutive k,
    as many k as keep the block within FILL_BLOCK_ROWS rows, and at least
    one."""
    h = size // 2
    counts = np.arange(h + 1) // 2 + 1  # the rows of each k
    ends = np.cumsum(counts)  # the rows of every k up to each k
    ks = np.repeat(np.arange(h + 1), counts)
    iv = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
    k = 0
    while k <= h:
        start = int(ends[k] - counts[k])
        stop = max(k + 1, int(np.searchsorted(ends, start + FILL_BLOCK_ROWS, "right")))
        end = int(ends[stop - 1])
        yield k, ks[start:end], iv[start:end]
        k = stop


def _window_terms(u, v, k_lo: int):
    """(j, acc columns, candidates) per j of a block whose accumulator holds
    the capped wedge columns k_lo <= l <= 2h - k_lo: cand[r, t - t0] =
    u[r, j] + v[r, t] is the pair (j, l = j + t) of row r, at accumulator
    column l - k_lo."""
    h = u.shape[1] - 1
    for j in range(h + 1):
        t0, t1 = max(0, k_lo - j), min(h, 2 * h - k_lo - j)
        yield j, slice(j + t0 - k_lo, j + t1 + 1 - k_lo), u[:, j:j + 1] + v[:, t0:t1 + 1]


def _block_sweep(prev, ks, iv, ca, cb, k_lo: int, seed):
    """The rows U, V of a block and acc[r, l - k_lo] = max_j U[r, j] + V[r, l - j]
    over k_lo <= l <= 2h - k_lo, starting from ``seed``, which must lie below
    every candidate."""
    a, b = prev[iv], prev[ks - iv]
    u, v = ca * a + cb * b, ca * b + cb * a
    acc = np.full((len(ks), 2 * prev.shape[0] - 1 - 2 * k_lo), seed, dtype=u.dtype)
    for _, cols, cand in _window_terms(u, v, k_lo):
        seg = acc[:, cols]
        np.maximum(seg, cand, out=seg)
    return u, v, acc


def _padded_windows(u, v, pad):
    """u and v reversed, each padded with ``pad`` to 2h + 1 columns, for
    ``_window_chunks``."""
    n = u.shape[1]
    up, vp = np.empty((2, len(u), 2 * n - 1), dtype=u.dtype)
    up[:, :n], vp[:, :n] = u, v[:, ::-1]
    up[:, n:] = vp[:, n:] = pad
    return up, vp


def _window_chunks(up, vp, rows, ls):
    """Yield (sel, j0, cand) over chunks of the (row, l) pairs (rows[sel],
    ls[sel]) of ``_padded_windows`` rows: cand[p, t] = u[r, j0 + t] +
    v[r, l - j0 - t] over the pair's j window j0 = max(0, l - h) ..
    min(l, h), then pad sums.  The pairs go in groups of window widths
    within (h + 1)/8 of each other, so padding adds at most that much per
    pair, and in chunks of about GATHER_CHUNK elements."""
    n = (up.shape[1] + 1) // 2
    off = ls - (n - 1)
    j0, t0 = np.maximum(off, 0), np.maximum(-off, 0)
    step = max(8, n // 8)
    group = (n - np.abs(off) - 1) // step
    order = np.argsort(group, kind="stable")
    ends = np.searchsorted(group[order], np.arange(group.max(initial=0) + 1), "right")
    u_win = np.lib.stride_tricks.sliding_window_view(up, n, axis=1)
    v_win = np.lib.stride_tricks.sliding_window_view(vp, n, axis=1)
    start = 0
    for g, end in enumerate(ends.tolist()):
        width = min(n, (g + 1) * step)
        per = max(1, GATHER_CHUNK // width)
        for s in range(start, end, per):
            sel = order[s:min(s + per, end)]
            r = rows[sel]
            cand = u_win[r, j0[sel], :width]
            cand += v_win[r, t0[sel], :width]
            yield sel, j0[sel], cand
        start = end


def _window_max(up, vp, rows, ls):
    """The (max,+) entries max_j u[r, j] + v[r, l - j] at the (row, l) pairs."""
    out = np.empty(len(rows), dtype=up.dtype)
    for sel, _, cand in _window_chunks(up, vp, rows, ls):
        out[sel] = cand.max(axis=1)
    return out


def _filtered_block(out, prev, shadow, ks, iv, k_lo: int, ca, cb, alpha, beta):
    """Write the block's capped wedge cells k <= l <= 2h - k of ``out``
    through the float filter and return the surviving pairs; None, writing
    nothing, past FILTER_CAP."""
    uf, vf, acc = _block_sweep(shadow, ks, iv, alpha, beta, k_lo, -np.inf)
    best = np.maximum.reduceat(acc, np.flatnonzero(iv == 0), axis=0)[ks - k_lo]
    thr = best - filter_margin(5, 2.0)
    # a row's columns l < k and l > 2h - k are no capped wedge cells;
    # nothing survives there
    width = 2 * prev.shape[0] - 1  # size + 1
    ls = np.arange(thr.shape[1]) + k_lo
    thr[(ls < ks[:, None]) | (ls >= width - ks[:, None])] = np.inf
    # acc[r, c] is the float max over the pair's candidates, so a (row, l)
    # pair holds a survivor exactly when its acc entry passes
    rows, cols = np.nonzero(acc >= thr)
    if len(rows) > FILTER_CAP:
        return None
    found, count = [], 0
    up, vp = _padded_windows(uf, vf, -np.inf)
    for sel, j0, cand in _window_chunks(up, vp, rows, cols + k_lo):
        p, t = np.nonzero(cand >= thr[rows[sel], cols[sel]][:, None])
        count += len(p)
        if count > FILTER_CAP:
            return None
        found.append((rows[sel[p]], j0[p] + t, cols[sel[p]] + k_lo))
    r, j, l = (np.concatenate(parts) for parts in zip(*found))
    k, i = ks[r], iv[r]
    exact = (ca * (prev[i, j] + prev[k - i, l - j])
             + cb * (prev[i, l - j] + prev[k - i, j]))
    key = k * width + l
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    cells = sum(width - 2 * kk for kk in range(k_lo, int(ks[-1]) + 1))
    if len(starts) != cells:
        raise AssertionError(
            f"the float filter kept {len(starts)} of {cells} wedge cells")
    key = key[starts]
    out[key // width, key % width] = np.maximum.reduceat(exact[order], starts)
    return count


def _majorant_slopes(q):
    """Unit-step slopes d[x, t] = phi_x(t + 1) - phi_x(t), t < h, of a
    majorant phi_x of each row of the int64 grid q.

    phi_x is the line through the points of row x that survive the removal,
    round by round, of every point j whose float cross product against its
    surviving neighbours a < j < b is below -filter_margin(4, 4*(b-a)*top):
    four terms of coefficients at most b - a, each meeting 4 roundings
    (reading q, the difference, the product, the final difference).  Such a
    point lies strictly below the chord of a and b, so it is no vertex of the
    row's concave majorant, and the line through the survivors stays above
    it.  Points within the margin of the chord may survive; that costs
    tightness only.
    """
    x = q.astype(np.float64)
    n = x.shape[1]
    top = float(max(np.abs(q).max(), 1))
    cols = np.arange(n)
    rows = np.arange(len(x))[:, None]
    alive = np.ones(x.shape, dtype=bool)
    while True:
        a = np.maximum.accumulate(np.where(alive, cols, -1), axis=1)
        b = np.minimum.accumulate(np.where(alive, cols, n)[:, ::-1], axis=1)[:, ::-1]
        # the surviving neighbours of each point: before and after it
        a, b = np.c_[np.full(len(x), -1), a[:, :-1]], np.c_[b[:, 1:], np.full(len(x), n)]
        inner = alive & (a >= 0) & (b < n)
        a, b = np.clip(a, 0, n - 1), np.clip(b, 0, n - 1)
        xa, w = x[rows, a], b - a
        cross = (x - xa) * w - (x[rows, b] - xa) * (cols - a)
        drop = inner & (cross < -filter_margin(4, 4.0 * w * top))
        if not drop.any():
            break
        alive &= ~drop
    a = np.maximum.accumulate(np.where(alive, cols, 0), axis=1)[:, :-1]
    b = np.minimum.accumulate(np.where(alive, cols, n)[:, ::-1], axis=1)[:, ::-1][:, 1:]
    return (x[rows, b] - x[rows, a]) / (b - a)


def _pair_sums(left, right, spans, out):
    """out[r] = left[i] + right[k - i] over the rows r = (k, i <= k/2) of a
    block, one add of two views per k: ``spans`` holds (k, first row, end
    row) per k, and the rows of one k run i = 0, 1, ...  Views, not gathered
    copies: at level 10 the gathers took a fifth of the pruned fill."""
    for k, r0, r1 in spans:
        np.add(left[:r1 - r0], right[k + r0 - r1 + 1:k + 1][::-1], out=out[r0:r1])


class _Pruner:
    """Bound-then-prune blocks of one int64 level on the grid q of the level
    below, with the per-level inputs its blocks share and the buffers they
    reuse: a fresh array per block costs more in page faults than in
    arithmetic."""

    def __init__(self, q, ca, cb):
        h = q.shape[1] - 1
        rows = max(FILL_BLOCK_ROWS, h // 2 + 1)
        self.q, self.ca, self.cb = q, ca, cb
        self.qa, self.qb = ca * q, cb * q
        slopes = _majorant_slopes(q)
        self.sa, self.sb = ca * slopes, cb * slopes
        # F sums 2h unit slopes of two terms each and U[0] + V[0]; a term
        # meets at most 2h + 5 roundings: reading q, the difference, the
        # division, the product with ca or cb, their sum, 2h - 1 cumsum
        # adds, the last add
        top = max(int(np.abs(q).max()), 1)
        self.margin = filter_margin(2 * h + 5, float((4 * h + 2) * (ca + cb) * top))
        self.merged = np.empty((rows, 2 * h))
        self.sums = np.empty((rows, 2 * h + 1))
        self.windows = np.empty((2, rows, 2 * h + 1), dtype=np.int64)
        self.windows[:, :, h + 1:] = _INT_PAD

    def block(self, ks, iv, k_lo: int):
        """(best, evaluated): best[k - k_lo, l - k_lo] = max over the block's
        rows (k, i) and j of U_i[j] + V_i[l - j], exact at every capped wedge
        cell k <= l <= 2h - k, and the (row, l) pairs it evaluated exactly.
        None when that would exceed PRUNE_CAP of the block's capped wedge
        (row, l) pairs."""
        q, h = self.q, self.q.shape[1] - 1
        a, b = iv, ks - iv
        rk = ks - k_lo
        top = 2 * h - k_lo  # the last capped column
        ncols = top + 1 - k_lo
        starts = np.flatnonzero(iv == 0)
        spans = list(zip(range(k_lo, k_lo + len(starts)), starts.tolist(),
                         starts[1:].tolist() + [len(ks)]))
        # the bound at column l - k_lo: U[0] + V[0] + the l largest slopes
        merged, sums = self.merged[:len(ks)], self.sums[:len(ks)]
        _pair_sums(self.sa, self.sb, spans, merged[:, :h])
        _pair_sums(self.sb, self.sa, spans, merged[:, h:])
        merged.sort(axis=1)
        sums[:, 0] = 0.0
        np.cumsum(merged[:, ::-1][:, :top], axis=1, out=sums[:, 1:top + 1])
        bound = sums[:, k_lo:top + 1]
        bound += ((self.ca + self.cb) * (q[a, 0] + q[b, 0])).astype(np.float64)[:, None]
        # lower bounds: each cell's first row of largest bound, evaluated exactly
        group = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, len(ks)]))
        largest = np.maximum.reduceat(bound, starts, axis=0)
        first = np.where(bound == largest[group], np.arange(len(ks))[:, None], len(ks))
        first = np.minimum.reduceat(first, starts, axis=0)
        col, first_col = np.arange(ncols), rk[starts, None]
        cg, cc = np.nonzero((col >= first_col) & (col < ncols - first_col))
        lead = first[cg, cc]
        up, vp = self.windows[:, :len(ks)]
        _pair_sums(self.qa, self.qb, spans, up[:, :h + 1])
        _pair_sums(self.qb[:, ::-1], self.qa[:, ::-1], spans, vp[:, :h + 1])
        best = np.full(largest.shape, _INT_PAD, dtype=np.int64)
        best[cg, cc] = _window_max(up, vp, lead, cc + k_lo)
        thr = np.full(largest.shape, np.inf)
        thr[cg, cc] = best[cg, cc].astype(np.float64) - self.margin
        keep = bound >= thr[group]
        keep[lead, cc] = False
        evaluated = len(lead) + int(np.count_nonzero(keep))
        if evaluated > PRUNE_CAP * int((ncols - 2 * rk).sum()):
            return None
        rows, cols = np.nonzero(keep)
        np.maximum.at(best, (group[rows], cols), _window_max(up, vp, rows, cols + k_lo))
        return best, evaluated


def _wedge_pairs(size: int) -> int:
    """Window pairs (i, j) over the wedge cells of one level's fill:
    the sum over k <= h, l >= k of (k+1) * |j window of l|."""
    h = size // 2
    total = tail = 0
    for l in range(size, -1, -1):
        tail += min(l, h) - max(0, l - h) + 1  # j-window widths of l..size
        if l <= h:
            total += (l + 1) * tail
    return total


# ---------------------------------------------------------------------------
# Profile scan.  The isotropic bound (size = 2^n) maximizes
#   xp[k0,l0] + xp[k0,l1] + off_a[k0] + xp[k1,l0] - xm[k1,l1] + off_b[l0]
# over k0 < len(off_a) and every k1, l0, l1, with off_a[k0] = -k0*dpn and
# off_b[l0] = (size/2 - l0)*dpn: the class bound scaled by
# 2^(n-2)*den(p)^n.  It returns the lex-min maximizer (k0, k1, l0, l1).
# With no k0-k1 cross term the value of the cell (l0, l1) is
#   max_k0 a[k0] + max_k1 c[k1] + off_b[l0],
#   a[k0] = xp[k0,l1] + off_a[k0] + xp[k0,l0],  c[k1] = xp[k1,l0] - xm[k1,l1],
# and ``_best_cells`` evaluates the cells of one l0 at a time, each with its
# first-argmax k0 and k1, the least best ones.
#
# One pass serves both dtypes: it runs on int64 grids as they are and on
# the float shadows of object grids.  The l axis is cut into tiles of width
# max(1, isqrt(size) // 2); the last one is ragged.  For a tile pair
# (T0, T1), with max_T and min_T taken over the tile's columns of one row,
# every cell (l0 in T0, l1 in T1) is at most
#   max_k0 (max_T1 xp[k0] + off_a[k0] + max_T0 xp[k0])
#     + max_k1 (max_T0 xp[k1] - min_T1 xm[k1]) + max_T0 off_b,
# since each term of the cell is at most its tile extreme at the same k0
# or k1.  One reduceat per array gives the tile extremes, and the bounds
# take O((S/width)^2 * S) adds, one T0 row at a time.  The pair of largest
# bound is evaluated; its best value L is the value of a cell, so L <= V*,
# the optimum.  Every optimal cell lies in a pair whose bound is >= V*
# >= L.  The scan evaluates the cells of every pair with bound >= L - margin
# and keeps those within margin of their best, the optimal cells among them.
#
# On int64 the margin is 0, and the cells kept are exactly the optimal
# ones: every bound is an integer sum of the terms a cell adds, so the int64
# premise of the grids covers it.  The witness is their lex-min
# (k0, k1, l0, l1).  Object grids are scanned on float shadows: each input,
# offsets included, divided by 2^e, the least power of two >= scale =
# size*dpn, which bounds every entry.  Grid numerators lie in [0, size*dpn]
# and the offsets in [-size*dpn, size*dpn/2], so a cell and a tile bound
# alike sum six terms in [-1, 1], and M = 6.  Each term meets at most 5
# roundings: its reading (one conversion; the division by 2^e is exact), the
# add of off_a, the add of the T0 extreme (xp[k0,l0] in a cell), the add of
# the c part, the add of off_b; a c term meets its reading, the
# subtraction, and the last two adds.  Rounding is monotone, so the tile
# extremes of a shadow are the shadows of the exact extremes, and the proof
# of filter_margin(5, 6) covers both keep tests: a pair holding an optimal
# cell has a float bound >= V* - E >= L - 2E, and an optimal cell a float
# value within 2E of the best kept one.  The cells kept are evaluated again,
# by the same ``_best_cells`` on the Python-int grids, and the witness is the
# lex-min over the exact optimal ones.  There is no cap: when every cell
# survives, as on all-tie grids, the re-check is one exact sweep of them.
# The width grows with n, as measured: at n = 8 a width of 8 keeps 0.5-2 %
# of the int64 tile pairs and a fixed 16 kept up to 30 % (p = 31/80); at
# n = 7 the float bound keeps 0.4-24 % of the pairs of width 5 (24 % at
# p = 301/800).
# ---------------------------------------------------------------------------

def _tile_bounds(xp, xm, off_a, off_b, starts):
    """bound[T0, T1] >= the profile objective at every cell (l0 in T0, l1 in
    T1) of the tiles that begin at ``starts``: the tile maxima of xp and the
    tile minima of xm, taken per row, in place of the cell's entries."""
    def per_tile(x, reduce):
        # [T, k]: the reduction of row k of x over tile T
        return np.ascontiguousarray(reduce.reduceat(x, starts, axis=1).T)
    hi, lo = per_tile(xp, np.maximum), per_tile(xm, np.minimum)
    hi_a = hi[:, :len(off_a)]
    hi_a_off = hi_a + off_a
    bound = np.empty((len(starts), len(starts)), dtype=xp.dtype)
    # one T0 row at a time keeps the temporaries at tiles x rows
    for t0 in range(len(starts)):
        bound[t0] = (hi_a_off + hi_a[t0]).max(axis=1) + (hi[t0] - lo).max(axis=1)
    bound += np.maximum.reduceat(off_b, starts)[:, None]
    return bound


def _tile_rows(keep, width: int, cols: int):
    """(l0, ascending l1s) over the cells of the tile pairs keep[T0, T1] of
    ``width`` columns each, the last one cut at ``cols``."""
    for t0 in np.flatnonzero(keep.any(axis=1)).tolist():
        l1s = np.flatnonzero(np.repeat(keep[t0], width)[:cols])
        for l0 in range(t0 * width, min((t0 + 1) * width, cols)):
            yield l0, l1s


def _best_cells(xp, xm, off_a, off_b, rows, margin):
    """(l0, l1, value, k0, k1) arrays of the cells within ``margin`` of the
    best among the cells (l0, l1 in l1s) of ``rows``, in their order; k0
    and k1 are each cell's first argmax."""
    a_cols = xp[:len(off_a)] + off_a[:, None]
    parts = []
    for l0, l1s in rows:
        # a few l1 per l0: gather their columns rather than transpose
        a = a_cols[:, l1s] + xp[:len(off_a), l0, None]
        c = xp[:, l0, None] - xm[:, l1s]
        k0, k1 = a.argmax(axis=0), c.argmax(axis=0)
        j = np.arange(len(l1s))
        parts.append((np.full(len(l1s), l0), l1s, a[k0, j] + c[k1, j] + off_b[l0],
                      k0, k1))
    l0, l1, value, k0, k1 = (np.concatenate(col) for col in zip(*parts))
    near = value >= value.max() - margin
    return l0[near], l1[near], value[near], k0[near], k1[near]


def iso_scan(xp, xm, dpn, k0_cap, size):
    """The isotropic bound's profile scan; returns (best, (k0, k1, l0, l1))."""
    ks = np.arange(size + 1).astype(xp.dtype)
    args = (xp, xm, -ks[:k0_cap + 1] * dpn, (size // 2 - ks) * dpn)
    scan, margin = args, 0
    if xp.dtype == object:
        scan = [float_shadow(x, size * dpn) for x in args]
        margin = filter_margin(5, 6.0)
    width, cols = max(1, math.isqrt(size) // 2), size + 1
    bound = _tile_bounds(*scan, np.arange(0, cols, width))
    top = np.zeros(bound.shape, dtype=bool)
    top.flat[bound.argmax()] = True
    floor = _best_cells(*scan, _tile_rows(top, width, cols), 0)[2][0]
    cells = _best_cells(*scan, _tile_rows(bound >= floor - margin, width, cols), margin)
    if xp.dtype == object:
        # the float survivors come ordered by l0; re-check them exactly
        l0s, starts = np.unique(cells[0], return_index=True)
        cells = _best_cells(*args, zip(l0s.tolist(), np.split(cells[1], starts[1:])), 0)
    l0, l1, value, k0, k1 = cells
    i = np.lexsort((l1, l0, k1, k0))[0]
    return int(value[i]), (int(k0[i]), int(k1[i]), int(l0[i]), int(l1[i]))


# ---------------------------------------------------------------------------
# The n <= 2 search.  An atom (p, f) of one side pairs a wiring plan p with a
# decision table f, a bitmask over the size = 2^n outcome strings, whose
# sign vector is s_f[a] = 1 - 2*f(a); its index is p*2^size + f.  The
# anchor-00 CHSH sum of the atoms (a0, a1, b0, b1) is
#   T[a0,b0] + T[a0,b1] + T[a1,b0] - T[a1,b1],   T[(p,f), b] = s_f . u_b[p],
# with u_b[p] = W_pq s_g for b = (q, g) and W_pq the wiring numerators of
# the plan pair.  For fixed (b0, b1) put v = u_b0 + u_b1, w = u_b0 - u_b1.
# The best a0 and a1 are then sign patterns, as max_f s_f . x = sum_a |x_a|,
# reached by the f that sets the bits where x_a < 0; a0 keeps f(0) = 0 (the
# complement reduction), and its max is x_0 + sum_{a>=1} |x_a|.  So
#   cell(b0, b1) = max_p A(v[p]) + max_p B(w[p]),
# A(x) = x_0 + sum_{a>=1} |x_a|,   B(x) = sum_a |x_a|.
#
# The complement ~b = (q, ~g) has u_~b = -u_b, so the half atoms h = (q, g)
# with bit 0 of g clear carry every u, in ``u[p, a, h]``.  For a half pair
# (h0, h1) with V+ = u_h0 + u_h1 and V- = u_h0 - u_h1, as B(-x) = B(x),
#   (h0, h1): A(V+) + B(V-)       (h0, ~h1): A(V-) + B(V+)
#   (~h0, h1): A(-V-) + B(V+)     (~h0, ~h1): A(-V+) + B(V-),
# so one pass over the H x H half pairs, one plan at a time in reused
# buffers, keeps the running maxima over p of A(V), A(-V) and B(V) for both
# V and yields all four cells.  No entry of T is formed.
#
# The witness is the lex-min (a0, a1, b0, b1) over the optimal cells, each
# cell taking its least best a0 and a1: the first plan reaching the max and
# the least mask, the bits where x_a < 0 strictly (bit 0 of a0 kept
# clear).  The cells (b0, b1) and (b1, b0) tie in value, but their a1 masks
# are complements, so every tied cell is evaluated, by ``_search_cells``.
#
# Object arrays run the pass on a float shadow and evaluate the cells near
# its optimum exactly; the margin is proved in ``bilinear_scan``'s docstring.
# int64 vectors run in int32 when their scale allows it; the bound is proved
# above ``bilinear_scan``.
# ---------------------------------------------------------------------------

#: cells per chunk of ``_search_cells``
SEARCH_CHUNK = 1 << 10


def _sign_pass(u):
    """cells[b0, b1]: the value of every cell, in one pass over the half
    pairs, one plan at a time."""
    n_plans, size, n_half = u.shape
    x = np.empty((2, size, n_half, n_half), dtype=u.dtype)  # V+, V-
    # per V: sum_{a>=1} |V_a|, and a candidate A or B
    mag, cand = np.empty((2, 2, n_half, n_half), dtype=u.dtype)
    lowest = -np.inf if u.dtype == np.float64 else np.iinfo(u.dtype).min
    best_b = np.full_like(mag, lowest)
    best_a = np.full((2, 2, n_half, n_half), lowest, dtype=u.dtype)  # A(V), A(-V)
    for p in range(n_plans):
        col, row = u[p, :, :, None], u[p, :, None, :]
        np.add(col, row, out=x[0])
        np.subtract(col, row, out=x[1])
        np.abs(x[:, 1:], out=x[:, 1:])
        np.sum(x[:, 1:], axis=1, out=mag)
        v0 = x[:, 0]
        np.maximum(best_a[:, 0], np.add(mag, v0, out=cand), out=best_a[:, 0])
        np.maximum(best_a[:, 1], np.subtract(mag, v0, out=cand), out=best_a[:, 1])
        np.maximum(best_b, np.add(mag, np.abs(v0, out=v0), out=cand), out=best_b)
    # atom[s, h]: the atom of half atom h = (q, g), complemented when s = 1
    n_tables = 1 << size
    q, g = divmod(np.arange(n_half), n_tables // 2)
    atom = q * n_tables + (np.array([[0], [n_tables - 1]]) ^ (2 * g))
    cells = np.empty((2 * n_half, 2 * n_half), dtype=u.dtype)
    for s0, s1 in itertools.product((0, 1), (0, 1)):
        k = s0 ^ s1  # 0: v = +-V+, w = V-;  1: v = +-V-, w = V+
        cells[np.ix_(atom[s0], atom[s1])] = best_a[k, s0] + best_b[1 - k]
    return cells


def _atom_vectors(u):
    """x[b, p, a] = u_b[p, a] for every atom b = q*2^size + g, the half
    atoms' u for even g and the negated u of the complement for odd g."""
    n_plans, size, n_half = u.shape
    n_tables = 1 << size
    ut = u.transpose(2, 0, 1).reshape(-1, n_tables // 2, n_plans, size)  # [q, g/2, p, a]
    x = np.empty((len(ut), n_tables, n_plans, size), dtype=u.dtype)
    x[:, 0::2] = ut
    x[:, 1::2] = -ut[:, ::-1]  # g odd: ~g = 2^size - 1 - g
    return x.reshape(-1, n_plans, size)


def _abs_sum(x, lo: int):
    """sum_{a >= lo} |x[..., a]|, one add per a."""
    total = np.abs(x[..., lo])
    for a in range(lo + 1, x.shape[-1]):
        total += np.abs(x[..., a])
    return total


def _search_cells(x, b0, b1):
    """(value, a0, a1) of the cells (b0, b1) on the ``_atom_vectors`` x,
    exactly: each cell's value with its least best a0 and a1."""
    n_plans, size = x.shape[1:]
    n_tables = 1 << size
    bit = 1 << np.arange(size)

    def best_atom(y, total):
        # the first plan reaching the max, and the bits where y_a < 0
        p = total.argmax(axis=1)
        k = np.arange(len(p))
        return total[k, p], p * n_tables + ((y[k, p] < 0) * bit).sum(axis=1)

    parts = []
    for lo in range(0, len(b0), SEARCH_CHUNK):
        x0, x1 = x[b0[lo:lo + SEARCH_CHUNK]], x[b1[lo:lo + SEARCH_CHUNK]]
        v, w = x0 + x1, x0 - x1
        v_a, a0 = best_atom(v, v[..., 0] + _abs_sum(v, 1))
        a0 &= ~1
        w_b, a1 = best_atom(w, _abs_sum(w, 0))
        parts.append((v_a + w_b, a0, a1))
    return tuple(np.concatenate(part) for part in zip(*parts))


# The int path's width.  The premise sum_a |u[p, a, h]| <= scale, checked
# on entry on both paths, bounds every integer the pass and the cells form:
#   - V+- = u_h0 +- u_h1: each coordinate at most 2*scale, and so is
#     sum_a |V+-_a|;
#   - mag = sum_{a>=1} |V_a| and each candidate mag +- V_0 or mag + |V_0|:
#     at most 2*scale;
#   - a cell, best_a + best_b: at most 4*scale (the iinfo.min seeds are all
#     replaced after plan 0);
#   - in ``_search_cells`` v = x0 + x1 and w = x0 - x1 have the same bounds
#     as V+- and their abs sums, and a cell's v_a + w_b is at most 4*scale.
# So when 4*scale < 2^31 the int64 u is cast to int32 before ``_sign_pass``
# and ``_search_cells``: the same bodies, on half the bytes.  At n = 2 every
# box of perfbench/reference.json fits but r7, whose scale has 30 bits.

def bilinear_scan(u, scale: int):
    """The n <= 2 search over the half-atom vectors ``u[p, a, h]``, each
    column of absolute sum at most ``scale`` (checked; ValueError if not),
    with a0's coordinate-0 bit kept clear.  Returns (best, lex-min
    (a0, a1, b0, b1), survivors), survivors counting the cells that object
    arrays evaluated exactly after the float pass (None on int64).  int64
    vectors run in int32 when 4*scale < 2^31 (see the comment above).

    On object arrays the pass runs on float_shadow(u, scale), and
    ``_search_cells`` evaluates exactly every cell within
    filter_margin(size + 2, 4) of the float optimum.  The margin's premise
    is sum_a |u[p, a, h]| <= scale <= 2^e for every column, 2^e the
    shadow's power of two (true of the search, where u = W s_g and W sums
    to scale).  Fix the plans p, p' that the two maxima of a cell pick.  The
    cell's value then sums 4*size terms +-u/2^e, the entries of u_b0[p],
    u_b1[p], u_b0[p'] and u_b1[p'], so M = 4.  Each term meets at most
    size + 2 roundings: its reading (one conversion; the division by 2^e is
    exact), the add or subtract forming V+ or V-, at most size - 2 adds
    summing the size - 1 terms |x_a|, a >= 1 (a sum of k terms meets at
    most k - 1 roundings whatever its order), the add of x_0 or |x_0|, and
    the add of the two maxima.  The absolute values add none, since
    ||y'| - |y|| <= |y' - y|.  A max moves no value by more than its
    arguments move, so the proof of ``filter_margin`` carries over and
    every optimal cell survives.  There is no cap: ``_search_cells`` is
    the exact path.
    """
    survivors = None
    shadow = float_shadow(u, scale) if u.dtype == object else None
    if np.abs(u).sum(axis=1).max() > scale:
        raise ValueError(f"a column of u sums past {scale} in absolute value")
    if shadow is not None:
        cells = _sign_pass(shadow)
        keep = cells >= cells.max() - filter_margin(u.shape[1] + 2, 4.0)
        survivors = int(np.count_nonzero(keep))
    else:
        if 4 * scale < 1 << 31:
            u = u.astype(np.int32)
        cells = _sign_pass(u)
        keep = cells == cells.max()
    b0, b1 = np.nonzero(keep)
    value, a0, a1 = _search_cells(_atom_vectors(u), b0, b1)
    best = value.max()
    tied = np.flatnonzero(value == best)
    i = tied[np.lexsort((b1[tied], b0[tied], a1[tied], a0[tied]))[0]]
    return int(best), (int(a0[i]), int(a1[i]), int(b0[i]), int(b1[i])), survivors


# ---------------------------------------------------------------------------
# Aggregated class grid: out[sk, sl] is the max of the profile scan's scaled
# objective
#   f = xp[k0,l0] + xp[k0,l1] + xp[k1,l0] - xm[k1,l1] + (h - k0 - l0)*dpn,
# h = size/2, over the profiles with k0 + k1 = sk, l0 + l1 = sl.  For fixed
# l0 it is a[k0, l1] + c[k1, l1] with a = xp[k0,l0] + xp[k0,l1]
# + (h - k0 - l0)*dpn and c = xp[k1,l0] - xm[k1,l1]: per column l1, a
# (max,+) convolution over k.
#
# Symmetry.  Every level grid satisfies the complement identity
#   x[size-k, size-l] = x[k, l] + (size - k - l)*dpn,
# xp by the recursion (the ``delta`` module docstring) and xm through
# xm[k,l] = l*dpn - xp[size-k, l].  Under it the map (k0, k1, l0, l1) ->
# (size-k0, size-k1, size-l0, size-l1) leaves f unchanged: the four table
# terms gain (size-k0-l0) + (size-k0-l1) + (size-k1-l0) - (size-k1-l1)
# = 2*size - 2*k0 - 2*l0 times dpn, the offset becomes
# (h - 2*size + k0 + l0)*dpn, and the dpn coefficients sum back to
# h - k0 - l0.  So the map is a bijection from the profiles of cell
# (sk, sl) onto those of (2*size - sk, 2*size - sl), with equal values,
# and it sends l0 > h to l0 < h.  With g the grid over l0 <= h only,
#   out[sk, sl] = max(g[sk, sl], g[2*size - sk, 2*size - sl]),
# one reflected maximum (the profiles with l0 = h count twice, which a max
# ignores).  This half of the (l0, l1) pairs, rather than l0 + l1 <= size,
# keeps every block a full rectangle: no slab entry is wasted on a ragged
# l1 range, and n = 6 runs in about half the time of the l0 + l1 <= size
# sweep.  Premise: both inputs are level grids, so the identity holds by
# the ``delta`` proofs and is not checked here; ``iso_scan``'s k0 cap rests
# on the same proofs.  The tests check it on built and loaded tables.
#
# Layout.  The l0 sweep runs in blocks of about GRID_BLOCK_CELLS slab
# entries: each block holds a and c as (l0, k, l1) slabs and takes one add
# and one maximum per k0 into its own (l0, sk, l1) accumulator, which then
# folds into out[:, l0:l0+size+1] one l0 at a time.  One l0 per call pair
# would make (size + 1)^2 pairs of numpy calls, which dominate at n <= 6;
# from n = 7 on a block is a single l0.  Temporaries never exceed one block.
# ---------------------------------------------------------------------------

#: the (l0, k1, l1) entries one grid_scan block sweeps per numpy call
GRID_BLOCK_CELLS = 1 << 15


def grid_scan(xp, xm, dpn, size):
    side = size + 1
    # xp and xm hold numerators in [0, size*dpn], so every candidate is at
    # least -2.5*size*dpn; the seed lies below all of them on both dtypes
    floor = -3 * size * dpn
    out = np.full((2 * size + 1, 2 * size + 1), floor, dtype=xp.dtype)
    l0_end = size // 2 + 1
    block = max(1, GRID_BLOCK_CELLS // side ** 2)
    a_rows = -np.arange(side).astype(xp.dtype)[:, None] * dpn + xp
    for lo in range(0, l0_end, block):
        l0s = np.arange(lo, min(l0_end, lo + block))
        x0 = xp[:, l0s].T[:, :, None]
        a = a_rows + (x0 + ((size // 2 - l0s).astype(xp.dtype) * dpn)[:, None, None])
        c = x0 - xm
        acc = np.full((len(l0s), 2 * size + 1, side), floor, dtype=xp.dtype)
        cand = np.empty_like(c)
        for k0 in range(side):
            seg = acc[:, k0:k0 + side]
            np.maximum(seg, np.add(a[:, k0:k0 + 1], c, out=cand), out=seg)
        for l0, part in zip(l0s.tolist(), acc):
            seg = out[:, l0:l0 + side]
            np.maximum(seg, part, out=seg)
    np.maximum(out, out[::-1, ::-1], out=out)
    return out

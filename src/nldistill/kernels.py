"""Kernels for table filling and profile scans.

Every hot loop in this package works on integer numerators over a common
denominator, with max/min reductions.  Each kernel is one numpy body that
runs on int64 arrays and on object arrays of Python big ints; callers only
produce int64 arrays once they have proved that all intermediate
magnitudes fit.  On object arrays ``fill_wedge`` and ``iso_scan`` first
run the same body on a float64 shadow of their inputs (``float_shadow``),
keep the candidates within a proved rounding margin of the float optimum
(``filter_margin``) and evaluate only those in Python ints; a block with
more than ``FILTER_CAP`` such survivors runs the exact body instead.
Results are exact on every path.
"""
from __future__ import annotations

from collections import Counter

import numpy as np


# ---------------------------------------------------------------------------
# Certified float filter (filter, then re-check exactly: the pattern of
# Shewchuk, "Adaptive precision floating-point arithmetic and fast robust
# geometric predicates", 1997).
# ---------------------------------------------------------------------------

#: unit roundoff of float64 (round to nearest)
UNIT_ROUNDOFF = 2.0 ** -53

#: a fill block, or a whole profile scan, with more float survivors than
#: this runs the exact sweep instead of re-checking them one by one
FILTER_CAP = 1 << 14

#: running totals of the big-int fill filter: window pairs re-evaluated
#: exactly ("survivors") and blocks that ran the exact sweep ("fallbacks").
#: ``delta.build_tables`` reports the change per level; the kernels keep
#: their signatures and results, so the totals cannot travel as a value.
filter_counts: Counter = Counter()


def float_shadow(x: np.ndarray, scale: int) -> np.ndarray:
    """x / scale in float64, each entry by exact integer true division.

    Python's int / int is correctly rounded and cannot overflow, because
    the ratio is bounded however large x and scale are.  Raises ValueError
    when an entry reads outside [-1, 1]; rounding is monotone, so every
    entry that passes has |x| / scale <= 1 + 2^-53, as ``filter_margin``
    assumes.
    """
    shadow = np.array([v / scale for v in x.ravel().tolist()],
                      dtype=np.float64).reshape(x.shape)
    if shadow.size and np.abs(shadow).max() > 1.0:
        raise ValueError(f"a float shadow entry lies outside [-{scale}, {scale}]")
    return shadow


def filter_margin(depth: int, magnitude: float) -> float:
    """A float filter margin that no exact optimum can fall outside.

    Each candidate is a sum V = sum_i c_i x_i whose inputs x_i are read from
    a ``float_shadow`` (|x_i| <= 1 + u, u = 2^-53) and whose coefficients
    are exact or correctly rounded; in the fill c = alpha or beta with
    alpha, beta >= 0 and alpha + beta = 1.  If each term meets at most
    ``depth`` roundings on its way into the float result F (reading x_i,
    rounding c_i, its product and each later sum), the usual bound for
    floating-point sums (Higham, "Accuracy and Stability of Numerical
    Algorithms", Lemma 3.1) gives

        |F - V| <= gamma_depth * sum_i |c_i x_i| <= gamma_depth * M * (1 + u) =: E,

    gamma_d = d*u / (1 - d*u), M = ``magnitude`` >= sum_i |c_i|.  Rounding
    is monotone, so an opt of float sums equals the float sum of the opts,
    and max and min move no value by more than their arguments move: the
    float optimum F* of a set of candidates lies within E of its exact
    optimum V*.  Every candidate with V = V* thus has F >= V* - E >= F* - 2E
    (for a min, F <= F* + 2E).  Keeping the candidates with
    F >= fl(F* - margin) loses none of them once margin >= 2E + u*(|F*| +
    margin), the last term for the rounding of the threshold itself.  The
    value returned, 4*(depth + 1)*u*M, meets that for every depth up to
    2^40 (where gamma_depth <= 1.001*depth*u), and it is more than twice E.
    """
    return 4 * (depth + 1) * UNIT_ROUNDOFF * magnitude


# ---------------------------------------------------------------------------
# Level fill: one dynamic-programming level of the delta tables.
#
# prev (P) holds level m-1 numerators over D_{m-1}; the new level entry is
#   opt_{i,j} ca*(P[i,j] + P[k-i,l-j]) + cb*(P[i,l-j] + P[k-i,j])
# over the window i in [max(0,k-h), min(k,h)], j likewise, h = 2^(m-1),
# with ca = 2*num(p), cb = den(p) - 2*num(p), all over D_m = 2*den(p)*D_{m-1}.
# Only the wedge k <= min(l, h) is computed here; the caller completes the
# grid by the (k,l) <-> (l,k) reflection and the complement identity.
#
# For k <= h the i window is 0..k.  With the rows
#   U_i = ca*P[i] + cb*P[k-i],   V_i = ca*P[k-i] + cb*P[i]
# the entry is the (max,+) or (min,+) convolution
#   out[k, l] = opt_i opt_j U_i[j] + V_i[l-j],
# the j window being exactly the j with 0 <= j, l-j <= h.  The orbit
# (i, j) -> (k-i, l-j) swaps U_i and V_i, so the rows i <= k/2 suffice.
# The rows (k, i) of consecutive k are stacked in blocks of about
# FILL_BLOCK_ROWS; each block sweeps j once, one add and one opt per j,
# over l >= the block's smallest k, and reduces its rows per k.
#
# Big-int levels sweep each block on the shadow P/max(P) with
# alpha = ca/(ca+cb), beta = cb/(ca+cb), then sweep it once more to list
# the pairs (r, j, l) within filter_margin of their cell's float optimum,
# and evaluate only those in Python ints.  A candidate sums four terms of
# coefficient alpha or beta, alpha + beta = 1, so M = 2; each meets 5
# roundings (reading P, rounding alpha, the product, U's sum, U + V).
# ---------------------------------------------------------------------------

#: rows (k, i) per block of the level fill; about 1 MB of int64 working
#: set at level 8
FILL_BLOCK_ROWS = 256


def fill_wedge(prev: np.ndarray, size: int, ca, cb, maximize: bool):
    """Fill the wedge region of one level; returns (grid, logical pairs)."""
    out = np.zeros((size + 1, size + 1), dtype=prev.dtype)
    opt = np.maximum if maximize else np.minimum
    # entries and coefficients are >= 0, so every candidate lies in
    # [0, 2*(ca+cb)*max(P)]; the seed lies outside on the losing side
    top = int(prev.max())
    seed = -1 if maximize else 2 * (ca + cb) * top + 1
    filtered = prev.dtype == object
    if filtered:
        shadow = float_shadow(prev, max(top, 1))
        alpha, beta = ca / (ca + cb), cb / (ca + cb)
    for k_lo, ks, iv in _fill_blocks(size):
        if filtered:
            kept = _filtered_block(out, prev, shadow, ks, iv, k_lo, ca, cb,
                                   alpha, beta, maximize)
            if kept is not None:
                filter_counts["survivors"] += kept
                continue
            filter_counts["fallbacks"] += 1
        _, _, acc = _block_sweep(prev, ks, iv, ca, cb, k_lo, opt, seed)
        best = opt.reduceat(acc, np.flatnonzero(iv == 0), axis=0)
        for r, kk in enumerate(range(k_lo, int(ks[-1]) + 1)):
            out[kk, kk:] = best[r, kk - k_lo:]
    return out, _wedge_pairs(size)


def _fill_blocks(size: int):
    """(k_lo, ks, iv) per block: the rows (k, i <= k/2) of consecutive k."""
    h = size // 2
    k = 0
    while k <= h:
        k_lo, rows = k, []
        while k <= h and (not rows or len(rows) + k // 2 < FILL_BLOCK_ROWS):
            rows.extend((k, i) for i in range(k // 2 + 1))
            k += 1
        ks, iv = np.array(rows).T
        yield k_lo, ks, iv


def _window_terms(u, v, k_lo: int):
    """(j, acc columns, candidates) per j of a block whose accumulator holds
    the wedge columns l >= k_lo: cand[r, t - t0] = u[r, j] + v[r, t] is the
    pair (j, l = j + t) of row r, at accumulator column l - k_lo."""
    h = u.shape[1] - 1
    for j in range(h + 1):
        t0 = max(0, k_lo - j)
        yield j, slice(j + t0 - k_lo, j + h + 1 - k_lo), u[:, j:j + 1] + v[:, t0:]


def _block_sweep(prev, ks, iv, ca, cb, k_lo: int, opt, seed):
    """The rows U, V of a block and acc[r, l - k_lo] = opt_j U[r, j] + V[r, l - j]."""
    a, b = prev[iv], prev[ks - iv]
    u, v = ca * a + cb * b, ca * b + cb * a
    acc = np.full((len(ks), 2 * prev.shape[0] - 1 - k_lo), seed, dtype=u.dtype)
    for _, cols, cand in _window_terms(u, v, k_lo):
        seg = acc[:, cols]
        opt(seg, cand, out=seg)
    return u, v, acc


def _filtered_block(out, prev, shadow, ks, iv, k_lo: int, ca, cb, alpha, beta,
                    maximize: bool):
    """Write the block's wedge cells of ``out`` through the float filter and
    return the surviving pairs; None, writing nothing, past FILTER_CAP."""
    opt, keep = (np.maximum, np.greater_equal) if maximize else (np.minimum, np.less_equal)
    lose = -np.inf if maximize else np.inf
    uf, vf, acc = _block_sweep(shadow, ks, iv, alpha, beta, k_lo, opt, lose)
    rk = ks - k_lo
    best = opt.reduceat(acc, np.flatnonzero(iv == 0), axis=0)[rk]
    margin = filter_margin(5, 2.0)
    thr = best - margin if maximize else best + margin
    # a row's columns l < k are no wedge cells; nothing survives there
    thr[np.arange(thr.shape[1]) < rk[:, None]] = -lose
    found, count = [], 0
    for j, cols, cand in _window_terms(uf, vf, k_lo):
        r, c = np.nonzero(keep(cand, thr[:, cols]))
        count += len(r)
        if count > FILTER_CAP:
            return None
        found.append((r, np.full(len(r), j), c + (cols.start + k_lo)))
    r, j, l = (np.concatenate(parts) for parts in zip(*found))
    k, i = ks[r], iv[r]
    exact = (ca * (prev[i, j] + prev[k - i, l - j])
             + cb * (prev[i, l - j] + prev[k - i, j]))
    width = 2 * prev.shape[0] - 1  # size + 1
    key = k * width + l
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    cells = sum(width - kk for kk in range(k_lo, int(ks[-1]) + 1))
    if len(starts) != cells:
        raise AssertionError(
            f"the float filter kept {len(starts)} of {cells} wedge cells")
    key = key[starts]
    out[key // width, key % width] = opt.reduceat(exact[order], starts)
    return count


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
# Profile scans.  For fixed l0 (b0 in the search) the objective is
# a[j, r0] + c[j, r1], so each scan sweeps one slab per outer index, one j
# per contiguous row.  argmax returns the first maximum: the least best r0
# and r1 of each j.  Tied j go to the least (r0, r1, j); slabs merge under
# the full lexicographic rule.
# Slab buffers are reused: past the allocator's mmap threshold a fresh
# array per slab costs more than its arithmetic.
# ---------------------------------------------------------------------------

def _slab_best(a, c):
    """max_j (max_r a[j, r] + max_r c[j, r]) as (value, lex-min (r0, r1, j))."""
    j = np.arange(a.shape[0])
    r0, r1 = a.argmax(axis=1), c.argmax(axis=1)
    v = a[j, r0] + c[j, r1]
    best = v.max()
    tied = np.flatnonzero(v == best)
    return int(best), min(zip(r0[tied].tolist(), r1[tied].tolist(), tied.tolist()))


def _lex_best(cells):
    """The largest value of (value, witness) pairs, with its lex-min witness."""
    best, witness = None, (0, 0, 0, 0)
    for cell, cand in cells:
        if best is None or cell > best or (cell == best and cand < witness):
            best, witness = cell, cand
    return best, witness


# Isotropic-bound profile scan (size = 2^n), exact and scaled by 2^(n-2)*den(p)^n:
#   (size/2 - k0 - l0)*dpn + xp[k0,l0] + xp[k0,l1] + xp[k1,l0] - xm[k1,l1]
# per l0: a[l1, k0 <= k0_cap] = -k0*dpn + xp[k0,l0] + xp[k0,l1] and
# c[l1, k1] = xp[k1,l0] - xm[k1,l1]; witness the lex-min (k0, k1, l0, l1).
#
# Big-int grids scan the shadows xp/(size*dpn), xm/(size*dpn) with dpn
# read as 1/size.  A cell's candidate sums the constant (at most 1/2), the
# k0 term (at most 1) and four table terms (at most 1 each), so M = 6.  A
# table term meets 5 roundings: its reading, the two adds of a, the add of
# a and c, the constant's add; the k0 term meets 6 when size is no power of
# two (1/size and its product round).  Only the cells within
# filter_margin(6, 6) of the float optimum are scanned again in Python ints.

def iso_scan(xp, xm, dpn, k0_cap, size):
    """Exact decoupled max; returns (best, (k0, k1, l0, l1)), lex-min witness."""
    rows = None
    if xp.dtype == object:
        scale = size * dpn
        shadows = _iso_slabs(float_shadow(xp, scale), float_shadow(xm, scale),
                             1 / size, k0_cap, size)
        floats = np.array([a.max(axis=1) + c.max(axis=1) + const
                           for _, _, a, c, const in shadows])
        # argwhere lists the survivors by ascending l0, then l1
        survivors = np.argwhere(floats >= floats.max() - filter_margin(6, 6.0))
        if len(survivors) <= FILTER_CAP:
            l0s, starts = np.unique(survivors[:, 0], return_index=True)
            rows = zip(l0s.tolist(), np.split(survivors[:, 1], starts[1:]))

    def cells():
        for l0, l1s, a, c, const in _iso_slabs(xp, xm, dpn, k0_cap, size, rows):
            cell, (k0, k1, j) = _slab_best(a, c)
            yield cell + const, (k0, k1, l0, j if l1s is None else int(l1s[j]))
    return _lex_best(cells())


def _iso_slabs(xp, xm, dpn, k0_cap, size, rows=None):
    """(l0, l1s, a, c, const) per slab, const = (size/2 - l0)*dpn, over the
    ascending l1 = l1s[j] of the (l0, l1s) pairs in ``rows``; by default
    every l0 with l1s None (all l1), in buffers reused from slab to slab."""
    xpt, xmt = np.ascontiguousarray(xp.T), np.ascontiguousarray(xm.T)
    a_rows = -np.arange(k0_cap + 1).astype(xp.dtype) * dpn + xpt[:, : k0_cap + 1]
    if rows is None:
        a, c = np.empty_like(a_rows), np.empty_like(xmt)
        for l0 in range(size + 1):
            np.add(a_rows, xpt[l0, : k0_cap + 1], out=a)
            yield (l0, None, a, np.subtract(xpt[l0], xmt, out=c),
                   (size // 2 - l0) * dpn)
        return
    for l0, l1s in rows:
        yield (l0, l1s, a_rows[l1s] + xpt[l0, : k0_cap + 1], xpt[l0] - xmt[l1s],
               (size // 2 - l0) * dpn)


# ---------------------------------------------------------------------------
# Aggregated class grid: max of the scaled objective per (k0+k1, l0+l1).
# Per l0 each k0 takes one max of a[k0] + c[k1, l1] into out[k0:k0+S, l0:l0+S].
# ---------------------------------------------------------------------------

def grid_scan(xp, xm, dpn, size):
    # xp and xm hold numerators in [0, size*dpn], so every candidate is at
    # least -2.5*size*dpn; the seed lies below all of them on both dtypes
    out = np.full((2 * size + 1, 2 * size + 1), -3 * size * dpn, dtype=xp.dtype)
    a_rows = -np.arange(size + 1).astype(xp.dtype)[:, None] * dpn + xp
    cand = np.empty_like(xm)
    for l0 in range(size + 1):
        a = a_rows + (xp[:, l0:l0 + 1] + (size // 2 - l0) * dpn)
        c = xp[:, l0:l0 + 1] - xm
        for k0 in range(size + 1):
            seg = out[k0:k0 + size + 1, l0:l0 + size + 1]
            np.maximum(seg, np.add(a[k0], c, out=cand), out=seg)
    return out


# ---------------------------------------------------------------------------
# Brute-force protocol scan: maximize
#   T[a0,b0] + T[a1,b0] + T[a0,b1] - T[a1,b1]
# over independent atom choices, a0 restricted to the ascending ``a0_idx``;
# per b0: a[b1, a0] = T[a0,b0] + T[a0,b1] and c[b1, a1] = T[a1,b0] - T[a1,b1].
# ---------------------------------------------------------------------------

def bilinear_scan(t: np.ndarray, a0_idx: np.ndarray):
    """Exact decoupled max; returns (best, (a0, a1, b0, b1)), lex-min witness."""
    cols = np.arange(t.shape[1])
    return bilinear_cells(t, a0_idx, ((b0, cols) for b0 in cols.tolist()))


def bilinear_cells(t: np.ndarray, a0_idx: np.ndarray, groups):
    """The scan over the cells (b0, b1 in cols) of ascending (b0, cols) groups."""
    tt = np.ascontiguousarray(t.T)
    tt_a0 = np.ascontiguousarray(tt[:, a0_idx])
    a_buf, c_buf = np.empty_like(tt_a0), np.empty_like(tt)

    def cells():
        for b0, cols in groups:
            a = np.take(tt_a0, cols, axis=0, out=a_buf[: len(cols)])
            c = np.take(tt, cols, axis=0, out=c_buf[: len(cols)])
            a += tt_a0[b0]
            cell, (ai, a1, j) = _slab_best(a, np.subtract(tt[b0], c, out=c))
            yield cell, (int(a0_idx[ai]), a1, b0, int(cols[j]))
    return _lex_best(cells())

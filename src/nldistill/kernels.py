"""Integer kernels for table filling and profile scans.

Every hot loop in this package works on integer numerators over a common
denominator, so kernels are pure integer code with max/min reductions.
Each kernel is one numpy body that runs on int64 arrays and, unchanged,
on object arrays of Python big ints.  Callers only produce int64 arrays
once they have proved that all intermediate magnitudes fit.
"""
from __future__ import annotations

import numpy as np


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
# ---------------------------------------------------------------------------

#: rows (k, i) per block of the level fill; about 1 MB of int64 working
#: set at level 8
FILL_BLOCK_ROWS = 256


def fill_wedge(prev: np.ndarray, size: int, ca, cb, maximize: bool):
    """Fill the wedge region of one level; returns (grid, logical pairs)."""
    out = np.zeros((size + 1, size + 1), dtype=prev.dtype)
    h = size // 2
    opt = np.maximum if maximize else np.minimum
    # entries and coefficients are >= 0, so every candidate lies in
    # [0, 2*(ca+cb)*max(P)]; the seed lies outside on the losing side
    seed = -1 if maximize else 2 * (ca + cb) * int(prev.max()) + 1
    k = 0
    while k <= h:
        k_lo, rows = k, []
        while k <= h and (not rows or len(rows) + k // 2 < FILL_BLOCK_ROWS):
            rows.extend((k, i) for i in range(k // 2 + 1))
            k += 1
        ks, iv = np.array(rows).T
        a, b = prev[iv], prev[ks - iv]
        u = ca * a + cb * b
        v = ca * b + cb * a
        # acc[r, l - k_lo] for the wedge columns l >= k_lo
        acc = np.full((len(rows), size + 1 - k_lo), seed, dtype=prev.dtype)
        for j in range(h + 1):
            t0 = max(0, k_lo - j)
            seg = acc[:, j + t0 - k_lo:j + h + 1 - k_lo]
            opt(seg, u[:, j:j + 1] + v[:, t0:], out=seg)
        starts = np.flatnonzero(iv == 0)
        best = opt.reduceat(acc, starts, axis=0)
        for r, kk in enumerate(range(k_lo, k)):
            out[kk, kk:] = best[r, kk - k_lo:]
    return out, _wedge_pairs(size)


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


# Isotropic-bound profile scan (size = 2^n), exact and scaled by 2^(n-2)*den(p)^n:
#   (size/2 - k0 - l0)*dpn + xp[k0,l0] + xp[k0,l1] + xp[k1,l0] - xm[k1,l1]
# per l0: a[l1, k0 <= k0_cap] = -k0*dpn + xp[k0,l0] + xp[k0,l1] and
# c[l1, k1] = xp[k1,l0] - xm[k1,l1]; witness the lex-min (k0, k1, l0, l1).

def iso_scan(xp, xm, dpn, k0_cap, size):
    """Exact decoupled max; returns (best, (k0, k1, l0, l1)), lex-min witness."""
    xpt, xmt = np.ascontiguousarray(xp.T), np.ascontiguousarray(xm.T)
    a_rows = -np.arange(k0_cap + 1).astype(xp.dtype) * dpn + xpt[:, : k0_cap + 1]
    a, c = np.empty_like(a_rows), np.empty_like(xmt)
    best, witness = None, (0, 0, 0, 0)
    for l0 in range(size + 1):
        np.add(a_rows, xpt[l0, : k0_cap + 1], out=a)
        cell, (k0, k1, l1) = _slab_best(a, np.subtract(xpt[l0], xmt, out=c))
        cell += (size // 2 - l0) * dpn
        cand = (k0, k1, l0, l1)
        if best is None or cell > best or (cell == best and cand < witness):
            best, witness = cell, cand
    return best, witness


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
    best, witness = None, (0, 0, 0, 0)
    for b0, cols in groups:
        a = np.take(tt_a0, cols, axis=0, out=a_buf[: len(cols)])
        c = np.take(tt, cols, axis=0, out=c_buf[: len(cols)])
        a += tt_a0[b0]
        cell, (ai, a1, j) = _slab_best(a, np.subtract(tt[b0], c, out=c))
        cand = (int(a0_idx[ai]), a1, b0, int(cols[j]))
        if best is None or cell > best or (cell == best and cand < witness):
            best, witness = cell, cand
    return best, witness

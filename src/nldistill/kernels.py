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
# prev holds level m-1 numerators over D_{m-1}; the new level entry is
#   opt_{i,j} ca*(prev[i,j] + prev[k-i,l-j]) + cb*(prev[i,l-j] + prev[k-i,j])
# over the window i in [max(0,k-h), min(k,h)], j likewise, h = 2^(m-1),
# with ca = 2*num(p), cb = den(p) - 2*num(p), all over D_m = 2*den(p)*D_{m-1}.
# Only the wedge k <= min(l, h) is computed here; the caller completes the
# grid by the (k,l) <-> (l,k) reflection and the complement identity.
# ---------------------------------------------------------------------------

def fill_wedge(prev: np.ndarray, size: int, ca, cb, maximize: bool):
    """Fill the wedge region of one level; returns (grid, evaluated pairs)."""
    out = np.zeros((size + 1, size + 1), dtype=prev.dtype)
    h = size // 2
    ops = 0
    for k in range(h + 1):
        i0, i1 = max(0, k - h), min(k, h)
        for l in range(k, size + 1):
            j0, j1 = max(0, l - h), min(l, h)
            x1 = prev[i0:i1 + 1, j0:j1 + 1]
            x2 = prev[k - i1:k - i0 + 1, l - j1:l - j0 + 1][::-1, ::-1]
            x3 = prev[i0:i1 + 1, l - j1:l - j0 + 1][:, ::-1]
            x4 = prev[k - i1:k - i0 + 1, j0:j1 + 1][::-1, :]
            f = ca * (x1 + x2) + cb * (x3 + x4)
            out[k, l] = f.max() if maximize else f.min()
            ops += f.size
    return out, ops


# ---------------------------------------------------------------------------
# Isotropic-bound profile scan.
#
# Scaled objective (exact, times 2^(n-2) * den(p)^n):
#   (2^(n-1) - k0 - l0)*dpn + xp[k0,l0] + xp[k0,l1] + xp[k1,l0] - xm[k1,l1]
# which decouples into a k0 term and a k1 term for fixed (l0, l1).
# The witness is the lexicographically smallest maximizer (k0,k1,l0,l1).
# ---------------------------------------------------------------------------

def iso_scan(xp, xm, dpn, half_term, k0_cap, size):
    """Exact decoupled max; returns (best, (k0, k1, l0, l1)), lex-min witness."""
    kvec = -np.arange(k0_cap + 1).astype(xp.dtype) * dpn
    best = None
    witness = (0, 0, 0, 0)
    for l0 in range(size + 1):
        base = (half_term - l0) * dpn
        colp_l0 = xp[:, l0]
        for l1 in range(size + 1):
            a = kvec + colp_l0[: k0_cap + 1] + xp[: k0_cap + 1, l1]
            a_arg = int(np.argmax(a))
            c = colp_l0 - xm[:, l1]
            c_arg = int(np.argmax(c))
            cell = base + int(a[a_arg]) + int(c[c_arg])
            cand = (a_arg, c_arg, l0, l1)
            if best is None or cell > best or (cell == best and cand < witness):
                best = cell
                witness = cand
    return best, witness


# ---------------------------------------------------------------------------
# Aggregated class grid: max of the scaled objective per (k0+k1, l0+l1).
# ---------------------------------------------------------------------------

def grid_scan(xp, xm, dpn, half_term, size):
    # xp and xm hold numerators in [0, size*dpn], so every candidate is at
    # least -2.5*size*dpn; the seed lies below all of them on both dtypes
    out = np.full((2 * size + 1, 2 * size + 1), -3 * size * dpn, dtype=xp.dtype)
    kvec = -np.arange(size + 1).astype(xp.dtype) * dpn
    for l0 in range(size + 1):
        base = (half_term - l0) * dpn
        for l1 in range(size + 1):
            sl = l0 + l1
            a = base + kvec + xp[:, l0] + xp[:, l1]
            c = xp[:, l0] - xm[:, l1]
            for k0 in range(size + 1):
                seg = out[k0:k0 + size + 1, sl]
                np.maximum(seg, a[k0] + c, out=seg)
    return out


# ---------------------------------------------------------------------------
# Brute-force protocol scan: maximize
#   T[a0,b0] + T[a1,b0] + T[a0,b1] - T[a1,b1]
# over independent atom choices, a0 restricted to ``a0_idx``.
# ---------------------------------------------------------------------------

def bilinear_scan(t: np.ndarray, a0_idx: np.ndarray):
    """Exact decoupled max; returns (best, (a0, a1, b0, b1)), lex-min witness."""
    best = None
    witness = (0, 0, 0, 0)
    n_b = t.shape[1]
    t_a0 = t[a0_idx, :]
    for b0 in range(n_b):
        col0 = t[:, b0]
        col0_a0 = t_a0[:, b0]
        for b1 in range(n_b):
            a = col0_a0 + t_a0[:, b1]
            ai = int(np.argmax(a))
            c = col0 - t[:, b1]
            ci = int(np.argmax(c))
            cell = int(a[ai]) + int(c[ci])
            cand = (int(a0_idx[ai]), ci, b0, b1)
            if best is None or cell > best or (cell == best and cand < witness):
                best = cell
                witness = cand
    return best, witness

"""Integer kernels for table filling and profile scans.

Every hot loop in this package works on integer numerators over a common
denominator, so kernels are pure integer code with max/min reductions.
Each kernel exists twice:

* a numba ``@njit`` version operating on int64 arrays, and
* a numpy version that accepts both int64 and object arrays; with
  ``dtype=object`` the same code runs on arbitrary-precision Python ints.

The array alone decides which one runs (see ``path``): int64 arrays take
the numba kernels whenever numba is importable, everything else the numpy
kernels.  Callers only produce int64 arrays once they have proved that
all intermediate magnitudes fit.  numba reads its thread count from
``NUMBA_NUM_THREADS``.
"""
from __future__ import annotations

import numpy as np

try:  # pragma: no cover - exercised implicitly by path()
    from numba import njit, prange

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    HAVE_NUMBA = False
    prange = range

    def njit(*args, **kwargs):  # type: ignore[misc]
        def wrap(fn):
            return fn

        return wrap if not (args and callable(args[0])) else args[0]


_SENTINEL = 1 << 62


def path(arr: np.ndarray) -> str:
    """The kernel family that runs on ``arr``: "numba" or "numpy"."""
    return "numba" if HAVE_NUMBA and arr.dtype == np.int64 else "numpy"


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

def _fill_wedge_numpy(prev, out, size, ca, cb, maximize):
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
    return ops


@njit(cache=True, parallel=True)
def _fill_wedge_numba(prev, out, size, ca, cb, maximize):
    # rows are independent given the previous level; prange writes each
    # (k, l) cell exactly once, so the result is schedule-independent
    h = size // 2
    ops = 0
    for k in prange(h + 1):
        i0 = max(0, k - h)
        i1 = min(k, h)
        for l in range(k, size + 1):
            j0 = max(0, l - h)
            j1 = min(l, h)
            best = -_SENTINEL if maximize else _SENTINEL
            # objective is invariant under (i,j) -> (k-i,l-j); scan one
            # representative per orbit but count the pairs covered, so both
            # backends report the same work measure
            for i in range(i0, i1 + 1):
                ri = k - i
                if i > ri:
                    break
                for j in range(j0, j1 + 1):
                    rj = l - j
                    if i == ri and j > rj:
                        break
                    v = ca * (prev[i, j] + prev[ri, rj]) + cb * (
                        prev[i, rj] + prev[ri, j]
                    )
                    if maximize:
                        if v > best:
                            best = v
                    else:
                        if v < best:
                            best = v
                    ops += 1 if (i == ri and j == rj) else 2
            out[k, l] = best
    return ops


def fill_wedge(prev: np.ndarray, size: int, ca, cb, maximize: bool):
    """Fill the wedge region of one level; returns (grid, evaluated pairs)."""
    out = np.zeros((size + 1, size + 1), dtype=prev.dtype)
    if path(prev) == "numba":
        ops = _fill_wedge_numba(
            prev, out, size, np.int64(ca), np.int64(cb), maximize
        )
    else:
        ops = _fill_wedge_numpy(prev, out, size, ca, cb, maximize)
    return out, int(ops)


# ---------------------------------------------------------------------------
# Isotropic-bound profile scan.
#
# Scaled objective (exact, times 2^(n-2) * den(p)^n):
#   (2^(n-1) - k0 - l0)*dpn + xp[k0,l0] + xp[k0,l1] + xp[k1,l0] - xm[k1,l1]
# which decouples into a k0 term and a k1 term for fixed (l0, l1).
# The witness is the lexicographically smallest maximizer (k0,k1,l0,l1).
# ---------------------------------------------------------------------------

@njit(cache=True)
def _iso_scan_numba(xp, xm, dpn, half_term, k0_cap, size):
    best = -_SENTINEL
    bk0 = bk1 = bl0 = bl1 = 0
    for l0 in range(size + 1):
        base = (half_term - l0) * dpn
        for l1 in range(size + 1):
            a_best = -_SENTINEL
            a_arg = 0
            for k0 in range(k0_cap + 1):
                v = -k0 * dpn + xp[k0, l0] + xp[k0, l1]
                if v > a_best:
                    a_best = v
                    a_arg = k0
            c_best = -_SENTINEL
            c_arg = 0
            for k1 in range(size + 1):
                v = xp[k1, l0] - xm[k1, l1]
                if v > c_best:
                    c_best = v
                    c_arg = k1
            cell = base + a_best + c_best
            if cell > best:
                best = cell
                bk0, bk1, bl0, bl1 = a_arg, c_arg, l0, l1
            elif cell == best:
                if (a_arg, c_arg, l0, l1) < (bk0, bk1, bl0, bl1):
                    bk0, bk1, bl0, bl1 = a_arg, c_arg, l0, l1
    return best, bk0, bk1, bl0, bl1


def _iso_scan_numpy(xp, xm, dpn, half_term, k0_cap, size):
    if xp.dtype == object:
        kvec = (-np.arange(k0_cap + 1).astype(object)) * dpn
    else:
        kvec = -np.arange(k0_cap + 1, dtype=np.int64) * dpn
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
    return best, *witness


def iso_scan(xp, xm, dpn, half_term, k0_cap, size):
    if path(xp) == "numba":
        out = _iso_scan_numba(
            xp, xm, np.int64(dpn), np.int64(half_term), k0_cap, size
        )
    else:
        out = _iso_scan_numpy(xp, xm, dpn, half_term, k0_cap, size)
    best, k0, k1, l0, l1 = out
    return int(best), (int(k0), int(k1), int(l0), int(l1))


# ---------------------------------------------------------------------------
# Aggregated class grid: max of the scaled objective per (k0+k1, l0+l1).
# ---------------------------------------------------------------------------

@njit(cache=True)
def _grid_scan_numba(xp, xm, dpn, half_term, size):
    out = np.full((2 * size + 1, 2 * size + 1), -_SENTINEL, dtype=np.int64)
    a = np.empty(size + 1, dtype=np.int64)
    c = np.empty(size + 1, dtype=np.int64)
    for l0 in range(size + 1):
        base = (half_term - l0) * dpn
        for l1 in range(size + 1):
            sl = l0 + l1
            for k in range(size + 1):
                a[k] = base - k * dpn + xp[k, l0] + xp[k, l1]
                c[k] = xp[k, l0] - xm[k, l1]
            for k0 in range(size + 1):
                v0 = a[k0]
                for k1 in range(size + 1):
                    cand = v0 + c[k1]
                    if cand > out[k0 + k1, sl]:
                        out[k0 + k1, sl] = cand
    return out


def _grid_scan_numpy(xp, xm, dpn, half_term, size):
    if xp.dtype == object:
        out = np.full((2 * size + 1, 2 * size + 1), -(1 << 300), dtype=object)
        kvec = (-np.arange(size + 1).astype(object)) * dpn
    else:
        out = np.full((2 * size + 1, 2 * size + 1), -_SENTINEL, dtype=np.int64)
        kvec = -np.arange(size + 1, dtype=np.int64) * dpn
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


def grid_scan(xp, xm, dpn, half_term, size):
    if path(xp) == "numba":
        return _grid_scan_numba(xp, xm, np.int64(dpn), np.int64(half_term), size)
    return _grid_scan_numpy(xp, xm, dpn, half_term, size)


# ---------------------------------------------------------------------------
# Brute-force protocol scan: maximize
#   T[a0,b0] + T[a1,b0] + T[a0,b1] - T[a1,b1]
# over independent atom choices, a0 restricted to ``a0_idx``.
# ---------------------------------------------------------------------------

@njit(cache=True)
def _bilinear_scan_numba(t, a0_idx):
    n_a, n_b = t.shape
    best = -_SENTINEL
    w0 = w1 = wb0 = wb1 = 0
    for b0 in range(n_b):
        for b1 in range(n_b):
            a_best = -_SENTINEL
            a_arg = 0
            for s in range(a0_idx.size):
                a0 = a0_idx[s]
                v = t[a0, b0] + t[a0, b1]
                if v > a_best:
                    a_best = v
                    a_arg = a0
            c_best = -_SENTINEL
            c_arg = 0
            for a1 in range(n_a):
                v = t[a1, b0] - t[a1, b1]
                if v > c_best:
                    c_best = v
                    c_arg = a1
            cell = a_best + c_best
            if cell > best:
                best = cell
                w0, w1, wb0, wb1 = a_arg, c_arg, b0, b1
            elif cell == best:
                if (a_arg, c_arg, b0, b1) < (w0, w1, wb0, wb1):
                    w0, w1, wb0, wb1 = a_arg, c_arg, b0, b1
    return best, w0, w1, wb0, wb1


def _bilinear_scan_numpy(t, a0_idx):
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
    return best, *witness


def bilinear_scan(t: np.ndarray, a0_idx: np.ndarray):
    """Exact decoupled max; returns (best, (a0, a1, b0, b1)), lex-min witness."""
    if path(t) == "numba":
        out = _bilinear_scan_numba(t, a0_idx.astype(np.int64))
    else:
        out = _bilinear_scan_numpy(t, a0_idx)
    best, a0, a1, b0, b1 = out
    return int(best), (int(a0), int(a1), int(b0), int(b1))

"""Scalar reference bodies of the four integer kernels and the simplex.

One explicit loop per term, written independently of the vectorised
kernels in ``nldistill.kernels``; the agreement tests compare the two on
the same int64 inputs, op counts and lexicographic tie-breaks included.
They take int64 arrays; ``bilinear_scan``, whose sentinel lies below
every integer, also takes object arrays of Python ints of any size.
The search's references build the atom table T that the kernel never
forms: ``ip_table`` from a box, ``atom_table`` from the kernel's half-atom
vectors.  ``t_sweep`` is the vectorised sweep of T, one b0 slab at a time,
that the search ran before; it is fast enough for n = 2, where the
scalar ``bilinear_scan`` is not.
``grid_sweep`` is the vectorised class-grid sweep the package ran before
``kernels.grid_scan`` used the symmetries: one ``np.maximum`` per (l0, k0)
over every l0 and k0, on int64 and object arrays alike, fast enough to
check the kernel on real tables up to n = 7.
``iso_sweep`` is the untiled profile scan the package ran before
``kernels.iso_scan`` took its tiled pass: one numpy slab per l0 over every
l1, on int64 and object arrays alike.
``wedge_sweep`` is the level fill as the package ran it before
``kernels.fill_wedge`` stopped each row at l = size - k: the full wedge
k <= min(l, size/2), one (max,+) sweep per k, fast enough for level 9.
``fill_blocks`` is the level fill's block generator as the package ran it
before ``kernels._fill_blocks`` built its rows with ``np.repeat``: a
Python list of (k, i) rows, grown k by k.
``complement_holds`` checks the complement identity of a level grid cell
by cell, in Python ints: the premise of ``iso_scan``'s k0 cap, and one of
the two premises of ``grid_scan``'s orbit sweep; the other is the symmetry
x = x^T of both grids.
``load_payload`` reads a table cache's payload entry by entry, the
reference for the loader's bulk decode; ``format_4_file`` writes a cache
file as format 4 did, with its ``ops=`` header line.  ``solve_max`` is the
simplex on a ``Fraction`` tableau, the reference for the fraction-free one
in ``nldistill.simplex``: same Bland's rule, so the same pivot sequence.
``local_lp`` builds the local-part LP from the vertex tables.
``lp_decomposition`` is the minimal isotropic decomposition as the package
ran it before ``minimal_isotropic`` took the closed form on nonlocal boxes:
the reference simplex's weights for every box, and each later box in
Fractions.
"""
from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from itertools import product

import numpy as np

from nldistill.boxes import (
    LOCAL_VERTICES,
    BinarySystem,
    mix,
    nl_value,
    opposite_vertex,
    vertex_for_expression,
)
from nldistill.decompose import Decomposition
from nldistill.protocols import _bits, _plan_input_table
from nldistill.simplex import SimplexResult, UnboundedError

_SENTINEL = 1 << 62


def fill_wedge(prev, out, size, ca, cb, maximize):
    """Fill the wedge of ``out`` in place; returns the evaluated pairs."""
    h = size // 2
    ops = 0
    for k in range(h + 1):
        i0 = max(0, k - h)
        i1 = min(k, h)
        for l in range(k, size + 1):
            j0 = max(0, l - h)
            j1 = min(l, h)
            best = -_SENTINEL if maximize else _SENTINEL
            # objective is invariant under (i,j) -> (k-i,l-j); scan one
            # representative per orbit but count the pairs covered, so the
            # work measure equals the vectorised kernel's
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


def wedge_sweep(prev, size, ca, cb):
    """The wedge k <= min(l, size/2) of one level's (max,+) fill of the
    int64 grid ``prev``, every row out to l = size; the other cells are 0."""
    h = size // 2
    out = np.zeros((size + 1, size + 1), dtype=np.int64)
    for k in range(h + 1):
        # the orbit (i, j) -> (k-i, l-j) swaps u and v: rows i <= k/2 suffice
        i = np.arange(k // 2 + 1)
        u = ca * prev[i] + cb * prev[k - i]
        v = ca * prev[k - i] + cb * prev[i]
        acc = np.full((len(i), size + 1), -_SENTINEL, dtype=np.int64)
        for j in range(h + 1):
            seg = acc[:, j:j + h + 1]
            np.maximum(seg, u[:, j:j + 1] + v, out=seg)
        out[k, k:] = acc.max(axis=0)[k:]
    return out


def fill_blocks(size, block_rows):
    """(k_lo, ks, iv) per block of the level fill: the rows (k, i <= k/2)
    of consecutive k, greedily while the block stays within ``block_rows``
    rows, and at least one k."""
    h = size // 2
    k = 0
    while k <= h:
        k_lo, rows = k, []
        while k <= h and (not rows or len(rows) + k // 2 < block_rows):
            rows.extend((k, i) for i in range(k // 2 + 1))
            k += 1
        ks, iv = np.array(rows).T
        yield k_lo, ks, iv


def iso_scan(xp, xm, dpn, k0_cap, size):
    best = -_SENTINEL
    bk0 = bk1 = bl0 = bl1 = 0
    for l0 in range(size + 1):
        base = (size // 2 - l0) * dpn
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


def iso_sweep(xp, xm, dpn, k0_cap, size):
    """(best, (k0, k1, l0, l1)) of the profile scan over every cell: each
    cell takes its first-argmax k0 and k1, the witness is the lex-min over
    the optimal cells."""
    ks = np.arange(size + 1).astype(xp.dtype)
    a_rows = xp[:k0_cap + 1] - ks[:k0_cap + 1, None] * dpn
    l1s = np.arange(size + 1)
    cells = []
    for l0 in range(size + 1):
        a = a_rows + xp[:k0_cap + 1, l0, None]  # [k0, l1]
        c = xp[:, l0, None] - xm  # [k1, l1]
        k0, k1 = a.argmax(axis=0), c.argmax(axis=0)
        v = a[k0, l1s] + c[k1, l1s] + (size // 2 - l0) * dpn
        best = v.max()
        cells += [(-best, (int(k0[l1]), int(k1[l1]), l0, l1))
                  for l1 in np.flatnonzero(v == best).tolist()]
    value, witness = min(cells)
    return int(-value), witness


def grid_scan(xp, xm, dpn, size):
    out = np.full((2 * size + 1, 2 * size + 1), -_SENTINEL, dtype=np.int64)
    a = np.empty(size + 1, dtype=np.int64)
    c = np.empty(size + 1, dtype=np.int64)
    for l0 in range(size + 1):
        base = (size // 2 - l0) * dpn
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


def complement_holds(x, dpn) -> bool:
    """Whether x[size-k, size-l] == x[k, l] + (size-k-l)*dpn at every cell."""
    rows, size = x.tolist(), len(x) - 1
    return all(rows[size - k][size - l] == v + (size - k - l) * dpn
               for k, row in enumerate(rows) for l, v in enumerate(row))


def grid_sweep(xp, xm, dpn, size):
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


def bilinear_scan(t, a0_idx):
    n_a, n_b = t.shape
    best = -math.inf
    w0 = w1 = wb0 = wb1 = 0
    for b0 in range(n_b):
        for b1 in range(n_b):
            a_best = -math.inf
            a_arg = 0
            for s in range(a0_idx.size):
                a0 = a0_idx[s]
                v = t[a0, b0] + t[a0, b1]
                if v > a_best:
                    a_best = v
                    a_arg = a0
            c_best = -math.inf
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


def _sign_matrix(size):
    """s[f, a] = 1 - 2*f(a) over every decision table f of ``size`` strings."""
    return 1 - 2 * ((np.arange(1 << size)[:, None] >> np.arange(size)) & 1)


def ip_table(system, plans, n, dtype):
    """T[(plan,f),(plan,g)] = <f,g> scaled by lcm-denominator^n, integer."""
    nums, _ = system.integer_form
    size = 1 << n
    n_tables = 1 << size
    inputs = _plan_input_table(plans, n)
    sf = _sign_matrix(size).astype(dtype)
    n_atoms = len(plans) * n_tables
    bits = [_bits(x, n) for x in range(size)]  # the n output bits of x
    t = np.zeros((n_atoms, n_atoms), dtype=dtype)
    for pa, ua in enumerate(inputs):
        for pb, vb in enumerate(inputs):
            w = np.zeros((size, size), dtype=dtype)
            for a, abits in enumerate(bits):
                for b, bbits in enumerate(bits):
                    prod_num = 1
                    for i in range(n):
                        prod_num *= nums[ua[a][i] * 8 + vb[b][i] * 4
                                         + abits[i] * 2 + bbits[i]]
                    w[a, b] = prod_num
            t[pa * n_tables:(pa + 1) * n_tables,
              pb * n_tables:(pb + 1) * n_tables] = sf @ w @ sf.T
    return t


def atom_table(u):
    """T[(p, f), (q, g)] = s_f . u_(q,g)[p] from the half-atom vectors
    u[p, a, h], h = (q, g) with bit 0 of g clear, and u_~b = -u_b."""
    n_plans, size, n_half = u.shape
    n_tables = 1 << size
    half = n_tables // 2
    cols = np.empty((n_plans, size, n_half * 2), dtype=u.dtype)
    for b in range(n_half * 2):
        q, g = divmod(b, n_tables)
        if g % 2 == 0:
            cols[:, :, b] = u[:, :, q * half + g // 2]
        else:
            cols[:, :, b] = -u[:, :, q * half + (n_tables - 1 - g) // 2]
    sf = _sign_matrix(size).astype(u.dtype)
    return np.concatenate([sf @ cols[p] for p in range(n_plans)])


def t_sweep(t, a0_idx):
    """max of T[a0,b0] + T[a0,b1] + T[a1,b0] - T[a1,b1] over a0 in the
    ascending a0_idx and every a1, b0, b1, one b0 slab at a time; returns
    (best, lex-min (a0, a1, b0, b1))."""
    tt = np.ascontiguousarray(t.T)  # tt[b, a] = T[a, b]
    at = np.ascontiguousarray(tt[:, a0_idx])
    j = np.arange(len(tt))
    best = None
    for b0 in range(len(tt)):
        a = at + at[b0]  # a[b1, i] = T[a0_idx[i], b1] + T[a0_idx[i], b0]
        c = tt[b0] - tt  # c[b1, a1] = T[a1, b0] - T[a1, b1]
        r0, r1 = a.argmax(axis=1), c.argmax(axis=1)
        v = a[j, r0] + c[j, r1]
        top = v.max()
        # the slab's lex-min tie: b0 is fixed, so order by (a0, a1, b1)
        ties = np.flatnonzero(v == top)
        b1 = ties[np.lexsort((ties, r1[ties], a0_idx[r0[ties]]))[0]]
        candidate = (-top, int(a0_idx[r0[b1]]), int(r1[b1]), b0, int(b1))
        if best is None or candidate < best:
            best = candidate
    value, *witness = best
    return -value, tuple(witness)


def load_payload(payload, p, n):
    """The plus grids of a cache file's payload (the bytes after its sha256
    line) for levels 0..n, each entry read apart with ``int.from_bytes``
    from its 8*L little-endian bytes, L = ceil(bits(D_n)/64); int64 while
    (2*den(p))^n <= 2^59, else Python ints."""
    top = (2 * p.denominator) ** n
    dtype = np.int64 if top <= 1 << 59 else object
    width = 8 * math.ceil(top.bit_length() / 64)
    grids = []
    pos = 0
    for m in range(n + 1):
        side = 2 ** m + 1
        values = [int.from_bytes(payload[at:at + width], "little")
                  for at in range(pos, pos + side * side * width, width)]
        assert max(values) <= (2 * p.denominator) ** m
        grids.append(np.array(values, dtype=dtype).reshape(side, side))
        pos += side * side * width
    assert pos == len(payload)
    return grids


def format_4_file(data, ops):
    """The format-4 cache file of the tables in the format-5 file ``data``,
    whose ``ops_per_level`` are ``ops``: version 4, the ops line after the
    n, p line, and the sha256 of the three lines and the same payload."""
    _, np_line, _, payload = data.split(b"\n", 3)
    head = b"NLDELTA 4\n" + np_line + b"\nops=" + ",".join(map(str, ops)).encode() + b"\n"
    digest = hashlib.sha256(head + payload).hexdigest().encode()
    return head + b"sha256=" + digest + b"\n" + payload


def solve_max(a, b):
    """max sum(x) s.t. A x <= b, x >= 0 with b >= 0, on Fractions throughout.
    The optimum comes back as numerators over D, the product of the pivots:
    the determinant of the final basis matrix, with the unit columns of the
    rows not yet pivoted on."""
    m, n = len(a), len(a[0])
    if any(bi < 0 for bi in b):
        raise ValueError("this solver requires b >= 0")
    zero, one = Fraction(0), Fraction(1)
    # tableau rows: [A | I | rhs]; cost row holds c_j - z_j with c = 1
    rows = [[Fraction(v) for v in a[i]] + [one if j == i else zero for j in range(m)]
            + [Fraction(b[i])] for i in range(m)]
    cost = [one] * n + [zero] * (m + 1)
    basis = list(range(n, n + m))
    det = one
    iterations = 0
    while True:
        enter = next((j for j in range(n + m) if cost[j] > 0), None)
        if enter is None:
            break
        ratio, leave = None, None
        for i in range(m):
            if rows[i][enter] > 0:
                r = rows[i][-1] / rows[i][enter]
                if ratio is None or r < ratio or (r == ratio and basis[i] < basis[leave]):
                    ratio, leave = r, i
        if leave is None:
            raise UnboundedError("objective unbounded above")
        piv = rows[leave][enter]
        det *= piv
        rows[leave] = [v / piv for v in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[leave])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [v - f * w for v, w in zip(cost, rows[leave])]
        basis[leave] = enter
        iterations += 1

    x = [zero] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = rows[i][-1] * det
    assert det.denominator == 1 and all(xj.denominator == 1 for xj in x)
    return SimplexResult(x=tuple(int(xj) for xj in x), den=int(det),
                         iterations=iterations)


def local_lp(system):
    """The LP of ``decompose.local_part`` built from the vertex tables: one
    0/1 row per entry (a, b, x, y) in product order, one column per local
    vertex, and the box's numerators over d = den(P) on the right.
    Returns (rows, rhs, d)."""
    d = system.integer_form[1]
    entries = list(product((0, 1), repeat=4))
    rows = [[int(v.prob(*abxy)) for v in LOCAL_VERTICES] for abxy in entries]
    return rows, [int(system.prob(*abxy) * d) for abxy in entries], d


def lp_decomposition(system):
    """P = q*P_iso(eps) + (1 - q)*P_L from the reference simplex's weights."""
    rows, rhs, d = local_lp(system)
    res = solve_max(rows, rhs)
    weights = tuple(Fraction(xj, res.den * d) for xj in res.x)
    s = sum(weights)
    nl, expr = nl_value(system)
    if s == 1:
        return Decomposition(epsilon=Fraction(0), q=Fraction(0), p_f=None, facet=None,
                             p_iso=None, p_l=system, weights=weights, local_part=s,
                             system_nl=nl)
    vertex = vertex_for_expression(expr)
    p_facet = mix([(Fraction(3, 4), vertex), (Fraction(1, 4), opposite_vertex(expr))])
    # the local vertices are 0/1 tables
    local = [sum(w for w, v in zip(weights, LOCAL_VERTICES) if v.table[t])
             for t in range(16)]
    assert all(e - m == (1 - s) * v
               for e, m, v in zip(system.table, local, vertex.table))
    p_star = p_f = None
    q = 1 - s
    if s > 0:
        p_star = BinarySystem(tuple(m / s for m in local))
        # the largest weight of P_F inside p_star: the least entry ratio
        p_f = min(e / f for e, f in zip(p_star.table, p_facet.table))
        q += s * p_f
    eps = (1 - s) / q
    p_l = None
    if q < 1:
        p_l = BinarySystem(tuple((e - p_f * f) / (1 - p_f)
                                 for e, f in zip(p_star.table, p_facet.table)))
    return Decomposition(epsilon=eps, q=q, p_f=p_f, facet=expr,
                         p_iso=mix([(eps, vertex), (1 - eps, p_facet)]),
                         p_l=p_l, weights=weights, local_part=s, system_nl=nl)

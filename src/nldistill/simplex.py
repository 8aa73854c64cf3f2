"""Exact primal simplex for small LPs, on a fraction-free integer tableau.

Solves  max sum(x)  subject to  A x <= b,  x >= 0  with integer A and an
integer b >= 0, so the all-slack basis is feasible and no phase-1 is
needed.  Bland's smallest index rule guarantees termination without
cycling.  The tableau holds Python ints only (Edmonds' integer-preserving
pivot; Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", 1968), and so does the result: the optimum is
returned as integer numerators over one common denominator.

Exact division.  Let M be the (m+1)-row tableau [A | I | b] with the cost
row [1 | 0 | 0] last, and B~ the current basis matrix of M in which every
row not yet pivoted on (and the cost row) keeps the unit vector e_i in
place of its basic column.  The integer tableau is
T = adj(B~) M = D B~^-1 M with D = det B~, starting at T = M, D = 1.
Entering column c on row r replaces column r of B~ by M[:, c], that is
B~' = B~ E with E the identity whose column r is B~^-1 M[:, c], so
det B~' = D t_rc = T_rc = piv.  Then row r of adj(B~') M is T_r, and every
other row i is (piv T_i - T_ic T_r) / D: an integer, because adjugate
times integer matrix is integer, so ``//`` divides exactly.  The cost row
and the rows with T_ic = 0 take the same update, which keeps the one
common D.

One denominator.  Row i's basic column of M is column i of B~, so column
B(i) of B~^-1 M is e_i and every basic entry T_i,B(i) of adj(B~) M equals
D.  Row i of T is its true tableau row times D, D > 0 (each piv is > 0):
the signs Bland's rule reads and the order of the ratios T_i,rhs / T_i,c
are those of the true tableau, so the pivot sequence is that of the same
simplex run on Fractions, and the basic value of row i is T_i,rhs / D.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class UnboundedError(Exception):
    pass


@dataclass(frozen=True)
class SimplexResult:
    x: tuple[int, ...]  # the optimum is x / den
    den: int
    iterations: int


def _pivot(rows: list[list[int]], leave: int, enter: int, d: int) -> int:
    """Pivot every row but ``leave`` in place; returns the new common D."""
    prow = rows[leave]
    piv = prow[enter]
    for i, row in enumerate(rows):
        if i != leave:
            f = row[enter]
            rows[i] = ([(piv * v - f * w) // d for v, w in zip(row, prow)] if f
                       else [piv * v // d for v in row])
    return piv


def solve_max(a: Sequence[Sequence[int]], b: Sequence[int]) -> SimplexResult:
    m, n = len(a), len(a[0])
    if any(bi < 0 for bi in b):
        raise ValueError("this solver requires b >= 0")
    # tableau rows [A | I | b], cost row [1 | 0 | 0] last
    rows = [[*a[i], *(int(j == i) for j in range(m)), b[i]] for i in range(m)]
    rows.append([1] * n + [0] * (m + 1))
    basis = list(range(n, n + m))
    d = 1
    iterations = 0
    while True:
        cost = rows[m]
        enter = next((j for j in range(n + m) if cost[j] > 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            if rows[i][enter] > 0:
                # ratio_i - ratio_leave, times the positive pivot-column entries
                diff = -1 if leave is None else (rows[i][-1] * rows[leave][enter]
                                                 - rows[leave][-1] * rows[i][enter])
                if diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise UnboundedError("objective unbounded above")
        d = _pivot(rows, leave, enter, d)
        basis[leave] = enter
        iterations += 1

    x = [0] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = rows[i][-1]
    return SimplexResult(x=tuple(x), den=d, iterations=iterations)

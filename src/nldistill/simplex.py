"""Exact primal simplex for small LPs, on a fraction-free integer tableau.

Solves  max c.x  subject to  A x <= b,  x >= 0  with b >= 0, so the
all-slack basis is feasible and no phase-1 is needed.  Bland's smallest
index rule guarantees termination without cycling.  The tableau holds
Python ints only (Edmonds' integer-preserving pivot; Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", 1968);
the optimum and the certificate are built as exact Fractions at the end.

Row scale.  Each constraint row [A_i | e_i | b_i] is multiplied by the lcm
s_i of its denominators, the cost row [c | 0 | 0] by the lcm s_c of its
own.  For a basis B the tableau B^-1 [A|I|b] is unchanged by the scaling,
since (S B)^-1 S = B^-1.

Exact division.  Let M be the scaled (m+1)-row tableau, cost row last, and
B~ the current basis matrix of M in which every row not yet pivoted on
(and the cost row) keeps the unit vector e_i in place of its basic column.
The integer tableau is T = adj(B~) M = D B~^-1 M with D = det B~, starting
at T = M, D = 1.  Entering column c on row r replaces column r of B~ by
M[:, c], that is B~' = B~ E with E the identity whose column r is
B~^-1 M[:, c], so det B~' = D t_rc = T_rc = piv.  Then row r of
adj(B~') M is T_r, and every other row i is (piv T_i - T_ic T_r) / D:
an integer, because adjugate times integer matrix is integer, so ``//``
divides exactly.  The cost row and the rows with T_ic = 0 take the same
update, which keeps the one common D.

Reading the tableau.  Row i of T is its true tableau row times D sigma_i,
with sigma_i = s_i while row i has not been pivoted on, 1 after, and
sigma = s_c on the cost row.  D > 0 (each piv is > 0), so every row factor
is positive: the signs Bland's rule reads and the order of the ratios
T_i,rhs / T_i,c are those of the true tableau, and the pivot sequence is
that of the same simplex run on Fractions.  The basic value of row i is
T_i,rhs / T_i,B(i), since its true basic entry is 1; a reduced cost is
T_cost,j / (D s_c).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence


class UnboundedError(Exception):
    pass


@dataclass(frozen=True)
class SimplexResult:
    value: Fraction
    x: tuple[Fraction, ...]
    slack: tuple[Fraction, ...]
    reduced_costs: tuple[Fraction, ...]  # over structural variables, <= 0 at opt
    basis: tuple[int, ...]
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


def solve_max(c: Sequence[Fraction], a: Sequence[Sequence[Fraction]],
              b: Sequence[Fraction]) -> SimplexResult:
    m, n = len(a), len(c)
    if any(bi < 0 for bi in b):
        raise ValueError("this solver requires b >= 0")
    # tableau rows [A | I | rhs], cost row [c | 0 | 0] last, each times the
    # lcm of its denominators
    rows = [[*a[i], *(int(j == i) for j in range(m)), b[i]] for i in range(m)]
    rows.append([*c, *[0] * (m + 1)])
    scales = [lcm(*(v.denominator for v in row)) for row in rows]
    rows = [[v.numerator * (s // v.denominator) for v in row]
            for row, s in zip(rows, scales)]
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

    x = [Fraction(0)] * n
    slack = [Fraction(0)] * m
    for i, j in enumerate(basis):
        if j < n:
            x[j] = Fraction(rows[i][-1], rows[i][j])
        else:
            slack[j - n] = Fraction(rows[i][-1], rows[i][j])
    value = sum(ci * xi for ci, xi in zip(c, x))
    return SimplexResult(
        value=value, x=tuple(x), slack=tuple(slack),
        reduced_costs=tuple(Fraction(v, d * scales[m]) for v in cost[:n]),
        basis=tuple(basis), iterations=iterations,
    )

"""Exact primal simplex for small LPs, on a fraction-free integer tableau.

Solves  max c.x  subject to  A x <= b,  x >= 0  with b >= 0, so the
all-slack basis is feasible and no phase-1 is needed.  Bland's smallest
index rule guarantees termination without cycling.  The tableau holds
Python ints only (Edmonds' integer-preserving pivot; Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", 1968);
the optimum and the certificate are built as exact Fractions at the end.

Row scale.  Each constraint row [A_i | e_i] is multiplied by the lcm s_i
of its A denominators, the cost row [c | 0] by the lcm s_c of c's.  The
right-hand-side column is multiplied by one factor R, the lcm of the
denominators of b, and row i's entry of it by s_i as well, so that it
holds the integer R s_i b_i.  For a basis B the tableau B^-1 [A|I] is
unchanged by the row scaling, since (S B)^-1 S = B^-1.  The column factor
R leaves the pivot sequence unchanged and multiplies every basic value by
R: a pivot updates each column from that column and the pivot column
alone, and the pivot column is never the right-hand side, so every later
tableau is the unscaled one with its right-hand-side column times R.  The
entering column is chosen from the cost row's other columns, which R does
not touch.  The leaving row minimises rhs_i / t_i,enter over t_i,enter > 0:
R > 0 multiplies every such ratio alike, so their order and their ties
stay.  Hence the same Bland pivots, the same basis and the same iteration
count as a run on the unscaled b, with x, the slacks and the objective
each R times theirs; they are divided by R at the end.  On a 0/1 matrix
with c = 1 (the decomposition's LP) every s_i is 1 and R is den(b), so
the initial tableau holds only 0, 1 and the numerators of b over R.

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
sigma = s_c on the cost row; the right-hand-side column carries the
further factor R.  D > 0 (each piv is > 0), so every row factor is
positive: the signs Bland's rule reads and the order of the ratios
T_i,rhs / T_i,c are those of the true tableau, and the pivot sequence is
that of the same simplex run on Fractions.  The basic value of row i is
T_i,rhs / (R T_i,B(i)), since its true basic entry is 1; a reduced cost is
T_cost,j / (D s_c), and the objective value -T_cost,rhs / (D s_c R), since
the cost row's true right-hand side is -c.x.
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
    if any(bi.numerator < 0 for bi in b):
        raise ValueError("this solver requires b >= 0")
    # tableau rows [A | I | rhs], cost row [c | 0 | 0] last; each row times
    # the lcm of its A (or c) denominators, the rhs column times r as well
    r = lcm(*(bi.denominator for bi in b))
    scales = [lcm(*(v.denominator for v in row)) for row in (*a, c)]
    rows = [[*(v.numerator * (s // v.denominator) for v in a[i]),
             *(s * (j == i) for j in range(m)),
             b[i].numerator * (r // b[i].denominator) * s]
            for i, s in enumerate(scales[:m])]
    rows.append([*(v.numerator * (scales[m] // v.denominator) for v in c),
                 *[0] * (m + 1)])
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

    zero = Fraction(0)
    x = [zero] * n
    slack = [zero] * m
    for i, j in enumerate(basis):
        value = Fraction(rows[i][-1], rows[i][j] * r)
        if j < n:
            x[j] = value
        else:
            slack[j - n] = value
    return SimplexResult(
        value=Fraction(-cost[-1], d * scales[m] * r), x=tuple(x), slack=tuple(slack),
        reduced_costs=tuple(Fraction(v, d * scales[m]) for v in cost[:n]),
        basis=tuple(basis), iterations=iterations,
    )

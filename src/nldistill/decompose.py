"""Minimal isotropic decomposition of a nonsignaling box.

The local part of P is the optimal value of the exact LP

    max sum_i p_i   s.t.   sum_i p_i * V_i(a,b|x,y) <= P(a,b|x,y),  p_i >= 0

over the 16 deterministic vertices V_i.  For nonlocal P the remainder is
proportional to the unique nonlocal vertex of the violated CHSH facet;
peeling the facet's isotropic local box P_F off the normalized local
mixture with the min-ratio weight p_f yields the minimal parameter

    eps = (1 - s) / (s*p_f + 1 - s),        s = sum_i p_i,

so that P = q*P_iso(eps) + (1-q)*P_L with q = s*p_f + 1 - s.  Every
identity is re-verified entry-exactly before a decomposition is
returned; a failure raises DecompositionError.

The work runs on integer numerators over one common denominator per box:
the box and the LP weights over Q, the lcm of their denominators, and the
vertex and P_F over 8.  Each later box is a table of integers over one
denominator built from these, and each identity is checked by cross
multiplication.  Fractions are built only for the fields returned.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Optional, Sequence

from .boxes import (
    BITS,
    BinarySystem,
    CHSHExpression,
    CHSH_EXPRESSIONS,
    LOCAL_VERTICES,
    _idx,
    mix,
    nl_value,
    nl_value_int,
    opposite_vertex,
    validate_int,
    vertex_for_expression,
)
from .simplex import solve_max


class DecompositionError(Exception):
    """Internal consistency failure while decomposing a box."""


# The local vertices are 0/1 tables: the vertices that carry each table
# entry, so an entry of a local mixture is a sum of weights.
_SUPPORT = tuple(tuple(i for i, v in enumerate(LOCAL_VERTICES) if v.table[t])
                 for t in range(16))


def _numerators(values: Sequence[Fraction], den: int) -> list[int]:
    """The numerators of ``values`` over ``den``, a multiple of each
    value's denominator."""
    return [v.numerator * (den // v.denominator) for v in values]


# the nonlocal vertex of each CHSH expression and its isotropic facet box
# P_F, as numerators over _FACET_DEN
_FACET_DEN = 8
_FACETS = {e: tuple(tuple(_numerators(box.table, _FACET_DEN)) for box in (
    vertex_for_expression(e),
    mix([(Fraction(3, 4), vertex_for_expression(e)), (Fraction(1, 4), opposite_vertex(e))])))
    for e in CHSH_EXPRESSIONS}

# the LP's constraint entries (a, b, x, y), one per row, and the table
# index of each
_CONSTRAINTS = tuple(product(BITS, BITS, BITS, BITS))
_ROW_ENTRY = tuple(_idx(*abxy) for abxy in _CONSTRAINTS)
# V_j(a, b|x, y) per constraint row and canonical vertex column j
_VERTEX_MATRIX = tuple(tuple(int(j in _SUPPORT[t]) for j in range(16))
                       for t in _ROW_ENTRY)
_ONES = (1,) * 16


def _local_mix(weights: Sequence[int]) -> list[int]:
    """sum_i weights[i] * V_i, entry by entry in table order."""
    return [sum(weights[i] for i in support) for support in _SUPPORT]


def _box(numerators: Sequence[int], den: int) -> BinarySystem:
    """The table numerators / den."""
    return BinarySystem(tuple(Fraction(n, den) for n in numerators))


@dataclass(frozen=True)
class LPResult:
    weights: tuple[Fraction, ...]  # one per local vertex, (alpha,beta,gamma,delta) order
    local_part: Fraction
    slack: tuple[Fraction, ...]  # one per table entry constraint
    iterations: int


def local_part(system: BinarySystem) -> LPResult:
    """Exact local part of a valid nonsignaling box, with one weight per
    local vertex in the canonical vertex order."""
    res = solve_max(_ONES, _VERTEX_MATRIX, [system.table[t] for t in _ROW_ENTRY])
    weights = res.x
    # exact optimality certificate: a feasible basis whose objective is the
    # weights' sum, and no positive reduced cost
    numerators, d = system.integer_form
    den = lcm(d, *(w.denominator for w in weights), *(s.denominator for s in res.slack))
    w = _numerators(weights, den)
    if (any(wi < 0 for wi in w) or any(rc.numerator > 0 for rc in res.reduced_costs)
            or sum(w) * res.value.denominator != res.value.numerator * den):
        raise DecompositionError("simplex returned an uncertified optimum")
    local = _local_mix(w)
    scale = den // d
    for t, s in zip(_ROW_ENTRY, _numerators(res.slack, den)):
        if local[t] + s != numerators[t] * scale:
            raise DecompositionError("LP slack fails to reconstruct the constraint")
    return LPResult(weights=weights, local_part=res.value,
                    slack=res.slack, iterations=res.iterations)


def facet_of(system: BinarySystem) -> tuple[CHSHExpression, BinarySystem, BinarySystem]:
    """The violated CHSH expression with its nonlocal vertex and facet box P_F."""
    nl, expr = nl_value(system)
    if nl <= 2:
        raise ValueError(f"NL(P) = {nl} <= 2: no violated CHSH facet")
    return (expr, *(_box(t, _FACET_DEN) for t in _FACETS[expr]))


def facet_weight(p_star: BinarySystem, p_f: BinarySystem) -> Fraction:
    """Largest weight of p_f inside p_star: the minimum entry ratio."""
    if any(e == 0 for e in p_f.table):
        raise ValueError("facet box must be entry-wise positive")
    return min(e / f for e, f in zip(p_star.table, p_f.table))


@dataclass(frozen=True)
class Decomposition:
    """P = q * P_iso(epsilon) + (1 - q) * P_L, with epsilon minimal."""

    epsilon: Fraction
    q: Fraction
    p_f: Optional[Fraction]
    facet: Optional[CHSHExpression]
    p_iso: Optional[BinarySystem]
    p_star: Optional[BinarySystem]
    p_l: Optional[BinarySystem]
    lp: LPResult
    system_nl: Fraction

    def to_json_obj(self) -> dict:
        return {
            "epsilon": str(self.epsilon),
            "q": str(self.q),
            "p_f": None if self.p_f is None else str(self.p_f),
            "facet": None if self.facet is None else {
                "anchor": [self.facet.x, self.facet.y],
                "sign": self.facet.sign,
            },
            "local_part": str(self.lp.local_part),
            "weights": [str(w) for w in self.lp.weights],
        }


def minimal_isotropic(system: BinarySystem) -> Decomposition:
    """Decompose P over the weakest isotropic system that can carry it."""
    lp = local_part(system)
    s = lp.local_part
    numerators, d = system.integer_form
    nl_num, expr = nl_value_int(numerators)
    nl = Fraction(nl_num, d)
    if s == 1:
        return Decomposition(
            epsilon=Fraction(0), q=Fraction(0), p_f=None, facet=None,
            p_iso=None, p_star=system, p_l=system, lp=lp, system_nl=nl,
        )
    if nl_num <= 2 * d:
        raise DecompositionError(
            f"local part {s} < 1 for a box with NL = {nl} <= 2"
        )
    vertex, facet = _FACETS[expr]
    g = _FACET_DEN
    # P = a/Q, the local mixture sum_i p_i V_i = b/Q and s = sigma/Q
    big_q = lcm(d, *(w.denominator for w in lp.weights))
    a = [n * (big_q // d) for n in numerators]
    w = _numerators(lp.weights, big_q)
    b, sigma = _local_mix(w), sum(w)
    # the maximal-local remainder a - b must sit on the violated vertex
    rem = [ai - bi for ai, bi in zip(a, b)]
    top = vertex.index(max(vertex))
    if any(r * vertex[top] != rem[top] * v for r, v in zip(rem, vertex)):
        raise DecompositionError("LP remainder is not proportional to the facet vertex")
    if sigma > 0:
        # p_star = b/sigma; p_f = min_t p_star_t / (facet_t/g) = g*m/(k*sigma)
        # with m/k the least b_t / facet_t
        m, k = b[0], facet[0]
        for bt, ft in zip(b, facet):
            if bt * k < m * ft:
                m, k = bt, ft
        p_star, pf = _box(b, sigma), Fraction(g * m, k * sigma)
    else:
        (m, k), p_star, pf = (0, 1), None, None
    # q = s*p_f + 1 - s = qn/qd and eps = (1 - s)/q = en/qn
    en = k * (big_q - sigma)
    qn, qd = g * m + en, k * big_q
    # P_iso = eps*V + (1 - eps)*P_F = iso / (g*qn)
    iso = [en * v + g * m * f for v, f in zip(vertex, facet)]
    if nl_value_int(iso)[0] != 2 * g * (qn + en):
        raise DecompositionError("isotropic component has inconsistent nonlocality")
    p_l = None
    if qn < qd:
        # P_L = (p_star - p_f*P_F) / (1 - p_f) = res / (k*sigma - g*m)
        res = [k * bt - m * ft for bt, ft in zip(b, facet)]
        res_den = k * sigma - g * m
        if not validate_int(res, res_den).ok:
            raise DecompositionError("local residue is not a valid box")
        if nl_value_int(res)[0] > 2 * res_den:
            raise DecompositionError("local residue violates a CHSH facet")
        # q*P_iso = iso/(g*qd) and (1 - q)*P_L = res/qd, since
        # 1 - q = res_den/qd; their sum must be a/Q, and qd = k*Q
        if any(i + g * r != g * k * ai for i, r, ai in zip(iso, res, a)):
            raise DecompositionError("decomposition does not reconstruct the box")
        p_l = _box(res, res_den)
    elif any(big_q * i != g * qn * ai for i, ai in zip(iso, a)):
        raise DecompositionError("q = 1 decomposition must equal the box")
    return Decomposition(
        epsilon=Fraction(en, qn), q=Fraction(qn, qd), p_f=pf, facet=expr,
        p_iso=_box(iso, g * qn), p_star=p_star, p_l=p_l, lp=lp, system_nl=nl,
    )

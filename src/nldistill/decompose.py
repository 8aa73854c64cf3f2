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
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .boxes import (
    BITS,
    BinarySystem,
    CHSHExpression,
    CHSH_EXPRESSIONS,
    LOCAL_VERTICES,
    mix,
    nl_value,
    opposite_vertex,
    validate,
    vertex_for_expression,
)
from .simplex import solve_max


class DecompositionError(Exception):
    """Internal consistency failure while decomposing a box."""


# The local vertices are 0/1 tables: the vertices that carry each table
# entry, so an entry of a local mixture is a sum of weights.
_SUPPORT = tuple(tuple(i for i, v in enumerate(LOCAL_VERTICES) if v.table[t])
                 for t in range(16))
# the nonlocal vertex of each CHSH expression and its isotropic facet box P_F
_FACETS = {e: (vertex_for_expression(e), mix([(Fraction(3, 4), vertex_for_expression(e)),
                                              (Fraction(1, 4), opposite_vertex(e))]))
           for e in CHSH_EXPRESSIONS}


# the LP's constraint entries (a, b, x, y), one per row
_CONSTRAINTS = tuple(product(BITS, BITS, BITS, BITS))


@cache
def _vertex_matrix() -> tuple[tuple[Fraction, ...], ...]:
    """V_j(a, b|x, y) per constraint row and canonical vertex column j,
    built on first use."""
    return tuple(tuple(v.prob(a, b, x, y) for v in LOCAL_VERTICES)
                 for a, b, x, y in _CONSTRAINTS)


def _local_mix(weights: Sequence[Fraction]) -> list[Fraction]:
    """sum_i weights[i] * V_i, entry by entry in table order."""
    return [sum(weights[i] for i in support) for support in _SUPPORT]


@dataclass(frozen=True)
class LPResult:
    weights: tuple[Fraction, ...]  # one per local vertex, (alpha,beta,gamma,delta) order
    local_part: Fraction
    slack: tuple[Fraction, ...]  # one per table entry constraint
    iterations: int


def local_part(system: BinarySystem,
               vertex_order: Optional[Sequence[int]] = None) -> LPResult:
    """Exact local part of a valid nonsignaling box.

    ``vertex_order`` permutes the LP columns (used to confirm that the
    optimal value does not depend on the ordering); weights are always
    reported in the canonical vertex order.
    """
    order = list(vertex_order) if vertex_order is not None else list(range(16))
    if sorted(order) != list(range(16)):
        raise ValueError("vertex_order must be a permutation of 0..15")
    a_mat = [[row[j] for j in order] for row in _vertex_matrix()]
    b_vec = [system.prob(a, b, x, y) for (a, b, x, y) in _CONSTRAINTS]
    res = solve_max([Fraction(1)] * 16, a_mat, b_vec)
    weights = [Fraction(0)] * 16
    for j in range(16):
        weights[order[j]] = res.x[j]
    # exact optimality certificate: feasible basis + no positive reduced cost
    if any(w < 0 for w in weights) or any(rc > 0 for rc in res.reduced_costs):
        raise DecompositionError("simplex returned an uncertified optimum")
    local = BinarySystem(tuple(_local_mix(weights)))
    for (a, b, x, y), s in zip(_CONSTRAINTS, res.slack):
        if local.prob(a, b, x, y) + s != system.prob(a, b, x, y):
            raise DecompositionError("LP slack fails to reconstruct the constraint")
    return LPResult(weights=tuple(weights), local_part=res.value,
                    slack=res.slack, iterations=res.iterations)


def facet_of(system: BinarySystem) -> tuple[CHSHExpression, BinarySystem, BinarySystem]:
    """The violated CHSH expression with its nonlocal vertex and facet box P_F."""
    nl, expr = nl_value(system)
    if nl <= 2:
        raise ValueError(f"NL(P) = {nl} <= 2: no violated CHSH facet")
    return (expr, *_FACETS[expr])


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


def _scale(system: BinarySystem, factor: Fraction) -> list[Fraction]:
    return [factor * e for e in system.table]


def minimal_isotropic(system: BinarySystem) -> Decomposition:
    """Decompose P over the weakest isotropic system that can carry it."""
    lp = local_part(system)
    s = lp.local_part
    nl, expr = nl_value(system)
    if s == 1:
        return Decomposition(
            epsilon=Fraction(0), q=Fraction(0), p_f=None, facet=None,
            p_iso=None, p_star=system, p_l=system, lp=lp, system_nl=nl,
        )
    if nl <= 2:
        raise DecompositionError(
            f"local part {s} < 1 for a box with NL = {nl} <= 2"
        )
    p_nl, p_f_sys = _FACETS[expr]
    local_mix = _local_mix(lp.weights)
    # the maximal-local remainder must sit on the violated vertex
    remainder = [e - lm for e, lm in zip(system.table, local_mix)]
    if remainder != _scale(p_nl, 1 - s):
        raise DecompositionError("LP remainder is not proportional to the facet vertex")
    if s > 0:
        p_star = BinarySystem(tuple(lm / s for lm in local_mix))
        pf = facet_weight(p_star, p_f_sys)
    else:
        p_star, pf = None, None
    eps = (1 - s) / ((s * pf if pf is not None else Fraction(0)) + 1 - s)
    q = (s * pf if pf is not None else Fraction(0)) + 1 - s
    p_iso = mix([(eps, p_nl), (1 - eps, p_f_sys)])
    iso_nl, _ = nl_value(p_iso)
    if iso_nl != 2 * (1 + eps):
        raise DecompositionError("isotropic component has inconsistent nonlocality")
    if q < 1:
        p_l = BinarySystem(tuple(
            (e - q * pi) / (1 - q) for e, pi in zip(system.table, p_iso.table)
        ))
        if not validate(p_l).ok:
            raise DecompositionError("local residue is not a valid box")
        residue_nl, _ = nl_value(p_l)
        if residue_nl > 2:
            raise DecompositionError("local residue violates a CHSH facet")
        rebuilt = [q * pi + (1 - q) * pl for pi, pl in zip(p_iso.table, p_l.table)]
        if rebuilt != list(system.table):
            raise DecompositionError("decomposition does not reconstruct the box")
    else:
        p_l = None
        if p_iso.table != system.table:
            raise DecompositionError("q = 1 decomposition must equal the box")
    return Decomposition(
        epsilon=eps, q=q, p_f=pf, facet=expr, p_iso=p_iso,
        p_star=p_star, p_l=p_l, lp=lp, system_nl=nl,
    )

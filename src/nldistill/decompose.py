"""Minimal isotropic decomposition of a nonsignaling box.

The local part of P is the optimal value of the exact LP

    max sum_i p_i   s.t.   sum_i p_i * V_i(a,b|x,y) <= P(a,b|x,y),  p_i >= 0

over the 16 deterministic vertices V_i.  A local box (NL(P) <= 2) has
local part 1 (Fine 1982), with weights that are not unique:
``local_part`` runs the exact integer simplex on the box's numerators,
and Bland's rule picks them.  It certifies them by rebuilding the box:
every weight is nonnegative, the weights sum to 1, and
sum_i p_i V_i = P entry by entry.  Every vertex and P carry mass 1 on each
input pair, so no feasible weights sum past 1, and these are optimal.  A
nonlocal box has one optimum in closed form.

Closed form.  Let P have NL(P) = CHSH_e(P) > 2 and let V_e be the PR vertex
with CHSH_e(V_e) = 4: on each input pair (x, y) it is 1/2 on the two
outputs of one parity c_e(x, y) of a xor b, and the four parities sum to 1
mod 2.

- Dual bound.  Take feasible weights of sum s.  The slack
  P - sum_i p_i V_i is nonnegative with mass 1 - s on each input pair, so
  its CHSH_e value is at most 4(1 - s), and the local mixture's is at most
  2s.  Hence NL(P) <= 4 - 2s, that is s <= 2 - NL/2.
- Facet vertices.  A deterministic vertex has CHSH_e value 4 - 2m, with m
  the number of input pairs where a_x xor b_y misses c_e(x, y).  The a_x
  xor b_y sum to 0 mod 2 and the c_e to 1, so m is 1 or 3.  The 8 vertices
  with m = 1 are the vertices of the facet CHSH_e = 2, and each carries
  exactly one entry t_j = (a, b, x, y) off supp(V_e).
- Bijection.  Given that entry, the parities at (x', y) and (x, y') fix
  a_x' and b_y', and the parity at (x', y') then holds because the c_e sum
  to 1.  So each of the 8 entries off supp(V_e) names one facet vertex,
  and the facet vertices and those entries are in bijection (``_FACET_MAP``).
- Optimum.  Put w_j = P(t_j) on the facet vertices and 0 on the others.
  Above a CHSH facet the nonsignaling polytope is the pyramid over the
  facet with apex V_e (Fine 1982; Barrett et al. 2005), so
  P = sum_j w_j V_j + (1 - s) V_e with s = sum_j w_j: V_e and every other
  facet vertex are zero at t_j.  ``minimal_isotropic`` checks that
  identity on all 16 entries, the signs of the weights and
  s = 2 - NL/2.  Then the weights are feasible, with slack (1 - s) V_e,
  and they meet the dual bound, so they are optimal.
- Uniqueness.  At s = 2 - NL/2 both halves of the dual bound are tight:
  every weight sits on a facet vertex, and the slack has CHSH_e value
  4(1 - s) at mass 1 - s per input pair, so it is zero off supp(V_e).  At
  t_j the only facet vertex with an entry is V_j, so w_j = P(t_j): the LP
  has no other optimum, and the closed form is the LP's.

Envelope.  The remainder P - sum_i p_i V_i = (1 - s) V_e sits on the
violated vertex.  Peeling the facet's isotropic local box P_F off the
normalized local mixture with the min-ratio weight p_f yields the minimal
parameter

    eps = (1 - s) / (s*p_f + 1 - s),

so that P = q*P_iso(eps) + (1-q)*P_L with q = s*p_f + 1 - s.  Every
identity is re-verified entry-exactly before a decomposition is
returned; a failure raises DecompositionError.

The work runs on integer numerators over one common denominator per box:
the box and its closed-form weights over den(P), the simplex's weights
over D den(P) with D its tableau's denominator, and the vertex and P_F
over 8.  Each
later box is a table of integers over one denominator built from these,
and each identity is checked by cross multiplication.  Fractions are
built only for the fields returned.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .boxes import (
    BITS,
    BinarySystem,
    CHSHExpression,
    CHSH_EXPRESSIONS,
    LOCAL_VERTICES,
    _idx,
    mix,
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


def _facet_pairs(vertex: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """(t_j, j) for each local vertex j with exactly one entry t_j off the
    support of ``vertex``: the vertices of its CHSH facet."""
    pairs = [(t, j) for t in range(16) if not vertex[t] for j in _SUPPORT[t]]
    count = Counter(j for _, j in pairs)
    return tuple((t, j) for t, j in pairs if count[j] == 1)


# per CHSH expression, its facet vertices with the entry off the support of
# its nonlocal vertex that names each (module docstring)
_FACET_MAP = {e: _facet_pairs(vertex) for e, (vertex, _) in _FACETS.items()}

# the LP's constraint entries (a, b, x, y), one per row, and the table
# index of each
_CONSTRAINTS = tuple(product(BITS, BITS, BITS, BITS))
_ROW_ENTRY = tuple(_idx(*abxy) for abxy in _CONSTRAINTS)
# V_j(a, b|x, y) per constraint row and canonical vertex column j
_VERTEX_MATRIX = tuple(tuple(int(j in _SUPPORT[t]) for j in range(16))
                       for t in _ROW_ENTRY)


def _local_mix(weights: Sequence[int]) -> list[int]:
    """sum_i weights[i] * V_i, entry by entry in table order."""
    return [sum(weights[i] for i in support) for support in _SUPPORT]


def _facet_weights(numerators: Sequence[int], expr: CHSHExpression) -> list[int]:
    """The optimal local weights of a box that violates ``expr``, over the
    box's denominator: its entry t_j on each facet vertex j, 0 elsewhere."""
    w = [0] * 16
    for t, j in _FACET_MAP[expr]:
        w[j] = numerators[t]
    return w


def _box(numerators: Sequence[int], den: int) -> BinarySystem:
    """The table numerators / den."""
    return BinarySystem(tuple(Fraction(n, den) for n in numerators))


def local_part(system: BinarySystem) -> tuple[Fraction, ...]:
    """The weights, one per local vertex in the canonical vertex order, of
    the local part 1 of a local box, certified by rebuilding the box."""
    a, d = system.integer_form
    res = solve_max(_VERTEX_MATRIX, [a[t] for t in _ROW_ENTRY])
    # the weights are res.x / (D d): they sum to 1 when sum(x) = D d, and
    # rebuild P = a/d when their local mixture is D a
    w, den = res.x, res.den * d
    if any(wi < 0 for wi in w):
        raise DecompositionError("local weight is negative")
    if sum(w) != den:
        raise DecompositionError("local weights do not sum to 1")
    if any(mt != res.den * at for mt, at in zip(_local_mix(w), a)):
        raise DecompositionError("local weights do not rebuild the box")
    return tuple(Fraction(wi, den) for wi in w)


@dataclass(frozen=True)
class Decomposition:
    """P = q * P_iso(epsilon) + (1 - q) * P_L, with epsilon minimal."""

    epsilon: Fraction
    q: Fraction
    p_f: Optional[Fraction]
    facet: Optional[CHSHExpression]
    p_iso: Optional[BinarySystem]
    p_l: Optional[BinarySystem]
    weights: tuple[Fraction, ...]  # one per local vertex, (alpha,beta,gamma,delta) order
    local_part: Fraction
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
            "local_part": str(self.local_part),
            "weights": [str(w) for w in self.weights],
        }


def minimal_isotropic(system: BinarySystem) -> Decomposition:
    """Decompose P over the weakest isotropic system that can carry it."""
    a, d = system.integer_form
    nl_num, expr = nl_value_int(a)
    nl = Fraction(nl_num, d)
    if nl_num <= 2 * d:
        return Decomposition(
            epsilon=Fraction(0), q=Fraction(0), p_f=None, facet=None, p_iso=None,
            p_l=system, weights=local_part(system), local_part=Fraction(1), system_nl=nl,
        )
    vertex, facet = _FACETS[expr]
    g = _FACET_DEN
    # the local mixture sum_j w_j V_j = b/d and s = sigma/d; the optimum
    # leaves the remainder (1 - s)*V_e = (d - sigma)*vertex/(g*d)
    w = _facet_weights(a, expr)
    if any(wi < 0 for wi in w):
        raise DecompositionError("facet weight is negative")
    b, sigma = _local_mix(w), sum(w)
    if any(g * bt + (d - sigma) * v != g * at for bt, v, at in zip(b, vertex, a)):
        raise DecompositionError("decomposition does not reconstruct the box")
    if 2 * sigma != 4 * d - nl_num:
        raise DecompositionError("facet weights do not sum to 2 - NL/2")
    if sigma > 0:
        # the normalized local mixture is P* = b/sigma; p_f = min_t P*_t /
        # (facet_t/g) = g*m/(k*sigma) with m/k the least b_t / facet_t
        m, k = b[0], facet[0]
        for bt, ft in zip(b, facet):
            if bt * k < m * ft:
                m, k = bt, ft
        pf = Fraction(g * m, k * sigma)
    else:
        (m, k), pf = (0, 1), None
    # q = s*p_f + 1 - s = qn/qd and eps = (1 - s)/q = en/qn
    en = k * (d - sigma)
    qn, qd = g * m + en, k * d
    # P_iso = eps*V + (1 - eps)*P_F = iso / (g*qn)
    iso = [en * v + g * m * f for v, f in zip(vertex, facet)]
    if nl_value_int(iso)[0] != 2 * g * (qn + en):
        raise DecompositionError("isotropic component has inconsistent nonlocality")
    p_l = None
    if qn < qd:
        # P_L = (P* - p_f*P_F) / (1 - p_f) = res / (k*sigma - g*m)
        res = [k * bt - m * ft for bt, ft in zip(b, facet)]
        res_den = k * sigma - g * m
        if not validate_int(res, res_den).ok:
            raise DecompositionError("local residue is not a valid box")
        if nl_value_int(res)[0] > 2 * res_den:
            raise DecompositionError("local residue violates a CHSH facet")
        # q*P_iso + (1 - q)*P_L = (iso + g*res)/(g*qd), and
        # iso + g*res = k*((d - sigma)*vertex + g*b) = g*k*a by the
        # reconstruction above: P_F cancels, so the sum is the box
        p_l = _box(res, res_den)
    elif any(d * i != g * qn * ai for i, ai in zip(iso, a)):
        raise DecompositionError("q = 1 decomposition must equal the box")
    return Decomposition(
        epsilon=Fraction(en, qn), q=Fraction(qn, qd), p_f=pf, facet=expr,
        p_iso=_box(iso, g * qn), p_l=p_l, weights=tuple(Fraction(wi, d) for wi in w),
        local_part=Fraction(sigma, d), system_nl=nl,
    )

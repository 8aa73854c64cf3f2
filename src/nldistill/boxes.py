"""Exact algebra of binary bipartite nonsignaling boxes.

A box is the conditional table P(a,b|x,y) with one input and one output
bit per side, stored as 16 exact rationals.  This module provides the
polytope vertices, convex mixtures, the two-parameter wedge family, the
CHSH nonlocality measure NL(P) and membership/structure tests.  No
floating point anywhere: every value is a ``fractions.Fraction``.
``nl_value`` and ``validate`` run on the table's integer numerators over
the lcm of its denominators (``BinarySystem.integer_form``); their
integer bodies ``nl_value_int`` and ``validate_int`` take such a table
directly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm
from typing import Optional, Sequence, Union

RationalLike = Union[Fraction, int, str]

BITS = (0, 1)


def rational(value: RationalLike) -> Fraction:
    """Convert ints, "num/den" strings or exact decimal strings to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _is_list(value, length: int) -> bool:
    return isinstance(value, list) and len(value) == length


def _idx(a: int, b: int, x: int, y: int) -> int:
    return x * 8 + y * 4 + a * 2 + b


@dataclass(frozen=True)
class BinarySystem:
    """A 16-entry table P(a,b|x,y), flat in x-major, then y, a, b order."""

    table: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.table) != 16:
            raise ValueError("a binary system has exactly 16 entries")

    @cached_property
    def integer_form(self) -> tuple[tuple[int, ...], int]:
        """(numerators, D): the table as integers over the lcm D of its
        denominators, in table order."""
        d = lcm(*(e.denominator for e in self.table))
        return tuple(e.numerator * (d // e.denominator) for e in self.table), d

    def prob(self, a: int, b: int, x: int, y: int) -> Fraction:
        """P(a,b|x,y)."""
        return self.table[_idx(a, b, x, y)]

    def correlator(self, x: int, y: int) -> Fraction:
        """E_xy = sum_ab P(a,b|x,y) (-1)^(a xor b)."""
        e = Fraction(0)
        for a, b in product(BITS, BITS):
            v = self.prob(a, b, x, y)
            e += v if a == b else -v
        return e

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    def to_json_obj(self) -> dict:
        return {
            "p": [
                [
                    [str(self.prob(a, b, x, y)) for a, b in product(BITS, BITS)]
                    for y in BITS
                ]
                for x in BITS
            ]
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "BinarySystem":
        try:
            rows = obj["p"]
            if not (_is_list(rows, 2) and all(_is_list(row, 2) for row in rows)
                    and all(_is_list(cell, 4) for row in rows for cell in row)):
                raise ValueError('"p" must be 2 x 2 lists of 4 entries')
            entries = [None] * 16
            for x, y, a, b in product(BITS, BITS, BITS, BITS):
                entries[_idx(a, b, x, y)] = rational(rows[x][y][a * 2 + b])
        except (KeyError, IndexError, TypeError, ValueError,
                ZeroDivisionError) as exc:
            raise BoxFormatError(f"malformed box JSON: {exc}") from exc
        return cls(tuple(entries))

    @classmethod
    def from_json(cls, text: str) -> "BinarySystem":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise BoxFormatError(f"not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise BoxFormatError("JSON nested too deeply") from exc
        return cls.from_json_obj(obj)


class BoxFormatError(ValueError):
    """Raised when a box file or JSON object cannot be parsed."""


# ---------------------------------------------------------------------------
# Polytope vertices and standard mixtures
# ---------------------------------------------------------------------------

def local_vertex(alpha: int, beta: int, gamma: int, delta: int) -> BinarySystem:
    """Deterministic box a = alpha*x xor gamma, b = beta*y xor delta."""
    entries = []
    for x, y, a, b in product(BITS, BITS, BITS, BITS):
        ok = a == (alpha & x) ^ gamma and b == (beta & y) ^ delta
        entries.append(Fraction(1 if ok else 0))
    return BinarySystem(tuple(entries))


def nonlocal_vertex(alpha: int, beta: int, gamma: int) -> BinarySystem:
    """PR-type box: uniform on outcomes with a xor b = xy xor alpha*x xor beta*y xor gamma."""
    entries = []
    for x, y, a, b in product(BITS, BITS, BITS, BITS):
        ok = (a ^ b) == (x & y) ^ (alpha & x) ^ (beta & y) ^ gamma
        entries.append(Fraction(1, 2) if ok else Fraction(0))
    return BinarySystem(tuple(entries))


LOCAL_VERTICES: tuple[BinarySystem, ...] = tuple(
    local_vertex(*bits) for bits in product(BITS, BITS, BITS, BITS)
)
NONLOCAL_VERTICES: tuple[BinarySystem, ...] = tuple(
    nonlocal_vertex(*bits) for bits in product(BITS, BITS, BITS)
)


def mix(components: Sequence[tuple[RationalLike, BinarySystem]]) -> BinarySystem:
    """Entry-wise convex combination; weights must be >= 0 and sum to 1."""
    weights = [rational(w) for w, _ in components]
    if any(w < 0 for w in weights):
        raise ValueError("mixture weights must be nonnegative")
    if sum(weights) != 1:
        raise ValueError(f"mixture weights sum to {sum(weights)}, expected 1")
    entries = [Fraction(0)] * 16
    for w, (_, system) in zip(weights, components):
        for i, e in enumerate(system.table):
            entries[i] += w * e
    return BinarySystem(tuple(entries))


PR: BinarySystem = nonlocal_vertex(0, 0, 0)
ANTI_PR: BinarySystem = nonlocal_vertex(0, 0, 1)
#: Unbiased perfectly correlated bits: P(a,b|x,y) = 1/2 iff a = b.
P_C: BinarySystem = mix([(Fraction(1, 2), local_vertex(0, 0, 0, 0)),
                         (Fraction(1, 2), local_vertex(0, 0, 1, 1))])
#: The isotropic box on the CHSH facet of PR.
P_F: BinarySystem = mix([(Fraction(3, 4), PR), (Fraction(1, 4), ANTI_PR)])


def wedge(eps: RationalLike, delta: RationalLike) -> BinarySystem:
    """The two-parameter family eps*PR + delta*P_C + (1-eps-delta)*P_F."""
    e, d = rational(eps), rational(delta)
    if not (0 <= e <= 1 and 0 <= d <= 1 and e + d <= 1):
        raise ValueError(f"wedge parameters ({e}, {d}) outside the simplex")
    return mix([(e, PR), (d, P_C), (1 - e - d, P_F)])


# ---------------------------------------------------------------------------
# CHSH expressions and the nonlocality measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CHSHExpression:
    """One of the 8 CHSH variants.

    ``anchor`` = (x, y) marks the input pair whose complement carries the
    minus sign; ``sign`` is the modulus branch.  The value on a box P is
    sign * (E_xy + E_x'y + E_xy' - E_x'y') with primes denoting bit flips.
    """

    x: int
    y: int
    sign: int

    def evaluate(self, system: BinarySystem) -> Fraction:
        x, y = self.x, self.y
        val = (
            system.correlator(x, y)
            + system.correlator(1 - x, y)
            + system.correlator(x, 1 - y)
            - system.correlator(1 - x, 1 - y)
        )
        return self.sign * val

    @property
    def key(self) -> tuple[int, int, int]:
        # positive branch sorts first; used for deterministic tie-breaking
        return (self.x, self.y, 0 if self.sign > 0 else 1)

    def label(self) -> str:
        return f"anchor=({self.x},{self.y}) sign={'+' if self.sign > 0 else '-'}"


CHSH_EXPRESSIONS: tuple[CHSHExpression, ...] = tuple(
    CHSHExpression(x, y, s) for x in BITS for y in BITS for s in (1, -1)
)


# the CHSH expressions in tie-break order, each with the index 2x' + y' of
# the correlator E_x'y' that carries its minus sign
_NL_ORDER = tuple((e, 2 * (1 - e.x) + 1 - e.y)
                  for e in sorted(CHSH_EXPRESSIONS, key=lambda e: e.key))


def nl_value_int(numerators: Sequence[int]) -> tuple[int, CHSHExpression]:
    """``nl_value`` on a table's numerators: the value is over the table's
    denominator."""
    t = numerators
    corr = [t[i] - t[i + 1] - t[i + 2] + t[i + 3] for i in (0, 4, 8, 12)]
    total = sum(corr)
    # E_xy + E_x'y + E_xy' - E_x'y' = total - 2 E_x'y'; a later expression
    # must beat the best so far, so the smallest key wins a tie
    best, arg = None, None
    for expr, minus in _NL_ORDER:
        value = expr.sign * (total - 2 * corr[minus])
        if best is None or value > best:
            best, arg = value, expr
    return best, arg


def nl_value(system: BinarySystem) -> tuple[Fraction, CHSHExpression]:
    """NL(P): the maximum over all 8 CHSH expressions, with its arg max.

    Ties are broken by the lexicographically smallest (anchor, sign),
    positive sign first.
    """
    numerators, d = system.integer_form
    value, expr = nl_value_int(numerators)
    return Fraction(value, d), expr


def _vertex_expression_map() -> dict[CHSHExpression, tuple[int, int, int]]:
    out = {}
    for bits in product(BITS, BITS, BITS):
        v = nonlocal_vertex(*bits)
        val, expr = nl_value(v)
        if val != 4:
            raise AssertionError(f"nonlocal vertex {bits} has NL {val}, not 4")
        out[expr] = bits
    if len(out) != 8:
        raise AssertionError("the nonlocal vertices share a CHSH expression")
    return out


_EXPR_TO_VERTEX = _vertex_expression_map()


def vertex_for_expression(expr: CHSHExpression) -> BinarySystem:
    """The unique nonlocal vertex reaching value 4 on ``expr``."""
    return nonlocal_vertex(*_EXPR_TO_VERTEX[expr])


def opposite_vertex(expr: CHSHExpression) -> BinarySystem:
    alpha, beta, gamma = _EXPR_TO_VERTEX[expr]
    return nonlocal_vertex(alpha, beta, 1 - gamma)


# ---------------------------------------------------------------------------
# Validation and isotropic structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Issue:
    kind: str
    where: tuple
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[Issue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def to_json_obj(self) -> dict:
        return {
            "valid": self.ok,
            "issues": [
                {"kind": i.kind, "where": list(i.where), "detail": i.detail}
                for i in self.issues
            ],
        }


def validate_int(numerators: Sequence[int], denominator: int) -> ValidationReport:
    """``validate`` on a table given as integer numerators over a positive
    denominator."""
    t, d = numerators, denominator
    issues: list[Issue] = []
    for i, v in enumerate(t):
        if v < 0:
            where = (i >> 1 & 1, i & 1, i >> 3, i >> 2 & 1)  # (a, b, x, y)
            issues.append(Issue("negative", where, f"P(a,b|x,y) = {Fraction(v, d)} < 0"))
    for x, y in product(BITS, BITS):
        i = _idx(0, 0, x, y)
        total = t[i] + t[i + 1] + t[i + 2] + t[i + 3]
        if total != d:
            issues.append(Issue("normalization", (x, y),
                                f"sum over outputs = {Fraction(total, d)}"))
    for a, x in product(BITS, BITS):
        m0, m1 = (t[_idx(a, 0, x, y)] + t[_idx(a, 1, x, y)] for y in BITS)
        if m0 != m1:
            issues.append(Issue("signaling-alice", (a, x), f"marginal {Fraction(m0, d)} "
                                f"for y=0 vs {Fraction(m1, d)} for y=1"))
    for b, y in product(BITS, BITS):
        m0, m1 = (t[_idx(0, b, x, y)] + t[_idx(1, b, x, y)] for x in BITS)
        if m0 != m1:
            issues.append(Issue("signaling-bob", (b, y), f"marginal {Fraction(m0, d)} "
                                f"for x=0 vs {Fraction(m1, d)} for x=1"))
    return ValidationReport(tuple(issues))


def validate(system: BinarySystem) -> ValidationReport:
    """Check nonnegativity, normalization and nonsignaling; report violations."""
    return validate_int(*system.integer_form)


# per (alpha, beta): the entries where nonlocal_vertex(alpha, beta, 0) is
# 1/2, and those where it is 0 (the support of the gamma = 1 vertex)
_ISO_SUPPORTS = tuple(
    (tuple(i for i, e in enumerate(nonlocal_vertex(alpha, beta, 0).table) if e),
     tuple(i for i, e in enumerate(nonlocal_vertex(alpha, beta, 0).table) if not e))
    for alpha, beta in product(BITS, BITS))


def is_isotropic(system: BinarySystem) -> Optional[Fraction]:
    """Recognize mixtures of opposite nonlocal vertices.

    Returns the wedge-convention parameter, i.e. epsilon such that
    NL(P) = 2*(1 + epsilon) exactly (negative for mixtures below the
    facet, 0 at P_F), or None if P is not isotropic.
    """
    t, d = system.integer_form
    for on, off in _ISO_SUPPORTS:
        n0, n1 = t[on[0]], t[off[0]]
        if any(t[i] != n0 for i in on) or any(t[i] != n1 for i in off):
            continue
        # q = 2*n0/d is the weight on the gamma=0 vertex, and each entry of
        # the gamma=1 vertex's support must hold (1 - q)/2
        if not 0 <= 2 * n0 <= d or 2 * n1 != d - 2 * n0:
            continue
        return Fraction(2 * abs(4 * n0 - d) - d, d)  # 2*|2q - 1| - 1
    return None

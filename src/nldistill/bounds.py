"""Upper bounds on distillable nonlocality from the delta tables.

The class bound for a profile (k0, k1, l0, l1) of preimage sizes is

    2 - (k0 + l0)/2^(n-2)
      + 4*[d+(k0,l0) + d+(k0,l1) + d+(k1,l0) - d-(k1,l1)]

evaluated on the level-n tables.  The isotropic bound maximizes this
over all profiles; because the expression has no k0-k1 cross term the
scan decouples: one slab per l0 gives every l1 its best k0 and k1 at
once, and the complement symmetry allows restricting k0 to [0, 2^(n-1)]
without changing the maximum.  The general bound reduces any
nonsignaling box to its minimal isotropic envelope first.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import kernels
from .boxes import BinarySystem, is_isotropic
from .decompose import Decomposition, minimal_isotropic
from .delta import DeltaTables, tables_for


@dataclass(frozen=True)
class ClassProfile:
    """Preimage sizes |f_x^-1(1)|, |g_y^-1(1)| for both inputs."""

    k0: int
    k1: int
    l0: int
    l1: int

    def check(self, n: int) -> None:
        size = 2 ** n
        for name, v in (("k0", self.k0), ("k1", self.k1),
                        ("l0", self.l0), ("l1", self.l1)):
            if not 0 <= v <= size:
                raise ValueError(f"profile {name}={v} outside 0..{size}")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.k0, self.k1, self.l0, self.l1)


@dataclass(frozen=True)
class BoundReport:
    raw_bound: Fraction
    clamped_bound: Fraction
    witness_profile: ClassProfile
    n: int
    system: BinarySystem
    system_nl: Fraction
    decomposition: Optional[Decomposition] = None

    def to_json_obj(self) -> dict:
        obj = {
            "n": self.n,
            "raw_bound": str(self.raw_bound),
            "clamped_bound": str(self.clamped_bound),
            "witness_profile": list(self.witness_profile.as_tuple()),
            "system_nl": str(self.system_nl),
            "system": self.system.to_json_obj(),
        }
        if self.decomposition is not None:
            obj["decomposition"] = self.decomposition.to_json_obj()
        return obj


def class_bound(tables: DeltaTables, profile: ClassProfile) -> Fraction:
    """Exact bound value for one class profile at the tables' level n."""
    n = tables.n
    if n < 1:
        raise ValueError("class bounds need tables of level n >= 1")
    profile.check(n)
    k0, k1, l0, l1 = profile.as_tuple()
    d = tables.delta
    return (
        2
        - Fraction(4 * (k0 + l0), 2 ** n)
        + 4 * (d("+", k0, l0) + d("+", k0, l1) + d("+", k1, l0) - d("-", k1, l1))
    )


def _scan_inputs(tables: DeltaTables):
    dpn = tables.p.denominator ** tables.n
    return tables.plus, tables.minus, dpn, tables.denominator


def iso_bound(system: BinarySystem, n: int, *,
              tables: Optional[DeltaTables] = None) -> BoundReport:
    """Upper bound on D(n, P) for an isotropic system.

    The k0 sweep stops at 2^(n-1) (complement symmetry).  Given ``tables``
    must be at the system's p and at level n (``ValueError``).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    eps = is_isotropic(system)
    if eps is None:
        raise ValueError("the isotropic bound applies to isotropic systems only")
    tables = tables_for(system.prob(0, 0, 0, 0), n, tables)
    xp, xm, dpn, denom = _scan_inputs(tables)
    size = 2 ** n
    best, witness = kernels.iso_scan(xp, xm, dpn, size // 2, size)
    raw = Fraction(4 * best, denom)
    profile = ClassProfile(*witness)
    check = class_bound(tables, profile)
    if check != raw:
        raise AssertionError(
            f"witness profile {witness} evaluates to {check}, scan reported {raw}"
        )
    nl = 2 * (1 + eps)  # NL(P), exactly (``is_isotropic``)
    if raw < nl:
        raise AssertionError(
            f"bound {raw} fell below the trivial one-copy protocol's {nl}"
        )
    return BoundReport(
        raw_bound=raw, clamped_bound=min(raw, Fraction(4)),
        witness_profile=profile, n=n, system=system, system_nl=nl,
    )


@dataclass(frozen=True, eq=False)
class ClassGrid:
    """Max class bound per aggregated cell (k0+k1, l0+l1): the cell [s_k, s_l]
    of ``kernels.grid_scan``'s ``scaled`` grid holds the bound times
    ``denominator``/4."""

    n: int
    scaled: np.ndarray
    denominator: int

    @property
    def size(self) -> int:
        return 2 ** (self.n + 1)

    @property
    def values(self) -> tuple[tuple[Fraction, ...], ...]:
        """Every cell's bound, indexed [s_k][s_l]."""
        return tuple(tuple(Fraction(4 * v, self.denominator) for v in row)
                     for row in self.scaled.tolist())

    def max_cell(self) -> tuple[Fraction, tuple[int, int]]:
        """The largest value and its first cell in row-major order."""
        sk, sl = np.unravel_index(int(np.argmax(self.scaled)), self.scaled.shape)
        return Fraction(4 * int(self.scaled[sk, sl]), self.denominator), (int(sk), int(sl))

    def to_csv(self, approx: bool = False) -> str:
        """A header, then "s_k,s_l,bound_num,bound_den" per cell in row-major
        order, lines ended by "\r\n" as the csv module ends them."""
        header = "s_k,s_l,bound_num,bound_den"
        if approx:
            header += ",bound_approx"  # decimal approximation, not exact
            rows = self._rows(lambda v, e: f"{v},{e},{v / e:.12g}")
        else:
            rows = self._rows(lambda v, e: f"{v},{e}")
        cols = [f"{sl}," for sl in range(self.size + 1)]
        lines = (f"{sk}," + f"\r\n{sk},".join(map(str.__add__, cols, row))
                 for sk, row in enumerate(rows))
        return "\r\n".join([header, *lines, ""])

    def to_json(self) -> str:
        """``json.dumps`` of {"n", "max", "max_cell", "cells"}, where
        cells[s_k][s_l] is "num/den" ("num" when whole), built by joins."""
        best, cell = self.max_cell()
        head = json.dumps({"n": self.n, "max": str(best), "max_cell": list(cell)})
        rows = self._rows(lambda v, e: f"{v}/{e}" if e != 1 else f"{v}")
        cells = '"], ["'.join(map('", "'.join, rows))
        return f'{head[:-1]}, "cells": [["{cells}"]]}}'

    def _rows(self, fmt) -> list[list[str]]:
        """``fmt(num, den)`` of every cell in lowest terms, indexed
        [s_k][s_l]; each distinct value is reduced and formatted once.

        4v/d = m4*v/d4 in lowest terms, m4 = 4/g4 and d4 = d/g4 with
        g4 = gcd(d, 4); with g = gcd(v, d4) the cell is (m4*(v/g), d4/g),
        since m4 is prime to d4.  The factor m4 is applied to Python ints
        after ``tolist``, so 4v never has to fit int64."""
        g4 = math.gcd(self.denominator, 4)
        m4, d4 = 4 // g4, self.denominator // g4
        values, inverse = np.unique(self.scaled.ravel(), return_inverse=True)
        g = np.gcd(values, d4)
        text = [fmt(m4 * v, e) for v, e in zip((values // g).tolist(), (d4 // g).tolist())]
        return np.array(text, dtype=object)[inverse].reshape(self.scaled.shape).tolist()


def class_grid(system: BinarySystem, n: int, *,
               tables: Optional[DeltaTables] = None) -> ClassGrid:
    """The full aggregated bound surface for an isotropic box."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if is_isotropic(system) is None:
        raise ValueError("the class grid applies to isotropic systems only")
    tables = tables_for(system.prob(0, 0, 0, 0), n, tables)
    xp, xm, dpn, denom = _scan_inputs(tables)
    size = 2 ** n
    return ClassGrid(n=n, scaled=kernels.grid_scan(xp, xm, dpn, size),
                     denominator=denom)


def envelope_bound(system: BinarySystem, n: int, dec: Decomposition,
                   envelope: Optional[BoundReport]) -> BoundReport:
    """The box's report from its decomposition and its envelope's bound.

    ``dec`` is ``minimal_isotropic(system)``, whose ``system_nl`` the
    report carries.  ``envelope`` is ``iso_bound``'s report on
    ``dec.p_iso``; a local box (epsilon 0) has no envelope and gets the
    trivial bound 2.
    """
    if (envelope is None) != (dec.epsilon == 0):
        raise ValueError("a box has an envelope bound exactly when epsilon > 0")
    if envelope is None:
        raw, clamped, profile = Fraction(2), Fraction(2), ClassProfile(0, 0, 0, 0)
    else:
        raw, clamped = envelope.raw_bound, envelope.clamped_bound
        profile = envelope.witness_profile
    return BoundReport(
        raw_bound=raw, clamped_bound=clamped, witness_profile=profile, n=n,
        system=system, system_nl=dec.system_nl, decomposition=dec,
    )


def general_bound(system: BinarySystem, n: int) -> BoundReport:
    """General bound: reduce to the minimal isotropic envelope, then bound it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    dec = minimal_isotropic(system)
    envelope = None if dec.epsilon == 0 else iso_bound(dec.p_iso, n)
    return envelope_bound(system, n, dec, envelope)

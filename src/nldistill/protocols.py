"""Deterministic distillation protocols: simulation and exhaustive search.

A protocol on n copies is a wiring per side and protocol input (a
visiting order plus, per step, a truth table from previously observed
outputs to the next box input) together with decision functions
f_0, f_1, g_0, g_1 mapping the n collected bits to one output bit.
Because the copies are independent and nonsignaling, the joint wiring
distribution factorizes as W(a,b) = prod_i P(a_i, b_i | u_i(a), v_i(b)),
with each side's box inputs determined by its own observed bits.

The exhaustive search exploits that the anchor-00 CHSH sum of a protocol
is linear in four independent choices (Alice's per-input wiring plus
decision table, same for Bob), each entry an inner product
<f, g> = (1-2f)^T W (1-2g); the complement symmetry removes the modulus
and halves the f_0 space.  For fixed Bob atoms the best decision table of
Alice is a sign pattern, so the search needs only the vectors W (1-2g),
one matmul over the wiring numerators W, and never the table of inner
products.  ``kernels.bilinear_scan`` scans them in int64 when magnitudes
fit (in int32 when four times the scale does), otherwise in Python ints
behind its certified float filter.  ``SearchResult.method`` names the table's
dtype, "int64" on both integer widths.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product
from typing import Optional

import numpy as np

from . import kernels
from .boxes import BinarySystem, is_isotropic, nl_value
from .delta import DeltaTables, tables_for


# ---------------------------------------------------------------------------
# Protocol data model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WiringPlan:
    """One side's wiring for one protocol input value.

    ``order[t]`` is the box visited at step t; ``steps[t]`` is a truth
    table (bitmask over the t previously observed output bits, first
    observation is the most significant bit) giving the input fed into
    that box.
    """

    order: tuple[int, ...]
    steps: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.order)
        if sorted(self.order) != list(range(n)):
            raise ValueError(f"order {self.order} is not a permutation")
        if len(self.steps) != n:
            raise ValueError("one step table per visited box required")
        for t, mask in enumerate(self.steps):
            if not 0 <= mask < (1 << (1 << t)):
                raise ValueError(f"step {t} table out of range")

    def box_inputs(self, outputs: tuple[int, ...]) -> tuple[int, ...]:
        """Per-box inputs this plan feeds when the boxes output ``outputs``."""
        u = [0] * len(self.order)
        hist = 0
        for t, box in enumerate(self.order):
            u[box] = (self.steps[t] >> hist) & 1
            hist = (hist << 1) | outputs[box]
        return tuple(u)


@dataclass(frozen=True)
class SideStrategy:
    plans: tuple[WiringPlan, WiringPlan]  # for protocol input 0 and 1

    def plan(self, x: int) -> WiringPlan:
        return self.plans[x]


@dataclass(frozen=True)
class Protocol:
    n: int
    alice: SideStrategy
    bob: SideStrategy
    f: tuple[tuple[int, ...], tuple[int, ...]]  # truth tables, length 2^n
    g: tuple[tuple[int, ...], tuple[int, ...]]

    def __post_init__(self) -> None:
        want = 1 << self.n
        for tt in (*self.f, *self.g):
            if len(tt) != want or any(b not in (0, 1) for b in tt):
                raise ValueError(f"decision tables must be 0/1 tuples of length {want}")

    def to_json_obj(self) -> dict:
        def side(s: SideStrategy) -> list[dict]:
            return [
                {
                    "order": list(p.order),
                    "inputs": [
                        [(p.steps[t] >> h) & 1 for h in range(1 << t)]
                        for t in range(len(p.order))
                    ],
                }
                for p in s.plans
            ]

        return {
            "n": self.n,
            "alice": side(self.alice),
            "bob": side(self.bob),
            "f": [list(tt) for tt in self.f],
            "g": [list(tt) for tt in self.g],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Protocol":
        def plan(rec: dict) -> WiringPlan:
            steps = tuple(
                sum(bit << h for h, bit in enumerate(tbl)) for tbl in rec["inputs"]
            )
            return WiringPlan(order=tuple(rec["order"]), steps=steps)

        return cls(
            n=obj["n"],
            alice=SideStrategy(tuple(plan(r) for r in obj["alice"])),
            bob=SideStrategy(tuple(plan(r) for r in obj["bob"])),
            f=tuple(tuple(tt) for tt in obj["f"]),
            g=tuple(tuple(tt) for tt in obj["g"]),
        )


def trivial_protocol(n: int = 1) -> Protocol:
    """Feed the protocol input into every box, output box 0's bit."""
    plan0 = WiringPlan(order=tuple(range(n)), steps=(0,) * n)
    plan1 = WiringPlan(order=tuple(range(n)),
                       steps=tuple((1 << (1 << t)) - 1 for t in range(n)))
    side = SideStrategy((plan0, plan1))
    table = tuple((a >> (n - 1)) & 1 for a in range(1 << n))
    return Protocol(n=n, alice=side, bob=side, f=(table, table), g=(table, table))


def enumerate_plans(n: int) -> list[WiringPlan]:
    """All deterministic wiring plans for one side and one input value."""
    plans = []
    step_spaces = [range(1 << (1 << t)) for t in range(n)]
    for order in permutations(range(n)):
        for steps in product(*step_spaces):
            plans.append(WiringPlan(order=order, steps=tuple(steps)))
    return plans


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def _bits(value: int, n: int) -> tuple[int, ...]:
    return tuple((value >> (n - 1 - i)) & 1 for i in range(n))


def wiring_grid(system: BinarySystem, plan_a: WiringPlan,
                plan_b: WiringPlan) -> np.ndarray:
    """Exact 2^n x 2^n outcome distribution of one fixed wiring pair."""
    n = len(plan_a.order)
    size = 1 << n
    grid = np.empty((size, size), dtype=object)
    a_inputs = [plan_a.box_inputs(_bits(a, n)) for a in range(size)]
    b_inputs = [plan_b.box_inputs(_bits(b, n)) for b in range(size)]
    for a in range(size):
        abits = _bits(a, n)
        for b in range(size):
            bbits = _bits(b, n)
            w = Fraction(1)
            v = b_inputs[b]
            u = a_inputs[a]
            for i in range(n):
                w *= system.prob(abits[i], bbits[i], u[i], v[i])
            grid[a, b] = w
    return grid


def wiring_distribution(system: BinarySystem, protocol: Protocol,
                        x: int, y: int) -> np.ndarray:
    """W^{xy} for the protocol: both sides condition their plans on x, y."""
    return wiring_grid(system, protocol.alice.plan(x), protocol.bob.plan(y))


def inner_product(f: tuple[int, ...], g: tuple[int, ...],
                  grid: np.ndarray) -> Fraction:
    """<f,g> = (1-2f)^T W (1-2g), exactly.

    The expansion identity
    <f,g> = 1 - k/2^(n-1) - l/2^(n-1) + 4 f^T W g is re-verified whenever
    the wiring has uniform output marginals (always the case for wirings
    of isotropic boxes, where the identity is used).
    """
    size = grid.shape[0]
    if len(f) != size or len(g) != size or grid.shape[1] != size:
        raise ValueError("decision table and wiring dimensions differ")
    total = Fraction(0)
    ftwg = Fraction(0)
    row = [Fraction(0)] * size
    col = [Fraction(0)] * size
    for a in range(size):
        sa = 1 - 2 * f[a]
        for b in range(size):
            w = grid[a, b]
            total += sa * (1 - 2 * g[b]) * w
            row[a] += w
            col[b] += w
            if f[a] and g[b]:
                ftwg += w
    unif = Fraction(1, size)
    if all(r == unif for r in row) and all(c == unif for c in col):
        k, l = sum(f), sum(g)
        expansion = 1 - Fraction(2 * k, size) - Fraction(2 * l, size) + 4 * ftwg
        if expansion != total:
            raise AssertionError(
                f"inner-product expansion identity failed: {expansion} != {total}"
            )
    return total


def nl_protocol(system: BinarySystem, protocol: Protocol) -> Fraction:
    """CHSH value of the box a protocol simulates (max over the 4 anchors)."""
    ips = {}
    for x, y in product((0, 1), (0, 1)):
        grid = wiring_distribution(system, protocol, x, y)
        ips[x, y] = inner_product(protocol.f[x], protocol.g[y], grid)
    best = None
    for x, y in product((0, 1), (0, 1)):
        v = abs(ips[x, y] + ips[1 - x, y] + ips[x, 1 - y] - ips[1 - x, 1 - y])
        if best is None or v > best:
            best = v
    return best


# ---------------------------------------------------------------------------
# Exhaustive search for D(n, P), n <= 2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchResult:
    value: Fraction
    protocol: Protocol
    n: int
    atoms_per_side: int
    cells_scanned: int
    method: str  # the table's dtype: "int64", or "prefilter" on big ints
    distilled: bool  # value > NL(P)
    filter_survivors: Optional[int] = None  # cells re-checked on "prefilter"

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "value": str(self.value),
            "distilled": self.distilled,
            "atoms_per_side": self.atoms_per_side,
            "cells_scanned": self.cells_scanned,
            "method": self.method,
            "witness": self.protocol.to_json_obj(),
        }


def _plan_input_table(plans: list[WiringPlan], n: int) -> list[list[tuple[int, ...]]]:
    size = 1 << n
    return [[plan.box_inputs(_bits(o, n)) for o in range(size)] for plan in plans]


def _wiring_numerators(system: BinarySystem, plans: list[WiringPlan], n: int,
                       dtype) -> np.ndarray:
    """W[pa, pb, a, b]: the outcome distribution of the plan pair (pa, pb)
    times lcm-denominator^n, the product over the n copies of
    nums[x*8 + y*4 + a_i*2 + b_i], in one gather."""
    nums, _ = system.integer_form
    size = 1 << n
    bits = np.array([_bits(o, n) for o in range(size)])  # [o, i]
    inputs = np.array(_plan_input_table(plans, n))  # [plan, o, i]
    idx = ((8 * inputs + 2 * bits)[:, None, :, None]
           + (4 * inputs + bits)[None, :, None, :])  # [pa, pb, a, b, i]
    return np.array(nums, dtype=dtype)[idx].prod(axis=-1)


def _half_atom_vectors(w: np.ndarray) -> np.ndarray:
    """u[p, a, h] = (W_pq s_g)_a over the half atoms h = (q, g), the tables g
    with bit 0 clear in ascending order, s_g[b] = 1 - 2*g(b)."""
    n_plans, _, size, _ = w.shape
    g = np.arange(0, 1 << size, 2)
    signs = 1 - 2 * ((g[:, None] >> np.arange(size)) & 1)  # [g / 2, b]
    u = w @ signs.T.astype(w.dtype)  # [p, q, a, g / 2]
    return u.transpose(0, 2, 1, 3).reshape(n_plans, size, -1)


def _atom_protocol(n: int, plans: list[WiringPlan], n_tables: int,
                   witness: tuple[int, int, int, int]) -> Protocol:
    a0, a1, b0, b1 = witness
    size = 1 << n

    def split(atom: int) -> tuple[WiringPlan, tuple[int, ...]]:
        plan, mask = divmod(atom, n_tables)
        return plans[plan], tuple((mask >> a) & 1 for a in range(size))

    pa0, f0 = split(a0)
    pa1, f1 = split(a1)
    pb0, g0 = split(b0)
    pb1, g1 = split(b1)
    return Protocol(
        n=n,
        alice=SideStrategy((pa0, pa1)),
        bob=SideStrategy((pb0, pb1)),
        f=(f0, f1), g=(g0, g1),
    )


def brute_force_D(system: BinarySystem, n: int) -> SearchResult:
    """Exact D(n, P) for n in {1, 2} by complete protocol enumeration.

    The scan takes the complement reduction: it fixes f_0 on the all-zeros
    string and drops the modulus (module docstring).
    """
    if n not in (1, 2):
        raise ValueError("exhaustive search is feasible for n in {1, 2} only")
    plans = enumerate_plans(n)
    n_tables = 1 << (1 << n)
    _, denom = system.integer_form
    scale = denom ** n
    dtype = np.int64 if 16 * scale < (1 << 62) else object
    u = _half_atom_vectors(_wiring_numerators(system, plans, n, dtype))
    best, witness, survivors = kernels.bilinear_scan(u, scale)

    value = Fraction(best, scale)
    protocol = _atom_protocol(n, plans, n_tables, witness)
    check = nl_protocol(system, protocol)
    if check != value:
        raise AssertionError(
            f"witness protocol evaluates to {check}, scan reported {value}"
        )
    nl, _ = nl_value(system)
    n_atoms = len(plans) * n_tables
    return SearchResult(
        value=value, protocol=protocol, n=n,
        atoms_per_side=n_atoms, cells_scanned=n_atoms * n_atoms,
        method="int64" if dtype is np.int64 else "prefilter",
        distilled=value > nl, filter_survivors=survivors,
    )


# ---------------------------------------------------------------------------
# Sandwich verification against the table bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SandwichViolation:
    plan_a: WiringPlan
    plan_b: WiringPlan
    f: tuple[int, ...]
    g: tuple[int, ...]
    value: Fraction
    lower: Fraction
    upper: Fraction


@dataclass(frozen=True)
class SandwichReport:
    n: int
    checked: int
    exhaustive: bool
    seed: Optional[int]
    violations: tuple[SandwichViolation, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations


def _f_t_w_g(f_mask: int, g_mask: int, grid: np.ndarray) -> Fraction:
    total = Fraction(0)
    size = grid.shape[0]
    for a in range(size):
        if (f_mask >> a) & 1:
            for b in range(size):
                if (g_mask >> b) & 1:
                    total += grid[a, b]
    return total


def sandwich_check(system: BinarySystem, n: int, *,
                   samples: Optional[int] = 10_000, seed: int = 0,
                   tables: Optional[DeltaTables] = None) -> SandwichReport:
    """Verify delta_n^-(k,l) <= f^T W g <= delta_n^+(k,l) on real wirings.

    Always exhaustive for n = 1; for n = 2 a seeded sample of (wiring
    pair, f, g) triples, or the complete 2^16-case enumeration when
    ``samples`` is None.  The system must be isotropic (the sandwich is
    only claimed there), and given ``tables`` must be at its p and reach n.
    """
    if n not in (1, 2):
        raise ValueError("sandwich check supports n in {1, 2}")
    if is_isotropic(system) is None:
        raise ValueError("sandwich property applies to isotropic systems")
    tables = tables_for(system.prob(0, 0, 0, 0), n, tables)
    plans = enumerate_plans(n)
    size = 1 << n
    n_tables = 1 << size
    grids = {}

    def grid_for(ia: int, ib: int) -> np.ndarray:
        if (ia, ib) not in grids:
            grids[ia, ib] = wiring_grid(system, plans[ia], plans[ib])
        return grids[ia, ib]

    violations = []
    exhaustive = n == 1 or samples is None
    if exhaustive:
        cases = [
            (ia, ib, fm, gm)
            for ia in range(len(plans)) for ib in range(len(plans))
            for fm in range(n_tables) for gm in range(n_tables)
        ]
        used_seed = None
    else:
        rng = random.Random(seed)
        cases = [
            (rng.randrange(len(plans)), rng.randrange(len(plans)),
             rng.randrange(n_tables), rng.randrange(n_tables))
            for _ in range(samples)
        ]
        used_seed = seed
    for ia, ib, fm, gm in cases:
        grid = grid_for(ia, ib)
        k = fm.bit_count()
        l = gm.bit_count()
        v = _f_t_w_g(fm, gm, grid)
        lo = tables.delta("-", n, k, l)
        hi = tables.delta("+", n, k, l)
        if not lo <= v <= hi:
            violations.append(SandwichViolation(
                plan_a=plans[ia], plan_b=plans[ib],
                f=tuple((fm >> a) & 1 for a in range(size)),
                g=tuple((gm >> b) & 1 for b in range(size)),
                value=v, lower=lo, upper=hi,
            ))
    return SandwichReport(n=n, checked=len(cases), exhaustive=exhaustive,
                          seed=used_seed, violations=tuple(violations))

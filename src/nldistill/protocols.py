"""Deterministic distillation protocols: simulation and exhaustive search.

A protocol on n copies is a wiring per side and protocol input (a
visiting order plus, per step, a truth table from previously observed
outputs to the next box input) together with decision functions
f_0, f_1, g_0, g_1 mapping the n collected bits to one output bit.
Because the copies are independent and nonsignaling, the joint wiring
distribution factorizes as W(a,b) = prod_i P(a_i, b_i | u_i(a), v_i(b)),
with each side's box inputs determined by its own observed bits.  The
simulation runs on the integer numerators of ``BinarySystem.integer_form``:
a wiring entry is a product of n numerators over D^n, and Fractions are
built only for the values returned.

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

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import prod
from operator import mul
from typing import Optional

import numpy as np

from . import kernels
from .boxes import BinarySystem, is_isotropic, nl_value
from .delta import build_tables


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
class Protocol:
    n: int
    alice: tuple[WiringPlan, WiringPlan]  # for protocol input 0 and 1
    bob: tuple[WiringPlan, WiringPlan]
    f: tuple[tuple[int, ...], tuple[int, ...]]  # truth tables, length 2^n
    g: tuple[tuple[int, ...], tuple[int, ...]]

    def __post_init__(self) -> None:
        want = 1 << self.n
        for tt in (*self.f, *self.g):
            if len(tt) != want or any(b not in (0, 1) for b in tt):
                raise ValueError(f"decision tables must be 0/1 tuples of length {want}")

    def to_json_obj(self) -> dict:
        def side(plans: tuple[WiringPlan, WiringPlan]) -> list[dict]:
            return [
                {
                    "order": list(p.order),
                    "inputs": [
                        [(p.steps[t] >> h) & 1 for h in range(1 << t)]
                        for t in range(len(p.order))
                    ],
                }
                for p in plans
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
            alice=tuple(plan(r) for r in obj["alice"]),
            bob=tuple(plan(r) for r in obj["bob"]),
            f=tuple(tuple(tt) for tt in obj["f"]),
            g=tuple(tuple(tt) for tt in obj["g"]),
        )


def trivial_protocol(n: int = 1) -> Protocol:
    """Feed the protocol input into every box, output box 0's bit."""
    plan0 = WiringPlan(order=tuple(range(n)), steps=(0,) * n)
    plan1 = WiringPlan(order=tuple(range(n)),
                       steps=tuple((1 << (1 << t)) - 1 for t in range(n)))
    side = (plan0, plan1)
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
    """Outcome distribution of one fixed wiring pair: 2^n x 2^n Python-int
    numerators over D^n, where (nums, D) = ``system.integer_form``.  Entry
    (a, b) is the product over the copies i of nums[u_i*8 + v_i*4 + a_i*2 + b_i],
    with u and v the box inputs the plans feed on outputs a and b."""
    nums, _ = system.integer_form
    n = len(plan_a.order)
    outputs = [_bits(o, n) for o in range(1 << n)]
    rows = [[8 * u + 2 * a for u, a in zip(plan_a.box_inputs(bits), bits)] for bits in outputs]
    cols = [[4 * v + b for v, b in zip(plan_b.box_inputs(bits), bits)] for bits in outputs]
    return np.array([[prod(nums[i + j] for i, j in zip(r, c)) for c in cols] for r in rows],
                    dtype=object)


def _f_t_w_g(f: tuple[int, ...], g: tuple[int, ...], rows: list[list[int]]) -> int:
    """f^T W g for the rows of a grid W of integer numerators."""
    return sum(w for fa, row in zip(f, rows) if fa for gb, w in zip(g, row) if gb)


def _signed_sum(f: tuple[int, ...], g: tuple[int, ...],
                grid: np.ndarray) -> tuple[int, int]:
    """(1-2f)^T W (1-2g) and the sum of W, for a grid W of integer numerators.

    The expansion identity
    <f,g> = 1 - k/2^(n-1) - l/2^(n-1) + 4 f^T W g / sum(W) is re-verified,
    multiplied through by 2^n sum(W), whenever the wiring has uniform output
    marginals (always the case for wirings of isotropic boxes, where the
    identity is used).
    """
    size = grid.shape[0]
    if len(f) != size or len(g) != size or grid.shape[1] != size:
        raise ValueError("decision table and wiring dimensions differ")
    rows = grid.tolist()
    signs = [1 - 2 * gb for gb in g]
    total = sum((1 - 2 * fa) * sum(map(mul, signs, row)) for fa, row in zip(f, rows))
    margins = [sum(row) for row in rows] + [sum(col) for col in zip(*rows)]
    den = sum(margins[:size])
    if all(size * m == den for m in margins):
        expansion = (size - 2 * sum(f) - 2 * sum(g)) * den + 4 * size * _f_t_w_g(f, g, rows)
        if expansion != size * total:
            raise AssertionError(f"inner-product expansion identity failed: "
                                 f"{expansion} != {size * total} over {size * den}")
    return total, den


def inner_product(f: tuple[int, ...], g: tuple[int, ...],
                  grid: np.ndarray) -> Fraction:
    """<f,g> = (1-2f)^T W (1-2g) / sum(W), exactly, for a ``wiring_grid`` W;
    ``_signed_sum`` re-checks the expansion identity."""
    return Fraction(*_signed_sum(f, g, grid))


def nl_protocol(system: BinarySystem, protocol: Protocol) -> Fraction:
    """CHSH value of the box a protocol simulates (max over the 4 anchors),
    summed in integer numerators over D^n."""
    ips = {(x, y): _signed_sum(protocol.f[x], protocol.g[y],
                               wiring_grid(system, protocol.alice[x], protocol.bob[y]))[0]
           for x, y in product((0, 1), (0, 1))}
    best = max(abs(ips[x, y] + ips[1 - x, y] + ips[x, 1 - y] - ips[1 - x, 1 - y])
               for x, y in product((0, 1), (0, 1)))
    return Fraction(best, system.integer_form[1] ** protocol.n)


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
        alice=(pa0, pa1),
        bob=(pb0, pb1),
        f=(f0, f1), g=(g0, g1),
    )


def brute_force_D(system: BinarySystem, n: int) -> SearchResult:
    """Exact D(n, P) for n in {1, 2} by complete protocol enumeration.

    The scan takes the complement reduction: it fixes f_0 on the all-zeros
    string and drops the modulus (module docstring).  ``nl_protocol``
    re-checks the witness by simulating it.  The check is independent of the
    search: it shares only ``integer_form``, ``_bits`` and
    ``WiringPlan.box_inputs`` with ``_wiring_numerators``, which computes the
    same products.
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
    violations: tuple[SandwichViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def sandwich_check(system: BinarySystem, n: int) -> SandwichReport:
    """Verify delta_n^-(k,l) <= f^T W g <= delta_n^+(k,l) on every wiring
    pair and decision pair (f, g), k = |f| and l = |g|: 64 cases at n = 1,
    2^16 at n = 2.  The system must be isotropic (the sandwich is only
    claimed there).

    One gather gives the wiring numerators over scale = D^n and one einsum
    with the 0/1 decision matrix every f^T W g.  Each is compared with the
    level-n numerators over den = (2*den(p))^n by cross multiplication;
    Fractions are built only for violations.
    """
    if n not in (1, 2):
        raise ValueError("sandwich check supports n in {1, 2}")
    if is_isotropic(system) is None:
        raise ValueError("sandwich property applies to isotropic systems")
    tables = build_tables(system.prob(0, 0, 0, 0), n)
    plans = enumerate_plans(n)
    size = 1 << n
    scale = system.integer_form[1] ** n
    den = tables.level_denominator(n)
    # 0 <= f^T W g <= scale and |delta| <= den bound both cross products
    dtype = np.int64 if scale * den < 1 << 62 else object
    decisions = (np.arange(1 << size)[:, None] >> np.arange(size)) & 1  # [f, a]
    d = decisions.astype(dtype)
    values = np.einsum("fa,xyab,gb->xyfg", d, _wiring_numerators(system, plans, n, dtype), d)
    counts = decisions.sum(axis=1)
    upper = tables.plus[n][np.ix_(counts, counts)].astype(dtype) * scale
    lower = tables.minus[n][np.ix_(counts, counts)].astype(dtype) * scale
    scaled = values * den
    violations = tuple(
        SandwichViolation(plan_a=plans[ia], plan_b=plans[ib],
                          f=tuple(decisions[fm].tolist()), g=tuple(decisions[gm].tolist()),
                          value=Fraction(int(values[ia, ib, fm, gm]), scale),
                          lower=tables.delta("-", n, counts[fm], counts[gm]),
                          upper=tables.delta("+", n, counts[fm], counts[gm]))
        for ia, ib, fm, gm in np.argwhere((scaled < lower) | (scaled > upper)).tolist())
    return SandwichReport(n=n, checked=values.size, violations=violations)

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nldistill import (
    BinarySystem,
    LOCAL_VERTICES,
    NONLOCAL_VERTICES,
    PR,
    Protocol,
    WiringPlan,
    DeltaTables,
    brute_force_D,
    build_tables,
    enumerate_plans,
    general_bound,
    inner_product,
    iso_bound,
    kernels,
    mix,
    nl_protocol,
    nl_value,
    protocols,
    sandwich_check,
    trivial_protocol,
    wedge,
    wiring_grid,
)
from nldistill.protocols import _atom_protocol, _half_atom_vectors, _wiring_numerators

import scalar_kernels
from conftest import random_nonlocal_box, random_ns_box

F = Fraction


def both_inputs_side(n=2) -> tuple[WiringPlan, WiringPlan]:
    """Feed the protocol input into every box, in index order."""
    plan0 = WiringPlan(order=tuple(range(n)), steps=(0,) * n)
    plan1 = WiringPlan(order=tuple(range(n)),
                       steps=tuple((1 << (1 << t)) - 1 for t in range(n)))
    return plan0, plan1


def random_protocol(rng: random.Random, n: int = 2) -> Protocol:
    plans = enumerate_plans(n)
    size = 1 << n

    def table() -> tuple[int, ...]:
        return tuple(rng.randrange(2) for _ in range(size))

    def side() -> tuple[WiringPlan, WiringPlan]:
        return rng.choice(plans), rng.choice(plans)

    return Protocol(n=n, alice=side(), bob=side(),
                    f=(table(), table()), g=(table(), table()))


def complement(tt: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(1 - b for b in tt)


def probabilities(box, grid):
    """A wiring grid's integer numerators divided by D^n."""
    scale = box.integer_form[1] ** (grid.shape[0].bit_length() - 1)
    return np.array([[F(w, scale) for w in row] for row in grid.tolist()], dtype=object)


def distribution(box, proto, x, y):
    """W^{xy} of the protocol as probabilities."""
    return probabilities(box, wiring_grid(box, proto.alice[x], proto.bob[y]))


def test_plan_count_and_validation():
    assert len(enumerate_plans(1)) == 2
    assert len(enumerate_plans(2)) == 16
    with pytest.raises(ValueError):
        WiringPlan(order=(0, 0), steps=(0, 0))
    with pytest.raises(ValueError):
        WiringPlan(order=(0, 1), steps=(0,))
    with pytest.raises(ValueError):
        WiringPlan(order=(0, 1), steps=(0, 4))


def test_wiring_single_copy_is_the_box():
    w = wedge(F(1, 5), F(1, 10))
    proto = trivial_protocol(1)
    for x, y in product((0, 1), (0, 1)):
        grid = distribution(w, proto, x, y)
        for a, b in product((0, 1), (0, 1)):
            assert grid[a, b] == w.prob(a, b, x, y)


def test_wiring_two_pr_copies_uniform_on_xor():
    proto = Protocol(n=2, alice=both_inputs_side(), bob=both_inputs_side(),
                     f=((0,) * 4,) * 2, g=((0,) * 4,) * 2)
    for x, y in product((0, 1), (0, 1)):
        grid = distribution(PR, proto, x, y)
        for a in range(4):
            for b in range(4):
                want = F(1, 4) if (a ^ b) == (3 if x and y else 0) else F(0)
                assert grid[a, b] == want


def test_wiring_grids_normalized_and_nonsignaling():
    rng = random.Random(21)
    for _ in range(10):
        box = random_ns_box(rng)
        proto = random_protocol(rng)
        grids = {
            (x, y): distribution(box, proto, x, y)
            for x, y in product((0, 1), (0, 1))
        }
        for grid in grids.values():
            assert sum(grid.ravel()) == 1
        # Alice's outcome marginal may depend on x only, Bob's on y only
        for x in (0, 1):
            m0 = [sum(grids[x, 0][a, :]) for a in range(4)]
            m1 = [sum(grids[x, 1][a, :]) for a in range(4)]
            assert m0 == m1
        for y in (0, 1):
            m0 = [sum(grids[0, y][:, b]) for b in range(4)]
            m1 = [sum(grids[1, y][:, b]) for b in range(4)]
            assert m0 == m1


def test_disordered_wiring_still_normalizes():
    # Alice visits 0 then 1; Bob visits 1 then 0, feeding box 1's output
    plan_a = WiringPlan(order=(0, 1), steps=(0, 0b01))
    plan_b = WiringPlan(order=(1, 0), steps=(1, 0b10))
    rng = random.Random(22)
    for _ in range(5):
        box = random_ns_box(rng)
        grid = probabilities(box, wiring_grid(box, plan_a, plan_b))
        assert sum(grid.ravel()) == 1


def test_inner_product_basics():
    proto = trivial_protocol(1)
    w = wiring_grid(PR, proto.alice[1], proto.bob[1])
    assert inner_product((0, 1), (0, 1), w) == -1
    assert inner_product((0, 0), (0, 0), w) == 1
    assert inner_product((1, 0), (0, 1), w) == 1
    rng = random.Random(23)
    for _ in range(10):
        proto = random_protocol(rng)
        box = random_ns_box(rng)
        grid = wiring_grid(box, proto.alice[0], proto.bob[1])
        f, g = proto.f[0], proto.g[1]
        assert inner_product(complement(f), g, grid) == -inner_product(f, g, grid)
    with pytest.raises(ValueError):
        inner_product((0,), (0, 1), w)


def test_expansion_identity_on_isotropic_wirings():
    rng = random.Random(24)
    box = wedge(F(1, 5), 0)
    size = 4
    for _ in range(30):
        proto = random_protocol(rng)
        grid = wiring_grid(box, proto.alice[rng.randrange(2)], proto.bob[rng.randrange(2)])
        f = tuple(rng.randrange(2) for _ in range(size))
        g = tuple(rng.randrange(2) for _ in range(size))
        k, l = sum(f), sum(g)
        w = probabilities(box, grid)
        ftwg = sum(w[a, b] for a in range(size) for b in range(size)
                   if f[a] and g[b])
        assert inner_product(f, g, grid) == \
            1 - F(k, 2) - F(l, 2) + 4 * ftwg


def test_inner_product_is_the_ip_table_entry():
    # <f, g> * D^n of the simulation equals the independent integer entry of
    # scalar_kernels.ip_table: every plan pair and (f, g) at n = 1, a seeded
    # sample at n = 2, on random boxes
    rng = random.Random(32)
    boxes = [random_ns_box(rng), random_nonlocal_box(rng), random_ns_box(rng)]
    for n in (1, 2):
        plans = enumerate_plans(n)
        size = 1 << n
        n_tables = 1 << size
        cells = list(product(range(len(plans)), range(len(plans)),
                             range(n_tables), range(n_tables)))
        if n == 2:
            cells = rng.sample(cells, 500)
        for box in boxes:
            t = scalar_kernels.ip_table(box, plans, n, np.int64)
            scale = box.integer_form[1] ** n
            for pa, pb, fm, gm in cells:
                f = tuple((fm >> a) & 1 for a in range(size))
                g = tuple((gm >> b) & 1 for b in range(size))
                ip = inner_product(f, g, wiring_grid(box, plans[pa], plans[pb]))
                assert ip * scale == t[pa * n_tables + fm, pb * n_tables + gm]


BROKEN_SIMULATION = """
from fractions import Fraction
from nldistill import brute_force_D, inner_product, kernels, protocols, wedge, wiring_grid
print("debug", __debug__)
box = wedge(Fraction(1, 5), 0)
plans = protocols.enumerate_plans(2)
grid = wiring_grid(box, plans[5], plans[9])
real_ftwg = protocols._f_t_w_g
protocols._f_t_w_g = lambda f, g, rows: real_ftwg(f, g, rows) + 1
try:
    inner_product((0, 1, 1, 0), (1, 1, 0, 1), grid)
except AssertionError as exc:
    print("raised", exc)
protocols._f_t_w_g = real_ftwg
real_scan = kernels.bilinear_scan
def moved(u, scale):
    best, witness, survivors = real_scan(u, scale)
    return best + 1, witness, survivors
kernels.bilinear_scan = moved
try:
    brute_force_D(box, 2)
except AssertionError as exc:
    print("raised", exc)
"""


def test_simulation_checks_survive_optimize_flag():
    # an f^T W g sum one unit off breaks the expansion identity, and a scan
    # value one unit off disagrees with the simulated witness; both checks
    # raise even under python -O, which strips assert statements
    proc = subprocess.run([sys.executable, "-O", "-c", BROKEN_SIMULATION],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "debug False"
    assert lines[1].startswith("raised inner-product expansion identity failed:")
    assert lines[2] == "raised witness protocol evaluates to 12/5, scan reported 241/100"


def test_nl_protocol_trivial_and_xor():
    for box in (PR, wedge(F(1, 5), F(1, 5))):
        assert nl_protocol(box, trivial_protocol(1)) == nl_value(box)[0]
    xor = tuple((a ^ (a >> 1)) & 1 for a in range(4))
    proto = Protocol(n=2, alice=both_inputs_side(), bob=both_inputs_side(),
                     f=(xor, xor), g=(xor, xor))
    assert nl_protocol(PR, proto) == 2


def test_complement_invariance_of_protocols():
    rng = random.Random(25)
    boxes = [wedge(F(1, 5), 0), random_ns_box(rng), random_nonlocal_box(rng)]
    for i in range(60):
        proto = random_protocol(rng)
        box = boxes[i % len(boxes)]
        base = nl_protocol(box, proto)
        fbar = Protocol(n=2, alice=proto.alice, bob=proto.bob,
                        f=(complement(proto.f[0]), complement(proto.f[1])),
                        g=proto.g)
        gbar = Protocol(n=2, alice=proto.alice, bob=proto.bob, f=proto.f,
                        g=(complement(proto.g[0]), complement(proto.g[1])))
        both = Protocol(n=2, alice=proto.alice, bob=proto.bob,
                        f=fbar.f, g=gbar.g)
        assert nl_protocol(box, fbar) == base
        assert nl_protocol(box, gbar) == base
        assert nl_protocol(box, both) == base


def test_brute_force_one_copy_oracle():
    rng = random.Random(26)
    for _ in range(6):
        box = random_nonlocal_box(rng)
        res = brute_force_D(box, 1)
        assert res.value == nl_value(box)[0]
        assert not res.distilled
    # with constant decisions a protocol reaches CHSH value 2 on any box
    for _ in range(4):
        box = random_ns_box(rng)
        res = brute_force_D(box, 1)
        assert res.value == max(F(2), nl_value(box)[0])


def test_brute_force_matches_direct_enumeration_n1():
    rng = random.Random(27)
    plans = enumerate_plans(1)
    for _ in range(2):
        box = random_nonlocal_box(rng)
        best = F(0)
        tables = list(product((0, 1), (0, 1)))
        for pa0, pa1, pb0, pb1 in product(range(2), repeat=4):
            alice = (plans[pa0], plans[pa1])
            bob = (plans[pb0], plans[pb1])
            for f0, f1, g0, g1 in product(tables, repeat=4):
                proto = Protocol(n=1, alice=alice, bob=bob,
                                 f=(f0, f1), g=(g0, g1))
                best = max(best, nl_protocol(box, proto))
        assert brute_force_D(box, 1).value == best


def test_brute_force_two_copy_isotropic():
    box = wedge(F(1, 2), 0)
    res = brute_force_D(box, 2)
    assert res.value == 3
    assert res.value == iso_bound(box, 2).raw_bound
    assert not res.distilled
    assert nl_protocol(box, res.protocol) == 3


def test_bound_tight_against_search_on_isotropic_line():
    for eps in (F(1, 5), F(3, 4)):
        box = wedge(eps, 0)
        for n in (1, 2):
            assert brute_force_D(box, n).value == \
                iso_bound(box, n).raw_bound == 2 * (1 + eps)


def test_brute_force_reductions_and_prefilter_agree():
    # the complement reduction loses nothing: the search equals the sweep of
    # the full atom table over every a0
    rng = random.Random(28)
    box = random_nonlocal_box(rng)
    half = brute_force_D(box, 1)
    u, denom = _half_atoms(box, 1)
    t = scalar_kernels.atom_table(u)
    assert half.value == F(scalar_kernels.t_sweep(t, np.arange(t.shape[0]))[0], denom)
    # the same vectors as Python ints take the float filter path
    filtered = kernels.bilinear_scan(u.astype(object), denom)
    assert filtered[:2] == kernels.bilinear_scan(u, denom)[:2]
    assert F(filtered[0], denom) == half.value
    u, scale = _half_atoms(wedge(F(1, 2), 0), 2)
    t = scalar_kernels.atom_table(u)
    assert brute_force_D(wedge(F(1, 2), 0), 2).value \
        == F(scalar_kernels.t_sweep(t, np.arange(t.shape[0]))[0], scale)


def test_prefilter_margin_keeps_near_ties(monkeypatch):
    # Two nonlocal vertices and a local one at weights 2/5, 2/3 and 11/15,
    # each moved by 2^-101, plus 2^-110 of a second local vertex: the
    # two-copy search's best cells then differ by about 2^-120 while their
    # float sums differ in the last bits, and the exact optimum rounds below
    # a runner-up.  A pre-filter keeping only the float optimum (margin 0)
    # returns the runner-up's value.
    e, d = F(1, 2 ** 101), F(1, 2 ** 110)
    parts = [(F(2, 5) + e, NONLOCAL_VERTICES[1]), (F(2, 3) - e, NONLOCAL_VERTICES[4]),
             (F(11, 15) + e, LOCAL_VERTICES[3])]
    total = sum(w for w, _ in parts)
    box = mix([((1 - d) * w / total, v) for w, v in parts] + [(d, LOCAL_VERTICES[1])])
    pre = brute_force_D(box, 2)
    assert pre.method == "prefilter"
    # the reference re-checks every cell within 2^-30 of the float optimum,
    # far beyond any rounding
    monkeypatch.setattr(kernels, "filter_margin", lambda depth, m: 2.0 ** -30 * m)
    wide = brute_force_D(box, 2)
    assert (pre.value, pre.protocol) == (wide.value, wide.protocol)


def test_brute_force_lower_bounded_by_nl():
    box = wedge(F(1, 2), F(1, 4))
    res = brute_force_D(box, 2)
    assert res.value >= nl_value(box)[0] == 3


def test_brute_force_rejects_large_n():
    with pytest.raises(ValueError):
        brute_force_D(PR, 3)


def test_sandwich_exhaustive_n1():
    report = sandwich_check(wedge(F(1, 5), 0), 1)
    assert report.checked == 64 and report.ok


def test_sandwich_exhaustive_n2():
    # D^2 * (2*den(p))^2 passes 2^62 at epsilon 10^-12: the object path
    for box in (wedge(F(1, 5), 0), wedge(F(1, 10 ** 12), 0)):
        report = sandwich_check(box, 2)
        assert report.checked == 16 * 16 * 16 * 16
        assert report.ok


def test_sandwich_and_general_bound_take_no_options():
    box = wedge(F(1, 5), 0)
    for kwargs in ({"samples": 10}, {"seed": 0}, {"tables": build_tables(F(2, 5), 2)}):
        with pytest.raises(TypeError):
            sandwich_check(box, 2, **kwargs)
    with pytest.raises(TypeError):
        general_bound(box, 2, tables=build_tables(F(2, 5), 2))


def test_wiring_numerators_are_the_wiring_grids():
    box = random_ns_box(random.Random(41))
    for n in (1, 2):
        plans = enumerate_plans(n)
        for dtype in (np.int64, object):
            w = _wiring_numerators(box, plans, n, dtype)
            for pa, pb in product(range(len(plans)), repeat=2):
                assert w[pa, pb].tolist() == wiring_grid(box, plans[pa], plans[pb]).tolist()


def lowered_tables(p, n):
    """The tables at p with two level-n plus cells lowered by D_n/8; the
    derived minus grid rises at their mirror cells."""
    tables = build_tables(p, n)
    top = tables.plus[n].copy()
    top[1, 1] -= tables.level_denominator(n) // 8
    top[2, n] -= tables.level_denominator(n) // 8
    return DeltaTables(p=tables.p, plus=(*tables.plus[:n], top))


@pytest.mark.parametrize("n", [1, 2])
def test_sandwich_reports_every_violation(monkeypatch, n):
    # the integer pass flags exactly the cases a per-case Fraction loop over
    # wiring_grid, _f_t_w_g and DeltaTables.delta flags, in case order
    box = wedge(F(3, 7), 0)  # p = 3/7, an odd den(p)
    monkeypatch.setattr(protocols, "build_tables", lowered_tables)
    tables = lowered_tables(box.prob(0, 0, 0, 0), n)
    plans = enumerate_plans(n)
    size = 1 << n
    decisions = [tuple((m >> a) & 1 for a in range(size)) for m in range(1 << size)]
    scale = box.integer_form[1] ** n
    want = []
    for plan_a, plan_b in product(plans, repeat=2):
        rows = wiring_grid(box, plan_a, plan_b).tolist()
        for f, g in product(decisions, repeat=2):
            value = F(protocols._f_t_w_g(f, g, rows), scale)
            lower = tables.delta("-", n, sum(f), sum(g))
            upper = tables.delta("+", n, sum(f), sum(g))
            if not lower <= value <= upper:
                want.append(protocols.SandwichViolation(plan_a, plan_b, f, g,
                                                        value, lower, upper))
    report = sandwich_check(box, n)
    assert report.checked == len(plans) ** 2 * len(decisions) ** 2
    assert want and list(report.violations) == want
    assert {v.value > v.upper for v in want} == {False, True}


def test_sandwich_requires_isotropic():
    with pytest.raises(ValueError):
        sandwich_check(wedge(F(1, 5), F(1, 5)), 1)


def test_protocol_json_round_trip():
    rng = random.Random(29)
    proto = random_protocol(rng)
    again = Protocol.from_json_obj(proto.to_json_obj())
    assert again == proto
    res = brute_force_D(wedge(F(1, 2), 0), 1)
    obj = res.to_json_obj()
    assert obj["value"] == str(res.value)
    assert Protocol.from_json_obj(obj["witness"]) == res.protocol


def _half_atoms(box, n, dtype=np.int64):
    """The search's half-atom vectors of ``box`` and their scale."""
    _, denom = box.integer_form
    return _half_atom_vectors(_wiring_numerators(box, enumerate_plans(n), n, dtype)), denom ** n


def _reduced_a0(t, size):
    """The a0 set of the complement reduction: f_0(0) = 0, the even table
    masks."""
    return np.array([a for a in range(t.shape[0]) if not (a % (1 << size)) & 1],
                    dtype=np.int64)


def test_bilinear_scan_backends_agree():
    # The scalar reference body sweeps the atom table T built from the
    # search's vectors; the kernel, which never forms T, must return the
    # same best value and witness on int64 and on Python ints.
    w = wedge(F(1, 2), 0)
    u, scale = _half_atoms(w, 1)
    assert u.shape == (2, 2, 4)  # 2 wiring plans, 2 outcomes, 2 x 2 half atoms
    t = scalar_kernels.atom_table(u)
    assert t.shape == (8, 8)
    assert (t == scalar_kernels.ip_table(w, enumerate_plans(1), 1, np.int64)).all()
    scalar = [int(v) for v in scalar_kernels.bilinear_scan(t, _reduced_a0(t, 2))]
    for vectors in (u, u.astype(object)):
        best, witness, _ = kernels.bilinear_scan(vectors, scale)
        assert [best, *witness] == scalar, vectors.dtype
    # all-zero vectors tie everywhere: the lex-min witness, and on Python
    # ints every cell survives the float pass
    zeros = np.zeros((2, 4, 16), dtype=object)
    assert kernels.bilinear_scan(zeros, 1) == (0, (0, 0, 0, 0), 32 * 32)
    assert kernels.bilinear_scan(zeros.astype(np.int64), 1) \
        == (0, (0, 0, 0, 0), None)
    # the reduced scan is the whole n = 1 search for this box
    best, _, _ = kernels.bilinear_scan(u, scale)
    assert F(best, scale) == brute_force_D(w, 1).value


def test_bilinear_scan_checks_the_column_sums():
    # the float filter's margin and the int path's width both assume
    # sum_a |u[p, a, h]| <= scale
    for dtype in (object, np.int64):
        u = np.zeros((1, 2, 2), dtype=dtype)
        u[0, :, 1] = [3, -2]
        assert kernels.bilinear_scan(u, 5)[0] == 10
        with pytest.raises(ValueError, match="sums past 4"):
            kernels.bilinear_scan(u, 4)


def test_bilinear_scan_int32_width_matches_the_t_sweep(monkeypatch):
    # An int64 u runs in int32 exactly when 4*scale < 2^31, where every
    # integer the search forms fits (the comment above bilinear_scan).  r7's
    # vectors, whose scale has 30 bits, stay int64; floored to column sums
    # of at most 2^29 - 1 they run in int32, and at scale 2^29 in int64.
    # Doubled, with scale 2*r7 < 2^31, they stay int64: their best cell
    # passes 2^31.
    widths = []
    sign_pass = kernels._sign_pass

    def recording(u):
        widths.append(u.dtype)
        return sign_pass(u)

    monkeypatch.setattr(kernels, "_sign_pass", recording)
    box = BinarySystem.from_json_obj(json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json")
        .read_text())["boxes"]["r7"])
    u7, s7 = _half_atoms(box, 2)
    assert 2 ** 29 <= s7 < 2 ** 30
    top = (2 ** 31 - 1) // 4  # 4*top is 2^31 - 4
    # |floor(x)| <= |x| + 1, so each column of four sums to at most top
    small = u7 * (top - 4) // s7
    assert top - 8 <= np.abs(small).sum(axis=1).max() <= top
    cases = [(small, top, np.int32), (small, top + 1, np.int64),
             (u7, s7, np.int64), (2 * u7, 2 * s7, np.int64)]
    for u, scale, width in cases:
        t = scalar_kernels.atom_table(u)
        best, witness = scalar_kernels.t_sweep(t, _reduced_a0(t, 4))
        widths.clear()
        assert kernels.bilinear_scan(u, scale) == (best, witness, None), scale
        assert widths == [width], scale
    assert best > 2 ** 31


def _reference_boxes():
    ref = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                      / "reference.json").read_text())
    rng = random.Random(31)
    return ([wedge(F(1, 2), 0), wedge(0, 0), wedge(1, 0)]
            + [BinarySystem.from_json_obj(obj) for obj in ref["boxes"].values()]
            + list(LOCAL_VERTICES) + list(NONLOCAL_VERTICES)
            + [random_nonlocal_box(rng) for _ in range(3)]
            + [random_ns_box(rng) for _ in range(3)])


def test_search_n2_matches_the_t_sweep():
    # value, witness and Protocol of the two-copy search against the sweep
    # of the full atom table: pr_half, the benchmark's r0-r7, all 24
    # vertices, wedge(0,0), wedge(1,0) and random boxes
    plans = enumerate_plans(2)
    for box in _reference_boxes():
        t = scalar_kernels.ip_table(box, plans, 2, np.int64)
        u, scale = _half_atoms(box, 2)
        best, witness = scalar_kernels.t_sweep(t, _reduced_a0(t, 4))
        assert kernels.bilinear_scan(u, scale) == (best, witness, None)
        res = brute_force_D(box, 2)
        assert res.value == F(best, scale)
        assert res.protocol == _atom_protocol(2, plans, 16, witness)


def test_full_search_equals_the_reduced_one_n2():
    # the sweep of the full table over every a0 reaches the search's value:
    # the complement reduction loses no protocol's value
    plans = enumerate_plans(2)
    for box in (wedge(F(1, 2), 0), wedge(0, 0), NONLOCAL_VERTICES[2], LOCAL_VERTICES[5]):
        t = scalar_kernels.ip_table(box, plans, 2, np.int64)
        _, scale = _half_atoms(box, 2)
        best, _ = scalar_kernels.t_sweep(t, np.arange(t.shape[0]))
        assert brute_force_D(box, 2).value == F(best, scale)


@st.composite
def tie_heavy_vectors(draw):
    """Small half-atom vectors u[p, a, h] of entries from a range of 3 or 4
    values around zero, so that many cells tie: 1-3 Alice plans and 1-2 Bob
    plans at size 2, one of each at size 4."""
    size = draw(st.sampled_from([2, 2, 4]))
    n_plans = draw(st.integers(min_value=1, max_value=3 if size == 2 else 1))
    n_half = (1 << size) // 2 * draw(st.integers(min_value=1, max_value=2 if size == 2 else 1))
    lo = draw(st.integers(min_value=-2, max_value=0))
    hi = lo + draw(st.integers(min_value=2, max_value=3))
    cells = draw(st.lists(st.integers(min_value=lo, max_value=hi),
                          min_size=n_plans * size * n_half, max_size=n_plans * size * n_half))
    return np.array(cells, dtype=np.int64).reshape(n_plans, size, n_half)


@settings(max_examples=150, deadline=None)
@given(tie_heavy_vectors())
def test_bilinear_scan_matches_reference_on_ties(u):
    t = scalar_kernels.atom_table(u)
    # the least scale the float filter's premise allows
    scale = max(1, int(np.abs(u).sum(axis=1).max()))
    scalar = [int(v) for v in scalar_kernels.bilinear_scan(t, _reduced_a0(t, u.shape[1]))]
    for vectors in (u, u.astype(object)):
        best, witness, _ = kernels.bilinear_scan(vectors, scale)
        assert [best, *witness] == scalar, vectors.dtype


def test_bilinear_scan_filter_keeps_near_ties():
    # Python-int vectors near fractions of the scale (thirds, fifths,
    # sixths, sevenths), moved by a few units: cells whose exact values
    # differ by about 2^-95 of the scale sum differently rounded floats, and
    # the float order inverts the exact one now and then.  A filter keeping
    # only the float optimum (margin 0) returns a wrong cell on 4 of these
    # 500 scans.
    rng = random.Random(1)
    scale = 3 ** 60
    parts = [0, scale // 3, scale // 5, 2 * scale // 5, scale // 6, scale // 7,
             3 * scale // 7]
    for _ in range(500):
        u = np.array([rng.choice((-1, 1)) * rng.choice(parts) + rng.randrange(-2, 3)
                      for _ in range(16)], dtype=object).reshape(2, 2, 4)
        t = scalar_kernels.atom_table(u)
        scalar = [int(v) for v in scalar_kernels.bilinear_scan(t, _reduced_a0(t, 2))]
        best, witness, _ = kernels.bilinear_scan(u, scale)
        assert [best, *witness] == scalar, u.tolist()

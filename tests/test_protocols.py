from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nldistill import (
    LOCAL_VERTICES,
    NONLOCAL_VERTICES,
    PR,
    Protocol,
    SideStrategy,
    WiringPlan,
    brute_force_D,
    build_tables,
    enumerate_plans,
    inner_product,
    iso_bound,
    kernels,
    mix,
    nl_protocol,
    nl_value,
    sandwich_check,
    trivial_protocol,
    wedge,
    wiring_distribution,
    wiring_grid,
)
from nldistill.protocols import _entry_numerators, _ip_table

import scalar_kernels
from conftest import random_nonlocal_box, random_ns_box

F = Fraction


def both_inputs_side(n=2) -> SideStrategy:
    """Feed the protocol input into every box, in index order."""
    plan0 = WiringPlan(order=tuple(range(n)), steps=(0,) * n)
    plan1 = WiringPlan(order=tuple(range(n)),
                       steps=tuple((1 << (1 << t)) - 1 for t in range(n)))
    return SideStrategy((plan0, plan1))


def random_protocol(rng: random.Random, n: int = 2) -> Protocol:
    plans = enumerate_plans(n)
    size = 1 << n

    def table() -> tuple[int, ...]:
        return tuple(rng.randrange(2) for _ in range(size))

    def side() -> SideStrategy:
        return SideStrategy((rng.choice(plans), rng.choice(plans)))

    return Protocol(n=n, alice=side(), bob=side(),
                    f=(table(), table()), g=(table(), table()))


def complement(tt: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(1 - b for b in tt)


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
        grid = wiring_distribution(w, proto, x, y)
        for a, b in product((0, 1), (0, 1)):
            assert grid[a, b] == w.prob(a, b, x, y)


def test_wiring_two_pr_copies_uniform_on_xor():
    proto = Protocol(n=2, alice=both_inputs_side(), bob=both_inputs_side(),
                     f=((0,) * 4,) * 2, g=((0,) * 4,) * 2)
    for x, y in product((0, 1), (0, 1)):
        grid = wiring_distribution(PR, proto, x, y)
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
            (x, y): wiring_distribution(box, proto, x, y)
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
        grid = wiring_grid(box, plan_a, plan_b)
        assert sum(grid.ravel()) == 1


def test_inner_product_basics():
    w = wiring_distribution(PR, trivial_protocol(1), 1, 1)
    assert inner_product((0, 1), (0, 1), w) == -1
    assert inner_product((0, 0), (0, 0), w) == 1
    assert inner_product((1, 0), (0, 1), w) == 1
    rng = random.Random(23)
    for _ in range(10):
        proto = random_protocol(rng)
        box = random_ns_box(rng)
        grid = wiring_distribution(box, proto, 0, 1)
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
        grid = wiring_distribution(box, proto, rng.randrange(2), rng.randrange(2))
        f = tuple(rng.randrange(2) for _ in range(size))
        g = tuple(rng.randrange(2) for _ in range(size))
        k, l = sum(f), sum(g)
        ftwg = sum(grid[a, b] for a in range(size) for b in range(size)
                   if f[a] and g[b])
        assert inner_product(f, g, grid) == \
            1 - F(k, 2) - F(l, 2) + 4 * ftwg


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
            alice = SideStrategy((plans[pa0], plans[pa1]))
            bob = SideStrategy((plans[pb0], plans[pb1]))
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
    rng = random.Random(28)
    box = random_nonlocal_box(rng)
    full = brute_force_D(box, 1, complement_reduction=False)
    half = brute_force_D(box, 1, complement_reduction=True)
    assert full.value == half.value
    # the same table as Python ints takes the float filter path
    denom, _ = _entry_numerators(box)
    t = _ip_table(box, enumerate_plans(1), 1, np.int64)
    reduced = np.arange(0, t.shape[0], 2)  # f_0(0) = 0: even table masks
    filtered = kernels.bilinear_scan(t.astype(object), reduced, denom)
    assert filtered == kernels.bilinear_scan(t, reduced, denom)
    assert F(filtered[0], denom) == half.value
    two_half = brute_force_D(wedge(F(1, 2), 0), 2, complement_reduction=True)
    two_full = brute_force_D(wedge(F(1, 2), 0), 2, complement_reduction=False)
    assert two_half.value == two_full.value


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
    assert report.exhaustive and report.checked == 64 and report.ok


def test_sandwich_sampled_n2():
    box = wedge(F(1, 5), 0)
    tables = build_tables(F(2, 5), 2)
    report = sandwich_check(box, 2, samples=2000, seed=9, tables=tables)
    assert report.checked == 2000 and report.seed == 9
    assert report.ok


def test_sandwich_checks_the_given_tables():
    box = wedge(F(1, 5), 0)  # p = 2/5
    with pytest.raises(ValueError, match="built for p=1/2"):
        sandwich_check(box, 2, samples=2000, tables=build_tables(F(1, 2), 2))
    with pytest.raises(ValueError, match="only reach level 1"):
        sandwich_check(box, 2, samples=2000, tables=build_tables(F(2, 5), 1))


def test_sandwich_exhaustive_n2():
    box = wedge(F(1, 5), 0)
    report = sandwich_check(box, 2, samples=None)
    assert report.exhaustive
    assert report.checked == 16 * 16 * 16 * 16
    assert report.ok


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


def test_bilinear_scan_backends_agree():
    # The scalar reference body and the public scan kernel run on the same
    # tables; best value and witness must match.
    w = wedge(F(1, 2), 0)
    t = _ip_table(w, enumerate_plans(1), 1, np.int64)
    denom, _ = _entry_numerators(w)
    n_atoms, n_tables = t.shape[0], 4  # 2 wiring plans x 4 functions of a bit
    assert t.shape == (8, 8)
    reduced = np.array([a for a in range(n_atoms) if not (a % n_tables) & 1],
                       dtype=np.int64)
    full = np.arange(n_atoms, dtype=np.int64)
    for a0_idx in (reduced, full):
        scalar = scalar_kernels.bilinear_scan(t, a0_idx)
        best, witness = kernels.bilinear_scan(t, a0_idx, denom)
        assert [int(v) for v in scalar] == [best, *witness], a0_idx
    # an all-zero table ties everywhere: both bodies return the lex-min witness
    zeros = np.zeros_like(t)
    scalar = scalar_kernels.bilinear_scan(zeros, reduced)
    best, witness = kernels.bilinear_scan(zeros, reduced, denom)
    assert [int(v) for v in scalar] == [best, *witness] == [0] * 5
    # the reduced scan is the whole n = 1 search for this box
    best, _ = kernels.bilinear_scan(t, reduced, denom)
    assert F(best, denom) == brute_force_D(w, 1).value


@st.composite
def tie_heavy_table(draw):
    """A small atom table with entries from a range of 3 or 4 values, and a
    nonempty ascending a0 subset standing in for the reduced atom set."""
    n_a = draw(st.integers(min_value=1, max_value=7))
    n_b = draw(st.integers(min_value=1, max_value=7))
    lo = draw(st.integers(min_value=-2, max_value=0))
    hi = lo + draw(st.integers(min_value=2, max_value=3))
    cells = draw(st.lists(st.integers(min_value=lo, max_value=hi),
                          min_size=n_a * n_b, max_size=n_a * n_b))
    t = np.array(cells, dtype=np.int64).reshape(n_a, n_b)
    reduced = draw(st.lists(st.integers(min_value=0, max_value=n_a - 1),
                            min_size=1, unique=True))
    return t, np.array(sorted(reduced), dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(tie_heavy_table())
def test_bilinear_scan_matches_reference_on_ties(inputs):
    t, reduced = inputs
    for a0_idx in (reduced, np.arange(t.shape[0], dtype=np.int64)):
        scalar = [int(v) for v in scalar_kernels.bilinear_scan(t, a0_idx)]
        for table in (t, t.astype(object)):
            # entries lie in [-2, 3], so 3 bounds them for the float filter
            best, witness = kernels.bilinear_scan(table, a0_idx, 3)
            assert [best, *witness] == scalar, (a0_idx, table.dtype)

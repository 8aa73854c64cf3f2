"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s``.  The two heaviest
isotropic-tightness rows (n* = 8 and 9) are gated behind ``--long-run``.
All equalities are exact rational comparisons; there are no tolerances
anywhere in this module.
"""
from __future__ import annotations

import functools
import random
from fractions import Fraction
from itertools import product

import pytest

from nldistill import (
    LOCAL_VERTICES,
    PR,
    Protocol,
    brute_force_D,
    build_tables,
    class_grid,
    general_bound,
    inner_product,
    iso_bound,
    kernels,
    minimal_isotropic,
    mix,
    nl_value,
    sandwich_check,
    wedge,
    wiring_grid,
)
from nldistill.protocols import enumerate_plans
from nldistill.simplex import solve_max
from conftest import random_nonlocal_box, random_ns_box
import scalar_kernels

F = Fraction

SEED = 20260809


def criterion(cid: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {cid}: FAIL")
                raise
            print(f"ACCEPTANCE {cid}: PASS" + (f" ({detail})" if detail else ""))
        return wrapper
    return deco


def _tightness_row(alpha: F, n_star: int, count: int) -> str:
    grid_size = int(1 / alpha) - 1
    rng = random.Random(SEED + n_star)
    if count >= grid_size:
        ks = list(range(1, grid_size + 1))
    else:
        ks = sorted(rng.sample(range(1, grid_size + 1), count))
    for k in ks:
        eps = k * alpha
        report = iso_bound(wedge(eps, 0), n_star)
        assert report.raw_bound == 2 * (1 + eps), (
            f"alpha={alpha} eps={eps} n*={n_star}: "
            f"{report.raw_bound} != {2 * (1 + eps)}"
        )
    return f"alpha={alpha}, n*={n_star}, {len(ks)} eps values, exact"


@criterion("1 isotropic tightness n*=3")
def test_c1_row_alpha_1e6():
    return _tightness_row(F(1, 10 ** 6), 3, 25)


@criterion("1 isotropic tightness n*=4")
def test_c1_row_alpha_1e5():
    return _tightness_row(F(1, 10 ** 5), 4, 25)


@criterion("1 isotropic tightness n*=5")
def test_c1_row_alpha_1e4():
    return _tightness_row(F(1, 10 ** 4), 5, 25)


@criterion("1 isotropic tightness n*=6")
def test_c1_row_alpha_1e3():
    return _tightness_row(F(1, 10 ** 3), 6, 25)


@criterion("1 isotropic tightness n*=7")
def test_c1_row_alpha_1e2():
    return _tightness_row(F(1, 10 ** 2), 7, 25)


@pytest.mark.longrun
@criterion("1 isotropic tightness n*=8 (long run)")
def test_c1_row_alpha_1e1_longrun():
    return _tightness_row(F(1, 10), 8, 9)


@pytest.mark.longrun
@criterion("1 isotropic tightness n*=9 (long run)")
def test_c1_row_alpha_quarter_longrun():
    return _tightness_row(F(1, 4), 9, 3)


@criterion("2 class grid peak at n=6")
def test_c2_class_grid_peak():
    grid = class_grid(wedge(F(1, 5), 0), 6)
    best, arg = grid.max_cell()
    assert best == F(12, 5)
    assert arg == (64, 64)
    for sk, row in enumerate(grid.values):
        for sl, value in enumerate(row):
            if (sk, sl) != (64, 64):
                assert value < F(12, 5), f"cell ({sk},{sl}) = {value}"
    return "max 12/5 attained only at (64, 64), all others strictly smaller"


@criterion("3 two-copy oracle")
def test_c3_two_copy_oracle():
    box = wedge(F(1, 2), 0)
    result = brute_force_D(box, 2)
    bound = iso_bound(box, 2)
    assert result.value == 3
    assert bound.raw_bound == 3
    assert result.value == bound.raw_bound
    return f"D(2, P_iso(1/2)) = 3 = bound, search method {result.method}"


@criterion("4 one-copy oracle")
def test_c4_one_copy_oracle():
    rng = random.Random(SEED)
    for i in range(20):
        box = random_nonlocal_box(rng)
        result = brute_force_D(box, 1)
        assert result.value == nl_value(box)[0], f"box {i}"
    return "20 seeded nonlocal boxes, D(1,P) = NL(P) exactly"


@criterion("5 wiring sandwich")
def test_c5_sandwich():
    box = wedge(F(1, 5), 0)
    one = sandwich_check(box, 1)
    assert one.checked == 64 and one.ok
    two = sandwich_check(box, 2)
    assert two.checked == 65_536 and two.ok
    return "0 violations (n=1 exhaustive (64 cases), n=2 exhaustive (65,536 cases))"


@criterion("6 decomposition pipeline")
def test_c6_decomposition_pipeline():
    def p_q(q):
        return mix([(1 - q, wedge(F(1, 5), 0)), (q, wedge(F(1, 5), F(4, 5)))])

    qs = [F(0), F(1, 5), F(2, 5), F(3, 5), F(4, 5), F(1)]
    eps_values = []
    for q in qs:
        dec = minimal_isotropic(p_q(q))
        expect = F(1, 5) / (F(4, 5) * (1 - q) + F(1, 5))
        assert dec.epsilon == expect, f"q={q}"
        eps_values.append(dec.epsilon)
    assert minimal_isotropic(p_q(F(1, 2))).epsilon == F(1, 3)
    assert eps_values[-1] == 1
    assert all(a <= b for a, b in zip(eps_values, eps_values[1:]))

    bounds = [general_bound(p_q(q), 3).raw_bound for q in qs]
    assert bounds[0] == F(12, 5)
    assert all(a <= b for a, b in zip(bounds, bounds[1:]))
    return "eps'(q) closed form exact, bounds nondecreasing, q=0 gives 12/5"


@criterion("7 LP correctness")
def test_c7_lp():
    # the LP's optimum through the integer simplex, and the local part of
    # the decomposition: the closed form above NL = 2, the certified
    # simplex weights below
    def local_parts(box):
        rows, rhs, d = scalar_kernels.local_lp(box)
        res = solve_max(rows, rhs)
        return F(sum(res.x), res.den * d), minimal_isotropic(box).local_part

    for i in range(10):
        eps = F(i, 10)
        for j in range(10):
            delta = (1 - eps) * F(j, 10)
            assert local_parts(wedge(eps, delta)) == (1 - eps, 1 - eps)
    assert local_parts(PR) == (0, 0)
    for vertex in LOCAL_VERTICES:
        assert local_parts(vertex) == (1, 1)
    return "wedge 10x10 grid = 1 - eps, PR = 0, all 16 vertices = 1"


@criterion("8 symmetry suites")
def test_c8_symmetries():
    # (a) complement invariance on 1000 seeded random protocols
    rng = random.Random(SEED)
    plans = enumerate_plans(2)
    boxes = [wedge(F(1, 5), 0), wedge(F(1, 2), F(1, 4)),
             random_ns_box(rng), random_nonlocal_box(rng)]

    def rand_table():
        return tuple(rng.randrange(2) for _ in range(4))

    def nl_from_tables(grids, f, g):
        ips = {
            (x, y): inner_product(f[x], g[y], grids[x, y])
            for x, y in product((0, 1), (0, 1))
        }
        return max(
            abs(ips[x, y] + ips[1 - x, y] + ips[x, 1 - y] - ips[1 - x, 1 - y])
            for x, y in product((0, 1), (0, 1))
        )

    for i in range(1000):
        box = boxes[i % len(boxes)]
        pa = (rng.choice(plans), rng.choice(plans))
        pb = (rng.choice(plans), rng.choice(plans))
        grids = {
            (x, y): wiring_grid(box, pa[x], pb[y])
            for x, y in product((0, 1), (0, 1))
        }
        f = (rand_table(), rand_table())
        g = (rand_table(), rand_table())
        fbar = tuple(tuple(1 - b for b in t) for t in f)
        gbar = tuple(tuple(1 - b for b in t) for t in g)
        base = nl_from_tables(grids, f, g)
        assert base == nl_from_tables(grids, fbar, g)
        assert base == nl_from_tables(grids, f, gbar)
        assert base == nl_from_tables(grids, fbar, gbar)

    # (b) table symmetry delta(k,l) = delta(l,k) and monotonicity in k
    for p in (F(2, 5), F(3, 8), F(1, 7), F(1, 2), F(301, 800)):
        for m in range(5):
            tables = build_tables(p, m)
            size = 2 ** m
            for sign in "+-":
                for k in range(size + 1):
                    for l in range(size + 1):
                        assert tables.delta(sign, k, l) == tables.delta(sign, l, k)
            for k in range(size):
                for l in range(size + 1):
                    assert tables.delta("+", k, l) <= tables.delta("+", k + 1, l)

    # (c) complement-reduced profile scan equals the full k0 scan on the
    # same tables, n <= 4
    for eps in (F(1, 5), F(1, 2), F(7, 9)):
        box = wedge(eps, 0)
        for n in range(1, 5):
            tables = build_tables(box.prob(0, 0, 0, 0), n)
            size = 2 ** n
            best, witness = kernels.iso_scan(tables.plus, tables.minus,
                                             tables.p.denominator ** n, size, size)
            reduced = iso_bound(box, n, tables=tables)
            assert reduced.raw_bound == F(4 * best, tables.denominator)
            assert reduced.witness_profile.as_tuple() == witness
    return "complement invariance x1000 exact, table symmetry+monotonicity, scan reduction"


@criterion("9 table-fill scaling")
def test_c9_scaling():
    tables = build_tables(F(2, 5), 7)
    ops = tables.ops_per_level
    ratios = []
    for m in (5, 6, 7):
        ratio = ops[m] / ops[m - 1]
        assert 12 <= ratio <= 20, f"level {m}: ratio {ratio}"
        ratios.append(round(ratio, 2))
    return f"consecutive level work ratios {ratios} within [12, 20]"

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from nldistill import (
    ANTI_PR,
    BinarySystem,
    LOCAL_VERTICES,
    P_C,
    P_F,
    PR,
    facet_of,
    facet_weight,
    local_part,
    minimal_isotropic,
    mix,
    nl_value,
    validate,
    wedge,
)
from nldistill import decompose, simplex
from nldistill.simplex import UnboundedError, solve_max
from conftest import random_ns_box
import scalar_kernels

F = Fraction

UNIFORM = BinarySystem((F(1, 4),) * 16)
# degenerate LPs: many tied ratios, so Bland's basis-index tie-break decides
TIE_HEAVY = [*LOCAL_VERTICES, PR, ANTI_PR, P_C, UNIFORM]


@pytest.fixture
def lp_agreement(monkeypatch):
    """Route local_part's LPs through the integer solver and the Fraction
    reference; every SimplexResult field, basis and iterations included,
    must agree."""
    solved = []

    def both(c, a, b):
        got = solve_max(c, a, b)
        assert got == scalar_kernels.solve_max(c, a, b)
        solved.append(got)
        return got

    monkeypatch.setattr(decompose, "solve_max", both)
    yield solved
    assert solved


@contextmanager
def replayed_pivots():
    """Replay every pivot of ``simplex.solve_max`` with divmod: each
    (piv*v - f*w) / d is exact and equals the row the solver stored."""
    pivot = simplex._pivot
    count = [0]

    def replay(rows, leave, enter, d):
        before = [list(row) for row in rows]
        new_d = pivot(rows, leave, enter, d)
        prow = before[leave]
        piv = prow[enter]
        assert new_d == piv > 0 and d > 0 and rows[leave] == prow
        for i, (old, new) in enumerate(zip(before, rows)):
            if i != leave:
                f = old[enter]
                for v, w, got in zip(old, prow, new):
                    q, r = divmod(piv * v - f * w, d)
                    assert r == 0 and q == got
        count[0] += 1
        return new_d

    simplex._pivot = replay
    try:
        yield count
    finally:
        simplex._pivot = pivot


fractions = st.builds(F, st.integers(-6, 6), st.integers(1, 9))


@st.composite
def small_lps(draw):
    """max c.x, A x <= b, x >= 0 with fractional A, b >= 0 and c."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    a = draw(st.lists(st.lists(fractions, min_size=n, max_size=n),
                      min_size=m, max_size=m))
    b = draw(st.lists(st.builds(F, st.integers(0, 6), st.integers(1, 9)),
                      min_size=m, max_size=m))
    c = draw(st.lists(fractions, min_size=n, max_size=n))
    return c, a, b


def test_simplex_known_lp():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6 -> x = 8/5, y = 6/5
    res = solve_max([F(1), F(1)], [[F(1), F(2)], [F(3), F(1)]], [F(4), F(6)])
    assert res.value == F(14, 5)
    assert res.x == (F(8, 5), F(6, 5))
    assert all(rc <= 0 for rc in res.reduced_costs)


@pytest.mark.parametrize("solve", [solve_max, scalar_kernels.solve_max],
                         ids=["integer", "fraction"])
def test_simplex_error_paths(solve):
    with pytest.raises(ValueError, match=r"^this solver requires b >= 0$"):
        solve([F(1)], [[F(1)]], [F(-1, 3)])
    # max x + y s.t. x - y <= 1: y grows without bound
    with pytest.raises(UnboundedError, match=r"^objective unbounded above$"):
        solve([F(1), F(1)], [[F(1), F(-1)]], [F(1)])


@settings(max_examples=300, deadline=None)
@given(small_lps())
def test_integer_simplex_matches_fraction_solver_on_fractional_lps(lp):
    c, a, b = lp
    try:
        want = scalar_kernels.solve_max(c, a, b)
    except UnboundedError:
        with pytest.raises(UnboundedError), replayed_pivots():
            solve_max(c, a, b)
        return
    with replayed_pivots():
        assert solve_max(c, a, b) == want


def test_every_pivot_division_is_exact():
    rng = random.Random(16)
    boxes = [wedge(F(i, 10), (1 - F(i, 10)) * F(j, 10))
             for i in range(0, 10, 3) for j in range(0, 10, 3)]
    boxes += [random_ns_box(rng) for _ in range(10)] + TIE_HEAVY
    with replayed_pivots() as count:
        for box in boxes:
            local_part(box)
    assert count[0]


def test_integer_simplex_matches_fraction_solver_on_ties(lp_agreement):
    rng = random.Random(17)
    for box in TIE_HEAVY:
        expected = 0 if box in (PR, ANTI_PR) else 1
        orders = [list(range(16)), list(range(15, -1, -1))]
        orders += [rng.sample(range(16), 16) for _ in range(3)]
        for order in orders:
            assert local_part(box, vertex_order=order).local_part == expected
    # sparse random local mixtures: local part 1, with tied ratios
    for _ in range(20):
        weights = [rng.randrange(0, 3) for _ in LOCAL_VERTICES]
        weights[rng.randrange(16)] += 1  # never all zero
        box = mix([(F(w, sum(weights)), v) for w, v in zip(weights, LOCAL_VERTICES)])
        assert local_part(box).local_part == 1
        assert local_part(box, vertex_order=rng.sample(range(16), 16)).local_part == 1


def test_local_part_vertices_and_pr():
    assert local_part(PR).local_part == 0
    assert local_part(ANTI_PR).local_part == 0
    for v in LOCAL_VERTICES:
        assert local_part(v).local_part == 1


def test_local_part_wedge_grid(lp_agreement):
    for i in range(0, 10):
        eps = F(i, 10)
        for j in range(0, 10):
            delta = (1 - eps) * F(j, 10)
            assert local_part(wedge(eps, delta)).local_part == 1 - eps


def test_lp_constraints_hold_exactly(lp_agreement):
    rng = random.Random(11)
    for _ in range(15):
        box = random_ns_box(rng)
        lp = local_part(box)
        assert all(w >= 0 for w in lp.weights)
        assert sum(lp.weights) == lp.local_part <= 1
        for a, b, x, y in product((0, 1), repeat=4):
            lhs = sum(w * v.prob(a, b, x, y)
                      for w, v in zip(lp.weights, LOCAL_VERTICES))
            assert lhs <= box.prob(a, b, x, y)


def test_lp_value_independent_of_vertex_order(lp_agreement):
    rng = random.Random(12)
    for _ in range(5):
        box = random_ns_box(rng)
        base = local_part(box).local_part
        order = list(range(16))
        rng.shuffle(order)
        assert local_part(box, vertex_order=order).local_part == base


def test_lp_against_scipy():
    rng = random.Random(13)
    for _ in range(8):
        box = random_ns_box(rng)
        exact = local_part(box).local_part
        a_ub = [[float(v.prob(a, b, x, y)) for v in LOCAL_VERTICES]
                for a, b, x, y in product((0, 1), repeat=4)]
        b_ub = [float(box.prob(a, b, x, y))
                for a, b, x, y in product((0, 1), repeat=4)]
        res = linprog(c=[-1.0] * 16, A_ub=a_ub, b_ub=b_ub,
                      bounds=[(0, None)] * 16, method="highs")
        assert res.success
        assert abs(float(exact) + res.fun) < 1e-9


def test_facet_of_pr_and_wedge():
    expr, p_nl, p_f = facet_of(PR)
    assert (expr.x, expr.y, expr.sign) == (0, 0, 1)
    assert p_nl == PR
    assert p_f == P_F
    expr2, p_nl2, _ = facet_of(wedge(F(1, 3), F(1, 5)))
    assert expr2 == expr and p_nl2 == PR
    with pytest.raises(ValueError):
        facet_of(P_C)


def test_facet_of_relabeled_box():
    # flipping Alice's output turns PR into anti-PR, so the wedge built on
    # PR moves to the opposite sign branch of the same anchor
    w = wedge(F(1, 4), F(1, 8))
    flipped = BinarySystem(tuple(
        w.prob(1 - a, b, x, y)
        for x, y, a, b in product((0, 1), repeat=4)
    ))
    assert validate(flipped).ok
    expr, p_nl, _ = facet_of(flipped)
    assert (expr.x, expr.y, expr.sign) == (0, 0, -1)
    assert p_nl == ANTI_PR


def test_facet_weight_cases():
    assert facet_weight(P_F, P_F) == 1
    assert facet_weight(P_C, P_F) == 0
    for q in (F(1, 4), F(1, 2), F(9, 10)):
        p_star = mix([(q, P_C), (1 - q, P_F)])
        assert facet_weight(p_star, P_F) == 1 - q
    with pytest.raises(ValueError):
        facet_weight(P_F, PR)


def test_minimal_isotropic_fixed_point():
    for eps in (F(1, 5), F(1, 2), F(9, 10)):
        dec = minimal_isotropic(wedge(eps, 0))
        assert dec.epsilon == eps
        assert dec.q == 1
        assert dec.p_f == 1
        assert dec.p_iso == wedge(eps, 0)


def test_minimal_isotropic_correlated_nlb():
    dec = minimal_isotropic(wedge(F(1, 5), F(4, 5)))
    assert dec.epsilon == 1
    assert dec.q == F(1, 5)
    assert dec.p_f == 0
    assert dec.p_iso == PR
    assert dec.p_l == P_C


def test_minimal_isotropic_pq_family():
    for q in (0, F(1, 5), F(2, 5), F(1, 2), F(3, 5), F(4, 5), 1):
        pq = mix([(1 - q, wedge(F(1, 5), 0)), (q, wedge(F(1, 5), F(4, 5)))])
        dec = minimal_isotropic(pq)
        assert dec.epsilon == F(1, 5) / (F(4, 5) * (1 - q) + F(1, 5))
        if dec.q < 1:
            rebuilt = mix([(dec.q, dec.p_iso), (1 - dec.q, dec.p_l)])
            assert rebuilt == pq


def test_minimal_isotropic_extremes():
    assert minimal_isotropic(PR).epsilon == 1
    assert minimal_isotropic(PR).q == 1
    for box in (P_C, P_F, LOCAL_VERTICES[3]):
        dec = minimal_isotropic(box)
        assert dec.epsilon == 0 and dec.facet is None


def test_decomposition_envelope_on_random_boxes():
    rng = random.Random(14)
    for _ in range(20):
        box = random_ns_box(rng)
        dec = minimal_isotropic(box)
        assert 0 <= dec.epsilon <= 1
        nl = nl_value(box)[0]
        if dec.epsilon > 0:
            assert nl <= 2 * (1 + dec.epsilon)
            assert nl_value(dec.p_iso)[0] == 2 * (1 + dec.epsilon)
            if dec.q < 1:
                assert nl_value(dec.p_l)[0] <= 2
                assert validate(dec.p_l).ok
        else:
            assert nl <= 2


def test_epsilon_monotone_along_q():
    prev = None
    for i in range(11):
        q = F(i, 10)
        pq = mix([(1 - q, wedge(F(1, 5), 0)), (q, wedge(F(1, 5), F(4, 5)))])
        eps = minimal_isotropic(pq).epsilon
        if prev is not None:
            assert eps >= prev
        prev = eps


def test_decomposition_json():
    dec = minimal_isotropic(wedge(F(1, 5), F(2, 5)))
    obj = dec.to_json_obj()
    assert obj["epsilon"] == str(dec.epsilon)
    assert obj["facet"] == {"anchor": [0, 0], "sign": 1}
    assert len(obj["weights"]) == 16

from __future__ import annotations

import dataclasses
import json
import random
import re
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from nldistill import (
    ANTI_PR,
    BinarySystem,
    CHSH_EXPRESSIONS,
    LOCAL_VERTICES,
    NONLOCAL_VERTICES,
    P_C,
    P_F,
    PR,
    local_part,
    minimal_isotropic,
    mix,
    nl_value,
    validate,
    wedge,
)
from nldistill import decompose, simplex
from nldistill.boxes import CHSHExpression, vertex_for_expression
from nldistill.decompose import DecompositionError
from nldistill.simplex import UnboundedError, solve_max
from conftest import random_ns_box
import scalar_kernels

F = Fraction

UNIFORM = BinarySystem((F(1, 4),) * 16)
# degenerate LPs: many tied ratios, so Bland's basis-index tie-break decides
TIE_HEAVY = [*LOCAL_VERTICES, PR, ANTI_PR, P_C, UNIFORM]


@pytest.fixture
def lp_agreement(monkeypatch):
    """Route the LPs of ``local_part`` and ``lp_optimum`` through the integer
    solver and the Fraction reference; the weight numerators, their
    denominator and the iterations must agree."""
    solved = []

    def both(a, b):
        got = solve_max(a, b)
        assert got == scalar_kernels.solve_max(a, b)
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


@st.composite
def small_lps(draw):
    """max sum(x), A x <= b, x >= 0 with integer A and b >= 0."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    a = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                      min_size=m, max_size=m))
    b = draw(st.lists(st.integers(0, 60), min_size=m, max_size=m))
    return a, b


def test_simplex_known_lp():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6 -> x = 8/5, y = 6/5, over the
    # determinant 5 of the optimal basis
    res = solve_max([[1, 2], [3, 1]], [4, 6])
    assert (res.x, res.den, res.iterations) == ((8, 6), 5, 2)


@pytest.mark.parametrize("solve", [solve_max, scalar_kernels.solve_max],
                         ids=["integer", "fraction"])
def test_simplex_error_paths(solve):
    with pytest.raises(ValueError, match=r"^this solver requires b >= 0$"):
        solve([[1]], [-1])
    # max x + y s.t. x - y <= 1: y grows without bound
    with pytest.raises(UnboundedError, match=r"^objective unbounded above$"):
        solve([[1, -1]], [1])


@settings(max_examples=300, deadline=None)
@given(small_lps())
def test_integer_simplex_matches_fraction_solver_on_fractional_lps(lp):
    # integer LPs with fractional optima: the weight numerators, their
    # denominator D (the product of the reference's pivots) and the
    # iterations agree, and every pivot divides exactly
    a, b = lp
    try:
        want = scalar_kernels.solve_max(a, b)
    except UnboundedError:
        with pytest.raises(UnboundedError), replayed_pivots():
            solve_max(a, b)
        return
    with replayed_pivots():
        assert solve_max(a, b) == want


def test_every_pivot_division_is_exact():
    rng = random.Random(16)
    boxes = [wedge(F(i, 10), (1 - F(i, 10)) * F(j, 10))
             for i in range(0, 10, 3) for j in range(0, 10, 3)]
    boxes += [random_ns_box(rng) for _ in range(10)] + TIE_HEAVY
    with replayed_pivots() as count:
        for box in boxes:
            lp_optimum(box)
    assert count[0]


def lp_optimum(box, order=tuple(range(16))):
    """The weights, in canonical vertex order, and the value of the box's
    local-part LP (``scalar_kernels.local_lp``), solved by
    ``decompose.solve_max`` with the vertex columns in ``order``.  The
    weights must be a feasible point."""
    rows, rhs, d = scalar_kernels.local_lp(box)
    res = decompose.solve_max([[row[j] for j in order] for row in rows], rhs)
    weights = [F(0)] * 16
    for j, xj in zip(order, res.x):
        weights[j] = F(xj, res.den * d)
    assert min(weights) >= 0
    for a, b, x, y in product((0, 1), repeat=4):
        assert sum(w * v.prob(a, b, x, y)
                   for w, v in zip(weights, LOCAL_VERTICES)) <= box.prob(a, b, x, y)
    return weights, sum(weights)


def test_integer_simplex_matches_fraction_solver_on_ties(lp_agreement):
    rng = random.Random(17)
    for box in TIE_HEAVY:
        expected = 0 if box in (PR, ANTI_PR) else 1
        orders = [list(range(16)), list(range(15, -1, -1))]
        orders += [rng.sample(range(16), 16) for _ in range(3)]
        for order in orders:
            assert lp_optimum(box, order)[1] == expected
    # sparse random local mixtures: local part 1, with tied ratios
    for _ in range(20):
        weights = [rng.randrange(0, 3) for _ in LOCAL_VERTICES]
        weights[rng.randrange(16)] += 1  # never all zero
        box = mix([(F(w, sum(weights)), v) for w, v in zip(weights, LOCAL_VERTICES)])
        assert sum(local_part(box)) == 1
        assert lp_optimum(box, rng.sample(range(16), 16))[1] == 1


def test_local_part_vertices_and_pr():
    for box in (PR, ANTI_PR):
        assert lp_optimum(box)[1] == minimal_isotropic(box).local_part == 0
        with pytest.raises(DecompositionError, match="^local weights do not sum to 1$"):
            local_part(box)
    # a deterministic vertex is extreme: its only decomposition is itself
    for j, v in enumerate(LOCAL_VERTICES):
        unit = tuple(F(int(i == j)) for i in range(16))
        assert local_part(v) == minimal_isotropic(v).weights == unit


def test_local_part_wedge_grid(lp_agreement):
    for i in range(0, 10):
        eps = F(i, 10)
        for j in range(0, 10):
            box = wedge(eps, (1 - eps) * F(j, 10))
            assert lp_optimum(box)[1] == minimal_isotropic(box).local_part == 1 - eps


def test_lp_constraints_hold_exactly(lp_agreement):
    # local_part serves local boxes only, so the draws keep the local ones:
    # lp_optimum checks every weight's sign and every constraint, and the
    # certified local_part returns the weights
    rng = random.Random(11)
    boxes = [box for box in (random_ns_box(rng) for _ in range(40))
             if nl_value(box)[0] <= 2][:15]
    assert len(boxes) == 15
    for box in boxes:
        weights, value = lp_optimum(box)
        assert local_part(box) == tuple(weights) and value == 1


def test_lp_value_independent_of_vertex_order(lp_agreement):
    rng = random.Random(12)
    for _ in range(5):
        box = random_ns_box(rng)
        base = lp_optimum(box)[1]
        order = list(range(16))
        rng.shuffle(order)
        assert lp_optimum(box, order)[1] == base


def test_lp_against_scipy():
    rng = random.Random(13)
    for _ in range(8):
        box = random_ns_box(rng)
        exact = lp_optimum(box)[1]
        a_ub = [[float(v.prob(a, b, x, y)) for v in LOCAL_VERTICES]
                for a, b, x, y in product((0, 1), repeat=4)]
        b_ub = [float(box.prob(a, b, x, y))
                for a, b, x, y in product((0, 1), repeat=4)]
        res = linprog(c=[-1.0] * 16, A_ub=a_ub, b_ub=b_ub,
                      bounds=[(0, None)] * 16, method="highs")
        assert res.success
        assert abs(float(exact) + res.fun) < 1e-9


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
    branches = set()
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
            branches.add("nonlocal, q < 1" if dec.q < 1 else "nonlocal")
        else:
            assert nl <= 2
            branches.add("local")
    assert {"local", "nonlocal, q < 1"} <= branches


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


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_decomposition_tableau_entries_stay_below_2_32(monkeypatch):
    # the right-hand side holds the box's numerators over den(P) and the rows
    # are 0/1: no tableau entry of these LPs reaches 2^32
    ref = json.loads(REFERENCE.read_text())
    boxes = [BinarySystem.from_json_obj(obj) for obj in ref["boxes"].values()]
    boxes += [BinarySystem.from_json_obj(job["box"])
              for job in ref["warm_bound"]["jobs"].values()]
    boxes += [wedge(F(i, 10), (1 - F(i, 10)) * F(j, 10))
              for i in range(10) for j in range(10)]
    pivot = simplex._pivot
    widest = [0]

    def measured(rows, leave, enter, d):
        widest[0] = max(widest[0], *(abs(v) for row in rows for v in row))
        new_d = pivot(rows, leave, enter, d)
        widest[0] = max(widest[0], *(abs(v) for row in rows for v in row))
        return new_d

    monkeypatch.setattr(simplex, "_pivot", measured)
    for box in boxes:
        lp_optimum(box)
    assert 0 < widest[0] < 2 ** 32


def test_facet_map_pairs_each_off_support_entry_with_one_facet_vertex():
    for expr in CHSH_EXPRESSIONS:
        vertex = vertex_for_expression(expr)
        off = [t for t in range(16) if vertex.table[t] == 0]
        on_facet = [j for j, v in enumerate(LOCAL_VERTICES) if expr.evaluate(v) == 2]
        pairs = decompose._FACET_MAP[expr]
        assert len(off) == len(on_facet) == len(pairs) == 8
        assert sorted(t for t, _ in pairs) == off
        assert sorted(j for _, j in pairs) == on_facet
        for t, j in pairs:
            # t is the one entry of V_j off the support
            assert [u for u in off if LOCAL_VERTICES[j].table[u]] == [t]


def _sparse_mixtures(rng):
    """Integer-weighted mixtures of one PR vertex and 1 to 5 of the 24
    vertices, built on integer numerators over 2 * (sum of weights)."""
    tables = [tuple(int(2 * e) for e in v.table)
              for v in (*LOCAL_VERTICES, *NONLOCAL_VERTICES)]
    while True:
        picks = [rng.randrange(16, 24), *rng.sample(range(24), rng.randrange(1, 6))]
        weights = [rng.randrange(1, 20) for _ in picks]
        den = 2 * sum(weights)
        yield BinarySystem(tuple(F(sum(w * tables[i][t] for w, i in zip(weights, picks)), den)
                                 for t in range(16)))


def test_closed_form_equals_the_lp_on_nonlocal_boxes():
    # on every nonlocal box the closed form's weights and local part are
    # the LP's, and every field of the decomposition is the one the LP's
    # weights give; the first 50 local boxes check the LP path alike
    ref = json.loads(REFERENCE.read_text())
    fixed = [BinarySystem.from_json_obj(obj) for obj in ref["boxes"].values()]
    nonlocal_count = local_count = 0
    facets = set()
    for box in chain(fixed, _sparse_mixtures(random.Random(30))):
        if nl_value(box)[0] > 2:
            nonlocal_count += 1
        elif local_count < 50:
            local_count += 1
        else:
            continue
        dec = minimal_isotropic(box)
        want = scalar_kernels.lp_decomposition(box)
        assert (dec.weights, dec.local_part) == (want.weights, want.local_part)
        assert dec == want
        facets.add(dec.facet)
        if nonlocal_count == 1500:
            break
    assert local_count == 50 and facets == {None, *CHSH_EXPRESSIONS}


PR_FACET = CHSHExpression(0, 0, 1)


def _lp_edit(**edits):
    """A patch of local_part's LP: each edit maps the real SimplexResult to
    a replacement field value."""
    def patch(monkeypatch):
        real = decompose.solve_max

        def edited(a, b):
            res = real(a, b)
            return dataclasses.replace(res, **{k: f(res) for k, f in edits.items()})

        monkeypatch.setattr(decompose, "solve_max", edited)
    return patch


def _moved_unit(res):
    """The LP's weight numerators with one unit moved from the first nonzero
    weight to the next vertex: same sum and signs, another local mixture."""
    x = list(res.x)
    i = next(i for i, xi in enumerate(x) if xi)
    x[i] -= 1
    x[(i + 1) % 16] += 1
    return tuple(x)


def _facet_edit(edit):
    """A patch of the facet table entry of PR: edit(vertex, facet) returns
    the new numerators over 8."""
    def patch(monkeypatch):
        vertex, facet = decompose._FACETS[PR_FACET]
        monkeypatch.setitem(decompose._FACETS, PR_FACET, edit(list(vertex), list(facet)))
    return patch


def _moved(facet, delta):
    # P(0,0|0,0) and P(0,1|0,0) move together: E_00, and with it every CHSH
    # value, stays; the mass of the input pair (0, 0) does not
    facet[0] += delta
    facet[1] += delta
    return facet


def _residue_case():
    """A facet table that is nonlocal itself: P_F replaced by
    F = PR'/2 + (V_5 + V_8)/4, with PR' = nonlocal_vertex(1, 0, 0).  On the
    box below, NL(P_iso) reaches its expected value through the CHSH
    expression of PR', and the residue is a valid box; but CHSH_PR(F) < 2,
    so the residue's CHSH_PR value is above 2."""
    nonlocal_facet = mix([(F(1, 2), NONLOCAL_VERTICES[4]),
                          (F(1, 4), LOCAL_VERTICES[5]), (F(1, 4), LOCAL_VERTICES[8])])
    box = mix([(F(1, 2), PR), (F(5, 24), LOCAL_VERTICES[5]),
               (F(1, 12), LOCAL_VERTICES[3]), (F(5, 24), LOCAL_VERTICES[8])])
    return box, _facet_edit(
        lambda vertex, facet: (vertex, [int(8 * e) for e in nonlocal_facet.table]))


def _moved_weight(monkeypatch):
    """A patch of the closed form: one unit of den(P) moves from the first
    facet vertex's weight to the second's."""
    real = decompose._facet_weights

    def moved(numerators, expr):
        w = real(numerators, expr)
        (_, i), (_, j) = decompose._FACET_MAP[expr][:2]
        w[i] -= 1
        w[j] += 1
        return w

    monkeypatch.setattr(decompose, "_facet_weights", moved)


def _nl_raised(monkeypatch):
    """A patch that reads NL(P) one unit of den(P) too high."""
    real = decompose.nl_value_int
    monkeypatch.setattr(decompose, "nl_value_int",
                        lambda t: (real(t)[0] + 1, real(t)[1]))


def _negative_entry(box):
    """``box`` with 1/10 moved from P(0,1|0,0) to P(1,0|0,0): both entries lie
    off the PR support, and E_00, with it NL, stays."""
    table = list(box.table)
    table[1] -= F(1, 10)
    table[2] += F(1, 10)
    return BinarySystem(tuple(table))


RESIDUE_BOX, RESIDUE_FACET = _residue_case()
WEDGE = wedge(F(1, 5), F(1, 5))
# a local box, den(P) = 16: only local boxes reach the LP
LOCAL = wedge(0, F(1, 2))
# a table of mass 11/10 on every input pair, and one of mass 11/10 on the
# input pair (1, 1) only: the LP's weights sum to 11/10 on the first, and to
# 1 on the second, whose input pair (1, 1) they cannot rebuild
HEAVY = BinarySystem(tuple(F(11, 10) * e for e in UNIFORM.table))
HEAVY_PAIR = BinarySystem(tuple(e + F(1, 40) * (t >= 12) for t, e in enumerate(UNIFORM.table)))
# each DecompositionError message, a box and the patch that breaks the
# identity its check guards; the order keeps each case's test id
BROKEN = [
    ("local weight is negative", LOCAL, _lp_edit(x=lambda res: (-1,) + res.x[1:])),
    # every weight halved
    ("local weights do not sum to 1", LOCAL, _lp_edit(den=lambda res: 2 * res.den)),
    ("local weights do not sum to 1", HEAVY, lambda mp: None),
    ("local weights do not rebuild the box", LOCAL, _lp_edit(x=_moved_unit)),
    ("local weights do not rebuild the box", HEAVY_PAIR, lambda mp: None),
    # P(0,1|0,0) = -1/40 is the weight of a facet vertex
    ("facet weight is negative", _negative_entry(WEDGE), lambda mp: None),
    # a uniform facet box has CHSH value 0, so NL(P_iso) = 4 eps
    ("isotropic component has inconsistent nonlocality", WEDGE,
     _facet_edit(lambda vertex, facet: (vertex, [2] * 16))),
    # a facet box of mass 5/4 on the input pair (0, 0)
    ("local residue is not a valid box", WEDGE,
     _facet_edit(lambda vertex, facet: (vertex, _moved(facet, 1)))),
    ("local residue violates a CHSH facet", RESIDUE_BOX, RESIDUE_FACET),
    # a box whose rows sum to 11/10 in place of 1: the facet weights leave a
    # remainder of mass other than 1 - s on the PR support
    ("decomposition does not reconstruct the box",
     BinarySystem(tuple(F(11, 10) * e for e in WEDGE.table)), lambda mp: None),
    # a facet box of mass 3/4 on the input pair (0, 0) fits into P_F with
    # weight 1, so q = 1, but eps*PR + (1 - eps)*facet is not the box
    ("q = 1 decomposition must equal the box", wedge(F(1, 5), 0),
     _facet_edit(lambda vertex, facet: (vertex, _moved(facet, -1)))),
    ("decomposition does not reconstruct the box", WEDGE, _moved_weight),
    ("facet weights do not sum to 2 - NL/2", WEDGE, _nl_raised),
]


def test_every_decomposition_raise_is_broken_below():
    source = Path(decompose.__file__).read_text()
    sites = re.findall(r'raise DecompositionError\(\s*f?"([^"]*)"', source)
    assert len(sites) == 10
    patterns = [re.sub(r"\\{[^}]*\\}", ".*", re.escape(site)) for site in sites]
    assert sorted(patterns) == sorted(
        next(p for p in patterns if re.fullmatch(p, message))
        for message in {message for message, _, _ in BROKEN})


@pytest.mark.parametrize("message, box, patch", BROKEN)
def test_each_broken_identity_raises(monkeypatch, message, box, patch):
    patch(monkeypatch)
    with pytest.raises(DecompositionError, match=f"^{re.escape(message)}$"):
        minimal_isotropic(box)


def test_decomposition_checks_survive_optimize_flag():
    # the closed form's checks and the local weights' certificate are
    # raises, not asserts: they still fire under python -O
    code = """
import dataclasses
from fractions import Fraction
from nldistill import BinarySystem, decompose, wedge

def check(box):
    try:
        decompose.minimal_isotropic(box)
    except decompose.DecompositionError as exc:
        print("raised", exc)

box = wedge(Fraction(1, 5), Fraction(1, 5))
print("debug", __debug__)
check(BinarySystem(tuple(Fraction(11, 10) * e for e in box.table)))
table = list(box.table)
table[1] -= Fraction(1, 10)
table[2] += Fraction(1, 10)
check(BinarySystem(tuple(table)))
uniform = (Fraction(1, 4),) * 16
check(BinarySystem(tuple(Fraction(11, 10) * e for e in uniform)))
check(BinarySystem(tuple(e + Fraction(1, 40) * (t >= 12) for t, e in enumerate(uniform))))
real = decompose.solve_max
decompose.solve_max = lambda a, b: dataclasses.replace(
    real(a, b), x=(-1,) + real(a, b).x[1:])
check(wedge(0, Fraction(1, 2)))
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "debug False",
        "raised decomposition does not reconstruct the box",
        "raised facet weight is negative",
        "raised local weights do not sum to 1",
        "raised local weights do not rebuild the box",
        "raised local weight is negative",
    ]

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


def permuted_local_part(box, order):
    """The local part through ``local_part``'s LP with its vertex columns in
    ``order``.  The weights, put back in canonical order, must be an
    optimal feasible point worth that value: no positive reduced cost."""
    res = decompose.solve_max(decompose._ONES,
                              [[row[j] for j in order] for row in decompose._VERTEX_MATRIX],
                              [box.table[t] for t in decompose._ROW_ENTRY])
    weights = [F(0)] * 16
    for j, w in zip(order, res.x):
        weights[j] = w
    assert min(weights) >= 0 and sum(weights) == res.value
    assert all(rc <= 0 for rc in res.reduced_costs)
    for a, b, x, y in product((0, 1), repeat=4):
        assert sum(w * v.prob(a, b, x, y)
                   for w, v in zip(weights, LOCAL_VERTICES)) <= box.prob(a, b, x, y)
    return res.value


def test_integer_simplex_matches_fraction_solver_on_ties(lp_agreement):
    rng = random.Random(17)
    for box in TIE_HEAVY:
        expected = 0 if box in (PR, ANTI_PR) else 1
        orders = [list(range(16)), list(range(15, -1, -1))]
        orders += [rng.sample(range(16), 16) for _ in range(3)]
        for order in orders:
            assert permuted_local_part(box, order) == expected
    # sparse random local mixtures: local part 1, with tied ratios
    for _ in range(20):
        weights = [rng.randrange(0, 3) for _ in LOCAL_VERTICES]
        weights[rng.randrange(16)] += 1  # never all zero
        box = mix([(F(w, sum(weights)), v) for w, v in zip(weights, LOCAL_VERTICES)])
        assert local_part(box).local_part == 1
        assert permuted_local_part(box, rng.sample(range(16), 16)) == 1


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
        assert permuted_local_part(box, order) == base


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


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_decomposition_tableau_entries_stay_below_2_32(monkeypatch):
    # the right-hand side carries den(P) once, as one column factor, and the
    # 0/1 rows are not scaled: no tableau entry of these LPs reaches 2^32
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
        local_part(box)
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
    # on every nonlocal box the closed form's weights, local part and slack
    # are the LP's, and every field of the decomposition is the one the LP's
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
        assert dec.lp == want.lp
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

        def edited(c, a, b):
            res = real(c, a, b)
            return dataclasses.replace(res, **{k: f(res) for k, f in edits.items()})

        monkeypatch.setattr(decompose, "solve_max", edited)
    return patch


def _lp_weights(box, weights):
    """A patch that reports ``weights`` as the LP's solution, with their sum
    as its value and the slacks that make every constraint exact: the
    certificate holds, the optimality does not."""
    slack = tuple(box.prob(a, b, x, y)
                  - sum(w * v.prob(a, b, x, y) for w, v in zip(weights, LOCAL_VERTICES))
                  for a, b, x, y in product((0, 1), repeat=4))
    return _lp_edit(x=lambda res: tuple(weights), value=lambda res: sum(weights),
                    slack=lambda res: slack)


def _lowered(box, delta):
    """The LP weights of ``box`` with its largest weight lowered by delta."""
    weights = list(local_part(box).weights)
    weights[weights.index(max(weights))] -= delta
    return _lp_weights(box, weights)


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
# each DecompositionError message, a box and the patch that breaks the
# identity its check guards; the order keeps each case's test id
BROKEN = [
    ("simplex returned an uncertified optimum", LOCAL,
     _lp_edit(reduced_costs=lambda res: (F(1),) + res.reduced_costs[1:])),
    ("simplex returned an uncertified optimum", LOCAL,
     _lp_edit(x=lambda res: (F(-1, 5),) + res.x[1:])),
    ("simplex returned an uncertified optimum", LOCAL,
     _lp_edit(value=lambda res: res.value + F(1, 5))),
    # one unit of den(P) on one slack
    ("LP slack fails to reconstruct the constraint", LOCAL,
     _lp_edit(slack=lambda res: (res.slack[0] + F(1, 16),) + res.slack[1:])),
    ("local part 3/4 < 1 for a box with NL = 2 <= 2", P_C, _lowered(P_C, F(1, 4))),
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
    # the closed form's checks and the LP's certificate are raises, not
    # asserts: they still fire under python -O
    code = """
import dataclasses
from fractions import Fraction
from nldistill import BinarySystem, decompose, wedge
box = wedge(Fraction(1, 5), Fraction(1, 5))
print("debug", __debug__)
try:
    decompose.minimal_isotropic(BinarySystem(tuple(Fraction(11, 10) * e for e in box.table)))
except decompose.DecompositionError as exc:
    print("raised", exc)
table = list(box.table)
table[1] -= Fraction(1, 10)
table[2] += Fraction(1, 10)
try:
    decompose.minimal_isotropic(BinarySystem(tuple(table)))
except decompose.DecompositionError as exc:
    print("raised", exc)
real = decompose.solve_max
decompose.solve_max = lambda c, a, b: dataclasses.replace(
    real(c, a, b), reduced_costs=(Fraction(1),) + (Fraction(0),) * 15)
try:
    decompose.minimal_isotropic(wedge(0, Fraction(1, 2)))
except decompose.DecompositionError as exc:
    print("raised", exc)
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "debug False",
        "raised decomposition does not reconstruct the box",
        "raised facet weight is negative",
        "raised simplex returned an uncertified optimum",
    ]

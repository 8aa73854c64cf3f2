from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nldistill import (
    ANTI_PR,
    BinarySystem,
    CHSH_EXPRESSIONS,
    LOCAL_VERTICES,
    NONLOCAL_VERTICES,
    P_C,
    P_F,
    PR,
    is_isotropic,
    local_vertex,
    mix,
    nl_value,
    nonlocal_vertex,
    rational,
    validate,
    wedge,
)
from nldistill.boxes import BoxFormatError
from conftest import random_ns_box

F = Fraction


def test_nl_value_ties_go_to_the_first_key():
    # nl_value evaluates all 8 expressions from 4 correlators; the reference
    # is the max over CHSHExpression.evaluate, first in key order
    rng = random.Random(1)
    boxes = [*LOCAL_VERTICES, *NONLOCAL_VERTICES, P_C, P_F,
             wedge(F(1, 5), F(1, 5)), wedge(0, 0),
             BinarySystem((F(1, 4),) * 16)]
    boxes += [random_ns_box(rng) for _ in range(40)]
    for box in boxes:
        ranked = sorted(CHSH_EXPRESSIONS, key=lambda e: e.key)
        best = max(e.evaluate(box) for e in ranked)
        first = next(e for e in ranked if e.evaluate(box) == best)
        assert nl_value(box) == (best, first)
    # on P_C all four positive-sign expressions reach 2
    assert nl_value(P_C)[1].key == (0, 0, 0)


def test_local_vertices_valid_local_distinct():
    tables = set()
    for v in LOCAL_VERTICES:
        assert validate(v).ok
        assert nl_value(v)[0] <= 2
        tables.add(v.table)
    assert len(tables) == 16


def test_local_vertex_examples():
    v = local_vertex(0, 0, 0, 0)
    for x, y in product((0, 1), (0, 1)):
        assert v.prob(0, 0, x, y) == 1
    ident = local_vertex(1, 1, 0, 0)
    for x, y, a, b in product((0, 1), repeat=4):
        assert ident.prob(a, b, x, y) == (1 if (a, b) == (x, y) else 0)


def test_nonlocal_vertices_violate_exactly_one_expression():
    for v in NONLOCAL_VERTICES:
        assert validate(v).ok
        hits = [e for e in CHSH_EXPRESSIONS if e.evaluate(v) == 4]
        assert len(hits) == 1
    # and each expression is hit by exactly one vertex
    argmaxes = {nl_value(v)[1] for v in NONLOCAL_VERTICES}
    assert len(argmaxes) == 8


def test_pr_and_anti_pr():
    val, expr = nl_value(PR)
    assert val == 4 and (expr.x, expr.y, expr.sign) == (0, 0, 1)
    val, expr = nl_value(ANTI_PR)
    assert val == 4 and (expr.x, expr.y, expr.sign) == (0, 0, -1)


def test_mix_identity_and_facet_box():
    assert mix([(1, PR)]) == PR
    assert sorted(set(P_F.table)) == [F(1, 8), F(3, 8)]
    assert nl_value(P_F)[0] == 2
    iso = mix([(F(1, 5), PR), (F(4, 5), P_F)])
    assert iso.prob(0, 0, 0, 0) == F(2, 5)


def test_mix_rejects_bad_weights():
    with pytest.raises(ValueError):
        mix([(F(1, 2), PR)])
    with pytest.raises(ValueError):
        mix([(F(3, 2), PR), (F(-1, 2), ANTI_PR)])


def test_wedge_nl_on_rational_grid():
    for i in range(1, 8):
        eps = F(i, 8)
        for j in range(0, 5):
            delta = (1 - eps) * F(j, 4)
            assert nl_value(wedge(eps, delta))[0] == 2 * (1 + eps)


def test_wedge_examples():
    assert nl_value(wedge(F(1, 5), 0))[0] == F(12, 5)
    assert nl_value(wedge(F(1, 5), F(4, 5)))[0] == F(12, 5)
    assert wedge(0, 0) == P_F


def test_wedge_rejects_outside_simplex():
    for eps, delta in [(F(3, 4), F(1, 2)), (F(-1, 5), 0), (0, F(9, 8))]:
        with pytest.raises(ValueError):
            wedge(eps, delta)


def test_correlators():
    assert [PR.correlator(x, y) for x, y in product((0, 1), (0, 1))] == [1, 1, 1, -1]
    assert all(P_C.correlator(x, y) == 1 for x, y in product((0, 1), (0, 1)))
    for eps in (F(1, 5), F(1, 2)):
        for delta in (0, F(1, 5), 1 - eps):
            w = wedge(eps, delta)
            for x, y in product((0, 1), (0, 1)):
                expected = F(-1 - eps + 3 * delta, 2) if x == y == 1 \
                    else F(1 + eps + delta, 2)
                assert w.correlator(x, y) == expected


def test_nl_of_correlated_bits():
    assert nl_value(P_C)[0] == 2


def test_validate_reports_signaling():
    # outputs (0,0) when y=0 but (1,1) when y=1: Alice's marginal leaks y
    entries = [F(0)] * 16
    for x in (0, 1):
        entries[x * 8 + 0 * 4 + 0 * 2 + 0] = F(1)  # y=0: output (0,0)
        entries[x * 8 + 1 * 4 + 1 * 2 + 1] = F(1)  # y=1: output (1,1)
    bad = BinarySystem(tuple(entries))
    report = validate(bad)
    assert not report.ok
    assert any(i.kind == "signaling-alice" for i in report.issues)


def test_validate_rejects_negative_and_unnormalized():
    entries = list(PR.table)
    entries[0] += F(1, 8)
    assert any(i.kind == "normalization" for i in validate(BinarySystem(tuple(entries))).issues)
    entries = list(PR.table)
    entries[0] -= F(1)
    report = validate(BinarySystem(tuple(entries)))
    assert any(i.kind == "negative" for i in report.issues)


def test_random_mixtures_are_valid():
    rng = random.Random(2)
    for _ in range(50):
        assert validate(random_ns_box(rng)).ok


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=100), min_size=24, max_size=24))
def test_mix_linearity_of_correlator(weights):
    verts = list(LOCAL_VERTICES) + list(NONLOCAL_VERTICES)
    total = sum(weights) or 1
    if total != sum(weights):
        weights = [1] * 24
        total = 24
    comps = [(F(w, total), v) for w, v in zip(weights, verts)]
    mixed = mix(comps)
    for x, y in product((0, 1), (0, 1)):
        direct = sum(w * v.correlator(x, y) for w, v in comps)
        assert mixed.correlator(x, y) == direct


def test_nl_invariant_under_joint_output_flip():
    rng = random.Random(3)
    for _ in range(20):
        box = random_ns_box(rng)
        # relabel a -> 1-a and b -> 1-b on both sides
        flipped = BinarySystem(tuple(
            box.prob(1 - a, 1 - b, x, y)
            for x, y, a, b in product((0, 1), repeat=4)
        ))
        assert nl_value(box)[0] == nl_value(flipped)[0]


def test_is_isotropic_cases():
    assert is_isotropic(wedge(F(1, 5), 0)) == F(1, 5)
    assert is_isotropic(wedge(F(1, 5), F(1, 5))) is None
    assert is_isotropic(PR) == 1
    # P_F sits on the facet: epsilon 0, a falsy value that callers must
    # tell from None
    assert is_isotropic(P_F) == 0
    # fully mixed box: isotropic with NL = 0, wedge parameter -1
    white = mix([(F(1, 2), PR), (F(1, 2), ANTI_PR)])
    assert is_isotropic(white) == -1
    assert nl_value(white)[0] == 0


def test_isotropic_epsilon_matches_nl():
    rng = random.Random(4)
    for _ in range(20):
        q = F(rng.randrange(0, 65), 64)
        alpha, beta = rng.randrange(2), rng.randrange(2)
        box = mix([(q, nonlocal_vertex(alpha, beta, 0)),
                   (1 - q, nonlocal_vertex(alpha, beta, 1))])
        eps = is_isotropic(box)
        assert eps is not None
        assert nl_value(box)[0] == 2 * (1 + eps)


def test_json_round_trip_and_decimal_strings():
    w = wedge(F(1, 5), F(1, 10))
    again = BinarySystem.from_json(w.to_json())
    assert again == w
    assert rational("0.375") == F(3, 8)
    obj = w.to_json_obj()
    obj["p"][0][0][0] = "0.4"  # exact decimal for 2/5
    assert BinarySystem.from_json_obj(obj).prob(0, 0, 0, 0) == F(2, 5)


def test_box_json_rejects_misshapen_tables_and_bools():
    # each would read as a valid box if parsed loosely: a string's
    # characters as entries, extra rows and entries dropped, true as 1
    def edited(edit):
        obj = wedge(F(1, 5), 0).to_json_obj()
        edit(obj["p"])
        return obj

    cases = [
        {"p": [["1000", "1000"], ["1000", "1000"]]},
        edited(lambda p: p.append(p[0])),
        edited(lambda p: p[0].append(p[0][0])),
        edited(lambda p: p[1][1].append("0")),
        edited(lambda p: p[1].pop()),
        {"p": [[[True, False, False, False]] * 2] * 2},
        edited(lambda p: p[0][0].__setitem__(0, True)),
    ]
    for obj in cases:
        with pytest.raises(BoxFormatError):
            BinarySystem.from_json_obj(obj)
    with pytest.raises(TypeError):
        rational(True)
    assert rational(1) == 1


def test_every_constructor_output_validates():
    for v in (*LOCAL_VERTICES, *NONLOCAL_VERTICES, P_C, P_F,
              wedge(F(1, 3), F(1, 3)), wedge(1, 0), wedge(0, 1)):
        assert validate(v).ok

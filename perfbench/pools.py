"""Finite input pools of the benchmark and the paper identities they obey.

Every job a workload can draw comes from one of these pools, and
``reference.json`` holds the exact output of each pool entry.  The pools
are chosen so that each workload puts most of its time into one layer.
A ``cold_bounds`` round draws one job from each of the two cold pools.

* ``COLD_INT64_EPS``: the n* = 8 tightness row, eps = k/10, restricted to
  the k with den(p) = 80 so that every job writes a cache file of the same
  size.  (2*80)^8 <= 2^59, so every level is filled on int64.
* ``COLD_BIGINT_EPS``: the n* = 7 row, eps = k/100, restricted to the
  k with den(p) = 800, so every level is filled with Python big ints.
* ``WARM_QS``: the criterion-6 family (1-q)*wedge(1/5,0) + q*wedge(1/5,4/5)
  at q values whose isotropic envelope p is int64 at n = 8.
* ``GRID_EPS``: class grids of wedge(eps,0) at n = 6.
* The search and decompose pools are nonlocal boxes stored verbatim in
  ``reference.json`` (drawn once by ``make_reference.py``), plus
  wedge(1/2,0) for the search.
"""
from __future__ import annotations

import json
from fractions import Fraction
from math import gcd
from pathlib import Path

F = Fraction

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

COLD_INT64_N = 8
COLD_BIGINT_N = 7
WARM_BOUND_N = 8
GRID_N = 6
SEARCH_N = 2

COLD_INT64_EPS = [F(k, 10) for k in range(1, 10) if gcd(30 + k, 80) == 1]
COLD_BIGINT_EPS = [F(k, 100) for k in range(1, 100) if gcd(300 + k, 800) == 1]
WARM_QS = [F(1, 4), F(1, 2), F(3, 4)]
GRID_EPS = [F(k, 10) for k in range(1, 10)]
PR_HALF = "pr_half"  # search key of wedge(1/2,0), whose D(2, .) is 3


def iso_p(eps: Fraction) -> Fraction:
    """P(0,0|0,0) of wedge(eps, 0), the table parameter of its bound."""
    return (3 + eps) / 8


def criterion6_eps(q: Fraction) -> Fraction:
    """Closed form of the minimal isotropic eps of the criterion-6 box."""
    return F(1, 5) / (F(4, 5) * (1 - q) + F(1, 5))


def fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


class BadReference(Exception):
    """The reference file is missing an entry or breaks a paper identity."""


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        ref = json.load(fh)
    check_identities(ref)
    return ref


def check_identities(ref: dict) -> None:
    """Cross-check stored values against the identities of the paper.

    Tightness: raw_bound == 2(1+eps) on the n* rows and the grid maximum;
    criterion 6: the decomposition eps matches the closed form eps'(q);
    the two-copy oracle: D(2, P_iso(1/2)) == 3.
    """
    def need(cond: bool, what: str) -> None:
        if not cond:
            raise BadReference(what)

    for name, pool, n in (("cold_int64", COLD_INT64_EPS, COLD_INT64_N),
                          ("cold_bigint", COLD_BIGINT_EPS, COLD_BIGINT_N)):
        section = ref[name]
        need(section["n"] == n, f"{name}: n is {section['n']}, expected {n}")
        need(sorted(section["jobs"]) == sorted(fmt(e) for e in pool),
             f"{name}: job keys differ from the pool")
        for eps in pool:
            job = section["jobs"][fmt(eps)]
            need(F(job["p"]) == iso_p(eps), f"{name} eps={eps}: p")
            need(F(job["raw_bound"]) == 2 * (1 + eps),
                 f"{name} eps={eps}: raw_bound is not 2(1+eps)")
            need(len(job["ops_per_level"]) == n + 1, f"{name} eps={eps}: ops")

    section = ref["warm_bound"]
    need(section["n"] == WARM_BOUND_N, "warm_bound: n")
    need(sorted(section["jobs"]) == sorted(fmt(q) for q in WARM_QS),
         "warm_bound: job keys differ from the pool")
    for q in WARM_QS:
        job = section["jobs"][fmt(q)]
        eps = criterion6_eps(q)
        need(F(job["epsilon"]) == eps, f"warm_bound q={q}: eps is not eps'(q)")
        need(F(job["p"]) == iso_p(eps), f"warm_bound q={q}: p")
        need(F(job["raw_bound"]) >= 2 * (1 + eps),
             f"warm_bound q={q}: bound below NL of the envelope")

    section = ref["grid"]
    need(section["n"] == GRID_N, "grid: n")
    need(sorted(section["jobs"]) == sorted(fmt(e) for e in GRID_EPS),
         "grid: job keys differ from the pool")
    for eps in GRID_EPS:
        job = section["jobs"][fmt(eps)]
        need(F(job["max"]) == 2 * (1 + eps), f"grid eps={eps}: max is not 2(1+eps)")

    section = ref["search"]
    need(section["n"] == SEARCH_N, "search: n")
    need(F(section["jobs"][PR_HALF]["value"]) == 3, "search: D(2, P_iso(1/2)) != 3")
    need(sorted(ref["decompose"]["jobs"]) == sorted(ref["boxes"]),
         "decompose: job keys differ from the box pool")
    need(sorted(section["jobs"]) == sorted([PR_HALF, *ref["boxes"]]),
         "search: job keys differ from the box pool")

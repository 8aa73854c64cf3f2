from __future__ import annotations

import random
from fractions import Fraction

import pytest

from nldistill import LOCAL_VERTICES, NONLOCAL_VERTICES, PR, mix


def pytest_addoption(parser):
    parser.addoption(
        "--long-run", action="store_true", default=False,
        help="run the long acceptance rows (n* = 8, 9)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--long-run"):
        return
    skip = pytest.mark.skip(reason="pass --long-run to run the long rows")
    for item in items:
        if "longrun" in item.keywords:
            item.add_marker(skip)


ALL_VERTICES = list(LOCAL_VERTICES) + list(NONLOCAL_VERTICES)


def random_ns_box(rng: random.Random, den: int = 64):
    """Random mixture of one to six of the 24 vertices: always a valid
    nonsignaling box, nonlocal (NL > 2) in about a fifth of the draws.  A
    mixture of all 24 at once is local: its PR boxes cancel."""
    picks = rng.sample(ALL_VERTICES, rng.randint(1, 6))
    weights = [rng.randrange(1, den) for _ in picks]
    total = sum(weights)
    return mix([(Fraction(w, total), v) for w, v in zip(weights, picks)])


def random_nonlocal_box(rng: random.Random, den: int = 64):
    """Random box with NL > 2: a PR weight above 2/3 forces a violation."""
    w_pr = Fraction(rng.randrange(68, 100), 100)
    rest = [rng.randrange(0, den) for _ in range(len(LOCAL_VERTICES))]
    total = sum(rest)
    comps = [(w_pr, PR)] + [
        ((1 - w_pr) * Fraction(r, total), v) for r, v in zip(rest, LOCAL_VERTICES)
    ]
    return mix(comps)

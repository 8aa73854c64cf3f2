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
    """Random vertex mixture: always a valid nonsignaling box."""
    weights = [rng.randrange(0, den) for _ in range(len(ALL_VERTICES))]
    total = sum(weights) or 1
    if total != sum(weights):  # all zeros: fall back to the uniform box
        weights = [1] * len(ALL_VERTICES)
        total = len(ALL_VERTICES)
    return mix([(Fraction(w, total), v) for w, v in zip(weights, ALL_VERTICES)])


def random_nonlocal_box(rng: random.Random, den: int = 64):
    """Random box with NL > 2: a PR weight above 2/3 forces a violation."""
    w_pr = Fraction(rng.randrange(68, 100), 100)
    rest = [rng.randrange(0, den) for _ in range(len(LOCAL_VERTICES))]
    total = sum(rest) or 1
    if total != sum(rest):
        rest = [1] * len(LOCAL_VERTICES)
        total = len(LOCAL_VERTICES)
    comps = [(w_pr, PR)] + [
        ((1 - w_pr) * Fraction(r, total), v) for r, v in zip(rest, LOCAL_VERTICES)
    ]
    return mix(comps)

"""Regenerate ``reference.json``: the exact outputs of every pool entry.

Run from the repository root:

    python3 perfbench/make_reference.py            # writes perfbench/reference.json
    python3 perfbench/make_reference.py --check    # recompute and compare only

Values come from the library API (no CLI, no cache), so the benchmark's
CLI-and-cache runs are checked against an independent computation.  The
result is cross-checked against the paper identities before it is written.
Building the 44 cold tables takes a few minutes.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pools

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from nldistill import (  # noqa: E402
    LOCAL_VERTICES, PR, brute_force_D, build_tables, class_grid, general_bound,
    iso_bound, minimal_isotropic, mix, wedge,
)

F = Fraction
BOX_POOL_SEED = 20261017
BOX_POOL_SIZE = 8


def _random_nonlocal_box(rng: random.Random):
    """A PR weight above 2/3 plus a random local mixture: NL > 2."""
    w_pr = F(rng.randrange(68, 100), 100)
    rest = [rng.randrange(1, 16) for _ in LOCAL_VERTICES]
    total = sum(rest)
    return mix([(w_pr, PR)] + [((1 - w_pr) * F(r, total), v)
                               for r, v in zip(rest, LOCAL_VERTICES)])


def _box_pool() -> dict[str, tuple]:
    """Nonlocal boxes whose n = 2 search stays on the int64 path,
    each with its search result."""
    rng = random.Random(BOX_POOL_SEED)
    boxes = {}
    while len(boxes) < BOX_POOL_SIZE:
        box = _random_nonlocal_box(rng)
        result = brute_force_D(box, pools.SEARCH_N)
        if result.method == "int64":
            boxes[f"r{len(boxes)}"] = (box, result)
    return boxes


def _cold(pool, n: int) -> dict:
    jobs = {}
    for eps in pool:
        p = pools.iso_p(eps)
        tables = build_tables(p, n)
        report = iso_bound(wedge(eps, 0), n, tables=tables)
        jobs[pools.fmt(eps)] = {
            "p": pools.fmt(p),
            "raw_bound": str(report.raw_bound),
            "witness_profile": list(report.witness_profile.as_tuple()),
            "ops_per_level": list(tables.ops_per_level),
        }
        print(f"n={n} eps={eps}: {report.raw_bound}", file=sys.stderr, flush=True)
    return {"n": n, "jobs": jobs}


def _criterion6_box(q: Fraction):
    return mix([(1 - q, wedge(F(1, 5), 0)), (q, wedge(F(1, 5), F(4, 5)))])


def build_reference() -> dict:
    boxes = _box_pool()
    warm = {}
    for q in pools.WARM_QS:
        box = _criterion6_box(q)
        report = general_bound(box, pools.WARM_BOUND_N)
        dec = report.decomposition
        warm[pools.fmt(q)] = {
            "box": box.to_json_obj(),
            "epsilon": str(dec.epsilon),
            "p": pools.fmt(dec.p_iso.prob(0, 0, 0, 0)),
            "raw_bound": str(report.raw_bound),
            "witness_profile": list(report.witness_profile.as_tuple()),
        }
    grid = {}
    for eps in pools.GRID_EPS:
        best, cell = class_grid(wedge(eps, 0), pools.GRID_N).max_cell()
        grid[pools.fmt(eps)] = {"max": str(best), "max_cell": list(cell)}
    search = {pools.PR_HALF: {
        "value": str(brute_force_D(wedge(F(1, 2), 0), pools.SEARCH_N).value)}}
    decompose = {}
    for key, (box, result) in boxes.items():
        search[key] = {"value": str(result.value)}
        dec = minimal_isotropic(box)
        decompose[key] = {"epsilon": str(dec.epsilon), "q": str(dec.q)}
    return {
        "boxes": {key: box.to_json_obj() for key, (box, _) in boxes.items()},
        "warm_bound": {"n": pools.WARM_BOUND_N, "jobs": warm},
        "grid": {"n": pools.GRID_N, "jobs": grid},
        "search": {"n": pools.SEARCH_N, "jobs": search},
        "decompose": {"jobs": decompose},
        "cold_int64": _cold(pools.COLD_INT64_EPS, pools.COLD_INT64_N),
        "cold_bigint": _cold(pools.COLD_BIGINT_EPS, pools.COLD_BIGINT_N),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the committed file instead of writing it")
    args = ap.parse_args(argv)
    ref = build_reference()
    pools.check_identities(ref)
    if args.check:
        same = ref == pools.load_reference()
        print("reference.json matches" if same else "reference.json DIFFERS")
        return 0 if same else 1
    pools.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {pools.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

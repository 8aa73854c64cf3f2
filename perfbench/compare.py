"""Compare two sets of benchmark results: parent against change.

    python3 perfbench/compare.py PARENT_DIR_OR_FILES... -- CHANGE_DIR_OR_FILES...
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

For each workload and metric it prints both sides' median and quartiles,
the share of seed-matched pairs the change wins (ties count for neither),
and a verdict:

* improved: the change wins at least 9/10 of the pairs and the medians
  differ by more than the parent's interquartile distance;
* worse: an end-to-end median is worse than the parent's by more than the
  bound in BENCHMARK.json (per-layer metrics have no bound: worse when the
  parent wins 9/10 of the pairs by more than the change's spread);
* unresolved: the run-to-run spread is wider than the bound, or a
  per-layer timing that moved by neither rule;
* unchanged: otherwise, and whenever both sides read the same on every seed.

Exits 1 when any end-to-end metric is worse, else 0.
"""
from __future__ import annotations

import sys

import results


def _wins(parent: dict, change: dict, better: str) -> tuple[float, float, int]:
    """Win shares of change and of parent over the seeds both sides ran."""
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        return 0.0, 0.0, 0
    c_wins = p_wins = 0
    for s in seeds:
        d = results.worse_share(parent[s], change[s], better)
        c_wins += d < 0
        p_wins += d > 0
    return c_wins / len(seeds), p_wins / len(seeds), len(seeds)


def verdict(parent: dict, change: dict, c_win: float, p_win: float,
            better: str, bound) -> str:
    """Verdict for one metric; ``parent`` and ``change`` map seed to value."""
    if parent == change:  # counts that repeat exactly, or layers never used
        return "unchanged"
    parent_vals, change_vals = list(parent.values()), list(change.values())
    p1, pm, p3 = results.quartiles(parent_vals)
    c1, cm, c3 = results.quartiles(change_vals)
    gain = -results.worse_share(pm, cm, better)
    if c_win >= 0.9 and gain > 0 and abs(cm - pm) > p3 - p1:
        return "improved"
    if bound is None:
        if p_win >= 0.9 and gain < 0 and abs(cm - pm) > c3 - c1:
            return "worse"
        return "unresolved"
    if max(results.spread(parent_vals), results.spread(change_vals)) > bound:
        # too noisy to bound, unless every change run beats every parent run
        if all(results.worse_share(p, c, better) < 0
               for p in parent_vals for c in change_vals):
            return "unchanged"
        return "unresolved"
    return "worse" if -gain > bound else "unchanged"


def compare(parent_runs, change_runs, spec) -> int:
    specs = results.metric_specs(spec)
    parent, change = results.group(parent_runs), results.group(change_runs)
    status = 0
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        print(f"\n== {workload} ({'per-layer' if trace else 'end-to-end'}): "
              f"{len(parent[key])} parent runs, {len(change[key])} change runs")
        print(f"{'metric':<36}{'parent q1/med/q3':>34}{'change q1/med/q3':>34}"
              f"{'wins':>7}  verdict")
        for m in specs[trace]:
            name = m["name"]
            p_by_seed = {r.seed: r.metrics[name] for r in parent[key]}
            c_by_seed = {r.seed: r.metrics[name] for r in change[key]}
            c_win, p_win, pairs = _wins(p_by_seed, c_by_seed, m["better"])
            v = verdict(p_by_seed, c_by_seed, c_win, p_win, m["better"],
                        m.get("bound"))
            if trace == 0 and v == "worse":
                status = 1
            pq, cq = ("/".join(f"{x:.4g}" for x in results.quartiles(list(d.values())))
                      for d in (p_by_seed, c_by_seed))
            print(f"{name:<36}{pq:>34}{cq:>34}{c_win:>6.0%}  {v}"
                  + ("" if pairs else " (no seed-matched pairs)"))
    missing = sorted(set(parent) ^ set(change))
    if missing:
        print(f"\nonly on one side: {missing}")
    return status


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" in argv:
        i = argv.index("--")
        parent_paths, change_paths = argv[:i], argv[i + 1:]
    elif len(argv) == 2:
        parent_paths, change_paths = argv[:1], argv[1:]
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(results.load_runs(parent_paths), results.load_runs(change_paths),
                   results.load_spec())


if __name__ == "__main__":
    raise SystemExit(main())

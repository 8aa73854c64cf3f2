"""Check that benchmark results are steady enough to compare.

    python3 perfbench/steady.py SET_A [SET_B]

Each set is a directory of result files (or several, joined with commas)
from runs on different seeds.  For every workload and end-to-end metric it
prints the interquartile distance as a share of the median and flags a
spread at or above the metric's bound (setup_s is reported but exempt),
with a note when it exceeds a third of the bound.  Given two sets of the
same code, it also flags a metric whose second median is worse than the
first by more than the bound.  Count metrics (units count and bytes) must
repeat exactly across runs of one workload and seed; any that do not are
flagged.  Runs that report failed jobs are flagged too.  Exits 1 on any flag.
"""
from __future__ import annotations

import sys
from collections import defaultdict

import results


def _load(arg: str):
    return results.load_runs(arg.split(","))


def check(sets: list, spec: dict) -> list[str]:
    flags = []
    for runs in sets:
        flags += [f"{r.path}: {r.failed} failed jobs" for r in runs if not r.correct]
    first = results.group(sets[0])
    second = results.group(sets[1]) if len(sets) > 1 else {}
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        for (workload, trace), runs in sorted(first.items()):
            if trace:
                continue
            vals = [r.metrics[name] for r in runs]
            s = results.spread(vals)
            q1, med, q3 = results.quartiles(vals)
            line = (f"{workload:<14}{name:<14}n={len(vals):<3}median={med:<11.5g}"
                    f"spread={s:6.1%}  bound={bound:.0%}")
            if name != "setup_s" and s >= bound:
                flags.append(f"{workload} {name}: spread {s:.1%} >= bound {bound:.0%}")
                line += "  TOO WIDE"
            elif name != "setup_s" and s >= bound / 3:
                line += "  above a third of the bound"
            other = second.get((workload, trace))
            if other:
                med2 = results.quartiles([r.metrics[name] for r in other])[1]
                w = results.worse_share(med, med2, m["better"])
                line += f"  second median {med2:.5g} ({w:+.1%})"
                if w > bound:
                    flags.append(f"{workload} {name}: second median worse by {w:.1%}")
            print(line)
    counts = [m["name"] for mode in results.metric_specs(spec).values()
              for m in mode if m["unit"] in results.COUNT_UNITS]
    seen = defaultdict(lambda: defaultdict(set))
    for runs in sets:
        for r in runs:
            for name in counts:
                if name in r.metrics:
                    seen[(r.workload, r.seed)][name].add(r.metrics[name])
    for (workload, seed), by_name in sorted(seen.items()):
        for name, values in sorted(by_name.items()):
            if len(values) > 1:
                flags.append(f"{workload} seed {seed} {name}: counts differ "
                             f"{sorted(values)}")
    print(f"count metrics checked on {len(seen)} workload/seed groups")
    return flags


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    flags = check([_load(a) for a in argv], results.load_spec())
    for f in flags:
        print("FLAG", f)
    print("steady" if not flags else f"{len(flags)} flags")
    return 1 if flags else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Layered benchmark of the nldistill command line.

Run from the repository root:

    python3 perfbench/run.py --workload cold_bounds --seed 1 --seconds 40 --trace 0

One process runs one job at a time (a closed loop with one client) through
in-process ``nldistill.cli.main([...])`` calls.  A seed fixes the job list
drawn from the pools in ``pools.py``; after one warm-up pass of the same
commands at a small ``--n``, the run repeats that list (a round) for about
``--seconds``: a new round starts only if it is expected to end less than
half a round after the deadline.  Every output is compared with
``reference.json`` before its time counts; a job that raises, exits
non-zero or prints a different value counts as failed.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` spends the first half of the time untraced and the second
half with spans around every layer boundary, and prints the per-layer
metrics, per round, plus the tracing overhead.  The last stdout line is
the result object; the line before it holds the details (machine facts,
jobs, table paths, sample counts).
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pools
from tracing import Tracer, layer_wraps

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

WORKLOADS = ("cold_bounds", "warm_session")
# reference sections whose pools each cold round draws one job from
COLD_POOLS = ("cold_int64", "cold_bigint")
SETUP_REPEATS = 3
DECOMPOSE_PER_ROUND = 4
# the warm-up pass runs each job of the round at this --n (search: 1)
WARMUP_N = 3
# output fields compared with the reference, where the reference has them
CHECKED = {
    "bound": ("raw_bound", "witness_profile", "epsilon", "ops_per_level"),
    "grid": ("max", "max_cell"),
    "search": ("value",),
    "decompose": ("epsilon", "q"),
}

# span name -> per-layer metric; together with bench.self_s and
# trace.unattributed_s these partition the traced wall time
SELF_METRICS = {
    "cli.main": "cli.self_s",
    "delta.build_tables": "delta.build_self_s",
    "kernels.fill_wedge": "kernels.fill_wedge_s",
    "delta.save": "delta.save_s",
    "delta.load_tables": "delta.load_s",
    "bounds.iso_bound": "bounds.iso_bound_self_s",
    "kernels.iso_scan": "kernels.iso_scan_s",
    "bounds.class_grid": "bounds.class_grid_self_s",
    "kernels.grid_scan": "kernels.grid_scan_s",
    "decompose.minimal_isotropic": "decompose.minimal_isotropic_self_s",
    "decompose.local_part": "decompose.local_part_self_s",
    "simplex.solve_max": "simplex.solve_max_s",
    "protocols.search": "protocols.search_self_s",
    "kernels.bilinear_scan": "kernels.bilinear_scan_s",
    "protocols.verify": "protocols.verify_s",
    "bench.prepare": "bench.self_s",
    "bench.check": "bench.self_s",
    "bench.cleanup": "bench.self_s",
}
SPAN_COUNTS = {
    "kernels.iso_scan.cells": "kernels.iso_scan_cells",
    "kernels.grid_scan.cells": "kernels.grid_scan_cells",
    "simplex.solve_max.pivots": "simplex.pivots",
}


def _import_package():
    """Import nldistill from this checkout's src/, never from elsewhere."""
    if not (SRC / "nldistill" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    # import_module, since the package namespace re-exports a function
    # named ``delta`` that hides the submodule of that name
    modules = [importlib.import_module(f"nldistill.{name}") for name in
               ("cli", "decompose", "delta", "kernels", "protocols")]
    if Path(modules[0].__file__).resolve().parent != SRC / "nldistill":
        raise SystemExit(f"perfbench: imported nldistill from {modules[0].__file__}")
    return modules


@dataclass
class Job:
    kind: str
    key: str
    argv: list  # "{cache}" is replaced by the job's cache directory
    ref: dict
    table_path: str = ""  # "int64" or "object" for jobs that use delta tables
    fresh_cache: bool = False


class Bench:
    def __init__(self, workload: str, seed: int, ref: dict, work: Path, pkg):
        self.workload, self.seed, self.ref, self.work = workload, seed, ref, work
        self.cli, self.decompose, self.delta, self.kernels, self.protocols = pkg
        self.cache = None

    # -- inputs -------------------------------------------------------------

    def _table_path(self, p, n: int) -> str:
        return "int64" if self.delta.fits_int64(Fraction(p), n) else "object"

    def _box_file(self, name: str, obj: dict) -> str:
        path = self.cache.parent / f"{name}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def make_jobs(self, setup_dir: Path) -> list[Job]:
        """Draw the round's job list from the seed and write its box files."""
        rng = random.Random(f"{self.workload}:{self.seed}")
        setup_dir.mkdir(parents=True)
        self.cache = setup_dir / "cache"
        if self.workload == "cold_bounds":
            jobs = []
            for pool in COLD_POOLS:
                section = self.ref[pool]
                n = section["n"]
                key = rng.choice(sorted(section["jobs"]))
                jobs.append(Job("bound", key,
                                ["bound", "--wedge", f"{key},0", "--n", str(n),
                                 "--long-run", "--cache", "{cache}"],
                                section["jobs"][key],
                                self._table_path(section["jobs"][key]["p"], n),
                                fresh_cache=True))
            return jobs
        ref = self.ref
        boxes = sorted(ref["boxes"])
        eps = rng.choice(sorted(ref["grid"]["jobs"]))
        box_key = rng.choice(boxes)
        bound_n, grid_n, search_n = (ref["warm_bound"]["n"], ref["grid"]["n"],
                                     ref["search"]["n"])
        # every q in each round: the cache file size, and with it the load
        # time and peak memory, depends on q
        jobs = [
            Job("bound", q,
                ["bound", "--box", self._box_file(f"bound{i}", job["box"]),
                 "--n", str(bound_n), "--long-run", "--cache", "{cache}"],
                job, self._table_path(job["p"], bound_n))
            for i, (q, job) in enumerate(sorted(ref["warm_bound"]["jobs"].items()))
        ]
        jobs += [
            Job("grid", eps,
                ["grid", "--wedge", f"{eps},0", "--n", str(grid_n),
                 "--cache", "{cache}", "--format", "json"],
                ref["grid"]["jobs"][eps],
                self._table_path(pools.iso_p(Fraction(eps)), grid_n)),
            Job("search", pools.PR_HALF,
                ["search", "--wedge", "1/2,0", "--n", str(search_n), "--long-run"],
                ref["search"]["jobs"][pools.PR_HALF]),
            Job("search", box_key,
                ["search", "--box", self._box_file(box_key, ref["boxes"][box_key]),
                 "--n", str(search_n), "--long-run"],
                ref["search"]["jobs"][box_key]),
        ]
        for key in rng.sample(boxes, DECOMPOSE_PER_ROUND):
            jobs.append(Job("decompose", key,
                            ["decompose", "--box",
                             self._box_file(key, ref["boxes"][key])],
                            ref["decompose"]["jobs"][key]))
        # the warm cache holds exactly the tables the bound and grid jobs read
        tables = [(pools.fmt(pools.criterion6_eps(Fraction(q))), bound_n)
                  for q in sorted(ref["warm_bound"]["jobs"])] + [(eps, grid_n)]
        for wedge_eps, n in tables:
            argv = ["tables", "--wedge", f"{wedge_eps},0", "--n", str(n),
                    "--long-run", "--cache", str(self.cache)]
            rc, out, err = self._call(argv)
            if rc != 0:
                raise RuntimeError(f"cache population {argv} exited {rc}: {err}")
        return jobs

    # -- one job --------------------------------------------------------------

    def _call(self, argv: list) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def run_job(self, job: Job, span, stats: "Stats") -> bool:
        with span("bench.prepare"):
            cache = self.work / "cold_cache" if job.fresh_cache else self.cache
            argv = [str(cache) if a == "{cache}" else a for a in job.argv]
        t0 = time.perf_counter()
        try:
            with span("cli.main"):
                rc, out, err = self._call(argv)
            error = None
        except Exception as exc:  # a raising job is a failed job, not a crash
            rc, out, err, error = None, "", "", f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        with span("bench.check"):
            events = _events(err)
            if error is None:
                error = _check(job, rc, out, events)
            stats.record(job, seconds, events, error)
        with span("bench.cleanup"):
            if job.fresh_cache:
                shutil.rmtree(cache, ignore_errors=True)
        return error is None

    def warm_up(self, jobs: list[Job]) -> None:
        """Run every job of the round once at a small --n, untimed.

        This pays first-call costs (lazy imports, first use of each code
        path) before timing starts.  It uses a cache directory of its own,
        so the warm cache keeps exactly the tables the round reads.
        """
        cache = self.work / "warmup_cache"
        for job in jobs:
            argv = [str(cache) if a == "{cache}" else a for a in job.argv]
            if "--n" in argv:
                i = argv.index("--n") + 1
                argv[i] = str(1 if job.kind == "search" else WARMUP_N)
            rc, out, err = self._call(argv)
            if rc != 0:
                raise RuntimeError(f"warm-up {argv} exited {rc}: {err}")
        shutil.rmtree(cache, ignore_errors=True)

    def run_rounds(self, jobs: list[Job], seconds: float, stats: "Stats",
                   tracer: Tracer | None = None) -> None:
        """Repeat the round while its expected end is nearer the deadline."""
        span = tracer.span if tracer is not None else _no_span
        deadline = time.perf_counter() + seconds
        while (not stats.rounds or time.perf_counter()
               + statistics.mean(s for s, _ in stats.rounds) / 2 < deadline):
            t0 = time.perf_counter()
            ok = True
            bound_calls = len(stats.calls["bound"])
            for i, job in enumerate(jobs):
                if tracer is not None:
                    tracer.job = f"{len(stats.rounds)}.{i}"
                ok = self.run_job(job, span, stats) and ok
            stats.rounds.append((time.perf_counter() - t0, ok))
            if ok:
                stats.ok_bound_s += stats.calls["bound"][bound_calls:]


@contextlib.contextmanager
def _no_span(name):
    yield None


def _fresh_import() -> None:
    """Import the CLI in a fresh interpreter, as every nldistill process does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC),
                                                      env.get("PYTHONPATH")]))
    # no timeout: with one, the wait polls in steps of up to 50 ms, which
    # would show in setup_s
    subprocess.run([sys.executable, "-c", "import nldistill.cli"], env=env,
                   cwd=ROOT, check=True)


def _events(err: str) -> list[dict]:
    events = []
    for line in err.splitlines():
        with contextlib.suppress(ValueError):
            obj = json.loads(line)
            if isinstance(obj, dict) and "event" in obj:
                events.append(obj)
    return events


def _check(job: Job, rc, out: str, events: list[dict]) -> str | None:
    """None when the output equals the reference, else what differs."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        obj = json.loads(out)
    except ValueError:
        return "stdout is not JSON"
    if job.kind == "bound":
        obj["epsilon"] = (obj.get("decomposition") or {}).get("epsilon")
        # a cold build's work per level is part of its output
        obj["ops_per_level"] = [0] + [e["ops"] for e in events
                                      if e["event"] == "level_filled"]
    fields = [f for f in CHECKED[job.kind] if f in job.ref]
    got = {f: obj.get(f) for f in fields}
    want = {f: job.ref[f] for f in fields}
    return None if got == want else f"output {got} differs from reference {want}"


class Stats:
    """Timings and event counts of one measurement phase."""

    def __init__(self):
        self.rounds: list[tuple[float, bool]] = []
        self.calls = defaultdict(list)  # kind -> seconds of passing calls
        self.ok_bound_s: list[float] = []  # bound calls of the passing rounds
        self.counts = Counter()
        self.fill_s = Counter()  # table path -> level-fill seconds from events
        self.fill_pairs = Counter()  # table path -> logical window pairs
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, job: Job, seconds: float, events: list[dict],
               error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{job.kind} {job.key}: {error}")
            return
        self.calls[job.kind].append(seconds)
        for e in events:
            kind = e["event"]
            if kind == "level_filled":
                self.fill_s[job.table_path] += e["seconds"]
                self.fill_pairs[job.table_path] += e["ops"]
            elif kind == "cache_hit":
                self.counts["cli.cache_hits"] += 1
            elif kind == "tables_built":
                self.counts["cli.cache_misses"] += 1
            elif kind == "cache_write":
                self.counts["cli.cache_writes"] += 1
                self.counts["delta.cache_bytes"] += os.path.getsize(e["path"])
            elif kind == "search_done":
                self.counts["protocols.cells"] += e["cells"]

    def ok_round_seconds(self) -> list[float]:
        """Seconds of the rounds whose jobs all passed (of all, if none did)."""
        ok = [s for s, passed in self.rounds if passed]
        return ok or [s for s, _ in self.rounds]

    def mean_round(self) -> float:
        return statistics.mean(self.ok_round_seconds())

    def median_call(self, kind: str) -> float:
        return statistics.median(self.calls[kind]) if self.calls[kind] else 0.0


def _summary(values: list[float]) -> dict:
    return {"n": len(values), "mean": statistics.mean(values),
            "median": statistics.median(values),
            "min": min(values), "max": max(values)} if values else {"n": 0}


def _machine() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "platform": platform.platform(),
    }


def _per_layer(untraced: Stats, traced: Stats, tracer: Tracer) -> dict:
    rounds = len(traced.rounds)
    wall = sum(s for s, _ in traced.rounds)
    values = dict.fromkeys(SELF_METRICS.values(), 0.0)
    for name, seconds in tracer.self_times().items():
        values[SELF_METRICS[name]] += seconds
    values["trace.unattributed_s"] = wall - tracer.root_seconds()
    values["trace.wall_s"] = wall
    span_counts = tracer.counts()
    for span_key, name in SPAN_COUNTS.items():
        values[name] = span_counts.get(span_key, 0)
    for name in ("cli.cache_hits", "cli.cache_misses", "cli.cache_writes",
                 "delta.cache_bytes", "protocols.cells"):
        values[name] = traced.counts[name]
    values["delta.fill_pairs"] = sum(traced.fill_pairs.values())
    for path in ("int64", "object"):
        values[f"delta.fill_{path}_s"] = traced.fill_s[path]
    per_round = {k: v / rounds for k, v in values.items()}
    for path in ("int64", "object"):
        pairs = traced.fill_pairs[path]
        per_round[f"delta.fill_ns_per_pair_{path}"] = (
            1e9 * traced.fill_s[path] / pairs if pairs else 0.0)
    per_round["trace.overhead_s"] = traced.mean_round() - untraced.mean_round()
    for kind in ("grid", "search", "decompose"):
        per_round[f"cli.{kind}_call_s"] = untraced.median_call(kind)
    return per_round


def _declared(mode: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[mode]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="layered nldistill benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", type=Path, default=pools.REFERENCE_PATH,
                    help="reference outputs to check against")
    ap.add_argument("--out", type=Path,
                    help="also write the result (and spans) into this directory")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    pkg = _import_package()
    import_s = time.perf_counter() - t0
    ref = pools.load_reference(args.reference)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(args.workload, args.seed, ref, work, pkg)
    try:
        setup_runs = []
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            _fresh_import()
            jobs = bench.make_jobs(work / f"setup{i}")
            setup_runs.append(time.perf_counter() - t0)
            if i:
                shutil.rmtree(work / f"setup{i - 1}")
        setup_s = statistics.median(setup_runs)

        bench.warm_up(jobs)
        untraced, traced, tracer = Stats(), Stats(), None
        if args.trace:
            bench.run_rounds(jobs, args.seconds / 2, untraced)
            tracer = Tracer(layer_wraps(bench.cli, bench.delta, bench.kernels,
                                        bench.decompose, bench.protocols))
            try:
                bench.run_rounds(jobs, args.seconds / 2, traced, tracer)
            finally:
                tracer.close()
        else:
            bench.run_rounds(jobs, args.seconds, untraced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    phases = [untraced, traced] if args.trace else [untraced]
    attempted = sum(s.attempted for s in phases)
    failures = [f for s in phases for f in s.failures]
    if args.trace:
        values = _per_layer(untraced, traced, tracer)
        declared = _declared("per_layer")
    else:
        values = {
            "wall_s": untraced.mean_round(),
            "bound_s": statistics.mean(untraced.ok_bound_s or [0.0]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        declared = _declared("end_to_end")
    if set(values) != set(declared):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(declared))} "
                         "differ from BENCHMARK.json")
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": _machine(),
        "jobs": [{"kind": j.kind, "key": j.key, "table_path": j.table_path,
                  "argv": j.argv} for j in jobs],
        "setup_runs_s": setup_runs, "import_s": import_s,
        "samples": {
            f"{phase}.{name}": _summary(vals)
            for phase, stats in zip(("untraced", "traced"), phases)
            for name, vals in [("round_s", [s for s, _ in stats.rounds])]
            + [(f"{kind}_s", stats.calls[kind]) for kind in CHECKED]
        },
        "failures": failures[:20],
    }
    result = {
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": declared[name]}
                    for name in declared},
    }
    text = json.dumps(detail) + "\n" + json.dumps(result) + "\n"
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (args.out / f"{stem}.json").write_text(text)
        if tracer is not None:
            tracer.write(args.out / f"{stem}.spans.jsonl")
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-memory spans around the package's layer boundaries.

The tracer replaces a public function at the module attribute its caller
resolves (``kernels.fill_wedge`` for ``delta.build_tables``,
``cli.iso_bound`` for ``cli.cmd_bound``, ...) by a wrapper that records a
span, and restores the originals when closed.  Nothing in the package
changes.  Calls are single-threaded, so spans nest strictly and a span's
self time is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager


def _iso_cells(call: dict, result) -> dict:
    # per (l0, l1) cell the k0 sweep has k0_cap+1 terms and the k1 sweep size+1
    size = call["size"]
    return {"cells": (size + 1) ** 2 * (call["k0_cap"] + 1 + size + 1)}


def _grid_cells(call: dict, result) -> dict:
    # every (l0, l1, k0, k1)
    return {"cells": (call["size"] + 1) ** 4}


def _pivots(call: dict, result) -> dict:
    return {"pivots": result.iterations}


def layer_wraps(cli, delta, kernels, decompose, protocols) -> list:
    """(owner, attribute, span name, count function) for every traced layer."""
    return [
        (cli, "build_tables", "delta.build_tables", None),
        (cli, "load_tables", "delta.load_tables", None),
        (delta.DeltaTables, "save", "delta.save", None),
        (kernels, "fill_wedge", "kernels.fill_wedge", None),
        (cli, "iso_bound", "bounds.iso_bound", None),
        (kernels, "iso_scan", "kernels.iso_scan", _iso_cells),
        (cli, "class_grid", "bounds.class_grid", None),
        (kernels, "grid_scan", "kernels.grid_scan", _grid_cells),
        (cli, "minimal_isotropic", "decompose.minimal_isotropic", None),
        (decompose, "local_part", "decompose.local_part", None),
        (decompose, "solve_max", "simplex.solve_max", _pivots),
        (cli, "brute_force_D", "protocols.search", None),
        (kernels, "bilinear_scan", "kernels.bilinear_scan", None),
        (protocols, "nl_protocol", "protocols.verify", None),
    ]


class Tracer:
    """Records spans while installed; ``close`` restores every wrapped name."""

    def __init__(self, wraps: list):
        self.spans: list[dict] = []
        self.job = None
        self._stack: list[dict] = []
        self._originals = []
        for owner, attr, name, count in wraps:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, count))

    def close(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "job": self.job, "name": name,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "counts": {}}
        self.spans.append(record)
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, original, name, count):
        signature = inspect.signature(original) if count is not None else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if count is not None:
                    call = signature.bind(*args, **kwargs).arguments
                    record["counts"].update(count(call, result))
            return result
        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its direct children."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return dict(out)

    def root_seconds(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)

    def counts(self) -> dict[str, int]:
        out = defaultdict(int)
        for s in self.spans:
            for key, value in s["counts"].items():
                out[f"{s['name']}.{key}"] += value
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

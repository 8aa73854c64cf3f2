"""Command-line interface.

Subcommands: validate, nl, decompose, tables, bound, grid, search.
Boxes come from exactly one of ``--box FILE`` (JSON table of "num/den"
strings) and ``--wedge e,d`` (the PR / correlated-bit / facet mixture).
Each command takes ``--out FILE``, which gets the bytes stdout would, and
only the other flags it reads (see ``_build_parser``); any other flag is a
usage error.  All rationals are printed as "num/den"; floats appear only
in explicitly approximate columns.  Exit codes: 0 success, 2 invalid box,
3 infeasible parameters or usage error, 4 I/O or cache failure.

``bound`` and ``tables`` both reduce the box to its minimal isotropic
envelope, so ``tables`` caches the tables ``bound`` reads; a local box
needs none.  Long-running work (profile scans at n >= 8 and the n = 2
exhaustive search) must be opted into with --long-run.  Progress is
reported as one JSON object per line on stderr; a table build's
``path_selected`` event says why it took int64 or big ints, and each
``level_filled`` event names the dtype ("int64" or "object") its level
was filled in.  A level fills its plus grid only, from which the minus
grid is derived on first read; big-int levels add the plus fill's
float-filter counts ``filter_survivors`` and ``filter_fallbacks``, and
int64 levels from level 8 on its pruning counts ``prune_kept`` and
``prune_fallbacks``.  A big-int search's ``search_done`` event adds
``filter_survivors``, the cells it re-checked in Python ints.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .boxes import (BinarySystem, BoxFormatError, is_isotropic, nl_value,
                    rational, validate, wedge)
from .bounds import class_grid, envelope_bound, iso_bound
from .decompose import Decomposition, DecompositionError, minimal_isotropic
from .delta import (
    DeltaTableError,
    DeltaTables,
    MemoryBudgetError,
    build_tables,
    cache_filename,
    load_tables,
)
from .protocols import brute_force_D

EXIT_OK = 0
EXIT_INVALID_BOX = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

LONG_RUN_N = 8  # profile scans at or above this n need --long-run


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse usage errors are parameter errors
        raise CliError(EXIT_INFEASIBLE, message)


def _log(obj: dict) -> None:
    print(json.dumps(obj), file=sys.stderr, flush=True)


def _since(t0: float) -> float:
    return round(time.perf_counter() - t0, 3)


def _parse_wedge(text: str) -> BinarySystem:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(EXIT_INFEASIBLE, f"--wedge wants 'eps,delta', got {text!r}")
    try:
        return wedge(rational(parts[0]), rational(parts[1]))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(EXIT_INFEASIBLE, f"infeasible wedge parameters: {exc}")


def _load_box(args, *, require_valid: bool = True) -> BinarySystem:
    if args.wedge:
        system = _parse_wedge(args.wedge)
    elif args.box:
        try:
            text = Path(args.box).read_text(encoding="utf-8")
        except OSError as exc:
            raise CliError(EXIT_IO, f"cannot read box file: {exc}")
        except UnicodeDecodeError as exc:
            raise CliError(EXIT_INVALID_BOX, f"box file is not UTF-8: {exc}")
        try:
            system = BinarySystem.from_json(text)
        except BoxFormatError as exc:
            raise CliError(EXIT_INVALID_BOX, str(exc))
    else:
        raise CliError(EXIT_INFEASIBLE, "provide a box via --wedge or --box")
    if require_valid:
        report = validate(system)
        if not report.ok:
            raise CliError(
                EXIT_INVALID_BOX,
                "box violates nonsignaling-polytope membership: "
                + json.dumps(report.to_json_obj()["issues"]),
            )
    return system


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise CliError(EXIT_IO, f"cannot write output: {exc}")
    else:
        sys.stdout.write(text)


def _require_long_run(args, what: str) -> None:
    if not args.long_run:
        raise CliError(
            EXIT_INFEASIBLE,
            f"{what} is a long-running computation; re-run with --long-run",
        )


def _tables_for(p: Fraction, n: int, args) -> DeltaTables:
    path = None
    if args.cache:
        path = Path(args.cache) / cache_filename(p, n)
        if path.exists():
            t0 = time.perf_counter()
            try:
                tables = load_tables(path, expect_p=p, expect_n=n)
            except DeltaTableError as exc:
                raise CliError(
                    EXIT_IO,
                    f"table cache corrupt ({type(exc).__name__}): {path}: {exc}",
                )
            _log({"event": "cache_hit", "path": str(path), "n": n,
                  "p": f"{p.numerator}/{p.denominator}", "seconds": _since(t0)})
            return tables
    t0 = time.perf_counter()
    try:
        tables = build_tables(p, n, progress=_log)
    except MemoryBudgetError as exc:
        raise CliError(EXIT_INFEASIBLE, f"n={n}: {exc}")
    _log({"event": "tables_built", "n": n,
          "p": f"{p.numerator}/{p.denominator}", "seconds": _since(t0)})
    if path is not None:
        t0 = time.perf_counter()
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tables.save(path)
        except OSError as exc:
            raise CliError(EXIT_IO, f"cannot write table cache: {exc}")
        _log({"event": "cache_write", "path": str(path), "seconds": _since(t0)})
    return tables


def _decompose(system: BinarySystem) -> Decomposition:
    try:
        return minimal_isotropic(system)
    except DecompositionError as exc:
        raise CliError(EXIT_INVALID_BOX, f"decomposition failed: {exc}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    system = _load_box(args, require_valid=False)
    report = validate(system)
    _emit(args, json.dumps(report.to_json_obj(), indent=2))
    return EXIT_OK if report.ok else EXIT_INVALID_BOX


def cmd_nl(args) -> int:
    system = _load_box(args)
    value, expr = nl_value(system)
    if args.format == "json":
        _emit(args, json.dumps({
            "nl": str(value),
            "anchor": [expr.x, expr.y],
            "sign": expr.sign,
        }, indent=2))
    else:
        _emit(args, f"{value}\nfacet: {expr.label()}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    dec = _decompose(_load_box(args))
    _emit(args, json.dumps(dec.to_json_obj(), indent=2))
    return EXIT_OK


def cmd_tables(args) -> int:
    system = _load_box(args)
    if args.n >= LONG_RUN_N:
        _require_long_run(args, f"building tables at n={args.n}")
    dec = _decompose(system)
    if dec.epsilon == 0:
        raise CliError(EXIT_INFEASIBLE,
                       "a local box needs no tables: its bound is 2")
    p = dec.p_iso.prob(0, 0, 0, 0)
    tables = _tables_for(p, args.n, args)
    _emit(args, json.dumps({
        "path": str(Path(args.cache) / cache_filename(p, args.n)),
        "n": tables.n,
        "p": f"{p.numerator}/{p.denominator}",
        "ops_per_level": list(tables.ops_per_level),
    }, indent=2))
    return EXIT_OK


def cmd_bound(args) -> int:
    system = _load_box(args)
    if args.n >= LONG_RUN_N:
        _require_long_run(args, f"the profile scan at n={args.n}")
    dec = _decompose(system)
    local = dec.epsilon == 0
    tables = None if local else _tables_for(dec.p_iso.prob(0, 0, 0, 0), args.n, args)
    t0 = time.perf_counter()
    envelope = None if local else iso_bound(dec.p_iso, args.n, tables=tables)
    report = envelope_bound(system, args.n, dec, envelope)
    _log({"event": "bound_done", "raw": str(report.raw_bound),
          "witness": list(report.witness_profile.as_tuple()), "seconds": _since(t0)})
    _emit(args, json.dumps(report.to_json_obj(), indent=2))
    return EXIT_OK


def cmd_grid(args) -> int:
    if args.approx and args.format == "json":
        raise CliError(EXIT_INFEASIBLE, "--approx applies to csv output only")
    system = _load_box(args)
    if args.n >= LONG_RUN_N:
        _require_long_run(args, f"the class grid at n={args.n}")
    if is_isotropic(system) is None:
        raise CliError(EXIT_INFEASIBLE,
                       "the class grid applies to isotropic systems only")
    tables = _tables_for(system.prob(0, 0, 0, 0), args.n, args)
    t0 = time.perf_counter()
    grid = class_grid(system, args.n, tables=tables)
    seconds = _since(t0)
    best, arg = grid.max_cell()
    _log({"event": "grid_done", "max": str(best), "cell": list(arg), "seconds": seconds})
    _emit(args, grid.to_json() if args.format == "json"
          else grid.to_csv(approx=args.approx))
    return EXIT_OK


def cmd_search(args) -> int:
    system = _load_box(args)
    if args.n not in (1, 2):
        raise CliError(EXIT_INFEASIBLE, "search supports --n 1 or 2 only")
    if args.n == 2:
        _require_long_run(args, "the n=2 exhaustive search")
    t0 = time.perf_counter()
    result = brute_force_D(system, args.n)
    event = {"event": "search_done", "value": str(result.value),
             "cells": result.cells_scanned, "seconds": _since(t0)}
    if result.filter_survivors is not None:
        event["filter_survivors"] = result.filter_survivors
    _log(event)
    obj = result.to_json_obj()
    obj["nl"] = str(nl_value(system)[0])
    _emit(args, json.dumps(obj, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.cache  # built on the first ``main`` call; parsing leaves it as it is
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nldistill",
                     description="Exact bounds on distillable nonlocality "
                                 "of binary nonsignaling boxes.")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help_text, *, copies=False, formats=(),
                cache=None, long_run=False):
        # formats: the --format choices, default first;
        # cache: None, "optional" or "required"
        sub = subs.add_parser(name, help=help_text)
        box = sub.add_mutually_exclusive_group()
        box.add_argument("--wedge", metavar="E,D",
                         help="wedge box: eps,delta as rationals, e.g. 1/5,0")
        box.add_argument("--box", metavar="FILE", help="box JSON file")
        if copies:
            sub.add_argument("--n", type=int, required=True, metavar="N",
                             help="number of box copies")
        sub.add_argument("--out", metavar="FILE",
                         help="write output here instead of stdout")
        if formats:
            sub.add_argument("--format", choices=formats, default=formats[0])
        if cache:
            sub.add_argument("--cache", metavar="DIR",
                             required=cache == "required",
                             help="delta-table cache directory")
        if long_run:
            sub.add_argument("--long-run", action="store_true", dest="long_run",
                             help="opt in to long computations "
                                  "(n >= 8 scans, n = 2 search)")
        sub.set_defaults(func=fn)
        return sub

    command("validate", cmd_validate, "check polytope membership of a box")
    command("nl", cmd_nl, "CHSH nonlocality NL(P) with its facet",
            formats=("text", "json"))
    command("decompose", cmd_decompose, "minimal isotropic decomposition")
    command("tables", cmd_tables, "build and cache the delta tables bound reads",
            copies=True, cache="required", long_run=True)
    command("bound", cmd_bound, "distillable-nonlocality upper bound",
            copies=True, cache="optional", long_run=True)
    grid = command("grid", cmd_grid, "class grid of bounds (CSV, plot-ready)",
                   copies=True, formats=("csv", "json"), cache="optional",
                   long_run=True)
    grid.add_argument("--approx", action="store_true",
                      help="append a decimal approximation column "
                           "(marked approximate; csv only)")
    command("search", cmd_search, "exhaustive D(n,P) search, n <= 2",
            copies=True, long_run=True)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # Python 3.10.7 on
        sys.set_int_max_str_digits(0)  # every exact rational prints in full
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "n", None) is not None and args.n < 1:
            raise CliError(EXIT_INFEASIBLE, "n must be >= 1")
        return args.func(args)
    except CliError as exc:
        print(f"nldistill: error: {exc}", file=sys.stderr)
        return exc.code
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except OSError as exc:
        print(f"nldistill: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

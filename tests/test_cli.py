from __future__ import annotations

import hashlib
import importlib.util
import inspect
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nldistill import (
    BinarySystem, MemoryBudgetError, PR, brute_force_D, build_tables, decompose,
    kernels, minimal_isotropic, nl_value, wedge,
)
from nldistill import cli
from nldistill.cli import main
from nldistill.protocols import enumerate_plans

import scalar_kernels

F = Fraction
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nl_text_and_json(capsys):
    code, out, _ = run(capsys, "nl", "--wedge", "1/5,0")
    assert code == 0
    assert out.splitlines()[0] == "12/5"
    assert "anchor=(0,0)" in out
    code, out, _ = run(capsys, "nl", "--wedge", "1/5,0", "--format", "json")
    assert json.loads(out) == {"nl": "12/5", "anchor": [0, 0], "sign": 1}


def test_validate_ok_and_signaling(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", "--wedge", "1/3,1/3")
    assert code == 0 and json.loads(out)["valid"]

    entries = [["1", "0", "0", "0"], ["0", "0", "0", "1"]]
    bad = {"p": [[entries[0], entries[1]], [entries[0], entries[0]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "validate", "--box", str(path))
    report = json.loads(out)
    assert code == 2 and not report["valid"]
    kinds = {issue["kind"] for issue in report["issues"]}
    assert "signaling-alice" in kinds or "signaling-bob" in kinds
    # the same box is rejected by value-bearing commands
    code, _, err = run(capsys, "nl", "--box", str(path))
    assert code == 2


def test_box_file_round_trip(capsys, tmp_path):
    path = tmp_path / "box.json"
    path.write_text(wedge(F(1, 5), 0).to_json())
    code, out, _ = run(capsys, "nl", "--box", str(path))
    assert code == 0 and out.splitlines()[0] == "12/5"


def test_decompose_json(capsys):
    code, out, _ = run(capsys, "decompose", "--wedge", "1/5,0")
    obj = json.loads(out)
    assert code == 0
    assert obj["epsilon"] == "1/5" and obj["q"] == "1" and obj["p_f"] == "1"
    assert obj["facet"] == {"anchor": [0, 0], "sign": 1}
    weights = [F(w) for w in obj["weights"]]
    assert sum(weights) == F(obj["local_part"]) == F(4, 5)


def test_tables_then_cached_bound_bit_identical(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    code, out, err = run(capsys, "tables", "--wedge", "1/5,0", "--n", "3",
                         "--cache", cache)
    assert code == 0
    info = json.loads(out)
    assert info["n"] == 3 and info["p"] == "2/5"
    assert (tmp_path / "cache" / "delta_p2_5_n3.nldt").exists()

    code, out1, err1 = run(capsys, "bound", "--wedge", "1/5,0", "--n", "3",
                           "--cache", cache)
    assert code == 0 and "cache_hit" in err1
    hit = next(e for e in map(json.loads, err1.splitlines())
               if e["event"] == "cache_hit")
    assert hit["seconds"] >= 0
    code, out2, err2 = run(capsys, "bound", "--wedge", "1/5,0", "--n", "3",
                           "--cache", cache)
    assert out2 == out1
    report = json.loads(out1)
    assert report["raw_bound"] == "12/5"
    assert report["witness_profile"] == [4, 4, 4, 4]


def test_bound_cold_writes_cache(capsys, tmp_path):
    cache = str(tmp_path / "c2")
    code, out, err = run(capsys, "bound", "--wedge", "1/2,0", "--n", "2",
                         "--cache", cache)
    assert code == 0 and "cache_write" in err
    write = next(e for e in map(json.loads, err.splitlines())
                 if e["event"] == "cache_write")
    assert write["path"].endswith(".nldt") and write["seconds"] >= 0
    assert json.loads(out)["raw_bound"] == "3"


def test_tables_cache_hit_prints_the_cold_output(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    args = ("tables", "--wedge", "1/5,0", "--n", "4", "--cache", cache)
    code, cold, err_cold = run(capsys, *args)
    assert code == 0 and "cache_write" in err_cold
    code, warm, err_warm = run(capsys, *args)
    assert code == 0 and "cache_hit" in err_warm
    assert warm == cold
    assert json.loads(warm)["ops_per_level"] == list(
        build_tables(F(2, 5), 4).ops_per_level
    )


def test_corrupt_cache_is_distinct_io_error(capsys, tmp_path):
    cache = tmp_path / "c3"
    run(capsys, "tables", "--wedge", "1/5,0", "--n", "2", "--cache", str(cache))
    victim = next(cache.glob("*.nldt"))
    victim.write_bytes(victim.read_bytes()[:-10])
    code, _, err = run(capsys, "bound", "--wedge", "1/5,0", "--n", "2",
                       "--cache", str(cache))
    assert code == 4
    assert "cache corrupt" in err and "TableChecksumError" in err
    # a cache written by format 1, 2, 3 or 4 names the file to delete, in
    # the message the README gives
    good = build_tables(F(2, 5), 2)
    good.save(victim)
    format_4 = scalar_kernels.format_4_file(victim.read_bytes(), good.ops_per_level)
    for old in (b"NLDELTA 1\nn=2 p=2/5\nsha256=0\n",
                b"NLDELTA 2\nn=2 p=2/5\nops=0,20,86\nsha256=0\n0 0 0 1\n",
                b"NLDELTA 3\nn=2 p=2/5\nops=0,20,86\nsha256=0\n0 0 0 1\n",
                format_4):
        victim.write_bytes(old)
        code, _, err = run(capsys, "bound", "--wedge", "1/5,0", "--n", "2",
                           "--cache", str(cache))
        assert code == 4
        assert f"table cache corrupt (TableVersionError): {victim}: " in err


def test_cache_header_n_past_its_payload_exits_4(capsys, tmp_path):
    # a crafted n = 8000 file under a valid checksum: the loader rejects its
    # n before any work of that size, and the command reports a corrupt cache
    # (the old loader's payload message overran the int -> str digit limit)
    path = tmp_path / cli.cache_filename(F(2, 5), 8000)
    build_tables(F(2, 5), 2).save(path)
    payload = path.read_bytes().split(b"\n", 3)[3]
    head = b"NLDELTA 5\nn=8000 p=2/5\n"
    digest = hashlib.sha256(head + payload).hexdigest().encode()
    path.write_bytes(head + b"sha256=" + digest + b"\n" + payload)
    code, out, err = run(capsys, "bound", "--wedge", "1/5,0", "--n", "8000",
                         "--long-run", "--cache", str(tmp_path))
    assert code == 4 and out == ""
    assert f"table cache corrupt (TableHeaderError): {path}: header n=8000" in err


# D1 and D2 are coprime, and the box's epsilon has more digits than
# Python's default int -> str limit of 4300
D1, D2 = 10 ** 2200 + 1, 10 ** 2200 + 3


@pytest.fixture
def default_digit_limit():
    """The int -> str digit limit of a fresh interpreter, restored after."""
    if not hasattr(sys, "set_int_max_str_digits"):  # before Python 3.10.7
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("command", ["decompose", "bound", "nl", "validate", "search"])
def test_results_past_the_digit_limit_print(capsys, default_digit_limit, command):
    box = wedge(F(1, D1), F(1, D2))
    copies = {"bound": ["--n", "2"], "search": ["--n", "1"]}.get(command, [])
    code, out, _ = run(capsys, command, "--wedge", f"1/{D1},1/{D2}", *copies)
    assert code == 0
    epsilon = minimal_isotropic(box).epsilon
    assert len(str(epsilon.denominator)) > 4300
    nl = nl_value(box)[0]
    if command == "decompose":
        assert F(json.loads(out)["epsilon"]) == epsilon
    elif command == "bound":
        assert F(json.loads(out)["decomposition"]["epsilon"]) == epsilon
    elif command == "nl":
        assert F(out.splitlines()[0]) == nl
    elif command == "validate":
        assert json.loads(out)["valid"] is True
    else:
        obj = json.loads(out)
        assert F(obj["nl"]) == nl and F(obj["value"]) >= nl


@pytest.mark.parametrize("command", ["nl", "bound"])
def test_wedge_and_box_are_exclusive(capsys, tmp_path, command):
    argv = [command, "--wedge", "1/5,0", "--box", str(tmp_path / "none.json")]
    if command == "bound":
        argv += ["--n", "2"]
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert "not allowed with argument" in err


@pytest.mark.parametrize("argv", [
    ["nl", "--wedge", "1/5,0"],
    ["bound", "--wedge", "1/5,0", "--n", "2"],
    ["grid", "--wedge", "1/5,0", "--n", "2"],
    ["grid", "--wedge", "1/5,0", "--n", "2", "--format", "json"],
], ids=["nl", "bound", "grid-csv", "grid-json"])
def test_out_file_holds_the_stdout_bytes(capsys, tmp_path, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.endswith("\n")
    path = tmp_path / "out.txt"
    code, again, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0 and again == ""
    assert path.read_bytes() == out.encode()


def test_grid_csv_and_json(capsys):
    code, out, _ = run(capsys, "grid", "--wedge", "1/5,0", "--n", "2")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "s_k,s_l,bound_num,bound_den"
    rows = {tuple(map(int, l.split(",")[:2])): l.split(",")[2:] for l in lines[1:]}
    assert rows[(4, 4)] == ["12", "5"]
    code, out, _ = run(capsys, "grid", "--wedge", "1/5,0", "--n", "2",
                       "--approx")
    assert out.splitlines()[0].endswith("bound_approx")
    code, out, _ = run(capsys, "grid", "--wedge", "1/5,0", "--n", "2",
                       "--format", "json")
    obj = json.loads(out)
    assert obj["max"] == "12/5" and obj["max_cell"] == [4, 4]


def test_grid_rejects_non_isotropic(capsys):
    code, _, err = run(capsys, "grid", "--wedge", "1/5,1/5", "--n", "2")
    assert code == 3


def test_grid_rejects_non_isotropic_before_any_work(capsys, tmp_path):
    code, out, err = run(capsys, "grid", "--wedge", "1/5,1/5", "--n", "5",
                         "--cache", str(tmp_path))
    assert code == 3 and out == ""
    assert "the class grid applies to isotropic systems only" in err
    assert "level_filled" not in err
    assert list(tmp_path.iterdir()) == []


def test_memory_budget_is_a_parameter_error(capsys, tmp_path):
    # build_tables raises before it allocates anything, so this costs nothing
    with pytest.raises(MemoryBudgetError) as exc:
        build_tables(F(2, 5), 14)
    for command in ("tables", "bound"):
        code, out, err = run(capsys, command, "--wedge", "1/5,0", "--n", "14",
                             "--long-run", "--cache", str(tmp_path))
        assert code == 3 and out == ""
        # the message names the bytes required and the budget
        assert err == f"nldistill: error: n=14: {exc.value}\n"
    assert list(tmp_path.iterdir()) == []


def test_search_and_long_run_guards(capsys, tmp_path):
    code, out, _ = run(capsys, "search", "--wedge", "1/2,0", "--n", "1")
    obj = json.loads(out)
    assert code == 0 and obj["value"] == "3" and obj["distilled"] is False
    code, _, err = run(capsys, "search", "--wedge", "1/2,0", "--n", "2")
    assert code == 3 and "--long-run" in err
    code, _, err = run(capsys, "bound", "--wedge", "1/4,0", "--n", "8")
    assert code == 3 and "--long-run" in err
    code, _, err = run(capsys, "tables", "--wedge", "1/4,0", "--n", "9",
                       "--cache", str(tmp_path))
    assert code == 3 and "--long-run" in err
    assert list(tmp_path.iterdir()) == []


def test_search_n2_with_long_run(capsys):
    code, out, err = run(capsys, "search", "--wedge", "1/2,0", "--n", "2",
                         "--long-run")
    obj = json.loads(out)
    assert code == 0
    assert obj["value"] == "3" and obj["nl"] == "3"
    # an int64 search has no float filter to report
    done = [json.loads(line) for line in err.splitlines()][-1]
    assert done["event"] == "search_done" and "filter_survivors" not in done


def test_search_beyond_float_range(capsys):
    # the scaled search vectors pass 1e308 here; the float pre-filter must
    # convert them by exact division instead of overflowing
    eps = F(1, 10 ** 400)
    code, out, err = run(capsys, "search", "--wedge", f"{eps},0", "--n", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["method"] == "prefilter"
    # 32 of the 64 cells lie within the margin of the float optimum
    done = [json.loads(line) for line in err.splitlines()][-1]
    assert done["event"] == "search_done" and done["filter_survivors"] == 32
    # the scalar reference scans the same big-int table in Python ints
    box = wedge(eps, 0)
    _, denom = box.integer_form
    t = scalar_kernels.ip_table(box, enumerate_plans(1), 1, object)
    reduced = np.arange(0, t.shape[0], 2)  # f_0(0) = 0: even table masks
    best = scalar_kernels.bilinear_scan(t, reduced)[0]
    assert F(obj["value"]) == F(best, denom) == 2 + 2 * eps


def test_parameter_errors(capsys):
    assert run(capsys, "nl", "--wedge", "3/4,1/2")[0] == 3
    assert run(capsys, "nl", "--wedge", "nonsense")[0] == 3
    assert run(capsys, "nl")[0] == 3
    assert run(capsys, "bound", "--wedge", "1/5,0", "--n", "0")[0] == 3
    assert run(capsys, "search", "--wedge", "1/5,0", "--n", "3")[0] == 3


def test_one_parser_serves_every_call_without_leaking_state(capsys, tmp_path):
    # main builds its parser once per process; a call must leave nothing in
    # it that changes the next call.  Each second call must print what it
    # prints on a freshly built parser.
    grid = ["grid", "--wedge", "1/5,0", "--n", "2"]
    bound = ["bound", "--wedge", "1/5,0", "--n", "3"]
    pairs = [
        (grid + ["--approx"], 0, grid),
        (bound + ["--cache", str(tmp_path)], 0, bound),
        (bound + ["--format", "csv"], 3, bound),  # a usage error
        (["bound", "--wedge", "1/5,0", "--n", "0"], 3, ["nl", "--wedge", "1/5,0"]),
        (["--help"], 0, grid),
    ]
    fresh = {}
    for _, _, second in pairs:
        cli._build_parser.cache_clear()
        fresh[tuple(second)] = run(capsys, *second)[:2]
    cli._build_parser.cache_clear()
    for first, code, second in pairs:
        assert run(capsys, *first)[0] == code, first
        got_code, out, err = run(capsys, *second)
        assert (got_code, out) == fresh[tuple(second)], (first, second)
        assert "cache_" not in err and "bound_approx" not in out
    assert cli._build_parser.cache_info().misses == 1
    # the parser is built on the first main call, not at import
    proc = subprocess.run(
        [sys.executable, "-c", "import nldistill.cli as c; "
                               "print(c._build_parser.cache_info().currsize)"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "0"


def test_missing_file_is_io_error(capsys, tmp_path):
    code, _, err = run(capsys, "nl", "--box", str(tmp_path / "nope.json"))
    assert code == 4


def test_zero_denominator_entry_is_invalid_box(capsys, tmp_path):
    path = tmp_path / "zero.json"
    obj = json.loads(wedge(F(1, 5), 0).to_json())
    obj["p"][0][0][0] = "1/0"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "nl", "--box", str(path))
    assert code == 2


def test_out_file(capsys, tmp_path):
    out_path = tmp_path / "res.json"
    code, out, _ = run(capsys, "decompose", "--wedge", "1/5,0",
                       "--out", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["epsilon"] == "1/5"


def test_emitted_rationals_round_trip(capsys):
    code, out, _ = run(capsys, "decompose", "--wedge", "2/7,1/7")
    obj = json.loads(out)
    eps = F(obj["epsilon"])
    assert 0 < eps < 1
    assert F(obj["q"]) * 2 * (1 + eps) >= 0  # parseable exact rationals


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "nldistill.cli", "nl", "--wedge", "1/2,0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "3"


def test_cold_bound_reports_every_level(capsys, tmp_path):
    # perfbench/run.py rebuilds ops_per_level from these events
    code, _, err = run(capsys, "bound", "--wedge", "1/5,0", "--n", "4",
                       "--cache", str(tmp_path))
    assert code == 0
    events = list(map(json.loads, err.splitlines()))
    filled = [e for e in events if e["event"] == "level_filled"]
    assert [e["m"] for e in filled] == [1, 2, 3, 4]
    assert [e["ops"] for e in filled] == \
        list(build_tables(F(2, 5), 4).ops_per_level[1:])
    assert {e["dtype"] for e in filled} == {"int64"}
    # the scan's own time is on its done event, apart from the table build
    done = [e for e in events if e["event"] == "bound_done"]
    assert len(done) == 1 and done[0]["seconds"] >= 0
    code, _, err = run(capsys, "grid", "--wedge", "1/5,0", "--n", "4",
                       "--cache", str(tmp_path))
    assert code == 0
    grid_events = list(map(json.loads, err.splitlines()))
    assert "cache_hit" in [e["event"] for e in grid_events]
    done = [e for e in grid_events if e["event"] == "grid_done"]
    assert len(done) == 1 and done[0]["seconds"] >= 0
    # one path_selected event, before the first level, says why: D_4 = 10^4
    path = [e for e in events if e["event"] == "path_selected"]
    assert path == [{"event": "path_selected", "dtype": "int64",
                     "bits": (10 ** 4).bit_length(), "limit_bits": 59}]
    assert events.index(path[0]) < events.index(filled[0])
    # D_2 = (2 * den p)^2 > 2^59 here, so every level is filled in big ints
    d_2 = (2 * wedge(F(1, 2 ** 101), 0).prob(0, 0, 0, 0).denominator) ** 2
    code, _, err = run(capsys, "bound", "--wedge", f"1/{2 ** 101},0", "--n", "2",
                       "--cache", str(tmp_path))
    assert code == 0
    events = list(map(json.loads, err.splitlines()))
    filled = [e for e in events if e["event"] == "level_filled"]
    assert [e["m"] for e in filled] == [1, 2]
    assert {e["dtype"] for e in filled} == {"object"}
    path = [e for e in events if e["event"] == "path_selected"]
    assert path == [{"event": "path_selected", "dtype": "object",
                     "bits": d_2.bit_length(), "limit_bits": 59}]
    assert events.index(path[0]) < events.index(filled[0])


def test_bound_rejects_csv_before_any_work(capsys, tmp_path):
    code, out, err = run(capsys, "bound", "--wedge", "1/5,0", "--n", "3",
                         "--format", "csv", "--cache", str(tmp_path))
    assert code == 3 and out == ""
    assert "unrecognized arguments" in err
    assert "level_filled" not in err and "bound_done" not in err
    assert list(tmp_path.iterdir()) == []


# every command with a box and, where it takes one, --n
FLAG_BASE = {
    "validate": ["validate", "--wedge", "1/5,0"],
    "nl": ["nl", "--wedge", "1/5,0"],
    "decompose": ["decompose", "--wedge", "1/5,0"],
    "tables": ["tables", "--wedge", "1/5,0", "--n", "3"],
    "bound": ["bound", "--wedge", "1/5,0", "--n", "3"],
    "grid": ["grid", "--wedge", "1/5,0", "--n", "3"],
    "search": ["search", "--wedge", "1/2,0", "--n", "1"],
}
# flags each command keeps, beyond the box flags and --n
FLAGS_KEPT = {
    "validate": [["--out", "{out}"]],
    "nl": [["--out", "{out}"], ["--format", "text"], ["--format", "json"]],
    "decompose": [["--out", "{out}"]],
    "tables": [["--cache", "{cache}", "--long-run", "--out", "{out}"]],
    "bound": [["--out", "{out}"], ["--cache", "{cache}"], ["--long-run"]],
    "grid": [["--out", "{out}"], ["--format", "csv", "--approx"],
             ["--format", "json"], ["--cache", "{cache}"], ["--long-run"]],
    "search": [["--out", "{out}"], ["--long-run"]],
}
# flags and values no command reads; tables, bound and grid also get a
# cache directory, so any work they did would leave a file behind
FLAGS_REJECTED = [
    ("validate", ["--format", "json"]),
    ("validate", ["--cache", "{cache}"]),
    ("validate", ["--long-run"]),
    ("nl", ["--cache", "{cache}"]),
    ("nl", ["--long-run"]),
    ("nl", ["--format", "csv"]),
    ("decompose", ["--format", "json"]),
    ("decompose", ["--cache", "{cache}"]),
    ("decompose", ["--long-run"]),
    ("tables", ["--cache", "{cache}", "--format", "json"]),
    ("bound", ["--cache", "{cache}", "--format", "json"]),
    ("grid", ["--cache", "{cache}", "--format", "json", "--approx"]),
    ("search", ["--format", "json"]),
    ("search", ["--cache", "{cache}"]),
]


def _flag_argv(command, flags, tmp_path):
    paths = {"{out}": str(tmp_path / "out.txt"),
             "{cache}": str(tmp_path / "cache")}
    return FLAG_BASE[command] + [paths.get(f, f) for f in flags]


def _flag_cases(rows):
    return [pytest.param(command, flags, id=" ".join([command, *flags]))
            for command, flags in rows]


@pytest.mark.parametrize("command,flags", _flag_cases(
    (command, flags) for command, rows in FLAGS_KEPT.items() for flags in rows))
def test_kept_flags_parse(capsys, tmp_path, command, flags):
    code, _, err = run(capsys, *_flag_argv(command, flags, tmp_path))
    assert code == 0, err


@pytest.mark.parametrize("command,flags", _flag_cases(FLAGS_REJECTED))
def test_unread_flags_exit_3_before_any_work(capsys, tmp_path, command, flags):
    cache = tmp_path / "cache"
    cache.mkdir()
    code, out, err = run(capsys, *_flag_argv(command, flags, tmp_path))
    assert code == 3 and out == ""
    assert err.startswith("nldistill: error: ")
    assert "level_filled" not in err
    assert list(cache.iterdir()) == []


def test_tables_builds_the_envelope_tables_bound_reads(capsys, tmp_path):
    # 2/7,1/7 is not isotropic: P(00|00) = 3/7, its envelope's p is 5/12
    cache = tmp_path / "cache"
    args = ("--wedge", "2/7,1/7", "--n", "4", "--cache", str(cache))
    code, out, _ = run(capsys, "tables", *args)
    assert code == 0 and json.loads(out)["p"] == "5/12"
    assert [f.name for f in cache.iterdir()] == ["delta_p5_12_n4.nldt"]
    code, _, err = run(capsys, "bound", *args)
    events = [e["event"] for e in map(json.loads, err.splitlines())]
    assert code == 0 and "cache_hit" in events
    assert "cache_write" not in events and "level_filled" not in events
    assert [f.name for f in cache.iterdir()] == ["delta_p5_12_n4.nldt"]


def test_tables_rejects_a_local_box(capsys, tmp_path):
    code, out, err = run(capsys, "tables", "--wedge", "0,1/2", "--n", "3",
                         "--cache", str(tmp_path))
    assert code == 3 and out == ""
    assert "local box" in err and "level_filled" not in err
    assert list(tmp_path.iterdir()) == []


# a local box solves the LP once; a nonlocal box takes the closed form
@pytest.mark.parametrize("box,raw,lp_calls", [
    pytest.param("0,1/2", "2", 1, id="0,1/2-2"),
    pytest.param("1/5,1/5", None, 0, id="1/5,1/5-None"),
])
def test_bound_solves_the_lp_once(capsys, monkeypatch, box, raw, lp_calls):
    calls = []
    original = decompose.local_part

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(decompose, "local_part", counting)
    code, out, _ = run(capsys, "bound", "--wedge", box, "--n", "3")
    assert code == 0 and len(calls) == lp_calls
    if raw is not None:
        assert json.loads(out)["raw_bound"] == raw


def test_perfbench_layer_wraps_resolve():
    # perfbench/tracing.py wraps package functions by module attribute and
    # reads the scan sizes by parameter name
    from nldistill import cli, decompose, delta, protocols

    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wraps = tracing.layer_wraps(cli, delta, kernels, decompose, protocols)
    for owner, attr, _, _ in wraps:
        assert callable(getattr(owner, attr, None)), (owner, attr)
    assert {"size", "k0_cap"} <= set(inspect.signature(kernels.iso_scan).parameters)
    assert "size" in inspect.signature(kernels.grid_scan).parameters


def test_perfbench_traced_layers_all_fire(capsys, tmp_path):
    # every span perfbench/tracing.py installs records at least once over a
    # cold bound, a cache hit, a grid, a search and two decompositions: only
    # the local box's reaches the LP
    from nldistill import cli, decompose, delta, protocols

    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wraps = tracing.layer_wraps(cli, delta, kernels, decompose, protocols)
    cache = str(tmp_path)
    tracer = tracing.Tracer(wraps)
    try:
        for argv in (("bound", "--wedge", "1/5,1/7", "--n", "3", "--cache", cache),
                     ("bound", "--wedge", "1/5,1/7", "--n", "3", "--cache", cache),
                     ("grid", "--wedge", "1/5,0", "--n", "3", "--cache", cache),
                     ("search", "--wedge", "1/2,0", "--n", "1"),
                     ("decompose", "--wedge", "1/5,1/7"),
                     ("decompose", "--wedge", "0,0")):
            assert main(list(argv)) == 0, argv
    finally:
        tracer.close()
    capsys.readouterr()
    assert len(wraps) == 14
    assert {s["name"] for s in tracer.spans} == {name for _, _, name, _ in wraps}
    # neither public scan routes through the other, which would count one
    # scan's time in both layers
    names = {s["id"]: s["name"] for s in tracer.spans}
    for scan, caller in (("kernels.iso_scan", "bounds.iso_bound"),
                         ("kernels.bilinear_scan", "protocols.search")):
        assert {names.get(s["parent"]) for s in tracer.spans
                if s["name"] == scan} == {caller}, scan


def test_grid_n6_reproduces_peak(capsys):
    code, out, _ = run(capsys, "grid", "--wedge", "1/5,0", "--n", "6")
    assert code == 0
    best, best_cell = F(0), None
    for line in out.splitlines()[1:]:
        sk, sl, num, den = line.split(",")
        value = F(int(num), int(den))
        if value > best:
            best, best_cell = value, (int(sk), int(sl))
    assert best == F(12, 5) and best_cell == (64, 64)


@pytest.mark.longrun
def test_grid_n7_matches_the_sweep(capsys, monkeypatch):
    # the n >= 7 grid path against the full sweep through the same ClassGrid
    # and the same output code
    argv = ["grid", "--wedge", "1/5,0", "--n", "7", "--long-run", "--format", "json"]
    code, out, _ = run(capsys, *argv)
    monkeypatch.setattr(kernels, "grid_scan", scalar_kernels.grid_sweep)
    ref_code, ref_out, _ = run(capsys, *argv)
    assert code == ref_code == 0
    assert out == ref_out


@pytest.mark.longrun
def test_bound_n9_long_run(capsys, tmp_path):
    code, out, _ = run(capsys, "bound", "--wedge", "1/4,0", "--n", "9",
                       "--long-run", "--cache", str(tmp_path / "cache"))
    assert code == 0
    report = json.loads(out)
    assert report["raw_bound"] == "5/2"
    assert report["witness_profile"] == [256, 256, 256, 256]

"""The CLI stdout corpus: argv, exit code and the sha256 of stdout.

``test_cli_corpus.py`` replays every entry of ``cli_corpus.json`` in
process, against a fresh table cache and then against the cache the first
pass filled.  A change that alters any output regenerates the file with

    PYTHONPATH=src python tests/cli_corpus.py

and names each changed argv in CHANGES.md.  In argv, ``{tmp}`` stands for
a scratch directory that holds the box files of ``BOX_FILES`` and
``{cache}`` for the table cache directory.  The entries of
``cli_corpus_longrun.json`` (``--long-run`` bounds at n = 8 and 9 and
json grids at n = 7) replay only under ``pytest --long-run``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from nldistill import PR, BinarySystem, mix, wedge
from nldistill.cli import main

CORPUS = Path(__file__).with_name("cli_corpus.json")
LONGRUN_CORPUS = Path(__file__).with_name("cli_corpus_longrun.json")
#: the benchmark's inputs, read for the boxes of its warm round
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

F = Fraction


def _signaling_box() -> str:
    entries = [["1", "0", "0", "0"], ["0", "0", "0", "1"]]
    return json.dumps({"p": [[entries[0], entries[1]], [entries[0], entries[0]]]})


def _zero_denominator_box() -> str:
    obj = json.loads(wedge(F(1, 5), 0).to_json())
    obj["p"][0][0][0] = "1/0"
    return json.dumps(obj)


def _extra_entries_box() -> str:
    """A valid table with a third y row and a five-entry list added."""
    obj = json.loads(wedge(F(1, 5), 0).to_json())
    obj["p"][0].append(obj["p"][0][0])
    obj["p"][1][1].append("0")
    return json.dumps(obj)


def _reference_boxes() -> dict[str, dict]:
    """The benchmark's eight random nonlocal boxes (``ref_r0.json`` ...)
    and its three criterion-6 bound boxes (``c6_1_2.json`` ...)."""
    ref = json.loads(REFERENCE.read_text())
    boxes = {f"ref_{key}.json": box for key, box in ref["boxes"].items()}
    for q, job in ref["warm_bound"]["jobs"].items():
        boxes[f"c6_{q.replace('/', '_')}.json"] = job["box"]
    return dict(sorted(boxes.items()))


#: box files written into {tmp} before a replay
BOX_FILES = {
    "pr.json": lambda: PR.to_json(),
    "mixed.json": lambda: mix([(F(3, 4), PR), (F(1, 4), wedge(F(2, 7), F(1, 7)))]).to_json(),
    "signaling.json": _signaling_box,
    "zero_den.json": _zero_denominator_box,
    "strings.json": lambda: json.dumps({"p": [["1000", "1000"], ["1000", "1000"]]}),
    "extras.json": _extra_entries_box,
    "bools.json": lambda: json.dumps({"p": [[[True, False, False, False]] * 2] * 2}),
    #: NL = 0 < 2: its decomposition weights are not unique
    "uniform.json": lambda: BinarySystem((F(1, 4),) * 16).to_json(),
}

WEDGES = ["1/5,0", "3/1000,0", "1/100,0", "2/7,1/7", "1/5,1/5", "0,0"]
BOXES = ["{tmp}/pr.json", "{tmp}/mixed.json"]
BOUND_WEDGES = ["1/5,0", "3/1000,0", "1/100,0", "2/7,1/7", "1/5,1/5"]
GRID_WEDGES = ["1/10,0", "3/10,0", "7/10,0"]
#: grids off the den(p) = 80 int64 path: 3/1000,0 has object-dtype grids
#: from n = 5 on; 5/9,0 has p = 4/9, so its n = 1 grid has denominator 18
#: and its reduced cells take the factor 4/gcd(18, 4) = 2
GRID_EXTRA = [("3/1000,0", (4, 5)), ("5/9,0", (1, 2))]


def _box_args(source: str) -> list[str]:
    return ["--box", source] if source.startswith("{tmp}") else ["--wedge", source]


def corpus_argvs() -> list[list[str]]:
    argvs = []
    for source in WEDGES + BOXES:
        box = _box_args(source)
        argvs += [["nl", *box], ["nl", *box, "--format", "json"],
                  ["validate", *box], ["decompose", *box]]
    for source in ["1/5,0", "2/7,1/7", "0,0", "{tmp}/pr.json"]:
        argvs.append(["search", *_box_args(source), "--n", "1"])
    for w in BOUND_WEDGES:
        for n in range(1, 8):
            argvs.append(["bound", "--wedge", w, "--n", str(n), "--cache", "{cache}"])
    argvs.append(["bound", "--wedge", "0,0", "--n", "3", "--cache", "{cache}"])
    grids = [(w, range(1, 7)) for w in GRID_WEDGES] + GRID_EXTRA
    for w, ns in grids:
        for n in ns:
            grid = ["grid", "--wedge", w, "--n", str(n), "--cache", "{cache}"]
            argvs += [grid, grid + ["--approx"], grid + ["--format", "json"]]
    # the benchmark's warm round: decompose on its random boxes, bound on
    # its criterion-6 boxes at n = 8, the n = 2 search on wedge(1/2, 0)
    names = list(_reference_boxes())
    argvs += [["decompose", "--box", f"{{tmp}}/{name}"]
              for name in names if name.startswith("ref_")]
    argvs += [["bound", "--box", f"{{tmp}}/{name}", "--n", "8", "--long-run",
               "--cache", "{cache}"] for name in names if name.startswith("c6_")]
    argvs.append(["search", "--wedge", "1/2,0", "--n", "2", "--long-run"])
    argvs += [["decompose", "--box", "{tmp}/uniform.json"],
              ["bound", "--box", "{tmp}/uniform.json", "--n", "3"]]
    argvs += [
        # exit 2: invalid boxes
        ["validate", "--box", "{tmp}/signaling.json"],
        ["nl", "--box", "{tmp}/signaling.json"],
        ["bound", "--box", "{tmp}/signaling.json", "--n", "2"],
        ["nl", "--box", "{tmp}/zero_den.json"],
        *[[command, "--box", f"{{tmp}}/{name}"] for name in
          ("strings.json", "extras.json", "bools.json") for command in ("validate", "decompose")],
        # exit 3: infeasible parameters and usage errors
        ["nl", "--wedge", "3/4,1/2"],
        ["nl", "--wedge", "nonsense"],
        ["nl"],
        ["bound", "--wedge", "1/5,0", "--n", "0"],
        ["bound", "--wedge", "1/5,0", "--n", "8"],
        ["bound", "--wedge", "1/5,0", "--n", "2", "--format", "csv"],
        ["grid", "--wedge", "1/5,1/5", "--n", "2"],
        ["grid", "--wedge", "1/5,0", "--n", "2", "--approx", "--format", "json"],
        ["search", "--wedge", "1/5,0", "--n", "3"],
        ["search", "--wedge", "1/5,0", "--n", "2"],
        ["tables", "--wedge", "0,0", "--n", "2", "--cache", "{cache}"],
        # exit 4: I/O failures
        ["nl", "--box", "{tmp}/missing.json"],
        ["nl", "--wedge", "1/5,0", "--out", "{tmp}/no_such_dir/out.txt"],
    ]
    return argvs


def longrun_argvs() -> list[list[str]]:
    """``bound --long-run`` at n = 8, two at n = 9, where the level fill
    dominates (p = 2/5 and the odd den(p) of p = 3/7), and the json grids at
    n = 7, the largest payload of the grid emitter (object dtype on
    3/1000,0)."""
    argvs = [["bound", "--wedge", w, "--n", "8", "--long-run", "--cache", "{cache}"]
             for w in BOUND_WEDGES]
    argvs += [["bound", "--wedge", w, "--n", "9", "--long-run", "--cache", "{cache}"]
              for w in ("1/5,0", "2/7,1/7")]
    argvs += [["grid", "--wedge", w, "--n", "7", "--format", "json", "--cache", "{cache}"]
              for w in GRID_WEDGES + ["3/1000,0"]]
    return argvs


def write_box_files(tmp: Path) -> None:
    for name, make in BOX_FILES.items():
        (tmp / name).write_text(make())
    for name, box in _reference_boxes().items():
        (tmp / name).write_text(json.dumps(box))


def replay(argv: list[str], tmp: Path, cache: Path) -> tuple[int, str]:
    """(exit code, sha256 of stdout) of one in-process CLI run; stderr is
    dropped."""
    args = [a.replace("{tmp}", str(tmp)).replace("{cache}", str(cache)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def generate(argvs: list[list[str]]) -> list[dict]:
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_box_files(tmp)
        entries = []
        for argv in argvs:
            code, digest = replay(argv, tmp, tmp / "cache")
            entries.append({"argv": argv, "exit": code, "stdout_sha256": digest})
    return entries


if __name__ == "__main__":
    for path, argvs in ((CORPUS, corpus_argvs()), (LONGRUN_CORPUS, longrun_argvs())):
        entries = generate(argvs)
        path.write_text(json.dumps(entries, indent=1) + "\n")
        print(f"wrote {len(entries)} entries to {path}", file=sys.stderr)

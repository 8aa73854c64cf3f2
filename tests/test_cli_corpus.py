from __future__ import annotations

import json

import cli_corpus


def test_cli_stdout_matches_the_corpus_cold_then_warm(tmp_path):
    # every entry is replayed against a fresh table cache, then against the
    # cache the first pass filled; both must print the pinned bytes
    entries = json.loads(cli_corpus.CORPUS.read_text())
    assert [e["argv"] for e in entries] == cli_corpus.corpus_argvs()
    cli_corpus.write_box_files(tmp_path)
    cache = tmp_path / "cache"
    for phase in ("cold", "warm"):
        for entry in entries:
            got = cli_corpus.replay(entry["argv"], tmp_path, cache)
            assert got == (entry["exit"], entry["stdout_sha256"]), \
                (phase, " ".join(entry["argv"]))
    assert any(cache.iterdir())

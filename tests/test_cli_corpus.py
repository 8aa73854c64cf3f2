from __future__ import annotations

import json

import pytest

import cli_corpus


def _replay_cold_then_warm(corpus, argvs, tmp_path):
    # every entry is replayed against a fresh table cache, then against the
    # cache the first pass filled; both must print the pinned bytes
    entries = json.loads(corpus.read_text())
    assert [e["argv"] for e in entries] == argvs
    cli_corpus.write_box_files(tmp_path)
    cache = tmp_path / "cache"
    for phase in ("cold", "warm"):
        for entry in entries:
            got = cli_corpus.replay(entry["argv"], tmp_path, cache)
            assert got == (entry["exit"], entry["stdout_sha256"]), \
                (phase, " ".join(entry["argv"]))
    assert any(cache.iterdir())


def test_cli_stdout_matches_the_corpus_cold_then_warm(tmp_path):
    _replay_cold_then_warm(cli_corpus.CORPUS, cli_corpus.corpus_argvs(), tmp_path)


@pytest.mark.longrun
def test_cli_long_run_stdout_matches_the_corpus(tmp_path):
    _replay_cold_then_warm(cli_corpus.LONGRUN_CORPUS, cli_corpus.longrun_argvs(),
                           tmp_path)

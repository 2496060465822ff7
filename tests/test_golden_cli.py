"""The golden CLI corpus replays unchanged: see golden_cli.py."""
import json

from golden_cli import CORPUS, corpus_runs, replay


def test_corpus_replays_unchanged(tmp_path):
    runs = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert len(runs) >= 100
    for run in runs:
        assert replay(run["argv"], run["files"], str(tmp_path)) == run


def test_corpus_matches_its_generator():
    """The committed runs are the ones golden_cli.py generates today, so an
    edit to the generator that was never recorded fails here."""
    runs = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert [(run["argv"], run["files"]) for run in runs] == list(corpus_runs())

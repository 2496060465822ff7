"""The golden CLI corpus replays unchanged: see golden_cli.py."""
import json

from golden_cli import CORPUS, replay


def test_corpus_replays_unchanged(tmp_path):
    runs = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert len(runs) >= 100
    for run in runs:
        assert replay(run["argv"], run["files"], str(tmp_path)) == run

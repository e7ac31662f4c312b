"""``SweepJournal.compact`` and the ``repro journal compact`` CLI verb."""

import json
import os

from repro.cli import main
from repro.resilience import JournalEntry, SweepJournal


def entry(key: str, run_id: str = "r1", value: float = 0.5) -> JournalEntry:
    return JournalEntry(key=key, config_hash="c" * 64, run_id=run_id,
                        index=0, attempts=1, source="live",
                        measurements={"util": value})


class TestCompact:
    def test_keeps_last_entry_per_key(self, tmp_path):
        journal = SweepJournal(tmp_path / "journal.jsonl")
        journal.record(entry("k1", run_id="old", value=0.1))
        journal.record(entry("k2"))
        journal.record(entry("k1", run_id="new", value=0.9))
        assert journal.compact() == (2, 1)
        lines = journal.path.read_text().splitlines()
        assert len(lines) == 2
        assert journal.load()["k1"].run_id == "new"
        assert journal.load()["k1"].measurements == {"util": 0.9}

    def test_already_compact_is_a_no_op(self, tmp_path):
        journal = SweepJournal(tmp_path / "journal.jsonl")
        journal.record(entry("k1"))
        journal.record(entry("k2"))
        before = journal.path.read_text()
        assert journal.compact() == (2, 0)
        assert journal.path.read_text() == before

    def test_torn_tail_dropped(self, tmp_path):
        journal = SweepJournal(tmp_path / "journal.jsonl")
        journal.record(entry("k1"))
        journal.close()
        with journal.path.open("a") as handle:
            handle.write('{"v":1,"key":"k2","torn')  # crash mid-append
        assert journal.compact() == (1, 1)
        # Every surviving line parses; the torn bytes are gone.
        for line in journal.path.read_text().splitlines():
            json.loads(line)

    def test_missing_journal_is_zero_zero(self, tmp_path):
        assert SweepJournal(tmp_path / "absent.jsonl").compact() == (0, 0)
        assert not (tmp_path / "absent.jsonl").exists()

    def test_no_temp_file_left_behind(self, tmp_path):
        journal = SweepJournal(tmp_path / "journal.jsonl")
        journal.record(entry("k1"))
        journal.compact()
        assert [path.name for path in tmp_path.iterdir()] == ["journal.jsonl"]

    def test_compacted_journal_still_resumes(self, tmp_path):
        journal = SweepJournal(tmp_path / "journal.jsonl")
        journal.record(entry("k1", value=0.1))
        journal.record(entry("k1", value=0.7))
        journal.compact()
        # load() semantics are unchanged: same entries, fewer lines.
        reloaded = SweepJournal(journal.path).load()
        assert reloaded["k1"].measurements == {"util": 0.7}

    def test_compact_is_reopenable_for_append(self, tmp_path):
        journal = SweepJournal(tmp_path / "journal.jsonl")
        journal.record(entry("k1"))
        journal.compact()
        journal.record(entry("k2"))
        journal.close()
        assert set(journal.load()) == {"k1", "k2"}


class TestCLI:
    def test_verb_reports_counts(self, tmp_path, capsys):
        path = tmp_path / "journal.jsonl"
        journal = SweepJournal(path)
        journal.record(entry("k1", value=0.1))
        journal.record(entry("k1", value=0.2))
        journal.close()
        assert main(["journal", "compact", str(path)]) == 0
        out = capsys.readouterr().out
        assert "kept 1" in out and "dropped 1" in out

    def test_missing_journal_is_clean_error(self, tmp_path, capsys):
        assert main(["journal", "compact", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

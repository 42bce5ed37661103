"""The crash-safe sweep journal: append, restore, tolerate torn tails.

The journal's one promise: whatever was fsync'd before a crash comes
back on restore, a partially-written final record disappears silently,
and a journal written by different code matches nothing (tokens bake
in the code version).
"""

import pickle
import struct
import zlib

import pytest

from repro.exec import SweepJournal, journal_path
from repro.exec.cache import stable_token
from repro.exec.journal import active_journal, set_active_journal


@pytest.fixture(autouse=True)
def no_active_journal():
    yield
    set_active_journal(None)


def journal_at(tmp_path):
    return SweepJournal(tmp_path / "run.journal")


class TestRoundTrip:
    def test_append_then_restore(self, tmp_path):
        journal = journal_at(tmp_path)
        assert journal.open() == 0
        journal.append("tok-a", {"value": 1})
        journal.append("tok-b", {"value": 2})
        journal.close()

        again = journal_at(tmp_path)
        assert again.open() == 2
        assert again.get("tok-a") == {"value": 1}
        assert again.get("tok-b") == {"value": 2}
        assert again.get("tok-missing") is None
        again.close()

    def test_append_dedupes_by_token(self, tmp_path):
        journal = journal_at(tmp_path)
        journal.open()
        journal.append("tok", "first")
        journal.append("tok", "second wins nothing")
        journal.close()
        size_after_two = journal.path.stat().st_size

        again = journal_at(tmp_path)
        assert again.open() == 1
        assert again.get("tok") == "first"
        again.append("tok", "still nothing")
        again.close()
        assert journal.path.stat().st_size == size_after_two

    def test_len_tracks_entries(self, tmp_path):
        journal = journal_at(tmp_path)
        journal.open()
        assert len(journal) == 0
        journal.append("a", 1)
        journal.append("b", 2)
        assert len(journal) == 2
        journal.close()

    def test_discard_removes_the_sidecar(self, tmp_path):
        journal = journal_at(tmp_path)
        journal.open()
        journal.append("a", 1)
        journal.discard()
        assert not journal.path.exists()
        journal.discard()  # idempotent


class TestTornTail:
    def fill(self, tmp_path, n=3):
        journal = journal_at(tmp_path)
        journal.open()
        for index in range(n):
            journal.append(f"tok-{index}", {"index": index})
        journal.close()
        return journal.path

    @pytest.mark.parametrize("torn_bytes", [1, 3, 7])
    def test_truncated_final_record_is_dropped(self, tmp_path, torn_bytes):
        path = self.fill(tmp_path)
        whole = path.stat().st_size
        with path.open("r+b") as handle:
            handle.truncate(whole - torn_bytes)

        journal = journal_at(tmp_path)
        assert journal.open() == 2  # the first two records survive
        assert journal.get("tok-2") is None
        # The torn bytes were cut away: appends go after intact data.
        journal.append("tok-2", {"index": 2})
        journal.close()

        final = journal_at(tmp_path)
        assert final.open() == 3
        final.close()

    def test_corrupt_crc_stops_the_restore(self, tmp_path):
        path = self.fill(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # damage the last record's body
        path.write_bytes(bytes(data))
        journal = journal_at(tmp_path)
        assert journal.open() == 2
        journal.close()

    def test_oversized_length_prefix_is_not_trusted(self, tmp_path):
        path = tmp_path / "run.journal"
        body = pickle.dumps(("tok", "v"))
        path.write_bytes(
            struct.pack("<II", 2**31, zlib.crc32(body)) + body
        )
        journal = SweepJournal(path)
        assert journal.open() == 0
        journal.close()

    def test_garbage_body_is_not_trusted(self, tmp_path):
        path = tmp_path / "run.journal"
        body = b"\x80garbage that does not unpickle"
        path.write_bytes(
            struct.pack("<II", len(body), zlib.crc32(body)) + body
        )
        journal = SweepJournal(path)
        assert journal.open() == 0
        journal.close()

    def test_append_is_durable_before_close(self, tmp_path):
        # A SIGKILL'd process never calls close(); what append()
        # returned from must already be on disk.  Re-read the file via
        # a second handle without closing the first.
        journal = journal_at(tmp_path)
        journal.open()
        journal.append("tok", {"survives": True})
        raw = journal.path.read_bytes()
        length, crc = struct.unpack_from("<II", raw)
        body = raw[8:8 + length]
        assert zlib.crc32(body) == crc
        assert pickle.loads(body) == ("tok", {"survives": True})
        journal.close()


class TestJournalPath:
    def test_stable_for_same_run_identity(self, tmp_path):
        a = journal_path(tmp_path, "figure4", 2, 0)
        b = journal_path(tmp_path, "figure4", 2, 0)
        assert a == b
        assert a.name.endswith(".journal")

    def test_distinct_for_different_runs(self, tmp_path):
        assert journal_path(tmp_path, "figure4", 2, 0) != \
            journal_path(tmp_path, "figure4", 2, 1)
        assert journal_path(tmp_path, "figure4", 2, 0) != \
            journal_path(tmp_path, "figure9", 2, 0)

    def test_token_bakes_in_code_version(self, monkeypatch):
        # A journal from different code must match nothing; the token
        # function underneath guarantees that by hashing the version.
        from repro.exec import cache as cache_module

        before = stable_token("journal", "figure4", 2, 0)
        monkeypatch.setattr(
            cache_module, "code_version", lambda: "other-version"
        )
        assert stable_token("journal", "figure4", 2, 0) != before


class TestActiveJournal:
    def test_install_and_clear(self, tmp_path):
        assert active_journal() is None
        journal = journal_at(tmp_path)
        set_active_journal(journal)
        assert active_journal() is journal
        set_active_journal(None)
        assert active_journal() is None

    def test_executor_consults_the_active_journal(self, tmp_path):
        # A journalled value short-circuits execution: feed the journal
        # a fake result for a job's token, run the executor, and the
        # fake comes back — proof the resume path serves from disk.
        from repro.core.config import Mode, Pattern
        from repro.core.sweep import SweepSpec
        from repro.exec.executor import Executor, _token_of

        plan = SweepSpec(
            processors=("CD",), infras=("pc",),
            patterns=(Pattern.START_READ,), modes=(Mode.USER,),
            repeats=1, base_seed=0, io_interrupts=False,
        ).plan()
        jobs = list(plan)
        journal = journal_at(tmp_path)
        journal.open()
        journal.append(_token_of(jobs[0]), "journalled-result")
        set_active_journal(journal)
        try:
            results = Executor(cache=None).map(jobs)
        finally:
            set_active_journal(None)
            journal.close()
        assert results[0] == "journalled-result"
        # The remaining jobs were computed and journalled as they
        # completed — a crash after this point restores all of them.
        assert len(journal) == len(jobs)

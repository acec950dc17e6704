"""Units for the admission-control building blocks."""

import json
import threading

import pytest

from repro.service.queue import (
    AdmissionError,
    BadRequest,
    BoundedJobQueue,
    Draining,
    FairShareBuckets,
    JobJournal,
    QueueFull,
    RateLimited,
)


class TestErrorContract:
    def test_statuses_match_http_semantics(self):
        assert BadRequest("x").status == 400
        assert QueueFull("x").status == 429
        assert RateLimited("x").status == 429
        assert Draining("x").status == 503
        assert AdmissionError("x").status == 503

    def test_retry_after_rides_along(self):
        exc = QueueFull("full", retry_after=2.5)
        assert exc.retry_after == 2.5
        assert AdmissionError("x").retry_after is None


class TestBoundedJobQueue:
    def test_fifo_within_a_priority(self):
        q = BoundedJobQueue(8)
        for item in "abc":
            assert q.push(0, item)
        assert [q.pop(), q.pop(), q.pop()] == ["a", "b", "c"]

    def test_higher_priority_pops_first(self):
        q = BoundedJobQueue(8)
        q.push(0, "low")
        q.push(5, "high")
        q.push(1, "mid")
        assert [q.pop(), q.pop(), q.pop()] == ["high", "mid", "low"]

    def test_full_queue_rejects_instead_of_blocking(self):
        q = BoundedJobQueue(2)
        assert q.push(0, "a") and q.push(0, "b")
        assert not q.push(0, "c")
        assert len(q) == 2

    def test_force_push_ignores_the_bound(self):
        q = BoundedJobQueue(1)
        q.push(0, "a")
        assert q.push(0, "resumed", force=True)
        assert len(q) == 2

    def test_pop_times_out_empty(self):
        assert BoundedJobQueue(1).pop(timeout=0.01) is None

    def test_pop_wakes_on_push(self):
        q = BoundedJobQueue(4)
        got = []
        thread = threading.Thread(target=lambda: got.append(q.pop(timeout=5.0)))
        thread.start()
        q.push(0, "item")
        thread.join(5.0)
        assert got == ["item"]

    def test_drain_empties_atomically_in_pop_order(self):
        q = BoundedJobQueue(8)
        q.push(0, "low")
        q.push(9, "high")
        assert q.drain() == ["high", "low"]
        assert len(q) == 0

    def test_remove_frees_the_slot_and_keeps_pop_order(self):
        q = BoundedJobQueue(3)
        for priority, item in ((0, "low"), (9, "high"), (5, "mid")):
            q.push(priority, item)
        q.remove("high")
        q.remove("absent")
        assert q.push(0, "later")
        assert q.drain() == ["mid", "low", "later"]

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError, match="depth"):
            BoundedJobQueue(0)


class TestFairShareBuckets:
    def make(self, rate=1.0, burst=2.0):
        clock = [0.0]
        buckets = FairShareBuckets(rate, burst, clock=lambda: clock[0])
        return buckets, clock

    def test_burst_admits_then_rejects(self):
        buckets, _ = self.make()
        assert buckets.try_acquire("a") == 0.0
        assert buckets.try_acquire("a") == 0.0
        assert buckets.try_acquire("a") > 0.0

    def test_rejection_names_the_wait(self):
        buckets, clock = self.make(rate=2.0, burst=1.0)
        assert buckets.try_acquire("a") == 0.0
        wait = buckets.try_acquire("a")
        assert wait == pytest.approx(0.5)
        clock[0] += wait
        assert buckets.try_acquire("a") == 0.0

    def test_clients_do_not_share_buckets(self):
        buckets, _ = self.make(rate=1.0, burst=1.0)
        assert buckets.try_acquire("chatty") == 0.0
        assert buckets.try_acquire("chatty") > 0.0
        assert buckets.try_acquire("quiet") == 0.0

    def test_tokens_cap_at_burst(self):
        buckets, clock = self.make(rate=100.0, burst=2.0)
        clock[0] = 1000.0  # a long idle must not bank unlimited tokens
        assert buckets.try_acquire("a") == 0.0
        assert buckets.try_acquire("a") == 0.0
        assert buckets.try_acquire("a") > 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            FairShareBuckets(0.0, 1.0)
        with pytest.raises(ValueError):
            FairShareBuckets(1.0, 0.5)


class TestJobJournal:
    def test_pending_is_accepts_minus_dones(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        journal.record_accept("a", {"source": "x"})
        journal.record_accept("b", {"source": "y"}, client="c1", priority=3)
        journal.record_done("a")
        pending = journal.pending()
        assert [e["id"] for e in pending] == ["b"]
        assert pending[0]["payload"] == {"source": "y"}
        assert pending[0]["client"] == "c1"
        assert pending[0]["priority"] == 3

    def test_missing_file_reads_empty(self, tmp_path):
        journal = JobJournal(tmp_path / "nope.jsonl")
        assert journal.pending() == []

    def test_torn_trailing_line_is_ignored(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        journal.record_accept("a", {})
        with path.open("a") as fh:
            fh.write('{"op": "accept", "id": "b"')  # crash mid-append
        assert [e["id"] for e in journal.pending()] == ["a"]

    def test_compact_drops_settled_pairs(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        for job_id in ("a", "b", "c"):
            journal.record_accept(job_id, {"n": job_id})
        journal.record_done("a")
        journal.record_done("c")
        assert journal.compact() == 1
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [(e["op"], e["id"]) for e in lines] == [("accept", "b")]
        # pending is unchanged by compaction
        assert [e["id"] for e in journal.pending()] == ["b"]

    def test_concurrent_appends_never_tear(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")

        def spam(prefix):
            for n in range(50):
                journal.record_accept(f"{prefix}-{n}", {"n": n})

        threads = [threading.Thread(target=spam, args=(p,)) for p in "abcd"]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(journal.pending()) == 200

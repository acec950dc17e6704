"""Shared property suite over every :class:`CacheStore` backend.

The policy layer (:class:`StageCache`) is backend-agnostic, so the
backends must be interchangeable: one suite, parametrized over
filesystem and SQLite, pins the
contract documented on the protocol — round-trip fidelity,
miss-is-None, quarantine-on-corruption (SA501 accounting), exactly-once
quarantine under a race, and write atomicity under concurrent writers.
"""

import json
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.pipeline.cache import (
    CacheStore,
    FilesystemStore,
    SqliteStore,
    StageCache,
)

#: stage/key alphabet every backend must serve (filesystem uses them as
#: path components); real keys are hex digests.
NAMES = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=32
)
PAYLOADS = st.text(max_size=400)

BACKENDS = ("filesystem", "sqlite")


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    """A fresh backend of each kind."""
    if request.param == "filesystem":
        yield FilesystemStore(tmp_path / "fs")
    else:
        backend = SqliteStore(tmp_path / "cache.db")
        yield backend
        backend.close()


class TestProtocol:
    def test_every_backend_satisfies_the_protocol(self, store):
        assert isinstance(store, CacheStore)
        assert isinstance(store.kind, str) and store.kind
        assert isinstance(store.describe(), str) and store.describe()


class TestRoundTrip:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(stage=NAMES, key=NAMES, text=PAYLOADS)
    def test_write_then_read_is_identity(self, store, stage, key, text):
        store.write(stage, key, text)
        assert store.read(stage, key) == text

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(stage=NAMES, key=NAMES, first=PAYLOADS, second=PAYLOADS)
    def test_overwrite_last_writer_wins(self, store, stage, key, first, second):
        store.write(stage, key, first)
        store.write(stage, key, second)
        assert store.read(stage, key) == second

    def test_missing_entry_reads_none(self, store):
        assert store.read("stage", "absent" * 8) is None

    def test_entries_are_isolated_by_stage_and_key(self, store):
        store.write("a", "k", "one")
        store.write("b", "k", "two")
        store.write("a", "j", "three")
        assert store.read("a", "k") == "one"
        assert store.read("b", "k") == "two"
        assert store.read("a", "j") == "three"

    def test_purge_removes_live_entries_and_counts_them(self, store):
        for i in range(5):
            store.write("stage", f"k{i}", str(i))
        assert store.purge() == 5
        assert all(store.read("stage", f"k{i}") is None for i in range(5))
        assert store.purge() == 0


class TestQuarantine:
    def test_quarantine_removes_the_entry_and_returns_a_token(self, store):
        store.write("stage", "bad", "{truncated")
        token = store.quarantine("stage", "bad")
        assert token is not None
        assert store.read("stage", "bad") is None

    def test_quarantine_of_a_missing_entry_is_none(self, store):
        assert store.quarantine("stage", "never-written") is None

    def test_quarantined_entry_survives_purge(self, store):
        store.write("stage", "bad", "{truncated")
        store.write("stage", "good", "{}")
        assert store.quarantine("stage", "bad") is not None
        assert store.purge() == 1  # only the live entry
        assert store.read("stage", "good") is None

    def test_concurrent_quarantine_wins_exactly_once(self, store):
        store.write("stage", "contested", "{truncated")
        barrier = threading.Barrier(4)
        wins: list[object] = []
        lock = threading.Lock()

        def mover() -> None:
            barrier.wait()
            token = store.quarantine("stage", "contested")
            if token is not None:
                with lock:
                    wins.append(token)

        threads = [threading.Thread(target=mover) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        assert store.read("stage", "contested") is None

    def test_corrupt_entry_is_quarantined_through_the_policy_layer(self, store):
        """SA501 path: StageCache sees garbage, quarantines it, reports a
        miss — identically through every backend."""
        cache = StageCache(store=store)
        key = cache.key_for("stage", {"n": 1})
        cache.put("stage", key, {"answer": 42})
        store.write("stage", key, "{truncated")
        assert cache.get("stage", key) is None
        assert cache.quarantined == 1
        assert store.read("stage", key) is None  # moved aside, not served


class TestConcurrentWriters:
    def test_racing_writers_never_tear_a_payload(self, store):
        """Readers must observe one writer's complete payload, never an
        interleaving — the protocol's atomicity clause."""
        payloads = [json.dumps({"writer": i, "fill": chr(97 + i) * 200}) for i in range(6)]
        barrier = threading.Barrier(6)
        errors: list[BaseException] = []

        def writer(text: str) -> None:
            try:
                barrier.wait()
                for _ in range(8):
                    store.write("stage", "hot", text)
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
        for t in threads:
            t.start()
        final = None
        for t in threads:
            t.join()
        final = store.read("stage", "hot")
        assert not errors
        assert final in payloads  # exactly one payload, intact

    def test_stage_cache_round_trips_dict_payloads(self, store):
        cache = StageCache(store=store)
        payload = {"design": [1, 2, 3], "metrics": {"lat": 0.5}}
        key = cache.key_for("dse", {"cfg": "x"})
        cache.put("dse", key, payload)
        assert cache.get("dse", key) == payload
        assert cache.hits == 1

"""Unit tests for the serve layer's ring and wire protocol."""

from collections import Counter
from datetime import datetime

import pytest

from repro.audit.model import LogEntry, Status
from repro.policy.model import ObjectRef
from repro.serve import (
    ConsistentHashRing,
    ProtocolError,
    decode_message,
    encode_message,
    entry_from_message,
    entry_to_message,
)


class TestConsistentHashRing:
    def test_deterministic_across_instances(self):
        a = ConsistentHashRing(["s0", "s1", "s2"])
        b = ConsistentHashRing(["s0", "s1", "s2"])
        for i in range(200):
            key = f"HT-{i}"
            assert a.shard_for(key) == b.shard_for(key)

    def test_shard_order_is_irrelevant(self):
        a = ConsistentHashRing(["s0", "s1", "s2"])
        b = ConsistentHashRing(["s2", "s0", "s1"])
        assert all(
            a.shard_for(f"case-{i}") == b.shard_for(f"case-{i}")
            for i in range(100)
        )

    def test_every_shard_gets_work(self):
        ring = ConsistentHashRing([f"s{i}" for i in range(4)])
        owners = Counter(ring.shard_for(f"HT-{i}") for i in range(1000))
        assert set(owners) == {"s0", "s1", "s2", "s3"}
        # 64 virtual nodes keep the imbalance moderate.
        assert max(owners.values()) < 3 * min(owners.values())

    def test_removal_moves_only_the_lost_shards_keys(self):
        ring = ConsistentHashRing(["s0", "s1", "s2", "s3"])
        before = {f"c{i}": ring.shard_for(f"c{i}") for i in range(500)}
        ring.remove_shard("s3")
        for key, owner in before.items():
            if owner != "s3":
                assert ring.shard_for(key) == owner, key

    def test_single_shard_owns_everything(self):
        ring = ConsistentHashRing(["only"])
        assert ring.shard_for("anything") == "only"
        assert len(ring) == 1

    def test_rejects_bad_configurations(self):
        with pytest.raises(ValueError):
            ConsistentHashRing([])
        with pytest.raises(ValueError):
            ConsistentHashRing(["a"], replicas=0)
        ring = ConsistentHashRing(["a"])
        with pytest.raises(ValueError):
            ring.add_shard("a")
        with pytest.raises(ValueError):
            ring.remove_shard("ghost")


def _entry(**overrides) -> LogEntry:
    values = dict(
        user="Mary",
        role="GP",
        action="execute",
        obj=ObjectRef.parse("/hospital/patients/Pietro"),
        task="T01",
        case="HT-1",
        timestamp=datetime(2010, 3, 1, 10, 5),
        status=Status.SUCCESS,
    )
    values.update(overrides)
    return LogEntry(**values)


class TestWireProtocol:
    def test_entry_round_trips(self):
        entry = _entry()
        message = decode_message(encode_message(entry_to_message(entry)))
        assert entry_from_message(message) == entry

    def test_entry_without_object_round_trips(self):
        entry = _entry(obj=None)
        assert entry_from_message(entry_to_message(entry)) == entry

    def test_paper_timestamp_format_is_accepted(self):
        message = entry_to_message(_entry())
        message["ts"] = "201003011005"
        assert entry_from_message(message).timestamp == datetime(
            2010, 3, 1, 10, 5
        )

    def test_failure_status(self):
        message = entry_to_message(_entry(status=Status.FAILURE))
        assert entry_from_message(message).status is Status.FAILURE

    def test_missing_fields_are_named(self):
        message = entry_to_message(_entry())
        del message["task"]
        message["case"] = ""
        with pytest.raises(ProtocolError, match="task, case"):
            entry_from_message(message)

    @pytest.mark.parametrize(
        "line",
        [b"\xff\xfe garbage", b"not json", b"[1, 2, 3]", b'"just a string"'],
    )
    def test_junk_lines_raise_protocol_error(self, line):
        with pytest.raises(ProtocolError):
            decode_message(line)

    def test_bad_timestamp_raises(self):
        message = entry_to_message(_entry())
        message["ts"] = "yesterday-ish"
        with pytest.raises(ProtocolError, match="yesterday-ish"):
            entry_from_message(message)

    def test_entries_naming_one_object_share_its_reference(self):
        first = entry_from_message(entry_to_message(_entry()))
        second = entry_from_message(
            entry_to_message(_entry(case="HT-2", task="T02"))
        )
        assert first.obj == ObjectRef.parse("/hospital/patients/Pietro")
        assert second.obj is first.obj

    @pytest.mark.parametrize("obj", ["[Jane", "[Jane]", ["a"], 7])
    def test_bad_object_raises_protocol_error(self, obj):
        message = entry_to_message(_entry())
        message["obj"] = obj
        for _ in range(2):  # a failed parse is never cached
            with pytest.raises(ProtocolError, match="bad object reference"):
                entry_from_message(message)

    def test_bad_status_raises(self):
        message = entry_to_message(_entry())
        message["status"] = "maybe"
        with pytest.raises(ProtocolError, match="maybe"):
            entry_from_message(message)

"""The wire protocol: framing, option/outcome documents, guard rails."""

import asyncio
import dataclasses
import socket
import struct
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.broker.options import Degradation, QueryOptions
from repro.broker.query import QueryOutcome, QueryStats, Verdict
from repro.broker.relational import AttributeFilter
from repro.dist import protocol
from repro.errors import BrokerError, ProtocolError
from repro.ltl.parser import parse


class TestFraming:
    def test_encode_decode_round_trip(self):
        doc = {"op": "ping", "n": 3, "nested": {"a": [1, 2]}}
        frame = protocol.encode_frame(doc)
        length = struct.unpack(">I", frame[:4])[0]
        assert length == len(frame) - 4
        assert protocol.decode_payload(frame[4:]) == doc

    def test_socket_round_trip(self):
        server, client = socket.socketpair()
        try:
            received = []

            def consume():
                received.append(protocol.recv_frame(server))
                received.append(protocol.recv_frame(server))

            thread = threading.Thread(target=consume)
            thread.start()
            protocol.send_frame(client, {"op": "ping"})
            protocol.send_frame(client, {"op": "status", "x": "y" * 5000})
            thread.join(timeout=5)
            assert received == [
                {"op": "ping"}, {"op": "status", "x": "y" * 5000},
            ]
        finally:
            server.close()
            client.close()

    def test_clean_eof_is_none(self):
        server, client = socket.socketpair()
        client.close()
        try:
            assert protocol.recv_frame(server) is None
        finally:
            server.close()

    def test_truncated_frame_raises(self):
        server, client = socket.socketpair()
        try:
            frame = protocol.encode_frame({"op": "ping"})
            client.sendall(frame[: len(frame) - 2])
            client.close()
            with pytest.raises(ProtocolError):
                protocol.recv_frame(server)
        finally:
            server.close()

    def test_oversized_length_rejected(self):
        with pytest.raises(ProtocolError):
            protocol._parse_length(
                struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
            )

    def test_non_json_payload_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_payload(b"\xff\xfe not json")
        with pytest.raises(ProtocolError):
            protocol.decode_payload(b"[1, 2]")  # not an object

    def test_unserializable_frame_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.encode_frame({"op": object()})


def _framed(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


_VALID = protocol.encode_frame({"op": "query", "query": "F(a && F b)"})

#: ``(id, bytes on the wire)``: none of them is one well-formed frame
HOSTILE_FRAMES = [
    *(pytest.param(_VALID[:cut], id=f"truncated-at-{cut}")
      for cut in range(1, len(_VALID))),
    pytest.param(
        struct.pack(">I", protocol.MAX_FRAME_BYTES + 1) + b"{}",
        id="oversize-length-prefix",
    ),
    pytest.param(_framed(b"[" * 100_000 + b"]" * 100_000),
                 id="array-100000-deep"),
    pytest.param(_framed(b'{"n": ' + b"7" * 5_000 + b"}"),
                 id="integer-5000-digits"),
    pytest.param(_framed(b"\xef\xbb\xbf" + b'{"op": "ping"}'), id="bom"),
    pytest.param(_framed(b'{"op": "\xff\xfe"}'), id="invalid-utf8"),
    pytest.param(_framed(b"[1, 2]"), id="array-payload"),
    pytest.param(_framed(b'"ping"'), id="string-payload"),
    pytest.param(_framed(b"null"), id="null-payload"),
]


class TestHostileFrames:
    """ROADMAP 6(c), the wire: whatever bytes arrive, both readers end in
    a ``ProtocolError`` — never a traceback of another type."""

    @pytest.mark.parametrize("raw", HOSTILE_FRAMES)
    def test_recv_frame_raises_protocol_error(self, raw):
        server, client = socket.socketpair()
        writer = threading.Thread(
            target=lambda: (client.sendall(raw), client.close())
        )
        writer.start()
        try:
            with pytest.raises(ProtocolError):
                protocol.recv_frame(server)
        finally:
            writer.join(timeout=10)
            server.close()

    @pytest.mark.parametrize("raw", HOSTILE_FRAMES)
    def test_read_frame_raises_protocol_error(self, raw):
        async def read():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            return await protocol.read_frame(reader)

        with pytest.raises(ProtocolError):
            asyncio.run(read())


#: Query requests as 13.0.0 framed them, byte for byte: the options
#: codec may change how a document is built, never what crosses the wire.
RECORDED_FRAMES = {
    "defaults": (
        QueryOptions(),
        b'\x00\x00\x00%{"op":"query_many","queries":["F a"]}'),
    "filter": (
        QueryOptions(attribute_filter=AttributeFilter.from_list(
            [["price", "<=", 500], ["route", "in", ["SAN-NYC", "SFO-LAX"]]])),
        b'\x00\x00\x00h{"filter":[["price","<=",500],["route","in",'
        b'["SAN-NYC","SFO-LAX"]]],"op":"query_many","queries":["F a"]}'),
    "deadline": (
        QueryOptions(deadline_seconds=0.25),
        b'\x00\x00\x00I{"op":"query_many","options":'
        b'{"deadline_seconds":0.25},"queries":["F a"]}'),
    "zero-deadline": (
        QueryOptions(deadline_seconds=0),
        b'\x00\x00\x00F{"op":"query_many","options":'
        b'{"deadline_seconds":0},"queries":["F a"]}'),
    "step-budget": (
        QueryOptions(step_budget=64),
        b'\x00\x00\x00B{"op":"query_many","options":{"step_budget":64},'
        b'"queries":["F a"]}'),
    "drop": (
        QueryOptions(degradation=Degradation.DROP),
        b'\x00\x00\x00F{"op":"query_many","options":'
        b'{"degradation":"drop"},"queries":["F a"]}'),
    "everything": (
        QueryOptions(
            attribute_filter=AttributeFilter.from_list(
                [["tier", "==", "gold"]]),
            deadline_seconds=1.5, step_budget=7,
            degradation=Degradation.FAIL),
        b'\x00\x00\x00\x8d{"filter":[["tier","==","gold"]],'
        b'"op":"query_many","options":{"deadline_seconds":1.5,'
        b'"degradation":"fail","step_budget":7},"queries":["F a"]}'),
}


class TestOptionDocs:
    @pytest.mark.parametrize("name", RECORDED_FRAMES)
    def test_request_frames_are_the_recorded_bytes(self, name):
        options, frame = RECORDED_FRAMES[name]
        doc = {"op": "query_many", "queries": ["F a"],
               **protocol.options_to_doc(options)}
        assert protocol.encode_frame(doc) == frame
        assert protocol.options_from_doc(
            protocol.decode_payload(frame[4:])) == options

    def test_round_trip_non_defaults(self):
        options = QueryOptions(
            attribute_filter=AttributeFilter.from_list(
                [["price", "<=", 500], ["route", "==", "SAN-NYC"]]
            ),
            deadline_seconds=0.5,
            step_budget=64,
            degradation=Degradation.DROP,
        )
        doc = protocol.options_to_doc(options)
        rebuilt = protocol.options_from_doc(doc)
        assert rebuilt == options

    def test_defaults_round_trip_empty_doc(self):
        doc = protocol.options_to_doc(QueryOptions())
        assert doc == {}
        assert protocol.options_from_doc(doc) == QueryOptions()

    def test_explain_cannot_cross_the_wire(self):
        with pytest.raises(ProtocolError):
            protocol.options_to_doc(QueryOptions(explain=True))

    def test_contract_ids_cannot_cross_the_wire(self):
        with pytest.raises(ProtocolError):
            protocol.options_to_doc(QueryOptions(contract_ids=(1, 2)))

    def test_pinned_plan_cannot_cross_the_wire(self):
        from repro.broker.planner import SCAN_PLAN

        with pytest.raises(ProtocolError, match="shards plan for themselves"):
            protocol.options_to_doc(QueryOptions(plan=SCAN_PLAN))

    def test_options_doc_from_a_2_x_coordinator_decodes(self):
        """2.x coordinators forward ``use_planner: true`` for planned
        queries; it names the only path 3.0 has."""
        rebuilt = protocol.options_from_doc({
            "options": {"use_planner": True, "step_budget": 64},
            "filter": [["price", "<=", 500]],
        })
        assert rebuilt == QueryOptions(
            attribute_filter=AttributeFilter.from_list(
                [["price", "<=", 500]]
            ),
            step_budget=64,
        )
        with pytest.raises(BrokerError, match="use_prefilter"):
            protocol.options_from_doc(
                {"options": {"use_prefilter": False}}
            )

    def test_options_doc_with_a_removed_4_0_key_is_refused(self):
        """A 3.x coordinator forwarding one of these gets a named
        error back, not an answer computed without it."""
        for key, value in (
            ("workers", 2),
            ("contract_deadline_seconds", 0.5),
            ("budget_check_interval", 16),
        ):
            with pytest.raises(BrokerError, match=key) as excinfo:
                protocol.options_from_doc({"options": {key: value}})
            assert "CHANGELOG" in str(excinfo.value)


class TestOutcomeDocs:
    def _outcome(self):
        return QueryOutcome(
            formula=parse("F a"),
            contract_ids=(1, 3),
            contract_names=("alpha", "gamma"),
            stats=QueryStats(candidates=4, checked=3, permitted=2,
                             timed_out=1, degraded=True,
                             database_size=5),
            verdicts={
                1: Verdict.PERMITTED,
                2: Verdict.NOT_PERMITTED,
                3: Verdict.PERMITTED,
                4: Verdict.TIMED_OUT,
            },
            maybe_ids=(4,),
            maybe_names=("delta",),
        )

    def test_doc_carries_names_and_verdicts(self):
        doc = protocol.outcome_to_doc(
            self._outcome(), {2: "beta"}
        )
        assert doc["permitted"] == ["alpha", "gamma"]
        assert doc["maybe"] == ["delta"]
        assert doc["verdicts"] == {
            "alpha": Verdict.PERMITTED.value,
            "beta": Verdict.NOT_PERMITTED.value,
            "gamma": Verdict.PERMITTED.value,
            "delta": Verdict.TIMED_OUT.value,
        }
        stats = protocol.stats_from_doc(doc["stats"])
        assert stats.candidates == 4
        assert stats.degraded is True
        assert doc["formula"] == str(parse("F a"))

    def test_stats_frame_from_a_pre_2_0_shard_decodes(self):
        """1.6–1.10 shards put ``used_encoded`` in every stats frame,
        and every shard up to 2.0 ``planned``; neither carries the
        prefilter stage counts, which then read as "stage not run".
        Those shards sent every field, so the frame is built in full."""
        doc = dataclasses.asdict(self._outcome().stats)
        doc["used_encoded"] = True
        doc["planned"] = True
        del doc["prefilter_input"]
        del doc["prefilter_output"]
        stats = protocol.stats_from_doc(doc)
        assert not hasattr(stats, "used_encoded")
        assert not hasattr(stats, "planned")
        assert stats.pruning_ratio == 0.0
        assert stats.candidates == 4
        assert stats.database_size == 5

    def test_a_full_stats_doc_decodes_to_the_same_stats(self):
        """Shards before 11.2 sent every field; the sparse doc a shard
        sends now carries only the fields off their defaults.  Both
        decode to the same stats."""
        stats = self._outcome().stats
        sparse = protocol.stats_to_doc(stats)
        assert sparse == {"candidates": 4, "checked": 3, "permitted": 2,
                          "timed_out": 1, "degraded": True,
                          "database_size": 5}
        full = dataclasses.asdict(stats)
        assert protocol.stats_from_doc(full) == stats
        assert protocol.stats_from_doc(sparse) == stats
        assert protocol.stats_to_doc(QueryStats()) == {}

    def test_outcome_doc_leaves_the_catalog_it_reads_alone(self):
        catalog = {2: "beta", 9: "unrelated"}
        protocol.outcome_to_doc(self._outcome(), catalog)
        assert catalog == {2: "beta", 9: "unrelated"}

    def test_unresolvable_candidate_names_are_dropped(self):
        # without the server's catalog, id 2 has no name: the verdict
        # map simply omits it rather than inventing one
        doc = protocol.outcome_to_doc(self._outcome())
        assert set(doc["verdicts"]) == {"alpha", "gamma", "delta"}

    def test_error_doc_shape(self):
        doc = protocol.error_doc(ProtocolError("boom"))
        assert doc == {"ok": False, "error": "boom",
                       "kind": "ProtocolError"}


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(st.builds(
    QueryStats,
    translation_seconds=_FINITE, prefilter_seconds=_FINITE,
    selection_seconds=_FINITE, permission_seconds=_FINITE,
    total_seconds=_FINITE, database_size=st.integers(0, 10 ** 6),
    relational_matches=st.integers(0, 10 ** 6),
    candidates=st.integers(0, 10 ** 6), checked=st.integers(0, 10 ** 6),
    permitted=st.integers(0, 10 ** 6), timed_out=st.integers(0, 10 ** 6),
    skipped=st.integers(0, 10 ** 6), degraded=st.booleans(),
    deadline_seconds=st.none() | _FINITE,
    step_budget=st.none() | st.integers(0, 10 ** 6),
    used_prefilter=st.booleans(), used_projections=st.booleans(),
    cache_hit=st.booleans(), pruning_condition=st.text(max_size=8),
    stage_order=st.sampled_from(["attr_first", "prefilter_first"]),
    plan_summary=st.text(max_size=8),
    prefilter_input=st.integers(0, 10 ** 6),
    prefilter_output=st.integers(0, 10 ** 6),
))
def test_stats_docs_round_trip(stats):
    """Over the wire and back, sparse or full: the same stats."""
    doc = protocol.stats_to_doc(stats)
    assert protocol.stats_from_doc(doc) == stats
    wire = protocol.decode_payload(protocol.encode_frame({"stats": doc})[4:])
    assert protocol.stats_from_doc(wire["stats"]) == stats
    assert protocol.stats_from_doc(dataclasses.asdict(stats)) == stats

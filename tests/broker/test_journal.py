"""The write-ahead journal: append/replay, torn-tail healing, the
epoch handshake with the snapshot, and configuration round trips."""

import dataclasses
import json
import random

import pytest

from repro.broker.database import BrokerConfig, ContractDatabase
from repro.broker.journal import (
    JOURNAL_FILE,
    Journal,
    _encode,
    open_database,
)
from repro.broker.persist import load_database, save_database
from repro.dist.replica import Replica
from repro.errors import JournalError, ReproError

#: what a hostile writer can put where a document expects a typed member
JUNK = [None, 7, "x", [], {}, [1, "a"], {"a": 1}, -1, 1.5, True]


def _names(db: ContractDatabase) -> list[str]:
    contracts = sorted(db.contracts(), key=lambda c: c.contract_id)
    return [c.name for c in contracts]


class TestJournalFile:
    def test_fresh_journal_has_header(self, tmp_path):
        journal = Journal.open(tmp_path / JOURNAL_FILE, epoch=3)
        assert journal.epoch == 3
        assert len(journal) == 0
        lines = (tmp_path / JOURNAL_FILE).read_bytes().splitlines()
        assert len(lines) == 1
        header = json.loads(lines[0])
        assert header["op"] == "open"
        assert header["data"]["epoch"] == 3

    def test_append_reopen_round_trip(self, tmp_path):
        path = tmp_path / JOURNAL_FILE
        journal = Journal.open(path)
        journal.append("register", {"name": "a", "clauses": ["F x"]})
        journal.append("deregister", {"contract_id": 0})
        journal.close()
        reopened = Journal.open(path)
        assert [(r.op, r.seq) for r in reopened.tail] == [
            ("register", 1),
            ("deregister", 2),
        ]
        assert reopened.torn_records == 0

    def test_append_rejects_unknown_op(self, tmp_path):
        journal = Journal.open(tmp_path / JOURNAL_FILE)
        with pytest.raises(JournalError):
            journal.append("destroy", {})
        with pytest.raises(JournalError):
            journal.append("open", {})  # the header is not appendable

    def test_append_rejects_unserializable_payload(self, tmp_path):
        journal = Journal.open(tmp_path / JOURNAL_FILE)
        with pytest.raises(JournalError):
            journal.append("register", {"bad": object()})
        # the failed append left no partial record behind
        reopened = Journal.open(tmp_path / JOURNAL_FILE)
        assert len(reopened) == 0

    def test_torn_tail_truncated_and_healed_in_place(self, tmp_path):
        path = tmp_path / JOURNAL_FILE
        journal = Journal.open(path)
        journal.append("register", {"name": "a", "clauses": ["F x"]})
        journal.append("register", {"name": "b", "clauses": ["F y"]})
        journal.close()
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])  # tear the last record mid-line

        reopened = Journal.open(path)
        assert [r.data["name"] for r in reopened.tail] == ["a"]
        assert reopened.torn_records == 1
        assert reopened.torn_bytes > 0
        # healed in place: a second open sees a clean file
        again = Journal.open(path)
        assert again.torn_records == 0
        assert [r.data["name"] for r in again.tail] == ["a"]

    def test_corrupt_middle_record_drops_the_rest(self, tmp_path):
        path = tmp_path / JOURNAL_FILE
        journal = Journal.open(path)
        for name in ("a", "b", "c"):
            journal.append("register", {"name": name, "clauses": ["F x"]})
        journal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"name":"b"', b'"name":"evil"')
        path.write_bytes(b"".join(lines))

        reopened = Journal.open(path)
        # the checksum disowns the edited record; everything after a
        # bad record is untrustworthy too (sequence gap)
        assert [r.data["name"] for r in reopened.tail] == ["a"]
        assert reopened.torn_records >= 1

    def test_append_after_heal_continues_sequence(self, tmp_path):
        path = tmp_path / JOURNAL_FILE
        journal = Journal.open(path)
        journal.append("register", {"name": "a", "clauses": ["F x"]})
        journal.append("register", {"name": "b", "clauses": ["F y"]})
        journal.close()
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        healed = Journal.open(path)
        healed.append("register", {"name": "c", "clauses": ["F z"]})
        healed.close()
        final = Journal.open(path)
        assert [r.data["name"] for r in final.tail] == ["a", "c"]
        assert [r.seq for r in final.tail] == [1, 2]

    def test_compact_resets_to_header_at_new_epoch(self, tmp_path):
        path = tmp_path / JOURNAL_FILE
        journal = Journal.open(path)
        journal.append("register", {"name": "a", "clauses": ["F x"]})
        journal.compact(epoch=4, config=BrokerConfig())
        assert journal.epoch == 4
        assert len(journal) == 0
        reopened = Journal.open(path)
        assert reopened.epoch == 4
        assert len(reopened) == 0


class TestOpenDatabase:
    def test_empty_directory_starts_journaled_database(self, tmp_path):
        db = open_database(tmp_path)
        assert len(db) == 0
        assert db.journal is not None
        assert (tmp_path / JOURNAL_FILE).exists()
        assert db.journal_report.replayed == 0

    def test_mutations_survive_reopen_without_save(self, tmp_path):
        db = open_database(tmp_path)
        db.register("a", ["G(x -> F y)"], attributes={"price": 7})
        db.register("b", ["F z"], attributes={})
        db.deregister(0)

        recovered = open_database(tmp_path)
        assert recovered.journal_report.replayed == 3
        assert _names(recovered) == ["b"]
        contract = next(iter(recovered.contracts()))
        assert contract.attributes == {}
        # answers match the pre-crash database
        assert recovered.query("F z").contract_names == ("b",)

    def test_attributes_round_trip_through_replay(self, tmp_path):
        db = open_database(tmp_path)
        db.register("a", ["F x"], attributes={"price": 420, "route": "SAN"})
        recovered = open_database(tmp_path)
        contract = next(iter(recovered.contracts()))
        assert contract.attributes == {"price": 420, "route": "SAN"}

    def test_save_compacts_journal(self, tmp_path):
        db = open_database(tmp_path)
        db.register("a", ["F x"])
        save_database(db, tmp_path)
        assert len(db.journal) == 0
        assert db.journal.epoch == 1

        recovered = open_database(tmp_path)
        assert recovered.journal_report.replayed == 0
        assert _names(recovered) == ["a"]

    def test_snapshot_plus_tail(self, tmp_path):
        db = open_database(tmp_path)
        db.register("a", ["F x"])
        save_database(db, tmp_path)
        db.register("b", ["F y"])  # journal-only
        recovered = open_database(tmp_path)
        assert recovered.journal_report.replayed == 1
        assert _names(recovered) == ["a", "b"]

    def test_stale_journal_discarded_not_double_replayed(self, tmp_path):
        """Crash between manifest write and journal compaction: the
        journal's records are already in the snapshot."""
        db = open_database(tmp_path)
        db.register("a", ["F x"])
        journal_bytes = (tmp_path / JOURNAL_FILE).read_bytes()
        save_database(db, tmp_path)
        # resurrect the pre-compaction journal (epoch 0 < manifest's 1)
        (tmp_path / JOURNAL_FILE).write_bytes(journal_bytes)

        recovered = open_database(tmp_path)
        assert recovered.journal_report.replayed == 0
        assert recovered.journal_report.discarded_stale == 1
        assert _names(recovered) == ["a"]  # not ["a", "a"]

    def test_ahead_journal_discarded_with_warning(self, tmp_path):
        db = open_database(tmp_path)
        db.register("a", ["F x"])
        save_database(db, tmp_path)
        db.register("b", ["F y"])
        journal_bytes = (tmp_path / JOURNAL_FILE).read_bytes()
        # roll the snapshot back: re-save at a *lower* epoch by
        # rewriting the manifest's journal_epoch
        manifest_path = tmp_path / "contracts.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["journal_epoch"] = 0
        manifest_path.write_text(json.dumps(manifest))
        (tmp_path / JOURNAL_FILE).write_bytes(journal_bytes)

        recovered = open_database(tmp_path)
        assert recovered.journal_report.discarded_stale == 1
        assert any(
            "ahead" in w for w in recovered.journal_report.warnings
        )

    def test_unreplayable_record_truncates_rest(self, tmp_path):
        db = open_database(tmp_path)
        db.register("a", ["F x"])
        db.deregister(0)
        db.register("b", ["F y"])
        # make the deregister unreplayable: deregister id 0 twice by
        # editing the journal (checksummed, so recompute)
        path = tmp_path / JOURNAL_FILE
        lines = path.read_bytes().splitlines(keepends=True)
        bogus = _encode(2, "deregister", {"contract_id": 99})
        path.write_bytes(lines[0] + lines[1] + bogus + lines[3])

        recovered = open_database(tmp_path)
        # the prefix before the bogus record replays; it and everything
        # after are dropped, with a warning
        assert _names(recovered) == ["a"]
        assert recovered.journal_report.replayed == 1
        assert any(
            "failed to replay" in w
            for w in recovered.journal_report.warnings
        )
        # and the file agrees with the database from now on
        again = open_database(tmp_path)
        assert _names(again) == ["a"]

    def test_replay_metrics_recorded(self, tmp_path):
        db = open_database(tmp_path)
        db.register("a", ["F x"])
        recovered = open_database(tmp_path)
        assert recovered.metrics.counter_value("journal.replayed") == 1

    def test_replayed_mutations_are_not_rejournaled(self, tmp_path):
        db = open_database(tmp_path)
        db.register("a", ["F x"])
        recovered = open_database(tmp_path)
        assert len(recovered.journal) == 1  # not 2
        again = open_database(tmp_path)
        assert again.journal_report.replayed == 1


class TestDeregisterAfterSave:
    """A deregister acknowledged after a save, in a process whose live
    ids are sparse (it deregistered before), must replay against the
    same contract: ``load_database`` renumbers ids densely while
    ``save_database`` leaves the live ones alone."""

    def _run(self, tmp_path):
        db = open_database(tmp_path)
        ids = {
            name: db.register(name, ["F x"]).contract_id for name in "abcd"
        }
        db.deregister(ids["b"])
        save_database(db, tmp_path)
        db.deregister(ids["d"])  # live id 3; dense id 2 after a reload
        db.register("e", ["F x"])
        db.journal.close()
        return db

    def test_reopen_equals_live_database(self, tmp_path):
        live = self._run(tmp_path)
        reopened = open_database(tmp_path)
        assert reopened.journal_report.warnings == []
        assert reopened.journal_report.replayed == 2
        assert _names(reopened) == _names(live) == ["a", "c", "e"]
        reopened.journal.close()

    def test_reopen_removes_the_named_contract_not_its_id(self, tmp_path):
        db = open_database(tmp_path)
        ids = {
            name: db.register(name, ["F x"]).contract_id for name in "abcd"
        }
        db.deregister(ids["a"])
        save_database(db, tmp_path)
        # live id 2 is "c"; after a reload dense id 2 would be "d"
        db.deregister(ids["c"])
        db.journal.close()
        reopened = open_database(tmp_path)
        assert _names(reopened) == _names(db) == ["b", "d"]
        reopened.journal.close()

    def test_pre_2_0_contract_id_records_still_replay(self, tmp_path):
        db = open_database(tmp_path)
        for name in "abc":
            db.register(name, ["F x"])
        db.journal.append("deregister", {"contract_id": 1})
        db.journal.close()
        reopened = open_database(tmp_path)
        assert reopened.journal_report.warnings == []
        assert _names(reopened) == ["a", "c"]
        reopened.journal.close()

    def test_out_of_range_rank_is_unreplayable(self, tmp_path):
        db = open_database(tmp_path)
        db.register("a", ["F x"])
        db.journal.append("deregister", {"rank": 5})
        db.journal.close()
        reopened = open_database(tmp_path)
        assert _names(reopened) == ["a"]
        assert any("rank 5" in w for w in reopened.journal_report.warnings)
        reopened.journal.close()


class TestConfigRoundTrip:
    def test_explicit_config_wins(self, tmp_path):
        db = open_database(tmp_path, config=BrokerConfig(state_budget=99))
        assert db.config.state_budget == 99
        db.register("a", ["F x"])
        recovered = open_database(
            tmp_path, config=BrokerConfig(state_budget=77)
        )
        assert recovered.config.state_budget == 77

    def test_journal_header_config_used_on_argless_reopen(self, tmp_path):
        db = open_database(tmp_path, config=BrokerConfig(state_budget=99))
        db.register("a", ["F x"])
        recovered = open_database(tmp_path)
        assert recovered.config.state_budget == 99

    def test_manifest_config_used_after_save(self, tmp_path):
        db = open_database(
            tmp_path, config=BrokerConfig(prefilter_depth=3)
        )
        db.register("a", ["F x"])
        save_database(db, tmp_path)
        recovered = open_database(tmp_path)
        assert recovered.config.prefilter_depth == 3

    def test_header_config_survives_a_replay_truncation(self, tmp_path):
        """Dropping an unapplicable record rewrites the file; the
        rewritten header must still carry the configuration (7.0 wrote
        ``{"epoch": 0}`` there, so the *second* reopen fell back to the
        defaults)."""
        config = BrokerConfig(prefilter_depth=3, projection_subset_cap=1)
        db = open_database(tmp_path, config)
        db.register("a", ["F x"])
        db.journal.close()
        with open(tmp_path / JOURNAL_FILE, "ab") as fh:
            fh.write(_encode(2, "deregister", {"rank": 7}))
        first = open_database(tmp_path)
        assert first.config == config
        assert len(first.journal_report.warnings) == 1
        assert "failed to replay" in first.journal_report.warnings[0]
        first.journal.close()
        header = json.loads(
            (tmp_path / JOURNAL_FILE).read_bytes().splitlines()[0]
        )
        assert header["data"] == {
            "epoch": 0, "config": dataclasses.asdict(config),
        }
        second = open_database(tmp_path)
        assert second.config == config
        assert second.journal_report.warnings == []
        assert _names(second) == ["a"]

    def test_pre_2_0_config_with_use_encoded_is_accepted(self, tmp_path):
        """Journal headers and ``config`` records written by 1.6–3.0
        carry ``use_encoded`` (up to 2.0), ``use_prefilter`` (up to 3.0)
        and ``permission_algorithm`` / ``use_seeds`` /
        ``plan_cache_capacity`` (up to 4.0); the keys are ignored, the
        rest applies, and the database answers like the one that wrote
        the journal."""
        old = {"use_encoded": False, "use_prefilter": False,
               "permission_algorithm": "scc", "use_seeds": False,
               "plan_cache_capacity": 0,
               "state_budget": 99, "prefilter_depth": 3}
        newer = dict(old, state_budget=55)
        (tmp_path / JOURNAL_FILE).write_bytes(
            _encode(0, "open", {"epoch": 0, "config": old})
            + _encode(1, "config", {"config": newer})
            + _encode(2, "register", {"name": "a", "clauses": ["F x"]})
        )
        db = open_database(tmp_path)
        assert db.journal_report.warnings == []
        assert db.journal_report.replayed == 2
        assert db.config == BrokerConfig(state_budget=55, prefilter_depth=3)
        assert _names(db) == ["a"]
        writer = ContractDatabase(db.config)
        writer.register("a", ["F x"])
        for query in ("F x", "G !x", "F y"):
            assert db.query(query).contract_names == \
                writer.query(query).contract_names
        db.journal.close()


class TestDirectoryWrittenBefore6_0:
    """The bytes 5.0 wrote, spelled out: a manifest entry per contract,
    a ``register`` record, a rank-keyed ``deregister`` and a pre-2.0
    ``contract_id``-keyed one (checksums included) — the three codecs
    must keep reading them."""

    MANIFEST = {
        "format_version": 2,
        "config": {"use_projections": True, "prefilter_depth": 2,
                   "projection_subset_cap": 2, "state_budget": 60000,
                   "query_cache_capacity": 128},
        "contracts": [
            {"name": "a", "clauses": ["G (x -> F y)"],
             "attributes": {"price": 3}},
            {"name": "b", "clauses": ["F x"], "attributes": {}},
        ],
        "artifacts": {},
        "journal_epoch": 1,
    }
    JOURNAL = (
        b'{"ck":"0697c25f9f04cff4","data":{"config":{"prefilter_depth":2,'
        b'"projection_subset_cap":2,"query_cache_capacity":128,'
        b'"state_budget":60000,"use_projections":true},"epoch":1},'
        b'"op":"open","seq":0}\n'
        b'{"ck":"12fa9d042a03309a","data":{"attributes":{"route":"SAN-NYC"},'
        b'"clauses":["G !y","F x"],"name":"c"},"op":"register","seq":1}\n'
        b'{"ck":"7b870ef42deb3379","data":{"rank":1},"op":"deregister",'
        b'"seq":2}\n'
        b'{"ck":"064fbf6faf2f1eb4","data":{"contract_id":0},'
        b'"op":"deregister","seq":3}\n'
    )

    def test_opens_and_replays(self, tmp_path):
        (tmp_path / "contracts.json").write_text(json.dumps(self.MANIFEST))
        (tmp_path / JOURNAL_FILE).write_bytes(self.JOURNAL)
        db = open_database(tmp_path)
        assert db.load_report.contracts == 2
        assert db.journal_report.replayed == 3
        assert db.journal_report.warnings == []
        assert db.journal_report.torn_records == 0
        # rank 1 of (a, b, c) was b; contract_id 0 is a
        [survivor] = db.contracts()
        assert survivor.spec.to_doc() == {
            "name": "c", "clauses": ["G !y", "F x"],
            "attributes": {"route": "SAN-NYC"},
        }
        db.journal.close()
        # and the file a reopen leaves behind is the one it found
        assert (tmp_path / JOURNAL_FILE).read_bytes() == self.JOURNAL


class TestForeignDirectorySave:
    def test_saving_elsewhere_does_not_compact_the_journal(self, tmp_path):
        home = tmp_path / "home"
        export = tmp_path / "export"
        db = open_database(home)
        db.register("a", ["F x"])
        save_database(db, export)
        # the journal still holds the mutation: home must recover it
        assert len(db.journal) == 1
        recovered = open_database(home)
        assert _names(recovered) == ["a"]
        # and the export is an ordinary snapshot
        loaded = load_database(export)
        assert _names(loaded) == ["a"]


class TestReadFrom:
    """The reader-side tail API replicas build on: offset-based,
    torn-tail tolerant, and strictly non-mutating."""

    def _journal_with(self, tmp_path, count):
        db = open_database(tmp_path)
        for i in range(count):
            db.register(f"c{i}", [f"F a{i}"])
        return (tmp_path / JOURNAL_FILE).read_bytes()

    def test_read_whole_file_from_zero(self, tmp_path):
        raw = self._journal_with(tmp_path, 3)
        tail = Journal.read_from(tmp_path / JOURNAL_FILE)
        assert tail.epoch == 0
        assert not tail.torn
        assert [r.data["name"] for r in tail.records] == ["c0", "c1", "c2"]
        assert tail.end_offset == len(raw) == tail.file_size

    def test_resume_from_offset_with_expected_seq(self, tmp_path):
        self._journal_with(tmp_path, 2)
        first = Journal.read_from(tmp_path / JOURNAL_FILE)
        db = open_database(tmp_path)
        db.register("c2", ["F a2"])
        resumed = Journal.read_from(
            tmp_path / JOURNAL_FILE, first.end_offset,
            expected_seq=first.records[-1].seq + 1,
        )
        assert [r.data["name"] for r in resumed.records] == ["c2"]
        assert not resumed.torn
        # the header epoch is only visible from offset 0
        assert resumed.epoch is None

    def test_partially_flushed_last_record_is_not_consumed(self, tmp_path):
        """The regression this API exists for: a reader racing the
        writer sees a torn last record, stops before it, and resumes
        from the same offset once the record completes."""
        raw = self._journal_with(tmp_path, 3)
        boundaries = [i + 1 for i, b in enumerate(raw) if b == ord("\n")]
        reader_copy = tmp_path / "shipped" / JOURNAL_FILE
        reader_copy.parent.mkdir()
        # cut mid-way through the last record (between the second-last
        # boundary and EOF)
        cut = (boundaries[-2] + len(raw)) // 2
        assert boundaries[-2] < cut < len(raw)
        reader_copy.write_bytes(raw[:cut])
        tail = Journal.read_from(reader_copy)
        assert tail.torn
        assert [r.data["name"] for r in tail.records] == ["c0", "c1"]
        assert tail.end_offset == boundaries[-2]
        # strictly non-mutating: unlike Journal.open, the torn bytes
        # were NOT truncated away
        assert reader_copy.read_bytes() == raw[:cut]
        # the writer finishes the flush; the reader resumes at its
        # cursor and observes exactly the completed record
        reader_copy.write_bytes(raw)
        resumed = Journal.read_from(
            reader_copy, tail.end_offset,
            expected_seq=tail.records[-1].seq + 1,
        )
        assert not resumed.torn
        assert [r.data["name"] for r in resumed.records] == ["c2"]

    def test_every_torn_cut_yields_a_verified_prefix(self, tmp_path):
        raw = self._journal_with(tmp_path, 4)
        names = ["c0", "c1", "c2", "c3"]
        reader_copy = tmp_path / "shipped" / JOURNAL_FILE
        reader_copy.parent.mkdir()
        for cut in range(len(raw) + 1):
            reader_copy.write_bytes(raw[:cut])
            tail = Journal.read_from(reader_copy)
            got = [r.data["name"] for r in tail.records]
            assert got == names[: len(got)]
            # torn exactly when bytes past the verified prefix remain
            assert tail.torn == (tail.end_offset != cut)
            assert reader_copy.read_bytes() == raw[:cut]

    def test_corrupt_middle_record_stops_the_read(self, tmp_path):
        raw = self._journal_with(tmp_path, 3)
        lines = raw.split(b"\n")
        lines[2] = lines[2].replace(b'"c1"', b'"cX"')  # checksum breaks
        reader_copy = tmp_path / "shipped" / JOURNAL_FILE
        reader_copy.parent.mkdir()
        reader_copy.write_bytes(b"\n".join(lines))
        tail = Journal.read_from(reader_copy)
        assert tail.torn
        assert [r.data["name"] for r in tail.records] == ["c0"]

    def test_sequence_gap_is_torn(self, tmp_path):
        self._journal_with(tmp_path, 2)
        tail = Journal.read_from(
            tmp_path / JOURNAL_FILE, 0
        )
        # demanding a different sequence at an explicit offset fails fast
        mismatched = Journal.read_from(
            tmp_path / JOURNAL_FILE, tail.end_offset, expected_seq=99
        )
        assert mismatched.records == ()

    def test_missing_file_reads_empty(self, tmp_path):
        tail = Journal.read_from(tmp_path / "absent.jsonl", 0)
        assert tail.records == ()
        assert not tail.torn
        assert tail.epoch is None
        assert tail.file_size == 0

    def test_read_header_epoch(self, tmp_path):
        db = open_database(tmp_path)
        db.register("a", ["F x"])
        assert Journal.read_header_epoch(tmp_path / JOURNAL_FILE) == 0
        save_database(db, tmp_path)
        assert Journal.read_header_epoch(tmp_path / JOURNAL_FILE) == 1
        assert Journal.read_header_epoch(tmp_path / "absent") is None
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(b'{"seq": 0, "op": "open"')  # no newline
        assert Journal.read_header_epoch(torn) is None


def _hostile_journals(family):
    """``(label, bytes)``: what a crash, a bad disk or a hostile writer
    can leave where ``journal.jsonl`` should be."""
    config = dataclasses.asdict(BrokerConfig(prefilter_depth=3))
    docs = [("open", {"epoch": 0, "config": config}),
            ("config", {"config": config})]  # as 1.6-5.0 journaled it
    docs += [
        ("register", {"name": f"c{i}", "clauses": [f"F a{i}"],
                      "attributes": {"slot": i}})
        for i in range(5)
    ]
    docs += [("deregister", {"rank": 1}), ("deregister", {"contract_id": 0})]
    lines = [_encode(seq, op, data) for seq, (op, data) in enumerate(docs)]
    raw = b"".join(lines)
    if family == "cuts":
        for cut in range(len(raw) + 1):
            yield f"cut at byte {cut}", raw[:cut]
    elif family == "bit-flips":
        rng = random.Random(7)
        for _ in range(300):
            bit = rng.randrange(len(raw) * 8)
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            yield f"bit {bit} flipped", bytes(flipped)
    elif family == "line-edits":
        yield "duplicated line", b"".join(lines[:4] + lines[3:])
        yield "dropped line", b"".join(lines[:3] + lines[4:])
        yield "blank line", b"".join(lines[:3] + [b"\n"] + lines[3:])
        yield "trailing blank line", raw + b"\n"
        yield "leading blank line", b"\n" + raw
        yield "header-less", b"".join(lines[1:])
        yield "line nested too deep to parse", raw + b"[" * 100_000 + b"\n"
        yield "header in the middle", b"".join(
            lines[:4] + [_encode(4, "open", docs[0][1])] + lines[4:]
        )
    else:  # checksummed records whose members have the wrong type
        for seq, (op, data) in enumerate(docs):
            for member in data:
                members = [(member, junk) for junk in JUNK]
                if member == "config":  # and its typed values
                    members += [
                        (f"config.{key}", {**config, key: junk})
                        for key in config for junk in JUNK
                    ]
                for label, value in members:
                    edited = list(lines)
                    edited[seq] = _encode(seq, op, {**data, member: value})
                    yield f"{op} {label}={value!r}", b"".join(edited)


@pytest.mark.parametrize(
    "family", ["cuts", "bit-flips", "line-edits", "junk-members"]
)
def test_hostile_journal_bytes_recover_or_raise_a_repro_error(
    tmp_path, family
):
    """ROADMAP 6(c), the journal's share: whatever the bytes, the four
    readers return or raise a ``ReproError`` — never another exception —
    and the healing reader and the tailing reader verify the same
    prefix (one scanner serves both)."""
    escaped, disagreed = [], []
    for number, (label, raw) in enumerate(_hostile_journals(family)):
        home = tmp_path / str(number)
        home.mkdir()
        path = home / JOURNAL_FILE
        path.write_bytes(raw)
        readers = {
            "read_header_epoch": lambda: Journal.read_header_epoch(path),
            "read_from": lambda: Journal.read_from(path, 0),
            "Replica.poll": lambda: Replica(home).poll(),
            # heals the file, so it goes last
            "open_database": lambda: open_database(home).journal.close(),
        }
        returned = {}
        for name, reader in readers.items():
            try:
                returned[name] = reader()
            except ReproError:
                pass
            except Exception as exc:  # the defect this test exists for
                escaped.append(f"{label}: {name}: {type(exc).__name__}")
        shipped = returned.get("read_from")
        healed = home / "healed.jsonl"
        healed.write_bytes(raw)
        journal = Journal.open(healed)
        journal.close()
        if shipped is None or (
            len(raw) - journal.torn_bytes, journal.tail
        ) != (shipped.end_offset, list(shipped.records)):
            disagreed.append(label)
    assert escaped == []
    assert disagreed == []

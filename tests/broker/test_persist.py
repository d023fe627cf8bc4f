"""Tests for database persistence (snapshot format v2)."""

import copy
import dataclasses
import hashlib
import json

import pytest

from repro.broker.cache import PLAN_CACHE_CAPACITY
from repro.broker.database import BrokerConfig, ContractDatabase
from repro.broker.journal import open_database
from repro.broker.persist import load_database, save_database
from repro.errors import BrokerError, ReproError
from repro.workload.airfare import QUERIES
from repro.workload.generator import WorkloadGenerator

ARTIFACT_FILES = [
    "automata.json", "seeds.json", "encoded.json", "projections.json",
    "index.json",
]

#: ``(manifest member, hostile value)``: shapes no writer produces
MALFORMED_MANIFEST_MEMBERS = [
    pytest.param("contracts", [{"name": "a"}], id="entry-without-clauses"),
    pytest.param("contracts", [{"clauses": ["F x"]}], id="entry-without-name"),
    pytest.param("contracts", ["a"], id="entry-a-string"),
    pytest.param("contracts", [{"name": "a", "clauses": 7}],
                 id="clauses-an-int"),
    pytest.param("contracts", {"a": {"clauses": ["F x"]}},
                 id="contracts-a-dict"),
    pytest.param("config", ["use_projections"], id="config-a-list"),
    pytest.param("config", {"state_budget": "x"}, id="state-budget-a-string"),
    pytest.param("config", {"prefilter_depth": "x"},
                 id="prefilter-depth-a-string"),
    pytest.param("config", {"prefilter_depth": -1},
                 id="prefilter-depth-negative"),
    pytest.param("config", {"query_cache_capacity": True},
                 id="cache-capacity-a-bool"),
    pytest.param("config", {"use_projections": 1}, id="use-projections-an-int"),
    pytest.param("config", {"projection_subset_cap": 1.5},
                 id="subset-cap-a-float"),
    pytest.param(
        "contracts",
        [{"name": "a", "clauses": ["F x"], "attributes": ["price"]}],
        id="attributes-a-list",
    ),
    pytest.param("artifacts", ["automata.json"], id="artifacts-a-list"),
    pytest.param("journal_epoch", "1", id="epoch-a-string"),
]


@pytest.fixture
def saved_airfare(tmp_path, airfare_db):
    return save_database(airfare_db, tmp_path / "db")


#: what a hostile writer can put where a document expects a typed member
JUNK = [None, 7, "x", [], {}, [1, "a"], {"a": 1}, -1, 1.5, True]


def _nodes(doc, path=()):
    """The path of every node of a JSON document, the root's first."""
    yield path
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, child in items:
            yield from _nodes(child, path + (key,))


def _with_node(doc, path, value):
    """``doc`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _rehash_artifact(directory, filename):
    """Patch the manifest checksum after a deliberate artifact edit, so
    tests can exercise content-level fallbacks past the checksum gate."""
    manifest = json.loads((directory / "contracts.json").read_text())
    manifest["artifacts"][filename] = hashlib.sha256(
        (directory / filename).read_bytes()
    ).hexdigest()
    (directory / "contracts.json").write_text(json.dumps(manifest, indent=2))


class TestRoundTrip:
    def test_files_written(self, saved_airfare):
        assert (saved_airfare / "contracts.json").exists()
        for filename in ARTIFACT_FILES:
            assert (saved_airfare / filename).exists()

    def test_no_temp_files_left(self, saved_airfare):
        leftovers = [
            p.name for p in saved_airfare.iterdir() if ".tmp" in p.name
        ]
        assert leftovers == []

    def test_reload_preserves_contracts(self, saved_airfare, airfare_db):
        reloaded = load_database(saved_airfare)
        assert len(reloaded) == len(airfare_db)
        assert {c.name for c in reloaded.contracts()} == {
            c.name for c in airfare_db.contracts()
        }

    def test_reload_preserves_attributes(self, saved_airfare):
        reloaded = load_database(saved_airfare)
        ticket_a = next(
            c for c in reloaded.contracts() if c.name == "Ticket A"
        )
        assert ticket_a.attributes["price"] == 980

    def test_reload_preserves_query_results(self, saved_airfare, airfare_db):
        reloaded = load_database(saved_airfare)
        for info in QUERIES.values():
            assert set(reloaded.query(info["ltl"]).contract_names) == set(
                airfare_db.query(info["ltl"]).contract_names
            )

    def test_reload_skips_translation(self, saved_airfare):
        reloaded = load_database(saved_airfare)
        # prebuilt automata short-circuit the translator, so translation
        # time is (near) zero compared to fresh registration
        assert reloaded.registration_stats.translation_seconds < 0.05

    def test_config_restored(self, tmp_path):
        db = ContractDatabase(BrokerConfig(prefilter_depth=3,
                                           state_budget=321))
        db.register("t", "G a")
        directory = save_database(db, tmp_path / "cfg")
        reloaded = load_database(directory)
        assert reloaded.config.prefilter_depth == 3
        assert reloaded.config.state_budget == 321

    def test_config_override(self, saved_airfare):
        reloaded = load_database(
            saved_airfare, BrokerConfig(use_projections=False)
        )
        assert next(reloaded.contracts()).projections is None

    def test_duplicate_contract_names_round_trip(self, tmp_path):
        db = ContractDatabase(BrokerConfig())
        db.register("twin", "G a")
        db.register("twin", "F b")
        directory = save_database(db, tmp_path / "twins")
        reloaded = load_database(directory)
        assert reloaded.load_report.automata_restored == 2
        assert set(reloaded.query("F b").contract_ids) == set(
            db.query("F b").contract_ids
        )


class TestSnapshotRestore:
    """The v2 tentpole: derived artifacts come back without a rebuild."""

    def test_full_restore_report(self, saved_airfare, airfare_db):
        reloaded = load_database(saved_airfare)
        report = reloaded.load_report
        assert report.contracts == len(airfare_db)
        assert report.automata_restored == report.contracts
        assert report.seeds_restored == report.contracts
        assert report.encoded_restored == report.contracts
        assert report.projections_restored == report.contracts
        assert report.index_restored
        assert report.retranslated == []
        assert report.checksum_failures == []
        assert report.warnings == []

    def test_restored_index_matches_rebuilt(self, saved_airfare, airfare_db):
        reloaded = load_database(saved_airfare)
        assert reloaded.index.num_nodes == airfare_db.index.num_nodes
        assert reloaded.index.size_estimate() == (
            airfare_db.index.size_estimate()
        )

    def test_restored_seeds_match_computed(self, saved_airfare):
        from repro.core.seeds import compute_seeds

        reloaded = load_database(saved_airfare)
        for contract in reloaded.contracts():
            assert contract.seeds == compute_seeds(contract.ba)

    def test_restored_projections_match_computed(self, saved_airfare,
                                                 airfare_db):
        reloaded = load_database(saved_airfare)
        by_name = {c.name: c for c in airfare_db.contracts()}
        for contract in reloaded.contracts():
            original = by_name[contract.name].projections
            restored = contract.projections
            assert restored.num_subsets == original.num_subsets
            assert restored.num_distinct_partitions == (
                original.num_distinct_partitions
            )

    def test_restored_encoding_matches_computed(self, saved_airfare):
        from repro.automata.encode import encode_automaton

        reloaded = load_database(saved_airfare)
        for contract in reloaded.contracts():
            assert contract.encoded is not None
            fresh = encode_automaton(contract.ba, contract.vocabulary)
            assert contract.encoded.events == fresh.events
            assert contract.encoded.final_mask == fresh.final_mask
            assert list(contract.encoded.trans_dsts) == list(fresh.trans_dsts)
            assert contract.encoded.label_pos == fresh.label_pos
            assert contract.encoded.label_neg == fresh.label_neg
            assert contract.encoded_seeds_mask == (
                contract.encoded.state_mask(contract.seeds)
            )

    def test_invalid_encoding_re_encoded_with_warning(self, saved_airfare,
                                                      airfare_db):
        """A structurally stale ``encoded.json`` entry (here: a dropped
        transition) is rejected by validation and rebuilt, and the
        database still answers exactly like the original."""
        docs = json.loads((saved_airfare / "encoded.json").read_text())
        first = next(iter(docs.values()))[0]
        first["trans_dsts"] = first["trans_dsts"][:-1]
        first["trans_labels"] = first["trans_labels"][:-1]
        (saved_airfare / "encoded.json").write_text(json.dumps(docs))
        _rehash_artifact(saved_airfare, "encoded.json")

        reloaded = load_database(saved_airfare)
        report = reloaded.load_report
        assert report.encoded_restored == report.contracts - 1
        assert any("re-encoding" in w for w in report.warnings)
        assert all(c.encoded is not None for c in reloaded.contracts())
        for info in QUERIES.values():
            assert set(reloaded.query(info["ltl"]).contract_names) == set(
                airfare_db.query(info["ltl"]).contract_names
            )

    def test_manifest_checksums_cover_every_artifact(self, saved_airfare):
        manifest = json.loads((saved_airfare / "contracts.json").read_text())
        assert set(manifest["artifacts"]) == set(ARTIFACT_FILES)
        for filename, expected in manifest["artifacts"].items():
            actual = hashlib.sha256(
                (saved_airfare / filename).read_bytes()
            ).hexdigest()
            assert actual == expected

    def test_depth_override_rebuilds_index(self, saved_airfare, airfare_db):
        reloaded = load_database(
            saved_airfare, BrokerConfig(prefilter_depth=3)
        )
        assert not reloaded.load_report.index_restored
        for info in QUERIES.values():
            assert set(reloaded.query(info["ltl"]).contract_names) == set(
                airfare_db.query(info["ltl"]).contract_names
            )


class TestConfigPersistence:
    """Satellite: every BrokerConfig field must be persisted (a dropped
    field silently reverts to its default on reload)."""

    def test_manifest_persists_every_config_field(self, saved_airfare):
        manifest = json.loads((saved_airfare / "contracts.json").read_text())
        field_names = {f.name for f in dataclasses.fields(BrokerConfig)}
        # fails when a future BrokerConfig field is not persisted (or a
        # stale key lingers in the manifest)
        assert set(manifest["config"]) == field_names

    def test_query_cache_capacity_round_trips(self, tmp_path):
        db = ContractDatabase(BrokerConfig(query_cache_capacity=7))
        db.register("t", "G a")
        directory = save_database(db, tmp_path / "cache")
        reloaded = load_database(directory)
        assert reloaded.config.query_cache_capacity == 7
        assert reloaded.query_cache.stats().capacity == 7

    def test_every_field_round_trips(self, tmp_path):
        config = BrokerConfig(
            use_projections=False,
            prefilter_depth=3,
            projection_subset_cap=None,
            state_budget=12_345,
            query_cache_capacity=9,
        )
        db = ContractDatabase(config)
        db.register("t", "G a")
        directory = save_database(db, tmp_path / "full")
        assert load_database(directory).config == config


#: BrokerConfig as a 1.6–1.10 snapshot manifest / journal header wrote it
#: — including the ``use_encoded`` knob 2.0 removed, the
#: ``use_prefilter`` switch 3.0 removed and the ``use_seeds`` /
#: ``permission_algorithm`` / ``plan_cache_capacity`` knobs 4.0 removed
#: (each set to a value no current database can have, so honouring it
#: would show).
CONFIG_1_10 = {
    "use_prefilter": False,
    "use_projections": True,
    "use_seeds": False,
    "use_encoded": False,
    "prefilter_depth": 3,
    "projection_subset_cap": 2,
    "permission_algorithm": "scc",
    "state_budget": 4000,
    "query_cache_capacity": 17,
    "plan_cache_capacity": 5,
}


class TestSnapshotsWithStatsArtifact:
    def test_listed_stats_artifact_is_ignored(self, tmp_path, airfare_db):
        """Snapshots written before 11.0 carry a ``stats.json`` and list
        its checksum: such a directory loads with no warning, restores
        every artifact, and rebuilds the statistics from the contracts."""
        directory = save_database(airfare_db, tmp_path / "old")
        stats = json.dumps(airfare_db.statistics.to_dict(), indent=2) + "\n"
        (directory / "stats.json").write_text(stats)
        manifest_path = directory / "contracts.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["artifacts"]["stats.json"] = hashlib.sha256(
            stats.encode("utf-8")
        ).hexdigest()
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")

        for opener in (load_database, open_database):
            reloaded = opener(directory)
            report = reloaded.load_report
            assert report.warnings == []
            assert report.checksum_failures == []
            assert report.index_restored
            assert report.encoded_restored == len(airfare_db)
            assert reloaded.statistics.to_dict() == \
                airfare_db.statistics.to_dict()
            if reloaded.journal is not None:
                reloaded.journal.close()


class TestPre2Snapshots:
    def test_manifest_with_use_encoded_loads_silently(self, tmp_path,
                                                      airfare_db):
        directory = save_database(airfare_db, tmp_path / "old")
        manifest_path = directory / "contracts.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"] = CONFIG_1_10
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")

        reloaded = load_database(directory)
        assert reloaded.load_report.warnings == []
        for removed in ("use_encoded", "use_prefilter", "use_seeds",
                        "permission_algorithm", "plan_cache_capacity"):
            assert not hasattr(reloaded.config, removed)
        assert reloaded.config == BrokerConfig(
            prefilter_depth=3, state_budget=4000, query_cache_capacity=17,
        )
        assert reloaded.plan_cache.stats().capacity == PLAN_CACHE_CAPACITY
        for info in QUERIES.values():
            assert reloaded.query(info["ltl"]).contract_names == \
                airfare_db.query(info["ltl"]).contract_names


class TestRobustness:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(BrokerError):
            load_database(tmp_path / "nope")

    def test_malformed_manifest(self, tmp_path):
        directory = tmp_path / "bad"
        directory.mkdir()
        (directory / "contracts.json").write_text("{not json")
        with pytest.raises(BrokerError):
            load_database(directory)

    def test_wrong_format_version(self, tmp_path):
        directory = tmp_path / "v99"
        directory.mkdir()
        (directory / "contracts.json").write_text(
            json.dumps({"format_version": 99, "contracts": []})
        )
        with pytest.raises(BrokerError):
            load_database(directory)

    @pytest.mark.parametrize("opener", [load_database, open_database])
    @pytest.mark.parametrize("member, value", MALFORMED_MANIFEST_MEMBERS)
    def test_malformed_manifest_member_is_a_broker_error(
        self, tmp_path, opener, member, value
    ):
        """The contract, list-config, attribute and artifact shapes were a
        KeyError / TypeError / AttributeError from both openers before
        6.0 and the epoch was silently coerced; the typed config values
        were accepted until 8.1 and escaped later as a ``TypeError``
        (``state_budget``: inside the translator's budget check)."""
        manifest = {
            "format_version": 2, "config": {}, "artifacts": {},
            "contracts": [{"name": "a", "clauses": ["F x"]}],
        }
        manifest[member] = value
        (tmp_path / "contracts.json").write_text(json.dumps(manifest))
        with pytest.raises(BrokerError):
            opener(tmp_path)

    @pytest.mark.parametrize("filename", ARTIFACT_FILES)
    def test_corrupt_artifact_falls_back(self, tmp_path, airfare_db,
                                         filename):
        directory = save_database(airfare_db, tmp_path / "corrupt")
        (directory / filename).write_bytes(b'{"mangled": true}')
        reloaded = load_database(directory)
        assert filename in reloaded.load_report.checksum_failures
        for info in QUERIES.values():
            assert set(reloaded.query(info["ltl"]).contract_names) == set(
                airfare_db.query(info["ltl"]).contract_names
            )

    @pytest.mark.parametrize("filename", ARTIFACT_FILES)
    def test_missing_artifact_falls_back(self, tmp_path, airfare_db,
                                         filename):
        directory = save_database(airfare_db, tmp_path / "missing")
        (directory / filename).unlink()
        reloaded = load_database(directory)
        assert reloaded.load_report.warnings
        assert len(reloaded) == len(airfare_db)
        info = QUERIES["refund_or_change_after_miss"]
        assert set(reloaded.query(info["ltl"]).contract_names) == info[
            "expected"
        ]

    @pytest.mark.parametrize("filename", ARTIFACT_FILES)
    def test_misshapen_artifact_falls_back(self, tmp_path, filename):
        """ROADMAP 6(c), the snapshot's share: a checksum-valid artifact
        of the wrong *shape* (every node of the file replaced by every
        junk value in turn) loads and answers — with every fallback
        announced in a warning that names an artifact file — or raises
        a ``ReproError``; no other exception.  (Well-typed but different
        *values* are trusted: the SHA-256 table is that guard.)"""
        db = ContractDatabase(BrokerConfig())
        db.register("a", ["G (x -> F y)"], {"price": 3, "route": "SAN"})
        db.register("b", ["F x", "G !z"], {"price": 5})
        db.register("c", ["x U y"])
        directory = save_database(db, tmp_path / "db")
        clean = dataclasses.asdict(load_database(directory).load_report)
        artifact = json.loads((directory / filename).read_text())
        escaped, unannounced = [], []
        for path in _nodes(artifact):
            for junk in JUNK:
                (directory / filename).write_text(
                    json.dumps(_with_node(artifact, path, junk))
                )
                _rehash_artifact(directory, filename)
                try:
                    loaded = load_database(directory)
                    loaded.query("F y")
                except ReproError:
                    continue
                except Exception as exc:  # what this test exists for
                    escaped.append(f"{path}={junk!r}: {type(exc).__name__}")
                    continue
                report = dataclasses.asdict(loaded.load_report)
                fell_back = any(
                    report[key] != clean[key] for key in clean
                    if key.endswith("_restored")
                )
                if fell_back and not any(
                    name in warning for warning in report["warnings"]
                    for name in ARTIFACT_FILES
                ):
                    unannounced.append(f"{path}={junk!r}")
        assert escaped == []
        assert unannounced == []

    def test_automaton_naming_too_many_states_falls_back(self, tmp_path):
        """A checksum-valid ``automata.json`` entry naming 10**12 states
        is refused before anything is allocated for them: a reduced
        automaton has at most one state more than it has transitions."""
        db = ContractDatabase(BrokerConfig())
        db.register("a", ["G (x -> F y)"])
        directory = save_database(db, tmp_path / "db")
        automata = json.loads((directory / "automata.json").read_text())
        automata["a"][0]["states"] = 10**12
        (directory / "automata.json").write_text(json.dumps(automata))
        _rehash_artifact(directory, "automata.json")
        reloaded = load_database(directory)
        assert reloaded.load_report.retranslated == ["a"]
        assert any(
            w.startswith("automata.json: 'a': ")
            and "not a reduced automaton" in w
            and w.endswith("; retranslating")
            for w in reloaded.load_report.warnings
        )
        assert reloaded.query("F y").contract_names == ("a",)

    def test_artifact_nested_too_deep_to_parse_falls_back(self, tmp_path):
        db = ContractDatabase(BrokerConfig())
        db.register("t", "G a")
        directory = save_database(db, tmp_path / "deep")
        (directory / "index.json").write_text("[" * 100_000)
        _rehash_artifact(directory, "index.json")  # RecursionError at 7.0
        report = load_database(directory).load_report
        assert not report.index_restored
        assert any("index.json: malformed" in w for w in report.warnings)

    @pytest.mark.parametrize("opener", [load_database, open_database])
    @pytest.mark.parametrize("damage", [
        "orphan node", "child holds more than its parent",
        "contradictory key",
    ])
    def test_index_that_is_not_downward_closed_falls_back(
        self, tmp_path, opener, damage
    ):
        """The one value-level check on a checksum-valid artifact (8.2):
        deregistration prunes the trie by "this node's own set became
        empty", which is wrong on a trie ``to_dict`` cannot have
        written — such an ``index.json`` is rebuilt, not adopted."""
        db = ContractDatabase(BrokerConfig())
        db.register("a", ["G (x -> F y)"])
        db.register("b", ["F x", "G !z"])
        directory = save_database(db, tmp_path / "db")
        document = json.loads((directory / "index.json").read_text())
        nodes = document["trie"]["nodes"]
        if damage == "orphan node":
            nodes[:] = [n for n in nodes if n["key"] != ["x"]]
        elif damage == "child holds more than its parent":
            single = next(n for n in nodes if n["key"] == ["x"])
            single["contracts"] = single["contracts"][:1]
        else:
            nodes.append({"key": ["!x", "x"], "contracts": [0]})
        (directory / "index.json").write_text(json.dumps(document))
        _rehash_artifact(directory, "index.json")

        reopened = opener(directory)
        report = reopened.load_report
        assert not report.index_restored
        assert any(
            w.startswith("index.json: invalid") and "'x'" in w
            for w in report.warnings
        )
        assert reopened.index.to_dict()["trie"] == db.index.to_dict()["trie"]
        reopened.deregister(0)
        assert reopened.query("F y").contract_names == ()
        assert reopened.query("F x").contract_names == ("b",)

    @pytest.mark.parametrize("opener", [load_database, open_database])
    @pytest.mark.parametrize("damage", [
        "bit outside the events", "event in both polarities",
    ])
    def test_encoding_with_impossible_label_masks_falls_back(
        self, tmp_path, opener, damage
    ):
        """The value check a restored encoding needs before it is rebased
        into the database's event table: a label mask naming a bit past
        ``events`` (nothing to rebase it to) or an event in both
        polarities (no label is) is refused, and the contract is
        re-encoded."""
        db = ContractDatabase(BrokerConfig())
        db.register("a", ["G (x -> F y)"])
        db.register("b", ["F x", "G !z"])
        directory = save_database(db, tmp_path / "db")
        docs = json.loads((directory / "encoded.json").read_text())
        entry = docs["b"][0]
        width = len(entry["events"])
        if damage == "bit outside the events":
            entry["label_pos"][0] |= 1 << width
        else:
            entry["label_neg"][0] |= entry["label_pos"][0] or 1
            entry["label_pos"][0] |= entry["label_neg"][0]
        (directory / "encoded.json").write_text(json.dumps(docs))
        _rehash_artifact(directory, "encoded.json")

        reopened = opener(directory)
        report = reopened.load_report
        assert report.encoded_restored == 1
        assert any(
            w.startswith("encoded.json: 'b': ") and w.endswith("; re-encoding")
            for w in report.warnings
        )
        fresh = reopened.get(1).encoded
        assert fresh.to_dict() == db.get(1).encoded.to_dict()
        for query in ("F x", "F y", "F z", "G !z", "F(x && F y)"):
            assert reopened.query(query).contract_names == \
                db.query(query).contract_names

    def test_stale_automaton_retranslated(self, tmp_path, airfare_db):
        directory = save_database(airfare_db, tmp_path / "stale")
        # corrupt the stored automata: give them an alien event (and
        # re-hash so only the vocabulary check can reject them)
        automata = json.loads((directory / "automata.json").read_text())
        for docs in automata.values():
            for doc in docs:
                for transition in doc["transitions"]:
                    transition[1] = "alienEvent"
        (directory / "automata.json").write_text(json.dumps(automata))
        _rehash_artifact(directory, "automata.json")
        reloaded = load_database(directory)
        assert len(reloaded.load_report.retranslated) == len(airfare_db)
        # results still correct because the loader fell back to
        # re-translating from the clauses
        info = QUERIES["refund_or_change_after_miss"]
        assert set(reloaded.query(info["ltl"]).contract_names) == info[
            "expected"
        ]

    def test_name_miss_retranslates_with_warning(self, tmp_path, airfare_db):
        """A shortened automata file no longer shifts pairings: entries
        are keyed by contract name, and a missing name re-translates."""
        directory = save_database(airfare_db, tmp_path / "short")
        automata = json.loads((directory / "automata.json").read_text())
        del automata["Ticket A"]
        (directory / "automata.json").write_text(json.dumps(automata))
        _rehash_artifact(directory, "automata.json")
        reloaded = load_database(directory)
        report = reloaded.load_report
        assert report.retranslated == ["Ticket A"]
        assert any("Ticket A" in w for w in report.warnings)
        assert report.automata_restored == len(airfare_db) - 1
        for info in QUERIES.values():
            assert set(reloaded.query(info["ltl"]).contract_names) == set(
                airfare_db.query(info["ltl"]).contract_names
            )

    def test_crash_mid_save_keeps_snapshot_loadable(self, tmp_path,
                                                    airfare_db):
        """A crash between artifact renames leaves the old manifest whose
        checksums disown the half-updated artifact — the loader rebuilds
        instead of trusting it."""
        directory = save_database(airfare_db, tmp_path / "crash")
        # simulate: a later save replaced automata.json, then died before
        # writing the new manifest
        automata = json.loads((directory / "automata.json").read_text())
        automata["Ticket Z"] = automata.pop("Ticket A")
        (directory / "automata.json").write_text(json.dumps(automata))
        reloaded = load_database(directory)
        assert "automata.json" in reloaded.load_report.checksum_failures
        for info in QUERIES.values():
            assert set(reloaded.query(info["ltl"]).contract_names) == set(
                airfare_db.query(info["ltl"]).contract_names
            )


class TestRoundTripEquivalence:
    """Acceptance: identical query results on the original database, a
    snapshot-restored one, and a rebuild-fallback (corrupted) one."""

    def test_generated_workload_equivalence(self, tmp_path):
        generator = WorkloadGenerator(vocabulary_size=8, seed=42)
        db = ContractDatabase(BrokerConfig())
        for i, spec in enumerate(generator.generate_specs(12, 2)):
            db.register(f"contract-{i}", list(spec.clauses))
        queries = [
            spec.clauses[0] for spec in generator.generate_specs(6, 1)
        ]
        baseline = [db.query(q).contract_names for q in queries]

        directory = save_database(db, tmp_path / "snap")
        snapshot = load_database(directory)
        assert snapshot.load_report.index_restored
        assert [
            snapshot.query(q).contract_names for q in queries
        ] == baseline

        for filename in ARTIFACT_FILES:
            (directory / filename).write_bytes(b"garbage")
        fallback = load_database(directory)
        assert not fallback.load_report.index_restored
        assert [
            fallback.query(q).contract_names for q in queries
        ] == baseline


class TestKillBetweenArtifactWrites:
    """1.5 (S3): every artifact individually killed after a good save —
    the loader must name the rebuilt artifact and answer identically."""

    @pytest.mark.parametrize("filename", ARTIFACT_FILES)
    def test_deleted_artifact_named_and_rebuilt(
        self, saved_airfare, airfare_db, filename
    ):
        (saved_airfare / filename).unlink()
        reloaded = load_database(saved_airfare)
        assert any(
            filename in warning for warning in reloaded.load_report.warnings
        )
        for info in QUERIES.values():
            assert set(reloaded.query(info["ltl"]).contract_names) == set(
                airfare_db.query(info["ltl"]).contract_names
            )

    @pytest.mark.parametrize("filename", ARTIFACT_FILES)
    def test_truncated_artifact_named_and_rebuilt(
        self, saved_airfare, airfare_db, filename
    ):
        raw = (saved_airfare / filename).read_bytes()
        (saved_airfare / filename).write_bytes(raw[: len(raw) // 2])
        reloaded = load_database(saved_airfare)
        assert filename in reloaded.load_report.checksum_failures
        assert any(
            filename in warning for warning in reloaded.load_report.warnings
        )
        for info in QUERIES.values():
            assert set(reloaded.query(info["ltl"]).contract_names) == set(
                airfare_db.query(info["ltl"]).contract_names
            )


class TestCrashDurability:
    def test_stale_tmp_files_cleaned_on_save(self, tmp_path):
        db = ContractDatabase()
        db.register("t", "G a")
        directory = tmp_path / "db"
        directory.mkdir()
        # debris a previous crashed save left behind
        stale = directory / ".automata.json.4242.tmp"
        stale.write_text("half-written")
        save_database(db, directory)
        assert not stale.exists()
        assert [p for p in directory.iterdir() if ".tmp" in p.name] == []

    def test_injected_crash_mid_save_leaves_loadable_directory(
        self, tmp_path
    ):
        from repro.core import faults
        from repro.core.faults import SimulatedCrash

        db = ContractDatabase()
        for i in range(3):
            db.register(f"c{i}", f"G(a{i} -> F b{i})")
        directory = save_database(db, tmp_path / "db")
        baseline = {c.name for c in load_database(directory).contracts()}

        for position in range(1, 7):  # 5 artifacts + the manifest
            faults.fail_at("persist.artifact_write", nth=position)
            with pytest.raises(SimulatedCrash):
                save_database(db, directory)
            faults.reset()
            reloaded = load_database(directory)
            assert {c.name for c in reloaded.contracts()} == baseline

"""CI job ``dist_chaos``: the network chaos drills through the
``contract-broker chaos`` CLI (``tests/dist/test_fault_tolerance.py``
and ``tests/core/test_retry.py`` are tier-1's)."""

import json

import pytest

DRILLS = ["dist-flap", "dist-partition", "dist-failover"]


@pytest.mark.guards(layers=("cli", "check", "dist"), budget=60)
def test_network_chaos_drills(run, artifacts):
    """dist-flap: transient faults on every transport seam during a
    query storm are absorbed bit for bit, a long outage degrades
    soundly, healing reconverges; dist-partition: a partitioned shard
    trips its breaker and the answer stays sound; dist-failover: kill
    the leader, promote the caught-up replica, fail the front-end over,
    and the pinned queries re-answer exactly as before the kill."""
    out = run("-m", "repro.cli", "chaos", "--drills", ",".join(DRILLS),
              "--json").stdout
    (artifacts / "dist-chaos-report.json").write_text(out)
    doc = json.loads(out)
    assert doc["ok"], doc
    assert [d["name"] for d in doc["drills"]] == DRILLS, doc
    assert all(d["checks"] > 0 for d in doc["drills"]), doc

"""Shard placement: stable across processes and hash seeds, minimal
movement under rebalancing."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.partition import ShardRouter, jump_hash, stable_key
from repro.errors import ReproError

#: Pinned placements: if any of these move, every deployed cluster's
#: routing table silently breaks — they may only change together with
#: an explicit migration story.
PINNED = {
    ("alpha", 3): 2,
    ("beta", 3): 0,
    ("gamma", 3): 0,
    ("contract-0", 5): 0,
    ("contract-1", 5): 0,
    ("contract-2", 5): 4,
    ("", 7): 5,
    ("airfare-SAN-NYC", 4): 1,
}


class TestStableKey:
    def test_pinned_placements(self):
        for (name, shards), expected in PINNED.items():
            assert ShardRouter(shards).shard_for(name) == expected

    def test_key_is_sha256_derived(self):
        # independent of PYTHONHASHSEED by construction: the key comes
        # from the digest, not from hash()
        assert stable_key("alpha") == int.from_bytes(
            __import__("hashlib").sha256(b"alpha").digest()[:8], "big"
        )

    def test_distinct_names_distinct_keys(self):
        keys = {stable_key(f"c{i}") for i in range(1000)}
        assert len(keys) == 1000

    def test_deterministic_across_hash_seeds(self):
        """The placement function must not depend on the interpreter's
        per-process string-hash salt: run the same placements in
        subprocesses with different PYTHONHASHSEED values."""
        program = (
            "from repro.dist.partition import ShardRouter\n"
            "r = ShardRouter(5)\n"
            "print(','.join(str(r.shard_for(f'c{i}')) for i in range(50)))\n"
        )
        outputs = set()
        for seed in ("0", "1", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (env.get("PYTHONPATH"), "src") if p
            )
            result = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True, text=True, env=env, check=True,
                cwd=os.path.dirname(os.path.dirname(
                    os.path.dirname(os.path.abspath(__file__))
                )),
            )
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1, f"placement varied with hash seed: {outputs}"

    @given(st.text(max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_in_process_determinism(self, name):
        router = ShardRouter(4)
        assert router.shard_for(name) == router.shard_for(name)


class TestJumpHash:
    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=300, deadline=None)
    def test_in_range(self, key, buckets):
        assert 0 <= jump_hash(key, buckets) < buckets

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    @settings(max_examples=100, deadline=None)
    def test_single_bucket(self, key):
        assert jump_hash(key, 1) == 0

    def test_rejects_no_buckets(self):
        with pytest.raises(ReproError):
            jump_hash(7, 0)


class TestRebalance:
    """Growing N → N+1 shards must move only keys that land on the new
    shard — never between two pre-existing shards — and only about
    1/(N+1) of them (the jump-consistent-hash contract)."""

    @given(st.integers(min_value=1, max_value=9))
    @settings(max_examples=9, deadline=None)
    def test_moves_only_to_the_new_shard(self, shards):
        names = [f"contract-{i}" for i in range(400)]
        before = ShardRouter(shards)
        after = ShardRouter(shards + 1)
        moved = 0
        for name in names:
            old, new = before.shard_for(name), after.shard_for(name)
            if old != new:
                moved += 1
                assert new == shards, (
                    f"{name!r} moved {old}->{new}, not to the new shard"
                )
        expected = len(names) / (shards + 1)
        # generous tolerance: binomial noise on 400 draws
        assert moved <= expected * 2 + 10
        assert moved >= expected * 0.3 - 5

    def test_partition_is_a_partition(self):
        router = ShardRouter(3)
        names = [f"c{i}" for i in range(120)]
        parts = router.partition(names)
        assert sorted(n for p in parts for n in p) == sorted(names)
        for shard, part in enumerate(parts):
            for name in part:
                assert router.shard_for(name) == shard
        # hash placement balances within reason: no shard is empty and
        # none holds more than half of the names
        assert all(0 < 2 * len(p) <= len(names) for p in parts)

    def test_router_rejects_nonpositive_shards(self):
        with pytest.raises(ReproError):
            ShardRouter(0)
        with pytest.raises(ReproError):
            ShardRouter(-2)

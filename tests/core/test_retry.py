"""The shared capped-exponential backoff policy (repro.core.retry).

Three retry loops lean on this module — the registration pool, the
coordinator's shard RPCs, and replica catch-up — so the schedule's
shape (doubling, cap, deterministic jitter) is pinned here once for all
of them.
"""

import pytest

from repro.core.retry import BackoffPolicy


class TestBackoffPolicy:
    def test_delays_double_then_cap(self):
        policy = BackoffPolicy(base_seconds=0.1, cap_seconds=0.4, jitter=0.0)
        assert [policy.delay(n) for n in (1, 2, 3, 4, 5)] == [
            0.1, 0.2, 0.4, 0.4, 0.4,
        ]

    def test_jitter_only_shortens_within_its_fraction(self):
        policy = BackoffPolicy(base_seconds=0.1, cap_seconds=1.0, jitter=0.25)
        for attempt in range(1, 6):
            raw = min(0.1 * 2 ** (attempt - 1), 1.0)
            got = policy.delay(attempt, salt="s")
            assert raw * 0.75 <= got <= raw

    def test_jitter_is_deterministic_per_salt_and_attempt(self):
        policy = BackoffPolicy()
        assert policy.delay(1, salt="a") == policy.delay(1, salt="a")
        # distinct salts desynchronize (no thundering herd)
        assert policy.delay(1, salt="a") != policy.delay(1, salt="b")

    def test_delays_plateau_at_the_jittered_cap(self):
        """A poll loop indexes ``delay`` with an unbounded attempt."""
        policy = BackoffPolicy(base_seconds=0.01, cap_seconds=0.08)
        for attempt in range(4, 40):
            got = policy.delay(attempt, salt="x")
            assert 0.08 * (1 - policy.jitter) <= got <= 0.08

    def test_zero_base_stays_zero(self):
        policy = BackoffPolicy(base_seconds=0.0, cap_seconds=1.0)
        assert policy.delay(3, salt="s") == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"base_seconds": -0.1},
        {"cap_seconds": -1.0},
        {"jitter": -0.1},
        {"jitter": 1.5},
    ])
    def test_invalid_policies_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BackoffPolicy(**kwargs)

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError, match="attempt"):
            BackoffPolicy().delay(0)


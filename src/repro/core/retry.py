"""One capped-exponential-backoff policy for every retry loop.

Three subsystems retry transient failures — the registration process
pool (:func:`repro.broker.parallel.register_many`), the coordinator's
shard RPCs (:mod:`repro.dist.coordinator`), and a replica waiting for
its leader's journal to grow (:meth:`repro.dist.replica.Replica.
catch_up`).  Before 1.10 each hand-rolled its own sleep schedule; this
module is the single shared policy so the backoff *shape* (base delay,
doubling, cap) and its *jitter* are tuned — and tested — in one place.

Jitter is **deterministic**: the fraction shaved off a delay is derived
from SHA-256 of ``(salt, attempt)``, not from a random source.  Two
coordinators retrying different shards (different salts) desynchronize
exactly the way random jitter would desynchronize them — no thundering
herd on a recovering shard — while any single schedule is bit-for-bit
reproducible, which is what lets the chaos drills and the conformance
cells assert on retried runs instead of merely tolerating them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

#: Default retry budget before a transient failure is surfaced.
DEFAULT_MAX_RETRIES = 2

#: First delay of the default schedule; doubles per attempt.
DEFAULT_BASE_SECONDS = 0.05

#: No single backoff sleep exceeds this.
DEFAULT_CAP_SECONDS = 1.0


@dataclass(frozen=True)
class BackoffPolicy:
    """A capped exponential backoff schedule with deterministic jitter.

    ``delay(attempt, salt)`` is the sleep before retry ``attempt``
    (1-based): ``base_seconds * 2**(attempt-1)`` capped at
    ``cap_seconds``, then shortened by up to ``jitter`` (a fraction in
    ``[0, 1]``) of itself — the exact shave is a pure function of
    ``(salt, attempt)``, so a schedule replays identically while
    distinct salts spread out.
    """

    max_retries: int = DEFAULT_MAX_RETRIES
    base_seconds: float = DEFAULT_BASE_SECONDS
    cap_seconds: float = DEFAULT_CAP_SECONDS
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_seconds < 0 or self.cap_seconds < 0:
            raise ValueError("backoff delays cannot be negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int, salt: str = "") -> float:
        """The sleep before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        raw = min(self.base_seconds * (2 ** (attempt - 1)), self.cap_seconds)
        if not self.jitter or not raw:
            return raw
        digest = hashlib.sha256(
            f"{salt}:{attempt}".encode("utf-8")
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return raw * (1.0 - self.jitter * fraction)

"""Fault injection: deterministic failures at named runtime seams.

The broker's robustness machinery — the write-ahead journal, the
snapshot fallback ladder, the quarantined registration pool — exists
to survive failures that are rare and hard to provoke on demand: a full
disk mid-save, a worker process dying under a poison pill.
This module makes those failures *reproducible*: production code calls
:func:`hit` at its failure seams (a no-op costing one attribute read
when nothing is armed), and chaos tests (plus the ``contract-broker
chaos`` CLI drill) arm faults against those seams by name::

    from repro.core import faults

    faults.fail_at("persist.artifact_write", nth=3, exc=OSError("disk full"))
    try:
        save_database(db, directory)    # third artifact write explodes
    finally:
        faults.reset()

Actions, in evaluation order when several are configured on one
armed fault:

* ``delay`` — sleep that many seconds before continuing (latency
  injection; combine with ``exc=None`` for a pure slow-down);
* ``action`` — an arbitrary callable receiving the seam's context
  kwargs (escape hatch for bespoke corruption);
* ``exc`` — raise that exception instance.  :class:`SimulatedCrash`
  derives from ``BaseException`` so ordinary ``except Exception``
  recovery code cannot swallow it — it models the process dying, and
  only a test harness catches it.

Faults are counted per *site*: ``nth=3`` arms the third ``hit`` on that
site after arming, and ``times`` controls how many consecutive hits
fire from there on (default 1).  The registry is thread-safe; seams are
hit from shard-server and client threads.

Seams currently wired into production code:

* ``persist.artifact_write`` — each artifact file write in
  :func:`~repro.broker.persist.save_database`;
* ``journal.append`` / ``journal.fsync`` / ``journal.compact`` — the
  write-ahead journal's durability points;
* ``register.pool`` — the parallel registration's worker dispatch;
* ``dist.connect`` / ``dist.send`` / ``dist.recv`` — the distributed
  broker's *client-side* transport edges (the RPC path of
  :class:`~repro.dist.coordinator.DistributedDatabase`), with
  ``shard=`` / ``op=`` context kwargs so an ``action`` callable can target one
  shard or one op (a partition is "raise ``OSError`` when
  ``kwargs.get('shard') == 1``").  Server-side traffic never hits
  these seams, so ``nth`` counts client attempts deterministically.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable


class SimulatedCrash(BaseException):
    """An injected process-death stand-in.

    Deliberately *not* a :class:`~repro.errors.ReproError` (nor even an
    ``Exception``): recovery code that survives real faults by catching
    ``Exception`` must not be able to "survive" a simulated kill-9.
    Only chaos harnesses catch this.
    """


@dataclass
class _ArmedFault:
    site: str
    nth: int
    times: int
    exc: BaseException | None
    delay: float | None
    action: Callable[..., Any] | None
    #: hits observed on the site since this fault was armed
    seen: int = 0
    #: times this fault has fired
    fired: int = 0

    def should_fire(self) -> bool:
        return self.nth <= self.seen < self.nth + self.times


@dataclass
class FaultReport:
    """What an injector did while armed (for assertions and drills)."""

    armed: int = 0
    hits: dict[str, int] = field(default_factory=dict)
    fired: dict[str, int] = field(default_factory=dict)


class FaultInjector:
    """A registry of armed faults keyed by seam name.

    One module-level default instance (:data:`FAULTS`) serves the whole
    process; tests needing isolation can instantiate their own and pass
    it where supported, but the seams consult the default.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._faults: dict[str, list[_ArmedFault]] = {}
        self._hits: dict[str, int] = {}
        # read without the lock on the hot path; Python attribute reads
        # are atomic, and a stale False only delays the first armed hit
        # by one seam crossing in another thread
        self._armed_count = 0

    # -- arming ---------------------------------------------------------------------

    def fail_at(
        self,
        site: str,
        *,
        nth: int = 1,
        times: int = 1,
        exc: BaseException | None = None,
        delay: float | None = None,
        action: Callable[..., Any] | None = None,
    ) -> None:
        """Arm a fault: the ``nth`` hit on ``site`` (1-based, counted
        from now) fires the configured actions, as do the following
        ``times - 1`` hits."""
        if nth < 1:
            raise ValueError(f"nth must be >= 1, got {nth}")
        if times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        if exc is None and delay is None and action is None:
            exc = SimulatedCrash(f"injected fault at {site!r}")
        with self._lock:
            self._faults.setdefault(site, []).append(
                _ArmedFault(
                    site=site, nth=nth, times=times,
                    exc=exc, delay=delay, action=action,
                )
            )
            self._armed_count += 1

    def crash_at(self, site: str, *, nth: int = 1) -> None:
        """Arm a :class:`SimulatedCrash` (the kill-9 stand-in)."""
        self.fail_at(site, nth=nth, exc=SimulatedCrash(
            f"simulated crash at {site!r}"
        ))

    def reset(self) -> None:
        """Disarm everything and clear the hit counters."""
        with self._lock:
            self._faults.clear()
            self._hits.clear()
            self._armed_count = 0

    # -- introspection --------------------------------------------------------------

    @property
    def active(self) -> bool:
        return self._armed_count > 0

    def armed(self, site: str) -> bool:
        with self._lock:
            return any(
                f.fired < f.times for f in self._faults.get(site, ())
            )

    def hits(self, site: str) -> int:
        """How many times ``site`` has been crossed while any fault was
        armed (anywhere)."""
        with self._lock:
            return self._hits.get(site, 0)

    def report(self) -> FaultReport:
        with self._lock:
            report = FaultReport(hits=dict(self._hits))
            for site, faults in self._faults.items():
                report.armed += len(faults)
                fired = sum(f.fired for f in faults)
                if fired:
                    report.fired[site] = fired
            return report

    # -- the seam -------------------------------------------------------------------

    def hit(self, site: str, **context: Any) -> None:
        """Called by production code at a failure seam.

        Free when nothing is armed.  With faults armed on ``site``,
        fires each one whose window covers this hit: sleep, run the
        action callable, raise the exception — in that order.
        """
        if not self._armed_count:
            return
        to_fire: list[_ArmedFault] = []
        with self._lock:
            self._hits[site] = self._hits.get(site, 0) + 1
            for fault in self._faults.get(site, ()):
                fault.seen += 1
                if fault.should_fire():
                    fault.fired += 1
                    to_fire.append(fault)
        for fault in to_fire:
            if fault.delay is not None:
                time.sleep(fault.delay)
            if fault.action is not None:
                fault.action(**context)
            if fault.exc is not None:
                raise fault.exc


#: The process-wide injector every seam consults.
FAULTS = FaultInjector()


def fail_at(site: str, **kwargs: Any) -> None:
    """Arm a fault on the default injector (see
    :meth:`FaultInjector.fail_at`)."""
    FAULTS.fail_at(site, **kwargs)


def crash_at(site: str, *, nth: int = 1) -> None:
    """Arm a simulated crash on the default injector."""
    FAULTS.crash_at(site, nth=nth)


def hit(site: str, **context: Any) -> None:
    """Cross a seam on the default injector (no-op unless armed)."""
    FAULTS.hit(site, **context)


def reset() -> None:
    """Disarm the default injector."""
    FAULTS.reset()

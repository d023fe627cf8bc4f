"""Runtime monitoring of contracts against unfolding event histories.

The related work the paper builds on (§8, [16][19]) monitors *live*
contracts: as events actually happen, is the contract still being
honored, and which futures remain open ("can this ticket still be
refunded?").  A contract's Büchi automaton is run nondeterministically
over the observed snapshots, tracking the states consistent with the
history; when none is left, no allowed sequence extends the history and
the contract is **violated**.

The monitor runs on the flat int/bitset encoding of
:mod:`repro.automata.encode` (built once at registration), so one
implementation serves a single signed contract
(``EncodedMonitor(contract.encoded)``) and a broker tracking thousands
of live contracts against a shared event stream:

* a contract's nondeterministic **frontier** becomes one packed int over
  :class:`~repro.automata.encode.EncodedAutomaton` state ids;
* one event becomes a **table lookup** — snapshots map to satisfied
  label-class bitsets, label classes map to per-state successor masks —
  so the advance is a handful of dict hits plus bitwise OR, with the
  eager live-state pruning baked into the masks;
* a **watch query** ("can this ticket still be refunded?") becomes a
  single precomputed *winning mask*: the set of contract states from
  which a simultaneous lasso with the query automaton still exists.
  ``can_still`` collapses to ``frontier & mask != 0`` per event, instead
  of a product search per call.

:class:`FleetMonitor` scales this to a contract fleet: broadcast or
per-contract event ingestion, a watch-query registry, and
:class:`Alert` records emitted the moment a contract flips to VIOLATED
or a watch flips to no-longer-satisfiable.  The reference is the batch
decider, not a second monitor: after a history ``h`` every verdict is a
Definition 1 question about the contract ``χ_h ∧ φ``
(:func:`repro.check.oracle.oracle_monitor`); the ``monitor-stream`` /
``monitor-unknown`` conformance cells hold the engine to it on every
prefix (docs/DEVELOPMENT.md invariant 13).
"""

from .encoded import EncodedMonitor, compile_step_rows, live_state_mask, winning_mask
from .engine import (
    Alert,
    Event,
    FleetMonitor,
    IngestReport,
    parse_event,
    read_event_log,
)
from .options import MonitorOptions, MonitorStatus

__all__ = [
    "Alert",
    "EncodedMonitor",
    "Event",
    "FleetMonitor",
    "IngestReport",
    "MonitorOptions",
    "MonitorStatus",
    "compile_step_rows",
    "live_state_mask",
    "parse_event",
    "read_event_log",
    "winning_mask",
]

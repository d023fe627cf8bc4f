"""Monitoring verdicts and options of the streaming engine
(:mod:`repro.stream.encoded`, :mod:`repro.stream.engine`).

They live in their own module — below the broker in the layering, and
importing nothing — so :mod:`~repro.stream.encoded` and
:mod:`~repro.stream.engine` share one status enum and one
vocabulary-handling policy without importing each other for it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class MonitorStatus(enum.Enum):
    """Verdict about the observed history."""

    #: Some allowed sequence extends the history.
    ACTIVE = "active"
    #: No allowed sequence extends the history: the contract is violated.
    VIOLATED = "violated"


@dataclass(frozen=True)
class MonitorOptions:
    """Policy knobs of a monitor.

    Attributes:
        strict_vocabulary: how to treat snapshot events outside the
            contract vocabulary.  ``False`` (the default) *counts* them —
            on the monitor's ``unknown_events`` attribute and the
            ``monitor.unknown_events`` metric — and otherwise ignores
            them, which is verdict-preserving: contract labels only ever
            cite vocabulary events, so an unknown event can neither
            satisfy nor block a transition.  ``True`` raises
            :class:`~repro.errors.MonitorError` before the monitor's
            state is touched, for deployments where a typo'd event name
            must not masquerade as a healthy stream.
    """

    strict_vocabulary: bool = False

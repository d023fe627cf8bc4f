"""The coordinator↔shard wire protocol: length-prefixed JSON frames.

Every message is one JSON object encoded UTF-8 and prefixed with a
4-byte big-endian length — trivially parseable from any language, and
self-delimiting over a stream socket.  Requests are
``{"op": ..., **payload}``; responses are ``{"ok": true, **payload}``
or ``{"ok": false, "error": ..., "kind": <exception class name>}``.

Identity crosses the wire as **contract names**, never ids: each shard
assigns local ids in its own registration order, so the same contract
has a different id on every topology.  The coordinator keeps the
global id → (shard, name) catalog and translates at the edge
(docs/DEVELOPMENT.md invariant 15 — distribution changes placement,
never answers).

Query options ride in the one document codec of
:class:`~repro.broker.options.QueryOptions` that
:class:`~repro.broker.spec.QuerySpec` uses too (plus the serialized
relational filter), so the wire format stays aligned with the
declarative query API instead of inventing a second encoding.

The framing layer itself carries **no** fault seams: the chaos seams
(``dist.connect`` / ``dist.send`` / ``dist.recv`` in
:mod:`repro.core.faults`) live at the *client* edge — the RPC path of
:class:`~repro.dist.coordinator.DistributedDatabase`, the one client —
so injected faults count client attempts deterministically and never
fire on the server's half of the same exchange.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import socket
import struct
from typing import Any, Mapping

from ..broker.options import QueryOptions
from ..broker.query import QueryOutcome, QueryStats
from ..broker.relational import MATCH_ALL, AttributeFilter
from ..errors import ProtocolError

#: 4-byte big-endian unsigned frame length.
_LENGTH = struct.Struct(">I")

#: Refuse frames past this size (64 MiB) — a corrupt length prefix must
#: not look like an instruction to allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024


# -- framing --------------------------------------------------------------------------


def encode_frame(doc: Mapping[str, Any]) -> bytes:
    """One message as bytes: length prefix + JSON payload."""
    try:
        payload = json.dumps(doc, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unserializable frame: {exc}") from exc
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> dict:
    """Parse a frame payload back into a message dict; any bytes that
    are not one JSON object — invalid UTF-8, a BOM, nesting too deep to
    parse, an integer too long to convert — are a :class:`ProtocolError`."""
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # incl. JSON/Unicode errors
        raise ProtocolError(f"malformed frame payload: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError(
            f"frame payload must be an object, got {type(doc).__name__}"
        )
    return doc


def _parse_length(prefix: bytes) -> int:
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return length


def send_frame(sock: socket.socket, doc: Mapping[str, Any]) -> None:
    """Write one frame to a blocking socket."""
    sock.sendall(encode_frame(doc))


def _recv_exact(sock: socket.socket, size: int) -> bytes | None:
    chunks = []
    remaining = size
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if chunks:
                raise ProtocolError(
                    f"connection closed mid-frame ({size - remaining} of "
                    f"{size} bytes)"
                )
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict | None:
    """Read one frame from a blocking socket (``None`` on clean EOF)."""
    prefix = _recv_exact(sock, _LENGTH.size)
    if prefix is None:
        return None
    payload = _recv_exact(sock, _parse_length(prefix))
    if payload is None:
        raise ProtocolError("connection closed between length and payload")
    return decode_payload(payload)


async def read_frame(reader) -> dict | None:
    """Read one frame from an ``asyncio.StreamReader`` (``None`` on
    clean EOF)."""
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-length-prefix") from exc
    try:
        payload = await reader.readexactly(_parse_length(prefix))
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return decode_payload(payload)


async def write_frame(writer, doc: Mapping[str, Any]) -> None:
    """Write one frame to an ``asyncio.StreamWriter`` and drain."""
    writer.write(encode_frame(doc))
    await writer.drain()


# -- option / outcome documents -------------------------------------------------------


def options_to_doc(options: QueryOptions) -> dict:
    """Serialize :class:`QueryOptions` for the wire.

    Non-default spec-compatible fields plus the relational filter.
    ``explain`` cannot cross the wire (witness objects are not JSON),
    ``contract_ids`` are a coordinator-side concern and a pinned
    ``plan`` has no document form — the caller is expected to have
    stripped them (see :func:`check_distributable`).
    """
    check_distributable(options)
    doc: dict[str, Any] = {}
    if options.attribute_filter.conditions:
        doc["filter"] = options.attribute_filter.to_list()
    fields = options.to_doc()
    if fields:
        doc["options"] = fields
    return doc


def options_from_doc(doc: Mapping[str, Any]) -> QueryOptions:
    """Rebuild :class:`QueryOptions` from :func:`options_to_doc`."""
    filter_items = doc.get("filter")
    return QueryOptions.from_doc(
        doc.get("options") or {},
        AttributeFilter.from_list(filter_items) if filter_items else MATCH_ALL,
    )


def check_distributable(options: QueryOptions) -> None:
    """Reject options the protocol cannot carry faithfully."""
    if options.explain:
        raise ProtocolError(
            "explain witnesses cannot cross the shard protocol; run the "
            "query against a single-node database to extract witnesses"
        )
    if options.contract_ids is not None:
        raise ProtocolError(
            "contract_ids are shard-local; the coordinator resolves "
            "global ids before fan-out"
        )
    if options.plan is not None:
        raise ProtocolError(
            "a pinned plan cannot cross the wire: shards plan for "
            "themselves, each from its own statistics"
        )


#: every ``QueryStats`` field and its default, read once
_STATS_DEFAULTS = {f.name: f.default for f in dataclasses.fields(QueryStats)}


def stats_to_doc(stats: QueryStats) -> dict:
    """A :class:`QueryStats` as a plain JSON-able dict of the fields off
    their defaults (every field is a scalar: a shallow read is a copy).
    Lossless: :func:`stats_from_doc` fills the defaults back in."""
    return {name: value for name, default in _STATS_DEFAULTS.items()
            if (value := getattr(stats, name)) != default}


def stats_from_doc(doc: Mapping[str, Any]) -> QueryStats:
    return QueryStats(
        **{k: v for k, v in doc.items() if k in _STATS_DEFAULTS}
    )


def outcome_to_doc(outcome: QueryOutcome,
                   id_to_name: Mapping[int, str] | None = None) -> dict:
    """Serialize a shard's :class:`QueryOutcome` — names only, plus the
    per-name verdict map and the stats counters.

    ``verdicts`` covers every candidate, including NOT_PERMITTED ones
    that appear in neither answer tuple, so the server passes its full
    local ``id_to_name`` catalog (read, never copied); without one,
    only the names the outcome itself carries can be resolved.
    """
    own = dict(zip(outcome.contract_ids, outcome.contract_names))
    own.update(zip(outcome.maybe_ids, outcome.maybe_names))
    catalog = id_to_name or {}
    verdicts = {}
    for contract_id, verdict in outcome.verdicts.items():
        name = own.get(contract_id, catalog.get(contract_id))
        if name is not None:
            verdicts[name] = verdict.value
    return {
        "formula": str(outcome.formula),
        "permitted": list(outcome.contract_names),
        "maybe": list(outcome.maybe_names),
        "verdicts": verdicts,
        "stats": stats_to_doc(outcome.stats),
    }


def outcomes_doc(outcomes, id_to_name: Mapping[int, str]) -> dict:
    """The ``query_many`` success payload for a batch of outcomes — one
    shape shared by the shard server and the front-end's replica-read
    path, so a replica-served answer reads like a leader-served one."""
    return {"outcomes": [
        outcome_to_doc(outcome, id_to_name) for outcome in outcomes
    ]}


def error_doc(exc: Exception) -> dict:
    """The failure-response form of an exception."""
    return {"ok": False, "error": str(exc), "kind": type(exc).__name__}

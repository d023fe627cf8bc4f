"""The distributed broker front-end: route, fan out, merge — and survive.

:class:`DistributedDatabase` is the one cluster front-end and the one
RPC client.  It owns the only cluster-global state — the catalog
mapping each registered contract to a global id and the shard the
:class:`~repro.dist.partition.ShardRouter` placed it on — behind
synchronous ``ContractDatabase``-shaped methods.  Every mutation routes
to exactly one shard; every query goes to all of them — each frame out
before any answer is read — and the answers are merged back into one
:class:`~repro.broker.query.QueryOutcome` in **global registration
order** by the function a single node assembles its own answer with
(:func:`~repro.broker.query.assemble_outcome`), so a distributed answer
is byte-comparable to the single-node oracle's (invariant 15:
distribution changes placement, never answers).  The transport is
asyncio on a loop the object runs in the calling thread for the length
of a call; nothing outside this module awaits anything.

Fault tolerance (1.10) is layered on that contract, never above it:

* **retry** — a transient transport failure (connect refused, socket
  ``OSError``, RPC timeout, connection closed mid-exchange) on an
  *idempotent* op (``query``/``query_many``/``status``/``ping``) is
  retried under the shared :class:`~repro.core.retry.BackoffPolicy`
  (capped exponential, deterministic jitter salted per shard+op), by
  the one loop every RPC goes through, which re-checks the query
  deadline first.  ``register``/``deregister`` are *not* retried — the
  shard may or may not have applied them — and surface a typed
  :class:`~repro.errors.RetryableDistError` so the caller can verify
  and re-issue (a blind re-register is rejected by name);
* **health** — each shard carries a :class:`ShardHealth` circuit
  breaker: ``failure_threshold`` consecutive transport failures open
  it, an open breaker fails calls fast (no connect, no timeout wait),
  and after ``reset_seconds`` a single half-open probe is let through —
  success closes the breaker, failure re-opens it.  A query against an
  open breaker degrades to SKIPPED immediately instead of stalling the
  whole fan-out on a dead shard's timeout;
* **replica reads** — :meth:`DistributedDatabase.attach_replica` routes
  a shard's read traffic to a journal-shipping
  :class:`~repro.dist.replica.Replica` under a
  :class:`~repro.dist.replica.ReadPreference` staleness bound,
  falling back to the leader when the replica lags past it;
* **failover** — :meth:`DistributedDatabase.fail_over` repoints a
  shard's address at a promoted replica (:meth:`~repro.dist.replica.
  Replica.promote`) without renumbering a single global contract id:
  the catalog is keyed by name+shard slot, so placement survives the
  leader change untouched.

Degradation composes across the network: a shard that misses its RPC
deadline (or is simply gone, or breaker-open) contributes SKIPPED
verdicts for every contract it owns, exactly the shape a single node
gives queued candidates when the budget runs out first — so the merged
outcome keeps satisfying ``permitted ⊆ exact ⊆ permitted ∪ maybe``,
and under ``Degradation.FAIL`` a failed shard raises
:class:`~repro.errors.QueryBudgetError`, the same typed refusal a
single node gives an exhausted budget.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import Counter
from dataclasses import dataclass

from ..broker.contract import ContractSpec
from ..broker.options import Degradation, QueryOptions, coerce_query_options
from ..broker.query import (
    QueryOutcome,
    QueryStats,
    Verdict,
    assemble_outcome,
)
from ..broker.spec import QuerySpec
from ..core import faults
from ..core.retry import BackoffPolicy
from ..errors import DistError, QueryBudgetError, RetryableDistError
from ..ltl.ast import Formula
from ..ltl.parser import parse
from ..obs.metrics import COUNT_BUCKETS, MetricsRegistry
from . import protocol
from .partition import ShardRouter
from .replica import ReadPreference, Replica

#: Grace added on top of a query's own deadline before the front-end
#: gives up on a shard RPC (the shard needs time to serialize/ship the
#: degraded answer it produced *at* the deadline).
RPC_GRACE_SECONDS = 5.0

#: RPC timeout for queries with no deadline of their own.
DEFAULT_RPC_TIMEOUT = 300.0

#: Ops safe to retry blind: re-running them cannot double-apply state.
IDEMPOTENT_OPS = frozenset({"ping", "query", "query_many", "status"})

#: The default RPC retry schedule (see :mod:`repro.core.retry`).
DEFAULT_RETRY = BackoffPolicy()

#: Consecutive transport failures that open a shard's circuit breaker.
DEFAULT_BREAKER_THRESHOLD = 3

#: Seconds an open breaker waits before letting a half-open probe out.
DEFAULT_BREAKER_RESET_SECONDS = 5.0


class TransientShardError(DistError):
    """A shard RPC failed for a reason that may heal: connect refused,
    transport ``OSError``, RPC timeout, connection closed mid-exchange,
    or an open circuit breaker refusing to try.  The front-end
    retries these on idempotent ops; everything else surfaces them."""


@dataclass(frozen=True)
class RoutedContract:
    """The front-end's receipt for one registration."""

    contract_id: int  #: the cluster-global id
    name: str
    shard: int  #: which shard holds it


class ShardHealth:
    """A consecutive-failure circuit breaker for one shard.

    States: **closed** (healthy — calls flow), **open** (tripped —
    calls fail fast without touching the network), **half-open** (the
    reset timeout elapsed — exactly one probe is let through; its
    outcome decides between closed and open again).  Success in any
    state closes the breaker and zeroes the failure streak.
    """

    def __init__(self, *, failure_threshold: int = DEFAULT_BREAKER_THRESHOLD,
                 reset_seconds: float = DEFAULT_BREAKER_RESET_SECONDS,
                 clock=time.monotonic):
        if failure_threshold < 1:
            raise DistError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.failure_threshold = failure_threshold
        self.reset_seconds = reset_seconds
        self._clock = clock
        self.state = "closed"
        self.consecutive_failures = 0
        self.last_error: str | None = None
        self._opened_at = 0.0
        self._probing = False

    def allow(self) -> bool:
        """May a call go out now?  In half-open, the first ``allow``
        claims the single probe slot; concurrent callers are refused
        until the probe reports back."""
        if self.state == "closed":
            return True
        if self.state == "open":
            if self._clock() - self._opened_at >= self.reset_seconds:
                self.state = "half_open"
                self._probing = True
                return True
            return False
        # half-open: one probe in flight at a time
        if self._probing:
            return False
        self._probing = True
        return True

    def record_success(self) -> None:
        self.state = "closed"
        self.consecutive_failures = 0
        self.last_error = None
        self._probing = False

    def record_failure(self, error: BaseException | str) -> bool:
        """Count one transport failure; returns True when this failure
        *trips* the breaker (closed/half-open → open)."""
        self.consecutive_failures += 1
        self.last_error = str(error)
        self._probing = False
        should_open = (
            self.state == "half_open"
            or self.consecutive_failures >= self.failure_threshold
        )
        if should_open and self.state != "open":
            self.state = "open"
            self._opened_at = self._clock()
            return True
        if should_open:
            self._opened_at = self._clock()
        return False

    def reset(self) -> None:
        """Forget everything (a failover installed a fresh address)."""
        self.record_success()

    @property
    def healthy(self) -> bool:
        return self.state == "closed"

    def to_dict(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "failure_threshold": self.failure_threshold,
            "last_error": self.last_error,
        }


class DistributedDatabase:
    """The cluster front-end over ``addresses`` shards: a synchronous,
    ``ContractDatabase``-shaped client that owns everything
    cluster-global — catalog, router, connections, breakers, replicas.

    One persistent connection per shard, one exchange on it at a time;
    a failed connection is re-dialed on the next request.

    The transport is asyncio, and that is an implementation detail: the
    object owns an event loop and runs it in the calling thread for the
    length of each public call, one call at a time (callers on several
    threads take turns; the shards of one call work at once; calling
    in from a running asyncio loop raises ``RuntimeError``).  A
    loop thread of its own would put two more thread hand-offs on every
    call, and with the shard handlers' those are what a sharded query's
    latency and its run-to-run spread are made of (ROADMAP item 3
    has the measurement).  Use as a context manager (or call
    :meth:`close`)."""

    def __init__(self, addresses: list[tuple[str, int]], *,
                 metrics: MetricsRegistry | None = None,
                 rpc_timeout: float = DEFAULT_RPC_TIMEOUT,
                 retry: BackoffPolicy | None = None,
                 breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
                 breaker_reset_seconds: float = DEFAULT_BREAKER_RESET_SECONDS):
        if not addresses:
            raise DistError("a cluster needs at least one shard address")
        self.addresses = list(addresses)
        self.router = ShardRouter(len(self.addresses))
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.rpc_timeout = rpc_timeout
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self._catalog: dict[int, RoutedContract] = {}
        self._by_name: dict[str, int] = {}
        self._next_id = 1
        self._conns: list[tuple | None] = [None] * len(self.addresses)
        self.health = [
            ShardHealth(
                failure_threshold=breaker_threshold,
                reset_seconds=breaker_reset_seconds,
            )
            for _ in self.addresses
        ]
        self._replicas: dict[int, tuple[Replica, ReadPreference]] = {}
        self._loop = asyncio.new_event_loop()
        # held for the length of every public call: catalog, topology,
        # loop and the dist.* counts belong to one caller at a time
        self._turn = threading.Lock()
        self._counts: Counter = Counter()
        self.metrics.register(self)

    # -- plumbing ---------------------------------------------------------------------

    def _run(self, coro):
        """Run ``coro`` to completion on this object's loop, in the
        calling thread.  The caller holds the turn lock."""
        return self._loop.run_until_complete(coro)

    async def _connection(self, shard: int):
        conn = self._conns[shard]
        if conn is None:
            host, port = self.addresses[shard]
            faults.hit("dist.connect", shard=shard, host=host, port=port)
            try:
                conn = await asyncio.open_connection(host, port)
            except OSError as exc:
                raise TransientShardError(
                    f"cannot reach shard {shard} at {host}:{port}: {exc}"
                ) from exc
            self._conns[shard] = conn
        return conn

    def _disconnect(self, shard: int) -> None:
        """Drop ``shard``'s connection; the next request re-dials."""
        conn = self._conns[shard]
        if conn is not None:
            conn[1].close()
            self._conns[shard] = None

    async def _send(self, shard: int, doc: dict, timeout: float) -> tuple:
        """An attempt's first half: dial if need be and write the frame.
        Returns :meth:`_receive`'s arguments, expiring ``timeout``
        seconds from now."""
        op, started = doc["op"], time.perf_counter()
        try:
            reader, writer = await self._connection(shard)
            faults.hit("dist.send", shard=shard, op=op)
            await protocol.write_frame(writer, doc)
            faults.hit("dist.recv", shard=shard, op=op)
        except BaseException as exc:
            raise self._failed(shard, op, started, exc)
        return shard, op, started, reader, self._loop.time() + timeout

    async def _receive(self, shard: int, op: str, started: float,
                       reader, expiry: float) -> dict:
        """An attempt's second half: read the answer, given up at loop
        time ``expiry`` by a timer that cancels this task (as
        ``asyncio.timeout`` does; ``wait_for`` would add a task per
        read) — an answer already buffered is read even past it.
        Raises :class:`TransientShardError` on transport failure or
        timeout, :class:`DistError` on a shard's error response."""
        task, expired = asyncio.current_task(), []
        timer = self._loop.call_at(
            expiry, lambda: expired.append(task.cancel()))
        try:
            response = await protocol.read_frame(reader)
            if response is None:
                raise ConnectionResetError("connection closed mid-request")
        except BaseException as exc:
            if expired:  # the timer cancelled this read
                exc = asyncio.TimeoutError()
            raise self._failed(shard, op, started, exc)
        finally:
            timer.cancel()
        self.metrics.observe(
            f"dist.shard.{shard}.rpc_seconds", time.perf_counter() - started
        )
        self._counts[f"dist.shard.{shard}.requests"] += 1
        if not response.get("ok"):
            raise DistError(
                f"shard {shard} rejected {op!r}: {response.get('error')}"
            )
        return response

    def _failed(self, shard: int, op: str, started: float,
                exc: BaseException) -> BaseException:
        """Account a failed attempt and say what to raise: a transport
        failure is a :class:`TransientShardError` counted against
        ``shard``; past the dial the connection's framing is unknown."""
        self.metrics.observe(
            f"dist.shard.{shard}.rpc_seconds", time.perf_counter() - started
        )
        timed_out = isinstance(exc, asyncio.TimeoutError)
        if not isinstance(exc, TransientShardError):
            self._disconnect(shard)
            if not timed_out and not isinstance(exc, OSError):
                return exc
            error = TransientShardError(
                f"shard {shard} missed the RPC deadline for {op!r}"
                if timed_out else
                f"shard {shard} transport failed during {op!r}: {exc}"
            )
            error.__cause__, exc = exc, error
        kind = "timeouts" if timed_out else "failures"
        self._counts[f"dist.shard.{shard}.{kind}"] += 1
        return exc

    def _admit(self, shard: int, op: str, timeout: float | None,
               deadline: float | None) -> float:
        """The check before every attempt — the budget is not spent,
        ``shard``'s breaker lets a call out — and the attempt's timeout.
        A refusal is a :class:`TransientShardError` no retry follows."""
        timeout = self.rpc_timeout if timeout is None else timeout
        if deadline is not None:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TransientShardError(
                    f"query budget exhausted before shard {shard} "
                    f"answered {op!r}"
                )
            timeout = min(timeout, remaining + RPC_GRACE_SECONDS)
        health = self.health[shard]
        if not health.allow():
            raise TransientShardError(
                f"shard {shard} circuit breaker is open "
                f"({health.consecutive_failures} consecutive "
                f"failure(s); last: {health.last_error})"
            )
        return timeout

    def _backoff(self, shard: int, op: str, attempt: int,
                 failure: TransientShardError,
                 deadline: float | None) -> float:
        """``failure`` ended attempt ``attempt`` on ``shard``: the pause
        before the next under :attr:`retry` — or, where none may follow,
        the error the call ends in, raised (a mutation's is a
        :class:`~repro.errors.RetryableDistError`)."""
        if self.health[shard].record_failure(failure):
            self._counts["dist.breaker_open"] += 1
        if op not in IDEMPOTENT_OPS:
            raise RetryableDistError(
                f"transient failure on non-idempotent {op!r} "
                f"against shard {shard}: {failure}  (not retried "
                "automatically — verify shard state, then re-issue)"
            ) from failure
        pause = self.retry.delay(attempt, salt=f"shard{shard}:{op}")
        # a retry must never outlive the query's own budget
        if attempt > self.retry.max_retries or (
                deadline is not None
                and time.perf_counter() + pause >= deadline):
            raise failure
        self._counts["dist.retries"] += 1
        self._counts[f"dist.shard.{shard}.retries"] += 1
        return pause

    async def _call_all(self, calls: dict, deadline: float | None = None
                        ) -> list:
        """The one RPC path: a health-tracked, retrying exchange with
        each ``shard: (doc, timeout)`` of ``calls`` that never outlives
        ``deadline`` (a ``time.perf_counter()`` value).  A round sends
        every pending shard its frame, then reads the answers in shard
        order while the shards work; a shard whose attempt failed in
        transit goes again next round, after its backoff.  Returns per
        shard its response, the :class:`DistError` its call ended in,
        or ``None`` (not called)."""
        results: list = [None] * len(self.addresses)
        attempt = 0
        while calls:
            attempt += 1
            failed, sent = {}, []  # sent: frames whose answers are unread
            try:
                for shard, (doc, timeout) in calls.items():
                    try:
                        timeout = self._admit(
                            shard, doc["op"], timeout, deadline
                        )
                    except DistError as exc:
                        results[shard] = exc
                        continue
                    try:
                        sent.append(await self._send(shard, doc, timeout))
                    except TransientShardError as exc:
                        failed[shard] = exc
                    except DistError as exc:
                        results[shard] = exc
                while sent:
                    shard = sent[0][0]
                    try:
                        results[shard] = await self._receive(*sent[0])
                        self.health[shard].record_success()
                    except TransientShardError as exc:
                        failed[shard] = exc
                    except DistError as exc:
                        results[shard] = exc
                    del sent[0]
            finally:
                for shard, *_ in sent:  # never leave an answer unread
                    self._disconnect(shard)
            calls, pause = {s: calls[s] for s in failed}, 0.0
            for shard, failure in failed.items():
                try:
                    pause = max(pause, self._backoff(
                        shard, calls[shard][0]["op"], attempt, failure,
                        deadline,
                    ))
                except DistError as exc:
                    results[shard] = exc
                    del calls[shard]
            if calls:
                await asyncio.sleep(pause)
        return results

    def _call(self, shard: int, doc: dict) -> dict:
        """One exchange with one shard; the caller holds the turn."""
        result = self._run(self._call_all({shard: (doc, None)}))[shard]
        if isinstance(result, DistError):
            raise result
        return result

    def collect(self) -> dict:
        """The ``dist.*`` counts, and each shard's breaker as gauges,
        read by :attr:`metrics` on export (waits for the turn)."""
        with self._turn:
            gauges = {}
            for shard, health in enumerate(self.health):
                gauges[f"dist.shard.{shard}.healthy"] = float(health.healthy)
                gauges[f"dist.shard.{shard}.consecutive_failures"] = (
                    health.consecutive_failures
                )
            return {"counters": dict(self._counts), "gauges": gauges}

    def close(self) -> None:
        with self._turn:
            if self._loop.is_closed():
                return
            for shard in range(len(self.addresses)):
                self._disconnect(shard)
            # one turn of the loop lets the transports finish closing
            self._run(asyncio.sleep(0))
            self._loop.close()

    def __enter__(self) -> "DistributedDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._catalog)

    # -- topology: replicas and failover ----------------------------------------------

    def attach_replica(self, shard: int, replica: Replica,
                       preference: ReadPreference | None = None) -> None:
        """Route ``shard``'s read traffic to ``replica`` whenever its
        replication lag is within ``preference``'s staleness bound;
        reads past the bound (or any replica failure) fall back to the
        leader transparently."""
        self._check_shard(shard)
        with self._turn:
            self._replicas[shard] = (
                replica,
                preference if preference is not None else ReadPreference(),
            )

    def detach_replica(self, shard: int) -> None:
        with self._turn:
            self._replicas.pop(shard, None)

    def fail_over(self, shard: int, address: tuple[str, int]) -> None:
        """Repoint ``shard`` at ``address`` — a promoted replica (or a
        restarted leader).  The catalog is untouched: every contract
        keeps its global id and its shard slot (invariant 15 —
        distribution changes placement, never answers), only the wire
        destination changes.  The shard's breaker and connection are
        reset so the next call probes the new address immediately."""
        self._check_shard(shard)
        host, port = address
        with self._turn:
            self._disconnect(shard)
            self.addresses[shard] = (str(host), int(port))
            self.health[shard].reset()
            # the promoted replica is the leader now; never read-route
            # a shard to its own leader
            self._replicas.pop(shard, None)
            self._counts["dist.failovers"] += 1

    def reset_breakers(self) -> None:
        """Close every breaker (an operator healed the network)."""
        with self._turn:
            for health in self.health:
                health.reset()

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < len(self.addresses):
            raise DistError(
                f"no shard {shard} in a {len(self.addresses)}-shard cluster"
            )

    # -- mutations (routed to one shard) ----------------------------------------------

    def register(self, name, clauses=None, attributes=None) -> RoutedContract:
        """``register(name, clauses, attributes)`` or ``register(spec)``,
        as on a single node.  Clause *texts* travel as given: a
        malformed one is the owning shard's typed rejection."""
        if clauses is None and isinstance(name, ContractSpec):
            doc = name.to_doc()
        else:
            if isinstance(clauses, (str, Formula)):
                clauses = [clauses]
            doc = {
                "name": name,
                "clauses": [str(c) for c in clauses],
                "attributes": dict(attributes or {}),
            }
        name = doc["name"]
        with self._turn:
            if name in self._by_name:
                raise DistError(f"contract {name!r} is already registered")
            shard = self.router.shard_for(name)
            self._call(shard, {"op": "register", **doc})
            routed = RoutedContract(
                contract_id=self._next_id, name=name, shard=shard
            )
            self._next_id += 1
            self._catalog[routed.contract_id] = routed
            self._by_name[name] = routed.contract_id
            self._counts["dist.registrations"] += 1
            self._counts[f"dist.shard.{shard}.contracts"] += 1
        return routed

    def deregister(self, contract_id: int) -> None:
        with self._turn:
            routed = self._catalog.get(contract_id)
            if routed is None:
                raise DistError(f"no contract with global id {contract_id}")
            self._call(routed.shard, {
                "op": "deregister", "name": routed.name,
            })
            del self._catalog[contract_id]
            del self._by_name[routed.name]
            self._counts["dist.deregistrations"] += 1

    # -- queries (fanned out to every shard) ------------------------------------------

    def query(self, query, options: QueryOptions | None = None) -> QueryOutcome:
        """One query: LTL text, a parsed formula, or a whole
        :class:`~repro.broker.spec.QuerySpec` carrying its options."""
        if isinstance(query, QuerySpec):
            if options is not None:
                raise DistError(
                    "pass either a QuerySpec or explicit options, not both"
                )
            query, options = query.query, query.to_options()
        return self.query_many([query], options)[0]

    def query_many(self, queries, options: QueryOptions | None = None
                   ) -> list[QueryOutcome]:
        """Fan a workload out to every shard and merge per query.

        The whole batch ships as one ``query_many`` RPC per shard (one
        round trip), and each shard evaluates it against only its own
        contracts; merging restores global registration order.
        """
        if isinstance(queries, (str, Formula, QuerySpec)):
            # before the loop below shreds a bare string into one
            # query per character
            raise DistError(
                "query_many takes a sequence of queries; use query() for one"
            )
        texts: list[str] = []
        for query in queries:
            if isinstance(query, QuerySpec):
                raise DistError(
                    "pass QuerySpec through query(), not query_many()"
                )
            texts.append(str(query))
        options = coerce_query_options("query_many", options)
        protocol.check_distributable(options)
        # before anything goes out: a malformed query is the caller's
        # LTLSyntaxError, as on a single node (the merge needs them too)
        formulas = [parse(text) for text in texts]
        if not texts:
            return []

        with self._turn:
            started = time.perf_counter()
            answers = self._fan_out(texts, options, started)
            outcomes = [
                self._merge(formula, [
                    (shard,
                     None if answer is None else answer["outcomes"][qi])
                    for shard, answer in enumerate(answers)
                ], options)
                for qi, formula in enumerate(formulas)
            ]
            elapsed = time.perf_counter() - started
            self._counts["dist.queries"] += len(texts)
        self.metrics.observe("dist.fanout_seconds", elapsed)
        self.metrics.observe(
            "dist.fanout_queries", len(texts), COUNT_BUCKETS
        )
        return outcomes

    def _fan_out(self, queries: list[str], options: QueryOptions,
                 started: float) -> list[dict | None]:
        """Ask every shard (its replica, where one is attached and fresh
        enough; :meth:`_call_all` for the rest); a shard that fails or
        misses the deadline yields ``None`` (merged as SKIPPED — or,
        under ``Degradation.FAIL``, raises
        :class:`~repro.errors.QueryBudgetError`)."""
        # without a deadline every shard gets the same options, encoded
        # once; with one, each shard's carry its own remaining budget
        budgeted = options.deadline_seconds is not None
        shared = None if budgeted else protocol.options_to_doc(options)
        deadline = started + options.deadline_seconds if budgeted else None
        answers: list[dict | None] = [None] * len(self.addresses)
        calls = {}
        for shard in range(len(self.addresses)):
            shard_options, timeout, options_doc = (
                options, self.rpc_timeout, shared
            )
            if budgeted:
                # propagate the *remaining* budget: time already spent
                # routing/serializing is not given back to the shard
                remaining = max(0.0, deadline - time.perf_counter())
                shard_options = options.evolve(deadline_seconds=remaining)
                options_doc = protocol.options_to_doc(shard_options)
                timeout = remaining + RPC_GRACE_SECONDS
            if shard in self._replicas:
                answers[shard] = self._replica_read(
                    shard, queries, shard_options
                )
                if answers[shard] is not None:
                    continue
            calls[shard] = ({"op": "query_many", "queries": queries,
                             **options_doc}, timeout)
        results = self._run(self._call_all(calls, deadline))
        for shard, result in enumerate(results):
            if isinstance(result, DistError):
                if options.degradation is Degradation.FAIL:
                    raise QueryBudgetError(
                        f"shard {shard} failed under Degradation.FAIL: "
                        f"{result}"
                    ) from result
                self._counts["dist.merge.skipped_shards"] += 1
            elif result is not None:
                answers[shard] = result
        return answers

    def _replica_read(self, shard: int, queries: list[str],
                      options: QueryOptions) -> dict | None:
        """Serve ``shard``'s slice of a read from its attached replica
        when the replication lag is within the read preference's bound;
        ``None`` means "go ask the leader" (stale, stalled, or the
        replica itself failed)."""
        replica, preference = self._replicas[shard]
        try:
            report = replica.poll()
            if (report.lag_records > preference.max_staleness_records
                    or replica.stalled):
                self._counts["dist.replica_read_fallbacks"] += 1
                return None
            outcomes = replica.query_many(queries, options)
        except Exception:
            # any replica trouble falls back to the leader; reads must
            # never be *less* available with a replica attached
            self._counts["dist.replica_read_fallbacks"] += 1
            return None
        id_to_name = {
            c.contract_id: c.name for c in replica.db.contracts()
        }
        self._counts["dist.replica_reads"] += 1
        return protocol.outcomes_doc(outcomes, id_to_name)

    def _merge(self, formula: Formula,
               per_shard: list[tuple[int, dict | None]],
               options: QueryOptions) -> QueryOutcome:
        """Merge shard outcome documents into one global outcome, in
        ascending global-id (registration) order — the order a
        single-node database reports — from the candidates each shard
        named that the catalog places on it.  A shard with no document
        failed: every contract it owns is a SKIPPED candidate (nobody
        knows which of them its prefilter would have kept)."""
        catalog, by_name = self._catalog, self._by_name
        verdicts: dict[int, Verdict] = {}
        parts = []
        for shard, doc in per_shard:
            if doc is None:
                verdicts.update(
                    (global_id, Verdict.SKIPPED)
                    for global_id, routed in catalog.items()
                    if routed.shard == shard
                )
                continue
            parts.append(protocol.stats_from_doc(doc.get("stats") or {}))
            for name, value in (doc.get("verdicts") or {}).items():
                global_id = by_name.get(name)
                if (value is not None and global_id is not None
                        and catalog[global_id].shard == shard):
                    verdicts[global_id] = Verdict(value)

        # every shard plans for itself and the shards ran concurrently:
        # QueryStats knows how each of its fields reads across them
        stats = QueryStats.combined(parts)
        stats.database_size = len(catalog)
        stats.deadline_seconds = options.deadline_seconds
        stats.step_budget = options.step_budget
        return assemble_outcome(
            formula, dict(sorted(verdicts.items())), catalog,
            options.degradation, stats,
        )

    # -- streaming & operations -------------------------------------------------------

    def ingest(self, events) -> dict:
        """Route stream records to the shards owning their contracts
        (broadcast records go everywhere) and merge the reports."""
        per_shard: list[list] = [[] for _ in self.addresses]
        with self._turn:
            for record in events:
                if not isinstance(record, dict):
                    raise DistError(
                        "distributed ingest takes JSON stream records "
                        "({'events': [...], 'contract': name-or-null})"
                    )
                name = record.get("contract")
                if name is None:
                    for bucket in per_shard:
                        bucket.append(record)
                else:
                    global_id = self._by_name.get(name)
                    if global_id is None:
                        raise DistError(f"no contract {name!r} registered")
                    per_shard[self._catalog[global_id].shard].append(record)
            responses = self._run(self._call_all({
                shard: ({"op": "ingest", "events": records}, None)
                for shard, records in enumerate(per_shard) if records
            }))
            merged = {"events": 0, "deliveries": 0, "unknown_events": 0,
                      "alerts": []}
            for response in responses:
                if isinstance(response, DistError):
                    raise response
                if response is None:
                    continue
                report = response["report"]
                for key in ("events", "deliveries", "unknown_events"):
                    merged[key] += report[key]
                merged["alerts"].extend(report["alerts"])
            self._counts["dist.ingest.events"] += merged["events"]
        return merged

    def status(self) -> dict:
        """Per-shard status documents plus the front-end's view; a
        shard that cannot be reached is reported (``"ok": False`` and
        the error), not raised."""
        with self._turn:
            responses = self._run(self._call_all({
                shard: ({"op": "status"}, None)
                for shard in range(len(self.addresses))
            }))
            return {
                "shards": [
                    {"ok": False, "error": str(response), "shard_id": shard}
                    if isinstance(response, DistError) else response
                    for shard, response in enumerate(responses)
                ],
                "contracts": len(self._catalog),
                "addresses": [list(a) for a in self.addresses],
            }

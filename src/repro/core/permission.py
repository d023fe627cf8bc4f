"""Checking that a contract permits a temporal query.

This is the paper's core algorithmic contribution (§3.1, §6.2): a
contract ``C(phi)`` *permits* a query ``psi`` iff the BAs of the two
formulas admit a **simultaneous lasso path** (Definition 7) — a pair of
lasso paths, one per automaton, whose step-wise labels are *compatible*:
the query label mentions only contract-vocabulary events and does not
conflict with the contract label.  Theorem 4 shows this captures exactly
the projection-class semantics of Definition 5, and Theorem 6 shows the
problem is PSPACE-complete in the formulas (LOGSPACE in the automata).

One algorithm decides it, over the flat int/bitset encoding of
:mod:`repro.automata.encode`: :func:`permits_encoded` is the paper's
Algorithm 2 — an outer depth-first search over compatible product pairs
with a nested cycle search at every candidate knot, pruned by the
precomputed *seeds* of §6.2.4.  The broker calls it with the encodings,
binding and seed mask it precomputed, and the binding remembers the
product adjacency the pair's searches expanded, so a repeated check
searches a graph it already has.  :func:`permits` takes object
automata instead: it encodes both sides and delegates, for callers that
hold a :class:`~repro.automata.buchi.BuchiAutomaton` and check it once.

The compatibility product is built in one place, :func:`_expand_pair`.
Besides the decider, :func:`lasso_components` walks it whole and finds
its accepting components — the SCC characterization behind
:func:`find_witness`, which extracts a concrete simultaneous lasso path
(examples use it to *explain* why a contract was returned), and behind
the stream engine's watch masks
(:func:`repro.stream.encoded.winning_mask`).  The references the decider
is tested against share none of it: the explicit-model oracle
:func:`repro.check.oracle.oracle_permits`, and, on every witness run,
:meth:`BuchiAutomaton.accepts` and :func:`repro.ltl.semantics.satisfies`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

from ..automata import graph
from ..automata.buchi import BuchiAutomaton
from ..automata.encode import (
    SUCCESSOR_TABLE_LIMIT,
    EncodedAutomaton,
    QueryBinding,
    bind_query,
    encode_automaton,
)
from ..automata.labels import Label
from ..errors import BudgetExceededError
from ..ltl.runs import Run
from .budget import ExecutionBudget
from .seeds import compute_seeds_mask

State = Hashable


@dataclass
class PermissionStats:
    """Work counters for one permission check (consumed by benchmarks).

    ``pairs_visited + cycle_nodes_visited`` is the check's *search step*
    count — the quantity an :class:`~repro.core.budget.ExecutionBudget`
    charges against.  ``budget_exhausted`` is set when the check was
    interrupted by its budget (in which case ``result`` is meaningless
    and :class:`~repro.errors.BudgetExceededError` was raised).
    """

    pairs_visited: int = 0
    cycle_searches: int = 0
    cycle_nodes_visited: int = 0
    seeds_skipped: int = 0
    result: bool = False
    budget_exhausted: bool = False

    @property
    def search_steps(self) -> int:
        return self.pairs_visited + self.cycle_nodes_visited


@dataclass(frozen=True)
class WitnessStep:
    """One instant of a simultaneous lasso path."""

    contract_state: State
    query_state: State
    contract_label: Label
    query_label: Label

    @property
    def combined_label(self) -> Label:
        """The satisfiable conjunction of the two labels."""
        combined = self.contract_label.conjoin(self.query_label)
        assert combined is not None, "witness steps are compatible by construction"
        return combined


@dataclass(frozen=True)
class PermissionWitness:
    """A finite representation of a simultaneous lasso path: the prefix
    into the knot and the cycle back to it."""

    prefix: tuple[WitnessStep, ...]
    cycle: tuple[WitnessStep, ...]

    def to_run(self) -> Run:
        """A concrete ultimately-periodic run following the witness.

        Every step's snapshot makes the step's combined label true and
        every unmentioned event false; the result is accepted by both
        automata and uses only contract-vocabulary events beyond the
        query's requirements.
        """
        prefix = tuple(step.combined_label.pick_snapshot() for step in self.prefix)
        loop = tuple(step.combined_label.pick_snapshot() for step in self.cycle)
        return Run(prefix, loop)

    def __str__(self) -> str:
        def fmt(steps: tuple[WitnessStep, ...]) -> str:
            return " ; ".join(str(s.combined_label) for s in steps)

        return f"prefix[{fmt(self.prefix)}] cycle[{fmt(self.cycle)}]"


# -- the decider -------------------------------------------------------------------
#
# The search walks the flat int encoding of repro.automata.encode.
# Product pairs are packed as ``contract_id * num_query_states +
# query_id``; cycle nodes additionally pack the foundFinal flag into the
# low bit.  The encoding preserves per-state transition order, so the
# visit order — and with it PermissionStats and the step at which an
# ExecutionBudget trips — is a function of the automata alone.


def _expand_pair(
    contract: EncodedAutomaton,
    query: EncodedAutomaton,
    binding: QueryBinding,
    pair: int,
) -> tuple[int, ...]:
    """The compatible product successors of ``pair`` — the CSR rows of
    both automata joined through the Definition-7 ``compat`` table —
    recorded in ``binding.successors``.

    A successor reached through several transition pairs is listed once,
    at its *last* position: the search pushes a list in order and pops
    from the end, so an earlier copy is always popped after the later
    one and skipped as visited.  The entry is built whole and published
    by one store: a concurrent search of the same binding reads either
    nothing or all of it.
    """
    nq = query.num_states
    c, q = divmod(pair, nq)
    c_lab, c_dst = contract.trans_labels, contract.trans_dsts
    c_row = range(contract.offsets[c], contract.offsets[c + 1])
    q_lab, q_dst = query.trans_labels, query.trans_dsts
    compat = binding.compat
    found: list[int] = []
    for qi in range(query.offsets[q], query.offsets[q + 1]):
        row = compat[q_lab[qi]]
        if not row:
            continue
        dq = q_dst[qi]
        for ci in c_row:
            if (row >> c_lab[ci]) & 1:
                found.append(c_dst[ci] * nq + dq)
    successors = tuple(dict.fromkeys(reversed(found)))[::-1]
    binding.successors[pair] = successors
    return successors


def permits_encoded(
    contract: EncodedAutomaton,
    query: EncodedAutomaton,
    binding: QueryBinding | None = None,
    *,
    seeds_mask: int | None = None,
    use_seeds: bool = True,
    stats: PermissionStats | None = None,
    budget: ExecutionBudget | None = None,
) -> bool:
    """Decide permission — Algorithm 2: nested depth-first search for
    a simultaneous lasso path.

    Args:
        contract: the encoded contract BA (over its full vocabulary).
        query: the encoded query BA (over its own events, in the
            contract's event table).
        binding: precomputed :func:`repro.automata.encode.bind_query`
            table; computed on the fly when omitted.  The search reads
            the product's adjacency from ``binding.successors`` and
            records there what it had to expand, so a later check on the
            same binding runs the same search — visit order, counters,
            budget charges — without walking the CSR rows again.
        seeds_mask: bitset of seed state ids
            (:func:`repro.core.seeds.compute_seeds_mask`); computed on
            the fly when ``use_seeds`` is set and none given.
        use_seeds: apply the §6.2.4 seed filter to candidate knots
            (``False`` is the ablation of
            ``benchmarks/bench_ablation_seeds.py``; the broker always
            applies it).
        stats: optional mutable counters, written when the search ends.
        budget: optional :class:`~repro.core.budget.ExecutionBudget`; the
            search charges it once per visited pair / cycle node and
            propagates its :class:`~repro.errors.BudgetExceededError`
            (setting ``stats.budget_exhausted``) instead of ever
            answering a truncated — and therefore possibly wrong —
            boolean.
    """
    if stats is None:
        stats = PermissionStats()
    if binding is None:
        binding = bind_query(contract, query)
    if not use_seeds:
        seeds_mask = None
    elif seeds_mask is None:
        seeds_mask = compute_seeds_mask(contract)

    nq = query.num_states
    query_final = query.final_mask
    contract_final = contract.final_mask
    table = binding.successors
    charge = None if budget is None else budget.charge
    # the four counters live in locals and are written back once, below
    pairs, nodes = stats.pairs_visited, stats.cycle_nodes_visited
    searches, skipped = stats.cycle_searches, stats.seeds_skipped
    visited: set[int] = set()
    stack: list[int] = [contract.initial * nq + query.initial]
    try:
        while stack:
            pair = stack.pop()
            if pair in visited:
                continue
            visited.add(pair)
            pairs += 1
            if charge is not None:
                charge(pairs + nodes)
            is_knot = (query_final >> (pair % nq)) & 1
            if is_knot and seeds_mask is not None and not (
                (seeds_mask >> (pair // nq)) & 1
            ):
                skipped += 1
            elif is_knot:
                # The nested search of Algorithm 2: is there a non-empty
                # cycle from the knot ``pair`` back to itself that visits
                # a pair with a contract-final state?  It explores the
                # product augmented with a boolean *foundFinal* flag (the
                # paper's variable of the same name), packed as ``(pair
                # << 1) | foundFinal``, so each augmented node is visited
                # once — the iterative equivalent of the memoization
                # scheme the paper describes at the end of §6.2.2.
                searches += 1
                seen: set[int] = set()
                todo = [(pair << 1) | ((contract_final >> (pair // nq)) & 1)]
                while todo:
                    node = todo.pop()
                    if node in seen:
                        continue
                    seen.add(node)
                    nodes += 1
                    if charge is not None:
                        charge(pairs + nodes)
                    flag = node & 1
                    successors = table.get(node >> 1)
                    if successors is None:
                        successors = _expand_pair(
                            contract, query, binding, node >> 1
                        )
                    if flag and pair in successors:
                        stats.result = True
                        return True
                    for succ in successors:
                        succ = (succ << 1) | flag | (
                            (contract_final >> (succ // nq)) & 1
                        )
                        if succ not in seen:
                            todo.append(succ)
            successors = table.get(pair)
            if successors is None:
                successors = _expand_pair(contract, query, binding, pair)
            for succ in successors:
                if succ not in visited:
                    stack.append(succ)
        stats.result = False
        return False
    except BudgetExceededError:
        stats.budget_exhausted = True
        raise
    finally:
        stats.pairs_visited, stats.cycle_nodes_visited = pairs, nodes
        stats.cycle_searches, stats.seeds_skipped = searches, skipped
        # an adversarial product is not kept: it is searched again from
        # the CSR rows, at the cost and the budget trip it always had
        if len(table) > SUCCESSOR_TABLE_LIMIT:
            table.clear()


def permits(
    contract: BuchiAutomaton,
    query: BuchiAutomaton,
    vocabulary: frozenset[str] | None = None,
    *,
    seeds: frozenset | None = None,
    use_seeds: bool = True,
    stats: PermissionStats | None = None,
    budget: ExecutionBudget | None = None,
) -> bool:
    """:func:`permits_encoded` for object automata: encode both sides,
    bind them and delegate.

    Args:
        contract: the contract BA.
        query: the query BA.
        vocabulary: the contract's event vocabulary (the variables of its
            LTL specification).  Defaults to the events on the contract
            BA's labels — callers that know the true vocabulary should
            pass it, since a contract may cite an event in its formula
            that its reduced BA no longer mentions.
        seeds: precomputed :func:`repro.core.seeds.compute_seeds` result
            (contract states); computed on the fly when ``use_seeds`` is
            set and none given.

    The remaining arguments are :func:`permits_encoded`'s.
    """
    encoded = encode_automaton(contract, vocabulary)
    encoded_query = encode_automaton(query, table=encoded.table)
    return permits_encoded(
        encoded,
        encoded_query,
        bind_query(encoded, encoded_query),
        seeds_mask=None if seeds is None else encoded.state_mask(seeds),
        use_seeds=use_seeds,
        stats=stats,
        budget=budget,
    )


def lasso_components(
    contract: EncodedAutomaton,
    query: EncodedAutomaton,
    binding: QueryBinding,
    starts: Iterable[int],
) -> tuple[dict[int, tuple[int, ...]], list[list[int]]]:
    """The compatibility product reachable from the packed pairs
    ``starts``, as an adjacency map, and its *accepting components*:
    the cyclic strongly connected components holding both a query-final
    and a contract-final pair — exactly where a simultaneous lasso can
    knot (Definition 7, §6.2.2).

    Successor lists come from ``binding.successors`` or
    :func:`_expand_pair`, and the table is left bounded by
    :data:`~repro.automata.encode.SUCCESSOR_TABLE_LIMIT` as
    :func:`permits_encoded` leaves it."""
    table = binding.successors
    adjacency: dict[int, tuple[int, ...]] = {}
    stack = list(starts)
    while stack:
        pair = stack.pop()
        if pair in adjacency:
            continue
        successors = table.get(pair)
        if successors is None:
            successors = _expand_pair(contract, query, binding, pair)
        adjacency[pair] = successors
        stack.extend(successors)
    if len(table) > SUCCESSOR_TABLE_LIMIT:
        table.clear()

    nq = query.num_states
    query_final, contract_final = query.final_mask, contract.final_mask
    return adjacency, [
        component
        for component in graph.strongly_connected_components(
            adjacency, adjacency.__getitem__
        )
        if any((query_final >> (p % nq)) & 1 for p in component)
        and any((contract_final >> (p // nq)) & 1 for p in component)
        and graph.is_cyclic_component(component, adjacency.__getitem__)
    ]


def find_witness(
    contract: BuchiAutomaton,
    query: BuchiAutomaton,
    vocabulary: frozenset[str] | None = None,
) -> PermissionWitness | None:
    """A concrete simultaneous lasso path, or ``None`` if not permitted.

    The witness is assembled from the first accepting component of
    :func:`lasso_components`: a shortest prefix to a knot pair inside
    it, then a cycle knot → contract-final pair → knot that stays in it.
    Each step's labels are the object automata's, found by transition
    position — the CSR rows list :meth:`BuchiAutomaton.successors` in
    order.
    """
    encoded = encode_automaton(
        contract, contract.events() if vocabulary is None else vocabulary
    )
    encoded_query = encode_automaton(query, table=encoded.table)
    binding = bind_query(encoded, encoded_query)
    nq = encoded_query.num_states
    start = encoded.initial * nq + encoded_query.initial
    adjacency, components = lasso_components(
        encoded, encoded_query, binding, (start,)
    )
    if not components:
        return None

    component = set(components[0])
    successors = adjacency.__getitem__
    knots = {p for p in component if encoded_query.is_final(p % nq)}
    finals = {p for p in component if encoded.is_final(p // nq)}
    prefix = graph.shortest_path(start, knots, successors)
    knot = prefix[-1]
    to_final = graph.shortest_path(
        knot, finals, successors, within=component, require_step=True
    )
    back = graph.shortest_path(to_final[-1], {knot}, successors, within=component)

    def step(pair: int, succ: int) -> WitnessStep:
        c, q = divmod(pair, nq)
        c_state, q_state = encoded.states[c], encoded_query.states[q]
        return next(
            WitnessStep(c_state, q_state, c_label, q_label)
            for qi, (q_label, _) in enumerate(
                query.successors(q_state), encoded_query.offsets[q]
            )
            for ci, (c_label, _) in enumerate(
                contract.successors(c_state), encoded.offsets[c]
            )
            if encoded.trans_dsts[ci] * nq + encoded_query.trans_dsts[qi] == succ
            and (binding.compat[encoded_query.trans_labels[qi]]
                 >> encoded.trans_labels[ci]) & 1
        )

    def steps(path: list[int]) -> tuple[WitnessStep, ...]:
        return tuple(step(a, b) for a, b in zip(path, path[1:]))

    return PermissionWitness(
        prefix=steps(prefix), cycle=steps(to_final) + steps(back)
    )

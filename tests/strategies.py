"""Hypothesis strategies for LTL formulas, labels, runs and contracts.

The formula strategy generates bounded-depth trees over a tiny
vocabulary; paired with the random-run strategy it drives the
differential tests between the ground-truth evaluator and the automata
pipeline, which are the strongest correctness checks in the suite.

They live with the tests because they need ``hypothesis``, a test
dependency that no module under ``src`` imports (``tests/layers.py``);
the shipped harness draws its cases from :mod:`repro.check.generators`.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.automata.buchi import BuchiAutomaton, Transition
from repro.automata.labels import Label, neg, pos
from repro.broker.contract import ContractSpec
from repro.check.cases import FilterSpec
from repro.check.generators import _ROUTES, _TIERS
from repro.ltl import ast as A
from repro.ltl.runs import Run

__all__ = [
    "EVENTS",
    "attribute_filters",
    "attribute_maps",
    "buchi_automata",
    "contract_specs",
    "filter_specs",
    "formulas",
    "labels",
    "props",
    "runs",
    "snapshots",
]

#: Small vocabulary keeps automata tiny and collision-rich.
EVENTS = ("a", "b", "c")


def props(events: tuple[str, ...] = EVENTS) -> st.SearchStrategy:
    return st.sampled_from(events).map(A.Prop)


def formulas(
    events: tuple[str, ...] = EVENTS, max_depth: int = 4
) -> st.SearchStrategy:
    """Random LTL formulas over ``events`` with bounded depth."""
    atoms = st.one_of(
        props(events),
        st.just(A.TRUE),
        st.just(A.FALSE),
    )

    def extend(children: st.SearchStrategy) -> st.SearchStrategy:
        unary = st.sampled_from([A.Not, A.Next, A.Finally, A.Globally])
        binary = st.sampled_from(
            [A.And, A.Or, A.Implies, A.Iff, A.Until, A.WeakUntil,
             A.Before, A.Release]
        )
        return st.one_of(
            st.builds(lambda op, x: op(x), unary, children),
            st.builds(lambda op, x, y: op(x, y), binary, children, children),
        )

    return st.recursive(atoms, extend, max_leaves=2 ** max_depth)


def snapshots(events: tuple[str, ...] = EVENTS) -> st.SearchStrategy:
    return st.sets(st.sampled_from(events)).map(frozenset)


def runs(
    events: tuple[str, ...] = EVENTS,
    max_prefix: int = 4,
    max_loop: int = 4,
) -> st.SearchStrategy:
    """Random ultimately-periodic runs over ``events``."""
    return st.builds(
        Run,
        st.lists(snapshots(events), max_size=max_prefix).map(tuple),
        st.lists(snapshots(events), min_size=1, max_size=max_loop).map(tuple),
    )


def labels(events: tuple[str, ...] = EVENTS) -> st.SearchStrategy:
    """Random satisfiable conjunction-of-literal labels."""

    def build(assignment: dict) -> Label:
        literals = [
            pos(e) if polarity else neg(e)
            for e, polarity in assignment.items()
        ]
        return Label.of(literals)

    return st.dictionaries(
        st.sampled_from(events), st.booleans(), max_size=len(events)
    ).map(build)


def buchi_automata(
    events: tuple[str, ...] = EVENTS,
    max_states: int = 5,
    max_transitions: int = 10,
) -> st.SearchStrategy:
    """Random (not LTL-shaped) Büchi automata — arbitrary graphs with
    random literal-conjunction labels and random final sets.

    These exercise the automaton-generic algorithms (bisimulation,
    products, reductions, permission) on shapes the translator never
    produces: unreachable states, dead ends, parallel edges."""

    @st.composite
    def build(draw):
        num_states = draw(st.integers(min_value=1, max_value=max_states))
        states = list(range(num_states))
        num_transitions = draw(
            st.integers(min_value=0, max_value=max_transitions)
        )
        transitions = [
            Transition(
                draw(st.sampled_from(states)),
                draw(labels(events)),
                draw(st.sampled_from(states)),
            )
            for _ in range(num_transitions)
        ]
        final = draw(st.sets(st.sampled_from(states)))
        return BuchiAutomaton(states, 0, transitions, final)

    return build()


# -- contract-database strategies (used by the conformance harness tests) -----

def attribute_maps() -> st.SearchStrategy:
    """Relational attribute dictionaries over the harness's typed
    schema (:func:`repro.check.generators.random_attributes`)."""

    return st.fixed_dictionaries(
        {
            "price": st.integers(min_value=100, max_value=1000),
            "route": st.sampled_from(_ROUTES),
            "tier": st.sampled_from(_TIERS),
        }
    )


def contract_specs(
    events: tuple[str, ...] = EVENTS,
    max_clauses: int = 2,
    max_depth: int = 3,
) -> st.SearchStrategy:
    """Random :class:`~repro.broker.contract.ContractSpec` values with
    bounded-depth clauses and typed relational attributes."""

    return st.builds(
        lambda tag, clauses, attributes: ContractSpec(
            name=f"spec-{tag}",
            clauses=tuple(clauses),
            attributes=attributes,
        ),
        st.integers(min_value=0, max_value=10 ** 6),
        st.lists(
            formulas(events, max_depth=max_depth),
            min_size=1,
            max_size=max_clauses,
        ),
        attribute_maps(),
    )


def filter_specs(max_conditions: int = 2) -> st.SearchStrategy:
    """Random serializable :class:`~repro.check.cases.FilterSpec`
    values over the :func:`attribute_maps` schema."""

    price_condition = st.tuples(
        st.just("price"),
        st.sampled_from(("<=", ">", ">=", "<")),
        st.sampled_from((200, 400, 600, 800)),
    )
    route_condition = st.one_of(
        st.tuples(st.just("route"), st.just("=="), st.sampled_from(_ROUTES)),
        st.tuples(
            st.just("route"),
            st.just("in"),
            st.lists(
                st.sampled_from(_ROUTES), min_size=1, max_size=2, unique=True
            ).map(tuple),
        ),
    )
    tier_condition = st.tuples(
        st.just("tier"), st.sampled_from(("==", "!=")), st.sampled_from(_TIERS)
    )
    return st.lists(
        st.one_of(price_condition, route_condition, tier_condition),
        max_size=max_conditions,
    ).map(lambda conditions: FilterSpec(tuple(conditions)))


def attribute_filters(max_conditions: int = 2) -> st.SearchStrategy:
    """Random built :class:`~repro.broker.relational.AttributeFilter`
    values (the materialized form of :func:`filter_specs`)."""
    return filter_specs(max_conditions).map(lambda spec: spec.build())

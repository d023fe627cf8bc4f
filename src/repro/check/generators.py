"""Deterministic random-case generation for the conformance harness.

Unlike ``tests/strategies.py`` (hypothesis strategies for the
pytest suite), these generators are plain :mod:`random`-based so the
shipped harness needs no test-only dependency, reproduces a case from
``(seed, case_index)`` alone, and can report that pair in CI logs.

The formula distribution mirrors the hypothesis strategy the suite has
always used for its differential tests: bounded-depth trees over a tiny
vocabulary (collision-rich, so contracts and queries interact), the full
operator set including the exotic ``Before``/``Release``/``WeakUntil``,
plus constants.  Queries draw from one *extra* event the contracts never
cite, so the Example-4 regime (a required alien event is never
permitted) is generated organically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..ltl import ast as A
from ..ltl.printer import format_formula
from .cases import CheckCase, ContractCase, FilterSpec

_UNARY = (A.Not, A.Next, A.Finally, A.Globally)
_BINARY = (
    A.And,
    A.Or,
    A.Implies,
    A.Iff,
    A.Until,
    A.WeakUntil,
    A.Before,
    A.Release,
)

_ROUTES = ("AMS-JFK", "SFO-NRT", "CDG-GRU")
_TIERS = ("basic", "flex", "premium")


@dataclass(frozen=True)
class CheckProfile:
    """Shape of the generated cases.

    Small alphabets keep the oracle's explicit model tiny; the defaults
    generate the collision-rich regime the symbolic deciders find
    hardest (shared events across clauses and between contracts and
    queries).
    """

    contract_events: tuple[str, ...] = ("a", "b", "c")
    #: query pool; events beyond ``contract_events`` exercise Example 4
    query_events: tuple[str, ...] = ("a", "b", "c", "x")
    min_contracts: int = 2
    max_contracts: int = 4
    max_clauses: int = 2
    contract_depth: int = 3
    query_depth: int = 3
    max_filter_conditions: int = 2


#: Named profiles the CLI exposes.
PROFILES: dict[str, CheckProfile] = {
    "small": CheckProfile(),
    "tiny": CheckProfile(
        contract_events=("a", "b"),
        query_events=("a", "b", "x"),
        min_contracts=1,
        max_contracts=2,
        max_clauses=1,
        contract_depth=2,
        query_depth=2,
        max_filter_conditions=1,
    ),
    "wide": CheckProfile(
        contract_events=("a", "b", "c", "d"),
        query_events=("a", "b", "c", "d", "x"),
        min_contracts=3,
        max_contracts=5,
        max_clauses=3,
        contract_depth=4,
        query_depth=4,
    ),
}


def random_formula(
    rng: random.Random, events: tuple[str, ...], max_depth: int
) -> A.Formula:
    """A random bounded-depth LTL formula over ``events``."""
    if max_depth <= 0 or rng.random() < 0.30:
        roll = rng.random()
        if roll < 0.80:
            return A.Prop(rng.choice(events))
        if roll < 0.90:
            return A.TRUE
        return A.FALSE
    if rng.random() < 0.45:
        op = rng.choice(_UNARY)
        return op(random_formula(rng, events, max_depth - 1))
    op = rng.choice(_BINARY)
    return op(
        random_formula(rng, events, max_depth - 1),
        random_formula(rng, events, max_depth - 1),
    )


def random_attributes(rng: random.Random) -> dict:
    """Relational attributes from a small typed pool (so generated
    filters have realistic selectivity)."""
    return {
        "price": rng.randrange(100, 1001, 50),
        "route": rng.choice(_ROUTES),
        "tier": rng.choice(_TIERS),
    }


def random_filter_spec(
    rng: random.Random, max_conditions: int
) -> FilterSpec:
    """A random attribute filter over the :func:`random_attributes`
    schema; empty (match-all) filters are common on purpose."""
    count = rng.randint(0, max_conditions)
    conditions = []
    for _ in range(count):
        kind = rng.randrange(5)
        if kind == 0:
            conditions.append(
                ("price", rng.choice(("<=", ">")), rng.choice(
                    (200, 400, 600, 800)
                ))
            )
        elif kind == 1:
            conditions.append(("route", "==", rng.choice(_ROUTES)))
        elif kind == 2:
            conditions.append(
                ("route", "in", tuple(
                    rng.sample(_ROUTES, rng.randint(1, 2))
                ))
            )
        elif kind == 3:
            conditions.append(("tier", "!=", rng.choice(_TIERS)))
        else:
            conditions.append(("price", ">=", rng.choice((100, 300, 500))))
    return FilterSpec(tuple(conditions))


def generate_case(
    seed: int, case_index: int, profile: CheckProfile | None = None
) -> CheckCase:
    """The fully deterministic ``(seed, case_index)`` -> case mapping.

    The per-case RNG is derived from both numbers so any case of a run
    can be regenerated in isolation (the repro artifact records them).
    """
    profile = profile or PROFILES["small"]
    rng = random.Random(seed * 1_000_003 + case_index)
    num_contracts = rng.randint(profile.min_contracts, profile.max_contracts)
    contracts = []
    for i in range(num_contracts):
        num_clauses = rng.randint(1, profile.max_clauses)
        clauses = tuple(
            format_formula(
                random_formula(
                    rng, profile.contract_events, profile.contract_depth
                )
            )
            for _ in range(num_clauses)
        )
        contracts.append(
            ContractCase(
                name=f"c{i}",
                clauses=clauses,
                attributes=random_attributes(rng),
            )
        )
    query = format_formula(
        random_formula(rng, profile.query_events, profile.query_depth)
    )
    filter_spec = random_filter_spec(rng, profile.max_filter_conditions)
    return CheckCase(
        case_id=f"seed{seed}-case{case_index}",
        contracts=tuple(contracts),
        query=query,
        filter=filter_spec,
    )

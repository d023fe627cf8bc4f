"""The one permission decider, against the independent oracle.

:func:`permits_encoded` (and the object-signature adapter
:func:`permits`, which encodes and delegates) must answer exactly like
:func:`repro.check.oracle.oracle_permits`, which enumerates the explicit
snapshot alphabet and shares no code with it — on the paper fixtures
and on random LTL formulas, with and without the seed filter.  Work
counters and budget trip points are a function of the automata alone,
identical through either entry point — and identical whether the
binding's successor table is empty, full or half filled.
"""

import dataclasses

import pytest
from hypothesis import given, settings

from repro.automata.buchi import BuchiAutomaton
from repro.automata.encode import (
    SUCCESSOR_TABLE_LIMIT,
    bind_query,
    encode_automaton,
)
from repro.automata.ltl2ba import translate
from repro.check.oracle import oracle_permits
from repro.core.budget import ExecutionBudget, StepBudget
from repro.core.permission import (
    PermissionStats,
    permits,
    permits_encoded,
)
from repro.core.seeds import compute_seeds, compute_seeds_mask
from repro.errors import BudgetExceededError
from repro.ltl.parser import parse

from tests.strategies import formulas


def ba_of(text: str) -> BuchiAutomaton:
    return translate(parse(text))


PAIRS = [
    ("G(a -> F b)", "F b"),
    ("G(a -> F b)", "F(b && F a)"),
    ("(a U b) && G(c -> F a)", "F c"),
    ("F a", "F(a && F c)"),
    ("G a", "G(a && b)"),
]


def assert_decider_matches_oracle(contract, query, *, use_seeds=True):
    """The decider, through the encoded entry point and through the
    object-signature adapter, must return the oracle's verdict — and the
    adapter call must fill ``PermissionStats`` exactly like the encoded
    call it delegates to."""
    expected = oracle_permits(contract, query)
    enc_c = encode_automaton(contract)
    enc_q = encode_automaton(query)

    s_enc, s_obj = PermissionStats(), PermissionStats()
    assert permits_encoded(
        enc_c, enc_q, use_seeds=use_seeds, stats=s_enc
    ) == expected
    assert permits(
        contract, query, use_seeds=use_seeds, stats=s_obj
    ) == expected
    assert s_enc.result == expected
    assert dataclasses.asdict(s_obj) == dataclasses.asdict(s_enc)
    return expected


class TestFixtureParity:
    @pytest.mark.parametrize("contract,query", PAIRS)
    def test_verdict_and_stats_identical(self, contract, query):
        assert_decider_matches_oracle(ba_of(contract), ba_of(query))

    @pytest.mark.parametrize("contract,query", PAIRS)
    def test_parity_without_seed_filter(self, contract, query):
        assert_decider_matches_oracle(
            ba_of(contract), ba_of(query), use_seeds=False
        )

    def test_airfare_outcomes(self, airfare_contracts):
        q = ba_of("F(missedFlight && F(refund || dateChange))")
        enc_q = encode_automaton(q)
        expected = {"Ticket A": True, "Ticket B": True, "Ticket C": False}
        for name, want in expected.items():
            c = airfare_contracts[name]
            assert oracle_permits(c.ba, q, c.vocabulary) is want
            assert permits_encoded(c.encoded, enc_q) is want
            assert permits(c.ba, q, c.vocabulary, seeds=c.seeds) is want


class TestBudgetParity:
    def test_budget_trips_at_identical_step(self):
        """A check under a step budget of N exhausts on step N + 1,
        whether the caller holds encodings or object automata — MAYBE
        degradation must not depend on the entry point."""
        contract, query = ba_of("G(a -> F b)"), ba_of("G F b")
        enc_c, enc_q = encode_automaton(contract), encode_automaton(query)

        probe = PermissionStats()
        permits_encoded(enc_c, enc_q, use_seeds=False, stats=probe)
        assert probe.search_steps > 1
        cap = probe.search_steps - 1

        for run in (
            lambda b, s: permits_encoded(
                enc_c, enc_q, use_seeds=False, stats=s, budget=b
            ),
            lambda b, s: permits(
                contract, query, use_seeds=False, stats=s, budget=b
            ),
        ):
            stats = PermissionStats()
            budget = ExecutionBudget(steps=StepBudget(cap))
            with pytest.raises(BudgetExceededError):
                run(budget, stats)
            assert stats.budget_exhausted
            assert budget.exhausted_reason == "steps"
            assert stats.search_steps == cap + 1


def run_search(enc_c, enc_q, binding, steps=None):
    """One check on ``binding``: ``(verdict, PermissionStats)``, the
    verdict ``None`` when a step budget of ``steps`` interrupted it."""
    stats = PermissionStats()
    budget = None if steps is None else ExecutionBudget(steps=StepBudget(steps))
    try:
        verdict = permits_encoded(
            enc_c, enc_q, binding, stats=stats, budget=budget
        )
    except BudgetExceededError:
        verdict = None
    return verdict, stats


def assert_same_search_cold_or_warm(contract, query):
    """What a check computes does not depend on what earlier checks left
    in ``binding.successors``: same verdict, same counters, and a step
    budget of any size trips (or not) at the same step."""
    enc_c, enc_q = encode_automaton(contract), encode_automaton(query)
    binding = bind_query(enc_c, enc_q)
    assert binding.successors == {}
    cold = run_search(enc_c, enc_q, binding)
    assert 0 < len(binding.successors) <= cold[1].search_steps
    warm = run_search(enc_c, enc_q, binding)
    binding.successors.clear()
    cleared = run_search(enc_c, enc_q, binding)
    assert cold == warm == cleared

    total = cold[1].search_steps
    for steps in range(1, total + 1):
        on_cold = run_search(enc_c, enc_q, bind_query(enc_c, enc_q), steps)
        on_warm = run_search(enc_c, enc_q, binding, steps)
        assert on_cold == on_warm
        if steps < total:
            assert on_cold[0] is None
            assert on_cold[1].budget_exhausted
            assert on_cold[1].search_steps == steps + 1
        else:
            assert on_cold == cold


class TestSuccessorTable:
    """``binding.successors`` changes what a check costs, never what it
    computes."""

    @pytest.mark.parametrize("contract,query", PAIRS)
    def test_same_search_cold_or_warm(self, contract, query):
        assert_same_search_cold_or_warm(ba_of(contract), ba_of(query))

    @settings(max_examples=25, deadline=None)
    @given(spec=formulas(max_depth=3), q=formulas(max_depth=3))
    def test_same_search_cold_or_warm_on_random_formulas(self, spec, q):
        assert_same_search_cold_or_warm(translate(spec), translate(q))

    def test_interrupted_check_leaves_a_table_the_next_one_continues(
        self, monkeypatch
    ):
        import repro.core.permission as permission

        expanded = []
        real_expand = permission._expand_pair

        def recording_expand(contract, query, binding, pair):
            expanded.append(pair)
            return real_expand(contract, query, binding, pair)

        monkeypatch.setattr(permission, "_expand_pair", recording_expand)
        enc_c = encode_automaton(ba_of("(a U b) && G(c -> F a)"))
        enc_q = encode_automaton(ba_of("F c"))

        cold = run_search(enc_c, enc_q, bind_query(enc_c, enc_q))
        whole = list(expanded)
        assert len(set(whole)) == len(whole) > 2  # each pair expanded once

        del expanded[:]
        binding = bind_query(enc_c, enc_q)
        tripped = run_search(enc_c, enc_q, binding, cold[1].search_steps // 2)
        assert tripped[0] is None
        first_part = list(expanded)
        assert 0 < len(first_part) < len(whole)
        assert sorted(binding.successors) == sorted(first_part)

        del expanded[:]
        assert run_search(enc_c, enc_q, binding) == cold
        # the rest, and only the rest
        assert first_part + expanded == whole

    def test_oversized_table_is_dropped_when_the_check_ends(
        self, monkeypatch
    ):
        """The table is bounded by a number of automaton pairs: a check
        that ends — by answering or by its budget — holding more than
        ``SUCCESSOR_TABLE_LIMIT`` lists clears it, one within the limit
        keeps it.  (The limit is lowered to this product's size here;
        ``tests/broker/test_degradation.py`` meets the real one.)"""
        import repro.core.permission as permission

        assert permission.SUCCESSOR_TABLE_LIMIT == SUCCESSOR_TABLE_LIMIT
        enc_c = encode_automaton(ba_of("G(a -> F b)"))
        enc_q = encode_automaton(ba_of("F(b && F a)"))
        binding = bind_query(enc_c, enc_q)
        cold = run_search(enc_c, enc_q, binding)
        size = len(binding.successors)
        assert 1 < size <= SUCCESSOR_TABLE_LIMIT

        monkeypatch.setattr(permission, "SUCCESSOR_TABLE_LIMIT", size)
        assert run_search(enc_c, enc_q, binding) == cold
        assert len(binding.successors) == size
        monkeypatch.setattr(permission, "SUCCESSOR_TABLE_LIMIT", size - 1)
        assert run_search(enc_c, enc_q, binding) == cold
        assert binding.successors == {}

        monkeypatch.setattr(permission, "SUCCESSOR_TABLE_LIMIT", 0)
        assert run_search(enc_c, enc_q, binding, steps=1)[0] is None
        assert binding.successors == {}

    def test_a_successor_reached_twice_is_listed_at_its_last_position(self):
        """Contract state 0 reaches 1, 2, 1 (in CSR order) under a query
        ``true`` self-loop: pair 1 is reached through two transition
        pairs and is listed once, after 2 — the search pops from the end,
        so the later copy is the one it would have visited first."""
        from repro.core.permission import _expand_pair

        contract = BuchiAutomaton.make(
            0, [(0, "a", 1), (0, "b", 2), (0, "c", 1),
                (1, "true", 1), (2, "true", 2)], final=[1, 2],
        )
        query = BuchiAutomaton.make(0, [(0, "true", 0)], final=[0])
        enc_c, enc_q = encode_automaton(contract), encode_automaton(query)
        assert list(enc_c.successor_ids(0)) == [1, 2, 1]
        binding = bind_query(enc_c, enc_q)
        assert _expand_pair(enc_c, enc_q, binding, 0) == (2, 1)
        assert binding.successors == {0: (2, 1)}


class TestPrecomputedArtifacts:
    def test_binding_and_seeds_mask_reuse(self):
        """Passing precomputed binding/seeds_mask (the broker's fast
        path) answers exactly like computing them on the fly."""
        contract, query = ba_of("G(a -> F b)"), ba_of("F b")
        enc_c, enc_q = encode_automaton(contract), encode_automaton(query)
        binding = bind_query(enc_c, enc_q)
        mask = enc_c.state_mask(compute_seeds(contract))
        assert mask == compute_seeds_mask(enc_c)
        assert permits_encoded(
            enc_c, enc_q, binding, seeds_mask=mask
        ) == permits_encoded(enc_c, enc_q)

    def test_dispatcher(self):
        """4.0: ``permits_encoded`` *is* the decider — it dispatches on
        nothing, and the entry points it used to dispatch to are gone."""
        import repro.core
        import repro.core.permission as permission

        contract, query = ba_of("G(a -> F b)"), ba_of("F b")
        enc_c, enc_q = encode_automaton(contract), encode_automaton(query)
        assert permits_encoded(enc_c, enc_q)
        for name in ("ndfs", "scc", "bogus"):
            with pytest.raises(TypeError):
                permits_encoded(enc_c, enc_q, algorithm=name)
        for name in ("permits_ndfs", "permits_scc",
                     "permits_ndfs_encoded", "permits_scc_encoded"):
            assert not hasattr(permission, name)
            assert not hasattr(repro.core, name)


class TestPropertyParity:
    @settings(max_examples=40, deadline=None)
    @given(spec=formulas(max_depth=3), q=formulas(max_depth=3))
    def test_random_formulas_bit_identical(self, spec, q):
        assert_decider_matches_oracle(translate(spec), translate(q))

"""The one permission decider, against the independent oracle.

:func:`permits_encoded` (and the object-signature adapter
:func:`permits`, which encodes and delegates) must answer exactly like
:func:`repro.check.oracle.oracle_permits`, which enumerates the explicit
snapshot alphabet and shares no code with it — on the paper fixtures
and on random LTL formulas, with and without the seed filter.  Work
counters and budget trip points are a function of the automata alone,
identical through either entry point.
"""

import dataclasses

import pytest
from hypothesis import given, settings

from repro.automata.buchi import BuchiAutomaton
from repro.automata.encode import bind_query, encode_automaton
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

from ..strategies import formulas


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

"""Unit tests for the synthetic workload generator (§7.2)."""

import pytest

from repro.errors import WorkloadError
from repro.ltl.ast import conj
from repro.ltl.patterns import Behavior, Scope
from repro.automata.ltl2ba import translate
from repro.workload.generator import PatternSampler, WorkloadGenerator
from repro.workload.vocabulary import numbered_vocabulary

import random


class TestPatternSampler:
    def test_placeholders_get_distinct_events(self):
        sampler = PatternSampler(numbered_vocabulary(10), random.Random(1))
        for _ in range(50):
            clause, _ = sampler.sample_clause()
            # a pattern never uses the same event for two placeholders,
            # so the clause mentions as many events as placeholders
            assert len(clause.variables()) >= 1

    def test_sampled_behaviors_follow_weights(self):
        sampler = PatternSampler(numbered_vocabulary(10), random.Random(7))
        counts = {b: 0 for b in Behavior}
        for _ in range(600):
            tpl = sampler.sample_template()
            counts[tpl.behavior] += 1
        # response dominates the survey: it must dominate the sample
        assert counts[Behavior.RESPONSE] == max(counts.values())

    def test_global_scope_dominates(self):
        sampler = PatternSampler(numbered_vocabulary(10), random.Random(7))
        scopes = {s: 0 for s in Scope}
        for _ in range(600):
            scopes[sampler.sample_template().scope] += 1
        assert scopes[Scope.GLOBAL] == max(scopes.values())

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(WorkloadError):
            PatternSampler([], random.Random(0))

    def test_tiny_vocabulary_rejected_for_wide_patterns(self):
        sampler = PatternSampler(["only"], random.Random(0))
        with pytest.raises(WorkloadError):
            for _ in range(100):  # eventually samples a 2+ event pattern
                sampler.sample_clause()


class TestWorkloadGenerator:
    def test_deterministic_given_seed(self):
        a = WorkloadGenerator(vocabulary_size=8, seed=5).generate_specs(5, 2)
        b = WorkloadGenerator(vocabulary_size=8, seed=5).generate_specs(5, 2)
        assert [s.clauses for s in a] == [s.clauses for s in b]

    def test_different_seeds_differ(self):
        a = WorkloadGenerator(vocabulary_size=8, seed=5).generate_specs(5, 2)
        b = WorkloadGenerator(vocabulary_size=8, seed=6).generate_specs(5, 2)
        assert [s.clauses for s in a] != [s.clauses for s in b]

    def test_spec_has_requested_pattern_count(self):
        gen = WorkloadGenerator(vocabulary_size=8, seed=1)
        spec = gen.generate_spec(3)
        assert spec.num_patterns == 3
        assert len(spec.patterns) == 3

    def test_invalid_pattern_count(self):
        gen = WorkloadGenerator(vocabulary_size=8, seed=1)
        with pytest.raises(WorkloadError):
            gen.generate_spec(0)

    def test_satisfiable_mode_yields_nonempty_automata(self):
        gen = WorkloadGenerator(vocabulary_size=8, seed=2,
                                ensure_satisfiable=True)
        for spec in gen.generate_specs(8, 2):
            assert not translate(conj(spec.clauses)).is_empty()

    def test_vocabulary_respected(self):
        gen = WorkloadGenerator(vocabulary_size=4, seed=3)
        spec = gen.generate_spec(2)
        assert conj(spec.clauses).variables() <= set(numbered_vocabulary(4))

    def test_spec_carries_the_automaton_the_probe_translated(self):
        """Same process, same formula -> same automaton: registering
        ``spec.ba`` is registering what the database would translate."""
        gen = WorkloadGenerator(vocabulary_size=8, seed=4, state_budget=5_000,
                                max_transitions=400)
        for spec in gen.generate_specs(6, 3):
            assert spec.ba == translate(conj(spec.clauses))
            assert spec.ba.num_transitions <= 400
            assert spec.state_budget == 5_000

    def test_no_probe_no_automaton(self):
        gen = WorkloadGenerator(vocabulary_size=8, seed=4,
                                ensure_satisfiable=False)
        spec = gen.generate_spec(2)
        assert spec.ba is None and spec.state_budget is None

    def test_the_automaton_is_not_part_of_a_specs_identity(self):
        probed = WorkloadGenerator(vocabulary_size=8, seed=5).generate_spec(2)
        bare = type(probed)(probed.clauses, probed.patterns)
        assert probed == bare
        assert "BuchiAutomaton" not in repr(probed)

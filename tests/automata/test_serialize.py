"""Unit tests for BA text serialization."""

import pytest

from repro.automata.buchi import BuchiAutomaton
from repro.automata.ltl2ba import translate
from repro.automata.serialize import (
    automaton_from_dict,
    automaton_to_dict,
    dumps,
    load,
    loads,
    save,
)
from repro.errors import AutomatonError
from repro.ltl.parser import parse
from repro.ltl.runs import Run


@pytest.fixture
def sample() -> BuchiAutomaton:
    return translate(parse("F(a && F b)"))


class TestRoundTrip:
    def test_dict_round_trip(self, sample):
        rebuilt = automaton_from_dict(automaton_to_dict(sample))
        assert rebuilt == sample.canonical()

    def test_string_round_trip(self, sample):
        rebuilt = loads(dumps(sample))
        assert rebuilt == sample.canonical()

    def test_language_preserved(self, sample):
        rebuilt = loads(dumps(sample))
        for run in (
            Run.from_events([["a"], ["b"]]),
            Run.from_events([["b"], ["a"]]),
        ):
            assert rebuilt.accepts(run) == sample.accepts(run)

    def test_file_round_trip(self, sample, tmp_path):
        path = tmp_path / "ba.json"
        save(sample, path)
        assert load(path) == sample.canonical()

    def test_output_is_deterministic(self, sample):
        assert dumps(sample) == dumps(sample)


class TestMalformedInput:
    def test_missing_field(self):
        with pytest.raises(AutomatonError):
            automaton_from_dict({"states": 1})

    def test_non_numeric_states(self):
        with pytest.raises(AutomatonError):
            automaton_from_dict(
                {"states": "x", "initial": 0, "final": [], "transitions": []}
            )

    def test_transition_to_unknown_state(self):
        with pytest.raises(AutomatonError):
            automaton_from_dict(
                {
                    "states": 1,
                    "initial": 0,
                    "final": [],
                    "transitions": [[0, "a", 5]],
                }
            )

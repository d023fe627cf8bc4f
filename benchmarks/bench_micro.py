"""Micro-benchmarks of the individual pipeline stages.

Not a paper figure — a developer-facing breakdown of where query and
registration time goes: LTL→BA translation, pruning-condition
extraction, index lookup, permission checking, projection selection.
"""

import pytest

from repro.automata.encode import bind_query, encode_automaton
from repro.automata.labels import Label
from repro.automata.ltl2ba import translate
from repro.core.permission import permits_encoded
from repro.core.seeds import compute_seeds
from repro.index.prefilter import PrefilterIndex
from repro.index.pruning import pruning_condition
from repro.ltl.ast import conj
from repro.ltl.parser import parse


@pytest.fixture(scope="module")
def medium_pair(datasets):
    contract_spec = datasets["medium_contracts"].generate(1)[0]
    query_spec = datasets["medium_queries"].generate(1)[0]
    contract_formula = conj(contract_spec.clauses)
    return contract_formula, conj(query_spec.clauses)


def test_benchmark_parse(benchmark):
    text = ("G((p1 && !p2 && F p2) -> ((p3 -> (!p2 U (p4 && !p2))) "
            "U (p2 || G(p3 -> (!p2 U (p4 && !p2))))))")
    formula = benchmark(lambda: parse(text))
    assert formula.variables() == {"p1", "p2", "p3", "p4"}


def test_benchmark_translation_query(benchmark, medium_pair):
    _, query_formula = medium_pair
    ba = benchmark(lambda: translate(query_formula))
    assert ba.num_states >= 1


def test_benchmark_translation_contract(benchmark, medium_pair):
    contract_formula, _ = medium_pair
    ba = benchmark(lambda: translate(contract_formula))
    assert ba.num_states >= 1


def test_benchmark_pruning_condition(benchmark, medium_pair):
    _, query_formula = medium_pair
    query_ba = translate(query_formula)
    condition = benchmark(lambda: pruning_condition(query_ba))
    assert condition is not None


def test_benchmark_permission_check(benchmark, medium_pair):
    contract_formula, query_formula = medium_pair
    contract = translate(contract_formula)
    query = translate(query_formula)
    # encode once, outside the timed region: the number is the search
    encoded = encode_automaton(contract, contract_formula.variables())
    encoded_query = encode_automaton(query)
    binding = bind_query(encoded, encoded_query)
    seeds_mask = encoded.state_mask(compute_seeds(contract))
    benchmark(lambda: permits_encoded(
        encoded, encoded_query, binding, seeds_mask=seeds_mask
    ))


def test_benchmark_index_lookup(benchmark, datasets):
    index = PrefilterIndex(depth=2)
    for i, spec in enumerate(datasets["simple_contracts"].generate(40)):
        formula = conj(spec.clauses)
        index.add_contract(i, translate(formula), formula.variables())
    label = Label.parse("p1 & !p2")
    result = benchmark(lambda: index.lookup(label))
    assert result <= index.universe


def test_benchmark_seeds(benchmark, medium_pair):
    contract_formula, _ = medium_pair
    contract = translate(contract_formula)
    seeds = benchmark(lambda: compute_seeds(contract))
    assert seeds <= contract.states

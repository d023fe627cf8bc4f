"""Büchi automata: labels, data structure, LTL translation, reduction.

The data model of the broker (§2.3): contracts and queries are stored and
checked as Büchi automata whose transition labels are conjunctions of
event literals.

Typical use::

    from repro.automata import translate
    from repro.ltl import parse

    ba = translate(parse("G(dateChange -> !F refund)"))
    ba.accepts(run)
"""

from .bisim import (
    bisimulation_partition,
    blocks_of,
    partition_signature,
    quotient,
    quotient_by_bisimulation,
)
from .buchi import BuchiAutomaton, BuchiBuilder, Transition
from .encode import EncodedAutomaton, QueryBinding, bind_query, encode_automaton
from .labels import (
    TRUE_LABEL,
    Label,
    Literal,
    compatible,
    label_from_formula,
    neg,
    pos,
)
from .language import enumerate_runs, example_behaviors
from .ltl2ba import DEFAULT_STATE_BUDGET, translate
from .product import intersection, union
from .reduce import (
    empty_automaton,
    merge_duplicate_transitions,
    reduce_automaton,
    remove_dead,
    remove_unreachable,
)
from .serialize import (
    automaton_from_dict,
    automaton_to_dict,
    dumps,
    load,
    loads,
    save,
    to_dot,
)

__all__ = [
    "BuchiAutomaton",
    "BuchiBuilder",
    "Transition",
    "EncodedAutomaton",
    "QueryBinding",
    "bind_query",
    "encode_automaton",
    "TRUE_LABEL",
    "Label",
    "Literal",
    "compatible",
    "label_from_formula",
    "neg",
    "pos",
    "DEFAULT_STATE_BUDGET",
    "translate",
    "enumerate_runs",
    "example_behaviors",
    "intersection",
    "union",
    "empty_automaton",
    "merge_duplicate_transitions",
    "reduce_automaton",
    "remove_dead",
    "remove_unreachable",
    "bisimulation_partition",
    "blocks_of",
    "partition_signature",
    "quotient",
    "quotient_by_bisimulation",
    "automaton_from_dict",
    "automaton_to_dict",
    "dumps",
    "load",
    "loads",
    "save",
    "to_dot",
]

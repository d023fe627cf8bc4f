"""The prefiltering optimization (§4): pruning conditions + set-trie index.

Typical use::

    from repro.index import PrefilterIndex, pruning_condition

    index = PrefilterIndex(depth=2)
    index.add_contract(7, contract_ba, vocabulary)
    candidates = index.candidates(query_ba)   # superset of permitted set
"""

from .condition import (
    FALSE_CONDITION,
    TRUE_CONDITION,
    CondAnd,
    CondFalse,
    CondLabel,
    CondOr,
    CondTrue,
    Condition,
    make_and,
    make_or,
    to_dnf,
)
from .complete_pruning import complete_pruning_condition
from .prefilter import PrefilterIndex, PrefilterStats
from .pruning import pruning_condition
from .trie import SetTrie

__all__ = [
    "FALSE_CONDITION",
    "TRUE_CONDITION",
    "CondAnd",
    "CondFalse",
    "CondLabel",
    "CondOr",
    "CondTrue",
    "Condition",
    "make_and",
    "make_or",
    "to_dnf",
    "complete_pruning_condition",
    "PrefilterIndex",
    "PrefilterStats",
    "pruning_condition",
    "SetTrie",
]

"""Random contract and query generation (§7.2).

"Given the novelty of our setting, it was impossible for us to find real
databases of contract specifications" — the paper therefore generates
both contracts and queries as conjunctions of randomly instantiated
Dwyer–Avrunin–Corbett patterns, sampled with the occurrence frequencies
reported by the survey [8] and with the pattern placeholders substituted
by events from the common vocabulary.  We reproduce that method exactly:

* behavior and scope are drawn from :data:`repro.ltl.patterns.BEHAVIOR_WEIGHTS`
  and :data:`~repro.ltl.patterns.SCOPE_WEIGHTS`;
* each pattern's placeholders are filled with *distinct* events drawn
  uniformly from the vocabulary; events are reused freely *across*
  patterns, which creates the cross-clause interactions the paper calls
  out in Example 14 ("the properties are often related between each
  other as some variables appear in multiple statements");
* a specification of complexity ``n`` is the conjunction of ``n``
  sampled patterns.

Generation is fully deterministic given the seed.  Because a random
conjunction can be unsatisfiable (its BA is empty and it permits
nothing), generators optionally resample until satisfiable — the
benchmark datasets use that mode so measured work is representative.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from ..automata.buchi import BuchiAutomaton
from ..automata.ltl2ba import translate
from ..errors import TranslationError, WorkloadError
from ..ltl.ast import Formula, conj
from ..ltl.patterns import (
    BEHAVIOR_WEIGHTS,
    SCOPE_WEIGHTS,
    Behavior,
    PatternTemplate,
    Scope,
    template,
)
from .vocabulary import numbered_vocabulary


@dataclass(frozen=True)
class GeneratedSpec:
    """One generated specification: the clauses plus provenance."""

    clauses: tuple[Formula, ...]
    patterns: tuple[tuple[Behavior, Scope], ...]
    #: the automaton of the clauses' conjunction, when the generator
    #: translated it to apply ``ensure_satisfiable`` / ``max_transitions``,
    #: and the state budget it was translated under — so whoever
    #: registers the spec need not translate it a second time
    ba: BuchiAutomaton | None = field(default=None, compare=False, repr=False)
    state_budget: int | None = field(default=None, compare=False, repr=False)

    @property
    def num_patterns(self) -> int:
        return len(self.clauses)


class PatternSampler:
    """Samples pattern instances per the survey distribution of [8]."""

    def __init__(self, vocabulary: Sequence[str], rng: random.Random):
        if not vocabulary:
            raise WorkloadError("empty vocabulary")
        self._vocabulary = list(vocabulary)
        self._rng = rng
        self._behaviors = list(BEHAVIOR_WEIGHTS)
        self._behavior_weights = [BEHAVIOR_WEIGHTS[b] for b in self._behaviors]
        self._scopes = list(SCOPE_WEIGHTS)
        self._scope_weights = [SCOPE_WEIGHTS[s] for s in self._scopes]

    def sample_template(self) -> PatternTemplate:
        behavior = self._rng.choices(self._behaviors, self._behavior_weights)[0]
        scope = self._rng.choices(self._scopes, self._scope_weights)[0]
        return template(behavior, scope)

    def sample_clause(self) -> tuple[Formula, tuple[Behavior, Scope]]:
        """One instantiated pattern; placeholders get distinct events."""
        chosen = self.sample_template()
        needed = len(chosen.placeholders)
        if needed > len(self._vocabulary):
            raise WorkloadError(
                f"pattern needs {needed} distinct events, vocabulary has "
                f"{len(self._vocabulary)}"
            )
        events = self._rng.sample(self._vocabulary, needed)
        mapping = dict(zip(chosen.placeholders, events))
        return chosen.instantiate(**mapping), (chosen.behavior, chosen.scope)


class WorkloadGenerator:
    """Deterministic generator of contract and query specifications.

    Args:
        vocabulary_size: number of events in the common vocabulary.
        seed: RNG seed; equal seeds give identical workloads.
        ensure_satisfiable: resample specifications whose conjunction
            translates to an empty-language BA (cap: ``max_retries``).
        state_budget: translation budget used by the satisfiability
            probe; oversized specs are resampled as well.
    """

    def __init__(
        self,
        vocabulary_size: int = 20,
        seed: int = 0,
        ensure_satisfiable: bool = True,
        max_retries: int = 50,
        state_budget: int = 20_000,
        max_transitions: int | None = None,
    ):
        self.vocabulary = numbered_vocabulary(vocabulary_size)
        self._rng = random.Random(seed)
        self._sampler = PatternSampler(self.vocabulary, self._rng)
        self._ensure_satisfiable = ensure_satisfiable
        self._max_retries = max_retries
        self._state_budget = state_budget
        #: optional cap on the translated BA's transition count; random
        #: conjunctions have a heavy tail (Table 2's large stddevs) and
        #: scaled benchmark configs cap it to keep run-to-run timing
        #: variance manageable (documented in EXPERIMENTS.md)
        self._max_transitions = max_transitions

    def generate_spec(self, num_patterns: int) -> GeneratedSpec:
        """One specification: the conjunction of ``num_patterns`` sampled
        pattern instances."""
        if num_patterns < 1:
            raise WorkloadError("num_patterns must be >= 1")
        attempts = 0
        while True:
            attempts += 1
            clauses = []
            provenance = []
            for _ in range(num_patterns):
                clause, origin = self._sampler.sample_clause()
                clauses.append(clause)
                provenance.append(origin)
            if not self._ensure_satisfiable:
                return GeneratedSpec(tuple(clauses), tuple(provenance))
            ba = self._usable_automaton(clauses)
            if ba is not None:
                return GeneratedSpec(
                    tuple(clauses), tuple(provenance),
                    ba=ba, state_budget=self._state_budget,
                )
            if attempts > self._max_retries:
                raise WorkloadError(
                    f"could not generate a satisfiable spec of "
                    f"{num_patterns} patterns in {self._max_retries} tries"
                )

    def generate_specs(self, count: int, num_patterns: int) -> list[GeneratedSpec]:
        """A batch of ``count`` specifications of equal complexity."""
        return [self.generate_spec(num_patterns) for _ in range(count)]

    def _usable_automaton(
        self, clauses: Sequence[Formula]
    ) -> BuchiAutomaton | None:
        """The automaton of the clauses' conjunction, or ``None`` when it
        is over budget, empty or larger than ``max_transitions``."""
        try:
            ba = translate(conj(clauses), state_budget=self._state_budget)
        except TranslationError:
            return None
        if ba.is_empty():
            return None
        if (
            self._max_transitions is not None
            and ba.num_transitions > self._max_transitions
        ):
            return None
        return ba


# -- adversarial workloads ---------------------------------------------------------

#: events the pathological profile draws from; ``ev6`` appears in the
#: pathological query but in no "monster" contract, so a scan-mode check
#: against one must explore its whole product space before answering.
_PATHOLOGICAL_VOCABULARY = tuple(f"ev{i}" for i in range(7))


def _eventually_conjunction(events: Sequence[str]) -> Formula:
    """``F ev0 && F ev1 && ...`` — the translated BA tracks which of the
    ``k`` obligations are still open, so it has ``2^k`` states with cheap
    labels: maximal permission-check work per translation second."""
    from ..ltl.parser import parse

    return conj([parse(f"F {event}") for event in events])


def pathological_specs(
    count: int = 60,
    *,
    monsters: int = 2,
    events_per_contract: int = 5,
    seed: int = 0,
) -> list[GeneratedSpec]:
    """An adversarial contract workload for budget/timeout testing.

    The first ``monsters`` specs are "monster" contracts — eventuality
    conjunctions over ``ev0..ev5`` (a 64-state BA whose exhaustive
    permission check against a wide query takes hundreds of
    milliseconds); the rest conjoin ``events_per_contract`` events
    sampled from ``ev0..ev6``.  Paired with :func:`pathological_query`
    in scan mode this makes every permission check an exhaustive
    product-space search — the workload behind the bounded-tail-latency
    benchmark and the CI timeout smoke test.
    """
    if count < monsters:
        raise WorkloadError(
            f"count ({count}) must be >= monsters ({monsters})"
        )
    rng = random.Random(seed)
    specs: list[GeneratedSpec] = []
    for _ in range(monsters):
        formula = _eventually_conjunction(_PATHOLOGICAL_VOCABULARY[:6])
        specs.append(GeneratedSpec((formula,), ()))
    for _ in range(count - monsters):
        events = rng.sample(_PATHOLOGICAL_VOCABULARY, events_per_contract)
        specs.append(GeneratedSpec((_eventually_conjunction(events),), ()))
    return specs


def pathological_query() -> Formula:
    """The adversarial query for :func:`pathological_specs`: an
    eventuality conjunction over the whole seven-event vocabulary.  Its
    BA has ``2^7`` states, and since no contract cites all seven events,
    every scan-mode check runs to an exhaustive (False) search."""
    return _eventually_conjunction(_PATHOLOGICAL_VOCABULARY)

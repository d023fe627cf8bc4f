"""Unit and property tests for bisimulation refinement and quotienting."""

from hypothesis import given, settings

from repro.automata.bisim import (
    bisimulation_partition,
    blocks_of,
    initial_partition,
    partition_signature,
    quotient,
    quotient_by_bisimulation,
    refine_partition,
)
from repro.automata.buchi import BuchiAutomaton, _state_key
from repro.automata.ltl2ba import translate

from tests.strategies import buchi_automata, formulas, runs


def duplicated_chain() -> BuchiAutomaton:
    """Two parallel, label-identical branches into a final sink: states
    1/2 are bisimilar, as are 3/4."""
    return BuchiAutomaton.make(
        initial=0,
        transitions=[
            (0, "a", 1),
            (0, "a", 2),
            (1, "b", 3),
            (2, "b", 4),
            (3, "true", 3),
            (4, "true", 4),
        ],
        final=[3, 4],
    )


class TestInitialPartition:
    def test_final_nonfinal_split(self):
        ba = duplicated_chain()
        partition = initial_partition(ba)
        assert partition[3] == partition[4]
        assert partition[0] == partition[1] == partition[2]
        assert partition[0] != partition[3]


class TestBisimulationPartition:
    def test_merges_equivalent_states(self):
        ba = duplicated_chain()
        blocks = blocks_of(bisimulation_partition(ba))
        as_sets = {frozenset(b) for b in blocks}
        assert frozenset({1, 2}) in as_sets
        assert frozenset({3, 4}) in as_sets

    def test_distinguishes_on_labels(self):
        ba = BuchiAutomaton.make(
            initial=0,
            transitions=[(0, "a", 1), (0, "b", 2), (1, "true", 1),
                         (2, "true", 2)],
            final=[1, 2],
        )
        partition = bisimulation_partition(ba)
        # 1 and 2 have identical futures: they merge; 0 stays apart.
        assert partition[1] == partition[2]
        assert partition[0] != partition[1]

    def test_distinguishes_on_finality(self):
        ba = BuchiAutomaton.make(
            initial=0,
            transitions=[(0, "a", 1), (1, "a", 0)],
            final=[1],
        )
        partition = bisimulation_partition(ba)
        assert partition[0] != partition[1]

    def test_seeded_refinement_matches_unseeded(self):
        """Seeding with any coarser partition must give the same result
        (Theorem 3 is what makes the seed coarser in the store)."""
        ba = duplicated_chain()
        unseeded = bisimulation_partition(ba)
        coarse = {s: 0 for s in ba.states}
        seeded = bisimulation_partition(ba, seed=coarse)
        assert partition_signature(seeded) == partition_signature(unseeded)

    def test_seed_cannot_break_finality_split(self):
        ba = duplicated_chain()
        # a malicious seed putting finals and non-finals together
        seed = {s: 0 for s in ba.states}
        partition = bisimulation_partition(ba, seed=seed)
        assert partition[0] != partition[3]


class TestQuotient:
    def test_quotient_shrinks(self):
        ba = duplicated_chain()
        q = quotient_by_bisimulation(ba)
        assert q.num_states == 3
        assert len(q.final) == 1

    def test_quotient_preserves_acceptance_on_examples(self):
        from repro.ltl.runs import Run

        ba = duplicated_chain()
        q = quotient_by_bisimulation(ba)
        accepted = Run.from_events([["a"], ["b"]], [[]])
        rejected = Run.from_events([["b"]], [[]])
        assert q.accepts(accepted) and ba.accepts(accepted)
        assert not q.accepts(rejected) and not ba.accepts(rejected)

    def test_quotient_final_blocks_pure(self):
        ba = duplicated_chain()
        partition = bisimulation_partition(ba)
        q = quotient(ba, partition)
        # final blocks contain only final states (Definition 10.3)
        for block in blocks_of(partition):
            block_id = partition[next(iter(block))]
            if block_id in q.final:
                assert block <= ba.final

    @given(formulas(max_depth=3), runs())
    @settings(max_examples=150, deadline=None)
    def test_quotient_language_equal_on_random_automata(self, formula, run):
        """Theorem 8: the simplification accepts the same runs."""
        ba = translate(formula, reduce=False)
        q = quotient_by_bisimulation(ba)
        assert q.accepts(run) == ba.accepts(run)


class TestSignature:
    def test_equal_partitions_equal_signatures(self):
        ba = duplicated_chain()
        p1 = bisimulation_partition(ba)
        p2 = bisimulation_partition(ba)
        assert partition_signature(p1) == partition_signature(p2)

    def test_signature_independent_of_block_ids(self):
        p1 = {0: 0, 1: 1}
        p2 = {0: 5, 1: 3}
        assert partition_signature(p1) == partition_signature(p2)


def first_seen_in_state_key_order(ba, partition) -> bool:
    """True iff block ids first appear as 0, 1, 2, ... when the states
    are walked in ``_state_key`` order."""
    seen = list(dict.fromkeys(
        partition[state] for state in sorted(ba.states, key=_state_key)
    ))
    return seen == list(range(len(seen)))


class TestBlockNumbering:
    """Block ids are bytes in ``projections.json``: the adapter numbers
    them first-seen in ``_state_key`` order, so they are a function of
    the partition alone — not of the seed, its ids, or the rounds run."""

    @given(buchi_automata(max_states=12, max_transitions=30))
    @settings(max_examples=150, deadline=None)
    def test_first_seen_with_and_without_a_seed(self, ba):
        unseeded = bisimulation_partition(ba)
        assert first_seen_in_state_key_order(ba, unseeded)
        seeds = [
            {s: 0 for s in ba.states},
            {s: 7 if s in ba.final else 3 for s in ba.states},
            # the answer itself under scrambled block names
            {s: ("b", -block) for s, block in unseeded.items()},
        ]
        for seed in seeds:
            assert bisimulation_partition(ba, seed=seed) == unseeded

    def test_int_states_are_walked_in_string_order(self):
        """``_state_key`` orders ints as text: in a 12-state chain whose
        states are pairwise distinguishable, state 10 gets block 2."""
        chain = BuchiAutomaton.make(
            initial=0,
            transitions=[(i, "a", i + 1) for i in range(11)],
            final=[11],
        )
        partition = bisimulation_partition(chain)
        assert len(set(partition.values())) == 12
        assert [partition[s] for s in (0, 1, 10, 11, 2)] == [0, 1, 2, 3, 4]


class TestRefinePartition:
    def test_initial_block_names_do_not_matter(self):
        rows = [[(0, 1)], [(0, 2)], [(0, 2)], [(1, 0)]]
        by_flag = refine_partition(rows, [False, False, True, False])
        by_name = refine_partition(rows, ["x", "x", ("y", 1), "x"])
        assert by_flag == by_name == [0, 1, 2, 3]

    def test_repeated_transitions_are_a_set(self):
        once = refine_partition([[(0, 1)], [(0, 1)]], [0, 0])
        twice = refine_partition([[(0, 1), (0, 1)], [(0, 1)]], [0, 0])
        assert once == twice == [0, 0]

    def test_a_stable_partition_comes_back_renumbered(self):
        # two self-looping states, kept apart by the initial blocks only
        assert refine_partition([[(0, 0)], [(0, 1)]], [9, 4]) == [0, 1]
        assert refine_partition([[(0, 0)], [(0, 1)]], [5, 5]) == [0, 0]

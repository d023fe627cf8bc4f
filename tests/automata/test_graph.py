"""Unit tests for the shared graph algorithms."""

from repro.automata.graph import (
    backward_reachable,
    is_cyclic_component,
    reachable_from,
    states_on_accepting_cycles,
    strongly_connected_components,
)


def adjacency(edges: dict):
    return lambda n: edges.get(n, ())


class TestSCC:
    def test_single_node_no_loop(self):
        comps = strongly_connected_components([0], adjacency({}))
        assert comps == [[0]]

    def test_two_cycles_and_bridge(self):
        edges = {0: [1], 1: [0, 2], 2: [3], 3: [2]}
        comps = strongly_connected_components(range(4), adjacency(edges))
        as_sets = sorted(map(frozenset, comps), key=min)
        assert as_sets == [frozenset({0, 1}), frozenset({2, 3})]

    def test_reverse_topological_order(self):
        edges = {0: [1], 1: [2], 2: []}
        comps = strongly_connected_components([0, 1, 2], adjacency(edges))
        # downstream components come first
        assert comps == [[2], [1], [0]]

    def test_large_cycle(self):
        n = 3000  # would blow a recursive implementation's stack
        edges = {i: [(i + 1) % n] for i in range(n)}
        comps = strongly_connected_components(range(n), adjacency(edges))
        assert len(comps) == 1
        assert len(comps[0]) == n

    def test_self_loop_is_own_component(self):
        edges = {0: [0, 1], 1: []}
        comps = strongly_connected_components([0, 1], adjacency(edges))
        assert sorted(map(len, comps)) == [1, 1]


class TestCyclicComponent:
    def test_multi_node_component_is_cyclic(self):
        edges = {0: [1], 1: [0]}
        assert is_cyclic_component([0, 1], adjacency(edges))

    def test_singleton_with_self_loop(self):
        assert is_cyclic_component([0], adjacency({0: [0]}))

    def test_singleton_without_self_loop(self):
        assert not is_cyclic_component([0], adjacency({0: [1]}))


class TestReachability:
    EDGES = {0: [1, 2], 1: [3], 2: [], 3: [], 4: [0]}

    def test_forward(self):
        assert reachable_from(0, adjacency(self.EDGES)) == {0, 1, 2, 3}

    def test_forward_excludes_ancestors(self):
        assert 4 not in reachable_from(0, adjacency(self.EDGES))

    def test_backward(self):
        nodes = range(5)
        result = backward_reachable([3], nodes, adjacency(self.EDGES))
        assert result == {3, 1, 0, 4}

    def test_backward_multiple_targets(self):
        nodes = range(5)
        result = backward_reachable([2, 3], nodes, adjacency(self.EDGES))
        assert result == {0, 1, 2, 3, 4}


class TestAcceptingCycles:
    def test_states_on_accepting_cycles(self):
        # 0 -> 1 <-> 2(final), 3(final, no cycle)
        edges = {0: [1], 1: [2], 2: [1, 3], 3: []}
        result = states_on_accepting_cycles(
            range(4), adjacency(edges), lambda n: n in {2, 3}
        )
        assert result == {1, 2}

    def test_final_self_loop(self):
        edges = {0: [0]}
        result = states_on_accepting_cycles(
            [0], adjacency(edges), lambda n: True
        )
        assert result == {0}

    def test_cycle_without_final_excluded(self):
        edges = {0: [1], 1: [0]}
        result = states_on_accepting_cycles(
            [0, 1], adjacency(edges), lambda n: False
        )
        assert result == set()

"""Generic directed-graph algorithms used across the automata stack.

Everything here operates on plain adjacency mappings
(``node -> iterable of successor nodes``) so the same code serves the
Büchi automata, their products, and the query-BA analysis of the
prefilter (Algorithm 1 needs strongly connected components; the seeds
optimization of §6.2.4 needs "states on a cycle through a final state").

Tarjan's algorithm is implemented iteratively: contract automata products
can be deep enough to blow Python's recursion limit.
"""

from __future__ import annotations

from typing import Callable, Container, Hashable, Iterable, Mapping, TypeVar

Node = TypeVar("Node", bound=Hashable)

Adjacency = Mapping


def strongly_connected_components(
    nodes: Iterable[Node],
    successors: Callable[[Node], Iterable[Node]],
) -> list[list[Node]]:
    """Tarjan's SCC algorithm (iterative), in reverse topological order.

    Returns a list of components; each component is a list of nodes.
    Components appear in reverse topological order of the condensation
    (every edge between components goes from a later list entry to an
    earlier one).
    """
    index_of: dict[Node, int] = {}
    lowlink: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    components: list[list[Node]] = []
    counter = 0

    for root in nodes:
        if root in index_of:
            continue
        # Iterative DFS: work items are (node, iterator over successors).
        work: list[tuple[Node, Iterable]] = [(root, iter(successors(root)))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors(succ))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: list[Node] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def is_cyclic_component(
    component: Iterable[Node],
    successors: Callable[[Node], Iterable[Node]],
) -> bool:
    """True iff the SCC contains a cycle: it has more than one node, or its
    single node has a self-loop.  Only cyclic components can carry the
    knot of a lasso path."""
    members = list(component)
    if len(members) > 1:
        return True
    node = members[0]
    return any(succ == node for succ in successors(node))


def reachable_from(
    start: Node,
    successors: Callable[[Node], Iterable[Node]],
) -> set[Node]:
    """All nodes reachable from ``start`` (including itself)."""
    seen: set[Node] = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for succ in successors(node):
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return seen


def shortest_path(
    source: Node,
    targets: Container[Node],
    successors: Callable[[Node], Iterable[Node]],
    within: Container[Node] | None = None,
    require_step: bool = False,
) -> list[Node] | None:
    """The nodes of a shortest path from ``source`` into ``targets``
    (breadth-first, successors in the order given), or ``None`` if no
    target is reachable.  ``within`` restricts the nodes the path may
    enter; with ``require_step`` the path has at least one edge even if
    the source is a target, so a target of ``{source}`` asks for a
    shortest cycle through it."""
    if source in targets and not require_step:
        return [source]
    parents: dict[Node, Node] = {source: source}
    frontier = [source]
    while frontier:
        next_frontier: list[Node] = []
        for node in frontier:
            for succ in successors(node):
                if within is not None and succ not in within:
                    continue
                if succ in targets:
                    path = [succ, node]
                    while node != source:
                        node = parents[node]
                        path.append(node)
                    path.reverse()
                    return path
                if succ not in parents:
                    parents[succ] = node
                    next_frontier.append(succ)
        frontier = next_frontier
    return None


def backward_reachable(
    targets: Iterable[Node],
    nodes: Iterable[Node],
    successors: Callable[[Node], Iterable[Node]],
) -> set[Node]:
    """All nodes from which some node in ``targets`` is reachable.

    Builds the reverse adjacency once, then floods backwards.
    """
    predecessors: dict[Node, list[Node]] = {}
    for node in nodes:
        for succ in successors(node):
            predecessors.setdefault(succ, []).append(node)
    seen: set[Node] = set(targets)
    frontier = list(seen)
    while frontier:
        node = frontier.pop()
        for pred in predecessors.get(node, ()):
            if pred not in seen:
                seen.add(pred)
                frontier.append(pred)
    return seen


def states_on_accepting_cycles(
    nodes: Iterable[Node],
    successors: Callable[[Node], Iterable[Node]],
    is_final: Callable[[Node], bool],
) -> set[Node]:
    """States that lie on some cycle containing a final state.

    In a strongly connected component every pair of nodes lies on a common
    cycle, so the answer is: all members of cyclic SCCs that contain at
    least one final state.  This is the precomputation behind the *seeds*
    optimization (§6.2.4).
    """
    out: set[Node] = set()
    for component in strongly_connected_components(nodes, successors):
        if not any(is_final(n) for n in component):
            continue
        if is_cyclic_component(component, successors):
            out.update(component)
    return out

"""Text serialization of Büchi automata.

The paper's prototype pipeline (§7.1) exchanges contract databases
between its four modules as text files; we do the same with a JSON
document per automaton.  States are canonicalized to dense integers on
save, so files are deterministic and diff-friendly.

Format (one automaton)::

    {
      "states": 4,
      "initial": 0,
      "final": [2],
      "transitions": [[0, "purchase", 1], [1, "true", 1], ...]
    }
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import AutomatonError
from .buchi import BuchiAutomaton, Transition
from .labels import Label


def automaton_to_dict(ba: BuchiAutomaton, *, canonicalize: bool = True) -> dict:
    """A JSON-ready dictionary for ``ba`` (canonically renumbered).

    ``canonicalize=False`` serializes the automaton's states as they are
    (they must already be dense integers) — the persistence layer uses
    this to keep a precomputed :meth:`~BuchiAutomaton.canonical_numbering`
    in sync with the stored document.
    """
    canonical = ba.canonical() if canonicalize else ba
    transitions = sorted(
        ((t.src, str(t.label), t.dst) for t in canonical.transitions()),
        key=lambda item: (item[0], item[1], item[2]),
    )
    return {
        "states": canonical.num_states,
        "initial": canonical.initial,
        "final": sorted(canonical.final),
        "transitions": [list(t) for t in transitions],
    }


def automaton_from_dict(data: dict) -> BuchiAutomaton:
    """Inverse of :func:`automaton_to_dict`; raises
    :class:`AutomatonError` on any other shape."""
    try:
        n = int(data["states"])
        initial = int(data["initial"])
        final = [int(s) for s in data["final"]]
        transitions = [
            Transition(int(src), Label.parse(label_text), int(dst))
            for src, label_text, dst in data["transitions"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise AutomatonError(f"malformed automaton document: {exc}") from exc
    return BuchiAutomaton(range(n), initial, transitions, final)


def dumps(ba: BuchiAutomaton) -> str:
    """Serialize one automaton to a JSON string."""
    return json.dumps(automaton_to_dict(ba), indent=2, sort_keys=True)


def loads(text: str) -> BuchiAutomaton:
    """Parse one automaton from a JSON string."""
    return automaton_from_dict(json.loads(text))


def save(ba: BuchiAutomaton, path: str | Path) -> None:
    """Write one automaton to ``path``."""
    Path(path).write_text(dumps(ba) + "\n", encoding="utf-8")


def load(path: str | Path) -> BuchiAutomaton:
    """Read one automaton from ``path``."""
    return loads(Path(path).read_text(encoding="utf-8"))


def to_dot(ba: BuchiAutomaton, name: str = "buchi") -> str:
    """Render the automaton in Graphviz DOT, in the visual style of the
    paper's figures: double circles for final states, an entry arrow for
    the initial state, labels on the edges.

    >>> print(to_dot(translate(parse("F p"))))   # doctest: +SKIP
    """
    canonical = ba.canonical()
    lines = [
        f"digraph {name} {{",
        "  rankdir=LR;",
        '  __start [shape=point, label=""];',
    ]
    for state in sorted(canonical.states):
        shape = "doublecircle" if state in canonical.final else "circle"
        lines.append(f"  s{state} [shape={shape}, label=\"{state}\"];")
    lines.append(f"  __start -> s{canonical.initial};")
    for t in sorted(
        canonical.transitions(), key=lambda t: (t.src, str(t.label), t.dst)
    ):
        label = str(t.label).replace('"', '\\"')
        lines.append(f'  s{t.src} -> s{t.dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)

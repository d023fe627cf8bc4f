"""The architecture of ``src/repro``, declared once.

The broker is a pipeline (PAPER.md): LTL formulas (§2.2, §6.1) are
translated to Büchi automata (§3), which the permission check (§6.2)
decides, with the prefilter index (§4) and the projections (§5) beside
it.  :data:`RANKS` states that order for every package, and the other
tables add what a rank cannot say.  Every rule expects no match, as in
a declarative dependency contract.

Two readers:

* ``tests/test_layers.py`` (tier-1) walks every module's imports, at
  module level and inside functions, and lists each one this table
  forbids with its ``file:line``;
* ``checks/conftest.py`` selects, for ``pytest checks --changed``, the
  checks whose layers reach a changed module through module-level
  imports (:func:`closure`).

A layer is the first name under ``repro``: a package (``repro.ltl``) or
a top-level module (``repro.errors``, ``repro.cli``); ``repro`` itself
is the package facade, ``src/repro/__init__.py``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: The layers, lowest rank first.  A module imports its own layer and
#: the layers of lower ranks; layers that share a rank never import
#: each other.  A strict order, so the package graph has no cycle.
RANKS = (
    ("errors", "obs"),        # what every layer raises and records
    ("ltl",),                 # §2.2, §6.1: formulas, parser, semantics
    ("automata",),            # §3: Büchi automata, translation, encoding
    ("core",),                # §6.2: permission (Algorithm 2), budgets
    ("index", "projection"),  # §4: the prefilter; §5: the projections
    ("stream",),              # the fleet monitor over encoded contracts
    ("broker",),              # the contract database
    ("dist", "workload"),     # sharded serving; §7.2's generator
    ("check",),               # the conformance harness and its oracle
    ("cli", "repro"),         # the entry points: the CLI, the facade
    ("bench",),               # the paper-figure harness: no src import
)

#: Modules whose imports from ``repro`` are confined to these prefixes
#: on top of their rank: a reference shares nothing with the code it
#: checks but the translator (``tests/check/test_oracle.py``).
ONLY = {
    "repro.check.oracle": ("repro.ltl", "repro.errors",
                           "repro.automata.buchi", "repro.automata.ltl2ba"),
}

#: Modules outside ``repro`` that only these layers import.  ``asyncio``
#: stays in the cluster front-end, so ``import repro`` and every CLI
#: start leave the event loop unloaded; test tools never ship.
CONFINED = {
    "asyncio": ("dist",),
    "hypothesis": (),
    "pytest": (),
}

#: Layers that every other layer imports only inside a function: ``import
#: repro`` and ``import repro.cli`` never load the cluster front-end.
LAZY = ("dist",)

RANK = {layer: rank for rank, layers in enumerate(RANKS) for layer in layers}

#: Every layer, for the checks that drive them all (the tier-1 suite).
ALL = tuple(RANK)


@dataclass(frozen=True)
class Import:
    """One import statement's edge from ``module`` to ``target``."""

    module: str
    target: str
    path: str
    line: int
    #: run when ``module`` is imported: not inside a function, nor under
    #: ``if TYPE_CHECKING:``
    top: bool

    @property
    def where(self) -> str:
        return f"{self.path}:{self.line}"


def module_of(path: Path, src: Path = SRC) -> str:
    """``src/repro/ltl/parser.py`` -> ``repro.ltl.parser``."""
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def layer_of(module: str) -> str | None:
    """The layer of a ``repro`` module, ``None`` outside ``repro``."""
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    return parts[1] if len(parts) > 1 else "repro"


@lru_cache(maxsize=None)
def modules(src: Path = SRC) -> dict[str, Path]:
    """Every module under ``src/repro`` by name."""
    return {module_of(path, src): path
            for path in sorted((src / "repro").rglob("*.py"))}


def _is_type_checking(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(
        node.test)


def _edges(module: str, path: Path, src: Path):
    package = module if path.name == "__init__.py" else module.rpartition(
        ".")[0]
    known = modules(src)

    def targets(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if node.level:
            parts = package.split(".")
            base = ".".join(parts[:len(parts) - node.level + 1])
            base = f"{base}.{node.module}" if node.module else base
        else:
            base = node.module
        found = [f"{base}.{alias.name}" for alias in node.names
                 if f"{base}.{alias.name}" in known]
        return found if node.module is None and found else [base, *found]

    def walk(node, top):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                for target in targets(child):
                    yield Import(module, target,
                                 path.relative_to(src.parent).as_posix(),
                                 child.lineno, top)
            yield from walk(child, top and not (
                isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                or _is_type_checking(child)))

    yield from walk(ast.parse(path.read_text(encoding="utf-8")), True)


@lru_cache(maxsize=None)
def imports(src: Path = SRC) -> tuple[Import, ...]:
    """Every import statement's edges, for every module."""
    return tuple(edge for module, path in modules(src).items()
                 for edge in _edges(module, path, src))


def violations(src: Path = SRC) -> list[str]:
    """Each import the tables forbid, as ``file:line: why``."""
    found = [f"{path.relative_to(src.parent).as_posix()}:1: "
             f"{module} is in no layer of the table"
             for module, path in modules(src).items()
             if layer_of(module) not in RANK]
    for edge in imports(src):
        mine, theirs = layer_of(edge.module), layer_of(edge.target)
        root = edge.target.split(".")[0]
        why = None
        if theirs is None:
            if root in CONFINED and mine not in CONFINED[root]:
                why = (f"only {', '.join(CONFINED[root])} may import {root}"
                       if CONFINED[root] else
                       f"no src module may import {root}")
        elif theirs == mine or mine not in RANK:
            pass
        elif theirs not in RANK:
            why = f"{edge.target} is in no layer of the table"
        elif RANK[theirs] == RANK[mine]:
            why = f"{theirs} and {mine} share a rank"
        elif RANK[theirs] > RANK[mine]:
            why = f"{theirs} ranks above {mine}"
        elif theirs in LAZY and edge.top:
            why = f"{theirs} is imported inside functions only"
        allowed = ONLY.get(edge.module)
        if why is None and theirs and allowed and not any(
            edge.target == prefix or edge.target.startswith(prefix + ".")
            for prefix in allowed
        ):
            why = f"{edge.module} imports only {', '.join(allowed)}"
        if why:
            found.append(f"{edge.where}: {edge.module} imports "
                         f"{edge.target}: {why}")
    return found


def _loaded(target: str) -> list[str]:
    """What importing ``target`` runs: the module and its packages,
    short of the facade (which every process runs, and which selects
    every check by itself)."""
    parts = target.split(".")
    return [name for name in (".".join(parts[:i])
                              for i in range(2, len(parts) + 1))
            if name in modules()]


def closure(layers) -> dict[str, str]:
    """Each module the named layers reach through module-level imports,
    mapped to the layer that reaches it first (in ``layers`` order)."""
    graph: dict[str, set[str]] = {}
    for edge in imports():
        if edge.top and layer_of(edge.target):
            graph.setdefault(edge.module, set()).update(_loaded(edge.target))
    reached: dict[str, str] = {}
    for layer in layers:
        todo = [module for module in modules() if layer_of(module) == layer]
        while todo:
            module = todo.pop()
            if module not in reached:
                reached[module] = layer
                todo.extend(graph.get(module, ()))
    return reached

"""The import contract of ``tests/layers.py``: every module under
``src/repro``, imports at module level and inside functions alike."""

import shutil

import pytest

from tests import layers


def test_every_import_keeps_to_the_layer_table():
    """Ranks, the oracle's imports, ``asyncio`` in ``dist`` only, no
    test tool in ``src`` and a cluster front-end loaded on first use:
    each import the table forbids is listed with its ``file:line``."""
    assert layers.violations() == []


#: One line put back into one module, and the ``file:line`` of the
#: violation it must be reported as.
SEEDED = {
    "a translate in ltl": (
        "ltl/runs.py", "from ..automata.ltl2ba import translate"),
    "hypothesis in src": ("broker/spec.py", "import hypothesis"),
    "the figure harness in the CLI": (
        "cli.py", "from .bench.reporting import format_table"),
    "asyncio outside dist": ("stream/engine.py", "import asyncio"),
    "core in the oracle": (
        "check/oracle.py", "from ..core.permission import permits"),
    "the front-end at CLI start": ("cli.py", "from . import dist"),
}


@pytest.mark.parametrize("name", SEEDED)
def test_a_seeded_violation_is_named_by_file_and_line(name, tmp_path):
    """The contract can fail: each drill appends one forbidden import to
    a copy of ``src`` and finds it reported where it was put."""
    module, line = SEEDED[name]
    src = tmp_path / "src"
    shutil.copytree(layers.SRC / "repro", src / "repro")
    path = src / "repro" / module
    text = path.read_text(encoding="utf-8")
    path.write_text(f"{text}\n{line}\n", encoding="utf-8")
    where = f"src/repro/{module}:{text.count(chr(10)) + 2}: "
    found = layers.violations(src)
    assert [v for v in found if v.startswith(where)], found

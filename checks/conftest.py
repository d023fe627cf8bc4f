"""The check registry: every CI step is one test here.

``python -m pytest checks/test_<job>.py -s`` runs one CI job as CI runs
it; ``python -m pytest checks --changed`` runs every check guarding a
file that differs from ``git merge-base HEAD main`` (committed,
uncommitted or untracked), and with ``-s`` prints the path and the glob
or layer that selected each.  A check declares itself with
``@pytest.mark.guards(*globs, layers=(...), budget=seconds)``: the
``fnmatch`` globs (``*`` crosses ``/``) name the files outside ``src``
it protects; the layers of ``tests/layers.py`` name the code it drives,
and a changed module under ``src`` selects it when the layers reach
that module through module-level imports (a ``src`` file that is no
module of the tree, or the facade ``src/repro/__init__.py`` that every
process runs, selects every check with layers).  The ``run`` fixture
kills a check's commands once the budget is spent.  What a job leaves
for CI to upload goes to ``check-artifacts/<job>/``.
"""

import fnmatch
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from tests import layers as table  # noqa: E402


def pytest_addoption(parser):
    parser.addoption(
        "--changed", action="store_true",
        help="keep only the checks whose globs or layers cover a file "
             "that differs from `git merge-base HEAD main`")


def pytest_configure(config):
    # a skipped check says why: it names the tool this host lacks
    config.option.reportchars += "s"


def changed_files() -> set[str]:
    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            check=True).stdout

    base = git("merge-base", "HEAD", "main").strip()
    return set(git("diff", "--name-only", "-z", base).split("\0")
               + git("ls-files", "--others", "--exclude-standard",
                     "-z").split("\0")) - {""}


def selected_by(marker, changed: set[str]) -> str | None:
    """The first changed path that selects a check, and the glob or
    layer that selects it; ``None`` when none does."""
    layers = marker.kwargs.get("layers", ())
    reached = table.closure(layers)
    modules = table.modules()
    for path in sorted(changed):
        for glob in marker.args:
            if fnmatch.fnmatch(path, glob):
                return f"{path} (glob {glob})"
        if not layers or not path.startswith("src/"):
            continue
        module = table.module_of(ROOT / path) if path.endswith(".py") else ""
        if module in reached:
            return f"{path} (layer {reached[module]})"
        if module not in modules or module == "repro":
            return f"{path} (every layer)"
    return None


def pytest_collection_modifyitems(config, items):
    if not config.getoption("--changed"):
        return
    changed = changed_files()
    keep = []
    for item in items:
        why = selected_by(item.get_closest_marker("guards"), changed)
        if why:
            print(f"{item.nodeid}: {why}")
            keep.append(item)
    config.hook.pytest_deselected(
        items=[item for item in items if item not in keep])
    items[:] = keep


@pytest.fixture
def artifacts(request) -> Path:
    """``check-artifacts/<job>/``, which CI uploads whatever the verdict."""
    path = ROOT / "check-artifacts" / request.path.stem.removeprefix("test_")
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture
def run(request):
    """``run(*argv, status=0, stdin=None, env=None)`` runs ``python
    *argv`` from the repo root with ``src`` importable, echoes what it
    printed, asserts its exit status and returns the CompletedProcess.
    Every command of a check shares the check's budget."""
    budget = request.node.get_closest_marker("guards").kwargs["budget"]
    deadline = time.monotonic() + budget

    def run(*argv, status=0, stdin=None, env=None):
        argv = [str(arg) for arg in argv]
        try:
            proc = subprocess.run(
                [sys.executable, *argv], cwd=ROOT, input=stdin,
                capture_output=True, timeout=deadline - time.monotonic(),
                env={**os.environ, "PYTHONPATH": "src", **(env or {})})
        except subprocess.TimeoutExpired as exc:
            echo(exc.stdout, exc.stderr)
            pytest.fail(f"over its {budget} s budget: {' '.join(argv)}")
        proc.stdout, proc.stderr = echo(proc.stdout, proc.stderr)
        tail = "\n".join((proc.stdout + proc.stderr).splitlines()[-20:])
        assert proc.returncode == status, f"{' '.join(argv)}\n{tail}"
        return proc

    return run


def echo(out, err):
    out, err = (b.decode(errors="replace") if b else "" for b in (out, err))
    sys.stdout.write(out)
    sys.stdout.write(err)
    return out, err

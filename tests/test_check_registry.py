"""The check registry under ``checks/`` stays whole: each job module is a
``ci.yml`` matrix entry and the reverse, and every check is documented,
budgeted and guards files that exist."""

import fnmatch
import importlib.util
import re
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "checks").glob("test_*.py"))


def checks():
    """(module stem, function) for every check function."""
    for path in MODULES:
        spec = importlib.util.spec_from_file_location(
            f"checks.{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for name, fn in vars(module).items():
            if name.startswith("test_") and callable(fn):
                yield path.stem, fn


def tracked_files() -> list[str]:
    try:
        out = subprocess.run(["git", "ls-files"], cwd=ROOT, check=True,
                             capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError):  # not a checkout
        return [p.relative_to(ROOT).as_posix() for p in ROOT.rglob("*")
                if p.is_file()]
    return out.splitlines()


def test_every_job_module_is_a_ci_matrix_entry_and_the_reverse():
    workflow = (ROOT / ".github/workflows/ci.yml").read_text()
    jobs = set(re.findall(r"\{job: (\w+),", workflow))
    assert jobs == {path.stem.removeprefix("test_") for path in MODULES}


def test_every_check_is_documented_budgeted_and_guards_tracked_files():
    files = tracked_files()
    found = list(checks())
    assert {module for module, _ in found} == {p.stem for p in MODULES}
    for module, fn in found:
        where = f"{module}::{fn.__name__}"
        assert (fn.__doc__ or "").strip(), f"{where} has no docstring"
        (guards,) = [m for m in getattr(fn, "pytestmark", ())
                     if m.name == "guards"]
        assert guards.kwargs.get("budget", 0) > 0, f"{where} has no budget"
        assert guards.args, f"{where} guards nothing"
        for glob in guards.args:
            assert fnmatch.filter(files, glob), f"{where}: {glob} matches none"


def test_no_two_checks_share_a_name():
    names = [fn.__name__ for _, fn in checks()]
    assert len(names) == len(set(names))

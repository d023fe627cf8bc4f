"""CI job ``tests``: the tier-1 suite, on the oldest and newest supported
Pythons, under a hash salt that differs per run and is printed — some
tests pin ``PermissionStats``, which depend on the salt, so a red run is
reproduced with the echoed ``PYTHONHASHSEED``."""

import os
import random

import pytest

_SEED = os.environ.get("PYTHONHASHSEED", "")
SALT = int(_SEED) if _SEED.isdigit() else random.randrange(1, 2 ** 16)
TIER1 = ("src/*", "tests/*", "examples/*", "checks/*", "pyproject.toml",
         ".github/workflows/ci.yml")


@pytest.mark.guards(*TIER1, budget=1200)
def test_tier1_suite(run):
    """Every DeprecationWarning is an error, so no shim grows back;
    ``--runslow`` pays for the heavyweight hypothesis differentials that
    local runs skip; ``--durations=10`` shows the next slow test."""
    print(f"PYTHONHASHSEED={SALT}")
    run("-W", "error::DeprecationWarning", "-m", "pytest", "-x", "-q",
        "--runslow", "--durations=10",
        env={"PYTHONHASHSEED": str(SALT)})


@pytest.mark.guards(*TIER1, budget=300)
def test_history_independence_under_a_second_salt(run):
    """A compile-cache miss renames the automaton of the query's event
    shape, and which of two equal-cost states the translator keeps
    depends on the salt; the event table numbers events in registration
    order, and a vocabulary is a frozenset: the rename property and the
    history-independence tests run under a second salt every time."""
    print(f"PYTHONHASHSEED={SALT + 1}")
    run("-W", "error::DeprecationWarning", "-m", "pytest", "-x", "-q",
        "tests/broker/test_cache.py",
        "tests/broker/test_spec.py", "tests/broker/test_event_table.py",
        "tests/automata/test_encode.py",
        "tests/projection/test_flat_quotient.py", "tests/index",
        "tests/stream", env={"PYTHONHASHSEED": str(SALT + 1)})


@pytest.mark.guards("src/*", "scripts/dump_artifacts.py", budget=60)
def test_registration_artifacts_are_reproducible(run, artifacts):
    """What registration derives from a contract (encoding, partitions,
    block ids, subset -> partition map) is a function of the spec and
    the salt: two dumps under one salt are the same bytes."""
    dumps = [artifacts / f"artifacts-{i}.jsonl" for i in (1, 2)]
    for dump in dumps:
        run("scripts/dump_artifacts.py", "--out", dump,
            env={"PYTHONHASHSEED": str(SALT)})
    assert dumps[0].read_bytes() == dumps[1].read_bytes()

"""Differential conformance checking: the broker's independent safety net.

The permission problem is PSPACE-complete (Theorem 6) and the stack that
answers it has grown many interacting layers — the NDFS decider and
its seeds, the §4 prefilter set-trie, the §5 projection quotients, the
query compilation cache, execution budgets with graceful degradation,
and snapshot persistence.  Each layer has its own
unit tests, but none of those cross-check the *composed* stack against
an independent ground truth.

This package does, in the differential-testing style used for model
checkers and query engines (SQLancer, ltl2ba cross-validation):

* :mod:`repro.check.oracle` — an explicit-model permission decider that
  enumerates lassos over the contract×query product on the *concrete*
  snapshot alphabet, sharing no code with the decider;
* :mod:`repro.check.generators` — deterministic seeded generation of
  random contract specs, queries and attribute filters;
* :mod:`repro.check.runner` — executes every generated case through a
  lattice of stack configurations (prefilter on/off × projections
  on/off, plus cache-warm repeats, budgeted degradation, a save→load
  round trip and the distributed deployments) and compares all of them
  against the oracle;
* :mod:`repro.check.shrink` / :mod:`repro.check.artifacts` — greedy case
  minimization and standalone JSON repro artifacts with a replay entry
  point (``contract-broker check --replay``).

The harness ships in ``src`` (not ``tests``) so CI fuzz jobs, the CLI
``check`` subcommand and downstream users can all invoke it; the pytest
suite drives the same machinery with small case budgets.
"""

from .artifacts import ReplayResult, load_artifact, replay_artifact, write_artifact
from .cases import CheckCase, ContractCase, FilterSpec
from .configs import StackConfig, config_lattice, configs_by_name
from .generators import PROFILES, CheckProfile, generate_case
from .oracle import OracleLimitError, oracle_permits
from .runner import ConformanceReport, ConformanceRunner, Disagreement

__all__ = [
    "CheckCase",
    "CheckProfile",
    "ConformanceReport",
    "ConformanceRunner",
    "ContractCase",
    "Disagreement",
    "FilterSpec",
    "OracleLimitError",
    "PROFILES",
    "ReplayResult",
    "StackConfig",
    "config_lattice",
    "configs_by_name",
    "generate_case",
    "load_artifact",
    "oracle_permits",
    "replay_artifact",
    "write_artifact",
]

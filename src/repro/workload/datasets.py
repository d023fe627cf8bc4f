"""Named dataset configurations mirroring Table 2 of the paper.

The paper evaluates six datasets: simple/medium/complex *contract*
databases (3000/1000/1000 specifications of 5/6/7 patterns each) and
simple/medium/complex *query* workloads (100 specifications of 1/2/3
patterns), all over a 20-event vocabulary.

Two configuration families are provided:

* :data:`PAPER_DATASETS` — the paper's exact parameters; suitable for
  regenerating Table 2's statistics, but a full Figure-5 sweep at these
  sizes takes hours in pure Python (as it did on the paper's Java
  prototype);
* :data:`SCALED_DATASETS` — the default for the benchmark harness:
  smaller vocabulary, pattern counts and database sizes chosen so the
  whole suite runs in minutes while preserving the relative complexity
  ordering (simple < medium < complex) and therefore the shape of the
  paper's results.  EXPERIMENTS.md documents the substitution.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from ..automata.ltl2ba import translate
from ..ltl.ast import conj
from .generator import GeneratedSpec, WorkloadGenerator


@dataclass(frozen=True)
class DatasetConfig:
    """Parameters of one generated dataset (a Table 2 row).

    ``max_transitions`` optionally rejects pathologically large BAs at
    generation time; the scaled benchmark configurations use it to tame
    the heavy tail of random conjunctions (the paper's Table 2 shows
    transition-count standard deviations exceeding the means), which
    would otherwise dominate run-to-run timing variance.
    """

    name: str
    size: int
    patterns: int
    vocabulary_size: int
    seed: int
    max_transitions: int | None = None

    def generate(self, size: int | None = None) -> list[GeneratedSpec]:
        """Generate the dataset (optionally overriding its size, e.g. for
        the Figure 5 database-size sweep)."""
        generator = WorkloadGenerator(
            vocabulary_size=self.vocabulary_size,
            seed=self.seed,
            max_transitions=self.max_transitions,
        )
        return generator.generate_specs(size or self.size, self.patterns)


#: The paper's exact dataset parameters (Table 2).
PAPER_DATASETS: dict[str, DatasetConfig] = {
    "simple_contracts": DatasetConfig("Simple contracts", 3000, 5, 20, 101),
    "medium_contracts": DatasetConfig("Medium contracts", 1000, 6, 20, 102),
    "complex_contracts": DatasetConfig("Complex contracts", 1000, 7, 20, 103),
    "simple_queries": DatasetConfig("Simple queries", 100, 1, 20, 201),
    "medium_queries": DatasetConfig("Medium queries", 100, 2, 20, 202),
    "complex_queries": DatasetConfig("Complex queries", 100, 3, 20, 203),
}

#: Scaled-down defaults for the pure-Python benchmark harness.  Contract
#: datasets cap BA size to tame the heavy tail of random conjunctions
#: (see :class:`DatasetConfig`); query workloads are left uncapped.
SCALED_DATASETS: dict[str, DatasetConfig] = {
    "simple_contracts": DatasetConfig(
        "Simple contracts", 400, 3, 12, 101, max_transitions=600),
    "medium_contracts": DatasetConfig(
        "Medium contracts", 150, 4, 12, 102, max_transitions=900),
    "complex_contracts": DatasetConfig(
        "Complex contracts", 150, 5, 12, 103, max_transitions=1200),
    "simple_queries": DatasetConfig("Simple queries", 12, 1, 12, 201),
    "medium_queries": DatasetConfig("Medium queries", 12, 2, 12, 202),
    "complex_queries": DatasetConfig("Complex queries", 12, 3, 12, 203),
}


@dataclass(frozen=True)
class DatasetStatistics:
    """One row of Table 2: dataset name, size, pattern count, and the
    state/transition statistics of the translated BAs."""

    name: str
    size: int
    patterns: int
    states_avg: float
    states_stddev: float
    transitions_avg: float
    transitions_stddev: float

    def row(self) -> tuple:
        return (
            self.name,
            self.size,
            self.patterns,
            round(self.states_avg, 2),
            round(self.states_stddev, 2),
            round(self.transitions_avg, 2),
            round(self.transitions_stddev, 2),
        )


def dataset_statistics(
    config: DatasetConfig, sample_size: int | None = None
) -> DatasetStatistics:
    """Translate (a sample of) the dataset and compute its Table 2 row.

    ``sample_size`` caps how many specifications are translated; the
    statistics are then estimates of the full dataset's row.
    """
    size = min(config.size, sample_size) if sample_size else config.size
    specs = config.generate(size)
    states: list[int] = []
    transitions: list[int] = []
    for spec in specs:
        # the generator's satisfiability probe already translated it
        ba = spec.ba if spec.ba is not None else translate(conj(spec.clauses))
        states.append(ba.num_states)
        transitions.append(ba.num_transitions)
    return DatasetStatistics(
        name=config.name,
        size=size,
        patterns=config.patterns,
        states_avg=statistics.mean(states),
        states_stddev=statistics.pstdev(states),
        transitions_avg=statistics.mean(transitions),
        transitions_stddev=statistics.pstdev(transitions),
    )

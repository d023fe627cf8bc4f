#!/usr/bin/env python3
"""Dump the per-(case, cell) answers of a conformance sweep.

``contract-broker check`` only says whether every cell of the lattice
agreed with the oracle.  A change that must not move *any* answer —
every performance or simplicity PR — wants the stronger guard: the
answers themselves, cell by cell, byte-identical to the parent commit's.
This script runs the same sweep (same seed, same cases, same lattice)
and writes one JSON line per (case, cell) holding what the cell
answered: ``[label, permitted names, maybe names]`` triples, exactly as
the runner compared them (``cache-warm`` yields two, the monitor cells
their transcripts).  A cell that raised is recorded as its exception.
Only a case's first run is recorded: when a cell disagrees, the runner's
shrinking re-runs it on smaller cases under the same id.

    python3 scripts/dump_answers.py --out change.jsonl
    python3 scripts/dump_answers.py --src ../parent/src --out parent.jsonl
    cmp parent.jsonl change.jsonl

The defaults are the sweep CI and the PR checklists quote:
``--seed 7 --cases 200`` over the full lattice (3 000 runs, ~11 min).
Exit status is the sweep's own: 1 if any cell disagreed with the oracle
(the disagreements are printed, and with ``--artifacts DIR`` shrunk and
written as ``contract-broker check --replay`` files, as the CLI does).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--cases", type=int, default=200)
    parser.add_argument("--profile", default="small")
    parser.add_argument("--configs", default=None,
                        help="comma-separated cell names (default: all)")
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src",
                        help="the src/ directory to import repro from "
                             "(default: this checkout's)")
    parser.add_argument("--artifacts", type=Path, default=None,
                        help="shrink failing cases and write their repro "
                             "artifacts here")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.src))
    from repro.check import ConformanceRunner, configs_by_name

    records: dict[tuple[str, str], str] = {}

    class RecordingRunner(ConformanceRunner):
        def _run_config(self, case, specs, bas, config):
            record = {"case": case.case_id, "cell": config.name}
            try:
                answers = super()._run_config(case, specs, bas, config)
                record["answers"] = [
                    [label, list(permitted), list(maybe)]
                    for label, permitted, maybe in answers
                ]
                return answers
            except Exception as exc:
                record["error"] = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                records.setdefault(
                    (case.case_id, config.name),
                    json.dumps(record, sort_keys=True),
                )

    names = args.configs.split(",") if args.configs else None
    runner = RecordingRunner(
        seed=args.seed,
        cases=args.cases,
        profile=args.profile,
        configs=configs_by_name(names),
        artifact_dir=args.artifacts,
        shrink=args.artifacts is not None,
    )
    report = runner.run()
    args.out.write_text("".join(line + "\n" for line in records.values()))
    print(f"{report.summary()}; {len(records)} (case, cell) record(s) "
          f"-> {args.out}")
    for disagreement in report.disagreements:
        print()
        print(disagreement.describe())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Write the committed expected answers for the benchmark workloads.

    python3 benchmarks/make_expected.py 7 1013

For each seed and workload this runs one pass, refuses to write anything if
the independent checker rejects an output, and records per instance either
its verdict (nu, tau, outcome kind, PASS/FAIL, block sets) and the sha256 of
its output without timings, or the outcome that left it undecided.  Seed 7
is the default seed; 1013 is held out, not used while tuning the workloads.
"""

from __future__ import annotations

import json
import os
import sys

import checker
import instances
import run


def expected_for(cli, workload: str, seed: int) -> dict:
    prepared = run.prepare(cli, workload, seed)
    outputs = {}
    one = run.run_pass(cli, prepared, outputs)
    checked = run.check_passes(prepared, [one], outputs, None)
    if checked["problems"]:
        raise SystemExit(f"{workload} seed {seed}: " + "; ".join(checked["problems"][:10]))
    answers = {}
    for inst, (_, _, outcome, digest) in zip(prepared, one["results"]):
        if digest is not None:
            payload = json.loads(outputs[inst["id"]])
            answers[inst["id"]] = {
                "verdict": checker.verdict(inst["run_argv"], payload),
                "sha256": digest,
            }
        else:
            answers[inst["id"]] = {"undecided": str(outcome)}
    return answers


def main(seeds: list[int]) -> None:
    cli = run.import_cli()
    os.makedirs(run.EXPECTED, exist_ok=True)
    for seed in seeds:
        data = {w: expected_for(cli, w, seed) for w in sorted(instances.WORKLOADS)}
        path = os.path.join(run.EXPECTED, f"seed_{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True, indent=1)
            fh.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or [7, 1013])

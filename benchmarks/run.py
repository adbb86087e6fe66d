"""The gammapath benchmark: seeded workloads through the CLI, checked and timed.

    python3 benchmarks/run.py --workload families --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory.  Load is one process, closed loop: one instance at a time,
the next starting when the previous one has its verdict.  The `suite`
workload is the exception: `verify-suite` runs its nine checks on the
harness's default thread pool (GAMMAPATH_THREADS is removed from the
environment).

A run generates the workload's instances from the seed and writes their
graph JSON (set-up), then runs passes over the whole instance list through
`gammapath.cli.run` until the time is up (at least one pass), then checks
every output with the independent checker in `checker.py`, against the
committed expected answers when the seed has them, and for identical bytes
across passes.  With `--trace 0` it prints the end-to-end metrics, with
`--trace 1` one untraced and one traced pass and the per-layer metrics.
End-to-end times are in reference seconds, corrected for the host's speed
by `speed.py`; the uncorrected values are printed on the lines above the
result.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`failed` counts instances whose output was wrong (a verdict or certificate
the checker rejects, output bytes that drift, or a verdict lost: an instance
that ends without one although it may not, see `lost_verdict`).  Instances
that may end without a verdict (LimitExceeded, RecursionError, any other
exception) only lower `decided_share`.  The exit status is 1 when any output
was wrong, 2 when the program cannot be found.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
EXPECTED = os.path.join(HERE, "expected")
sys.path.insert(0, HERE)

import checker  # noqa: E402
import instances  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 5


def import_cli():
    """gammapath.cli from this checkout's src/, or exit 2 without a result.

    GAMMAPATH_THREADS is removed from the environment so that `suite` always
    runs on the harness's default thread count.
    """
    os.environ.pop("GAMMAPATH_THREADS", None)
    if not os.path.isfile(os.path.join(SRC, "gammapath", "cli.py")):
        print(f"error: no gammapath sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import gammapath.cli

    if not os.path.abspath(gammapath.cli.__file__).startswith(SRC + os.sep):
        print("error: gammapath was imported from outside this checkout", file=sys.stderr)
        sys.exit(2)
    return gammapath.cli


# --- running one instance -----------------------------------------------------------


def run_cli(cli, argv: list) -> tuple[float, float, object, str]:
    """(start, end of the call, exit code or exception name, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            outcome = cli.run(argv)
    except RecursionError:
        outcome = "RecursionError"
    except Exception as exc:  # the loop must go on; the instance is undecided
        outcome = type(exc).__name__
        failure = traceback.format_exc()
    end = time.perf_counter()
    if failure:
        print(f"{' '.join(argv)}: {failure}", file=sys.stderr)
    return start, end, outcome, out.getvalue()


def verdict_payload(outcome, stdout: str) -> dict | None:
    """The parsed output if it is a verdict: exit 0 or 1 with a result payload, not an error payload."""
    if outcome not in (0, 1):
        return None
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return None
    return None if "error" in payload else payload


def _strip_elapsed(node):
    if isinstance(node, dict):
        return {k: _strip_elapsed(v) for k, v in node.items() if k != "elapsed_s"}
    if isinstance(node, list):
        return [_strip_elapsed(v) for v in node]
    return node


def fingerprint(argv: list, payload: dict) -> str:
    """sha256 of the output with timings removed.

    `elapsed_s` fields vary run to run.  verify-suite also echoes its thread
    count, which is the machine's core count rather than a result, so it is
    removed too.
    """
    stripped = _strip_elapsed(payload)
    if argv[0] == "verify-suite":
        stripped["config"].pop("threads", None)
    text = json.dumps(stripped, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


# --- set-up -------------------------------------------------------------------------


def prepare(cli, workload: str, seed: int) -> list[dict]:
    """Generate the instances and write their graph JSON; returns runnable instances.

    Files go to one directory per workload and are overwritten by the next
    run, so repeated runs do not pile up instance files.
    """
    directory = os.path.join(WORK, workload)
    os.makedirs(directory, exist_ok=True)
    prepared = []
    for inst in instances.WORKLOADS[workload](seed):
        graph = inst["graph"]
        if "graph_from" in inst:
            _, _, code, stdout = run_cli(cli, inst["graph_from"])
            if code != 0:
                raise RuntimeError(f"building {inst['id']} failed: {code}")
            graph = json.loads(stdout)["graph"]
        path = os.path.join(directory, f"{inst['id']}.json")
        if graph is not None:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(graph, fh, sort_keys=True)
        argv = [path if a == instances.GRAPH else a for a in inst["argv"]]
        prepared.append({**inst, "graph": graph, "run_argv": argv})
    return prepared


def load_expected(workload: str, seed: int) -> dict | None:
    path = os.path.join(EXPECTED, f"seed_{seed}.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def setup(cli, workload: str, seed: int) -> tuple[list[dict], dict | None, list[tuple]]:
    """Set up SETUP_REPEATS times; returns the intervals, the import first."""
    intervals = [(STARTED, time.perf_counter())]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        prepared = prepare(cli, workload, seed)
        expected = load_expected(workload, seed)
        intervals.append((start, time.perf_counter()))
    return prepared, expected, intervals


# --- passes ----------------------------------------------------------------------------


def run_pass(cli, prepared: list[dict], outputs: dict[str, str]) -> dict:
    """Every instance once, in order, from first start to last verdict.

    Once the pass has ended each output is reduced to its fingerprint (None
    when undecided), and the first decided output of each instance is kept in
    `outputs` for the checker, so memory does not grow with the pass count.
    """
    start = time.perf_counter()
    raw = [run_cli(cli, inst["run_argv"]) for inst in prepared]
    end = time.perf_counter()
    results = []
    for inst, (started, ended, outcome, stdout) in zip(prepared, raw):
        payload = verdict_payload(outcome, stdout)
        digest = None
        if payload is not None:
            digest = fingerprint(inst["run_argv"], payload)
            outputs.setdefault(inst["id"], stdout)
        results.append((started, ended, outcome, digest))
    return {"start": start, "end": end, "results": results}


def run_passes(cli, prepared: list[dict], seconds: float, outputs: dict[str, str]) -> list[dict]:
    """Closed loop for about `seconds`: start another pass only if it should fit."""
    passes = []
    start = time.perf_counter()
    while not passes or (
        time.perf_counter() - start + statistics.median(p["end"] - p["start"] for p in passes) <= seconds
    ):
        passes.append(run_pass(cli, prepared, outputs))
    return passes


# --- checking --------------------------------------------------------------------------


def lost_verdict(inst: dict, ref: dict | None) -> bool:
    """Whether an undecided run of `inst` counts as a wrong verdict.

    With expected answers for the seed, only the instances the reference left
    undecided may end without a verdict; without them, only the classes in
    `instances.MAY_BE_UNDECIDED`.  Either may become decided freely.
    """
    if ref is not None:
        return "verdict" in ref
    return inst["class"] not in instances.MAY_BE_UNDECIDED


def check_passes(prepared: list[dict], passes: list[dict], outputs: dict[str, str], expected: dict | None) -> dict:
    """Check every output; count wrong instances, drift and decided instance runs."""
    wrong: set[str] = set()
    drift = decided_runs = 0
    problems = []
    first_seen: dict[str, str] = {}
    for run in passes:
        for inst, (_, _, outcome, digest) in zip(prepared, run["results"]):
            iid = inst["id"]
            ref = expected.get(iid) if expected else None
            if digest is None:
                if iid not in wrong and lost_verdict(inst, ref):
                    wrong.add(iid)
                    problems.append(f"{iid}: no verdict ({outcome}) where one is expected")
                continue
            decided_runs += 1
            if iid not in first_seen:
                first_seen[iid] = digest
                payload = json.loads(outputs[iid])
                found = checker.check(inst["graph"], payload, inst["run_argv"])
                got = checker.verdict(inst["run_argv"], payload)
                if ref and "verdict" in ref and ref["verdict"] != got:
                    found.append(f"verdict {got} != expected {ref['verdict']}")
                if found:
                    wrong.add(iid)
                    problems += [f"{iid}: {p}" for p in found]
                if ref and "sha256" in ref and ref["sha256"] != digest:
                    drift += 1
                    problems.append(f"{iid}: output bytes differ from the reference")
            elif first_seen[iid] != digest:
                drift += 1
                problems.append(f"{iid}: output bytes differ between passes")
    return {
        "mismatches": len(wrong),
        "drift": drift,
        "decided": decided_runs,
        "attempted": sum(len(p["results"]) for p in passes),
        "problems": problems,
    }


# --- metrics ------------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(passes: list[dict], checked: dict, setup_intervals: list, probe, peak_rss_mb: float) -> dict:
    """Metric -> (value, unit, value before speed calibration or None).

    Verdict times are per instance.  The suite's one instance is the whole
    verify-suite call: its nine verdicts reach the caller together, in one
    report, so each check's time to a verdict is the call's time.
    """
    imported, *repeats = setup_intervals

    def timings(clock):
        times = [clock.seconds(start, end) * 1000 for p in passes for start, end, _, _ in p["results"]]
        return {
            "setup_s": clock.seconds(*imported) + statistics.median(clock.seconds(*r) for r in repeats),
            "wall_s": statistics.median(clock.seconds(p["start"], p["end"]) for p in passes),
            "verdict_p50_ms": percentile(times, 50),
            "verdict_p90_ms": percentile(times, 90),
        }

    calibrated, raw = timings(probe), timings(UNCALIBRATED)
    metrics = {name: (calibrated[name], name.rsplit("_", 1)[1], raw[name]) for name in calibrated}
    metrics["decided_share"] = (checked["decided"] / checked["attempted"], "ratio", None)
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB", None)
    return metrics


class _Uncalibrated:
    """SpeedProbe.seconds as plain wall-clock seconds."""

    @staticmethod
    def seconds(start: float, end: float) -> float:
        return end - start


UNCALIBRATED = _Uncalibrated()


def add_ns(group, reps: int = 20000, rounds: int = 5) -> float:
    """Median over rounds of the time of one `a + b` on group elements."""
    elems = group.elements()[:2] if group.is_finite else [group.element(3), group.element(-5)]
    a, b = elems[0], elems[-1]
    per_add = []
    for _ in range(rounds):
        start = time.perf_counter_ns()
        for _ in range(reps):
            a + b
        per_add.append((time.perf_counter_ns() - start) / reps)
    return statistics.median(per_add)


def per_layer(tracer, untraced_wall: float, traced_wall: float) -> dict:
    """Metric -> (value, unit, None): layer times are thread CPU seconds, not calibrated."""
    from gammapath.groups import CayleyGroup, CyclicProduct, IntegerGroup
    from gammapath.harness import ALL_CHECKS

    totals = tracer.totals()

    def stat(name, key="layer_s"):
        return totals.get(name, {}).get(key, 0.0)

    def layer_sum(layer, key):
        return sum((s.get(key, 0.0) for name, s in totals.items() if name.split(".")[0] == layer), 0.0)

    def layer_self(layer):
        return layer_sum(layer, "boundary_s")

    enum_s = stat("graphs.enumerate_terminal_paths")
    enum_paths = stat("graphs.enumerate_terminal_paths", "items")
    frame_s = layer_self("frame")
    moves = stat("frame.frame_pack_or_cover", "items")
    table, identity = instances.s3_table()
    metrics = {
        "groups.self_s": (layer_self("groups"), "s"),
        "groups.add_calls": (sum(stat(f"groups.{c}.add", "calls") for c in ("CyclicProduct", "CayleyGroup", "IntegerGroup")), "count"),
        "groups.cyclic_subgroup_calls": (stat("groups.cyclic_subgroup", "calls"), "count"),
        "groups.add_ns.cyclic": (add_ns(CyclicProduct((7,))), "ns"),
        "groups.add_ns.cayley": (add_ns(CayleyGroup(table, identity)), "ns"),
        "groups.add_ns.integer": (add_ns(IntegerGroup()), "ns"),
        "chains.self_s": (layer_self("chains"), "s"),
        "chains.calls": (layer_sum("chains", "calls"), "count"),
        "graphs.enum_self_s": (enum_s, "s"),
        "graphs.enum_paths_returned": (enum_paths, "count"),
        "graphs.enum_us_per_path": (enum_s * 1e6 / enum_paths if enum_paths else 0.0, "us"),
        "graphs.blocks_self_s": (stat("graphs.three_blocks"), "s"),
        "graphs.without_vertices_calls": (stat("graphs.LabelledGraph.without_vertices", "calls"), "count"),
        "graphs.normalize_self_s": (stat("graphs.normalize_to_zero"), "s"),
        "packing.max_packing_self_s": (stat("packing.max_packing"), "s"),
        "packing.min_cover_self_s": (stat("packing.min_cover"), "s"),
        "packing.family_members": (stat("packing.PathFamilySpec.members", "items"), "count"),
        "packing.limit_exceeded": (layer_sum("packing", "limit_exceeded"), "count"),
        "frame.self_s": (frame_s, "s"),
        "frame.moves": (moves, "count"),
        "frame.us_per_move": (frame_s * 1e6 / moves if moves else 0.0, "us"),
        "frame.validate_cover_s": (stat("frame.validate_frame_cover"), "s"),
        "frame.limit_exceeded": (layer_sum("frame", "limit_exceeded"), "count"),
        "gadgets.build_s": (sum(stat(f"gadgets.{f}") for f in ("build_integer_gadget", "build_quotient_gadget", "build_subgroup_escape_gadget")), "s"),
        "gadgets.verify_self_s": (stat("gadgets.verify_gadget"), "s"),
        "cli.self_s": (layer_self("cli"), "s"),
        "jsonio.graph_from_json_s": (stat("jsonio.graph_from_json"), "s"),
        "jsonio.dumps_s": (stat("jsonio.dumps"), "s"),
        "harness.self_s": (layer_self("harness"), "s"),
    }
    for check_id, check in ALL_CHECKS.items():
        metrics[f"harness.check_s.{check_id}"] = (stat(f"harness.{check.__name__}", "total_s"), "s")
    metrics["trace.overhead_share"] = ((traced_wall - untraced_wall) / untraced_wall, "ratio")
    return {name: (value, unit, None) for name, (value, unit) in metrics.items()}


# --- main ------------------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    outputs: dict[str, str] = {}
    with speed.SpeedProbe() as probe:
        cli = import_cli()
        prepared, expected, setup_intervals = setup(cli, args.workload, args.seed)
        if args.trace:
            untraced = run_pass(cli, prepared, outputs)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_pass(cli, prepared, outputs)
            finally:
                tracer.uninstall()
            passes = [untraced, traced]
        else:
            passes = run_passes(cli, prepared, args.seconds, outputs)
    # before the checker runs, so its own enumeration is not counted
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checked = check_passes(prepared, passes, outputs, expected)
    if args.trace:
        leftover = tracing.leftover_wrappers()
        if leftover:
            print(f"error: wrappers left after tracing: {leftover}", file=sys.stderr)
            return 1
        os.makedirs(WORK, exist_ok=True)
        tracer.write(os.path.join(WORK, f"trace-{args.workload}.json"))
        walls = [probe.seconds(p["start"], p["end"]) for p in passes]
        metrics = per_layer(tracer, *walls)
    else:
        metrics = end_to_end(passes, checked, setup_intervals, probe, peak_rss_mb)

    wrong = checked["mismatches"] + checked["drift"]
    for problem in checked["problems"][:50]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {len(prepared)} instances, {len(passes)} passes")
    for name, (value, unit, raw) in metrics.items():
        before = "" if raw is None else f" ({raw:.6g} before speed calibration)"
        print(f"{name}: {value:.6g} {unit}{before}")
    print(f"verdict_mismatches: {checked['mismatches']} count")
    print(f"output_drift: {checked['drift']} count")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": checked["attempted"],
        "failed": wrong,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())

"""Batch verification harness: seeded random suites and machine-readable reports.

Each check returns PASS, FAIL (with a replayable reproducer), or SKIPPED with
a reason.  Checks are independent: each seeds its own generator.  They run in
forked worker processes, one per usable CPU up to the number of checks, or
in-process when that is one.  The report keeps id order whichever worker ran a
check, and is deterministic for a fixed seed and scale.  A check is SKIPPED
when it would start after the budget, whichever worker runs it.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import time
from dataclasses import dataclass

from .chains import CycleChain, multiset_masks, reroute_to_weight, sharpness_witness
from .errors import DEFAULT_LIMITS, GammapathError, InternalInvariantError, Limits, UsageError
from .frame import frame_pack_or_cover
from .gadgets import (
    build_integer_gadget,
    build_quotient_gadget,
    build_subgroup_escape_gadget,
    verify_gadget,
)
from .graphs import (
    DIRECTED,
    UNDIRECTED,
    LabelledGraph,
    apply_shifts,
    enumerate_terminal_paths,
    normalize_to_zero,
)
from .groups import (
    CayleyGroup,
    CyclicProduct,
    GroupElem,
    _is_prime,
    elements_of_order_at_most_2,
    find_halving,
    has_weight_ep,
    has_zero_path_ep,
    iter_abelian_groups,
)
from .packing import (
    ABA,
    NONZERO,
    ODD,
    WEIGHT,
    PathFamilySpec,
    TerminalEdgeWarning,
    duality_report,
    max_packing,
    min_cover,
    reduce_weight_to_zero,
)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    limits: Limits = DEFAULT_LIMITS
    scale: str = "full"  # "small" trims the randomized suite sizes

    def __post_init__(self):
        # checked as Limits checks its fields: the suite would run on any other value and echo it
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if self.scale not in ("small", "full"):
            raise ValueError(f"scale must be 'small' or 'full', got {self.scale!r}")
        if not isinstance(self.limits, Limits):
            raise ValueError(f"limits must be a Limits, got {self.limits!r}")

    def counts(self, full: int) -> int:
        return max(10, full // 10) if self.scale == "small" else full


def make_s3() -> CayleyGroup:
    """Symmetric group on three points, composed left to right."""
    perms = sorted(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[tuple(b[a[x]] for x in range(3))] for b in perms] for a in perms]
    return CayleyGroup(table, identity=idx[(0, 1, 2)], name="S3")


def random_labelled_graph(rng: random.Random, group, model: str, n_max: int, a_max: int = 4):
    n = rng.randint(4, n_max)
    vertices = list(range(n))
    possible = list(itertools.combinations(vertices, 2))
    m = rng.randint(n - 1, min(len(possible), 2 * n))
    chosen = rng.sample(possible, m)
    elems = group.elements()
    edges = []
    for u, v in chosen:
        if model == DIRECTED:
            tail = u if rng.random() < 0.5 else v
            edges.append((u, v, rng.choice(elems), tail))
        else:
            edges.append((u, v, rng.choice(elems)))
    terminals = rng.sample(vertices, rng.randint(2, min(a_max, n)))
    return LabelledGraph.build(group, model, edges, terminals, extra_vertices=vertices)


def random_three_connected(rng: random.Random, group, n: int):
    """K4 grown by degree-3 attachments, labelled by a random involution potential."""
    vertices = list(range(n))
    pairs = set(itertools.combinations(range(4), 2))
    for v in range(4, n):
        for u in rng.sample(range(v), 3):
            pairs.add((u, v))
    flips = sorted(elements_of_order_at_most_2(group), key=group.elem_sort_key)
    phi = {v: rng.choice(flips) for v in vertices}
    add = group._add
    edges = [(u, v, GroupElem(group, add(phi[u].value, phi[v].value))) for u, v in sorted(pairs)]
    return LabelledGraph.build(group, UNDIRECTED, edges, (), extra_vertices=vertices), phi


def naive_max_packing(members) -> int:
    """Largest pairwise vertex-disjoint subfamily, by full subset enumeration."""
    sets = [frozenset(m.vertices) for m in members]
    best = 0
    for r in range(len(sets), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(range(len(sets)), r):
            union: set = set()
            ok = True
            for i in combo:
                if sets[i] & union:
                    ok = False
                    break
                union |= sets[i]
            if ok:
                best = r
                break
    return best


def naive_min_cover(members) -> int:
    """Smallest vertex set meeting every member, by subsets of increasing size."""
    sets = [frozenset(m.vertices) for m in members]
    if not sets:
        return 0
    universe = sorted(set().union(*sets), key=repr)
    for r in range(0, len(universe) + 1):
        for combo in itertools.combinations(universe, r):
            chosen = set(combo)
            if all(chosen & s for s in sets):
                return r
    raise AssertionError("unreachable")


# --- individual checks -------------------------------------------------------


def check_frame_random(config: RunConfig) -> dict:
    rng = random.Random(config.seed * 1009 + 1)
    groups = [CyclicProduct((2,)), CyclicProduct((3,)), CyclicProduct((5,)), make_s3()]
    total = config.counts(500)
    packings = covers = 0
    for i in range(total):
        group = groups[i % len(groups)]
        g = random_labelled_graph(rng, group, DIRECTED, n_max=14)
        k = rng.randint(1, 3)
        result = frame_pack_or_cover(g, k, config.limits)
        if result.outcome.kind == "packing":
            packings += 1
            used: set = set()
            for p in result.outcome.paths:
                p.validate(g)
                if p.weight != group.zero() or used & set(p.vertices):
                    return _fail(g, {"k": k, "instance_index": i})
                used |= set(p.vertices)
        else:
            covers += 1  # checked by the frame, which raises if a check fails
    return _pass({"instances": total, "packings": packings, "covers": covers})


def check_duality_random(config: RunConfig) -> dict:
    rng = random.Random(config.seed * 1009 + 2)
    total = config.counts(500)
    per_kind = {NONZERO: 0, ODD: 0, ABA: 0}
    groups = [CyclicProduct((2,)), CyclicProduct((3,)), CyclicProduct((5,))]
    for i in range(total):
        kind = (NONZERO, ODD, ABA)[i % 3]
        if kind == NONZERO:
            group = rng.choice(groups)
            g = random_labelled_graph(rng, group, DIRECTED, n_max=12)
            spec = PathFamilySpec(NONZERO, g)
        else:
            group = groups[0]
            g = random_labelled_graph(rng, group, UNDIRECTED, n_max=12)
            if kind == ODD:
                spec = PathFamilySpec(ODD, g)
            else:
                through = frozenset(rng.sample(list(g.vertices), rng.randint(1, 3)))
                spec = PathFamilySpec(ABA, g, through=through)
        report = duality_report(spec, config.limits)
        if report["tau"] > 2 * report["nu"]:
            return _fail(g, {"kind": kind, "instance_index": i, "report": {
                "nu": report["nu"], "tau": report["tau"]}})
        per_kind[kind] += 1
    return _pass({"instances": total, **{f"kind_{k}": v for k, v in per_kind.items()}})


def _arrangements(multiset: tuple[int, ...]) -> int:
    """The number of distinct orderings of multiset: its multinomial coefficient."""
    return math.factorial(len(multiset)) // math.prod(math.factorial(multiset.count(d)) for d in set(multiset))


def check_chain_exhaustive(config: RunConfig) -> dict:
    detail = {}
    for p in (3, 5, 7):
        group = CyclicProduct((p,))
        full = (1 << p) - 1
        vectors = 0
        # over Z/p the value of k is k itself: each sorted nonzero delta multiset, for all its orders
        for deltas, mask in multiset_masks(group, range(1, p), p - 1):
            if mask != full:
                return _fail(None, {"p": p, "deltas": list(deltas), "reason": "missed weight"})
            vectors += _arrangements(deltas)
        detail[f"p{p}_vectors"] = vectors
        # witness-level spot checks along the diagonal of the vector space
        rng = random.Random(config.seed * 1009 + 3 + p)
        for _ in range(25):
            deltas = [rng.randint(1, p - 1) for _ in range(p - 1)]
            core = rng.randrange(p)
            target = rng.randrange(p)
            chain = CycleChain.abstract(group, core, deltas)
            out = reroute_to_weight(chain, group.element(target))
            if out is None:
                return _fail(None, {"p": p, "deltas": deltas, "core": core, "target": target})
            total = group.element(core)
            for i in out.subset:
                total = total + group.element(deltas[i])
            if total != group.element(target):
                return _fail(None, {"p": p, "deltas": deltas, "reason": "bad witness"})
        sharp = sharpness_witness(p)
        if reroute_to_weight(sharp, group.zero()) is not None:
            return _fail(None, {"p": p, "reason": "sharpness family reached zero"})
        detail[f"p{p}_sharp_unreachable"] = True
    return _pass(detail)


def check_cauchy_davenport(config: RunConfig) -> dict:
    pairs = 0
    # every nonempty subset of Z/5, and the subsets of Z/7 with at most 4 elements
    for p, max_size in ((5, 5), (7, 4)):
        group = CyclicProduct((p,))
        subsets = [xs for xs in range(1, 1 << p) if xs.bit_count() <= max_size]
        for xs in subsets:
            for ys in subsets:
                if group.sumset(xs, ys).bit_count() < min(xs.bit_count() + ys.bit_count() - 1, p):
                    return _fail(None, {"p": p})
                pairs += 1
    return _pass({"pairs": pairs})


def _top_row_gadget_ok(checks: dict, n: int) -> bool:
    """The top-row gadgets' claims, with their proven cover number tau = floor(n/2)."""
    return checks["nu"] == 1 and checks["tau"] == n // 2 and checks["uses_top_row"] and checks["endpoints_cross"]


def _integer_gadget_ok(checks: dict, n: int) -> bool:
    """The integer gadget's claims: every member pairs u_i with w_{n+1-i}, and tau = n."""
    return checks["nu"] == 1 and checks["antidiagonal_pairing"] and checks["tau"] == n


def check_gadgets(config: RunConfig) -> dict:
    z4 = CyclicProduct((4,))
    z8 = CyclicProduct((8,))
    # (variant, detail key, sizes, builder, the claims bound at each size)
    cells = (
        ("gamma-double-prime", "subgroup_escape", (2, 3, 4),
         lambda n: build_subgroup_escape_gadget(n, z4, 1, 2), _top_row_gadget_ok),
        ("gamma-prime", "quotient", (2, 3), lambda n: build_quotient_gadget(n, z8, 1, 4), _top_row_gadget_ok),
        ("gamma", "integer", (2,), lambda n: build_integer_gadget(n, 0), _integer_gadget_ok),
    )
    detail: dict = {}
    for variant, key, sizes, build, bound in cells:
        for n in sizes:
            checks = verify_gadget(build(n), config.limits)
            detail[f"{key}_n{n}"] = {"nu": checks["nu"], "tau": checks["tau"]}
            if not bound(checks, n):
                return _fail(None, {"variant": variant, "n": n, "checks": checks})
    return _pass(detail)


def check_classification(config: RunConfig) -> dict:
    groups = 0
    pairs = 0
    for group in iter_abelian_groups(32):
        zero_ok = has_zero_path_ep(group)  # internally cross-checked
        factors = group.invariant_factors()
        quoted = (
            (factors and all(f == 2 for f in factors))
            or factors == ()
            or (len(factors) == 1 and (factors[0] == 4 or _is_prime(factors[0])))
        )
        if bool(zero_ok) != bool(quoted):
            return _fail(None, {"group": group.to_json()})
        for ell in group.elements():
            has_weight_ep(group, ell)  # raises on list/replay disagreement
            pairs += 1
        groups += 1
    return _pass({"groups": groups, "pairs": pairs})


def check_normalization(config: RunConfig) -> dict:
    rng = random.Random(config.seed * 1009 + 7)
    total = config.counts(200)
    groups = [CyclicProduct((2,)), CyclicProduct((2, 2)), CyclicProduct((4,))]
    for i in range(total):
        group = groups[i % len(groups)]
        add, zero = group._add, group._zero
        g, _ = random_three_connected(rng, group, rng.randint(4, 10))
        shifts, normalized = normalize_to_zero(g, config.limits)
        if any(e.label.value != zero for e in normalized.edges):
            return _fail(g, {"instance_index": i})
        summed: dict = {}  # the replay, per edge of g: label + the shifts at both ends = 0
        for v, s in shifts:
            summed[v] = add(summed.get(v, zero), s.value)
        replay = {add(add(x.value, summed.get(u, zero)), summed.get(v, zero)) for _, u, v, x, _ in g.edges}
        if replay - {zero}:
            return _fail(g, {"instance_index": i, "reason": "replay"})
        back = apply_shifts(normalized, shifts)
        if [e.label for e in back.edges] != [e.label for e in g.edges]:
            return _fail(g, {"instance_index": i, "reason": "round-trip"})
    return _pass({"instances": total})


def check_reduction(config: RunConfig) -> dict:
    import warnings

    rng = random.Random(config.seed * 1009 + 8)
    total = config.counts(200)
    cases = [(CyclicProduct((9,)), list(range(9))), (CyclicProduct((4,)), [0, 2])]
    for i in range(total):
        group, targets = cases[i % 2]
        g = random_labelled_graph(rng, group, UNDIRECTED, n_max=10)
        ell = group.element(rng.choice(targets))
        half = find_halving(group, ell)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TerminalEdgeWarning)
            reduced = reduce_weight_to_zero(g, ell, half)
        before = {p.vertices for p in enumerate_terminal_paths(g, weight=ell, limits=config.limits)}
        after = {
            p.vertices
            for p in enumerate_terminal_paths(reduced, weight=group.zero(), limits=config.limits)
        }
        if before != after:
            return _fail(g, {"instance_index": i, "ell": ell.to_json()})
    return _pass({"instances": total})


def check_oracle_soundness(config: RunConfig) -> dict:
    rng = random.Random(config.seed * 1009 + 9)
    corpus = 0
    attempts = 0
    groups = [CyclicProduct((2,)), CyclicProduct((3,)), CyclicProduct((4,))]
    while corpus < 40 and attempts < 400:
        attempts += 1
        group = rng.choice(groups)
        model = rng.choice([DIRECTED, UNDIRECTED])
        g = random_labelled_graph(rng, group, model, n_max=9)
        kind = rng.choice([WEIGHT, NONZERO, ODD])
        spec = (
            PathFamilySpec(WEIGHT, g, weight=rng.choice(group.elements()))
            if kind == WEIGHT
            else PathFamilySpec(kind, g)
        )
        members = spec.members(config.limits)
        if not 0 < len(members) <= 12:
            continue
        corpus += 1
        if max_packing(members, config.limits)[0] != naive_max_packing(members):
            return _fail(g, {"kind": kind, "side": "packing"})
        if min_cover(members, config.limits)[0] != naive_min_cover(members):
            return _fail(g, {"kind": kind, "side": "cover"})
    return _pass({"corpus": corpus})


ALL_CHECKS = {
    "frame-random": check_frame_random,
    "duality-random": check_duality_random,
    "chain-exhaustive": check_chain_exhaustive,
    "cauchy-davenport": check_cauchy_davenport,
    "gadgets": check_gadgets,
    "classification": check_classification,
    "normalization": check_normalization,
    "reduction": check_reduction,
    "oracle-soundness": check_oracle_soundness,
}


def _pass(detail: dict) -> dict:
    return {"status": "PASS", "detail": detail}


def _fail(graph, extra: dict) -> dict:
    reproducer = dict(extra)
    if graph is not None:
        reproducer["instance"] = graph.to_json()
    return {"status": "FAIL", "reproducer": reproducer}


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the platform has one)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _fork_context():
    """multiprocessing's fork context, or None where the platform cannot fork."""
    # imported on first use: at the top it would add to every command's start-up
    import multiprocessing

    return multiprocessing.get_context("fork") if "fork" in multiprocessing.get_all_start_methods() else None


def _place_worker(cpus) -> None:
    """Move this worker to the next CPU in the queue `cpus`, then give it back
    every usable CPU.

    Where the cpuset turns load balancing off (`cpuset.sched_load_balance` 0),
    the kernel never moves a running task, so the forked workers can all stay
    on the CPU they were forked on while the others idle.  The full mask comes
    back at once, so where the kernel does balance it is free to move them.
    """
    usable = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpus.get()})
    os.sched_setaffinity(0, usable)


def _run_check(check_id: str, config: RunConfig, started: float) -> dict:
    """One check's report entry under its id: SKIPPED once the budget since `started` is
    spent, and FAIL with the seed in its reproducer when the check fails or raises a
    GammapathError.  The budget is read here only: it starts no check after it."""
    if time.monotonic() - started > config.limits.budget_s:
        return {"id": check_id, "status": "SKIPPED", "detail": {"reason": "budget exhausted"}}
    t0 = time.monotonic()
    try:
        out = ALL_CHECKS[check_id](config)
    except GammapathError as exc:
        out = {"status": "FAIL", "reproducer": {"error": str(exc)}}
    out["elapsed_s"] = round(time.monotonic() - t0, 3)
    if out["status"] == "FAIL":
        out.setdefault("reproducer", {})["seed"] = config.seed
    return {"id": check_id, **out}


def run_suite(config: RunConfig, only: list[str] | None = None) -> dict:
    """Run the verification checks and report them in id order, deterministically.

    The checks run in forked worker processes, one per usable CPU up to the
    number of checks and each started on a CPU of its own, or in-process when
    that is one or the platform cannot fork.  Each worker reads the budget from
    the same start time, so a check is SKIPPED when it would start after the
    budget, whichever worker runs it.  No worker outlives the call.
    """
    if only is not None and (not only or not set(only) <= ALL_CHECKS.keys()):
        raise UsageError(f"check ids must be some of {', '.join(sorted(ALL_CHECKS))}; got {only}")
    ids = sorted(ALL_CHECKS) if only is None else [i for i in sorted(ALL_CHECKS) if i in only]
    started = time.monotonic()
    workers = min(len(ids), _usable_cpus())
    context = _fork_context() if workers > 1 else None
    args = (ids, itertools.repeat(config), itertools.repeat(started))
    if context is None:
        ordered = list(map(_run_check, *args))
    else:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        placing = {}
        if hasattr(os, "sched_setaffinity"):
            cpus = context.SimpleQueue()
            for cpu in sorted(os.sched_getaffinity(0)):
                cpus.put(cpu)
            placing = {"initializer": _place_worker, "initargs": (cpus,)}
        try:
            with ProcessPoolExecutor(workers, mp_context=context, **placing) as pool:
                ordered = list(pool.map(_run_check, *args))
        except BrokenProcessPool as exc:
            raise InternalInvariantError(f"a verify-suite worker died: {exc}") from exc
    summary = {
        "pass": sum(1 for r in ordered if r["status"] == "PASS"),
        "fail": sum(1 for r in ordered if r["status"] == "FAIL"),
        "skipped": sum(1 for r in ordered if r["status"] == "SKIPPED"),
    }
    return {
        "config": {
            "seed": config.seed,
            "scale": config.scale,
            "budget_s": config.limits.budget_s,
            "limits": {
                "max_len": config.limits.max_len,
                "max_paths": config.limits.max_paths,
                "cycle_cap": config.limits.cycle_cap,
            },
        },
        "checks": ordered,
        "summary": summary,
        "elapsed_s": round(time.monotonic() - started, 3),
    }

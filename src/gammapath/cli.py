"""Command-line entry point: JSON in, JSON out, diagnostics on stderr.

Each subcommand's handler maps its parsed args to (payload, verdict), and `run`
prints the payload as the one JSON document on stdout: exit 0 for a positive
verdict, 1 for a negative one or a failed check.  Any failure after argument
parsing prints {"error": kind, "detail": message} instead, plus one stderr
line: usage, exit 2 (malformed input, a missing gadget flag, a gadget limit
flag without --verify, an unreadable input or unwritable --out file);
limit-exceeded, exit 3; rejected, exit 1 (a failed precondition); internal,
exit 1 (a failed self-check).  A bad command
line exits 2 with argparse's message on stderr only.  Gadget variants: gamma
takes --ell (an element of the integers, read as every element token is;
default 0) and --model; gamma-prime needs --group, --g1 and --g2;
gamma-double-prime needs --group, --ell and --g.
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import sys

from .chains import CycleChain, reachable_weights, reroute_to_weight
from .errors import (
    DEFAULT_LIMITS,
    GammapathError,
    Limits,
    LimitExceeded,
    PreconditionFailed,
    UsageError,
    parsing,
    require_keys,
)
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
    is_gamma_bipartite,
    normalize_to_zero,
    three_blocks,
)
from .groups import _DECIMAL, IntegerGroup, group_from_json, has_weight_ep, has_zero_path_ep
from .harness import RunConfig, run_suite
from .jsonio import dumps, graph_from_json, parse_element, witness_from_json
from .packing import (
    ABA,
    NONZERO,
    ODD,
    WEIGHT,
    PathFamilySpec,
    duality_report,
    max_packing,
    min_cover,
)

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3

# exception type -> (error kind, exit code, stderr prefix); the first matching row wins
_ERRORS = (
    (LimitExceeded, "limit-exceeded", EXIT_LIMIT, "limit exceeded"),
    (UsageError, "usage", EXIT_USAGE, "usage error"),
    ((PreconditionFailed, ValueError), "rejected", EXIT_NO, "error"),
    (GammapathError, "internal", EXIT_NO, "internal error"),
)

# variant -> (builder, flags it needs, flags it may take); the group variants
# parse their needed flags after --group as elements of that group
_GADGETS = {
    "gamma": (build_integer_gadget, (), ("ell", "model")),
    "gamma-prime": (build_quotient_gadget, ("group", "g1", "g2"), ()),
    "gamma-double-prime": (build_subgroup_escape_gadget, ("group", "ell", "g"), ()),
}
_GADGET_FLAGS = sorted({name for _, needed, optional in _GADGETS.values() for name in needed + optional})

# each Limits field a command may read -> its flag
_LIMIT_FLAGS = {"max_len": "--max-len", "max_paths": "--max-paths", "cycle_cap": "--cycle-cap", "budget_s": "--budget"}
_PATH_LIMITS = ("max_len", "max_paths")


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} is not JSON: {exc}") from None


def _read_json(path: str):
    if path == "-":
        return _parse_json(sys.stdin.read(), "standard input")
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    return _parse_json(text, path)


def _graph(args):
    return graph_from_json(_read_json(args.graph))


def _limits(args) -> Limits:
    """Limits from the limit flags the command accepts, checked by Limits; the rest are the defaults."""
    return Limits(**{k: v for k, v in vars(args).items() if k in _LIMIT_FLAGS and v is not None})


def _family_spec(graph, text: str) -> PathFamilySpec:
    kind, _, rest = text.partition(":")
    if kind == "weight":
        return PathFamilySpec(WEIGHT, graph, weight=parse_element(graph.group, rest))
    if kind == "nonzero":
        return PathFamilySpec(NONZERO, graph)
    if kind == "odd":
        return PathFamilySpec(ODD, graph)
    if kind == "aba":
        # a token is an int vertex id when it is ASCII decimal, as integer labels are
        tokens = [t for t in rest.split(",") if t]
        vertices = frozenset(int(t) if _DECIMAL.fullmatch(t) else t for t in tokens)
        return PathFamilySpec(ABA, graph, through=vertices)
    raise UsageError(f"unknown family {text!r}")


def _classify(args):
    group = group_from_json(_parse_json(args.group, "--group"))
    ell = None if args.ell is None else parse_element(group, args.ell)
    verdict = has_zero_path_ep(group) if ell is None else has_weight_ep(group, ell)
    return {"group": group.to_json(), "ell": None if ell is None else ell.to_json(), "ep": verdict}, verdict


def _on_family(solve, args):
    spec = _family_spec(_graph(args), args.family)
    result = solve(spec, _limits(args))
    return {"family": spec.to_json(), **result}, True


def _pack(spec, limits):
    nu, paths = max_packing(spec, limits)
    return {"nu": nu, "packing": [p.to_json() for p in paths], "optimal": True}


def _cover(spec, limits):
    tau, cover = min_cover(spec, limits)
    return {"tau": tau, "cover": sorted(cover, key=spec.graph._rank.__getitem__), "optimal": True}


def _duality(spec, limits):
    report = duality_report(spec, limits)
    return {**report, "packing": report["packing"].to_json(), "cover": report["cover"].to_json()}


def _frame(args):
    result = frame_pack_or_cover(_graph(args), args.k, _limits(args), debug=args.debug)
    return {"k": args.k, **result.to_json()}, True


def _chain(args):
    data = _read_json(args.chain)
    if isinstance(data, dict) and "graph" in data:
        require_keys(data, ("core", "detours"), "chain")
        graph = graph_from_json(data["graph"])
        with parsing("chain"):
            core = witness_from_json(graph, data["core"])
            detours = [witness_from_json(graph, d) for d in data["detours"]]
        chain = CycleChain.embedded(graph, core, detours)
    else:
        require_keys(data, ("group", "core_weight", "deltas"), "chain")
        group = group_from_json(data["group"])
        with parsing("chain"):
            chain = CycleChain.abstract(group, data["core_weight"], data["deltas"])
    target = parse_element(chain.group, args.target)
    out = reroute_to_weight(chain, target)
    if out is None:
        reach = sorted(reachable_weights(chain), key=chain.group.elem_sort_key)
        return {"verdict": "NONE", "reachable": [e.to_json() for e in reach]}, False
    return {
        "verdict": "FOUND",
        "target": target.to_json(),
        "subset": list(out.subset),
        "path": out.path.to_json() if out.path else None,
    }, True


def _gadget(args):
    build, needed, optional = _GADGETS[args.variant]
    given = [name for name in _GADGET_FLAGS if getattr(args, name) is not None]
    unread = [f"--{name}" for name in given if name not in needed + optional]
    if unread:
        raise UsageError(f"{args.variant} does not read {', '.join(unread)}")
    missing = [f"--{name}" for name in needed if name not in given]
    if missing:
        raise UsageError(f"{args.variant} needs {', '.join(missing)}")
    # the limit flags default to None here, so that one given without --verify is seen
    limits = [_LIMIT_FLAGS[name] for name in _PATH_LIMITS if getattr(args, name) is not None]
    if limits and not args.verify:
        raise UsageError(f"gadget reads {', '.join(limits)} only with --verify")
    if needed:
        group = group_from_json(_parse_json(args.group, "--group"))
        gadget = build(args.n, group, *(parse_element(group, getattr(args, name)) for name in needed[1:]))
    else:
        ell = parse_element(IntegerGroup(), args.ell).value if args.ell is not None else 0
        gadget = build(args.n, ell, model=args.model or UNDIRECTED)
    payload = gadget.to_json()
    if args.verify:
        payload["verify"] = verify_gadget(gadget, _limits(args))
    return payload, True


def _bipartite(args):
    verdict = is_gamma_bipartite(_graph(args), _limits(args))
    return {"gamma_bipartite": verdict}, verdict


def _normalize(args):
    shifts, normalized = normalize_to_zero(_graph(args), _limits(args))
    return {"shifts": [[v, g.to_json()] for v, g in shifts], "graph": normalized.to_json()}, True


def _blocks(args):
    return {"blocks": [b.to_json() for b in three_blocks(_graph(args), _limits(args))]}, True


def _verify_suite(args):
    config = RunConfig(seed=args.seed, scale=args.scale, limits=_limits(args))
    report = run_suite(config, only=args.only)
    for check in report["checks"]:
        print(f"{check['id']}: {check['status']}", file=sys.stderr)
    return report, report["summary"]["fail"] == 0


def _add_limits(parser: argparse.ArgumentParser, fields) -> None:
    """A flag per Limits field the command reads, typed and defaulted as DEFAULT_LIMITS holds it."""
    for field in fields:
        flag, default = _LIMIT_FLAGS[field], getattr(DEFAULT_LIMITS, field)
        metavar = flag[2:].upper().replace("-", "_")  # the one argparse derives from the flag
        parser.add_argument(flag, dest=field, metavar=metavar, type=type(default), default=default)


def _add_common(parser: argparse.ArgumentParser, limits=_PATH_LIMITS, graph: bool = True) -> None:
    """--graph, --out and the flags of the Limits fields the command reads."""
    if graph:
        parser.add_argument("--graph", required=True, help="graph JSON file, or - for stdin")
    _add_limits(parser, limits)
    parser.add_argument("--out", help="also write the JSON result to this file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammapath",
        description="packing and covering of weighted terminal-linking paths",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="does the weight family admit a bounded dual cover?")
    p.add_argument("--group", required=True, help="group JSON (inline)")
    p.add_argument("--ell", help="element JSON; omitted means the zero-weight family")
    p.add_argument("--out")
    p.set_defaults(handler=_classify)

    for name, help_text, solve in (
        ("pack", "exact maximum disjoint packing", _pack),
        ("cover", "exact minimum hitting set", _cover),
        ("duality", "run both oracles and compare", _duality),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.add_argument("--family", required=True, help="weight:<elem>|nonzero|odd|aba:<v,v,...>")
        p.set_defaults(handler=functools.partial(_on_family, solve))

    p = sub.add_parser("frame", help="zero-weight packing or bounded cover (directed model)")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--debug", action="store_true", help="re-validate the forest after every move")
    p.set_defaults(handler=_frame)

    p = sub.add_parser("chain", help="reroute a chain to a target weight")
    p.add_argument("--chain", required=True, help="chain JSON file, or - for stdin")
    p.add_argument("--target", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_chain)

    p = sub.add_parser("gadget", help="build a counterexample family instance")
    p.add_argument("--variant", required=True, choices=list(_GADGETS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", help="group JSON (not read by gamma, which is over the integers)")
    p.add_argument("--ell")
    p.add_argument("--g")
    p.add_argument("--g1")
    p.add_argument("--g2")
    p.add_argument("--model", choices=[DIRECTED, UNDIRECTED], help="gamma only; undirected by default")
    p.add_argument("--verify", action="store_true")
    _add_common(p, graph=False)
    p.set_defaults(handler=_gadget, max_len=None, max_paths=None)

    for name, help_text, handler, limits in (
        ("bipartite", "is every cycle weight zero?", _bipartite, ("cycle_cap",)),
        ("normalize", "shift a 3-connected zero-cycle labelling to all-zero", _normalize, ("cycle_cap",)),
        ("blocks", "labelled 2-cut-free block decomposition", _blocks, _PATH_LIMITS),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, limits)
        p.set_defaults(handler=handler)

    p = sub.add_parser("verify-suite", help="run the whole verification battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", choices=["small", "full"], default="full")
    _add_limits(p, ("budget_s",))
    p.add_argument("--only", nargs="*", help="restrict to these check ids")
    p.add_argument("--out")
    p.set_defaults(handler=_verify_suite)

    return parser


def _failure(exc: Exception):
    """(error payload, exit code, stderr line) of the first _ERRORS row that exc matches."""
    kind, code, prefix = next(row[1:] for row in _ERRORS if isinstance(exc, row[0]))
    return {"error": kind, "detail": str(exc)}, code, f"{prefix}: {exc}"


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    note = None
    try:
        payload, verdict = args.handler(args)
        code = EXIT_OK if verdict else EXIT_NO
    except (GammapathError, ValueError) as exc:
        payload, code, note = _failure(exc)
    text = dumps(payload)
    if args.out:
        # written before stdout, so that a failed write still prints one document
        try:
            pathlib.Path(args.out).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            payload, code, note = _failure(UsageError(f"cannot write {args.out}: {exc}"))
            text = dumps(payload)
    print(text)
    if note:
        print(note, file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    code = run(argv if argv is not None else sys.argv[1:])
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()

"""Command-line entry point: JSON in, JSON out, diagnostics on stderr.

Exit codes: 0 success or positive verdict, 1 domain-level negative verdict or
failed check, 2 usage error, 3 exhausted search limits.
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import sys

from .chains import CycleChain, reachable_weights, reroute_to_weight
from .errors import (
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
    vertex_key,
)
from .groups import group_from_json, has_weight_ep, has_zero_path_ep
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

# the gadget flags each variant reads; passing any other is a usage error
_GADGET_PARAMS = {
    "gamma": {"ell", "model"},
    "gamma-prime": {"group", "g1", "g2"},
    "gamma-double-prime": {"group", "ell", "g"},
}


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


def _emit(payload, out_path: str | None) -> None:
    text = dumps(payload)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _limits(args) -> Limits:
    """Limits from the limit flags the command accepts, checked positive by Limits."""
    return Limits(**{k: v for k, v in vars(args).items() if k in ("max_len", "max_paths", "cycle_cap")})


def _family_spec(graph, text: str) -> PathFamilySpec:
    kind, _, rest = text.partition(":")
    if kind == "weight":
        return PathFamilySpec(WEIGHT, graph, weight=parse_element(graph.group, rest))
    if kind == "nonzero":
        return PathFamilySpec(NONZERO, graph)
    if kind == "odd":
        return PathFamilySpec(ODD, graph)
    if kind == "aba":
        tokens = [t for t in rest.split(",") if t]
        vertices = frozenset(int(t) if t.lstrip("-").isdigit() else t for t in tokens)
        return PathFamilySpec(ABA, graph, through=vertices)
    raise UsageError(f"unknown family {text!r}")


def _add_common(parser: argparse.ArgumentParser, paths: bool = True, graph: bool = True) -> None:
    """--graph, --out and the limit flags the command reads: path-search limits or the cycle cap."""
    if graph:
        parser.add_argument("--graph", required=True, help="graph JSON file, or - for stdin")
    if paths:
        parser.add_argument("--max-len", type=int, default=20)
        parser.add_argument("--max-paths", type=int, default=200_000)
    else:
        parser.add_argument("--cycle-cap", type=int, default=100_000)
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

    p = sub.add_parser("pack", help="exact maximum disjoint packing")
    _add_common(p)
    p.add_argument("--family", required=True, help="weight:<elem>|nonzero|odd|aba:<v,v,...>")

    p = sub.add_parser("cover", help="exact minimum hitting set")
    _add_common(p)
    p.add_argument("--family", required=True)

    p = sub.add_parser("duality", help="run both oracles and compare")
    _add_common(p)
    p.add_argument("--family", required=True)

    p = sub.add_parser("frame", help="zero-weight packing or bounded cover (directed model)")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--debug", action="store_true", help="re-validate the forest after every move")

    p = sub.add_parser("chain", help="reroute a chain to a target weight")
    p.add_argument("--chain", required=True, help="chain JSON file, or - for stdin")
    p.add_argument("--target", required=True)
    p.add_argument("--out")

    p = sub.add_parser("gadget", help="build a counterexample family instance")
    p.add_argument("--variant", required=True, choices=["gamma", "gamma-prime", "gamma-double-prime"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", help="group JSON (not read by gamma, which is over the integers)")
    p.add_argument("--ell")
    p.add_argument("--g")
    p.add_argument("--g1")
    p.add_argument("--g2")
    p.add_argument("--model", choices=[DIRECTED, UNDIRECTED], help="gamma only; undirected by default")
    p.add_argument("--verify", action="store_true")
    _add_common(p, graph=False)

    p = sub.add_parser("bipartite", help="is every cycle weight zero?")
    _add_common(p, paths=False)

    p = sub.add_parser("normalize", help="shift a 3-connected zero-cycle labelling to all-zero")
    _add_common(p, paths=False)

    p = sub.add_parser("blocks", help="labelled 2-cut-free block decomposition")
    _add_common(p)

    p = sub.add_parser("verify-suite", help="run the whole verification battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", choices=["small", "full"], default="full")
    p.add_argument("--budget", type=float, default=600.0)
    p.add_argument("--only", nargs="*", help="restrict to these check ids")
    p.add_argument("--out")

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _dispatch(args)
    except LimitExceeded as exc:
        _emit({"error": "limit-exceeded", "detail": str(exc)}, getattr(args, "out", None))
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except UsageError as exc:
        _emit({"error": "usage", "detail": str(exc)}, getattr(args, "out", None))
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PreconditionFailed, ValueError) as exc:
        _emit({"error": "rejected", "detail": str(exc)}, getattr(args, "out", None))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO
    except GammapathError as exc:
        _emit({"error": "internal", "detail": str(exc)}, getattr(args, "out", None))
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_NO


def _dispatch(args) -> int:
    if args.command == "classify":
        group = group_from_json(_parse_json(args.group, "--group"))
        if args.ell is None:
            verdict = has_zero_path_ep(group)
            payload = {"group": group.to_json(), "ell": None, "ep": verdict}
        else:
            ell = parse_element(group, args.ell)
            verdict = has_weight_ep(group, ell)
            payload = {"group": group.to_json(), "ell": ell.to_json(), "ep": verdict}
        _emit(payload, args.out)
        return EXIT_OK if verdict else EXIT_NO

    if args.command in ("pack", "cover", "duality"):
        graph = graph_from_json(_read_json(args.graph))
        spec = _family_spec(graph, args.family)
        limits = _limits(args)
        if args.command == "pack":
            nu, paths = max_packing(spec, limits)
            _emit(
                {
                    "family": spec.to_json(),
                    "nu": nu,
                    "packing": [p.to_json() for p in paths],
                    "optimal": True,
                },
                args.out,
            )
            return EXIT_OK
        if args.command == "cover":
            tau, cover = min_cover(spec, limits)
            _emit(
                {
                    "family": spec.to_json(),
                    "tau": tau,
                    "cover": sorted(cover, key=vertex_key),
                    "optimal": True,
                },
                args.out,
            )
            return EXIT_OK
        report = duality_report(spec, limits)
        _emit(
            {
                "family": spec.to_json(),
                "nu": report["nu"],
                "tau": report["tau"],
                "ratio": report["ratio"],
                "bound_ok": report["bound_ok"],
                "theorem_backed": report["theorem_backed"],
                "packing": report["packing"].to_json(),
                "cover": report["cover"].to_json(),
            },
            args.out,
        )
        return EXIT_OK

    if args.command == "frame":
        graph = graph_from_json(_read_json(args.graph))
        result = frame_pack_or_cover(graph, args.k, _limits(args), debug=args.debug)
        _emit({"k": args.k, **result.to_json()}, args.out)
        return EXIT_OK

    if args.command == "chain":
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
            _emit(
                {"verdict": "NONE", "reachable": [e.to_json() for e in reach]},
                args.out,
            )
            return EXIT_NO
        payload = {
            "verdict": "FOUND",
            "target": target.to_json(),
            "subset": list(out.subset),
            "path": out.path.to_json() if out.path else None,
        }
        _emit(payload, args.out)
        return EXIT_OK

    if args.command == "gadget":
        unread = [f"--{name}" for name in sorted(set().union(*_GADGET_PARAMS.values()))
                  if getattr(args, name) is not None and name not in _GADGET_PARAMS[args.variant]]
        if unread:
            raise UsageError(f"{args.variant} does not read {', '.join(unread)}")
        if args.variant == "gamma":
            ell = int(args.ell) if args.ell is not None else 0
            gadget = build_integer_gadget(args.n, ell, model=args.model or UNDIRECTED)
        else:
            if not args.group:
                raise ValueError("this variant needs --group")
            group = group_from_json(_parse_json(args.group, "--group"))
            if args.variant == "gamma-prime":
                if args.g1 is None or args.g2 is None:
                    raise ValueError("gamma-prime needs --g1 and --g2")
                gadget = build_quotient_gadget(
                    args.n, group, parse_element(group, args.g1), parse_element(group, args.g2)
                )
            else:
                if args.ell is None or args.g is None:
                    raise ValueError("gamma-double-prime needs --ell and --g")
                gadget = build_subgroup_escape_gadget(
                    args.n, group, parse_element(group, args.ell), parse_element(group, args.g)
                )
        payload = gadget.to_json()
        if args.verify:
            payload["verify"] = verify_gadget(gadget, _limits(args))
        _emit(payload, args.out)
        return EXIT_OK

    if args.command == "bipartite":
        graph = graph_from_json(_read_json(args.graph))
        verdict = is_gamma_bipartite(graph, _limits(args).cycle_cap)
        _emit({"gamma_bipartite": verdict}, args.out)
        return EXIT_OK if verdict else EXIT_NO

    if args.command == "normalize":
        graph = graph_from_json(_read_json(args.graph))
        shifts, normalized = normalize_to_zero(graph, _limits(args).cycle_cap)
        _emit(
            {
                "shifts": [[v, g.to_json()] for v, g in shifts],
                "graph": normalized.to_json(),
            },
            args.out,
        )
        return EXIT_OK

    if args.command == "blocks":
        graph = graph_from_json(_read_json(args.graph))
        result = three_blocks(graph, _limits(args))
        _emit({"blocks": [b.to_json() for b in result]}, args.out)
        return EXIT_OK

    if args.command == "verify-suite":
        config = RunConfig(seed=args.seed, scale=args.scale, limits=Limits(budget_s=args.budget))
        report = run_suite(config, only=args.only)
        _emit(report, args.out)
        for check in report["checks"]:
            print(f"{check['id']}: {check['status']}", file=sys.stderr)
        return EXIT_OK if report["summary"]["fail"] == 0 else EXIT_NO

    raise ValueError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    code = run(argv if argv is not None else sys.argv[1:])
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()

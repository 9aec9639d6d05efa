"""Command-line front end: counting, components, verification, recognition, export."""
from __future__ import annotations

import argparse
import json
import sys
import time

from .arith import DEFAULT_FACTOR_BOUND, FactoredInt
from .checks import CLAIM_IDS, load_manifest, run_verifications
from .graphs import build_power_graph, component_decomposition, to_dot, to_json
from .groups import DEFAULT_ORDER_CAP, build_group
from .recognition import recognize
from .treecount import compute_kappa


def _add_common(sub, factor_bound=False, order_cap=False, as_json=False):
    if factor_bound:
        sub.add_argument("--factor-bound", type=int, default=DEFAULT_FACTOR_BOUND,
                         metavar="N", help="trial-division bound for factoring counts")
    if order_cap:
        sub.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP,
                         metavar="N", help="largest group order accepted")
    if as_json:
        sub.add_argument("--json", action="store_true", help="machine-readable output")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powertree",
        description="Spanning-tree counts of power graphs of finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kappa = sub.add_parser("kappa", help="count spanning trees of a power graph")
    kappa.add_argument("group", help="group spec, e.g. 'quaternion:8'")
    _add_common(kappa, factor_bound=True, order_cap=True, as_json=True)

    comp = sub.add_parser("components", help="components of the reduced power graph")
    comp.add_argument("group")
    _add_common(comp, order_cap=True, as_json=True)

    verify = sub.add_parser("verify", help="run the claim suite over a corpus")
    verify.add_argument("group", nargs="?", default=None,
                        help="restrict to a single group spec")
    verify.add_argument("--claim", choices=CLAIM_IDS, default=None,
                        help="restrict to a single claim")
    verify.add_argument("--corpus", default=None, metavar="FILE",
                        help="manifest file (defaults to the packaged corpus)")
    _add_common(verify, factor_bound=True, order_cap=True, as_json=True)

    rec = sub.add_parser("recognize", help="recognize A6 from a factored tree count")
    rec.add_argument("--kappa", required=True, metavar="LITERAL",
                     help="factored integer, e.g. '2^180*3^40*5^108'")
    _add_common(rec, factor_bound=True, as_json=True)

    export = sub.add_parser("export", help="export a power graph")
    export.add_argument("group")
    export.add_argument("--dot", default=None, metavar="FILE",
                        help="write DOT to FILE instead of JSON to stdout")
    _add_common(export, order_cap=True)

    return parser


def _cmd_kappa(args) -> int:
    group = build_group(args.group, args.order_cap)
    graph = build_power_graph(group)
    report = compute_kappa(graph, factor_bound=args.factor_bound)
    print(f"engine time: {report.wall_time:.3f}s", file=sys.stderr)
    if args.json:
        payload = {
            "group": group.label,
            "kappa": str(report.kappa),
            "cross_checked": report.cross_checked,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"kappa = {report.kappa}")
    return 0


def _cmd_components(args) -> int:
    group = build_group(args.group, args.order_cap)
    decomposition = component_decomposition(group)
    if args.json:
        payload = {
            "group": group.label,
            "count": decomposition.count,
            "components": [
                {
                    "size": c.size,
                    "is_clique": c.is_clique,
                    "witness": (group.element_label(c.witness)
                                if c.witness is not None else None),
                }
                for c in decomposition.components
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"components = {decomposition.count}")
        for i, c in enumerate(decomposition.components, start=1):
            if c.witness is not None:
                detail = f"clique from <{group.element_label(c.witness)}>"
            elif c.is_clique:
                detail = "clique"
            else:
                detail = "not a clique"
            print(f"component {i}: size {c.size}, {detail}")
    return 0


def _cmd_verify(args) -> int:
    specs = [args.group] if args.group else load_manifest(args.corpus)
    claims = [args.claim] if args.claim else None
    results = run_verifications(specs, claims, args.order_cap, args.factor_bound)
    if args.json:
        print(json.dumps([r.to_json_dict() for r in results], indent=2))
    else:
        for r in results:
            flag = "PASS" if r.holds else "FAIL"
            print(f"{flag} {r.claim_id} [{r.group_label}] {r.witness}")
        failures = sum(1 for r in results if not r.holds)
        print(f"{len(results)} checks, {failures} failures")
    return 1 if any(not r.holds for r in results) else 0


def _cmd_recognize(args) -> int:
    kappa = FactoredInt.parse(args.kappa, args.factor_bound)
    result = recognize(kappa)
    if args.json:
        payload = {
            "steps": [
                {"number": s.number, "name": s.name, "summary": s.summary,
                 "data": s.data}
                for s in result.steps
            ],
            "verdict": result.verdict,
        }
        print(json.dumps(payload, indent=2))
    else:
        for s in result.steps:
            print(f"step {s.number}: {s.name}: {s.summary}")
        print(f"verdict: {result.verdict}")
    return 0


def _cmd_export(args) -> int:
    group = build_group(args.group, args.order_cap)
    graph = build_power_graph(group)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(to_dot(graph))
    else:
        sys.stdout.write(to_json(graph))
    return 0


_COMMANDS = {
    "kappa": _cmd_kappa,
    "components": _cmd_components,
    "verify": _cmd_verify,
    "recognize": _cmd_recognize,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        status = _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"powertree: error: {exc}", file=sys.stderr)
        return 2
    finally:
        print(f"total time: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: counting, components, verification, recognition, export."""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from .arith import DEFAULT_FACTOR_BOUND, FactoredInt
from .checks import CLAIM_IDS, GroupBundle, load_manifest, run_verifications
from .graphs import to_dot, to_json
from .groups import DEFAULT_ORDER_CAP
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


def _cmd_kappa(args) -> tuple[int, str]:
    bundle = GroupBundle(args.group, args.order_cap)
    report = compute_kappa(bundle.graph, factor_bound=args.factor_bound)
    print(f"engine time: {report.wall_time:.3f}s", file=sys.stderr)
    if args.json:
        payload = {
            "group": bundle.label,
            "kappa": str(report.kappa),
            "cross_checked": report.cross_checked,
        }
        return 0, json.dumps(payload, indent=2) + "\n"
    return 0, f"kappa = {report.kappa}\n"


def _cmd_components(args) -> tuple[int, str]:
    bundle = GroupBundle(args.group, args.order_cap)
    group, decomposition = bundle.group, bundle.decomposition
    if args.json:
        payload = {
            "group": group.label,
            "count": len(decomposition),
            "components": [
                {
                    "size": c.size,
                    "is_clique": c.is_clique,
                    "witness": (group.element_label(c.witness)
                                if c.witness is not None else None),
                }
                for c in decomposition
            ],
        }
        return 0, json.dumps(payload, indent=2) + "\n"
    lines = [f"components = {len(decomposition)}"]
    for i, c in enumerate(decomposition, start=1):
        if c.witness is not None:
            detail = f"clique from <{group.element_label(c.witness)}>"
        elif c.is_clique:
            detail = "clique"
        else:
            detail = "not a clique"
        lines.append(f"component {i}: size {c.size}, {detail}")
    return 0, "\n".join(lines) + "\n"


def _cmd_verify(args) -> tuple[int, str]:
    specs = [args.group] if args.group else load_manifest(args.corpus)
    claims = [args.claim] if args.claim else None
    results = run_verifications(specs, claims, args.order_cap, args.factor_bound)
    status = 1 if any(not r.holds for r in results) else 0
    if args.json:
        return status, json.dumps([r.to_json_dict() for r in results], indent=2) + "\n"
    lines = [f"{'PASS' if r.holds else 'FAIL'} {r.claim_id} [{r.group_label}] {r.witness}"
             for r in results]
    failures = sum(1 for r in results if not r.holds)
    lines.append(f"{len(results)} checks, {failures} failures")
    return status, "\n".join(lines) + "\n"


def _cmd_recognize(args) -> tuple[int, str]:
    kappa = FactoredInt.parse(args.kappa, args.factor_bound)
    result = recognize(kappa)
    if args.json:
        payload = {
            "steps": [dataclasses.asdict(s) for s in result.steps],
            "verdict": result.verdict,
        }
        return 0, json.dumps(payload, indent=2) + "\n"
    lines = [f"step {s.number}: {s.name}: {s.summary}" for s in result.steps]
    lines.append(f"verdict: {result.verdict}")
    return 0, "\n".join(lines) + "\n"


def _cmd_export(args) -> tuple[int, str]:
    graph = GroupBundle(args.group, args.order_cap).graph
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(to_dot(graph))
        return 0, ""
    return 0, to_json(graph)


def _write(text: str) -> None:
    """Write a command's output to stdout. A reader that closes the pipe early
    (``powertree ... | head``) has taken what it wanted, which is not an
    error: the rest is dropped, and stdout is pointed at os.devnull, so that
    the interpreter's final flush does not fail again."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


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
        status, text = _COMMANDS[args.command](args)
        _write(text)
    except (ValueError, OSError) as exc:
        print(f"powertree: error: {exc}", file=sys.stderr)
        return 2
    finally:
        print(f"total time: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: their inputs, their operations and their checks.

A workload object is made from the imported powertree package and the seed;
making it is the set-up a user also pays. `ops()` lists one round of
operations, `record()` keeps what an operation returned, outside its timing,
and `check()` compares the kept results with the oracles after the timed
rounds, returning one line per problem.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import oracles

# Corpus specs above this order (cyclic:343, cyclic:360, dihedral:360, alt:6,
# psl2:9, psl2:8, psl2:11) take about 175 s of the corpus's 190 s, beyond
# what one run may take; psl2:11 alone takes about 95 s.
CORPUS_ORDER_LIMIT = 256

KAPPA_BLOCKS = ("quaternion:256", "sym:6", "psl2:13", "alt:6",
                "sym:5 x cyclic:3", "alt:6 x cyclic:2")
RECOGNIZED = ("alt:6", "psl2:13")
MODULAR_CHECKED = ("sym:6", "sym:5 x cyclic:3", "alt:6 x cyclic:2")
CHECK_PRIMES = 2

GRAPH_BOUND = ("cyclic:1024", "cyclic:1331", "cyclic:1849", "elemabelian:2:10",
               "elemabelian:3:6", "elemabelian:11:3", "elemabelian:43:2")
# det(J+Q) = 1849^1849 has 6045 digits, and formatting it in a claim witness
# exceeds Python's 4300-digit int-to-str limit: this operation fails every time.
FAILING_VERIFY = ("cyclic:1849", "full-degree-det-divisor")


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    group: bool = True  # the whole path for one group, so it counts for slowest_group_s


def _kappa_path(pt, spec: str):
    """What `powertree kappa SPEC` runs: build, power graph, auto engine."""
    return pt.compute_kappa(pt.build_power_graph(pt.build_group(spec)), "auto")


class CorpusVerify:
    """run_verifications over the shipped corpus up to CORPUS_ORDER_LIMIT, one spec at a time."""

    name = "corpus-verify"

    def __init__(self, pt, seed: int):
        self.pt = pt
        self.specs = [s for s in pt.load_manifest() if pt.spec_order(s) <= CORPUS_ORDER_LIMIT]
        self.rows: dict[str, list] = {}
        self.values: dict[str, tuple[int, int, int]] = {}  # spec -> (n, det(J+Q), kappa)
        self._created: list = []
        bundle_class = pt.checks.GroupBundle
        init = bundle_class.__init__
        created = self._created

        def recording_init(bundle, *args, **kwargs):  # keeps the bundle run_verifications made
            init(bundle, *args, **kwargs)
            created.append(bundle)

        bundle_class.__init__ = recording_init

    def ops(self) -> list[Op]:
        return [Op(spec, lambda spec=spec: self.pt.run_verifications([spec]))
                for spec in self.specs]

    def record(self, op: Op, rows) -> None:
        self.rows[op.label] = rows
        for bundle in self._created:  # both values are cached by the claims that ran
            self.values[op.label] = (bundle.group.n, bundle.det_jq, bundle.kappa.value)
        self._created.clear()

    def check(self) -> list[str]:
        problems = []
        claims = set()
        for spec in self.specs:
            if spec not in self.rows:
                problems.append(f"{spec}: no rows")
                continue
            for row in self.rows[spec]:
                claims.add(row.claim_id)
                if not row.holds:
                    problems.append(f"{spec}: {row.claim_id} fails: {row.witness}")
            n, det, kappa = self.values[spec]
            if det != n * n * kappa:
                problems.append(f"{spec}: det(J+Q) != n^2 * kappa")
        missing = set(self.pt.CLAIM_IDS) - claims
        if missing:
            problems.append(f"claims never checked: {sorted(missing)}")
        return problems


class KappaBlocks:
    """compute_kappa(auto) on groups whose blocks need the determinant, then recognize."""

    name = "kappa-blocks"

    def __init__(self, pt, seed: int):
        self.pt = pt
        self.primes = oracles.seeded_primes(seed, CHECK_PRIMES)
        self.kappa: dict[str, object] = {}
        self.verdicts: dict[str, str] = {}

    def ops(self) -> list[Op]:
        pt = self.pt
        ops = [Op(spec, lambda spec=spec: _kappa_path(pt, spec)) for spec in KAPPA_BLOCKS]
        ops += [Op(f"recognize {spec}", lambda spec=spec: pt.recognize(self.kappa[spec]),
                   group=False) for spec in RECOGNIZED]
        return ops

    def record(self, op: Op, result) -> None:
        if op.group:
            self.kappa[op.label] = result.kappa
        else:
            self.verdicts[op.label.split(" ", 1)[1]] = result.verdict

    def check(self) -> list[str]:
        missing = [s for s in KAPPA_BLOCKS if s not in self.kappa]
        missing += [f"recognize {s}" for s in RECOGNIZED if s not in self.verdicts]
        if missing:
            return [f"no result for {label}" for label in missing]
        problems = []
        value = {spec: k.value for spec, k in self.kappa.items()}
        if value["quaternion:256"] != oracles.quaternion_kappa(64):
            problems.append("quaternion:256: kappa differs from 2^(5m-1) m^(2m-2), m = 64")
        if value["alt:6"] != oracles.A6_KAPPA:
            problems.append("alt:6: kappa differs from 2^180*3^40*5^108")
        if self.verdicts["alt:6"] != self.pt.SUCCESS_VERDICT:
            problems.append(f"alt:6: verdict {self.verdicts['alt:6']!r}")
        if value["psl2:13"] != oracles.psl2_kappa(13):
            problems.append("psl2:13: kappa differs from the PSL(2,q) formula")
        if self.verdicts["psl2:13"] == self.pt.SUCCESS_VERDICT:
            problems.append("psl2:13: recognized as A6")
        for spec in MODULAR_CHECKED:
            expected = oracles.kappa_mod(*oracles.group_from_spec(spec), self.primes)
            for p, residue in expected.items():
                if value[spec] % p != residue:
                    problems.append(f"{spec}: kappa mod {p} is {value[spec] % p}, "
                                    f"the reduced Laplacian gives {residue}")
        return problems


def _graph_bound_kappa(spec: str) -> int:
    family, *params = spec.split(":")
    if family == "cyclic":  # prime-power order: the power graph is complete
        return oracles.cayley(int(params[0]))
    return oracles.elementary_abelian_kappa(int(params[0]), int(params[1]))


class GraphBound:
    """compute_kappa(auto) near the order cap where every block is complete."""

    name = "graph-bound"

    def __init__(self, pt, seed: int):
        self.pt = pt
        self.kappa: dict[str, object] = {}
        self.verify_rows = None

    def ops(self) -> list[Op]:
        pt = self.pt
        spec, claim = FAILING_VERIFY
        return [Op(s, lambda s=s: _kappa_path(pt, s)) for s in GRAPH_BOUND] + [
            Op(f"verify {spec} --claim {claim}",
               lambda: pt.run_verifications([spec], [claim]), group=False)]

    def record(self, op: Op, result) -> None:
        if op.group:
            self.kappa[op.label] = result.kappa
        else:
            self.verify_rows = result

    def check(self) -> list[str]:
        problems = []
        for spec in GRAPH_BOUND:  # integers compared, never their decimal strings
            if spec not in self.kappa:
                problems.append(f"no result for {spec}")
            elif self.kappa[spec].value != _graph_bound_kappa(spec):
                problems.append(f"{spec}: kappa differs from its closed form")
        if self.verify_rows is not None and not all(r.holds for r in self.verify_rows):
            problems.append(f"{FAILING_VERIFY[0]}: {FAILING_VERIFY[1]} fails")
        return problems


WORKLOADS = {w.name: w for w in (CorpusVerify, KappaBlocks, GraphBound)}

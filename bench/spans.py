"""Spans around powertree's public functions, recorded from outside the program.

`Tracer.install` replaces each traced function, method or property with a
wrapper that records one span: its layer metric, start, end and parent span.
Times are read from the process CPU clock, the clock of the end-to-end
metrics. Spans stay in memory, in flat arrays, until `layer_metrics` turns
them into per-layer self times (a span's duration minus the time its child
spans cover). Counters that need extra work, such as a matrix's Hadamard bound,
are taken after the traced call returns, inside a span of their own that no
layer owns, so they inflate no layer's self time.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from math import isqrt

# metric -> (module, attribute path) of each traced callable, in powertree
TIMED = {
    "groups.build_s": [("groups", "build_group")],
    "groups.profile_s": [("groups", "FiniteGroup.profile")],
    "graphs.power_graph_s": [("graphs", "build_power_graph")],
    "graphs.blocks_s": [("graphs", "Graph.biconnected_blocks")],
    "graphs.subgraph_s": [("graphs", "Graph.subgraph"), ("graphs", "reduced_power_graph")],
    "graphs.components_s": [("graphs", "component_decomposition")],
    "determinant.matrix_s": [("determinant", "ones_plus_laplacian")],
    "determinant.bareiss_s": [("determinant", "det_bareiss")],
    "determinant.crt_s": [("determinant", "det_crt")],
    "treecount.kappa_s": [("treecount", "compute_kappa"), ("treecount", "kappa_decomposed"),
                          ("treecount", "kappa_matrix_tree")],
    "arith.factor_s": [("arith", "FactoredInt.from_int")],
    "checks.det_jq_s": [("checks", "GroupBundle.det_jq")],
    "checks.kappa_s": [("checks", "GroupBundle.kappa")],
    "checks.claims_s": [("checks", "run_verifications")],
    "recognition.recognize_s": [("recognition", "recognize")],
}

COUNTS = ("groups.elements", "graphs.edges", "graphs.blocks", "graphs.largest_block",
          "determinant.calls", "determinant.dim_max", "determinant.dim_cubed",
          "determinant.crt_moduli", "arith.factor_calls", "checks.rows")

_UNOWNED = "trace.counting"
_WORD = 1 << 31  # det_crt draws its moduli from the primes just below this


def _is_word_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below 3.2e9."""
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in (2, 3, 5, 7):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Tracer:
    """Span recorder for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.clock = time.process_time  # the end-to-end metrics' clock
        self.counts = dict.fromkeys(COUNTS, 0)
        self._moduli_used = 0
        self._moduli_needed = 0
        self._word_primes: list[int] = []
        self._word_product = [1]  # running products of the word primes

    # -- recording --

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _begin(self, name_id: int) -> int:
        span = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._open.append(span)
        self.start[span] = self.clock()
        return span

    def _finish(self, span: int) -> None:
        self.end[span] = self.clock()
        self._open.pop()

    def wrap(self, metric: str, fn, counter=None):
        """`fn` wrapped to record a span under `metric`, then call `counter`."""
        name_id = self._name_id(metric)
        unowned = self._name_id(_UNOWNED)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(span)
            if counter is not None:
                span = self._begin(unowned)
                try:
                    counter(args, result)
                finally:
                    self._finish(span)
            return result

        return traced

    # -- counters --

    def _count_group(self, args, group):
        self.counts["groups.elements"] += group.n

    def _count_graph(self, args, graph):
        self.counts["graphs.edges"] += graph.edge_count()

    def _count_blocks(self, args, blocks):
        self.counts["graphs.blocks"] += len(blocks)
        largest = max((len(b) for b in blocks), default=0)
        self.counts["graphs.largest_block"] = max(self.counts["graphs.largest_block"], largest)

    def _count_det(self, args, value):
        d = len(args[0])
        self.counts["determinant.calls"] += 1
        self.counts["determinant.dim_max"] = max(self.counts["determinant.dim_max"], d)
        self.counts["determinant.dim_cubed"] += d ** 3

    def _moduli_for(self, limit: int) -> int:
        """Fewest of the largest word primes whose product exceeds `limit`."""
        count = 0
        while True:
            if count == len(self._word_primes):
                candidate = (self._word_primes[-1] if self._word_primes else _WORD + 1) - 2
                while not _is_word_prime(candidate):
                    candidate -= 2
                self._word_primes.append(candidate)
                self._word_product.append(self._word_product[-1] * candidate)
            count += 1
            if self._word_product[count] > limit:
                return count

    def _count_crt(self, args, value):
        self._count_det(args, value)
        bound_sq = 1  # Hadamard: det^2 <= product of the rows' squared norms
        for row in args[0]:
            bound_sq *= sum(x * x for x in row)
        if bound_sq == 0:
            return
        # det_crt stops once (product of moduli)^2 > 4 * bound_sq; the value
        # itself needs only product > 2 * |det| for its symmetric residue
        used = self._moduli_for(isqrt(4 * bound_sq))
        self._moduli_used += used
        self._moduli_needed += self._moduli_for(2 * abs(value))
        self.counts["determinant.crt_moduli"] += used

    def _count_factor(self, args, value):
        self.counts["arith.factor_calls"] += 1

    def _count_rows(self, args, rows):
        self.counts["checks.rows"] += len(rows)

    # -- installation --

    def install(self, package) -> None:
        """Wrap every traced callable wherever powertree's modules bind it.

        A callable the library no longer has is skipped, and its metric reads 0.
        """
        counters = {
            "build_group": self._count_group,
            "build_power_graph": self._count_graph,
            "Graph.biconnected_blocks": self._count_blocks,
            "det_bareiss": self._count_det,
            "det_crt": self._count_crt,
            "FactoredInt.from_int": self._count_factor,
            "run_verifications": self._count_rows,
        }
        prefix = package.__name__ + "."
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(prefix)]
        for metric, targets in TIMED.items():
            for module_name, path in targets:
                owner = sys.modules.get(prefix + module_name)
                *class_name, attr = path.split(".")
                if owner is not None and class_name:
                    owner = vars(owner).get(class_name[0])
                if owner is None or attr not in vars(owner):
                    continue
                counter = counters.get(path)
                if class_name:
                    self._wrap_member(owner, attr, metric, counter)
                    continue
                original = vars(owner)[attr]
                traced = self.wrap(metric, original, counter)
                for m in modules:  # `from .x import f` binds f in every importer
                    for name, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, name, traced)

    def _wrap_member(self, cls, attr, metric, counter):
        member = vars(cls)[attr]
        if isinstance(member, property):
            setattr(cls, attr, property(self.wrap(metric, member.fget, counter)))
        elif isinstance(member, classmethod):
            setattr(cls, attr, classmethod(self.wrap(metric, member.__func__, counter)))
        else:
            setattr(cls, attr, self.wrap(metric, member, counter))

    # -- results --

    def layer_metrics(self) -> dict[str, float]:
        """Self time of every layer, and the counts."""
        covered = [0.0] * len(self.start)
        for span in range(len(self.start)):
            parent = self.parent[span]
            if parent >= 0:
                covered[parent] += self.end[span] - self.start[span]
        out = dict.fromkeys(TIMED, 0.0)
        for span in range(len(self.start)):
            metric = self.names[self.name[span]]
            if metric in out:
                out[metric] += self.end[span] - self.start[span] - covered[span]
        out.update(self.counts)
        out["determinant.crt_moduli_useful"] = (
            self._moduli_needed / self._moduli_used if self._moduli_used else 0.0)
        out["trace.spans"] = len(self.start)
        return out

"""The benchmark's oracles against sympy's exact determinant on small groups."""
import random

import numpy as np
import pytest
import sympy

import oracles
from powertree import build_group, build_power_graph


def _kappa_by_sympy(spec: str) -> int:
    """Matrix-tree count from the library's power graph and sympy's determinant."""
    graph = build_power_graph(build_group(spec))
    rows = [[graph.degree(i) if i == j else -int(graph.has_edge(i, j))
             for j in range(1, graph.n)] for i in range(1, graph.n)]
    return int(sympy.Matrix(rows).det()) if rows else 1


def _closure(generators):
    """(elements, multiply) of the permutation group the generators generate."""
    compose = oracles.compose
    seen = {tuple(range(len(generators[0])))}
    frontier = list(seen)
    while frontier:
        frontier = [t for t in {compose(s, g) for s in frontier for g in generators}
                    if t not in seen]
        seen.update(frontier)
    return sorted(seen), compose


def _mobius_maps(q: int):
    """x -> x+1, x -> 2x and x -> -1/x on the projective line over Z_q (q prime, 2 a square)."""
    infinity = q

    def perm(f):
        return tuple(f(x) for x in range(q + 1))

    return [
        perm(lambda x: x if x == infinity else (x + 1) % q),
        perm(lambda x: x if x == infinity else 2 * x % q),
        perm(lambda x: 0 if x == infinity else infinity if x == 0 else -pow(x, -1, q) % q),
    ]


SMALL_GROUPS = {
    "cyclic:12": lambda: oracles.group_from_spec("cyclic:12"),
    "dihedral:12": lambda: _closure([(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)]),
    "sym:4": lambda: oracles.group_from_spec("sym:4"),
    "psl2:7": lambda: _closure(_mobius_maps(7)),
    "alt:4 x cyclic:2": lambda: oracles.group_from_spec("alt:4 x cyclic:2"),
}


@pytest.mark.parametrize("spec", sorted(SMALL_GROUPS))
def test_modular_oracle_matches_sympy(spec):
    elements, mul = SMALL_GROUPS[spec]()
    assert len(elements) == build_group(spec).n
    kappa = _kappa_by_sympy(spec)
    primes = oracles.seeded_primes(7, 3)
    assert oracles.kappa_mod(elements, mul, primes) == {p: kappa % p for p in primes}


def test_closed_forms_match_sympy():
    for n in (8, 9, 25, 27):
        assert oracles.cayley(n) == _kappa_by_sympy(f"cyclic:{n}")
    for p, k in ((2, 3), (3, 2), (5, 2), (3, 3)):
        assert oracles.elementary_abelian_kappa(p, k) == _kappa_by_sympy(f"elemabelian:{p}:{k}")
    for m in (2, 4, 8):
        assert oracles.quaternion_kappa(m) == _kappa_by_sympy(f"quaternion:{4 * m}")
    for q in (4, 5, 7):
        assert oracles.psl2_kappa(q) == _kappa_by_sympy(f"psl2:{q}")


def test_psl2_formula_gives_the_published_a6_count():
    assert oracles.psl2_kappa(9) == oracles.A6_KAPPA


def test_cyclic_kappa_matches_sympy():
    for m in range(1, 16):
        assert oracles.cyclic_kappa(m) == _kappa_by_sympy(f"cyclic:{m}")


def test_det_mod_matches_sympy_on_random_matrices():
    rng = random.Random(3)
    p = oracles.seeded_primes(3, 1)[0]
    for _ in range(30):
        n = rng.randrange(1, 9)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.2:
            rows[-1] = list(rows[0])  # singular
        expected = int(sympy.Matrix(rows).det()) % p
        assert oracles.det_mod(np.array(rows, dtype=np.int64), p) == expected


def test_seeded_primes_repeat_per_seed():
    first = oracles.seeded_primes(5, 3)
    assert first == oracles.seeded_primes(5, 3)
    assert first != oracles.seeded_primes(6, 3)
    assert len(set(first)) == 3
    assert all(sympy.isprime(p) and (1 << 23) <= p < (1 << 24) for p in first)

"""The tree-count recognition pipeline for the alternating group of degree six."""
import itertools

import pytest
import sympy

from powertree import SUCCESS_VERDICT, FactoredInt, closed_form_psl2, recognize

A6_COUNT = "2^180*3^40*5^108"
A5_COUNT = "3^10*5^18"


def test_recognizes_the_alternating_group():
    result = recognize(FactoredInt.parse(A6_COUNT))
    assert result.recognized
    assert result.verdict == SUCCESS_VERDICT
    assert [s.name for s in result.steps] == [
        "abelian-scan", "prime-cap", "maximal-order-exclusions",
        "candidate-table", "alternating-five-elimination",
        "symplectic-elimination",
    ]
    assert [s.number for s in result.steps] == [1, 2, 3, 4, 5, 6]
    assert result.steps[1].data["cap"] == 13
    assert result.steps[2].data["excluded"] == [7, 11]
    assert result.steps[3].data["candidates"] == ["A5", "A6", "S4(7)"]
    assert result.steps[4].data["eliminated"] is True
    final = result.steps[5].data
    assert final["prime"] == 7
    assert final["required_valuation"] == 20
    assert final["observed_valuation"] == 0
    assert final["eliminated"] is True


def test_rejects_the_degree_five_count():
    result = recognize(FactoredInt.parse(A5_COUNT))
    assert not result.recognized
    assert result.verdict == "not kappa(A6): this is kappa(A5)"
    # the nonabelian scan and the prime cap still pass before the table lookup
    assert [s.name for s in result.steps] == [
        "abelian-scan", "prime-cap", "maximal-order-exclusions",
        "candidate-table",
    ]
    assert result.steps[3].data["candidates"] == ["A5"]


def test_rejects_prime_power_counts_of_cyclic_groups():
    result = recognize(FactoredInt.parse("5^3"))
    assert not result.recognized
    assert result.verdict == (
        "not kappa(A6): matches kappa of the cyclic group of order 5"
    )
    assert len(result.steps) == 1
    assert result.steps[0].data == {"prime": 5}
    assert recognize(FactoredInt.parse("3")).steps[0].data == {"prime": 3}


def test_rejects_counts_with_wrong_prime_profile():
    result = recognize(FactoredInt.parse("2^11"))
    assert not result.recognized
    assert result.verdict == (
        "not kappa(A6): no classified simple group matches this prime profile"
    )
    assert len(result.steps) == 4


def test_rejects_near_misses_that_survive_the_sieve():
    near_miss = recognize(FactoredInt.parse("2^180*3^40*5^109"))
    assert not near_miss.recognized
    assert len(near_miss.steps) == 6
    assert near_miss.verdict.startswith(
        "not kappa(A6): the remaining candidate A6"
    )
    # a heavy power of seven keeps 7 out of the exclusion list entirely
    sevens = recognize(FactoredInt.parse("2^180*3^40*5^108*7^20"))
    assert not sevens.recognized
    assert sevens.steps[2].data["excluded"] == [11]
    assert len(sevens.steps) == 4


def test_steps_five_and_six_always_eliminate_their_candidate():
    # Step 4 passes only at prime cap 13 with 7 and 11 excluded at step 3.
    # kappa(A5) has prime cap 7, so it stops at step 4 and never meets step 5;
    # and 7 excluded means a 7-adic valuation below 5, short of the 20 that
    # S4(7)'s maximal order 56 forces at step 6. kappa(A6) always passes
    # step 4, so the only published count step 4 can match is kappa(A5).
    a5 = recognize(FactoredInt.parse(A5_COUNT))
    assert a5.steps[1].data["cap"] == 7
    assert len(a5.steps) == 4
    a5_value = FactoredInt.parse(A5_COUNT).value
    a6_value = FactoredInt.parse(A6_COUNT).value
    grid = (FactoredInt({p: e for p, e in zip((2, 3, 5, 7, 11), exponents) if e})
            for exponents in itertools.product(range(0, 301, 30), range(0, 161, 40),
                                               range(0, 217, 36), (0, 1, 4, 5, 6),
                                               (0, 3, 8, 9)))
    # L2(4) = L2(5) = A5 and L2(9) = A6, next to the closed forms of L2(7) and L2(8)
    closed_forms = [closed_form_psl2(q) for q in (4, 5, 7, 8, 9)]
    reached = recognized = matched = 0
    for kappa in itertools.chain(grid, [FactoredInt.parse(A5_COUNT)], closed_forms):
        result = recognize(kappa)
        steps = result.steps
        assert len(steps) in (1, 4, 6)
        if kappa.value == a6_value:
            assert len(steps) == 6
        if len(steps) == 4 and steps[3].data["candidates"]:
            matched += 1
            assert steps[3].data["candidates"] == ["A5"]
            assert kappa.value == a5_value
            assert result.verdict == "not kappa(A6): this is kappa(A5)"
        if len(steps) < 6:
            continue
        reached += 1
        recognized += result.recognized
        assert steps[3].data["candidates"] == ["A5", "A6", "S4(7)"]
        assert kappa.value != a5_value
        assert steps[4].data == {"candidate": "A5", "eliminated": True}
        final = steps[5].data
        assert final["observed_valuation"] == kappa.valuation(7) < 5
        assert final["required_valuation"] == 20
        assert final["eliminated"] is True
    assert reached > 1000
    assert matched == 3  # A5_COUNT, L2(4) and L2(5)
    assert recognized == 2  # 2^180*3^40*5^108 is on the grid, and is L2(9)'s count


def test_requires_a_complete_factorization():
    partial = FactoredInt.from_int(2 * 10007, bound=100)
    assert not partial.fully_factored
    with pytest.raises(ValueError):
        recognize(partial)


def _scan_by_powers(value):
    """Steps 1-3 of the recognition with every power multiplied out."""
    p = scanned = 2
    while p ** (p - 2) <= value:
        scanned = p
        if p ** (p - 2) == value:
            return [{"prime": p}]
        p = sympy.nextprime(p)
    cap = 2
    while cap ** ((cap - 2) * (cap + 1)) <= value:
        cap = sympy.nextprime(cap)
    excluded = [r for r in sympy.primerange(2, cap) if value % r ** (r - 2)]
    return [{"highest_prime_scanned": scanned}, {"cap": cap}, {"excluded": excluded}]


@pytest.mark.parametrize("text", ["2^20000", "3^5000*5^7", "1009^1007", "1013^1007",
                                  A6_COUNT, "1"])
def test_large_counts_scan_by_exponents(text):
    kappa = FactoredInt.parse(text)
    expected = _scan_by_powers(kappa.value)
    assert [s.data for s in recognize(kappa).steps[:len(expected)]] == expected


def test_huge_power_of_two_finishes():
    value = 2 ** 1_000_000
    steps = recognize(FactoredInt.parse("2^1000000")).steps
    scanned = steps[0].data["highest_prime_scanned"]
    assert scanned ** (scanned - 2) < value
    above = sympy.nextprime(scanned)
    assert above ** (above - 2) > value
    cap = steps[1].data["cap"]
    below = sympy.prevprime(cap)
    assert below ** ((below - 2) * (below + 1)) <= value < cap ** ((cap - 2) * (cap + 1))
    assert steps[2].data["excluded"] == list(sympy.primerange(3, cap))

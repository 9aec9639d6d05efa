"""Number-theory helpers and integers carried with their factorizations."""
import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest
import sympy

import powertree
from powertree import FactoredInt, arith
from powertree.arith import (decimal_digits, decimal_str, euler_phi, is_prime,
                             iter_primes, parse_decimal, prime_factors,
                             prime_power, primes_below,
                             smallest_prime_power_above, valuation)


def test_is_prime_matches_sympy_below_2000():
    for n in range(2000):
        assert is_prime(n) == sympy.isprime(n)


def test_is_prime_past_trial_division():
    # strong pseudoprimes to the bases 2 .. 7, 2 .. 23 and 2 .. 37
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(10 ** 18 + 3)
    assert not is_prime((10 ** 9 + 7) * (10 ** 9 + 9))


# the first prime above the bound below which Miller-Rabin with the bases 2 .. 41 is exact
_PRIME_PAST_MILLER_RABIN = 3317044064679887385962123


def test_is_prime_refuses_what_miller_rabin_does_not_decide():
    # a prime factor up to 41 still decides it; anything else would need
    # trial division up to a 13-digit square root
    assert sympy.isprime(_PRIME_PAST_MILLER_RABIN)
    assert not is_prime(41 * _PRIME_PAST_MILLER_RABIN)
    assert not is_prime(2 ** 200)
    for n in (_PRIME_PAST_MILLER_RABIN, 43 * _PRIME_PAST_MILLER_RABIN, 43 ** 3000):
        with pytest.raises(ValueError, match="is not decided"):
            is_prime(n)


def test_primes_below():
    assert primes_below(0) == []
    assert primes_below(2) == []
    assert primes_below(3) == [2]
    assert primes_below(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_below(10000) == list(sympy.primerange(0, 10000))


def test_iter_primes_prefix():
    it = iter_primes()
    assert [next(it) for _ in range(10)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_iter_primes_across_many_sieve_doublings():
    below = itertools.takewhile(lambda p: p < 10 ** 5, iter_primes())
    assert list(below) == list(sympy.primerange(0, 10 ** 5))


@pytest.mark.parametrize("trial_table_first", [True, False])
def test_one_kept_prime_list_serves_every_reader(monkeypatch, trial_table_first):
    # from an empty list: the trial table, iter_primes and the scan read one
    # list, before and after the scan grows it past the trial table's 10^4
    monkeypatch.setattr(arith, "_kept", [])
    monkeypatch.setattr(arith, "_kept_limit", 0)
    arith._trial_primes.cache_clear()
    try:
        if trial_table_first:
            assert arith._trial_primes() == primes_below(10 ** 4)
        assert list(itertools.takewhile(lambda p: p < 10 ** 4, iter_primes())) == primes_below(10 ** 4)
        assert arith._trial_primes() == primes_below(10 ** 4)
        assert arith._kept_limit <= 2 * 10 ** 4
        assert smallest_prime_power_above(3 * 10 ** 4, lambda p: 1) == 30011
        assert arith._kept_limit > 3 * 10 ** 4
        assert list(itertools.takewhile(lambda p: p < 10 ** 5, iter_primes())) == primes_below(10 ** 5)
        assert arith._trial_primes() == primes_below(10 ** 4)
        arith._trial_primes.cache_clear()
        assert arith._trial_primes() == primes_below(10 ** 4)
    finally:
        arith._trial_primes.cache_clear()


@pytest.mark.parametrize("exponent", [lambda p: p - 2, lambda p: (p - 2) * (p + 1)])
def test_smallest_prime_power_above_at_the_boundaries(exponent):
    def first_above(value):  # every power multiplied out
        p = 2
        while p ** exponent(p) <= value:
            p = sympy.nextprime(p)
        return p

    for q in sympy.primerange(2, 60):
        power = q ** exponent(q)
        for value in (power - 1, power, power + 1, 2 * power):
            if value >= 1:
                assert smallest_prime_power_above(value, exponent) == first_above(value)


def test_prime_factors_reassemble():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(1, 10 ** 6)
        factors = prime_factors(n)
        product = 1
        for p, e in factors.items():
            assert is_prime(p) and e >= 1
            product *= p ** e
        assert product == n
    assert prime_factors(1) == {}
    with pytest.raises(ValueError):
        prime_factors(0)


def test_euler_phi_matches_sympy():
    for n in range(1, 300):
        assert euler_phi(n) == sympy.totient(n)
    with pytest.raises(ValueError):
        euler_phi(0)


def test_prime_power():
    assert prime_power(2) == (2, 1)
    assert prime_power(8) == (2, 3)
    assert prime_power(243) == (3, 5)
    assert prime_power(7) == (7, 1)
    assert prime_power(1) is None
    assert prime_power(12) is None
    assert prime_power(100) is None


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(-54, 3) == 3
    assert valuation(7, 2) == 0
    with pytest.raises(ValueError):
        valuation(0, 2)
    for base in (1, 0, -1):  # a base of 1 would divide forever
        with pytest.raises(ValueError, match="at least 2"):
            valuation(48, base)


def test_from_int_round_trip():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randrange(1, 10 ** 9)
        fi = FactoredInt.from_int(n)
        assert fi.value == n
        product = fi.cofactor
        for p, e in fi.factors.items():
            assert is_prime(p) and p <= 10_000
            product *= p ** e
        assert product == n


def test_from_int_respects_bound():
    fi = FactoredInt.from_int(2 * 3 * 101, bound=10)
    assert fi.factors == {2: 1, 3: 1}
    assert fi.cofactor == 101
    assert not fi.fully_factored
    assert FactoredInt.from_int(101, bound=101).factors == {101: 1}
    assert FactoredInt.from_int(49, bound=10).factors == {7: 2}


def test_str_and_parse_round_trip():
    cases = [1, 2, 16, 540, 2048, 7823278080, 3 ** 10 * 5 ** 18]
    for n in cases:
        fi = FactoredInt.from_int(n)
        assert FactoredInt.parse(str(fi)).value == n
    assert str(FactoredInt.from_int(540)) == "2^2*3^3*5"
    assert str(FactoredInt.from_int(1)) == "1"
    assert str(FactoredInt.from_int(2048)) == "2^11"


def test_round_trip_past_the_int_str_limit():
    big = FactoredInt.from_int(2 ** 5 * 10007 ** 1200)  # a 4801-digit cofactor
    text = str(big)
    assert text.startswith("2^5*") and len(text) == 4 + 4801
    assert FactoredInt.parse(text) == big
    assert FactoredInt.parse(text).cofactor == 10007 ** 1200
    rng = random.Random(43)
    for _ in range(50):
        n = rng.getrandbits(rng.randrange(1, 30000))
        text = decimal_str(n)
        assert len(text) == decimal_digits(n)
        assert parse_decimal(text) == n
        if len(text) < 4000:
            assert text == str(n)
    assert decimal_str(10 ** 5000) == "1" + "0" * 5000
    with pytest.raises(ValueError):
        parse_decimal("1" * 700 + "x")


def test_repr_past_the_int_str_limit():
    big = FactoredInt({}, 10007 ** 1200)  # a 4801-digit cofactor
    assert repr(big) == f"FactoredInt(factors={{}}, cofactor={decimal_str(10007 ** 1200)})"
    assert repr(FactoredInt({2: 5, 3: 1}, 10007)) == (
        "FactoredInt(factors={2: 5, 3: 1}, cofactor=10007)")


def test_parse_literals():
    fi = FactoredInt.parse("2^180*3^40*5^108")
    assert fi.factors == {2: 180, 3: 40, 5: 108}
    assert fi.fully_factored
    assert FactoredInt.parse("1").value == 1
    assert FactoredInt.parse("7").value == 7
    with_cofactor = FactoredInt.parse("2^3*10007")
    assert with_cofactor.value == 8 * 10007
    assert with_cofactor.cofactor == 10007
    assert not with_cofactor.fully_factored


@pytest.mark.parametrize("text", [
    "", "2^x", "2^0", "2^-3", "4^2", "3*2", "10007*2", "15", "2**3", "abc",
])
def test_parse_rejects_malformed_literals(text):
    with pytest.raises(ValueError):
        FactoredInt.parse(text)


@pytest.mark.parametrize("text", [
    "2^1_0", "+2^3", "2^+3", "\u0663", "\u0663^2", "2^\u0663", "\uff12^3", "2^3*1_0007",
    "2^3*+10007", "1_0007", "2^0x3", "2^\t",
])
def test_parse_requires_ascii_digits(text):
    # int() would read each of these: underscores, signs and non-ASCII digits
    with pytest.raises(ValueError, match="malformed"):
        FactoredInt.parse(text)


def test_parse_strips_spaces_around_each_part():
    assert FactoredInt.parse(" 2^3 ") == 8
    assert FactoredInt.parse("2 ^ 3 * 5 ^ 2 * 10007").factors == {2: 3, 5: 2}


def test_parse_cofactor_rule_under_a_large_bound():
    # a cofactor token must have no prime factor <= bound
    bound = 10 ** 6
    fi = FactoredInt.parse("2^3*1000000007", bound)
    assert fi.factors == {2: 3} and fi.cofactor == 1000000007
    assert FactoredInt.parse("100160063", 100).cofactor == 10007 * 10009
    # the last has a prime factor just below the bound and one just above it
    for text in ("4", "15", str(999983 * 1000003)):
        with pytest.raises(ValueError, match="has a prime factor below"):
            FactoredInt.parse(text, bound)


def test_parse_takes_a_proven_prime_cofactor_without_trial_division(monkeypatch):
    # 10^23 + 117 is prime: trial division up to 10^8 took seconds to show it
    # has no factor below the bound, which Miller-Rabin decides at once
    prime = 100000000000000000000117
    divide = arith.trial_divide

    def no_prime(n, bound):
        if n == prime:
            pytest.fail("trial division of a prime cofactor")
        return divide(n, bound)

    monkeypatch.setattr(arith, "trial_divide", no_prime)
    parsed = FactoredInt.parse(f"2^3*{prime}", 10 ** 8)
    assert (parsed.factors, parsed.cofactor) == ({2: 3}, prime)
    # a composite cofactor is still trial-divided, and refused for a factor
    # below the bound: 10^23 + 117 times 10007
    with pytest.raises(ValueError, match="has a prime factor below 100000000"):
        FactoredInt.parse(f"2^3*{prime * 10007}", 10 ** 8)


def test_parse_checks_the_bound_before_primality():
    with pytest.raises(ValueError, match="exceeds the factor bound 100$") as info:
        FactoredInt.parse("10403^2", 100)  # 101 * 103
    assert "prime" not in str(info.value)


def test_constructor_validates():
    with pytest.raises(ValueError):
        FactoredInt({}, 0)
    with pytest.raises(ValueError):
        FactoredInt({2: 0}, 3)


def test_multiplication_and_powers():
    a = FactoredInt.from_int(12)
    b = FactoredInt.from_int(10)
    assert (a * b).value == 120
    assert (a * b).factors == {2: 3, 3: 1, 5: 1}
    assert (a ** 3).value == 12 ** 3
    assert (a ** 0).value == 1
    assert (a ** 1).value == 12
    with pytest.raises(ValueError):
        a ** -1
    product = FactoredInt.product([a, b, FactoredInt.from_int(7 * 10007, bound=100)])
    assert (product.factors, product.cofactor) == ({2: 3, 3: 1, 5: 1, 7: 1}, 10007)
    assert FactoredInt.product([]) == 1


def test_arithmetic_leaves_the_value_unmultiplied():
    a6 = FactoredInt.parse("2^180*3^40*5^108")
    big = a6 ** 10 ** 6 * FactoredInt.from_int(7 * 10007, bound=100)
    assert big.factors == {2: 180 * 10 ** 6, 3: 40 * 10 ** 6, 5: 108 * 10 ** 6, 7: 1}
    assert big.cofactor == 10007
    assert big.valuation(5) == 108 * 10 ** 6
    assert str(big) == "2^180000000*3^40000000*5^108000000*7*10007"
    assert "value" not in vars(a6) and "value" not in vars(big)
    assert a6.value == 2 ** 180 * 3 ** 40 * 5 ** 108
    assert vars(a6)["value"] is a6.value  # multiplied out once, then kept


def test_valuation_method_exact_past_bound():
    fi = FactoredInt.parse("2^3*10007")
    assert fi.valuation(2) == 3
    assert fi.valuation(10007) == 1
    assert fi.valuation(5) == 0
    # unchecked, 1 would divide the cofactor forever, 0 would divide by zero,
    # and 4 or 2 * 10007 would read 0
    for number, p in ((FactoredInt.one(), 1), (FactoredInt({2: 3}), 0),
                      (FactoredInt({2: 3}), 4), (fi, 10007 * 2), (fi, -2)):
        with pytest.raises(ValueError, match="not a prime"):
            number.valuation(p)


def test_valuation_at_a_prime_past_miller_rabin_fails_at_once():
    # a subprocess, so that a hang times out instead of stalling the suite
    source = Path(powertree.__file__).resolve().parents[1]
    script = ("from powertree import FactoredInt; "
              f"FactoredInt.one().valuation({_PRIME_PAST_MILLER_RABIN})")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={"PYTHONPATH": str(source)})
    assert done.returncode == 1
    assert done.stderr.splitlines()[-1].startswith(
        f"ValueError: primality of {_PRIME_PAST_MILLER_RABIN} is not decided")


def test_equality_and_int_conversion():
    assert FactoredInt.from_int(540) == 540
    assert FactoredInt.from_int(540) == FactoredInt.parse("2^2*3^3*5")
    assert int(FactoredInt.from_int(540)) == 540
    assert hash(FactoredInt.from_int(7)) == hash(FactoredInt({7: 1}))


def _odd_trial_divide(n, bound):
    """Trial division by 2 and then every odd number: the reference."""
    factors, rem, p = {}, n, 2
    while rem > 1 and p <= bound:
        if p * p > rem:
            if rem <= bound:
                factors[rem] = factors.get(rem, 0) + 1
                rem = 1
            break
        while rem % p == 0:
            factors[p] = factors.get(p, 0) + 1
            rem //= p
        p += 1 if p == 2 else 2
    return factors, rem


def test_trial_division_over_the_prime_table_matches_every_odd_number():
    # the table holds the primes below 10^4 (the last is 9973); past it the
    # candidates are odd numbers again, so factors and cofactors are unchanged
    # on both sides of the table's end and of the bound
    primes = arith._trial_primes()
    assert len(primes) == 1229 and primes[-1] == 9973
    rng = random.Random(23)
    near_the_end = [9967, 9973, 10007, 10009, 10037, 99991, 1000003]
    numbers = [1, 2, 3, 4, 96, 97, 9403, 9407, 9409, 9410, 9973, 97 * 101, 9973 ** 2, 10007 ** 2,
               9973 * 10007, 10009 * 10037, 2 ** 10 * 3 ** 5 * 9973, 99991 * 1000003, 10 ** 23 + 117,
               (10 ** 23 + 117) * 10007]
    numbers += [rng.choice(near_the_end) * rng.choice(near_the_end) * rng.randrange(1, 10 ** 6)
                for _ in range(40)]
    numbers += [rng.randrange(1, 10 ** 12) for _ in range(40)]
    for bound in (1, 2, 3, 96, 97, 100, 9972, 9973, 9999, 10000, 10001, 10007, 10008, 10 ** 5):
        for n in numbers:
            assert arith.trial_divide(n, bound) == _odd_trial_divide(n, bound), (n, bound)


def _prime_by_prime_trial_divide(n, bound):
    """trial_divide one table prime at a time, with no runs: the reference
    for the runs. Returns the factors as (prime, exponent) pairs in the
    order found, and the cofactor."""
    factors = {}
    rem = n
    for p in itertools.chain(arith._trial_primes(), itertools.count(10_001, 2)):
        if rem <= 1 or p > bound:
            break
        if p * p > rem:
            if rem <= bound:
                factors[rem] = factors.get(rem, 0) + 1
                rem = 1
            break
        while rem % p == 0:
            factors[p] = factors.get(p, 0) + 1
            rem //= p
    return list(factors.items()), rem


def test_trial_division_by_runs_matches_one_prime_at_a_time():
    # a smooth part over the table (and just past it) times a cofactor of
    # each kind: none, below the table's end, a product of two primes near
    # it, up to 10^8 and up to 10^40; each value at one of the bounds in
    # turn, 1000 and 5000 inside runs past the first
    primes = arith._trial_primes()
    near_the_end = [9949, 9967, 9973, 10007, 10009, 10037]
    rng = random.Random(33)
    bounds = (1, 2, 100, 1000, 5000, 9973, 10 ** 4, 10007, 10 ** 5)
    for k in range(36_000):
        smooth = 1
        for _ in range(rng.randrange(7)):
            smooth *= rng.choice(primes if rng.random() < 0.9 else near_the_end) ** rng.randint(1, 3)
        kind = rng.random()
        if kind < 0.35:
            cofactor = 1
        elif kind < 0.7:
            cofactor = rng.randrange(1, 10 ** 4)
        elif kind < 0.8:
            cofactor = rng.choice(near_the_end) * rng.choice(near_the_end)
        elif kind < 0.99:
            cofactor = rng.randrange(1, 10 ** 8)
        else:
            cofactor = rng.randrange(1, 10 ** 40)
        n, bound = smooth * cofactor, bounds[k % len(bounds)]
        factors, rem = arith.trial_divide(n, bound)
        assert (list(factors.items()), rem) == _prime_by_prime_trial_divide(n, bound), (n, bound)

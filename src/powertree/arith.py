"""Small number-theory helpers and integers carried with their factorizations."""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import chain, compress, count, islice, takewhile

DEFAULT_FACTOR_BOUND = 10_000
# Python refuses str() and int() on decimals longer than its int-to-str limit
# (4300 digits by default, at least 640); longer numbers go through in halves.
_SAFE_DIGITS = 600
_LOG10_2 = 0.30102999566398120


class ExactnessError(ArithmeticError):
    """An exact-arithmetic invariant failed: an inexact division, or two
    exact routes to the same number disagreeing."""


# Miller-Rabin with the prime bases 2 .. 41 is deterministic below this bound
# (Sorenson & Webster, Strong pseudoprimes to twelve prime bases, 2017).
_MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Primality by deterministic Miller-Rabin below _MILLER_RABIN_LIMIT.

    At or above the limit only a prime factor up to 41 decides the answer
    (not prime); any other n raises ValueError, as no test here is both
    exact and fast there.
    """
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # no prime factor up to 41 leaves n prime
        return True
    if n >= _MILLER_RABIN_LIMIT:
        raise ValueError(f"primality of {decimal_short(n)} is not decided: it is at least "
                         f"{_MILLER_RABIN_LIMIT}, past deterministic Miller-Rabin")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def iter_primes():
    """Yield 2, 3, 5, 7, 11, ... without bound, from the kept prime list,
    which is sieved again over at least twice its range each time a reader
    runs past its end."""
    limit, taken = 64, 0
    while True:
        primes = _kept_primes(limit)
        yield from islice(primes, taken, None)
        taken = len(primes)
        # by Bertrand's postulate, twice the largest prime is past the sieved range
        limit = 2 * primes[-1]


def primes_below(limit: int) -> list[int]:
    """All primes < limit, by sieve."""
    if limit <= 2:
        return []
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return list(compress(range(limit), sieve))


def smallest_prime_power_above(value: int, exponent) -> int:
    """The smallest prime p with p ** exponent(p) > value, for value >= 1.

    With L the bit length of value, 2^(L-1) <= value < 2^L, and with b the
    bit length of p^64, 2^(b-1) <= p^64 < 2^b. So f(b-1) >= 64L proves
    p^f > value, and fb <= 64(L-1) proves p^f <= value; the power is
    multiplied out only between the two.
    """
    bits = value.bit_length()
    for p in iter_primes():
        f = exponent(p)
        b = (p ** 64).bit_length()
        if f * (b - 1) >= 64 * bits:
            return p
        if f * b > 64 * (bits - 1) and p ** f > value:
            return p


# Every prime below _kept_limit, ascending. The list is replaced, never
# changed in place, so a reader may keep iterating the one it was handed.
_kept_limit = 0
_kept: list[int] = []


def _kept_primes(limit: int) -> list[int]:
    """The kept prime list, first sieved again up to max(limit, twice its
    range) if it does not yet hold every prime below `limit`."""
    global _kept_limit, _kept
    if limit > _kept_limit:
        _kept_limit = max(limit, 2 * _kept_limit)
        _kept = primes_below(_kept_limit)
    return _kept


# trial division walks the primes below this, then odd numbers
_TRIAL_TABLE_LIMIT = 10_000


@cache
def _trial_primes() -> list[int]:
    """The 1229 primes below _TRIAL_TABLE_LIMIT, read from the kept list on first use."""
    primes = _kept_primes(_TRIAL_TABLE_LIMIT)
    return primes[:bisect_left(primes, _TRIAL_TABLE_LIMIT)]


def _trial_divisors():
    """The trial divisors in ascending order, without end: the primes below
    _TRIAL_TABLE_LIMIT, then every odd number past it."""
    return chain(_trial_primes(), count(_TRIAL_TABLE_LIMIT + 1, 2))


def trial_divide(n: int, bound: int) -> tuple[dict[int, int], int]:
    """Split off every prime <= bound from n >= 1 by trial division over
    ``_trial_divisors``. Returns the exponents found, in ascending order of
    the primes, and the cofactor, which no prime <= bound divides.
    """
    factors: dict[int, int] = {}
    rem = n
    for p in _trial_divisors():
        if rem <= 1 or p > bound:
            break
        if p * p > rem:
            # the remainder is prime; split it off only if it is within the bound
            if rem <= bound:
                factors[rem] = factors.get(rem, 0) + 1
                rem = 1
            break
        while rem % p == 0:
            factors[p] = factors.get(p, 0) + 1
            rem //= p
    return factors, rem


def prime_factors(n: int) -> dict[int, int]:
    """Complete factorization of n >= 1 by trial division."""
    if n < 1:
        raise ValueError(f"cannot factor non-positive integer {n}")
    return trial_divide(n, n)[0]


def euler_phi(n: int) -> int:
    """Euler's totient."""
    if n < 1:
        raise ValueError(f"totient undefined for {n}")
    result = n
    for p in prime_factors(n):
        result = result // p * (p - 1)
    return result


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n = p**k, or None if n is not a prime power."""
    if n < 2:
        return None
    fac = prime_factors(n)
    if len(fac) != 1:
        return None
    ((p, k),) = fac.items()
    return p, k


def decimal_digits(n: int) -> int:
    """Number of decimal digits of |n| (1 for zero), by arithmetic alone."""
    n = abs(n)
    digits = max(1, int(n.bit_length() * _LOG10_2))  # never more than the true count
    while 10 ** digits <= n:
        digits += 1
    return digits


def decimal_str(n: int) -> str:
    """``str(n)`` for n >= 0 of any length: long ones are converted in halves."""
    digits = decimal_digits(n)
    if digits <= _SAFE_DIGITS:
        return str(n)
    half = digits // 2
    high, low = divmod(n, 10 ** half)
    return decimal_str(high) + decimal_str(low).zfill(half)


def decimal_short(value: int) -> str:
    """The value, or its first 12 and last 6 digits and its length when longer than 40."""
    digits = decimal_digits(value)
    if digits <= 40:
        return str(value)
    sign = "-" if value < 0 else ""
    value = abs(value)
    return (f"{sign}{value // 10 ** (digits - 12)}...{value % 10 ** 6:06d} "
            f"({digits} digits)")


def parse_decimal(text: str) -> int:
    """The integer spelled by ASCII digits alone, of any length (the inverse of
    decimal_str); signs, underscores, spaces and other digits are refused."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"malformed decimal literal of {len(text)} characters")
    if len(text) <= _SAFE_DIGITS:
        return int(text)
    half = len(text) // 2
    return parse_decimal(text[:-half]) * 10 ** half + parse_decimal(text[-half:])


def valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n (n != 0, p >= 2)."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    if p < 2:
        raise ValueError(f"valuation at {p} is undefined: the base must be at least 2")
    e = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        e += 1
    return e


@dataclass(frozen=True)
class FactoredInt:
    """A positive integer held as its small-prime factorization.

    Primes up to the construction bound are split into ``factors``; whatever
    remains (coprime to every prime below the bound) sits in ``cofactor``.
    Products and powers add and scale exponents; ``value`` multiplies the
    factorization out once, the first time it is read.
    """

    factors: dict[int, int] = field(default_factory=dict)
    cofactor: int = 1

    def __post_init__(self):
        if self.cofactor < 1:
            raise ValueError(f"factored integers must be positive, got cofactor {self.cofactor}")
        for p, e in self.factors.items():
            if e < 1:
                raise ValueError(f"non-positive exponent for prime {p}")

    @cached_property
    def value(self) -> int:
        out = self.cofactor
        for p, e in self.factors.items():
            out *= p ** e
        return out

    @classmethod
    def one(cls) -> FactoredInt:
        return cls()

    @classmethod
    def product(cls, items) -> FactoredInt:
        """The product of an iterable of factored integers, merged in one pass."""
        factors: dict[int, int] = {}
        cofactor = 1
        for item in items:
            for p, e in item.factors.items():
                factors[p] = factors.get(p, 0) + e
            cofactor *= item.cofactor
        return cls(factors, cofactor)

    @classmethod
    def from_int(cls, value: int, bound: int = DEFAULT_FACTOR_BOUND) -> FactoredInt:
        """Factor out every prime <= bound by trial division."""
        if value < 1:
            raise ValueError(f"cannot factor non-positive integer {value}")
        return cls(*trial_divide(value, bound))

    @classmethod
    def parse(cls, text: str, bound: int = DEFAULT_FACTOR_BOUND) -> FactoredInt:
        """Parse literals like ``2^180*3^40*5^108`` (ascending primes, optional cofactor).

        A trailing cofactor must have no prime factor up to `bound`; one that
        ``is_prime`` proves prime is taken without trial division."""
        s = text.strip()
        if not s:
            raise ValueError("empty factored-integer literal")
        tokens = s.split("*")
        if tokens == ["1"]:
            return cls.one()
        factors: dict[int, int] = {}
        cofactor = 1
        previous = 0
        for pos, token in enumerate(tokens):
            token = token.strip()
            if "^" in token:
                base_text, _, exp_text = token.partition("^")
                try:
                    p, e = parse_decimal(base_text.strip()), parse_decimal(exp_text.strip())
                except ValueError:
                    raise ValueError(f"malformed factor token {token!r}") from None
                if e < 1:
                    raise ValueError(f"non-positive exponent in token {token!r}")
            else:
                try:
                    p, e = parse_decimal(token), 1
                except ValueError:
                    raise ValueError(f"malformed factor token {token!r}") from None
                if not (p <= bound and is_prime(p)):
                    # trailing cofactor: must come last and dodge every small prime
                    if pos != len(tokens) - 1:
                        raise ValueError(f"cofactor token {token!r} must come last")
                    if p < 2:
                        raise ValueError(f"malformed cofactor token {token!r}")
                    # a prime cofactor, which Miller-Rabin proves far faster
                    # than trial division up to the bound, has no factor below
                    # it; any other is divided only up to its first factor
                    divisors = takewhile(lambda d: d <= bound and d * d <= p, _trial_divisors())
                    if not (p < _MILLER_RABIN_LIMIT and is_prime(p)) and any(
                            p % d == 0 for d in divisors):
                        raise ValueError(
                            f"cofactor token {token!r} has a prime factor below {bound}"
                        )
                    cofactor = p
                    continue
            if p > bound:
                raise ValueError(f"base of token {token!r} exceeds the factor bound {bound}")
            if not is_prime(p):
                raise ValueError(f"token {token!r} is not prime")
            if p <= previous:
                raise ValueError(f"primes must be strictly ascending at token {token!r}")
            factors[p] = e
            previous = p
        return cls(factors, cofactor)

    def __str__(self) -> str:
        parts = [f"{p}^{e}" if e != 1 else str(p) for p, e in sorted(self.factors.items())]
        if self.cofactor != 1:
            parts.append(decimal_str(self.cofactor))
        return "*".join(parts) if parts else "1"

    def __repr__(self) -> str:
        return f"FactoredInt(factors={self.factors!r}, cofactor={decimal_str(self.cofactor)})"

    def __int__(self) -> int:
        return self.value

    def __eq__(self, other) -> bool:
        if isinstance(other, FactoredInt):
            return self.value == other.value
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)

    def __mul__(self, other: FactoredInt) -> FactoredInt:
        if not isinstance(other, FactoredInt):
            return NotImplemented
        return FactoredInt.product((self, other))

    def __pow__(self, exponent: int) -> FactoredInt:
        if exponent < 0:
            raise ValueError("negative powers leave the integers")
        if exponent == 0:
            return FactoredInt.one()
        if exponent == 1:
            return self
        return FactoredInt({p: e * exponent for p, e in self.factors.items()},
                           self.cofactor ** exponent)

    def valuation(self, p: int) -> int:
        """p-adic valuation of the value (exact even for primes above the bound).
        A p that is not prime raises ValueError."""
        if p in self.factors:
            return self.factors[p]
        if not is_prime(p):
            raise ValueError(f"valuation at {p}, which is not a prime")
        if self.cofactor % p == 0:
            return valuation(self.cofactor, p)
        return 0

    @property
    def fully_factored(self) -> bool:
        return self.cofactor == 1

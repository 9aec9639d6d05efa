"""Recognition of the alternating group A6 by its spanning-tree count.

Given a fully factored tree count, decide whether a finite simple group with
that count must be A6. The decision runs as a fixed sequence of steps, each
recorded with the data it derived, so the trace documents the argument:

1. no cyclic group of prime order has this count (the group is nonabelian);
2. a cap P bounds the primes dividing the group order, since any prime p
   needs p+1 cyclic subgroups of order p and each contributes p^(p-2);
3. primes r below the cap with r^(r-2) not dividing the count cannot be
   maximal element orders;
4. the classification of simple groups with that prime profile leaves the
   candidates A5, A6 and S4(7);
5. A5 is eliminated: its published count has prime cap 7 and stops at step 4;
6. S4(7) is eliminated because its maximal element order 56 would force a
   7-adic valuation of at least 20 on the count.
"""
from __future__ import annotations

from dataclasses import dataclass

from .arith import (FactoredInt, euler_phi, prime_factors, primes_below,
                    smallest_prime_power_above, valuation)

SUCCESS_VERDICT = "A6 (unique in class S)"

# Published facts of the candidates, only those the steps read
KAPPA_A5 = FactoredInt.parse("3^10*5^18")
KAPPA_A6 = FactoredInt.parse("2^180*3^40*5^108")
CANDIDATES = ("A5", "A6", "S4(7)")  # simple groups left by step 4's prime profile
S4_7_ORDER = 7**4 * (7**2 - 1) * (7**4 - 1) // 2  # the symplectic group over GF(7)
S4_7_MAX_ORDER = 56  # a maximal element order of S4(7)


@dataclass(frozen=True)
class RecognitionStep:
    number: int
    name: str
    summary: str
    data: dict


@dataclass(frozen=True)
class RecognitionResult:
    steps: tuple[RecognitionStep, ...]
    verdict: str

    @property
    def recognized(self) -> bool:
        return self.verdict == SUCCESS_VERDICT


def recognize(kappa: FactoredInt) -> RecognitionResult:
    """Run the recognition pipeline on a fully factored tree count."""
    if not kappa.fully_factored:
        raise ValueError("recognition requires a fully factored tree count")
    value = kappa.value
    steps: list[RecognitionStep] = []

    def done(verdict: str) -> RecognitionResult:
        return RecognitionResult(tuple(steps), verdict)

    # 1: an abelian simple group is cyclic of prime order, with count p^(p-2)
    # p^(p-2) grows with p, so only the prime below the first one past kappa can match
    scanned = primes_below(smallest_prime_power_above(value, lambda p: p - 2))[-1]
    if scanned ** (scanned - 2) == value:
        steps.append(RecognitionStep(
            1, "abelian-scan",
            f"kappa = {kappa} equals {scanned}^{scanned - 2}, the tree count of the "
            f"cyclic group of order {scanned}",
            {"prime": scanned},
        ))
        return done(f"not kappa(A6): matches kappa of the cyclic group of order {scanned}")
    steps.append(RecognitionStep(
        1, "abelian-scan",
        f"kappa = {kappa} is not p^(p-2) for any prime p <= {scanned}; "
        "a simple group with this count is nonabelian",
        {"highest_prime_scanned": scanned},
    ))

    # 2: each prime p dividing the order brings p+1 cyclic subgroups of
    # order p, so kappa > p^((p-2)(p+1)); primes violating that are barred
    cap = smallest_prime_power_above(value, lambda p: (p - 2) * (p + 1))
    steps.append(RecognitionStep(
        2, "prime-cap",
        f"{cap}^{(cap - 2) * (cap + 1)} exceeds kappa, so every prime "
        f"dividing the group order is below {cap}",
        {"cap": cap},
    ))

    # 3: a prime r in mu(G) forces r^(r-2) | kappa
    excluded = [r for r in primes_below(cap) if kappa.valuation(r) < r - 2]
    steps.append(RecognitionStep(
        3, "maximal-order-exclusions",
        (f"maximal element orders cannot include {excluded}: r^(r-2) does "
         "not divide kappa" if excluded
         else f"r^(r-2) divides kappa for every prime r below {cap}"),
        {"excluded": excluded},
    ))

    # 4: classification of the remaining simple-group prime profiles
    if cap != 13 or 7 not in excluded or 11 not in excluded:
        # kappa(A6) has prime cap 13 with 7 and 11 barred, so it always passes
        # this step: kappa(A5) is the one published count that can stop here
        if value == KAPPA_A5.value:
            steps.append(RecognitionStep(
                4, "candidate-table", "input matches the published kappa(A5)",
                {"candidates": ["A5"]},
            ))
            return done("not kappa(A6): this is kappa(A5)")
        steps.append(RecognitionStep(
            4, "candidate-table",
            "the classification covers prime cap 13 with 7 and 11 barred "
            f"from maximal orders; got cap {cap}, exclusions {excluded}",
            {"candidates": []},
        ))
        return done("not kappa(A6): no classified simple group matches this "
                    "prime profile")
    steps.append(RecognitionStep(
        4, "candidate-table",
        "simple groups whose primes lie in {2, 3, 5, 7, 11} with 7 and 11 "
        "barred from maximal orders: " + ", ".join(CANDIDATES),
        {"candidates": list(CANDIDATES)},
    ))

    # 5: A5 is eliminated without a comparison: kappa(A5) has prime cap 7,
    # so that input returned at step 4, and this one differs from it.
    steps.append(RecognitionStep(
        5, "alternating-five-elimination",
        f"kappa(A5) = {KAPPA_A5} differs from the input",
        {"candidate": "A5", "eliminated": True},
    ))

    # 6: S4(7) has maximal element order 56, so |G| * 56^phi(56) would
    # divide det(J+Q) = kappa * |G|^2, forcing 7^20 | kappa. Step 4 passed
    # with 7 excluded at step 3, so the 7-adic valuation is below 5 < 20:
    # S4(7) is always eliminated here.
    m = S4_7_MAX_ORDER
    p_elim = max(prime_factors(m))
    required = euler_phi(m) * prime_factors(m)[p_elim] - valuation(S4_7_ORDER, p_elim)
    observed = kappa.valuation(p_elim)
    steps.append(RecognitionStep(
        6, "symplectic-elimination",
        f"were the group S4(7), the maximal order {m} would force "
        f"{p_elim}^{required} to divide kappa; the observed {p_elim}-adic "
        f"valuation is {observed}",
        {"candidate": "S4(7)", "prime": p_elim,
         "required_valuation": required, "observed_valuation": observed,
         "eliminated": True},
    ))
    if value != KAPPA_A6.value:
        return done(f"not kappa(A6): the remaining candidate A6 has "
                    f"kappa(A6) = {KAPPA_A6}, which differs from the input")
    return done(SUCCESS_VERDICT)

"""Integer instance families with unusually many divisors in one class.

Two parametric families and one fixed record instance, each packaged as an
(N, S, r) triple with S^3 > N, plus a verifier that runs the search and
cross-checks the result against oracle_rational (every divisor of |N|
from its factorization), and a small enumerative hunt for further record
instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algorithms import divisors_rational
from .base import InvalidInstanceError
from .oracle import RATIONAL_LIMIT, oracle_rational


@dataclass(frozen=True)
class FamilyInstance:
    N: int
    S: int
    r: int
    source: str
    expected_positive: int | None = None
    expected_signed: int | None = None

    @property
    def alpha(self) -> float:
        """Size exponent log|S| / log|N| (display only)."""
        return math.log(abs(self.S)) / math.log(abs(self.N))


def cohen_instance(level: int) -> FamilyInstance:
    """Six positive divisors congruent to 1: N is a product of five
    polynomial values in the level and S = 2*level^3 + level^2 + 2*level."""
    if level < 3:
        raise ValueError("family needs level >= 3")
    l = level
    n = (2 * l + 1) * (l * l + 1) * (l * l + l + 1) \
        * (2 * l * l - l + 1) * (2 * l * l + l + 1)
    s = 2 * l**3 + l**2 + 2 * l
    if s**3 <= n:
        raise AssertionError(f"size gate violated at level {level}")
    return FamilyInstance(n, s, 1, "cohen", expected_positive=6)


def seven_signed_instance(base: int) -> FamilyInstance:
    """Seven divisors congruent to 1 counting both signs (five positive)."""
    if base < 2:
        raise ValueError("family needs base >= 2")
    x = base
    n = (x + 2) * (x + 1) ** 2 * (x * x + x + 1) \
        * (x * x + x + 2) * (x * x + 2 * x + 2)
    s = x**3 + 3 * x**2 + 4 * x + 3
    if s**3 <= n:
        raise AssertionError(f"size gate violated at base {base}")
    return FamilyInstance(n, s, 1, "seven_signed", expected_signed=7)


def standalone_instance() -> FamilyInstance:
    """The fixed record triple with six positive divisors and alpha near
    0.3584."""
    return FamilyInstance(104254876089000, 105787, 1, "standalone",
                          expected_positive=6)


@dataclass(frozen=True)
class FamilyReport:
    instance: FamilyInstance
    divisors: tuple[int, ...]
    positive: tuple[int, ...]
    ok: bool
    oracle_checked: bool


def verify_family(fi: FamilyInstance) -> FamilyReport:
    """Run the divisor search on a family instance and check the promised
    count; cross-check against oracle_rational when |N| is in its range
    (|N| <= RATIONAL_LIMIT = 10^15), where factoring |N| costs at most a
    few ms.
    A mismatch comes back as ok=False, never as an exception."""
    try:
        rep = divisors_rational(fi.N, fi.S, fi.r)
    except InvalidInstanceError:
        return FamilyReport(fi, (), (), False, False)
    pos = tuple(d for d in rep.divisors if d > 0)
    ok = True
    if fi.expected_positive is not None:
        ok = ok and len(pos) == fi.expected_positive
    if fi.expected_signed is not None:
        ok = ok and len(rep.divisors) == fi.expected_signed
    oracle_checked = abs(fi.N) <= RATIONAL_LIMIT
    if oracle_checked:
        ok = ok and oracle_rational(fi.N, fi.S, fi.r).divisors == rep.divisors
    return FamilyReport(fi, rep.divisors, pos, ok, oracle_checked)


@dataclass(frozen=True)
class SearchOutcome:
    hits: tuple[FamilyInstance, ...]
    checked: int
    exhausted: bool


def search_records(
    s_values,
    *,
    target: int,
    r: int = 1,
    max_checks: int = 2000,
) -> SearchOutcome:
    """Enumerate N = (k*S + r) * m < S^3 per modulus and keep instances
    with at least `target` positive divisors congruent to r.

    Candidates walk k (the planted divisor's class index) outer and the
    cofactor m inner; every candidate costs one search run against
    max_checks.  A modulus with gcd(S, r) != 1 is skipped whole, since
    gcd(S, k*S + r) = gcd(S, r) then rules out every k, and so is each N
    sharing a factor with S.  Hits inside oracle range are
    re-verified by oracle_rational (a disagreement raises, since it would
    mean the search itself is broken).  exhausted reports whether the
    budget ran out before the enumeration finished.
    """
    hits = []
    checked = 0
    budget = max_checks
    for s in s_values:
        if s < 2 or math.gcd(s, r) != 1:
            continue
        cube = s**3
        seen = set()
        for k in range(1, cube):
            rho = k * s + r
            if rho >= cube or rho <= 0:
                break
            for m in range(1, (cube - 1) // rho + 1):
                n = rho * m
                if n < 2 or n in seen:
                    continue
                seen.add(n)
                if math.gcd(n, s) != 1:
                    continue
                if budget <= 0:
                    return SearchOutcome(tuple(hits), checked, True)
                budget -= 1
                checked += 1
                rep = divisors_rational(n, s, r)
                pos = [d for d in rep.divisors if d > 0]
                if len(pos) < target:
                    continue
                if n <= RATIONAL_LIMIT:
                    orc = oracle_rational(n, s, r)
                    if orc.divisors != rep.divisors:
                        raise AssertionError(
                            f"search hit ({n}, {s}, {r}) fails oracle re-check")
                hits.append(FamilyInstance(n, s, r, "search",
                                           expected_positive=len(pos)))
    return SearchOutcome(tuple(hits), checked, False)

import math

import pytest

from resdiv.families import (
    FamilyInstance,
    FamilyReport,
    cohen_instance,
    search_records,
    seven_signed_instance,
    standalone_instance,
    verify_family,
)
from resdiv.oracle import RATIONAL_LIMIT, oracle_rational


def test_cohen_level_three():
    fi = cohen_instance(3)
    assert (fi.N, fi.S, fi.r) == (320320, 69, 1)
    assert fi.source == "cohen"
    assert fi.expected_positive == 6
    assert fi.S**3 > fi.N


def test_cohen_level_four():
    fi = cohen_instance(4)
    assert (fi.N, fi.S) == (3447549, 152)
    assert fi.S**3 > fi.N


def test_family_domain_errors():
    with pytest.raises(ValueError):
        cohen_instance(2)
    with pytest.raises(ValueError):
        seven_signed_instance(1)


def test_cohen_divisors_frozen():
    rep = verify_family(cohen_instance(3))
    assert rep.ok and rep.oracle_checked
    assert rep.positive == (1, 70, 208, 2002, 3520, 14560)
    for d in rep.positive:
        assert 320320 % d == 0 and d % 69 == 1


def test_cohen_more_levels():
    for level in (5, 9):
        rep = verify_family(cohen_instance(level))
        assert rep.ok
        assert len(rep.positive) == 6


def test_seven_signed_base_two():
    fi = seven_signed_instance(2)
    assert (fi.N, fi.S, fi.r) == (20160, 31, 1)
    rep = verify_family(fi)
    assert rep.ok and rep.oracle_checked
    assert rep.divisors == (-960, -30, 1, 32, 63, 280, 2016)
    assert rep.positive == (1, 32, 63, 280, 2016)


def test_seven_signed_base_three():
    fi = seven_signed_instance(3)
    assert (fi.N, fi.S) == (247520, 69)
    rep = verify_family(fi)
    assert rep.ok
    assert len(rep.divisors) == 7


def test_standalone_record():
    fi = standalone_instance()
    assert (fi.N, fi.S, fi.r) == (104254876089000, 105787, 1)
    assert abs(fi.alpha - 0.3584) < 1e-4
    rep = verify_family(fi)
    assert rep.ok and rep.oracle_checked
    assert rep.positive == (1, 211575, 1798380, 42843736,
                            492121125, 380492248500)


def test_verify_family_at_the_oracle_limit():
    # cohen 36 and seven 45 are the largest members with |N| <= 10^15, the
    # oracle's limit; the next members are verified without the oracle
    for fi in (cohen_instance(36), seven_signed_instance(45)):
        assert abs(fi.N) <= RATIONAL_LIMIT
        rep = verify_family(fi)
        assert rep.ok and rep.oracle_checked
    for fi in (cohen_instance(37), seven_signed_instance(46)):
        assert abs(fi.N) > RATIONAL_LIMIT
        rep = verify_family(fi)
        assert rep.ok and not rep.oracle_checked


def test_alpha_property():
    fi = FamilyInstance(1000, 10, 1, "adhoc")
    assert abs(fi.alpha - 1 / 3) < 1e-12


def test_verify_family_flags_wrong_expectation():
    rep = verify_family(FamilyInstance(12, 5, 1, "adhoc", expected_positive=99))
    assert not rep.ok
    assert rep.divisors == (-4, 1, 6)


def test_verify_family_invalid_instance():
    fi = FamilyInstance(10, 5, 1, "adhoc")  # gcd(N, S) = 5
    assert verify_family(fi) == FamilyReport(fi, (), (), False, False)


def test_search_finds_known_record():
    out = search_records(range(3, 8), target=2)
    assert not out.exhausted
    assert out.checked > 0
    assert any(h.N == 66 and h.S == 5 for h in out.hits)
    for h in out.hits:
        assert h.source == "search"
        assert h.expected_positive >= 2
        positives = [d for d in oracle_rational(h.N, h.S, h.r).divisors if d > 0]
        assert len(positives) == h.expected_positive


def test_search_budget():
    out = search_records(range(3, 30), target=2, max_checks=25)
    assert out.exhausted
    assert out.checked == 25


def test_search_skips_degenerate_moduli():
    out = search_records([0, 1], target=1)
    assert out == type(out)((), 0, False)


def test_search_skips_moduli_sharing_a_factor_with_r():
    # gcd(S, k*S + r) = gcd(S, r), so with gcd(6, r) != 1 no k can give a
    # class coprime to S, and the modulus is skipped before any search
    for r in (2, 6):
        out = search_records([6], target=1, r=r)
        assert out.checked == 0 and out.hits == () and not out.exhausted

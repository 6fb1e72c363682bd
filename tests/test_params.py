"""Parameter derivation, regimes, and the rate bound."""

from fractions import Fraction

import pytest

from lrsc.gf import TowerField
from lrsc.params import derive_params, rate_bound


def test_exact_regime_252():
    p = derive_params(2, 5, 2)
    assert (p.regime, p.k, p.n, p.q, p.field_order) == ("exact", 2, 3, 3, 3)
    assert p.rate == Fraction(2, 3)
    assert p.u is p.v is p.ell is None


def test_exact_regime_382():
    p = derive_params(3, 8, 2)
    assert (p.regime, p.k, p.n, p.q, p.field_order) == ("exact", 2, 3, 4, 16)


def test_short_regime_242():
    p = derive_params(2, 4, 2)
    assert (p.regime, p.k, p.n) == ("short", 3, 5)
    assert (p.u, p.v, p.ell) == (1, 1, 1)
    assert p.rate == Fraction(3, 5)


def test_short_regime_others():
    p = derive_params(3, 7, 2)
    assert (p.regime, p.k, p.u, p.v, p.ell) == ("short", 5, 2, 1, 1)
    p = derive_params(3, 8, 3)
    assert (p.regime, p.k, p.u, p.v, p.ell, p.q) == ("short", 6, 2, 0, 1, 5)
    p = derive_params(4, 9, 3)
    assert (p.regime, p.k, p.u, p.v, p.ell, p.q, p.field_order) == ("short", 6, 2, 0, 2, 7, 2401)


def test_some_criterion_sets_are_actually_exact():
    assert derive_params(3, 5, 1).regime == "exact"
    assert derive_params(2, 3, 1).regime == "exact"


def test_long_regime():
    p = derive_params(2, 7, 2)
    assert (p.regime, p.k, p.n) == ("long", 2, 3)
    assert p.rate == Fraction(2, 3) == rate_bound(2, 7, 2)


@pytest.mark.parametrize("a,tau,r", [(1, 5, 2), (2, 5, 5), (2, 5, 0), (6, 5, 2), (2, 2, 2)])
def test_invalid_triples(a, tau, r):
    with pytest.raises(ValueError):
        derive_params(a, tau, r)


@pytest.mark.parametrize("args", [(2.0, 5, 2), (2, 5.0, 2), (2, 5, True), (2, 5, 2, 3.0),
                                  (2, 5, 2, True)])
def test_parameters_are_ints(args):
    # a=2.0 failed inside Fraction, q=3.0 derived field_order 3.0, and
    # q=True was "below the required minimum 3"
    with pytest.raises(ValueError, match="must be ints, got"):
        derive_params(*args)


def test_q_override():
    p = derive_params(2, 5, 2, q_override=9)
    assert p.q == 9 and p.field_order == 9
    with pytest.raises(ValueError):
        derive_params(2, 5, 2, q_override=2)      # below r+a-1
    with pytest.raises(ValueError):
        derive_params(2, 5, 2, q_override=6)      # not a prime power


def test_q_override_accepts_exactly_the_buildable_base_fields():
    def ok(build, *args):
        try:
            build(*args)
        except ValueError:
            return False
        return True

    for q in range(3, 1101):
        assert ok(derive_params, 2, 5, 2, q) == ok(TowerField, q, 1), q


def test_field_order_capped_at_desk_scale():
    assert derive_params(5, 64, 12).field_order == 16 ** 8 == 2 ** 32
    for a, tau, r in [(5, 64, 13), (6, 11, 1), (14, 200, 1), (100, 200, 1)]:
        with pytest.raises(ValueError, match="desk scale"):
            derive_params(a, tau, r)


def test_rate_examples():
    assert derive_params(2, 5, 2).rate == Fraction(2, 3)
    assert derive_params(2, 4, 2).rate == Fraction(3, 5)
    for a in (2, 3, 4):
        for r in (1, 2, 3):
            tau = a * (r + 1) - 1
            assert derive_params(a, tau, r).rate == Fraction(r, r + 1)


def test_rate_meets_bound_across_grid():
    for a in (2, 3, 4):
        for tau in range(a, 14):
            for r in range(1, tau):
                p = derive_params(a, tau, r)
                assert p.rate == rate_bound(a, tau, r)


def test_small_field_sc2():
    # r = tau // 2 keeps the field requirement at q >= ceil((tau+1)/2), not >= tau
    p = derive_params(2, 5, 5 // 2)
    assert (p.a, p.tau, p.r, p.q) == (2, 5, 2, 3)
    assert p.q < 5
    p = derive_params(2, 4, 4 // 2)
    assert (p.a, p.tau, p.r, p.regime) == (2, 4, 2, "short")
    p = derive_params(2, 7, 7 // 2)
    assert (p.r, p.q, p.regime) == (3, 4, "exact")

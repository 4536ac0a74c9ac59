import math

import pytest

from wicketlab.bounds import (
    CAP_BOUND_BASELINE,
    asymptotic_exponent,
    cap_bound_base,
    concrete_exponent,
    gowers_long_constant,
    improves_cap_bound,
    selection_report,
)


def test_asymptotic_exponent_values():
    assert abs(asymptotic_exponent(2.2202) - 1.5446) <= 0.0005
    assert abs(asymptotic_exponent(2.233) - 1.5482) <= 0.0005
    # base 3 gives the extreme exponent 1.75
    assert abs(asymptotic_exponent(3.0) - 1.75) < 1e-12


def test_asymptotic_exponent_domain():
    with pytest.raises(ValueError):
        asymptotic_exponent(1.0)
    with pytest.raises(ValueError):
        asymptotic_exponent(0.5)
    with pytest.raises(ValueError):
        asymptotic_exponent(math.nan)
    with pytest.raises(ValueError):
        asymptotic_exponent(math.inf)


def test_concrete_exponent():
    assert concrete_exponent(8, 27) == pytest.approx(math.log(8) / math.log(27))
    with pytest.raises(ValueError):
        concrete_exponent(0, 27)
    with pytest.raises(ValueError):
        concrete_exponent(5, 1)


def test_cap_bound_base_values():
    assert abs(cap_bound_base(0.31) - 2.7477) <= 0.0005
    assert cap_bound_base(0.25) == pytest.approx(3.0)
    assert improves_cap_bound(cap_bound_base(0.31))
    assert not improves_cap_bound(cap_bound_base(0.25))
    assert CAP_BOUND_BASELINE == 2.756
    with pytest.raises(ValueError):
        cap_bound_base(0.0)
    with pytest.raises(ValueError):
        cap_bound_base(1.0)


def test_gowers_long_constant():
    assert gowers_long_constant(1.544) == pytest.approx(0.456)
    with pytest.raises(ValueError):
        gowers_long_constant(2.5)
    with pytest.raises(ValueError):
        gowers_long_constant(1.0)


def test_selection_report():
    rep = selection_report(27, 36, 5)
    assert rep.edges_selected == 8
    assert rep.exponent == pytest.approx(math.log(8) / math.log(27))
    assert rep.vertices == 27 and rep.edges_total == 36 and rep.k == 5
    empty = selection_report(27, 0, 5)
    assert empty.edges_selected == 0 and empty.exponent == 0.0
    tiny = selection_report(1, 10, 2)
    assert tiny.exponent == 0.0

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special as scipy_special

from branchtrace import special
from branchtrace.errors import DomainError

# The statistical battery needs these to 1e-12 absolutely; the
# implementations are checked well below that against independent
# references (libm erfc, scipy's incomplete gamma).
TOL = 1e-13


@given(st.floats(min_value=-9.0, max_value=9.0, allow_nan=False))
def test_erfc_matches_libm(x):
    assert abs(special.erfc(x) - math.erfc(x)) < TOL


@pytest.mark.parametrize("x", [0.0, 1e-12, 0.5, 1.0, 1.2247, 5.0, 8.0, -8.0])
def test_erfc_spot_values(x):
    assert abs(special.erfc(x) - math.erfc(x)) < TOL


def test_erfc_edges():
    assert special.erfc(0.0) == 1.0
    assert special.erfc(30.0) == pytest.approx(0.0, abs=1e-300)
    assert special.erfc(-30.0) == pytest.approx(2.0, abs=TOL)


@given(st.floats(min_value=0.0, max_value=9.0))
def test_erfc_reflection(x):
    assert special.erfc(-x) + special.erfc(x) == pytest.approx(2.0, abs=TOL)


@given(
    st.floats(min_value=0.05, max_value=60.0),
    st.floats(min_value=0.0, max_value=150.0),
)
def test_reg_gamma_matches_scipy(a, x):
    # Both branches: the series for x < a + 1, the continued fraction past it.
    assert abs(special.reg_gamma_upper(a, x) - scipy_special.gammaincc(a, x)) < TOL


@given(
    st.floats(min_value=0.05, max_value=60.0),
    st.floats(min_value=0.0, max_value=150.0),
)
def test_reg_gamma_halves_sum_to_one(a, x):
    q = special.reg_gamma_upper(a, x)
    assert 0.0 <= q <= 1.0 + 1e-15
    assert scipy_special.gammainc(a, x) + q == pytest.approx(1.0, abs=TOL)


def test_reg_gamma_edges():
    assert special.reg_gamma_upper(2.5, 0.0) == 1.0
    assert special.reg_gamma_upper(0.5, 1e-300) == pytest.approx(1.0, abs=TOL)
    assert special.reg_gamma_upper(2.5, 1e4) == 0.0


@given(st.floats(min_value=0.05, max_value=170.0))
def test_log_gamma_matches_libm(x):
    scale = max(1.0, abs(math.lgamma(x)))
    assert abs(special.log_gamma(x) - math.lgamma(x)) < TOL * scale


def test_domain_errors():
    for bad_call in (
        lambda: special.log_gamma(0.0),
        lambda: special.log_gamma(-1.0),
        lambda: special.reg_gamma_upper(0.0, 1.0),
        lambda: special.reg_gamma_upper(-2.0, 1.0),
        lambda: special.reg_gamma_upper(1.0, -0.5),
    ):
        with pytest.raises(DomainError):
            bad_call()

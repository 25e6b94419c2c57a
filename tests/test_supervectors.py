import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hatfam.exactnum import ONE, SQRT3, QSqrt3, VecE
from hatfam.sequences import fib, g_closed, lucas
from hatfam.supervectors import (
    DomainError,
    has_hat_proportion,
    hat_params,
    make_params,
    tan_alpha,
    tan_theta,
    total_rotation_float,
    turtle_params,
    v3_buildup,
    v_closed,
    v_recurrence,
    v_table,
)


def _p(a, b):
    return make_params(QSqrt3(a), QSqrt3(b))


@pytest.fixture
def varied_params():
    return [hat_params(), _p(2, 3), _p(1, 1), turtle_params(),
            make_params(QSqrt3(Fraction(7, 3)), QSqrt3(Fraction(1, 2)))]


def test_hat_first_vectors(hat_p):
    assert v_closed(0, hat_p) == VecE(QSqrt3(0), QSqrt3(0, 2))
    assert v_closed(1, hat_p) == VecE(QSqrt3(1), QSqrt3(0, 3))
    assert v_closed(2, hat_p) == VecE(QSqrt3(3), QSqrt3(0, 7))
    assert v_closed(3, hat_p) == VecE(QSqrt3(8), QSqrt3(0, 18))


def test_recurrence_agrees_with_closed_form(varied_params):
    for p in varied_params:
        for n in range(0, 60):
            assert v_recurrence(n, p) == v_closed(n, p)


def test_three_term_recurrence(varied_params):
    for p in varied_params:
        for n in range(2, 201):
            assert v_closed(n, p) == \
                3 * v_closed(n - 1, p) - v_closed(n - 2, p)


def test_v3_buildup(varied_params):
    for p in varied_params:
        assert v3_buildup(p) == v_closed(3, p)


def test_components_are_fib_lucas():
    # v_closed doubles from fib(n) and lucas(n); this reads fib(2n) and
    # lucas(2n) straight off their own sequences
    for p in (hat_params(), turtle_params(), _p(2, 3),
              make_params(QSqrt3(Fraction(7, 3)), QSqrt3(Fraction(1, 2)))):
        for n in range(0, 301):
            v = v_closed(n, p)
            assert v.x == p.s * fib(2 * n)
            assert v.y == p.t * lucas(2 * n)


_PART = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
_EDGE = st.one_of(
    st.builds(Fraction, st.integers(1, 40), st.integers(1, 12)).map(QSqrt3),
    st.builds(QSqrt3, _PART, _PART).filter(lambda x: x.sign() > 0))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_EDGE, _EDGE, st.integers(0, 300))
@example(SQRT3, ONE, 300)  # the turtle, s = 0
@example(QSqrt3(Fraction(5, 2)), QSqrt3(Fraction(5, 2)), 300)  # a = b
@example(ONE, SQRT3, 0)
def test_table_is_the_closed_form_at_every_n(a, b, n):
    # the table walks fib and lucas once; v_closed doubles to each n on its
    # own; and the sequences module gives fib(2k) and lucas(2k) directly
    p = make_params(a, b)
    table = v_table(n, p)
    assert table == [v_closed(k, p) for k in range(n + 1)]
    assert table == [VecE(p.s * fib(2 * k), p.t * lucas(2 * k))
                     for k in range(n + 1)]


def test_s_t_derivation():
    p = hat_params()
    assert p.s == QSqrt3(1)
    assert p.t == QSqrt3(0, 1)
    q = turtle_params()
    assert q.s == QSqrt3(0)
    assert q.t == QSqrt3(2)


def test_domain_rejects_nonpositive():
    with pytest.raises(DomainError):
        _p(0, 1)
    with pytest.raises(DomainError):
        _p(1, -2)


def test_params_refuse_floats():
    # 0.1 would otherwise build a tile at its binary value
    with pytest.raises(TypeError):
        make_params(0.1, 2)
    assert make_params(1, 3) == _p(1, 3)


def test_equal_params_are_one_key():
    # verify keys the supertile chains it builds by TileParams
    p = make_params(QSqrt3(2), QSqrt3(3))
    q = make_params(QSqrt3(Fraction(4, 2)), QSqrt3(3))
    assert p is not q and p == q and hash(p) == hash(q)
    assert {(p, 4): "chain"}[(q, 4)] == "chain"
    assert p != make_params(QSqrt3(3), QSqrt3(2))


def test_has_hat_proportion():
    assert has_hat_proportion(hat_params())
    assert has_hat_proportion(make_params(QSqrt3(5), QSqrt3(0, 5)))
    assert not has_hat_proportion(_p(2, 3))
    assert not has_hat_proportion(turtle_params())


def test_tan_theta_values(hat_p):
    assert tan_theta(0, hat_p).value == QSqrt3(0)
    # tan(theta_1) = 1/(3*sqrt(3)) = sqrt(3)/9
    assert tan_theta(1, hat_p).value == QSqrt3(0, Fraction(1, 9))
    assert tan_theta(2, hat_p).value == QSqrt3(0, Fraction(1, 7))


def test_angle_product_identity_hat_family():
    # tan(alpha_n) * g(n) = s/t = tan(beta) whenever b = sqrt(3)*a
    for p in (hat_params(), make_params(QSqrt3(2), QSqrt3(0, 2)),
              make_params(QSqrt3(Fraction(1, 3)), QSqrt3(0, Fraction(1, 3)))):
        tb = p.s / p.t
        for n in range(1, 51):
            assert tan_alpha(n, p).value * g_closed(n) == tb


def test_angle_product_identity_aligned():
    p = turtle_params()
    for n in range(1, 20):
        assert tan_alpha(n, p).value == QSqrt3(0)


def test_angle_product_identity_fails_off_proportion():
    # the g(n) factor is exact only for the hat shape ratio; a generic
    # tile keeps the identity at n = 1 and loses it afterwards
    p = _p(2, 3)
    tb = p.s / p.t
    assert tan_alpha(1, p).value * g_closed(1) == tb
    assert tan_alpha(2, p).value * g_closed(2) != tb


def test_alpha_closed_form(varied_params):
    # tan(alpha_n) = 2st / (L_2n L_(2n-2) t^2 + F_2n F_(2n-2) s^2)
    for p in varied_params:
        for n in range(1, 30):
            den = (p.t * p.t * lucas(2 * n) * lucas(2 * n - 2)
                   + p.s * p.s * fib(2 * n) * fib(2 * n - 2))
            assert tan_alpha(n, p).value * den == 2 * p.s * p.t


def test_theta_monotone_exact(hat_p):
    tans = [tan_theta(n, hat_p).value for n in range(41)]
    for a, b in zip(tans, tans[1:]):
        assert (b - a).sign() > 0


def test_theta_limit_is_arcsin_quarter(hat_p):
    limit = math.asin(0.25)
    assert tan_theta(40, hat_p).to_float() == pytest.approx(limit, abs=1e-12)
    assert total_rotation_float(hat_p) == pytest.approx(limit, abs=1e-12)


def test_scaling_ratios(hat_p):
    phi = (1 + math.sqrt(5)) / 2
    v20 = v_closed(20, hat_p).to_floats()
    v19 = v_closed(19, hat_p).to_floats()
    assert math.hypot(*v20) / math.hypot(*v19) == \
        pytest.approx(phi ** 2, abs=1e-9)
    ratio = float(tan_alpha(10, hat_p).value) / \
        float(tan_alpha(11, hat_p).value)
    assert ratio == pytest.approx(phi ** 4, abs=1e-6)


def test_index_domains(hat_p):
    with pytest.raises(ValueError):
        v_closed(-1, hat_p)
    with pytest.raises(ValueError):
        v_table(-1, hat_p)
    with pytest.raises(ValueError):
        tan_alpha(0, hat_p)

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatfam.checks import _same
from hatfam.exactnum import (
    ONE,
    QSqrt3,
    ScalarParseError,
    VEC_ZERO,
    VecE,
    _pair,
    _reduced,
    parse_scalar,
    render_scalar,
)
from hatfam.supervectors import tan_between

from placements import reflect_y_axis, rotate60


def _random_scalar(rng: random.Random) -> QSqrt3:
    def frac():
        return Fraction(rng.randint(-20, 20), rng.randint(1, 9))
    return QSqrt3(frac(), frac())


def test_field_axioms_random():
    rng = random.Random(4242)
    for _ in range(200):
        x, y, z = (_random_scalar(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        assert x + (-x) == QSqrt3(0)
        if y != QSqrt3(0):
            assert (x / y) * y == x
            assert y * (ONE / y) == ONE


def test_sign_matches_float():
    rng = random.Random(99)
    for _ in range(500):
        x = _random_scalar(rng)
        f = float(x)
        if abs(f) > 1e-9:
            assert x.sign() == (1 if f > 0 else -1)
    assert QSqrt3(0).sign() == 0
    # 97/56 = 1.73214... sits just above sqrt(3) = 1.73205...
    assert QSqrt3(Fraction(-97, 56), 1).sign() < 0
    assert QSqrt3(Fraction(97, 56), -1).sign() > 0
    assert QSqrt3(Fraction(-362, 209), 1).sign() < 0  # even tighter from above


def test_sqrt3_squares_to_three():
    r3 = QSqrt3(0, 1)
    assert r3 * r3 == QSqrt3(3)
    assert float(r3) == pytest.approx(math.sqrt(3))


def test_comparisons():
    # values compare by the sign of their difference; there is no ordering
    assert (QSqrt3(1) - QSqrt3(0, 1)).sign() < 0
    assert (QSqrt3(0, 1) - QSqrt3(2)).sign() < 0
    assert (QSqrt3(0, 1) - QSqrt3(0, 1)).sign() == 0
    assert (QSqrt3(5, -2) - QSqrt3(1)).sign() > 0  # 5 - 2*sqrt(3) = 1.535...
    with pytest.raises(TypeError):
        QSqrt3(1) < QSqrt3(2)


@pytest.mark.parametrize("r,s", [
    (0.1, 0), ("1/3", 0), (1, 0.5), (None, 0), (QSqrt3(1), 0),
])
def test_constructor_takes_only_ints_and_fractions(r, s):
    # a float would enter as its binary value, 0.1 as
    # 3602879701896397/36028797018963968, and a string would bypass the
    # parse_scalar grammar
    with pytest.raises(TypeError):
        QSqrt3(r, s)


def test_parse_render_round_trip_random():
    rng = random.Random(7)
    for _ in range(100):
        x = _random_scalar(rng)
        assert parse_scalar(render_scalar(x)) == x


@pytest.mark.parametrize("text,r,s", [
    ("0", 0, 0),
    ("1", 1, 0),
    ("r3", 0, 1),
    ("-r3", 0, -1),
    ("1/2", Fraction(1, 2), 0),
    ("3/2*r3", 0, Fraction(3, 2)),
    ("2+r3", 2, 1),
    ("-1/2+-3/4*r3", Fraction(-1, 2), Fraction(-3, 4)),
])
def test_parse_scalar_grammar(text, r, s):
    assert parse_scalar(text) == QSqrt3(r, s)


@pytest.mark.parametrize("bad", ["", "r5", "1+", "1/0", "+ 2", "1 2", "x"])
def test_parse_scalar_rejects(bad):
    with pytest.raises(ScalarParseError):
        parse_scalar(bad)


def _fraction_parse_scalar(text: str) -> QSqrt3:
    """The Fraction-based parser that `parse_scalar` replaced, kept as its
    oracle: one Fraction per term, one QSqrt3(r, s) at the end."""
    def rational(pos):
        m = re.compile(r"-?\d+(?:/\d+)?").match(text, pos)
        if m is None:
            raise ScalarParseError(text, pos, "expected a rational number")
        token = m.group()
        if "/" in token:
            num, den = token.split("/")
            if int(den) == 0:
                raise ScalarParseError(text, pos, "zero denominator")
            return Fraction(int(num), int(den)), m.end()
        return Fraction(int(token)), m.end()

    def term(pos):
        if text.startswith("r3", pos):
            return Fraction(1), True, pos + 2
        if text.startswith("-r3", pos):
            return Fraction(-1), True, pos + 3
        value, pos = rational(pos)
        if pos < len(text) and text[pos] == "*":
            if not text.startswith("r3", pos + 1):
                raise ScalarParseError(text, pos + 1,
                                       "expected 'r3' after '*'")
            return value, True, pos + 3
        if text.startswith("r3", pos):
            return value, True, pos + 2
        return value, False, pos

    if not text:
        raise ScalarParseError(text, 0, "empty scalar")
    coef, is_root, pos = term(0)
    rat_part, root_part = (Fraction(0), coef) if is_root else (coef, 0)
    if pos < len(text):
        op = text[pos]
        if op not in "+-":
            raise ScalarParseError(text, pos,
                                   "expected '+', '-' or end of input")
        start = pos + 1
        coef, is_root2, pos = term(start)
        if op == "-":
            coef = -coef
        if not is_root2:
            if is_root:
                raise ScalarParseError(text, start,
                                       "rational term must come first")
            raise ScalarParseError(text, start, "duplicate rational term")
        if is_root:
            raise ScalarParseError(text, start, "duplicate sqrt(3) term")
        root_part = coef
    if pos != len(text):
        raise ScalarParseError(text, pos, "trailing input")
    return QSqrt3(rat_part, root_part)


def _outcome(parse, text):
    """(a, b, d) of the parsed value, or the error's type, text and
    position."""
    try:
        x = parse(text)
    except ValueError as e:
        return type(e), str(e), getattr(e, "pos", None)
    return x.a, x.b, x.d


_DIGITS = st.text("0123456789", min_size=1, max_size=6)
_RATIONAL = st.builds("{}{}{}".format, st.sampled_from(["", "-"]), _DIGITS,
                      st.one_of(st.just(""), _DIGITS.map("/{}".format)))
_TERM = st.one_of(st.sampled_from(["r3", "-r3"]), _RATIONAL,
                  st.builds("{}{}".format, _RATIONAL,
                            st.sampled_from(["*r3", "r3"])))
_SCALAR = st.one_of(_TERM, st.builds("{}{}{}".format, _TERM,
                                     st.sampled_from("+-"), _TERM))


@st.composite
def _near_miss(draw):
    """A grammar string with one character inserted, dropped or replaced,
    from an alphabet that holds every token piece, a space, a letter and a
    non-ASCII digit (which `\\d` and int() accept)."""
    text = draw(_SCALAR)
    i = draw(st.integers(0, len(text)))
    c = draw(st.sampled_from(list("0123456789-+/*r3 x\u0663")))
    edit = draw(st.sampled_from(("insert", "drop", "replace")))
    if edit == "insert":
        return text[:i] + c + text[i:]
    return text[:i] + (c if edit == "replace" else "") + text[i + 1:]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.one_of(_SCALAR, _near_miss(),
                 st.text("0123456789-+/*r3", max_size=8)))
def test_parse_scalar_matches_the_fraction_parser(text):
    assert _outcome(parse_scalar, text) == \
        _outcome(_fraction_parse_scalar, text)


@pytest.mark.parametrize("text", [
    "1/0", "-0/00*r3", "2/4+6/8r3", "0/5-0/7*r3", "-r3+1", "r3r3",
    "1*", "1*r", "1+2", "1+r3+r3", "\u0663/\u0662", "7" * 4301,
    "1/" + "0" * 4301, "0" * 4301 + "/0",
])
def test_parse_scalar_matches_the_fraction_parser_at_edges(text):
    assert _outcome(parse_scalar, text) == \
        _outcome(_fraction_parse_scalar, text)


def test_render_canonical():
    assert render_scalar(QSqrt3(0)) == "0"
    assert render_scalar(QSqrt3(Fraction(1, 2))) == "1/2"
    assert render_scalar(QSqrt3(0, Fraction(-3, 4))) == "-3/4*r3"
    assert render_scalar(QSqrt3(2, 1)) == "2+1*r3"


def test_rotate60_order_six():
    rng = random.Random(11)
    for _ in range(50):
        v = VecE(_random_scalar(rng), _random_scalar(rng))
        w = v
        for _ in range(6):
            w = rotate60(w, 1)
        assert w == v
        assert rotate60(v, 3) == -v
        assert rotate60(rotate60(v, 2), 4) == v


def test_rotate60_preserves_length():
    v = VecE(QSqrt3(3, 1), QSqrt3(-2, Fraction(1, 2)))
    for k in range(6):
        w = rotate60(v, k)
        assert w.x * w.x + w.y * w.y == v.x * v.x + v.y * v.y


def test_reflect_involution():
    v = VecE(QSqrt3(5), QSqrt3(0, 2))
    assert reflect_y_axis(reflect_y_axis(v)) == v
    assert reflect_y_axis(v) == VecE(QSqrt3(-5), QSqrt3(0, 2))


def test_vector_arithmetic():
    a = VecE(QSqrt3(1), QSqrt3(2))
    b = VecE(QSqrt3(0, 1), QSqrt3(3))
    assert a + b - b == a
    assert a * QSqrt3(2) == VecE(QSqrt3(2), QSqrt3(4))
    assert -a + a == VEC_ZERO


# ------------------------------------------- properties against a reference
#
# The reference keeps a scalar as the pair (r, s) of Fractions, r + s*sqrt3,
# and does the field arithmetic on them directly.

_PROPERTY = settings(derandomize=True, database=None, max_examples=150,
                     deadline=None)
# the shapes scale (small denominators) and the g-sequence scale (~1e60)
_SMALL = st.builds(Fraction, st.integers(-300, 300), st.integers(1, 12))
_BIG = st.builds(Fraction, st.integers(-10 ** 60, 10 ** 60),
                 st.integers(1, 10 ** 60))
_PAIRS = st.tuples(st.one_of(_SMALL, _BIG), st.one_of(_SMALL, _BIG))


def _ref_mul(x, y):
    return (x[0] * y[0] + 3 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_sign(x):
    r, s = x
    sr, ss = (r > 0) - (r < 0), (s > 0) - (s < 0)
    if ss == 0:
        return sr
    if sr in (0, ss):
        return ss
    return sr if r * r > 3 * s * s else ss


def _of(pair):
    return QSqrt3(*pair)


@_PROPERTY
@given(_PAIRS, _PAIRS)
def test_arithmetic_matches_reference(x, y):
    qx, qy = _of(x), _of(y)
    assert (qx.r, qx.s) == x
    assert qx + qy == _of((x[0] + y[0], x[1] + y[1]))
    assert qx - qy == _of((x[0] - y[0], x[1] - y[1]))
    assert qx * qy == _of(_ref_mul(x, y))
    assert -qx == _of((-x[0], -x[1]))
    if y != (0, 0):
        norm = y[0] * y[0] - 3 * y[1] * y[1]
        assert qx / qy == _of(_ref_mul(x, (y[0] / norm, -y[1] / norm)))
    else:
        with pytest.raises(ZeroDivisionError):
            qx / qy


@_PROPERTY
@given(_PAIRS, _PAIRS)
def test_sign_and_order_match_reference(x, y):
    qx, qy = _of(x), _of(y)
    assert qx.sign() == _ref_sign(x)
    diff = _ref_sign((x[0] - y[0], x[1] - y[1]))
    assert (qx - qy).sign() == diff
    assert (qx == qy) == (diff == 0)


@_PROPERTY
@given(_PAIRS, _PAIRS, st.integers(1, 10 ** 20))
def test_equal_values_built_differently_hash_equal(x, y, k):
    qx = _of(x)
    routes = [QSqrt3(x[0] * k) / k + QSqrt3(0, x[1] * k) / k,
              parse_scalar(render_scalar(qx)),
              qx + _of(y) - _of(y)]
    if y != (0, 0):
        routes.append(qx * _of(y) / _of(y))
    for other in routes:
        assert other == qx and hash(other) == hash(qx)
    assert QSqrt3(Fraction(2, 4)) == QSqrt3(1) / 2
    assert hash(QSqrt3(Fraction(2, 4))) == hash(QSqrt3(1) / 2)
    # rational values equal, and hash as, the plain number
    assert QSqrt3(x[0]) == x[0] and hash(QSqrt3(x[0])) == hash(x[0])
    assert QSqrt3(k) == k and hash(QSqrt3(k)) == hash(k)


@_PROPERTY
@given(_PAIRS)
def test_float_is_bit_identical_to_fraction_parts(x):
    qx = _of(x)
    want = float(qx.r) + float(qx.s) * 3.0 ** 0.5
    assert float(qx).hex() == want.hex()


@_PROPERTY
@given(_PAIRS, _PAIRS, st.integers(-7, 7))
def test_rotate60_matches_reference(x, y, k):
    half = Fraction(1, 2)
    cos = (1, half, -half, -1, -half, half)[k % 6]
    sin_r3 = (0, half, half, 0, -half, -half)[k % 6]  # sin = sin_r3*sqrt3
    c, s = (cos, 0), (0, sin_r3)
    cx, sy = _ref_mul(c, x), _ref_mul(s, y)
    sx, cy = _ref_mul(s, x), _ref_mul(c, y)
    want = VecE(_of((cx[0] - sy[0], cx[1] - sy[1])),
                _of((sx[0] + cy[0], sx[1] + cy[1])))
    assert rotate60(VecE(_of(x), _of(y)), k) == want


# ints at the hat scale, zero and negatives, and past 2^64
_INTS = st.one_of(st.integers(-50, 50), st.integers(-2 ** 80, 2 ** 80),
                  st.sampled_from([0, 2 ** 64, -(2 ** 64) - 1]))


@_PROPERTY
@given(_PAIRS, _INTS)
def test_int_products_match_the_field_product(x, k):
    qx = _of(x)
    want = qx * QSqrt3(k)
    assert want == _of((x[0] * k, x[1] * k))
    for got in (qx * k, k * qx):
        assert (got.a, got.b, got.d) == (want.a, want.b, want.d)
        assert got.d > 0 and math.gcd(got.a, got.b, got.d) == 1
        assert got == want and hash(got) == hash(want)
    assert qx * True == qx and True * qx == qx
    assert qx * False == 0


# w as drawn, along v, across v, or zero: the last three give a zero
# cross product, dot product, or both
_RELATIONS = ("free", "parallel", "perpendicular", "zero")


@_PROPERTY
@given(_PAIRS, _PAIRS, _PAIRS, _PAIRS, _PAIRS, st.sampled_from(_RELATIONS))
def test_fused_kernels_match_the_field_formulas(vx, vy, wx, wy, k, relation):
    v, k = VecE(_of(vx), _of(vy)), _of(k)
    w = {"free": VecE(_of(wx), _of(wy)),
         "parallel": VecE(v.x * k, v.y * k),
         "perpendicular": VecE(-v.y * k, v.x * k),
         "zero": VEC_ZERO}[relation]
    # the oracle: one QSqrt3 operation, and one reduction, at a time
    cross = v.x * w.y - v.y * w.x
    dot = v.x * w.x + v.y * w.y
    # _pair's p*q +- r*u, as tan_between makes them, reduced once
    for got, want in ((_pair(v.x, w.y, v.y, w.x, -1), cross),
                      (_pair(v.x, w.x, v.y, w.y, 1), dot)):
        assert got[2] > 0
        got = _reduced(*got)
        assert (got.a, got.b, got.d) == (want.a, want.b, want.d)
    # tan_between(w, v) is (v x w)/(v . w)
    if dot:
        got, want = tan_between(w, v).value, cross / dot
        assert (got.a, got.b, got.d) == (want.a, want.b, want.d)
    else:
        with pytest.raises(ZeroDivisionError):
            tan_between(w, v)


@_PROPERTY
@given(_PAIRS, _PAIRS, st.integers(1, 10 ** 20),
       st.sampled_from(("equal", "other", "rational part", "root part")))
def test_same_agrees_with_equality(x, y, k, relation):
    qx = _of(x)
    qy = {"equal": qx, "other": _of(y), "rational part": _of((y[0], x[1])),
          "root part": _of((x[0], y[1]))}[relation]
    # qy's stored ints times k: the same value, out of lowest terms
    assert _same(qx, qy.a * k, qy.b * k, qy.d * k) == (qx == qy)

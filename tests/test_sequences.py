import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatfam.sequences import (
    fib,
    fib_lucas,
    g_closed,
    g_recurrence,
    lucas,
    tile_counts,
)

# the published table of the rotation-factor sequence
G_TABLE = [3, 11, 67, 451, 3083, 21123, 144771, 992267, 6801091,
           46615363, 319506443, 2189929731, 15010001667]


def test_fib_known_values():
    assert [fib(n) for n in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_lucas_known_values():
    assert [lucas(n) for n in range(9)] == [2, 1, 3, 4, 7, 11, 18, 29, 47]


def test_fib_lucas_identity():
    # L_n = F_(n-1) + F_(n+1)
    for n in [*range(1, 60), 2000, 10_000, 10_001]:
        assert lucas(n) == fib(n - 1) + fib(n + 1)


def test_g_table():
    assert [g_closed(n) for n in range(1, 14)] == G_TABLE
    assert g_recurrence(13) == G_TABLE


def test_g_closed_matches_recurrence_deep():
    assert g_recurrence(1000) == [g_closed(n) for n in range(1, 1001)]


def test_g_divisibility():
    for n in range(1, 1001):
        assert (8 * lucas(4 * n - 2) + 21) % 15 == 0


def _iterated(first, second, count):
    """The first `count` terms of x_n = x_(n-1) + x_(n-2), one add each."""
    out = []
    a, b = first, second
    for _ in range(count):
        out.append(a)
        a, b = b, a + b
    return out


def test_fib_lucas_match_the_plain_iteration():
    fibs = _iterated(0, 1, 10_002)
    lucases = _iterated(2, 1, 10_002)
    for n in [*range(2001), 10_000, 10_001]:
        assert fib(n) == fibs[n]
        assert lucas(n) == lucases[n]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.integers(-50, 300))
def test_fib_lucas_is_one_pass_of_fib_and_lucas(n):
    if n < 0:
        with pytest.raises(ValueError):
            fib_lucas(n)
    else:
        assert fib_lucas(n) == (fib(n), lucas(n))


@pytest.mark.parametrize("fn", [fib, lucas])
def test_negative_index_rejected(fn):
    with pytest.raises(ValueError):
        fn(-1)


def test_g_index_starts_at_one():
    with pytest.raises(ValueError):
        g_closed(0)
    assert g_recurrence(0) == []


def test_tile_counts_table():
    assert [tile_counts("hat", n) for n in range(1, 7)] == \
        [1, 8, 55, 377, 2584, 17711]
    assert [tile_counts("thc", n) for n in range(1, 7)] == \
        [2, 7, 47, 322, 2207, 15127]


def test_tile_counts_recurrence():
    # the oracle: h(1) = 1, c(1) = 2, h(n) = 6h(n-1) + c(n-1) and c(n) =
    # 5h(n-1) + c(n-1), one hat and one compound per ring piece and core
    h, c = 1, 2
    for n in range(1, 60):
        assert (tile_counts("hat", n), tile_counts("thc", n)) == (h, c)
        h, c = 6 * h + c, 5 * h + c


def test_hat_counts_are_fibonacci():
    # the hat column walks every fourth Fibonacci number
    for n in range(1, 10):
        assert tile_counts("hat", n) == fib(4 * n - 2)


def test_thc_counts_are_lucas():
    # the compound column walks every fourth Lucas number
    for n in range(1, 10):
        assert tile_counts("thc", n) == lucas(4 * n - 4)


def test_counts_reject_bad_input():
    with pytest.raises(ValueError):
        tile_counts("square", 1)
    with pytest.raises(ValueError):
        tile_counts("hat", 0)

import pytest

from hatfam.sequences import (
    fib,
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
    for n in range(1, 60):
        assert lucas(n) == fib(n - 1) + fib(n + 1)


def test_g_table():
    assert [g_closed(n) for n in range(1, 14)] == G_TABLE
    assert g_recurrence(13) == G_TABLE


def test_g_closed_matches_recurrence_deep():
    assert g_recurrence(500) == [g_closed(n) for n in range(1, 501)]


def test_g_divisibility():
    for n in range(1, 1001):
        assert (8 * lucas(4 * n - 2) + 21) % 15 == 0


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
    for n in range(2, 12):
        assert tile_counts("hat", n) == \
            6 * tile_counts("hat", n - 1) + tile_counts("thc", n - 1)
        assert tile_counts("thc", n) == \
            5 * tile_counts("hat", n - 1) + tile_counts("thc", n - 1)


def test_hat_counts_are_fibonacci():
    # the hat column walks every fourth Fibonacci number
    for n in range(1, 10):
        assert tile_counts("hat", n) == fib(4 * n - 2)


def test_counts_reject_bad_input():
    with pytest.raises(ValueError):
        tile_counts("square", 1)
    with pytest.raises(ValueError):
        tile_counts("hat", 0)

"""Integer sequences behind the supertile construction.

Fibonacci and Lucas numbers drive the supervector components; the
derived sequence g(n) = (8*lucas(4n - 2) + 21) / 15 gives the exact
cotangent factor of each incremental supertile rotation for
hat-proportioned tiles (t^2 = 3*s^2).  Closed form and recurrence are
implemented independently so they can check each other.
"""

from __future__ import annotations


def fib(n: int) -> int:
    """Fibonacci number, fib(0) = 0, fib(1) = 1."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lucas(n: int) -> int:
    """Lucas number, lucas(0) = 2, lucas(1) = 1."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def g_closed(n: int) -> int:
    """g(n) = (8*lucas(4n - 2) + 21) / 15, exactly divisible for every n >= 1."""
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    raw = 8 * lucas(4 * n - 2) + 21
    if raw % 15:
        raise ArithmeticError(f"8*lucas({4 * n - 2}) + 21 = {raw} is not divisible by 15")
    return raw // 15


def g_recurrence(count: int) -> list[int]:
    """First `count` terms of g via g(n) = 7*g(n-1) - g(n-2) - 7."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    terms = []
    a, b = 3, 11
    for _ in range(count):
        terms.append(a)
        a, b = b, 7 * b - a - 7
    return terms


def tile_counts(kind: str, n: int) -> int:
    """Number of hats in the generation-n supertile.

    kind 'hat': h(1) = 1, h(n) = 6*h(n-1) + c(n-1).
    kind 'thc': c(1) = 2, c(n) = 5*h(n-1) + c(n-1).
    """
    if kind not in ("hat", "thc"):
        raise ValueError(f"kind must be 'hat' or 'thc', got {kind!r}")
    if n < 1:
        raise ValueError(f"generation must be >= 1, got {n}")
    h, c = 1, 2
    for _ in range(n - 1):
        h, c = 6 * h + c, 5 * h + c
    return h if kind == "hat" else c


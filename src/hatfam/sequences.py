"""Integer sequences behind the supertile construction.

Fibonacci and Lucas numbers drive the supervector components; the
derived sequence g(n) = (8*lucas(4n - 2) + 21) / 15 gives the exact
cotangent factor of each incremental supertile rotation for
hat-proportioned tiles (t^2 = 3*s^2).  Closed form and recurrence are
implemented independently so they can check each other.
"""

from __future__ import annotations


def _fib_pair(n: int) -> tuple[int, int]:
    """(fib(n), fib(n + 1)) by fast doubling: from the top bit of n down,
    fib(2k) = fib(k)*(2*fib(k + 1) - fib(k)) and
    fib(2k + 1) = fib(k)^2 + fib(k + 1)^2, one step per bit."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    a, b = 0, 1
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a, b


def fib(n: int) -> int:
    """Fibonacci number, fib(0) = 0, fib(1) = 1."""
    return _fib_pair(n)[0]


def fib_lucas(n: int) -> tuple[int, int]:
    """(fib(n), lucas(n)) from one fast-doubling pass: lucas(n) =
    fib(n - 1) + fib(n + 1) = 2*fib(n + 1) - fib(n)."""
    a, b = _fib_pair(n)
    return a, 2 * b - a


def lucas(n: int) -> int:
    """Lucas number, lucas(0) = 2, lucas(1) = 1."""
    return fib_lucas(n)[1]


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
    """Number of hats in the generation-n supertile: fib(4n - 2) for kind
    'hat' and lucas(4n - 4) for 'thc', the closed forms of h(1) = 1,
    c(1) = 2, h(n) = 6*h(n-1) + c(n-1) and c(n) = 5*h(n-1) + c(n-1).
    """
    if kind not in ("hat", "thc"):
        raise ValueError(f"kind must be 'hat' or 'thc', got {kind!r}")
    if n < 1:
        raise ValueError(f"generation must be >= 1, got {n}")
    return fib(4 * n - 2) if kind == "hat" else lucas(4 * n - 4)


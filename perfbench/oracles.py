"""Independent oracles for checking delannoy-kit outputs.

Nothing here imports the package: counts come from factorials and
recurrences, and the forward labeling, the inverse's A/B/C sets and the
classify payload are recomputed from the step word alone.
"""

from __future__ import annotations

import contextlib
import sys
from math import factorial

CASES_EQUAL = "equal"
CASES_EAST = "more_before_east"
CASES_NORTH = "more_before_north"


def words(n: int, k: int) -> int:
    """Central words to (n, n) with k East steps: (n+k)! / (k! k! (n-k)!)."""
    return factorial(n + k) // (factorial(k) ** 2 * factorial(n - k))


def delannoy_row(n_max: int) -> list[int]:
    """Central Delannoy numbers 0..n_max by n D(n) = 3(2n-1) D(n-1) - (n-1) D(n-2)."""
    row = [1, 3]
    for n in range(2, n_max + 1):
        row.append((3 * (2 * n - 1) * row[-1] - (n - 1) * row[-2]) // n)
    return row[: n_max + 1]


def schroder_row(n_max: int) -> list[int]:
    """Large Schroder numbers 0..n_max by (n+1) S(n) = 3(2n-1) S(n-1) - (n-2) S(n-2)."""
    row = [1, 2]
    for n in range(2, n_max + 1):
        row.append((3 * (2 * n - 1) * row[-1] - (n - 2) * row[-2]) // (n + 1))
    return row[: n_max + 1]


def kimberling_by_vertices(i: int, j: int, k: int) -> int:
    """Paths to (i, j) with k interior vertices: a k-set of x-values, a k-multiset of y-values."""
    if i == 0:
        return int(j == 0 and k == 0)
    if not 0 <= k <= i - 1:
        return 0
    return factorial(i - 1) // (factorial(k) * factorial(i - 1 - k)) * (
        factorial(j + k) // (factorial(k) * factorial(j))
    )


def sweep_totals(n_max: int) -> dict[str, int]:
    """Exact ``total_cases`` of each verify report for n <= n_max."""
    family = sum(words(n, k) for n in range(n_max + 1) for k in range(n + 1))
    east_steps = sum(k * words(n, k) for n in range(n_max + 1) for k in range(n + 1))
    return {
        "roundtrip": 2 * family,
        "counts": (n_max + 1) * (n_max + 2) // 2,
        "subdiagonal": family + 2 * (n_max + 1),
        "per-step": east_steps + max(n_max - 1, 0),
    }


def labels(word: str) -> tuple[list[int], list[int], list[int]]:
    """Terminal heights of the N, E and D steps of a word, each in step order."""
    y = 0
    north: list[int] = []
    east: list[int] = []
    diag: list[int] = []
    for ch in word:
        if ch == "E":
            east.append(y)
        else:
            y += 1
            (north if ch == "N" else diag).append(y)
    return north, east, diag


def image(word: str) -> list[list[int]]:
    """Vertex list of the image path: i-th interior vertex = (i-th N label, i-th E label)."""
    north, east, _ = labels(word)
    n = len(word) - len(east)
    return [[0, 0]] + [[x, y] for x, y in zip(north, east)] + [[n + 1, n]]


def unmap_debug(word: str) -> dict:
    """Expected ``unmap --debug`` payload for the image of ``word``."""
    north, east, diag = labels(word)
    y = 0
    merged = []
    for ch in word:
        if ch == "E":
            merged.append(f"{y}B")
        else:
            y += 1
            merged.append(f"{y}{'A' if ch == 'N' else 'C'}")
    return {
        "word": word,
        "n": y,
        "k": len(east),
        "A": north,
        "B": east,
        "C": diag,
        "merged": merged,
    }


def classify(word: str) -> dict:
    """Expected ``classify`` payload, computed by walking the word once."""
    north, east, _ = labels(word)
    n = len(word) - len(east)
    x = y = d_seen = 0
    east_ends: list[list[int]] = []
    d_north: list[int] = []
    d_east: list[int] = []
    below = True
    for ch in word:
        if ch != "N":
            x += 1
        if ch != "E":
            y += 1
        if ch == "E":
            east_ends.append([x, y])
            d_east.append(d_seen)
        elif ch == "N":
            d_north.append(d_seen)
        else:
            d_seen += 1
        below = below and y <= x
    steps = []
    for i, ((ex, ey), vx, vy, dn, de) in enumerate(
        zip(east_ends, north, east, d_north, d_east)
    ):
        case = CASES_EQUAL if dn == de else (CASES_EAST if dn < de else CASES_NORTH)
        steps.append(
            {
                "index": i + 1,
                "east_end": [ex, ey],
                "east_weakly_above": ey >= ex,
                "interior_vertex": [vx, vy],
                "vertex_strictly_above": vy * (n + 1) > vx * n,
                "d_before_north": dn,
                "d_before_east": de,
                "case": case,
            }
        )
    verts = image(word)
    return {
        "word": word,
        "n": n,
        "k": len(east),
        "subdiagonal_delannoy": below,
        "subdiagonal_kimberling": all(vy * (n + 1) <= vx * n for vx, vy in verts),
        "image_vertices": verts,
        "east_steps": steps,
    }


def is_central_word(word: str, n: int) -> bool:
    """A word over E/N/D with as many E as N steps, ending at (n, n)."""
    return (
        set(word) <= {"E", "N", "D"}
        and word.count("E") == word.count("N")
        and word.count("E") + word.count("D") == n
    )


@contextlib.contextmanager
def int_digits(limit: int):
    """Raise the int/str conversion limit for one check only, then restore it."""
    if not hasattr(sys, "set_int_max_str_digits"):  # interpreters without the limit
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0 if before == 0 else max(limit, before))
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)

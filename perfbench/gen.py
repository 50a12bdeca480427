"""Seeded input generators for the benchmark.

Shapes are sampled directly, as a random composition of the cell count
sorted into a partition, never by listing all partitions (there are about
a million of 60).  The same ``random.Random`` seed gives the same inputs.
"""

from __future__ import annotations

import random
from functools import lru_cache

Grid = tuple[tuple[int, ...], ...]


def random_shape(
    rng: random.Random, cells: int, rows: tuple[int, int], max_cols: int
) -> tuple[int, ...]:
    """A partition of ``cells`` with a row count in ``rows`` and no row
    longer than ``max_cols``."""
    low = max(rows[0], -(-cells // max_cols))
    high = min(rows[1], cells)
    if low > high:
        raise ValueError(f"no shape of {cells} cells fits {rows} rows of <= {max_cols}")
    while True:
        count = rng.randint(low, high)
        cuts = sorted(rng.sample(range(1, cells), count - 1))
        parts = sorted(
            (b - a for a, b in zip([0, *cuts], [*cuts, cells])), reverse=True
        )
        if parts[0] <= max_cols:
            return tuple(parts)


def random_grid(rng: random.Random, parts: tuple[int, ...], total: int) -> Grid:
    """A filling of ``parts`` made by dropping ``total`` units on cells
    chosen uniformly, repeats allowed."""
    cells = [(i, j) for i, length in enumerate(parts) for j in range(length)]
    grid = [[0] * length for length in parts]
    for _ in range(total):
        i, j = rng.choice(cells)
        grid[i][j] += 1
    return tuple(tuple(row) for row in grid)


def count_fillings(
    parts: tuple[int, ...], row_sums: tuple[int, ...], col_sums: tuple[int, ...]
) -> int:
    """Number of fillings with the prescribed sums.

    A cell-by-cell count memoised on what each row and column still needs;
    it shares no code with the library's enumerator and costs far less
    than listing the fillings.
    """
    nrows = len(parts)
    if sum(row_sums) != sum(col_sums):
        return 0
    if nrows == 0:
        return 1

    @lru_cache(maxsize=None)
    def cell(i: int, j: int, left: int, rem: tuple[int, ...]) -> int:
        width = parts[i]
        if j == width:
            if left:
                return 0
            if i + 1 == nrows:
                return int(not any(rem))
            # Columns right of the next row are never reached again.
            narrower = parts[i + 1]
            if any(rem[narrower:]):
                return 0
            return cell(i + 1, 0, row_sums[i + 1], rem[:narrower])
        low = left if j == width - 1 else 0
        total = 0
        for value in range(low, min(left, rem[j]) + 1):
            total += cell(i, j + 1, left - value, rem[:j] + (rem[j] - value,) + rem[j + 1 :])
        return total

    return cell(0, 0, row_sums[0], tuple(col_sums))


def deep_prescriptions(rng: random.Random, p: dict) -> list[tuple]:
    """``p["prescriptions"]`` single large prescriptions, each with
    between ``p["fillings"]`` and ``p["slack"]`` times that many fillings.

    Fixing the filling count of every prescription, and cycling the cell
    count through its range rather than drawing it, keeps the work of a
    seed and its spread over the prescriptions the same from seed to seed;
    the seed only picks the shapes and the sums.
    Returns ``(parts, row_sums, col_sums, fillings)`` items.
    """
    items = []
    # Cell count -> total at which the last prescription of that size
    # reached the target; the next one usually does so nearby.
    crossed: dict[int, int] = {}
    for i in range(p["prescriptions"]):
        cells = _cycle(p["cells"], i)
        start = max(p["totals"][0], crossed.get(cells, 0) - 2)
        item = _grow(rng, cells, start, p)
        crossed[cells] = sum(item[1])
        items.append(item)
    return items


def _grow(rng: random.Random, cells: int, start: int, p: dict) -> tuple:
    """Add units to a random shape one at a time, each on a random cell
    among the least loaded ones, until (counting from ``start`` units on)
    its margins admit at least ``p["fillings"]`` fillings; keep the result
    if they admit at most ``p["slack"]`` times that, else start over.

    Adding a unit to a cell maps each filling to a distinct filling of the
    new margins, so the count never falls as units are added.  Keeping the
    margins near balanced makes the count grow smoothly with the total.
    """
    target = p["fillings"]
    while True:
        parts = random_shape(rng, cells, p["rows"], p["max_cols"])
        places = [(i, j) for i, length in enumerate(parts) for j in range(length)]
        grid = [[0] * length for length in parts]
        row_sums = [0] * len(parts)
        col_sums = [0] * parts[0]
        for total in range(1, p["totals"][1] + 1):
            load = [row_sums[i] + col_sums[j] for i, j in places]
            least = min(load)
            i, j = rng.choice([c for c, l in zip(places, load) if l <= least + 2])
            grid[i][j] += 1
            row_sums[i] += 1
            col_sums[j] += 1
            if total < start:
                continue
            fillings = count_fillings(parts, tuple(row_sums), tuple(col_sums))
            if fillings >= target:
                if fillings <= p["slack"] * target:
                    return parts, tuple(row_sums), tuple(col_sums), fillings
                # Overshot, perhaps already at ``start``: look earlier next time.
                start = max(p["totals"][0], start - 1)
                break


def random_fillings(rng: random.Random, p: dict) -> list[Grid]:
    """``p["count"]`` random fillings.  Their cell counts, row counts and
    totals cycle through the given ranges, so every seed gets the same mix
    of sizes; the seed picks the shapes and where the units go."""
    return [
        random_grid(
            rng,
            random_shape(rng, _cycle(p["cells"], i), (_cycle(p["rows"], i),) * 2, p["max_cols"]),
            _cycle(p["totals"], i),
        )
        for i in range(p["count"])
    ]


def _cycle(bounds: tuple[int, int], i: int) -> int:
    """The i-th value of ``bounds[0] .. bounds[1]`` taken in turn."""
    low, high = bounds
    return low + i % (high - low + 1)

"""Pure-Python enumeration and containment kernels.

These are the only kernels; other modules reach them through ``_kernel``.
They work on plain tuples rather than on ``Shape`` and ``Filling``:

* ``parts``     -- weakly decreasing positive row lengths (possibly empty)
* ``grid``      -- tuple of row tuples, row i holding ``parts[i]`` entries
* ``pat``       -- rectangular 0/1 pattern as a tuple of row tuples

Rows and columns are 0-based here; the public API converts to 1-based.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence


def conjugate(parts: Sequence[int]) -> tuple[int, ...]:
    """Column heights of a diagram, i.e. the conjugate partition."""
    if not parts:
        return ()
    heights = [0] * parts[0]
    for length in parts:
        for j in range(length):
            heights[j] += 1
    return tuple(heights)


def iter_fillings(
    parts: Sequence[int],
    row_sums: Sequence[int],
    col_sums: Sequence[int],
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every filling of the diagram with the prescribed sums.

    Cells are assigned in row-major order, trying smaller values first, so
    the stream is lexicographic on the flattened cell values.  Infeasible
    prescriptions yield nothing; the empty diagram with the empty profile
    yields exactly one empty filling.
    """
    if sum(row_sums) != sum(col_sums):
        return
    nrows = len(parts)
    if nrows == 0:
        yield ()
        return

    heights = conjugate(parts)
    rem_row = list(row_sums)
    rem_col = list(col_sums)
    grid = [[0] * length for length in parts]
    # Row-major list of cells with "last cell of its row/column" flags.
    cells = []
    for i, length in enumerate(parts):
        for j in range(length):
            cells.append((i, j, j == length - 1, i == heights[j] - 1))
    ncells = len(cells)

    def rec(idx: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if idx == ncells:
            yield tuple(tuple(row) for row in grid)
            return
        i, j, last_in_row, last_in_col = cells[idx]
        if last_in_row and last_in_col:
            value = rem_row[i]
            if value != rem_col[j]:
                return
            lo = hi = value
        elif last_in_row:
            value = rem_row[i]
            if value > rem_col[j]:
                return
            lo = hi = value
        elif last_in_col:
            value = rem_col[j]
            if value > rem_row[i]:
                return
            lo = hi = value
        else:
            lo, hi = 0, min(rem_row[i], rem_col[j])
        for value in range(lo, hi + 1):
            grid[i][j] = value
            rem_row[i] -= value
            rem_col[j] -= value
            yield from rec(idx + 1)
            rem_row[i] += value
            rem_col[j] += value
        grid[i][j] = 0

    yield from rec(0)


def contains(
    parts: Sequence[int],
    grid: Sequence[Sequence[int]],
    pat: Sequence[Sequence[int]],
) -> bool:
    """Whether the filling contains the 0/1 pattern.

    A containment is a strictly increasing choice of rows and columns that
    puts every 1-entry of the pattern on a nonempty cell, with the
    bottom-right corner of the selected submatrix inside the diagram.
    Zero rows and columns of the pattern claim a slot of the selection but
    constrain nothing beyond that corner condition.
    """
    s = len(pat)
    t = len(pat[0]) if s else 0
    nrows = len(parts)
    ncols = parts[0] if nrows else 0
    if s > nrows or t > ncols:
        return False
    ones_by_col = [[i for i in range(s) if pat[i][j]] for j in range(t)]

    for rows in combinations(range(nrows), s):
        # Greedily pick the smallest feasible column per pattern column;
        # minimizing the last column makes the corner check tight.
        col = 0
        feasible = True
        for j in range(t):
            col += 1
            while col <= ncols:
                ok = True
                for i in ones_by_col[j]:
                    row = grid[rows[i]]
                    if col > len(row) or row[col - 1] == 0:
                        ok = False
                        break
                if ok:
                    break
                col += 1
            if col > ncols:
                feasible = False
                break
        if feasible and parts[rows[-1]] >= col:
            return True
    return False


def count_avoiders(
    parts: Sequence[int],
    row_sums: Sequence[int],
    col_sums: Sequence[int],
    pat: Sequence[Sequence[int]],
) -> int:
    """Number of fillings with the prescribed sums that avoid the pattern."""
    total = 0
    for grid in iter_fillings(parts, row_sums, col_sums):
        if not contains(parts, grid, pat):
            total += 1
    return total

"""Pure-Python enumeration, containment, counting and chain kernels.

These are the only kernels; other modules reach them through ``_kernel``.
They work on plain tuples rather than on ``Shape`` and ``Filling``:

* ``parts``     -- weakly decreasing positive row lengths (possibly empty)
* ``grid``      -- tuple of row tuples, row i holding ``parts[i]`` entries
* ``cells``     -- ``(row, column, entry)`` of each nonzero cell, any order
* ``pat``       -- rectangular 0/1 pattern as a tuple of row tuples

Rows and columns are 0-based here; the public API converts to 1-based.

Fillings are built by one row-fill rule, stated in ``_row_fills``:
``iter_fillings`` lists them by it and ``count_avoiders`` counts them by
it.  ``count_avoiders`` is a layered row-by-row transfer that lists no
filling; its docstring says how and why the count is exact.
``count_by_row_sums`` is a layered transfer too, with free column sums,
keyed by row sums; both advance the occurrence state through
``_occurrence_step``.  ``_row_fills`` steps like an odometer and every
listing, here and of graphs and degree sequences, walks its rows on the
explicit stack of ``walk_rows``, so nothing here recurses.
``disagreeing_supports`` walks a diagram's supports (sets of nonzero
cells) with the same occurrence update, carrying two patterns at once,
and yields those on which exactly one occurs: the only fillings on which
an equirestrictive sweep can find the two patterns' counts apart.  One
cache outlives a call: ``_prescription_fills`` keeps the row fills of the
last prescription counted, so the patterns counted on one prescription
list its rows once.  It cannot change a count: each entry is a pure
function of its key, so an earlier call, or a thread listing the same
entry at once, leaves only the rows a fresh listing gives.  It holds one
prescription, so it stays small.

``longest_chain`` is the one chain scan: the strict and weak lengths of
identity and antidiagonal chains, which give both largest pattern orders
of a filling and the four crossing and nesting statistics of a graph.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import sub
from typing import Callable, Iterable, Iterator, Optional, Sequence

Levels = tuple[int, ...]


def _row_fills(
    caps: tuple[int, ...], amount: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield ``(caps - row, support)`` for every row of entries summing to
    ``amount`` with each entry at most its cap, the rows in lexicographic
    order; bit j of ``support`` is set when entry j of the row is nonzero.

    This is the kernels' one row-fill rule.  Rows are filled top to bottom,
    each entry at most what its column still needs, and a column takes all
    of its remainder in its last row.  So a row's entries in columns that
    end there are forced, and its other entries, the free ones, are the
    rows yielded here, with ``caps`` the free columns' remainders and
    ``amount`` the row sum less the forced entries.
    """
    width = len(caps)
    after = list(caps)
    support = 0
    # An odometer: the first row puts as much as it can in the rightmost
    # entries, and each next row adds one unit at the rightmost entry that
    # has room while the entries after it hold at least one, then refills
    # those entries from the right with one unit less.
    j, left = -1, amount
    while True:
        for k in range(width - 1, j, -1):
            value = min(caps[k], left)
            after[k] = caps[k] - value
            left -= value
            if value:
                support |= 1 << k
        if left:
            return
        yield tuple(after), support
        j = width - 1
        while j >= 0 and not (after[j] and left):
            left += caps[j] - after[j]
            j -= 1
        if j < 0:
            return
        after[j] -= 1
        support = support & ((1 << j) - 1) | 1 << j
        left -= 1


def walk_rows(nrows: int, rows: Callable, start: object) -> Iterator[tuple]:
    """Yield ``(grid, state after the last row)`` for every grid of
    ``nrows`` rows that ``rows`` builds from ``start``, depth first.

    ``rows(i, state)`` yields ``(row, state below it)`` for each row i that
    may follow the rows above, whose state is ``state``.  An explicit stack
    of row iterators keeps the depth of the Python stack independent of
    the number of rows.  With no rows the one empty grid is yielded.
    """
    if nrows == 0:
        yield (), start
        return
    grid: list = []
    stack = [rows(0, start)]
    while stack:
        i = len(stack) - 1
        for row, state in stack[-1]:
            del grid[i:]
            grid.append(row)
            if i + 1 < nrows:
                stack.append(rows(i + 1, state))
                break
            yield tuple(grid), state
        else:
            stack.pop()


def iter_fillings(
    parts: Sequence[int],
    row_sums: Sequence[int],
    col_sums: Sequence[int],
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every filling of the diagram with the prescribed sums.

    Rows are filled top to bottom by ``_row_fills``, each in lexicographic
    order, and walked by ``walk_rows``, so the stream is lexicographic on
    the flattened cell values.  Infeasible prescriptions yield nothing;
    the empty diagram with the empty profile yields exactly one empty
    filling.
    """
    if sum(row_sums) != sum(col_sums):
        return
    # Columns at or past bounds[i] have their last cell in row i.
    bounds = tuple(parts[1:]) + (0,)

    def rows(i: int, rem: tuple[int, ...]):
        """``(row, remainders of the columns below it)`` for every row i
        under column remainders rem."""
        caps, forced = rem[: bounds[i]], rem[bounds[i]:]
        left = row_sums[i] - sum(forced)
        if left >= 0:
            for after, _ in _row_fills(caps, left):
                yield tuple(map(sub, caps, after)) + forced, after

    for grid, _ in walk_rows(len(parts), rows, tuple(col_sums)):
        yield grid


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


def longest_chain(
    parts: Sequence[int],
    cells: Iterable[tuple[int, int, int]],
    anti: bool = False,
    weak: bool = False,
) -> int:
    """Length of the longest chain of nonzero cells of a filling, given
    as the ``(row, column, entry)`` of each nonzero cell in any order.

    An identity chain goes down and right.  With ``anti`` the chain goes
    up and right, and its last column must fit in the row of its first
    cell: the corner condition.  A strict chain moves to a new row and a
    new column at every step and counts each cell once; with ``weak`` it
    may stay in a row or a column, and counts each cell's entry.  So the
    strict lengths are the largest orders of the identity and antidiagonal
    patterns that the filling contains.

    An antidiagonal chain whose first row has length L lies in the
    rectangle of the rows of length at least L and the first L columns,
    and every up-right chain in that rectangle meets the corner condition.
    So the condition is taken once per length of a row that holds a cell,
    as the longest chain in that rectangle.
    """
    # Row by row in the chain's direction, each row left to right, so
    # every cell that can precede a cell in a chain comes before it.
    ordered = sorted(cells, key=(lambda cell: (-cell[0], cell[1])) if anti else None)

    def longest(chain: list[tuple[int, int, int]]) -> int:
        ends: list[int] = []
        for i, j, entry in chain:
            best = 0
            for (i2, j2, _), end in zip(chain, ends):
                if end > best and j2 <= j and (weak or (i2 != i and j2 != j)):
                    best = end
            ends.append(best + (entry if weak else 1))
        return max(ends, default=0)

    if not anti:
        return longest(ordered)
    return max(
        (
            longest([cell for cell in ordered if cell[1] < length <= parts[cell[0]]])
            for length in {parts[i] for i, _, _ in ordered}
        ),
        default=0,
    )


def _pattern_table(
    pat: Sequence[Sequence[int]], ncols: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Column tables of the pattern over the diagram's t-subsets of columns.

    Returns ``(need, corner)``.  ``need[r][k]`` is the column bitmask that
    pattern row ``r`` asks to be nonzero when the pattern's columns sit on
    the k-th t-subset; ``corner[L]`` has bit k set when that subset's last
    column fits in a row of length ``L``.
    """
    subsets = list(combinations(range(ncols), len(pat[0])))
    need = tuple(
        tuple(
            sum(1 << cols[j] for j, one in enumerate(pat_row) if one)
            for cols in subsets
        )
        for pat_row in pat
    )
    corner = tuple(
        sum(1 << k for k, cols in enumerate(subsets) if cols[-1] < length)
        for length in range(ncols + 1)
    )
    return need, corner


def _occurrence_step(
    parts: Sequence[int], pat: Sequence[Sequence[int]]
) -> tuple[Callable[[int, Levels, int], Optional[Levels]], Levels]:
    """The occurrence-level update of a row-by-row transfer over a nonempty
    diagram, shared by both transfers below.

    Returns ``(step, start)``.  The state between rows is one bitmask per
    pattern row r < s over the t-subsets C of the diagram's columns: bit C
    of level r is set when pattern rows 1..r already sit, in order, in
    distinct rows above, with every 1-entry on a nonzero cell of C.
    ``start`` is that state above the top row.  ``step(i, levels,
    support)`` is the state below row i when its nonzero cells are the
    column bitmask ``support``, or None when the row completes pattern row
    s from level s-1 under a C that fits the row's length (the corner
    condition), which closes an occurrence.  Levels are masked to the
    subsets that still fit the next row.  This is exact because an
    occurrence asks only which cells are nonzero, in which rows and
    columns, and whether that corner is inside the diagram.
    """
    need, corner = _pattern_table(pat, parts[0])
    last = len(need) - 1
    full = corner[-1]
    fits = tuple(corner[length] for length in parts[1:]) + (0,)
    matches: dict = {}

    def match(r: int, support: int) -> int:
        """Subsets under which pattern row r lies on the support."""
        key = (r, support)
        mask = matches.get(key)
        if mask is None:
            mask = 0
            for k, cols in enumerate(need[r]):
                if not cols & ~support:
                    mask |= 1 << k
            matches[key] = mask
        return mask

    def step(i: int, levels: Levels, support: int) -> Optional[Levels]:
        below = levels[-1] if last else full
        if below & match(last, support) & corner[parts[i]]:
            return None
        fit = fits[i]
        return tuple(
            (level | ((levels[r - 1] if r else full) & match(r, support))) & fit
            for r, level in enumerate(levels)
        )

    return step, (0,) * last


def disagreeing_supports(
    parts: Sequence[int],
    pat1: Sequence[Sequence[int]],
    pat2: Sequence[Sequence[int]],
    max_size: int,
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield ``(support, sign)`` for every support of the diagram with at
    most ``max_size`` cells on which exactly one of the two patterns
    occurs.  A support is a set of nonzero cells, given as one column
    bitmask per row; ``sign`` is +1 when only ``pat2`` occurs and -1 when
    only ``pat1`` does, so over the fillings with a support the signs sum
    to the avoiders of ``pat1`` less those of ``pat2``.

    Supports are walked row by row, carrying both patterns' levels of
    ``_occurrence_step``; a branch on which both patterns occur is dropped,
    and so is a last row on which neither does.  Containment only grows
    with the support, so when neither pattern occurs with every cell
    nonzero, no support tells them apart and the diagram is skipped before
    the walk.  With every cell nonzero an s x t pattern occurs exactly when
    the diagram holds an s x t rectangle, that is when row s has at least t
    cells: the first s rows and t columns then give an occurrence, and the
    last row and column of any occurrence are at least the s-th and t-th.
    """
    nrows = len(parts)

    def fits(pat: Sequence[Sequence[int]]) -> bool:
        """Whether the pattern occurs with every cell nonzero."""
        s, t = len(pat), len(pat[0])
        return s <= nrows and parts[s - 1] >= t

    if not (fits(pat1) or fits(pat2)):
        return
    step1, start1 = _occurrence_step(parts, pat1)
    step2, start2 = _occurrence_step(parts, pat2)
    moves: dict = {}

    def rows(i: int, state):
        """``(support, (levels1, levels2, room) below it)`` for each support
        of row i with at most ``room`` cells, under that state above it;
        levels are None once their pattern occurs.  Moves are found once."""
        levels1, levels2, room = state
        cap = min(room, parts[i])
        key = (i, levels1, levels2, cap)
        found = moves.get(key)
        if found is None:
            found = moves[key] = []
            for size in range(cap + 1):
                for cols in combinations(range(parts[i]), size):
                    support = sum(1 << j for j in cols)
                    after1 = None if levels1 is None else step1(i, levels1, support)
                    after2 = None if levels2 is None else step2(i, levels2, support)
                    occurred = (after1 is None) + (after2 is None)
                    if occurred == 1 or (not occurred and i + 1 < nrows):
                        found.append((support, after1, after2, size))
        for support, after1, after2, size in found:
            yield support, (after1, after2, room - size)

    for grid, (after1, _, _) in walk_rows(nrows, rows, (start1, start2, max_size)):
        yield grid, 1 if after1 is not None else -1


@lru_cache(maxsize=1)
def _prescription_fills(
    parts: tuple[int, ...], row_sums: tuple[int, ...], col_sums: tuple[int, ...]
) -> dict:
    """The row fills ``count_avoiders`` has listed for the prescription,
    as ``list(_row_fills(caps, amount))`` by ``(caps, amount)``, which its
    callers fill in.

    Only the last prescription is kept.  So each pattern counted on a
    prescription after the first reads the rows listed for it, and a
    prescription's rows go as soon as another is counted.
    """
    return {}


def count_avoiders(
    parts: Sequence[int],
    row_sums: Sequence[int],
    col_sums: Sequence[int],
    pat: Sequence[Sequence[int]],
) -> int:
    """Number of fillings with the prescribed sums that avoid the pattern.

    No filling is listed.  Rows are filled top to bottom by the rule of
    ``_row_fills``.  What the rows above pass down is the remaining column
    sums and the occurrence levels of ``_occurrence_step``; a row that
    closes an occurrence drops the branch.  The rows below depend on the
    rows above only through that state, so a layer maps each state after a
    row to the number of ways to reach it, the next layer is built from it,
    and the answer is the sum of the last layer.  The free rows of each
    remainder and amount are listed once per prescription, and kept by
    ``_prescription_fills`` for the next pattern counted on it; the
    occurrence update of each levels and support is found once per row.
    Every column is emptied in its last row and the last row has no free
    column, so a prescription with no filling counts 0 by itself.
    """
    nrows = len(parts)
    if nrows == 0:
        return 1
    advance, start = _occurrence_step(parts, pat)
    # Columns at or past bounds[i] have their last cell in row i.
    bounds = tuple(parts[1:]) + (0,)
    fills = _prescription_fills(tuple(parts), tuple(row_sums), tuple(col_sums))
    layer = {(tuple(col_sums), start): 1}
    for i, length in enumerate(parts):
        free = bounds[i]
        steps: dict = {}
        below: dict = {}
        for (rem, levels), number in layer.items():
            forced = 0
            left = row_sums[i]
            for j in range(free, length):
                if rem[j]:
                    forced |= 1 << j
                    left -= rem[j]
            if left < 0:
                continue
            key = (rem[:free], left)
            found = fills.get(key)
            if found is None:
                found = fills[key] = list(_row_fills(*key))
            for after_rem, support in found:
                move = (levels, support | forced)
                if move in steps:
                    after = steps[move]
                else:
                    after = steps[move] = advance(i, *move)
                if after is not None:
                    state = (after_rem, after)
                    below[state] = below.get(state, 0) + number
        layer = below
    return sum(layer.values())


def count_by_row_sums(
    parts: Sequence[int],
    pat: Sequence[Sequence[int]],
    max_total: int,
    simple: bool = False,
) -> Counter:
    """Fillings that avoid the pattern, with free column sums and total at
    most ``max_total``, counted by their row sums.

    Returns a ``Counter`` from each row-sum vector to its number of
    avoiders; a vector with none is absent.  With ``simple`` set, every
    entry is 0 or 1.  Rows are filled top to bottom.  The state after a
    row is the remaining total and the occurrence levels of
    ``_occurrence_step``, and each state keeps a ``Counter`` of the row
    sums above it; one row's states live until the next row's are built.
    Since the levels ask only which cells are nonzero, a row is chosen by
    its support: a support of s cells holding amount a stands for
    C(a-1, s-1) rows, the ways to split a into s positive entries, or
    under ``simple`` for one row if a == s and none otherwise.
    """
    nrows = len(parts)
    if nrows == 0:
        return Counter({(): 1})
    advance, start = _occurrence_step(parts, pat)
    # A remaining total above what the rows below can hold counts the same
    # as that room, so it is clipped to it and such states merge.
    room = [sum(parts[i:]) if simple else max_total for i in range(1, nrows)] + [0]
    layer = {(max_total, start): Counter({(): 1})}
    for i, length in enumerate(parts):
        moves: dict = {}
        below: dict = {}
        for (rem, levels), prefixes in layer.items():
            found = moves.get(levels)
            if found is None:
                # How many supports of each size lead to each next levels.
                tally: Counter = Counter()
                for support in range(1 << length):
                    after = advance(i, levels, support)
                    if after is not None:
                        tally[support.bit_count(), after] += 1
                found = moves[levels] = list(tally.items())
            weights: Counter = Counter()
            for (size, after), supports in found:
                if simple or not size:
                    if size <= rem:
                        weights[size, after] += supports
                else:
                    for amount in range(size, rem + 1):
                        weights[amount, after] += supports * comb(amount - 1, size - 1)
            for (amount, after), weight in weights.items():
                key = (min(rem - amount, room[i]), after)
                target = below.get(key)
                if target is None:
                    target = below[key] = Counter()
                for prefix, number in prefixes.items():
                    target[prefix + (amount,)] += weight * number
        layer = below
    counts: Counter = Counter()
    for prefixes in layer.values():
        counts.update(prefixes)
    return counts

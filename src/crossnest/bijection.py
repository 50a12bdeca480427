"""Sum-preserving bijections between pattern-avoiding fillings.

The core tool is a local transfer move on a filling: take the minimal
antidiagonal occurrence of order t, subtract 1 from each of its cells and
add 1 to the companion cells one staircase step up plus the corner.  Row
and column sums are untouched.  Iterating the move (and its inverse) maps
fillings avoiding the staircase pattern ``f_matrix(t)`` onto fillings
avoiding the antidiagonal of order t, and a block-lifting construction
turns that into the identity-vs-antidiagonal bijection of any order.
Composed with the graph codecs this exchanges maximal crossing and nesting
orders while fixing the whole left-right degree sequence.
"""

from __future__ import annotations

from typing import Callable, Literal

from . import _kernel
from .codec import LeftRightGraph, b_cells_of, lr_decode, lr_encode
from .graphs import Multigraph, cross, degree_sequence, nest
# ``f_matrix`` is not called here.  It stays bound, like ``identity`` and
# ``antiidentity``, because perfbench's tracer counts pattern builds by
# replacing these names in this module's namespace.
from .patterns import (  # noqa: F401
    PatternMatrix,
    antidiagonal_cells,
    antiidentity,
    contains,
    f_cells,
    f_matrix,
    first_f_occurrence,
    first_j_occurrence,
    identity,
    max_antiidentity_order,
    max_identity_order,
)
from .shapes import Filling, Shape, sums_of

Direction = Literal["forward", "backward"]


class NoJtPresent(ValueError):
    """The transfer move needs an antidiagonal occurrence and found none."""


class NoFtPresent(ValueError):
    """The inverse transfer needs an ``f_matrix`` occurrence and found none."""


class PreconditionError(ValueError):
    """The input filling or graph contains the pattern it must avoid."""


class IterationLimitExceeded(RuntimeError):
    """Safety stop: the iterated transfer exceeded its progress bound."""


def _transfer(filling: Filling, decrement, increment) -> Filling:
    grid = [list(row) for row in filling.rows]
    for row, col in decrement:
        grid[row - 1][col - 1] -= 1
        if grid[row - 1][col - 1] < 0:
            raise AssertionError("transfer would make an entry negative")
    for row, col in increment:
        grid[row - 1][col - 1] += 1
    result = Filling(filling.shape, tuple(tuple(row) for row in grid))
    if sums_of(result) != sums_of(filling):
        raise AssertionError("transfer must preserve sums")
    return result


def phi(filling: Filling, t: int) -> Filling:
    """One transfer step: rewrite the first antidiagonal occurrence of
    order t into an ``f_matrix(t)`` occurrence.  Sums are preserved."""
    if t < 2:
        raise ValueError("order must be at least 2")
    occ = first_j_occurrence(filling, t)
    if occ is None:
        raise NoJtPresent(f"no antidiagonal occurrence of order {t}")
    cells = tuple(antidiagonal_cells(occ))
    return _transfer(filling, cells, b_cells_of(cells))


def psi(filling: Filling, t: int) -> Filling:
    """Inverse transfer step: rewrite the first ``f_matrix(t)`` occurrence
    into an antidiagonal occurrence of order t.  Sums are preserved."""
    if t < 2:
        raise ValueError("order must be at least 2")
    occ = first_f_occurrence(filling, t)
    if occ is None:
        raise NoFtPresent(f"no f-pattern occurrence of order {t}")
    return _transfer(filling, f_cells(occ), antidiagonal_cells(occ))


def _avoids_above(filling: Filling, t: int, row_limit: int) -> bool:
    """Whether the rows strictly above ``row_limit`` avoid the order-t
    antidiagonal."""
    prefix = filling.shape.parts[: row_limit - 1]
    sub = Filling(Shape(prefix), filling.rows[: row_limit - 1])
    return not contains(sub, antiidentity(t))


def _iteration_cap(filling: Filling) -> int:
    return filling.total * filling.shape.num_cells + 1


def a1(filling: Filling, t: int, *, check: bool = False) -> Filling:
    """Iterate the transfer until no order-t antidiagonal remains.

    Requires the input to avoid ``f_matrix(t)``; the result then avoids
    the antidiagonal and ``a2`` undoes the whole run.  Progress is strict:
    the minimal occurrence's bottom-left cell moves down-right, or its
    entry drops, each step; a hard cap guards against stalls.  With
    ``check=True`` every step also verifies that no antidiagonal exists
    above the transfer row and that the cells just written are the first
    ``f_matrix(t)`` occurrence of the new filling.
    """
    if t < 2:
        raise ValueError("order must be at least 2")
    if first_f_occurrence(filling, t) is not None:
        raise PreconditionError("input must avoid the f-pattern")
    cap = _iteration_cap(filling)
    steps = 0
    prev_key = None
    current = filling
    while True:
        occ = first_j_occurrence(current, t)
        if occ is None:
            return current
        steps += 1
        if steps > cap:
            raise IterationLimitExceeded(f"no fixpoint after {cap} steps")
        a_cells = tuple(antidiagonal_cells(occ))
        anchor_row, anchor_col = a_cells[0]
        key = (anchor_row, anchor_col, -current.entry(anchor_row, anchor_col))
        if prev_key is not None and key <= prev_key:
            raise AssertionError("transfer progress stalled")
        prev_key = key
        b_cells = b_cells_of(a_cells)
        current = _transfer(current, a_cells, b_cells)
        if check:
            if not _avoids_above(current, t, anchor_row):
                raise AssertionError("antidiagonal appeared above the transfer row")
            created = first_f_occurrence(current, t)
            if created is None or tuple(f_cells(created)) != b_cells:
                raise AssertionError(
                    "the transferred cells are not the first f-pattern occurrence"
                )


def a2(filling: Filling, t: int, *, check: bool = False) -> Filling:
    """Iterate the inverse transfer until no ``f_matrix(t)`` remains.

    Requires the input to avoid the order-t antidiagonal; inverse of
    :func:`a1`.  With ``check=True`` every step verifies the cells just
    written are the first antidiagonal occurrence of the new filling.
    """
    if t < 2:
        raise ValueError("order must be at least 2")
    if max_antiidentity_order(filling) >= t:
        raise PreconditionError("input must avoid the antidiagonal pattern")
    cap = _iteration_cap(filling)
    steps = 0
    current = filling
    while True:
        occ = first_f_occurrence(current, t)
        if occ is None:
            return current
        steps += 1
        if steps > cap:
            raise IterationLimitExceeded(f"no fixpoint after {cap} steps")
        a_cells = tuple(antidiagonal_cells(occ))
        current = _transfer(current, f_cells(occ), a_cells)
        if check:
            created = first_j_occurrence(current, t)
            if created is None or tuple(antidiagonal_cells(created)) != a_cells:
                raise AssertionError(
                    "the transferred cells are not the first antidiagonal occurrence"
                )


def lift_block(
    filling: Filling,
    block: PatternMatrix,
    inner: Callable[[Filling], Filling],
) -> Filling:
    """Apply a sum-preserving bijection to the sub-diagram that can see
    ``block`` strictly below and to its right.

    The eligible cells form a Ferrers sub-diagram (visibility is inherited
    upward and leftward).  ``inner`` receives the restriction of the
    filling to that sub-diagram and must return a filling of the same
    shape with the same sums; the result is written back in place.  If a
    filling avoids block_diag(M, block) its restriction avoids M, so with
    ``inner`` the M-to-N bijection the output avoids block_diag(N, block).
    """
    parts = filling.shape.parts
    nrows = filling.shape.num_rows
    sub_lengths = []
    for i in range(1, nrows + 1):
        length = 0
        for j in range(1, parts[i - 1] + 1):
            # The region strictly below and right of cell (i, j), as the
            # kernel's plain tuples: rows i+1.. cut to their columns j+1..
            region_parts = []
            region_rows = []
            for r in range(i, nrows):
                if parts[r] <= j:
                    break
                region_parts.append(parts[r] - j)
                region_rows.append(filling.rows[r][j:])
            if _kernel.contains(tuple(region_parts), tuple(region_rows), block.rows):
                if length != j - 1:
                    raise AssertionError("eligible cells are not left-justified")
                length = j
        sub_lengths.append(length)
    for prev, cur in zip(sub_lengths, sub_lengths[1:]):
        if cur > prev:
            raise AssertionError("eligible region is not a Ferrers diagram")
    while sub_lengths and sub_lengths[-1] == 0:
        sub_lengths.pop()
    if not sub_lengths:
        return filling
    sub_shape = Shape(tuple(sub_lengths))
    restriction = Filling(
        sub_shape,
        tuple(filling.rows[i][: sub_lengths[i]] for i in range(len(sub_lengths))),
    )
    replaced = inner(restriction)
    if replaced.shape != sub_shape:
        raise AssertionError("inner bijection changed the sub-diagram shape")
    if sums_of(replaced) != sums_of(restriction):
        raise AssertionError("inner bijection changed the prescribed sums")
    grid = [list(row) for row in filling.rows]
    for i, length in enumerate(sub_lengths):
        grid[i][:length] = replaced.rows[i]
    return Filling(filling.shape, tuple(tuple(row) for row in grid))


def it_jt_biject(filling: Filling, t: int, direction: Direction) -> Filling:
    """Bijection between identity-avoiding and antidiagonal-avoiding
    fillings of order t, preserving shape and all sums.

    Order 1 is the identity map (the two patterns coincide).  For t >= 2
    the forward direction lifts the order-(t-1) bijection over a single-1
    block, turning identity avoidance into ``f_matrix(t)`` avoidance, and
    finishes with :func:`a1`; backward runs :func:`a2` then the lifted
    inverse.  The two directions are mutually inverse.
    """
    if t < 1:
        raise ValueError("order must be at least 1")
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction: {direction!r}")
    if t == 1:
        return filling
    if direction == "forward":
        if max_identity_order(filling) >= t:
            raise PreconditionError("input must avoid the identity pattern")
        lifted = lift_block(
            filling, identity(1), lambda f: it_jt_biject(f, t - 1, "forward")
        )
        return a1(lifted, t)
    # a2 rejects an input that contains the antidiagonal.
    unwound = a2(filling, t)
    return lift_block(
        unwound, identity(1), lambda f: it_jt_biject(f, t - 1, "backward")
    )


def _split_for_encoding(graph: Multigraph) -> tuple[LeftRightGraph, list[int]]:
    """Split two-sided vertices into a closing half then an opening half.

    One-sided vertices pass through unsplit; isolated vertices are tagged
    opening when a closing half follows them, otherwise closing (with at
    least one edge in the graph one of the two always applies).  Returns
    the left-right graph and the original vertex of each split position.
    """
    degrees = degree_sequence(graph).pairs
    origin: list[int] = []
    sides: list[str | None] = []
    open_pos: dict[int, int] = {}
    close_pos: dict[int, int] = {}
    for vertex in range(1, graph.n + 1):
        left, right = degrees[vertex - 1]
        if left:
            origin.append(vertex)
            sides.append("closing")
            close_pos[vertex] = len(origin)
        if right:
            origin.append(vertex)
            sides.append("opening")
            open_pos[vertex] = len(origin)
        if not left and not right:
            origin.append(vertex)
            sides.append(None)

    last_closing = max(
        (pos for pos, side in enumerate(sides, start=1) if side == "closing"),
        default=0,
    )
    first_opening = min(
        (pos for pos, side in enumerate(sides, start=1) if side == "opening"),
        default=len(origin) + 1,
    )
    isolated_openings = set()
    for pos, side in enumerate(sides, start=1):
        if side is not None:
            continue
        if pos < last_closing:
            isolated_openings.add(pos)
        elif pos <= first_opening:
            raise AssertionError("untaggable isolated vertex in an edged graph")

    pairs = [
        (open_pos[u], close_pos[v], mult) for u, v, mult in graph.edges
    ]
    lrg = LeftRightGraph(
        Multigraph.from_pairs(len(origin), pairs), frozenset(isolated_openings)
    )
    return lrg, origin


def graph_biject(graph: Multigraph, k: int, direction: Direction) -> Multigraph:
    """Degree-preserving bijection between graphs with no k nested edges
    and graphs with no k crossing edges.

    Forward maps a graph with nesting order below k to one with crossing
    order below k and the exact same left-right degree sequence; backward
    is the inverse.  The map splits every two-sided vertex, encodes the
    resulting left-right graph as a filling, applies the filling bijection
    and decodes back.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction: {direction!r}")
    if direction == "forward" and nest(graph) >= k:
        raise PreconditionError(f"input has {k} pairwise nested edges")
    if direction == "backward" and cross(graph) >= k:
        raise PreconditionError(f"input has {k} pairwise crossing edges")
    if graph.edge_count == 0:
        return graph
    lrg, origin = _split_for_encoding(graph)
    encoded = lr_encode(lrg)
    rewritten = it_jt_biject(encoded, k, direction)
    decoded = lr_decode(rewritten)
    if decoded.graph.n != len(origin):
        raise AssertionError("decode changed the vertex line")
    merged = Multigraph.from_pairs(
        graph.n,
        [(origin[u - 1], origin[v - 1], mult) for u, v, mult in decoded.graph.edges],
    )
    if degree_sequence(merged) != degree_sequence(graph):
        raise AssertionError("bijection must preserve the degree sequence")
    return merged

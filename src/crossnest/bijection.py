"""Sum-preserving bijections between pattern-avoiding fillings.

The core tool is a local transfer move on a filling: take the minimal
antidiagonal occurrence of order t, subtract 1 from each of its cells and
add 1 to the companion cells one staircase step up plus the corner.  Row
and column sums are untouched.  Iterating the move (and its inverse) maps
fillings avoiding the staircase pattern ``f_matrix(t)`` onto fillings
avoiding the antidiagonal of order t, and a block-lifting construction
turns that into the identity-vs-antidiagonal bijection of any order.
Composed with the staircase codec on a graph's core (its vertices that
carry an edge) this exchanges maximal crossing and nesting orders while
fixing the whole left-right degree sequence.
"""

from __future__ import annotations

from typing import Callable, Literal

# ``lr_encode`` and ``lr_decode`` are not called here.  They stay bound
# because perfbench's tracer times the left-right codec by replacing these
# names in this module's namespace.
from .codec import (  # noqa: F401
    b_cells_of,
    delta_decode,
    delta_encode,
    lr_decode,
    lr_encode,
)
from .graphs import Multigraph, cross, degree_sequence, nest
# ``identity``, ``antiidentity``, ``f_matrix`` and ``contains`` are not called
# here.  They stay bound because perfbench's tracer counts pattern builds and
# times ``contains`` by replacing these names in this module's namespace.
from .patterns import (  # noqa: F401
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


def _avoids_above(filling: Filling, t: int, row_limit: int) -> bool:
    """Whether the rows strictly above ``row_limit`` avoid the order-t
    antidiagonal."""
    prefix = filling.shape.parts[: row_limit - 1]
    sub = Filling(Shape(prefix), filling.rows[: row_limit - 1])
    return max_antiidentity_order(sub) < t


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


def lift_block(filling: Filling, inner: Callable[[Filling], Filling]) -> Filling:
    """Apply a sum-preserving bijection to the cells that see a nonzero
    cell strictly below and to their right.

    One bottom-up pass finds them: row i's first ``reach`` cells are
    eligible, where ``reach`` counts the columns left of the rightmost
    nonzero entry in the rows below i (0 when those rows are all zero).
    Those rows are no longer than row i, so the eligible cells form a
    Ferrers sub-diagram.  ``inner`` receives the restriction of the
    filling to it and must return a filling of the same shape with the
    same sums; the result is written back in place.  If a filling
    avoids block_diag(M, identity(1)) its restriction avoids M, so with
    ``inner`` the M-to-N bijection the output avoids
    block_diag(N, identity(1)).
    """
    sub_lengths = []
    reach = 0
    for row in reversed(filling.rows):
        sub_lengths.append(reach)
        for j in range(len(row) - 1, reach, -1):
            if row[j]:
                reach = j
                break
    sub_lengths.reverse()
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
        lifted = lift_block(filling, lambda f: it_jt_biject(f, t - 1, "forward"))
        return a1(lifted, t)
    # a2 rejects an input that contains the antidiagonal.
    unwound = a2(filling, t)
    return lift_block(unwound, lambda f: it_jt_biject(f, t - 1, "backward"))


def graph_biject(graph: Multigraph, k: int, direction: Direction) -> Multigraph:
    """Degree-preserving bijection between graphs with no k nested edges
    and graphs with no k crossing edges.

    Forward maps a graph with nesting order below k to one with crossing
    order below k and the exact same left-right degree sequence; backward
    is the inverse.  Isolated vertices carry no edge, so the map runs on
    the core, the vertices with an edge relabelled 1..c in order: it
    encodes the core by :func:`codec.delta_encode`, where nestings are
    identity chains and crossings antidiagonal ones, applies the filling
    bijection, decodes, and puts the labels back.  It costs edges, not
    vertices.
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
    ends = sorted({vertex for u, v, _ in graph.edges for vertex in (u, v)})
    label = {vertex: i for i, vertex in enumerate(ends, start=1)}
    core = Multigraph.from_pairs(
        len(ends), [(label[u], label[v], mult) for u, v, mult in graph.edges]
    )
    rewritten = it_jt_biject(delta_encode(core), k, direction)
    image = delta_decode(rewritten, len(ends))
    # The relabelling is one injection both ways, so comparing the cores'
    # degrees is comparing the graphs'.
    if degree_sequence(image) != degree_sequence(core):
        raise AssertionError("bijection must preserve the degree sequence")
    return Multigraph.from_pairs(
        graph.n, [(ends[u - 1], ends[v - 1], mult) for u, v, mult in image.edges]
    )

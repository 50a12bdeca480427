"""Sum-preserving bijections between pattern-avoiding fillings.

The core tool is a local transfer move on a filling: take the minimal
antidiagonal occurrence of order t, subtract 1 from each of its cells and
add 1 to its companion cells (:func:`b_cells_of`), one staircase step up
plus the corner, which form an ``f_matrix(t)`` occurrence.  Row and column
sums are untouched.  One loop iterates the move forward (:func:`a1`) or
backward (:func:`a2`), with strict progress checked in both directions; it
maps fillings avoiding ``f_matrix(t)`` onto fillings avoiding the
antidiagonal of order t, and a block-lifting construction
turns that into the identity-vs-antidiagonal bijection of any order.
Order 2 lifts nothing, since the map it would lift is the order-1
identity.  Composed with the staircase codec on a graph's core (its
vertices that carry an edge) this exchanges maximal crossing and nesting
orders while fixing the whole left-right degree sequence.  The core is
relabelled by an increasing map, so a call builds one core graph and one
image whose edges are already sorted and distinct.
"""

from __future__ import annotations

from typing import Callable, Literal

# ``lr_encode`` and ``lr_decode`` are not called here.  They stay bound
# because perfbench's tracer times the left-right codec by replacing these
# names in this module's namespace.
from .codec import delta_decode, delta_encode, lr_decode, lr_encode  # noqa: F401
from .graphs import Multigraph, cross, degree_sequence, nest
# ``identity``, ``antiidentity``, ``f_matrix`` and ``contains`` are not called
# here.  They stay bound because perfbench's tracer counts pattern builds and
# times ``contains`` by replacing these names in this module's namespace.
from .patterns import (  # noqa: F401
    Cell,
    antidiagonal_cells,
    antiidentity,
    contains,
    f_matrix,
    first_f_occurrence,
    first_j_occurrence,
    identity,
    max_antiidentity_order,
    max_identity_order,
)
from .shapes import Filling, Shape

Direction = Literal["forward", "backward"]


class PreconditionError(ValueError):
    """The input filling or graph contains the pattern it must avoid."""


class IterationLimitExceeded(RuntimeError):
    """Safety stop: the iterated transfer exceeded its progress bound."""


def _transfer(filling: Filling, decrement, increment) -> Filling:
    """Subtract 1 at each decrement cell and add 1 at each increment cell,
    both lists of 1-based cells; only the rows they touch are copied.

    Every row and column sum is kept exactly when the two lists hold the
    same rows and the same columns as multisets, so that is checked from
    the moved cells alone rather than from the sums of every cell.
    """
    rows = list(filling.rows)
    touched: dict[int, list[int]] = {}
    for cells, step in ((decrement, -1), (increment, 1)):
        for row, col in cells:
            copy = touched.get(row)
            if copy is None:
                copy = touched[row] = list(rows[row - 1])
            copy[col - 1] += step
            if copy[col - 1] < 0:
                raise AssertionError("transfer would make an entry negative")
    for axis in (0, 1):
        if sorted(c[axis] for c in decrement) != sorted(c[axis] for c in increment):
            raise AssertionError("transfer must preserve sums")
    for row, copy in touched.items():
        rows[row - 1] = tuple(copy)
    return Filling(filling.shape, tuple(rows))


def b_cells_of(a_cells: tuple[Cell, ...]) -> tuple[Cell, ...]:
    """Companion cells of an antidiagonal cell list: (r_{s+1}, c_s) for
    s < t, plus (r_1, c_t).  On an ``f_matrix(t)`` occurrence these are
    the pattern's cells left to right, corner last."""
    t = len(a_cells)
    cells = [(a_cells[s + 1][0], a_cells[s][1]) for s in range(t - 1)]
    cells.append((a_cells[0][0], a_cells[t - 1][1]))
    return tuple(cells)


def _iterate(filling: Filling, t: int, forward: bool) -> Filling:
    """Repeat the transfer step until the search finds no occurrence.

    A forward step moves the first antidiagonal occurrence onto its
    companion cells; a backward step moves the first ``f_matrix(t)``
    occurrence, whose cells are those companions, back onto the
    antidiagonal.  Progress is strict both ways: forward, the key (row,
    column, -entry) of the antidiagonal's bottom-left cell, read before
    the step, increases; backward the mirrored key (-row, -column, entry)
    does, since a backward run retraces a forward one in reverse.  A hard
    cap guards against stalls.
    """
    if t < 2:
        raise ValueError("order must be at least 2")
    if forward and first_f_occurrence(filling, t) is not None:
        raise PreconditionError("input must avoid the f-pattern")
    if not forward and max_antiidentity_order(filling) >= t:
        raise PreconditionError("input must avoid the antidiagonal pattern")
    search = first_j_occurrence if forward else first_f_occurrence
    cap = filling.total * filling.shape.num_cells + 1
    steps = 0
    prev_key = None
    current = filling
    while True:
        occ = search(current, t)
        if occ is None:
            return current
        steps += 1
        if steps > cap:
            raise IterationLimitExceeded(f"no fixpoint after {cap} steps")
        a_cells = tuple(antidiagonal_cells(occ))
        b_cells = b_cells_of(a_cells)
        row, col = a_cells[0]
        entry = current.entry(row, col)
        # A backward step adds 1 to this entry, so reading it before the
        # step orders the keys as reading it after would.
        key = (row, col, -entry) if forward else (-row, -col, entry)
        if prev_key is not None and key <= prev_key:
            raise AssertionError("transfer progress stalled")
        prev_key = key
        if forward:
            current = _transfer(current, a_cells, b_cells)
        else:
            current = _transfer(current, b_cells, a_cells)


def a1(filling: Filling, t: int) -> Filling:
    """Iterate the transfer until no order-t antidiagonal remains.

    Requires the input to avoid ``f_matrix(t)``; the result then avoids
    the antidiagonal and :func:`a2` undoes the whole run.  Both run the
    loop of :func:`_iterate`, which checks strict progress.
    """
    return _iterate(filling, t, forward=True)


def a2(filling: Filling, t: int) -> Filling:
    """Iterate the inverse transfer until no ``f_matrix(t)`` remains.

    Requires the input to avoid the order-t antidiagonal; inverse of
    :func:`a1`.
    """
    return _iterate(filling, t, forward=False)


def lift_block(filling: Filling, inner: Callable[[Filling], Filling]) -> Filling:
    """Apply a sum-preserving bijection to the cells that see a nonzero
    cell strictly below and to their right.

    One bottom-up pass finds them: row i's first ``reach`` cells are
    eligible, where ``reach`` counts the columns left of the rightmost
    nonzero entry in the rows below i (0 when those rows are all zero).
    Those rows are no longer than row i, so the eligible cells form a
    Ferrers sub-diagram.  ``inner`` receives the restriction of the
    filling to it and must return a filling of the same shape with the
    same sums; each row it changed is written back as a slice, the other
    rows kept as they are.  If a filling avoids block_diag(M, identity(1))
    its restriction avoids M, so with ``inner`` the M-to-N bijection the
    output avoids block_diag(N, identity(1)).
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
    rows = list(filling.rows)
    restriction = Filling(
        sub_shape, tuple(rows[i][:length] for i, length in enumerate(sub_lengths))
    )
    replaced = inner(restriction)
    if replaced.shape != sub_shape:
        raise AssertionError("inner bijection changed the sub-diagram shape")
    # The shapes agree, so the sums agree when every changed row keeps its
    # sum and the changed rows' differences cancel in every column.
    col_change = [0] * sub_lengths[0]
    for i, (new, old) in enumerate(zip(replaced.rows, restriction.rows)):
        if new == old:
            continue
        if sum(new) != sum(old):
            raise AssertionError("inner bijection changed the prescribed sums")
        for j, (a, b) in enumerate(zip(new, old)):
            col_change[j] += a - b
        rows[i] = new + rows[i][sub_lengths[i]:]
    if any(col_change):
        raise AssertionError("inner bijection changed the prescribed sums")
    return Filling(filling.shape, tuple(rows))


def it_jt_biject(filling: Filling, t: int, direction: Direction) -> Filling:
    """Bijection between identity-avoiding and antidiagonal-avoiding
    fillings of order t, preserving shape and all sums.

    Order 1 is the identity map on its one input, the zero filling: the
    two patterns coincide as a single nonzero cell, so any other filling
    is rejected in both directions.  For t >= 2 the forward direction
    lifts the order-(t-1) bijection over a single-1 block, turning
    identity avoidance into ``f_matrix(t)`` avoidance, and finishes with
    :func:`a1`; backward runs :func:`a2` then the lifted inverse.  The two
    directions are mutually inverse.  At t = 2 the map to lift is the
    order-1 identity, and lifting the identity gives back its input, so
    order 2 runs :func:`a1` or :func:`a2` alone.
    """
    if t < 1:
        raise ValueError("order must be at least 1")
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction: {direction!r}")
    if direction == "forward" and max_identity_order(filling) >= t:
        raise PreconditionError("input must avoid the identity pattern")
    if t == 1:
        # Only backward gets here with a nonzero filling; from order 2 on,
        # a2 checks the antidiagonal.
        if filling.total:
            raise PreconditionError("input must avoid the antidiagonal pattern")
        return filling
    if direction == "forward":
        if t == 2:
            return a1(filling, t)
        lifted = lift_block(filling, lambda f: it_jt_biject(f, t - 1, "forward"))
        return a1(lifted, t)
    # a2 rejects an input that contains the antidiagonal.
    unwound = a2(filling, t)
    if t == 2:
        return unwound
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
    # Relabelling by an increasing map keeps the edges sorted and distinct,
    # so the core and the image are built without merging repeats.
    core = Multigraph(
        len(ends), tuple((label[u], label[v], mult) for u, v, mult in graph.edges)
    )
    rewritten = it_jt_biject(delta_encode(core), k, direction)
    image = delta_decode(rewritten, len(ends))
    # The relabelling is one injection both ways, so comparing the cores'
    # degrees is comparing the graphs'.
    if degree_sequence(image) != degree_sequence(core):
        raise AssertionError("bijection must preserve the degree sequence")
    return Multigraph(
        graph.n,
        tuple((ends[u - 1], ends[v - 1], mult) for u, v, mult in image.edges),
    )

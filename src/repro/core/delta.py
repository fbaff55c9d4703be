"""Delta propagation math for incremental view-element maintenance.

Every view element is a *linear* functional of the cube: each output cell
is a signed sum of a dyadic block of cube cells (``P1`` adds a pair,
``R1`` subtracts the odd half — Eqs 1-2).  A change of ``delta`` at one
cube cell therefore touches **exactly one** cell of every element — the
cell whose dyadic block contains the coordinate — with a sign of
``(-1)**(number of residual steps that split the coordinate into the odd
half)``.  Nothing else moves, so a materialized element, a cached
assembled view, or an on-demand range intermediate can all be *patched*
in O(1) per update cell instead of recomputed, and a batch of ``n``
deltas costs O(n · d) per element with vectorized bit arithmetic.

This module is the single home of that math.  It is consumed by

- :meth:`repro.core.materialize.MaterializedSet.apply_updates` (stored
  element arrays),
- :meth:`repro.server.OLAPServer.update_many` (cached assembled query
  answers), and
- :meth:`repro.shard.sets.ShardedSet.apply_updates` (per-shard routing).

:meth:`repro.core.range_query.RangeQueryEngine.apply_updates` uses only
the partial-sum special case (no residual steps: cell ``coord >> level``,
sign ``+1``) and patches all of its cached intermediates with one flat
scatter over its arena instead of one :func:`patch_array` per element.

:func:`dyadic_scope` computes the *dyadic subtree* an update batch
touches per axis — the ``(level, position)`` nodes whose blocks contain
some updated coordinate.  That is the scoped-invalidation footprint: a
cache keyed by dyadic region stays valid outside the scope, and the
number of distinct touched positions bounds the patch work per element.
"""

from __future__ import annotations

import numpy as np

from .element import ElementId
from .operators import OpCounter

__all__ = [
    "delta_cell",
    "delta_cells",
    "dyadic_scope",
    "patch_array",
]


def delta_cell(
    element: ElementId, coordinates: tuple[int, ...]
) -> tuple[tuple[int, ...], float]:
    """The one cell of ``element`` a cube-cell update touches, and its sign.

    Walks each dimension's operator cascade MSB-first: every step halves
    the coordinate; a residual step whose split leaves the coordinate in
    the odd half flips the sign (``R1``: ``out[p] = in[2p] - in[2p+1]``).
    """
    if len(coordinates) != element.shape.ndim:
        raise ValueError(
            f"{len(coordinates)} coordinates for a "
            f"{element.shape.ndim}-dimensional cube"
        )
    cell = []
    sign = 1.0
    for (level, index), coord in zip(element.nodes, coordinates):
        position = int(coord)
        for step in range(level):
            bit = (index >> (level - 1 - step)) & 1
            if bit and (position & 1):
                sign = -sign
            position >>= 1
        cell.append(position)
    return tuple(cell), sign


def delta_cells(
    element: ElementId, coordinates: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`delta_cell` for an ``(n, d)`` coordinate batch.

    Returns ``(cells, signs)`` — an ``(n, d)`` int array of touched
    element cells and an ``(n,)`` float array of signs.  Closed form of
    the bit walk: the touched cell is ``coord >> level`` per axis, and
    step ``s`` of the walk pairs coordinate bit ``s`` with index bit
    ``level - 1 - s``, so the sign is the parity of ``coord &
    reversed(index)`` (the index's low ``level`` bits reversed) summed
    over the axes.
    """
    coordinates = np.asarray(coordinates, dtype=np.int64)
    if coordinates.ndim != 2 or coordinates.shape[1] != element.shape.ndim:
        raise ValueError(
            f"coordinates must be (n, {element.shape.ndim}); "
            f"got {coordinates.shape}"
        )
    cells = np.empty_like(coordinates)
    odd = None
    width = 0
    for m, (level, index) in enumerate(element.nodes):
        column = coordinates[:, m]
        cells[:, m] = column >> level
        mask = _reversed_bits(index, level)
        if mask:
            # parity(a) ^ parity(b) == parity(a ^ b): fold the axes first.
            odd = column & mask if odd is None else odd ^ (column & mask)
            width = max(width, level)
    if odd is None:
        return cells, np.ones(coordinates.shape[0], dtype=np.float64)
    shift = 1
    while shift < width:
        # Prefix-XOR fold: bit 0 ends up holding the parity of the low
        # ``width`` bits (no ``np.bitwise_count`` before numpy 2.0).
        odd ^= odd >> shift
        shift <<= 1
    return cells, 1.0 - 2.0 * (odd & 1)


def _reversed_bits(index: int, level: int) -> int:
    """``index``'s low ``level`` bits in reverse order."""
    reversed_index = 0
    for _ in range(level):
        reversed_index = (reversed_index << 1) | (index & 1)
        index >>= 1
    return reversed_index


def validate_coordinates(shape, coordinates: np.ndarray) -> np.ndarray:
    """Normalize an ``(n, d)`` coordinate batch against ``shape``.

    Returns the int64 array; raises :class:`ValueError` on rank or bound
    violations (shared by every ``apply_updates`` entry point).
    """
    coordinates = np.asarray(coordinates, dtype=np.int64)
    if coordinates.ndim != 2 or coordinates.shape[1] != shape.ndim:
        raise ValueError(
            f"coordinates must be (n, {shape.ndim}); got {coordinates.shape}"
        )
    sizes = np.array(shape.sizes, dtype=np.int64)
    if coordinates.size and (
        (coordinates < 0).any() or (coordinates >= sizes[None, :]).any()
    ):
        raise ValueError("coordinates outside the cube extents")
    return coordinates


def dyadic_scope(shape, coordinates: np.ndarray) -> tuple[dict, ...]:
    """The dyadic subtree an update batch touches, per axis.

    For each axis ``m`` returns ``{level: sorted touched positions}`` for
    every level ``0..K_m``: a level-``k`` dyadic block along the axis has
    extent ``2**k``, and the block containing coordinate ``c`` is
    ``c >> k``.  Any element whose
    axis node sits at level ``k`` has its touched cells drawn from these
    positions, so the scope bounds patch work (``<= n`` distinct cells
    per element) and names the regions a region-tagged cache must repair.
    """
    coordinates = validate_coordinates(shape, coordinates)
    scope = []
    for m, depth in enumerate(shape.depths):
        axis_coords = coordinates[:, m]
        per_level = {}
        for level in range(depth + 1):
            per_level[level] = sorted(set((axis_coords >> level).tolist()))
        scope.append(per_level)
    return tuple(scope)


def patch_array(
    element: ElementId,
    values: np.ndarray,
    coordinates: np.ndarray,
    deltas: np.ndarray,
    counter: OpCounter | None = None,
    label: str = "incremental update",
) -> int:
    """Patch ``element``'s materialized array in place for a delta batch.

    ``coordinates`` is ``(n, d)`` (already validated against the shape),
    ``deltas`` is ``(n,)``.  Exact for integer-valued cubes (every route
    through the filter bank is a signed integer sum); for float data the
    patch equals the recomputation up to the usual reassociation error.
    Returns the number of deltas applied.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    if not len(deltas):
        return 0
    cells, signs = delta_cells(element, coordinates)
    np.add.at(values, tuple(cells.T), signs * deltas)
    if counter is not None:
        counter.add(additions=len(deltas), label=label)
    return len(deltas)

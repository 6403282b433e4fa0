"""Decorated/undecorated folding tilings and local reconstruction.

A pattern window converts to tiles labeled by red-side count plus a
decoration marking the minority side; dropping the decoration loses no
information: the coloring is rebuilt from red counts alone by one local
rule, run to a fixpoint.  A tile whose known red sides already make up
its count has its open sides blue; one that needs all of its open sides
red has them red; one whose count no coloring of its open sides reaches
is corrupt.  Each segment painted puts the two tiles it borders back on
the worklist.  The rule reads only a tile's own three sides, never line
values or layer arithmetic.

Tilings are dicts keyed by tile anchor (orientation, p, q), the key the
window store, the ``lattice`` tables and tiling files use too, and a
tile is named as its tiling-file record names it (``tile_name``).
``to_tiling`` labels tile codes through ``DECORATIONS``, the table the
tile statistics share.  A segment's two tiles are ``TILE_SEGMENTS`` read
backwards (``BORDERS``).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .errors import Inconsistent, Undecidable
from .folding import TILE_SIDES, Color, PatternPatch
from .lattice import POSITIVE, TILE_SEGMENTS, Seg, unit_tile_segments

RED = Color.RED
BLUE = Color.BLUE


class DecoratedTile(NamedTuple):
    red_count: int
    decoration: Optional[int]  # direction slot of the minority side


def decorate(cols: tuple[Color, Color, Color]) -> tuple[int, Optional[int]]:
    """(red count, direction slot of the minority side) of a tile with
    these side colors; monochrome tiles have no minority side."""
    reds = cols.count(RED)
    if reds == 1:
        return 1, 1 + cols.index(RED)
    if reds == 2:
        return 2, 1 + cols.index(BLUE)
    return reds, None


#: The label (red count, slot) of a tile code (see folding.TILE_SIDES),
#: or None when a side has no color.
DECORATIONS = tuple(None if sides is None else DecoratedTile(*decorate(sides))
                    for sides in TILE_SIDES)


#: A unit tile's anchor (orientation, p, q).
Anchor = tuple[int, int, int]


def tile_name(o: int, p: int, q: int) -> str:
    """The tile as a tiling-file record names it: ``P p q`` or ``N p q``."""
    return f"{'P' if o == POSITIVE else 'N'} {p} {q}"


def to_tiling(patch: PatternPatch) -> dict[Anchor, DecoratedTile]:
    """Convert every fully colored unit triangle of the window."""
    window = {}
    for o, q, first, codes in patch.colors.tile_codes():
        for i, code in enumerate(codes):
            label = DECORATIONS[code]
            if label is not None:
                window[(o, first + i, q)] = label
    return window


def strip_decoration(window: dict[Anchor, DecoratedTile]) -> dict[Anchor, int]:
    return {a: t.red_count for a, t in window.items()}


#: Per direction d - 1, the two tiles bordering a segment Seg(d, p, q), as
#: (orientation, dp, dq) offsets from (p, q): ``TILE_SEGMENTS`` read backwards.
BORDERS = tuple(tuple((o, -sides[i][1], -sides[i][2]) for o, sides in TILE_SEGMENTS.items())
                for i in range(3))


def reconstruct(window: dict[Anchor, int],
                targets: Optional[Iterable[Seg]] = None) -> dict[Seg, Color]:
    """Rebuild segment colors from undecorated red counts, by tile anchor.

    Returns every segment the counts force, or exactly the requested
    targets.  Raises Inconsistent, naming a tile by its record, when the
    counts admit no coloring (corrupted input) and Undecidable when a
    requested segment is not settled.
    """
    for a, count in window.items():
        if not 0 <= count <= 3:
            raise Inconsistent(f"tile {tile_name(*a)}: red count {count} out of range")

    colors: dict[Seg, Color] = {}
    # a tile settles nothing until it is monochrome or a side is painted
    work = [a for a, count in window.items() if count in (0, 3)]
    while work:
        a = work.pop()
        count = window[a]
        segs = unit_tile_segments(*a)
        known = [colors.get(s) for s in segs]
        reds, unknown = known.count(RED), known.count(None)
        if not reds <= count <= reds + unknown:
            raise Inconsistent(f"tile {tile_name(*a)}: red count {count} impossible")
        if unknown and count in (reds, reds + unknown):
            col = BLUE if count == reds else RED
            for seg, c in zip(segs, known):
                if c is None:
                    colors[seg] = col
                    d, p, q = seg
                    for o, dp, dq in BORDERS[d - 1]:
                        tile = (o, p + dp, q + dq)
                        if tile != a and tile in window:
                            work.append(tile)

    if targets is None:
        return colors
    result = {}
    for seg in targets:
        col = colors.get(seg)
        if col is None:
            raise Undecidable(f"{seg} cannot be settled in this window")
        result[seg] = col
    return result

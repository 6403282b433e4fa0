"""Decorated/undecorated folding tilings and local reconstruction.

A pattern window converts to tiles labeled by red-side count plus a
decoration marking the minority side; dropping the decoration loses no
information: the coloring is rebuilt from red counts alone by a local
procedure.  Monochrome tiles pin down their own side colors, which
covers every segment of the finest layer; lines of that layer betray
themselves by alternating in runs of three; and inside each hexagon of
the identified layer the six red counts force the spoke colors one
step at a time, starting from a monochrome interior tile.  The
procedure never consults line values or layer arithmetic, only the
tile data itself.

Tilings are dicts keyed by tile anchor (orientation, p, q), the key the
window store, the ``lattice`` tables and tiling files use too, and a
tile is named as its tiling-file record names it (``tile_name``).
``to_tiling`` labels tile codes through ``DECORATIONS``, the table the
tile statistics share.  ``reconstruct`` lists each tile's sides once;
its hexagon centers are positive anchors (``AROUND`` puts the positive
tile anchored at a vertex first), and a hexagon is ``AROUND`` and
``SPOKES`` moved to its center.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .errors import Inconsistent, Undecidable
from .folding import TILE_SIDES, Color, PatternPatch
from .lattice import (
    AROUND,
    POSITIVE,
    SPOKES,
    Seg,
    line_position,
    segment_at,
    unit_tile_segments,
)

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


def reconstruct(window: dict[Anchor, int],
                targets: Optional[Iterable[Seg]] = None) -> dict[Seg, Color]:
    """Rebuild segment colors from undecorated red counts, by tile anchor.

    Returns the monochrome tiles' sides and the spokes of solved
    hexagons, or exactly the requested targets; some segments near the
    rim that the counts force are not among them.  Raises Inconsistent,
    naming a tile by its record, when the counts admit no coloring
    (corrupted input) and Undecidable when a requested segment is not
    settled.
    """
    for a, count in window.items():
        if not 0 <= count <= 3:
            raise Inconsistent(f"tile {tile_name(*a)}: red count {count} out of range")
    sides = {a: unit_tile_segments(*a) for a in window}

    colors: dict[Seg, Color] = {}

    def paint(seg: Seg, col: Color):
        prev = colors.get(seg)
        if prev is None:
            colors[seg] = col
        elif prev is not col:
            raise Inconsistent(f"{seg}: both colors forced")

    # 1. monochrome tiles know all their sides
    for a, count in window.items():
        if count == 3 or count == 0:
            col = RED if count else BLUE
            for seg in sides[a]:
                paint(seg, col)

    # 2. finest-layer lines (d, v) show alternating runs of three; only
    # tile sides are painted, so a painted neighbour is one
    finest_lines: set[tuple[int, int]] = set()
    for seg, c0 in colors.items():
        v, pos = line_position(seg)
        line = (seg.d, v)
        if line in finest_lines:
            continue
        other = c0.swapped
        if (colors.get(segment_at(seg.d, v, pos - 1)) is other
                and colors.get(segment_at(seg.d, v, pos + 1)) is other):
            finest_lines.add(line)

    # 3. hexagons of the identified layer, one candidate center per
    # positive anchor: its six tiles must be there and its six outer
    # sides painted on identified lines
    o0, p0, q0, _ = AROUND[0]
    centers = []
    for o, p, q in window:
        if o != o0:
            continue
        p, q = p - p0, q - q0
        outer = [Seg(d, p + a, q + b) for _, _, _, (d, a, b) in AROUND]
        if (all((t, p + a, q + b) in window for t, a, b, _ in AROUND)
                and all(s in colors and (s.d, line_position(s)[0]) in finest_lines
                        for s in outer)):
            centers.append((p, q))

    for p, q in centers:
        # tile i has sides outer i, spokes i and i + 1
        spokes = [Seg(d, p + a, q + b) for d, a, b in SPOKES]
        hexagon = [((t, p + a, q + b), (Seg(d, p + e, q + f), spokes[i], spokes[(i + 1) % 6]))
                   for i, (t, a, b, (d, e, f)) in enumerate(AROUND)]
        progress = True
        while progress:
            progress = False
            for tile, segs in hexagon:
                known = [colors.get(s) for s in segs]
                reds = sum(c is RED for c in known)
                missing = [s for s, c in zip(segs, known) if c is None]
                # a tile with no side missing is checked in stage 4
                if len(missing) == 1:
                    count = window[tile]
                    need = count - reds
                    if need not in (0, 1):
                        raise Inconsistent(f"tile {tile_name(*tile)}: "
                                           f"red count {count} impossible")
                    paint(missing[0], RED if need else BLUE)
                    progress = True

    # 4. every fully recovered tile must agree with its count
    for a, count in window.items():
        known = [colors.get(s) for s in sides[a]]
        if None not in known and sum(c is RED for c in known) != count:
            raise Inconsistent(f"tile {tile_name(*a)}: red count mismatch")

    if targets is None:
        return colors
    result = {}
    for seg in targets:
        col = colors.get(seg)
        if col is None:
            raise Undecidable(f"{seg} cannot be settled in this window")
        result[seg] = col
    return result

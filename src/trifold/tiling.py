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
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .errors import Inconsistent, Undecidable
from .folding import Color, PatternPatch
from .lattice import NEGATIVE, POSITIVE, Line, Seg, Triangle, Vertex, incident_segments, line_of

RED = Color.RED
BLUE = Color.BLUE


class DecoratedTile(NamedTuple):
    triangle: Triangle
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


def to_tiling(patch: PatternPatch) -> dict[Triangle, DecoratedTile]:
    """Convert every fully colored unit triangle of the window."""
    return {tri: DecoratedTile(tri, *decorate(cols))
            for tri, cols in patch.full_tiles()}


def strip_decoration(window: dict[Triangle, DecoratedTile]) -> dict[Triangle, int]:
    return {tri: t.red_count for tri, t in window.items()}


def _tiles_around(vertex: Vertex):
    """The six unit tiles around a vertex in ccw order, each with its
    two incident spokes and its outer side.

    Spoke i and spoke i+1 belong to tile i; the spokes are listed ccw
    starting from the direction-1 segment to the right of the vertex.
    """
    p, q = vertex
    spokes = incident_segments(vertex)
    anchors = ((POSITIVE, p, q), (NEGATIVE, p - 1, q + 1), (POSITIVE, p - 1, q),
               (NEGATIVE, p - 1, q), (POSITIVE, p, q - 1), (NEGATIVE, p, q))
    tiles = [Triangle.unit_from_anchor(*a) for a in anchors]
    outer = []
    for i, tri in enumerate(tiles):
        side = [s for s in tri.side_segments()
                if s != spokes[i] and s != spokes[(i + 1) % 6]]
        outer.append(side[0])
    return tiles, spokes, outer


def reconstruct(window: dict[Triangle, int],
                targets: Optional[Iterable[Seg]] = None) -> dict[Seg, Color]:
    """Rebuild segment colors from undecorated red counts.

    Returns every decidable segment, or exactly the requested targets.
    Raises Inconsistent when the counts admit no coloring (corrupted
    input) and Undecidable when a requested segment cannot be settled
    inside the window.
    """
    for tri, count in window.items():
        if not 0 <= count <= 3:
            raise Inconsistent(f"{tri}: red count {count} out of range")

    colors: dict[Seg, Color] = {}

    def paint(seg: Seg, col: Color):
        prev = colors.get(seg)
        if prev is None:
            colors[seg] = col
        elif prev is not col:
            raise Inconsistent(f"{seg}: both colors forced")

    # 1. monochrome tiles know all their sides
    for tri, count in window.items():
        if count == 3 or count == 0:
            col = RED if count else BLUE
            for seg in tri.side_segments():
                paint(seg, col)

    # 2. finest-layer lines show alternating runs of three
    by_line: dict[Line, dict[int, Seg]] = {}
    for tri in window:
        for seg in tri.side_segments():
            pos = seg.p if seg.d != 3 else seg.q
            by_line.setdefault(line_of(seg), {})[pos] = seg
    finest_lines: set[Line] = set()
    for line, segs in by_line.items():
        for pos, seg in segs.items():
            c0 = colors.get(seg)
            if c0 is None:
                continue
            left = segs.get(pos - 1)
            right = segs.get(pos + 1)
            if left is None or right is None:
                continue
            if (colors.get(left) is c0.swapped
                    and colors.get(right) is c0.swapped):
                finest_lines.add(line)
                break

    # 3. hexagons of the identified layer: centers are the vertices all
    # of whose surrounding outer sides lie on identified lines
    pending = []
    seen = set()
    for tri in window:
        for vert in tri.vertices():
            if vert in seen:
                continue
            seen.add(vert)
            tiles, spokes, outer = _tiles_around(vert)
            if any(t not in window for t in tiles):
                continue
            if any(line_of(s) not in finest_lines for s in outer):
                continue
            if any(colors.get(s) is None for s in outer):
                continue
            pending.append((tiles, spokes, outer))

    for tiles, spokes, outer in pending:
        counts = [window[t] for t in tiles]
        progress = True
        while progress:
            progress = False
            for i in range(6):
                sides = (outer[i], spokes[i], spokes[(i + 1) % 6])
                known = [colors.get(s) for s in sides]
                reds = sum(c is RED for c in known)
                missing = [s for s, c in zip(sides, known) if c is None]
                if not missing:
                    if reds != counts[i]:
                        raise Inconsistent(f"tile {tiles[i]}: red count mismatch")
                    continue
                if len(missing) == 1:
                    need = counts[i] - reds
                    if need not in (0, 1):
                        raise Inconsistent(f"tile {tiles[i]}: red count {counts[i]} impossible")
                    paint(missing[0], RED if need else BLUE)
                    progress = True

    # 4. every fully recovered tile must agree with its count
    for tri, count in window.items():
        known = [colors.get(s) for s in tri.side_segments()]
        if None not in known and sum(c is RED for c in known) != count:
            raise Inconsistent(f"tile {tri}: red count mismatch")

    if targets is None:
        return colors
    result = {}
    for seg in targets:
        col = colors.get(seg)
        if col is None:
            raise Undecidable(f"{seg} cannot be settled in this window")
        result[seg] = col
    return result

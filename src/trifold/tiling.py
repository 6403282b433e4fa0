"""Decorated/undecorated folding tilings and local reconstruction.

A pattern window converts to tiles labeled by red-side count plus a
decoration marking the minority side; dropping the decoration loses no
information: the coloring is rebuilt from red counts alone by one local
rule, run to a fixpoint.  A tile whose known red sides already make up
its count has its open sides blue; one that needs all of its open sides
red has them red; one whose count no coloring of its open sides reaches
is corrupt.  The rule reads only a tile's own three sides, never line
values or layer arithmetic.

The rule runs a row of tiles at a time.  The counts are laid out from
the records alone, one byte string per block of consecutive tiles on a
tile row, and the segments as bytearray runs covering the sides those
blocks need.  Per block, the side slices and counts combine into a key
byte per tile, ``RULE`` settles them in one translate and ``DIGITS``
write the sides back.  Sweeps go forward, then backward, until one
paints nothing, each visiting only the tiles whose sides changed.  A
failure names the first corrupt tile a sweep reaches.

Tilings are dicts keyed by tile anchor (orientation, p, q), the key the
window store, the ``lattice`` tables and tiling files use too, and a
tile is named as its tiling-file record names it (``tile_name``).
``to_tiling`` labels tile codes through ``DECORATIONS``, the table the
tile statistics share.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import Inconsistent
from .folding import (BLUE_CODE, CODE_COLORS, NO_COLOR, RED_CODE, TILE_SIDES, Color,
                      PatternPatch, combine)
from .lattice import POSITIVE, TILE_SEGMENTS, Seg

class DecoratedTile(NamedTuple):
    red_count: int
    decoration: Optional[int]  # direction slot of the minority side


def decorate(cols: tuple[Color, Color, Color]) -> tuple[int, Optional[int]]:
    """(red count, direction slot of the minority side) of a tile with
    these side colors; monochrome tiles have no minority side."""
    reds = cols.count(Color.RED)
    if reds == 1:
        return 1, 1 + cols.index(Color.RED)
    if reds == 2:
        return 2, 1 + cols.index(Color.BLUE)
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


def _settle(key: int) -> int:
    """The tile code (see folding.TILE_SIDES) the rule leaves for a sweep
    key, or ERR when no coloring of the open sides reaches the count."""
    count, sides = key >> 6, [key >> shift & 3 for shift in (0, 2, 4)]
    reds, unknown = sides.count(RED_CODE), sides.count(NO_COLOR)
    if not reds <= count <= reds + unknown:
        return ERR
    fill = BLUE_CODE if count == reds else RED_CODE if count == reds + unknown else NO_COLOR
    return sum((fill if c == NO_COLOR else c) << shift for c, shift in zip(sides, (0, 2, 4)))


#: A tile's sweep key is its tile code, NO_COLOR on an open side, plus 64
#: times its red count.  RULE maps a key to the tile code the rule leaves
#: and DIGITS[d - 1] a tile code to its direction-d side code.
ERR = 255
RULE = bytes(_settle(key) for key in range(256))
DIGITS = tuple(bytes(code >> shift & 3 for code in range(256)) for shift in (0, 2, 4))


def _layout(counts: dict[Anchor, int]) -> tuple[list, list]:
    """Tile blocks (o, q, first, counts, sides) in (q, o) order, and segment
    runs (d, q, first, codes, readers), codes all NO_COLOR, in (d, q, first)
    order: per segment row, the union of the side spans the blocks need.
    Sides and readers are (segment run, offset) and (block, offset) pairs."""
    by_row, tiles, need, segs = {}, [], {}, []  # by_row: (q, o) -> {p: count}
    for (o, p, q), count in counts.items():
        if not 0 <= count <= 3:
            raise Inconsistent(f"tile {tile_name(o, p, q)}: red count {count} out of range")
        by_row.setdefault((q, o), {})[p] = count
    for (q, o), row in sorted(by_row.items()):
        ps = sorted(row)
        cuts = [0, *(i for i in range(1, len(ps)) if ps[i] != ps[i - 1] + 1), len(ps)]
        for a, b in zip(cuts, cuts[1:]):
            for side, (d, dp, dq) in enumerate(TILE_SEGMENTS[o]):
                need.setdefault((d, q + dq), []).append(
                    (ps[a] + dp, ps[a] + dp + b - a, len(tiles), side))
            tiles.append((o, q, ps[a], bytes(map(row.__getitem__, ps[a:b])), [None] * 3))
    for (d, q), spans in sorted(need.items()):
        run = None
        for start, stop, t, side in sorted(spans):
            if run is None or start > first + len(run):
                first, run = start, bytearray()
                segs.append((d, q, first, run, []))
            run += bytes([NO_COLOR]) * (stop - first - len(run))
            tiles[t][4][side] = (len(segs) - 1, start - first)
            segs[-1][4].append((t, start - first))
    return tiles, segs


def reconstruct(counts: dict[Anchor, int]) -> dict[Seg, Color]:
    """Every segment color the undecorated red counts force, by sweeps over
    tile blocks (whose tiles share no side).  Raises Inconsistent, naming a
    tile by its record, when the counts admit no coloring (corrupted input)."""
    tiles, segs = _layout(counts)
    # per block, the tiles a..b-1 a sweep must visit
    todo, order = [(0, len(tile[3])) for tile in tiles], range(len(tiles))
    while order:
        painted = False
        for t in order:
            o, q, first, row, sides = tiles[t]
            (a, b), todo[t] = todo[t], (len(row), 0)
            if a >= b:
                continue
            parts = [segs[r][3][i + a:i + b] for r, i in sides]
            codes = combine([*parts, row[a:b]], (1, 4, 16, 64), b - a).translate(RULE)
            bad = codes.find(ERR)
            if bad >= 0:
                raise Inconsistent(f"tile {tile_name(o, first + a + bad, q)}: "
                                   f"red count {row[a + bad]} impossible")
            for (r, i), part, digits in zip(sides, parts, DIGITS):
                side = codes.translate(digits)
                if side != part:
                    segs[r][3][i + a:i + b] = side
                    painted = True
                    # codes changed at run offsets lo..hi-1 wake their readers, t too
                    x = int.from_bytes(side, "little") ^ int.from_bytes(part, "little")
                    lo = i + a + ((x & -x).bit_length() - 1) // 8
                    hi = i + a + (x.bit_length() + 7) // 8
                    for u, j in segs[r][4]:
                        s, e = todo[u]
                        todo[u] = max(0, min(s, lo - j)), min(len(tiles[u][3]), max(e, hi - j))
        order = order[::-1] if painted else ()
    return {Seg(d, first + i, q): CODE_COLORS[code] for d, q, first, row, _ in segs
            for i, code in enumerate(row) if code != NO_COLOR}

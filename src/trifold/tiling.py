"""Decorated/undecorated folding tilings and local reconstruction.

A pattern window converts to tiles labeled by red-side count plus a
decoration marking the minority side; dropping the decoration loses no
information: the coloring is rebuilt from red counts alone by one local
rule, run to a fixpoint.  A tile whose known red sides already make up
its count has its open sides blue; one that needs all of its open sides
red has them red; one whose count no coloring of its open sides reaches
is corrupt.  The rule reads only a tile's own three sides, never line
values or layer arithmetic.

A tiling is ``Runs`` of tile codes (folding.TILE_SIDES) along each tile
row (orientation, q): a tile's red count and minority side fix its side
colors, so its code is its label (``DECORATIONS``).  ``to_tiling`` keeps
the window's tile-code rows, NO_TILE where a side is uncolored, and
``strip_decoration`` translates them to red counts.

The rule runs a block, a run of counts, at a time, in (q, orientation)
order; a plain dict of counts is grouped into runs first.  The segments
are bytearray runs covering the sides the blocks need.  Per block, the
side slices and counts combine into a key byte per tile, ``RULE``
settles them in one translate and ``DIGITS`` write the sides back.
Sweeps go forward, then backward, until one paints nothing, each
visiting only the tiles whose sides changed.  A failure names the first
corrupt tile a sweep reaches as its record does (``tile_name``).  The
segment runs are the result: Runs of store codes keyed (d, p, q), a
tuple equal to its Seg.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import Inconsistent
from .folding import (BLUE_CODE, CODE_COLORS, NO_COLOR, RED_CODE, TILE_SIDES, Color,
                      PatternPatch, combine)
from .lattice import POSITIVE, TILE_SEGMENTS

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


#: A code with an uncolored side, so no tile's: a tiling's byte for a tile
#: that has one.
NO_TILE = 6
#: (kind, q) -> [(first, bytes), ...] in increasing first, none touching.
RunRows = dict[tuple[int, int], list[tuple[int, bytes]]]


@dataclass(frozen=True, eq=False)
class Runs(Mapping):
    """Entries keyed (kind, p, q) as byte runs, a read-only Mapping: byte i
    of a run of ``rows[(kind, q)]`` is the entry at p = first + i, valued
    ``values[byte]``, or no entry when it is ``blank``.  The defaults make
    a decorated tiling."""

    rows: RunRows
    values: Sequence = DECORATIONS
    blank: int = NO_TILE

    def __getitem__(self, key):
        try:
            kind, p, q = key
            byte = self.row(kind, q, p, p + 1)[0]
        except (TypeError, ValueError):
            raise KeyError(key) from None
        if byte == self.blank:
            raise KeyError(key)
        return self.values[byte]

    def __len__(self) -> int:
        return sum(len(run) - run.count(self.blank) for runs in self.rows.values()
                   for _, run in runs)

    def __iter__(self) -> Iterator[tuple]:
        return ((kind, first + i, q) for (kind, q), runs in self.rows.items()
                for first, run in runs for i, byte in enumerate(run) if byte != self.blank)

    def row(self, kind: int, q: int, first: int, stop: int) -> bytes:
        """The bytes at p = first..stop-1 of row (kind, q), blank off its runs."""
        out = bytearray([self.blank]) * (stop - first)
        for f, run in self.rows.get((kind, q), ()):
            lo, hi = max(f, first), min(f + len(run), stop)
            if lo < hi:
                out[lo - first:hi - first] = run[lo - f:hi - f]
        return bytes(out)


def anchor_rows(entries: Mapping[Anchor, int]) -> RunRows:
    """Runs rows of bytes keyed by anchor, cut where p skips."""
    rows: dict[tuple[int, int], list[tuple[int, bytearray]]] = {}
    for (o, p, q), byte in sorted(entries.items(), key=lambda item: item[0][::-1]):
        runs = rows.setdefault((o, q), [])
        if runs and runs[-1][0] + len(runs[-1][1]) == p:
            runs[-1][1].append(byte)
        else:
            runs.append((p, bytearray([byte])))
    return {key: [(first, bytes(run)) for first, run in runs] for key, runs in rows.items()}


#: Tile code -> itself or NO_TILE, and -> red count or NO_COUNT.
NO_COUNT = 255
_LABELS = DECORATIONS + (None,) * (256 - len(DECORATIONS))
_FULL = bytes(code if label else NO_TILE for code, label in enumerate(_LABELS))
_COUNTS = bytes(label.red_count if label else NO_COUNT for label in _LABELS)


def to_tiling(patch: PatternPatch) -> Runs:
    """Every fully colored unit triangle of the window, by tile code."""
    return Runs({(o, q): [(first, codes.translate(_FULL))]
                 for o, q, first, codes in patch.colors.tile_codes()})


def strip_decoration(window: Runs) -> Runs:
    """The tiling's red counts."""
    return Runs({key: [(first, run.translate(_COUNTS)) for first, run in runs]
                 for key, runs in window.rows.items()}, range(4), NO_COUNT)


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


def _layout(counts: Mapping[Anchor, int]) -> tuple[list, list]:
    """Tile blocks (o, q, first, counts, sides) in (q, o) order, and segment
    runs (d, q, first, codes, readers), codes all NO_COLOR, in (d, q, first)
    order: per segment row, the union of the side spans the blocks need.
    Sides and readers are (segment run, offset) and (block, offset) pairs."""
    if not isinstance(counts, Runs):  # a plain dict, grouped into runs
        for (o, p, q), count in counts.items():
            if not 0 <= count <= 3:
                raise Inconsistent(f"tile {tile_name(o, p, q)}: red count {count} out of range")
        counts = Runs(anchor_rows(counts), range(4), NO_COUNT)
    tiles, need, segs = [], {}, []
    for (o, q), runs in sorted(counts.rows.items(), key=lambda item: item[0][::-1]):
        for first, run in runs:
            for row in run.split(bytes([NO_COUNT])):  # the blocks between tiles with none
                if row:
                    for side, (d, dp, dq) in enumerate(TILE_SEGMENTS[o]):
                        need.setdefault((d, q + dq), []).append(
                            (first + dp, first + dp + len(row), len(tiles), side))
                    tiles.append((o, q, first, row, [None] * 3))
                first += len(row) + 1
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


def reconstruct(counts: Mapping[Anchor, int]) -> Runs:
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
    rows: RunRows = {}
    for d, q, first, row, _ in segs:
        rows.setdefault((d, q), []).append((first, bytes(row)))
    return Runs(rows, CODE_COLORS, NO_COLOR)

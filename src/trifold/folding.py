"""Folding sequences and the closed-form peak/valley pattern generator.

The color of a unit segment depends only on its layer k and on the
orientation of the layer triangle attached to it: with a_k the k-th
elementary folding, the segment is red (a valley) exactly when

    (layer triangle positive) XOR (k even) XOR (a_k is a folding down)

holds.  Working per segment makes the generator a pure function, so a
window of any shape can be produced directly; ``color_of_segment`` is
that one-segment form.

A window keeps its colors in a ``WindowColors`` store laid out by the
region's ``segment_rows``: per direction, one byte string per anchor
row q with the row's first p, a byte per segment (0 blue, 1 red, 2 no
color), read through the ``Mapping[Seg, Color]`` interface; the
region's ``side_rows`` pick out its boundary bytes.  ``patch`` and
``ball_patch`` paint the store a grid line at a time: ``through_lines``
lays the rows out one grid line per grid row, a line is one layer k,
and its colors repeat with period 2^k, so ``layer_kernel`` runs once
per line on one period of midpoints and the line is one tiled write.
Tile codes, interior rows and mismatches are whole-row byte
operations.  The unfolder and the substituter write the same rows
themselves, through ``through_lines`` and ``tile_codes``, and never
meet the paint rule.

A store is built one way: ``blank_rows`` or ``through_lines`` gives
rows to write, and ``freeze`` turns them, through a translate table if
one is given, into the region's ``PatternPatch``.  The painter, the
generators, the pattern reader and the transforms all end in it, and a
mapping given to ``PatternPatch`` is written into blank rows first.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from math import lcm
from typing import Callable, Optional

from .errors import IncompatibleSequences, OutOfRegion
from .lattice import (
    TILE_SEGMENTS,
    BallRegion,
    Region,
    Seg,
    TriRegion,
    layer_data,
    layer_kernel,
    line_position,
    standard_region,
    tile_rows,
    v2,
)

UP = "+"
DOWN = "-"


class Color(enum.Enum):
    RED = "red"    # valley
    BLUE = "blue"  # peak

    @property
    def swapped(self) -> "Color":
        return Color.BLUE if self is Color.RED else Color.RED


@dataclass(frozen=True)
class FoldingSequence:
    """A finite word, a periodic word, or a callback over {+, -}.

    ``a(k)`` is 1-indexed; finite sequences only answer inside their
    length.  Callbacks keep arbitrary sequences out of the file formats.
    """

    word: str = ""
    periodic: bool = False
    fn: Optional[Callable[[int], str]] = None

    def __post_init__(self):
        if self.fn is None:
            if not self.word:
                raise ValueError("empty folding sequence")
            if any(c not in (UP, DOWN) for c in self.word):
                raise ValueError(f"bad folding word {self.word!r}")

    @classmethod
    def parse(cls, text: str) -> "FoldingSequence":
        """``"+-+"`` is finite; ``"(+-)*"`` repeats forever."""
        text = text.strip()
        if text.startswith("(") and text.endswith(")*"):
            return cls(word=text[1:-2], periodic=True)
        return cls(word=text)

    def __str__(self) -> str:
        if self.fn is not None:
            return "<callback>"
        return f"({self.word})*" if self.periodic else self.word

    @property
    def finite(self) -> bool:
        return self.fn is None and not self.periodic

    def a(self, k: int) -> str:
        if k < 1:
            raise ValueError("fold indices are 1-based")
        if self.fn is not None:
            value = self.fn(k)
            if value not in (UP, DOWN):
                raise ValueError(f"callback returned {value!r}")
            return value
        if self.periodic:
            return self.word[(k - 1) % len(self.word)]
        if k > len(self.word):
            raise OutOfRegion(f"a_{k} undefined for finite sequence {self.word!r}")
        return self.word[k - 1]

    def defined_through(self, k: int) -> bool:
        return not self.finite or k <= len(self.word)


#: Store codes: a window keeps one byte per segment.
BLUE_CODE, RED_CODE, NO_COLOR = 0, 1, 2
CODE_COLORS = (Color.BLUE, Color.RED)
COLOR_CODES = {Color.BLUE: BLUE_CODE, Color.RED: RED_CODE}
#: bytes.translate tables: swap red and blue, or uncolor everything.
SWAP = bytes([RED_CODE, BLUE_CODE, *range(2, 256)])
UNCOLOR = bytes([NO_COLOR] * 256)

Rows = tuple[dict[int, tuple[int, bytes]], ...]


def combine(slices: Iterable[bytes], weights: Iterable[int], n: int) -> bytes:
    """Per position, the sum of weight * byte over equal-length slices of
    length n; every sum must stay below 256."""
    total = 0
    for part, weight in zip(slices, weights):
        total += weight * int.from_bytes(part, "big")
    return total.to_bytes(n, "big")


def _tile_sides(code: int) -> Optional[tuple[Color, Color, Color]]:
    digits = (code & 3, code >> 2 & 3, code >> 4 & 3)
    return None if max(digits) >= NO_COLOR else tuple(CODE_COLORS[c] for c in digits)


#: Side colors of a tile code c1 + 4 c2 + 16 c3 (by direction), or None
#: when a side has no color.
TILE_SIDES = tuple(_tile_sides(code) for code in range(64))


class WindowColors(Mapping):
    """The colors of a window, one byte per segment, as a read-only
    ``Mapping[Seg, Color]``.

    ``rows[d - 1]`` maps each anchor row q of the region, in increasing
    q, to (first, bytes): byte i is the code of Seg(d, first + i, q),
    BLUE_CODE, RED_CODE or NO_COLOR (an unknown boundary segment, or one
    left out).  The rows are the region's ``segment_rows``, so a segment
    of the window is always in the store and the mapping holds exactly
    its colored ones.  Stores are made by ``freeze``.
    """

    __slots__ = ("region", "rows")

    def __init__(self, region: Region, rows: Rows):
        self.region = region
        self.rows = rows

    def _code(self, seg) -> int:
        try:
            d, p, q = seg
            entry = self.rows[d - 1].get(q) if d in (1, 2, 3) else None
        except (TypeError, ValueError):
            return NO_COLOR
        if entry is None:
            return NO_COLOR
        first, row = entry
        return row[p - first] if 0 <= p - first < len(row) else NO_COLOR

    def __getitem__(self, seg) -> Color:
        code = self._code(seg)
        if code == NO_COLOR:
            raise KeyError(seg)
        return CODE_COLORS[code]

    def __len__(self) -> int:
        return sum(len(row) - row.count(NO_COLOR) for r in self.rows for _, row in r.values())

    def __iter__(self) -> Iterator[Seg]:
        return (seg for seg, _ in iter_colored(self.rows))

    def __repr__(self) -> str:
        return f"WindowColors({self.region!r}, {len(self)} colored)"

    def interior(self) -> Rows:
        """The rows with the region's boundary segments uncolored."""
        return self.on_sides(UNCOLOR)

    def on_sides(self, table: bytes) -> Rows:
        """The rows with every boundary byte passed through ``table``."""
        sides = self.region.side_rows()
        if not any(sides):
            return self.rows
        out = tuple(dict(rows) for rows in self.rows)
        for new, spans in zip(out, sides):
            for q, (lo, hi) in spans.items():
                first, row = new[q]
                i, j = lo - first, hi - first
                new[q] = (first, row[:i] + row[i:j].translate(table) + row[j:])
        return out

    def tile_codes(self) -> Iterator[tuple[int, int, int, bytes]]:
        """(orientation, q, first, codes) per row of unit tiles: byte i is
        c1 + 4 c2 + 16 c3 for the tile at p = first + i, c_d the code of
        its direction-d side (see TILE_SIDES)."""
        for o, q, first, stop in tile_rows(self.region.segment_rows()):
            n = stop - first
            parts = []
            for d, dp, dq in TILE_SEGMENTS[o]:
                f, row = self.rows[d - 1][q + dq]
                parts.append(row[first + dp - f:first + dp - f + n])
            yield o, q, first, combine(parts, (1, 4, 16), n)


def iter_colored(rows: Rows) -> Iterator[tuple[Seg, Color]]:
    """(segment, color) for every colored byte of the rows, in (d, q, p) order."""
    for d, by_q in enumerate(rows, start=1):
        for q, (first, row) in by_q.items():
            for i, code in enumerate(row):
                if code != NO_COLOR:
                    yield Seg(d, first + i, q), CODE_COLORS[code]


def blank_rows(region: Region,
               code: int = NO_COLOR) -> tuple[dict[int, tuple[int, bytearray]], ...]:
    """Store rows of the region (its ``segment_rows``) to write into,
    every byte ``code``."""
    fill = bytearray([code])
    return tuple({q: (first, fill * (stop - first)) for q, (first, stop) in extents.items()}
                 for extents in region.segment_rows())


def freeze(region: Region, rows: Iterable[dict[int, tuple[int, bytes]]],
           table: Optional[bytes] = None) -> "PatternPatch":
    """The patch of the region whose store is ``rows``, laid out as
    ``blank_rows`` lays them out, each row made bytes, through ``table``
    when one is given."""
    return PatternPatch(region, WindowColors(region, tuple(
        {q: (first, bytes(row if table is None else row.translate(table)))
         for q, (first, row) in by_q.items()}
        for by_q in rows)))


@dataclass(frozen=True)
class PatternPatch:
    """A window of segment colors.

    The boundary segments are the region's side lines (none for a
    ball).  They may carry a color (when derivable) but are excluded
    from all comparisons; ``colors`` holds every known segment,
    boundary included.  Any mapping given as ``colors`` is stored as
    the region's WindowColors, which every generator hands its colors
    to.
    """

    region: Region
    colors: Mapping[Seg, Color]

    def __post_init__(self):
        colors = self.colors
        if isinstance(colors, WindowColors) and colors.region == self.region:
            return
        rows = blank_rows(self.region)
        for seg, color in colors.items():
            d, p, q = seg
            entry = rows[d - 1].get(q) if d in (1, 2, 3) else None
            if entry is None or not 0 <= p - entry[0] < len(entry[1]):
                raise OutOfRegion(f"{seg} is not a segment of {self.region}")
            entry[1][p - entry[0]] = COLOR_CODES[color]
        object.__setattr__(self, "colors", freeze(self.region, rows).colors)

    def translate(self, a: int, b: int) -> "PatternPatch":
        if not isinstance(self.region, TriRegion):
            raise ValueError("only triangular patches translate")
        return freeze(self.region.translate(a, b),
                      [{q + b: (first + a, row) for q, (first, row) in r.items()}
                       for r in self.colors.rows])


def _layer_colors(seq: FoldingSequence, k: int) -> tuple[Color, Color]:
    """Colors of layer-k segments on (negative, positive) layer triangles."""
    if (k & 1) ^ (seq.a(k) == DOWN):
        return Color.BLUE, Color.RED
    return Color.RED, Color.BLUE


def color_of_segment(seq: FoldingSequence, seg: Seg) -> Color:
    """Closed-form color; finite sequences only answer inside their patch."""
    if seq.finite:
        region = standard_region(len(seq.word))
        if not region.contains_interior(seg):
            raise OutOfRegion(f"{seg} is not interior to the side-2^{len(seq.word)} patch")
    k, positive = layer_data(seg)
    return _layer_colors(seq, k)[positive]


def through_lines(region: Region, rows: Optional[Rows],
                  line_fn: Callable[[int, int, int, bytearray], Optional[bytes]]
                  ) -> list[dict[int, tuple[int, bytearray]]]:
    """The region's rows rebuilt one grid line at a time.

    A segment lies at position t on the line {f_d = v} (``line_position``);
    every line is one layer.  The segments are laid out one line per grid
    row, v stepping by dv = 3 (f_2) or -3 (f_1, f_3) from row to row,
    ``line_fn(d, v, t0, cells)`` returns the new bytes of the line
    (positions t0, t0 + 1, ...; None keeps them), and the rows are read
    back: a store row is an extended slice of the grid (step 1, width + 1
    or width).  ``rows`` None starts from NO_COLOR; cells off the window
    are never read back, and the rows come back unfrozen, for ``freeze``.
    """
    out = []
    for d, extents in enumerate(region.segment_rows(), start=1):
        dv = 3 if d == 2 else -3
        # (line, position) of each row's first segment, and of its last
        ends = {q: (line_position((d, first, q)), line_position((d, stop - 1, q)))
                for q, (first, stop) in extents.items()}
        corners = [end for pair in ends.values() for end in pair] or [(1, 0)]
        v0 = min((v for v, _ in corners), key=lambda v: v * dv)
        t0 = min(t for _, t in corners)
        width = max(t for _, t in corners) - t0 + 1
        step = (1, width + 1, width)[d - 1]
        grid = bytearray([NO_COLOR]) * ((max((v - v0) // dv for v, _ in corners) + 1) * width)
        cut = {}
        for q, (first, stop) in extents.items():
            (v, t), _ = ends[q]
            start = (v - v0) // dv * width + t - t0
            cut[q] = slice(start, start + step * (stop - first - 1) + 1, step)
        if rows is not None:
            for q, (_, row) in rows[d - 1].items():
                grid[cut[q]] = row
        for i in range(0, len(grid), width):
            cells = line_fn(d, v0 + dv * (i // width), t0, grid[i:i + width])
            if cells is not None:
                grid[i:i + width] = cells
        out.append({q: (first, grid[cut[q]]) for q, (first, _) in extents.items()})
    return out


def _paint(seq: FoldingSequence, region: Region) -> PatternPatch:
    """The closed form on every segment of the window, a line at a time.

    A line is one layer k, and its layer-triangle orientations repeat
    with period 2^k along it, so layer_kernel runs once per line on one
    period of midpoints and the period is tiled.  Layers the sequence
    does not define stay NO_COLOR.
    """
    palette: dict[int, Optional[bytes]] = {}

    def paint(d: int, v: int, t0: int, cells: bytearray) -> Optional[bytes]:
        k = v2(v) + 1
        if k not in palette:
            palette[k] = (bytes(COLOR_CODES[c] for c in _layer_colors(seq, k))
                          if seq.defined_through(k) else None)
        codes = palette[k]
        if codes is None:
            return None
        n = len(cells)
        period, m = min(1 << k, n), -1 - 6 * t0
        _, positive = layer_kernel(d, v, range(m, m - 6 * period, -6))
        return (bytes(codes[b] for b in positive) * (n // period + 1))[:n]

    return freeze(region, through_lines(region, None, paint))


def patch(seq: FoldingSequence, k: int) -> PatternPatch:
    """Pattern inside the side-2^k triangle centered at O.

    Interior segments are always colored; the boundary (layer k+1) is
    colored too when a_{k+1} is defined, and stays flagged either way.
    """
    if not seq.defined_through(k):
        raise OutOfRegion(f"need {k} folds, sequence has {len(seq.word)}")
    return _paint(seq, standard_region(k))


def ball_patch(seq: FoldingSequence, radius: int) -> PatternPatch:
    """Pattern on the radius-R ball at O (all segments colorable)."""
    region = BallRegion(radius)
    if seq.finite:  # the shell is convex: each row's end segments decide
        shell = standard_region(len(seq.word))
        for d, extents in enumerate(region.segment_rows(), start=1):
            for q, (first, stop) in extents.items():
                if not (shell.contains_interior(Seg(d, first, q))
                        and shell.contains_interior(Seg(d, stop - 1, q))):
                    raise OutOfRegion(
                        f"radius-{radius} ball exceeds the side-2^{len(seq.word)} patch")
    return _paint(seq, region)


def recolor(p: PatternPatch, seq: FoldingSequence, to: FoldingSequence) -> PatternPatch:
    """Re-target a patch generated by ``seq`` onto the sequence ``to``.

    Flips the color of every segment whose layer index carries a
    different fold in the two sequences.  Periodic sequences that are
    not equal as infinite words differ in infinitely many positions
    and are rejected.
    """
    if seq.periodic and to.periodic:
        period = lcm(len(seq.word), len(to.word))
        if any(seq.a(k) != to.a(k) for k in range(1, period + 1)):
            raise IncompatibleSequences(
                f"{seq} and {to} differ in infinitely many folds")
    def retarget(d: int, v: int, t0: int, cells: bytearray) -> Optional[bytes]:
        if cells.count(NO_COLOR) == len(cells):
            return None
        k = v2(v) + 1
        if not to.defined_through(k):
            return cells.translate(UNCOLOR)
        if not seq.defined_through(k):
            raise OutOfRegion(f"layer {k} exceeds source sequence {seq}")
        return cells.translate(SWAP) if seq.a(k) != to.a(k) else None

    return freeze(p.region, through_lines(p.region, p.colors.rows, retarget))


def interior_mismatches(a: PatternPatch, b: PatternPatch) -> list[Seg]:
    """Segments colored in both interiors that disagree, plus any
    segment interior-colored in exactly one of the two patches."""
    bad = []
    for d, (left, right) in enumerate(zip(a.colors.interior(), b.colors.interior()), start=1):
        for q in left.keys() | right.keys():
            x, y = left.get(q), right.get(q)
            if x == y:
                continue
            x, y = x or (0, b""), y or (0, b"")
            for p in range(min(x[0], y[0]), max(x[0] + len(x[1]), y[0] + len(y[1]))):
                i, j = p - x[0], p - y[0]
                cx = x[1][i] if 0 <= i < len(x[1]) else NO_COLOR
                cy = y[1][j] if 0 <= j < len(y[1]) else NO_COLOR
                if cx != cy:
                    bad.append(Seg(d, p, q))
    return sorted(bad)

"""Folding sequences and the closed-form peak/valley pattern generator.

The color of a unit segment depends only on its layer k and on the
orientation of the layer triangle attached to it: with a_k the k-th
elementary folding, the segment is red (a valley) exactly when

    (layer triangle positive) XOR (k even) XOR (a_k is a folding down)

holds.  Working per segment makes the generator a pure function, so a
window of any shape can be produced directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import lcm
from typing import Callable, Iterable, Optional

from .errors import IncompatibleSequences, OutOfRegion
from .lattice import (
    BallRegion,
    Region,
    Seg,
    Triangle,
    TriRegion,
    layer_data,
    layer_kernel,
    layer_of,
    standard_region,
    unit_tile_segments,
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


@dataclass(frozen=True)
class PatternPatch:
    """A window of segment colors.

    The boundary segments are the region's side lines (none for a
    ball).  They may carry a color (when derivable) but are excluded
    from all comparisons; ``colors`` holds every known segment,
    boundary included.
    """

    region: Region
    colors: dict[Seg, Color]

    @cached_property
    def boundary(self) -> frozenset[Seg]:
        return frozenset(self.region.iter_boundary_segments())

    def interior_items(self) -> Iterable[tuple[Seg, Color]]:
        bnd = self.boundary
        return ((s, c) for s, c in self.colors.items() if s not in bnd)

    def interior_colors(self) -> dict[Seg, Color]:
        return dict(self.interior_items())

    def color(self, seg: Seg) -> Optional[Color]:
        return self.colors.get(seg)

    def translate(self, a: int, b: int) -> "PatternPatch":
        if not isinstance(self.region, TriRegion):
            raise ValueError("only triangular patches translate")
        region = TriRegion(*Triangle(*self.region).translate(a, b))
        colors = {s.translate(a, b): c for s, c in self.colors.items()}
        return PatternPatch(region, colors)

    def full_tiles(self):
        """(triangle, side colors) for tiles with all three sides known."""
        get = self.colors.get
        for o, p, q in self.region.iter_tile_anchors():
            s1, s2, s3 = unit_tile_segments(o, p, q)
            c1 = get(s1)
            if c1 is None:
                continue
            c2 = get(s2)
            if c2 is None:
                continue
            c3 = get(s3)
            if c3 is None:
                continue
            yield Triangle.unit_from_anchor(o, p, q), (c1, c2, c3)


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


def _paint(seq: FoldingSequence,
           lines: Iterable[tuple[int, int, list[Seg], range]]) -> dict[Seg, Color]:
    """Colors of the segments on (d, v, segments, mids) lines."""
    palette: dict[int, tuple[Color, Color]] = {}
    colors: dict[Seg, Color] = {}
    for d, v, segs, mids in lines:
        k, positive = layer_kernel(d, v, mids)
        pair = palette.get(k)
        if pair is None:
            pair = palette[k] = _layer_colors(seq, k)
        colors.update(zip(segs, map(pair.__getitem__, positive)))
    return colors


def patch(seq: FoldingSequence, k: int) -> PatternPatch:
    """Pattern inside the side-2^k triangle centered at O.

    Interior segments are always colored, one grid line at a time; the
    boundary (layer k+1) is colored too when a_{k+1} is defined, and
    stays flagged either way.
    """
    if not seq.defined_through(k):
        raise OutOfRegion(f"need {k} folds, sequence has {len(seq.word)}")
    region = standard_region(k)
    lines = region.iter_interior_lines()
    if seq.defined_through(k + 1):
        lines = chain(lines, region.iter_boundary_lines())
    return PatternPatch(region, _paint(seq, lines))


def ball_patch(seq: FoldingSequence, radius: int) -> PatternPatch:
    """Pattern on the radius-R ball at O (all segments colorable)."""
    region = BallRegion(radius)
    lines = list(region.iter_interior_lines())
    if seq.finite:  # the shell is convex: each line's end segments decide
        shell = standard_region(len(seq.word))
        if not all(shell.contains_interior(segs[0]) and shell.contains_interior(segs[-1])
                   for _, _, segs, _ in lines):
            raise OutOfRegion(
                f"radius-{radius} ball exceeds the side-2^{len(seq.word)} patch")
    return PatternPatch(region, _paint(seq, lines))


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
    colors = {}
    for seg, col in p.colors.items():
        k = layer_of(seg)
        if not to.defined_through(k):
            continue
        if not seq.defined_through(k):
            raise OutOfRegion(f"layer {k} exceeds source sequence {seq}")
        colors[seg] = col if seq.a(k) == to.a(k) else col.swapped
    return PatternPatch(p.region, colors)


def interior_mismatches(a: PatternPatch, b: PatternPatch) -> list[Seg]:
    """Segments colored in both interiors that disagree, plus any
    segment interior-colored in exactly one of the two patches."""
    left = a.interior_colors()
    right = b.interior_colors()
    bad = [s for s, c in left.items() if s in right and right[s] is not c]
    bad.extend(s for s in left.keys() ^ right.keys())
    return sorted(bad)

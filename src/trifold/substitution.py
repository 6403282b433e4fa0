"""Tile-local substitution rules, patch inflation and count matrices.

A rule sends a colored unit triangle to the four tiles of its doubled
copy: the image keeps the orientation, every full side carries the
swapped color of the matching side, the medial tile is monochrome (the
"+" rule paints positive medials red and negative ones blue, the "-"
rule the opposite), and each corner tile takes the two swapped colors
of its adjacent sides plus the medial color.

Patch inflation realizes the same rule on the grid.  Doubling about a
lattice vertex keeps all line values congruent to 1 mod 3, so patches
are inflated about one corner of their window and, once the total
number of steps is known, translated onto the centered side-2^k
window; the translation exists exactly when the seed orientation
matches the parity of the step count (positive for even, negative for
odd): composing the rules last-to-first from such a seed reproduces
the folding pattern of the word on all interior segments.

Inflation stays tile-local on the ``WindowColors`` rows: each tile's
6-bit side code (``WindowColors.tile_codes``) picks its 12 child-side
writes from a table built once per rule and orientation from
``apply_rule_tile`` and the children's anchors, a constant offset table
per orientation whose sides come from ``lattice.unit_tile_segments``;
every write is checked against the byte already there.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .errors import OrientationMismatch, SeamConflict
from .folding import (
    CODE_COLORS,
    COLOR_CODES,
    NO_COLOR,
    TILE_SIDES,
    Color,
    PatternPatch,
    WindowColors,
)
from .lattice import NEGATIVE, POSITIVE, Seg, TriRegion, standard_region, unit_tile_segments
from .spectral import Mat

RULES = ("+", "-")


class TriangleColoring(NamedTuple):
    """Orientation plus side colors indexed by direction slot."""

    orientation: int
    colors: tuple[Color, Color, Color]

    @property
    def red_count(self) -> int:
        return sum(c is Color.RED for c in self.colors)


def class_index(orientation: int, red_count: int) -> int:
    """0-based index in the fixed matrix order: positive triangles by
    decreasing red count, then negative by increasing red count."""
    if not 0 <= red_count <= 3:
        raise ValueError("red count must be 0..3")
    return 3 - red_count if orientation == POSITIVE else 4 + red_count


def classify(tc: TriangleColoring) -> int:
    return class_index(tc.orientation, tc.red_count)


def class_representative(index: int) -> TriangleColoring:
    if not 0 <= index < 8:
        raise ValueError("class index must be 0..7")
    orientation = POSITIVE if index < 4 else NEGATIVE
    red = 3 - index if index < 4 else index - 4
    colors = tuple(Color.RED if i < red else Color.BLUE for i in range(3))
    return TriangleColoring(orientation, colors)


def medial_color(rule: str, orientation: int) -> Color:
    """Color of a freshly inserted medial triangle of the given
    orientation (the new finest layer of the pattern)."""
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}")
    return Color.RED if (rule == "+") == (orientation == POSITIVE) else Color.BLUE


def apply_rule_tile(rule: str, tc: TriangleColoring) -> tuple[TriangleColoring, ...]:
    """The four tiles of the doubled image: (medial, corner_1..3).

    Corner d sits opposite side d of the image; its side in direction d
    is shared with the medial.
    """
    mu = medial_color(rule, -tc.orientation)
    medial = TriangleColoring(-tc.orientation, (mu, mu, mu))
    corners = []
    for d in (1, 2, 3):
        cols = tuple(mu if e == d else tc.colors[e - 1].swapped
                     for e in (1, 2, 3))
        corners.append(TriangleColoring(tc.orientation, cols))
    return (medial, *corners)


def substitution_matrix(word: str) -> Mat:
    """Count matrix recomputed from the geometric rules (not the printed
    constants): entry (i, j) counts class-i tiles in the image of a
    class-j tile, with word products multiplied left to right."""
    if not word or any(c not in RULES for c in word):
        raise ValueError(f"bad rule word {word!r}")
    out = None
    for rule in word:
        cols = []
        for j in range(8):
            counts = [0] * 8
            for child in apply_rule_tile(rule, class_representative(j)):
                counts[classify(child)] += 1
            cols.append(counts)
        m = Mat(list(zip(*cols)))
        out = m if out is None else out * m
    return out


# -- patch-level inflation -------------------------------------------------

def _corner_functionals(region: TriRegion) -> tuple[int, int, int]:
    # the vertex where the direction-1 and direction-3 side lines meet
    return (region.w1, -region.w1 - region.w3, region.w3)


#: The four children of the unit tile at (p, q) doubled about the vertex
#: (0, 0), per orientation: the medial child, then corner d, which shares
#: side d with it, as (orientation, dp, dq) offsets from (2p, 2q).
_CHILDREN = {POSITIVE: ((NEGATIVE, 0, 1), (POSITIVE, 0, 1), (POSITIVE, 0, 0), (POSITIVE, 1, 0)),
            NEGATIVE: ((POSITIVE, 1, -1), (NEGATIVE, 1, -1), (NEGATIVE, 1, 0), (NEGATIVE, 0, 0))}


@cache
def _child_writes(rule: str, orientation: int) -> tuple:
    """Per tile code c1 + 4 c2 + 16 c3 (see folding.TILE_SIDES), the 12
    (d, dp, dq, code) writes of the tile's four children: Seg(d, 2p + dp,
    2q + dq) gets ``code`` when the tile at (p, q) is inflated about the
    vertex (0, 0).  None for a code with an uncolored side."""
    child_sides = [unit_tile_segments(*child) for child in _CHILDREN[orientation]]
    table = []
    for sides in TILE_SIDES:
        if sides is None:
            table.append(None)
            continue
        images = apply_rule_tile(rule, TriangleColoring(orientation, sides))
        table.append(tuple((seg.d, seg.p, seg.q, COLOR_CODES[color])
                           for segs, image in zip(child_sides, images)
                           for seg, color in zip(segs, image.colors)))
    return tuple(table)


def apply_rule_patch(rule: str, patch: PatternPatch) -> PatternPatch:
    """Inflate a fully colored triangular patch by one rule application.

    Every unit tile is replaced by its four children, written from a
    table of its tile code; shared segments are written from both
    adjacent tiles and must agree, otherwise SeamConflict reports a rule
    bug.
    """
    region = patch.region
    if not isinstance(region, TriRegion):
        raise OrientationMismatch("substitution needs a triangular patch")
    anchor = _corner_functionals(region)
    new_region = TriRegion(2 * region.w1 - anchor[0],
                           2 * region.w2 - anchor[1],
                           2 * region.w3 - anchor[2])
    # the inflation vertex (pa, qa) moves the children by (-pa, -qa)
    pa, qa = (1 - anchor[2]) // 3, (1 - anchor[0]) // 3
    out = tuple({q: (first, bytearray([NO_COLOR]) * (stop - first))
                 for q, (first, stop) in extents.items()}
                for extents in new_region.segment_rows())
    for o, q, first, codes in patch.colors.tile_codes():
        table = _child_writes(rule, o)
        for i, code in enumerate(codes):
            writes = table[code]
            if writes is None:
                raise ValueError("patch is not fully colored (boundary sides included)")
            p2, q2 = 2 * (first + i) - pa, 2 * q - qa
            for d, dp, dq, color in writes:
                start, row = out[d - 1][q2 + dq]
                j = p2 + dp - start
                prev = row[j]
                if prev != color:
                    if prev != NO_COLOR:
                        seg = Seg(d, p2 + dp, q2 + dq)
                        raise SeamConflict(f"{seg}: {CODE_COLORS[prev].value} vs "
                                           f"{CODE_COLORS[color].value}")
                    row[j] = color
    rows = tuple({q: (first, bytes(row)) for q, (first, row) in r.items()} for r in out)
    return PatternPatch(new_region, WindowColors(new_region, rows))


def seed_patch(seed: TriangleColoring) -> PatternPatch:
    """A single placed seed tile: positive seeds sit on the central unit
    triangle, negative ones on the unit triangle below its base."""
    region = TriRegion(1, 1, 1) if seed.orientation == POSITIVE else TriRegion(1, -2, -2)
    sides = unit_tile_segments(seed.orientation, 0, 0)
    return PatternPatch(region, dict(zip(sides, seed.colors)))


def recenter(patch: PatternPatch) -> PatternPatch:
    """Translate a side-2^k patch onto the centered pattern window.

    Possible exactly when the patch orientation equals that of the
    centered window (positive iff k even); otherwise no lattice
    translation exists and the call raises OrientationMismatch.
    """
    region = patch.region
    if not isinstance(region, TriRegion):
        raise OrientationMismatch("only triangular patches recenter")
    side = region.side
    k = side.bit_length() - 1
    target = standard_region(k)
    if side != 1 << k or region.orientation != target.orientation:
        raise OrientationMismatch(
            f"side-{side} patch of orientation {region.orientation} "
            "does not fit a centered window")
    b = -(target.w1 - region.w1) // 3
    a = -(target.w3 - region.w3) // 3
    return patch.translate(a, b)


def compose(word: str, n: int, seed: TriangleColoring) -> PatternPatch:
    """(F_{a_1} o ... o F_{a_k})^n applied to the seed, recentered.

    F_{a_k} acts first.  The seed must be positive when k*n is even and
    negative when odd, else no centered placement exists; its colors
    land on the outermost boundary only, swapped once per step.
    """
    if any(c not in RULES for c in word):
        raise ValueError(f"bad rule word {word!r}")
    total = len(word) * n
    required = POSITIVE if total % 2 == 0 else NEGATIVE
    if seed.orientation != required:
        raise OrientationMismatch(
            f"{total} steps need a {'positive' if required > 0 else 'negative'} seed")
    patch = seed_patch(seed)
    for _ in range(n):
        for rule in reversed(word):
            patch = apply_rule_patch(rule, patch)
    return recenter(patch)


ALL_RED_POSITIVE = TriangleColoring(POSITIVE, (Color.RED,) * 3)
ALL_RED_NEGATIVE = TriangleColoring(NEGATIVE, (Color.RED,) * 3)


def folding_seed(total_steps: int) -> TriangleColoring:
    """The all-red seed of matching orientation: composing this many
    rule steps from it reproduces the folding pattern."""
    return ALL_RED_POSITIVE if total_steps % 2 == 0 else ALL_RED_NEGATIVE

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
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import OrientationMismatch, SeamConflict
from .folding import Color, PatternPatch
from .lattice import NEGATIVE, POSITIVE, Seg, TriRegion, Triangle, standard_region
from .spectral import Mat

CLASS_NAMES = ("P-RRR", "P-RRB", "P-RBB", "P-BBB",
               "N-BBB", "N-RBB", "N-RRB", "N-RRR")

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


def _placed_children(rule: str, tri: Triangle, cols, anchor
                     ) -> Iterator[tuple[Triangle, tuple[Color, Color, Color]]]:
    o = tri.orientation
    x = (2 * tri.v1 - anchor[0], 2 * tri.v2 - anchor[1], 2 * tri.v3 - anchor[2])
    adj = -3 * o
    mu = medial_color(rule, -o)
    yield Triangle(x[0] + adj, x[1] + adj, x[2] + adj), (mu, mu, mu)
    for d in (1, 2, 3):
        vals = list(x)
        vals[d - 1] += adj
        child_cols = tuple(mu if e == d else cols[e - 1].swapped
                           for e in (1, 2, 3))
        yield Triangle(*vals), child_cols


def apply_rule_patch(rule: str, patch: PatternPatch) -> PatternPatch:
    """Inflate a fully colored triangular patch by one rule application.

    Every unit tile is replaced by its four children; shared segments
    are written from both adjacent tiles and must agree, otherwise
    SeamConflict reports a rule bug.
    """
    region = patch.region
    if not isinstance(region, TriRegion):
        raise OrientationMismatch("substitution needs a triangular patch")
    anchor = _corner_functionals(region)
    tiles = list(patch.full_tiles())
    if len(tiles) != region.side * region.side:
        raise ValueError("patch is not fully colored (boundary sides included)")

    out: dict[Seg, Color] = {}
    for tri, cols in tiles:
        for child, child_cols in _placed_children(rule, tri, cols, anchor):
            for seg, col in zip(child.side_segments(), child_cols):
                prev = out.get(seg)
                if prev is None:
                    out[seg] = col
                elif prev is not col:
                    raise SeamConflict(f"{seg}: {prev.value} vs {col.value}")

    new_region = TriRegion(2 * region.w1 - anchor[0],
                           2 * region.w2 - anchor[1],
                           2 * region.w3 - anchor[2])
    return PatternPatch(new_region, out)


def seed_patch(seed: TriangleColoring) -> PatternPatch:
    """A single placed seed tile: positive seeds sit on the central unit
    triangle, negative ones on the unit triangle below its base."""
    if seed.orientation == POSITIVE:
        tri = Triangle(1, 1, 1)
    else:
        tri = Triangle(1, -2, -2)
    return PatternPatch(TriRegion(*tri), dict(zip(tri.side_segments(), seed.colors)))


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
ALL_BLUE_POSITIVE = TriangleColoring(POSITIVE, (Color.BLUE,) * 3)


def folding_seed(total_steps: int) -> TriangleColoring:
    """The all-red seed of matching orientation: composing this many
    rule steps from it reproduces the folding pattern."""
    return ALL_RED_POSITIVE if total_steps % 2 == 0 else ALL_RED_NEGATIVE

"""Ground-truth pattern construction by explicit repeated unfolding.

Each step opens the three flaps of the current side-2^m patch: the
central pattern stays, every flap receives the mirror image of the
central creases with peaks and valleys exchanged, and the three fold
lines themselves become new creases.  Mixed foldings choose the
halfspace per flap, so each midsegment crease is colored from its own
flap direction while the mirrored contents swap color regardless.

A step copies the ``WindowColors`` rows a grid line at a time
(``folding.through_lines``; see ``unfold_once``) and never evaluates
the closed-form layer rule.  A mirror is affine, so it sends every line
of one direction to lines of one direction, and positions along them by
one affine map: the step fits that map once per line direction and
mirror from three ``lattice.reflect_segment`` images
(``_fit_mirror_map``), and places each line's mirrored bytes with
integer arithmetic alone.
"""

from __future__ import annotations

from typing import Optional

from .errors import OrientationMismatch
from .folding import (
    BLUE_CODE,
    DOWN,
    NO_COLOR,
    RED_CODE,
    SWAP,
    UP,
    PatternPatch,
    freeze,
    through_lines,
)
from .lattice import Line, TriRegion, line_position, reflect_segment, segment_at, standard_region

_NONE = bytes([NO_COLOR])

#: One direction per midsegment flap; entry i controls the crease on the
#: direction-(i+1) side of the patch being unfolded.
MixedFold = tuple[str, str, str]


def uniform(direction: str) -> MixedFold:
    if direction not in (UP, DOWN):
        raise ValueError(f"bad fold direction {direction!r}")
    return (direction, direction, direction)


def parse_mixed_word(text: str) -> list[MixedFold]:
    """Comma-separated triples, e.g. ``"++-,+++"``; ``a_1`` comes first."""
    folds = []
    for chunk in text.strip().split(","):
        if len(chunk) != 3 or any(c not in (UP, DOWN) for c in chunk):
            raise ValueError(f"bad mixed fold {chunk!r}")
        folds.append((chunk[0], chunk[1], chunk[2]))
    return folds


def uniform_word(word: str) -> list[MixedFold]:
    return [uniform(c) for c in word]


def _patch_exponent(region) -> int:
    if isinstance(region, TriRegion):
        side = region.side
        k = side.bit_length() - 1
        if side == 1 << k and region == standard_region(k):
            return k
    raise OrientationMismatch(f"{region} is not a centered side-2^m patch")


def _fit_mirror_map(d: int, mirror: Line) -> tuple[int, int, int, int, int, int]:
    """(e, a, b, g, h, i): the mirror sends position t of the grid line
    {f_d = 3n + 1} to position g n + h t + i (h = +-1) of the line
    {f_e = a (3n + 1) + b}.  Read off the images of positions 0 and 1 on
    the line n = 0 and of position 0 on n = 1."""
    images = [reflect_segment(segment_at(d, v, t), mirror) for v, t in ((1, 0), (1, 1), (4, 0))]
    (w0, c0), (_, c1), (w1, c2) = map(line_position, images)
    a = (w1 - w0) // 3
    return images[0].d, a, w0 - a, c2 - c0, c1 - c0, c0


def unfold_once(patch: PatternPatch, fold: MixedFold) -> PatternPatch:
    """Open one elementary (possibly mixed) folding: side 2^m -> 2^(m+1).

    The patch is the medial triangle of the big one, and its side lines
    {f_d = (-2)^m} are the mirrors.  A mirror maps position t of a line
    to c + h t (h = +-1) on the image line, so each interior line of the
    patch is written four times: as it is, and color-swapped onto its
    image under each mirror, reversed where h = -1.  Inside the big
    window a mirror line is exactly the old side, the crease of its flap.
    """
    m = _patch_exponent(patch.region)
    big = standard_region(m + 1)
    mid_value = (-2) ** m
    mirrors = [Line(d, mid_value) for d in (1, 2, 3)]
    maps = [[_fit_mirror_map(d, line) for line in mirrors] for d in (1, 2, 3)]
    creases = [bytes([RED_CODE if f == UP else BLUE_CODE]) for f in fold]
    writes: dict[tuple[int, int], list[tuple[int, bytes]]] = {}

    def mirror(d: int, v: int, t0: int, cells: bytearray) -> None:
        lo, hi = len(cells) - len(cells.lstrip(_NONE)), len(cells.rstrip(_NONE))
        if lo >= hi:
            return
        start, body = t0 + lo, bytes(cells[lo:hi])
        writes.setdefault((d, v), []).append((start, body))
        swapped = body.translate(SWAP)
        n = (v - 1) // 3
        for e, a, b, g, h, i in maps[d - 1]:
            c = g * n + h * start + i
            part = (c, swapped) if h > 0 else (c - len(body) + 1, swapped[::-1])
            writes.setdefault((e, a * v + b), []).append(part)

    def emit(d: int, v: int, t0: int, cells: bytearray) -> Optional[bytearray]:
        if v == mid_value:
            return bytearray(creases[d - 1] * len(cells))
        parts = writes.get((d, v))
        if parts is None:
            return None
        for start, body in parts:
            cells[start - t0:start - t0 + len(body)] = body
        return cells

    through_lines(patch.region, patch.colors.interior(), mirror)
    return freeze(big, through_lines(big, None, emit))


def unfold_pattern(folds: list[MixedFold]) -> PatternPatch:
    """Unfold a_1 first, then a_2, ...; returns the side-2^k patch."""
    patch = PatternPatch(standard_region(0), {})
    for fold in folds:
        patch = unfold_once(patch, fold)
    return patch

"""Ground-truth pattern construction by explicit repeated unfolding.

Each step opens the three flaps of the current side-2^m patch: the
central pattern stays, every flap receives the mirror image of the
central creases with peaks and valleys exchanged, and the three fold
lines themselves become new creases.  Mixed foldings choose the
halfspace per flap, so each midsegment crease is colored from its own
flap direction while the mirrored contents swap color regardless.
"""

from __future__ import annotations

from .errors import OrientationMismatch
from .folding import DOWN, UP, Color, PatternPatch
from .lattice import Line, TriRegion, reflect_segment, standard_region

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


def unfold_once(patch: PatternPatch, fold: MixedFold) -> PatternPatch:
    """Open one elementary (possibly mixed) folding: side 2^m -> 2^(m+1)."""
    m = _patch_exponent(patch.region)
    big = standard_region(m + 1)
    mid_value = (-2) ** m

    colors = dict(patch.interior_items())
    for seg in patch.region.iter_boundary_segments():
        colors[seg] = Color.RED if fold[seg.d - 1] == UP else Color.BLUE

    # Mirror the central contents (creases included) into each flap;
    # images landing on the new outer boundary are not creases.
    snapshot = list(colors.items())
    for d in (1, 2, 3):
        mirror = Line(d, mid_value)
        for seg, col in snapshot:
            image = reflect_segment(seg, mirror)
            if image != seg and big.contains_interior(image):
                colors[image] = col.swapped
    return PatternPatch(big, colors)


def unfold_pattern(folds: list[MixedFold]) -> PatternPatch:
    """Unfold a_1 first, then a_2, ...; returns the side-2^k patch."""
    patch = PatternPatch(standard_region(0), {})
    for fold in folds:
        patch = unfold_once(patch, fold)
    return patch

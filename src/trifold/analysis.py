"""Property measurements on generated pattern windows.

All statistics exclude flagged boundary data; frequencies are exact
rationals.  Star words are read counterclockwise from the rightward
segment and compared up to rotation by multiples of 2*pi/3, i.e.
cyclic shifts by two positions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import WindowTooSmall
from .folding import Color, PatternPatch
from .lattice import Seg, incident_segments, layer_of, line_of, v2
from .substitution import class_index
from .tiling import decorate

RED = Color.RED


def star_class(star: str) -> str:
    """Canonical representative under shifts by two positions."""
    return min(star[i:] + star[:i] for i in (0, 2, 4))


def star_allowed(star: str) -> bool:
    """Exactly two adjacent segments of one color, four of the other."""
    reds = star.count("r")
    if reds not in (2, 4):
        return False
    minority = "r" if reds == 2 else "b"
    idx = [i for i, c in enumerate(star) if c == minority]
    return (idx[1] - idx[0]) % 6 in (1, 5)


def vertex_star_histogram(patch: PatternPatch) -> dict[str, int]:
    """Star classes over vertices whose six segments are all interior."""
    interior = patch.interior_colors()
    seen = set()
    hist: dict[str, int] = {}
    for seg in interior:
        for vert in seg.endpoints():
            if vert in seen:
                continue
            seen.add(vert)
            cols = [interior.get(s) for s in incident_segments(vert)]
            if None in cols:
                continue
            star = "".join("r" if c is RED else "b" for c in cols)
            key = star_class(star)
            hist[key] = hist.get(key, 0) + 1
    return hist


def disallowed_stars(patch: PatternPatch) -> dict[str, int]:
    return {s: n for s, n in vertex_star_histogram(patch).items()
            if not star_allowed(s)}


def decorated_type_counts(patch: PatternPatch) -> dict[tuple[int, int, Optional[int]], int]:
    """Counts per translation type (orientation, red count, decoration
    slot) over fully colored tiles; 16 types in all, 12 of them
    decorated."""
    out: dict[tuple[int, int, Optional[int]], int] = {}
    for tri, cols in patch.full_tiles():
        key = (tri.orientation, *decorate(cols))
        out[key] = out.get(key, 0) + 1
    return out


def tile_class_counts(patch: PatternPatch) -> tuple[int, ...]:
    """Tile counts per rotation class, over fully colored tiles."""
    counts = [0] * 8
    for (o, reds, _), n in decorated_type_counts(patch).items():
        counts[class_index(o, reds)] += n
    return tuple(counts)


def empirical_densities(patch: PatternPatch) -> tuple[Fraction, ...]:
    """Exact per-class frequencies among fully colored tiles."""
    counts = tile_class_counts(patch)
    total = sum(counts)
    if total == 0:
        raise WindowTooSmall("no fully colored tiles in window")
    return tuple(Fraction(c, total) for c in counts)


def period_check(patch: PatternPatch, max_norm: int) -> list[tuple[int, int]]:
    """Nonzero grid translations of length <= max_norm under which the
    window coloring agrees with itself on the overlap."""
    if max_norm < 1:
        raise ValueError("max_norm must be positive")
    if not patch.region.contains_ball_of_radius(2 * max_norm):
        raise WindowTooSmall(
            f"window cannot certify periods up to norm {max_norm}")
    interior = patch.interior_colors()
    survivors = []
    limit = max_norm * max_norm
    for a in range(-max_norm, max_norm + 1):
        for b in range(-max_norm, max_norm + 1):
            if (a, b) == (0, 0) or a * a + a * b + b * b > limit:
                continue
            ok = True
            for seg, col in interior.items():
                other = interior.get(seg.translate(a, b))
                if other is not None and other is not col:
                    ok = False
                    break
            if ok:
                survivors.append((a, b))
    return sorted(survivors)


def filter_layer(patch: PatternPatch, k: int) -> PatternPatch:
    """Restrict the window coloring to layer-k segments."""
    colors = {s: c for s, c in patch.colors.items()
              if layer_of(s) == k}
    return PatternPatch(patch.region, colors)


def layer_block_check(patch: PatternPatch, k: int) -> bool:
    """True iff every layer-k line in the window alternates in
    monochrome blocks of exactly 2^(k-1) unit segments.

    Adjacent segments share a vertex; the block boundary falls exactly
    where another layer-k line passes through that vertex.
    """
    if not patch.region.contains_ball_of_radius(2 << k):
        raise WindowTooSmall(f"window too small for layer-{k} blocks")
    interior = patch.interior_colors()
    by_line: dict[tuple[int, int], dict[int, Seg]] = {}
    for seg in interior:
        line = line_of(seg)
        if v2(line.v) != k - 1:
            continue
        pos = seg.p if seg.d != 3 else seg.q
        by_line.setdefault(line, {})[pos] = seg
    for line, segs in by_line.items():
        for pos, seg in segs.items():
            nxt = segs.get(pos + 1)
            if nxt is None:
                continue
            f = seg.endpoints()[1].functionals()  # the shared vertex
            boundary = any(v2(f[j]) == k - 1 for j in range(3)
                           if j != line.d - 1)
            same = interior[seg] is interior[nxt]
            if same == boundary:
                return False
    return True



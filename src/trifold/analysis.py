"""Property measurements on generated pattern windows.

All statistics exclude flagged boundary data and are exact counts.
Star words are read counterclockwise from the rightward segment and
compared up to rotation by multiples of 2*pi/3, i.e. cyclic shifts by
two positions.

The measurements work on the window store's rows: a vertex star is a
6-bit code from six shifted rows, a tile a byte code from its three
side rows, both counted with ``bytes.count`` and mapped through a table;
a translation is a compare of each row with its shifted partner, and a
layer is a set of whole grid lines.
"""

from __future__ import annotations

from typing import Optional

from .errors import WindowTooSmall
from .folding import (
    NO_COLOR,
    UNCOLOR,
    PatternPatch,
    combine,
    freeze,
    through_lines,
)
from .lattice import NEGATIVE, POSITIVE, SPOKES, v2
from .substitution import class_index
from .tiling import DECORATIONS


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


def _star_text(code: int) -> str:
    return "".join("r" if code >> (5 - i) & 1 else "b" for i in range(6))


#: Star class of a 6-bit vertex code, first spoke (east) most significant.
STAR_CLASSES = tuple(star_class(_star_text(code)) for code in range(64))
_IS_UNCOLORED = bytes(c == NO_COLOR for c in range(256))
_NONZERO_TO_64 = bytes([0] + [64] * 255)


def vertex_star_histogram(patch: PatternPatch) -> dict[str, int]:
    """Star classes over vertices whose six segments are all interior.

    The six spokes of the vertices on row q, counterclockwise from east
    (lattice.SPOKES), are six shifted slices of the rows.  They combine
    into one 6-bit code per vertex; a vertex with an uncolored spoke gets
    a code of 64 or more and is not counted.
    """
    interior = patch.colors.interior()
    found = []
    for q in interior[0]:
        rows = [(interior[d - 1].get(q + dq), dp) for d, dp, dq in SPOKES]
        if any(row is None for row, _ in rows):
            continue
        lo = max(first - dp for (first, _), dp in rows)
        hi = min(first + len(row) - dp for (first, row), dp in rows)
        if lo >= hi:
            continue
        parts = [row[lo + dp - first:hi + dp - first] for (first, row), dp in rows]
        n = hi - lo
        codes = combine(parts, (32, 16, 8, 4, 2, 1), n)
        uncolored = combine([part.translate(_IS_UNCOLORED) for part in parts], (1,) * 6, n)
        found.append(combine((codes, uncolored.translate(_NONZERO_TO_64)), (1, 1), n))
    codes = b"".join(found)
    hist: dict[str, int] = {}
    for code in range(64):
        count = codes.count(code)
        if count:
            key = STAR_CLASSES[code]
            hist[key] = hist.get(key, 0) + count
    return hist


def decorated_type_counts(patch: PatternPatch) -> dict[tuple[int, int, Optional[int]], int]:
    """Counts per translation type (orientation, red count, decoration
    slot) over fully colored tiles; 16 types in all, 12 of them
    decorated.  Each row of tiles is one byte string of tile codes, and
    the codes of each orientation are counted together."""
    rows: dict[int, list[bytes]] = {POSITIVE: [], NEGATIVE: []}
    for o, _, _, codes in patch.colors.tile_codes():
        rows[o].append(codes)
    out: dict[tuple[int, int, Optional[int]], int] = {}
    for o, parts in rows.items():
        codes = b"".join(parts)
        for code, label in enumerate(DECORATIONS):
            if label is not None:
                count = codes.count(code)
                if count:
                    out[(o, *label)] = out.get((o, *label), 0) + count
    return out


def tile_class_counts(patch: PatternPatch) -> tuple[int, ...]:
    """Tile counts per rotation class, over fully colored tiles."""
    counts = [0] * 8
    for (o, reds, _), n in decorated_type_counts(patch).items():
        counts[class_index(o, reds)] += n
    return tuple(counts)


def period_check(patch: PatternPatch, max_norm: int) -> list[tuple[int, int]]:
    """Nonzero grid translations of length <= max_norm under which the
    window coloring agrees with itself on the overlap.  A window with no
    colored interior segment, such as a missing layer, raises
    WindowTooSmall: it would keep every translation."""
    if max_norm < 1:
        raise ValueError("max_norm must be positive")
    if not patch.region.contains_ball_of_radius(2 * max_norm):
        raise WindowTooSmall(
            f"window cannot certify periods up to norm {max_norm}")
    rows = patch.colors.interior()
    if all(row.count(NO_COLOR) == len(row) for by_q in rows for _, row in by_q.values()):
        raise WindowTooSmall("window has no colored interior segment")
    survivors = []
    limit = max_norm * max_norm
    for a in range(-max_norm, max_norm + 1):
        for b in range(-max_norm, max_norm + 1):
            if (a, b) == (0, 0) or a * a + a * b + b * b > limit:
                continue
            if all(_rows_agree(by_q, a, b) for by_q in rows):
                survivors.append((a, b))
    return sorted(survivors)


def _rows_agree(by_q: dict[int, tuple[int, bytes]], a: int, b: int) -> bool:
    """Whether each row agrees with its translate by (a, b) wherever both
    are colored: code pairs (1, 0) and (0, 1) sum to 1 and 4 below."""
    for q, (first, row) in by_q.items():
        other = by_q.get(q + b)
        if other is None:
            continue
        lo = max(first, other[0] - a)
        hi = min(first + len(row), other[0] + len(other[1]) - a)
        if lo >= hi:
            continue
        mine = row[lo - first:hi - first]
        theirs = other[1][lo + a - other[0]:hi + a - other[0]]
        if mine != theirs:
            pairs = combine((mine, theirs), (1, 4), hi - lo)
            if 1 in pairs or 4 in pairs:
                return False
    return True


def filter_layer(patch: PatternPatch, k: int) -> PatternPatch:
    """Restrict the window coloring to layer-k segments."""
    def keep(d: int, v: int, t0: int, cells: bytearray) -> Optional[bytes]:
        return None if v2(v) + 1 == k else cells.translate(UNCOLOR)

    return freeze(patch.region, through_lines(patch.region, patch.colors.rows, keep))

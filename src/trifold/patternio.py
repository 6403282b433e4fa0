"""Deterministic text serialization and SVG rendering.

Pattern files carry one ``d p q color`` record per segment, sorted by
(d, p, q), with the records of the region's boundary flagged ``*``.
The writer reads the window store column by column, which is that
order, behind one ``"d p "`` prefix per column, and takes the flags
from the region's closed-form sides.  The reader fills the store
directly: it rejects records off the region's row extents, records
that repeat an earlier one, and flags that differ from the boundary its
region header gives.  Tiling files carry ``orient p q red_count
[slot]`` records, each a tile of the region when a header names one and
none repeated.  Tilings are keyed by the same anchors (orientation, p,
q) the records carry, so the writer and the tile renderer sort the keys
and take a tile's corners and sides from the ``lattice`` tables, and
the reader keys each record by its own anchor.
Serialization is canonical, so read/write round trips
are byte identical.  Floats appear only in the SVG emitter, at a fixed
four decimal places; segment coordinates come from integer positions,
one text per x value and per row.
"""

from __future__ import annotations

from operator import getitem
from typing import Iterator

from .errors import ParseError
from .folding import BLUE_CODE, NO_COLOR, RED_CODE, Color, PatternPatch, WindowColors
from .lattice import (
    NEGATIVE,
    POSITIVE,
    TILE_VERTICES,
    BallRegion,
    Region,
    Seg,
    TriRegion,
    Vertex,
    standard_region,
    unit_tile_segments,
)
from .tiling import Anchor, DecoratedTile, tile_name

PATTERN_MAGIC = "trifold-pattern v1"
TILING_MAGIC = "trifold-tiling v1"

#: ColorBrewer Set1 red/blue for segments, Set2 for tile fill by red
#: count; SVG user units per grid unit, stroke width and margin.
RED_HEX = "#E41A1C"
BLUE_HEX = "#377EB8"
TILE_HEX = ("#66C2A5", "#FC8D62", "#8DA0CB", "#E78AC8")
SCALE = 24.0
STROKE_WIDTH = 2.0
MARGIN = 8.0


def _region_header(region: Region) -> str:
    if isinstance(region, BallRegion):
        return f"region ball {region.radius}"
    k = region.side.bit_length() - 1
    if region == standard_region(k):
        return f"region triangle {k}"
    return f"region tri {region.w1} {region.w2} {region.w3}"


def _parse_region(parts: list[str], line_no: int) -> Region:
    try:
        if parts[:2] == ["region", "ball"] and len(parts) == 3 and int(parts[2]) >= 0:
            return BallRegion(int(parts[2]))
        if parts[:2] == ["region", "triangle"] and len(parts) == 3 and int(parts[2]) >= 0:
            return standard_region(int(parts[2]))
        if parts[:2] == ["region", "tri"] and len(parts) == 5:
            region = TriRegion(int(parts[2]), int(parts[3]), int(parts[4]))
            if region.side and all(w % 3 == 1 for w in region):
                return region
    except ValueError:
        pass
    raise ParseError(f"bad region {' '.join(parts)!r}", line_no)


#: Extra byte codes the text formats use beside the store's: a boundary
#: segment's code plus BOUNDARY, the reader's not-yet-read byte, and the
#: padding of ``_columns``.
BOUNDARY = 3
UNREAD = 3
ABSENT = 6
_FLAG = bytes(c + BOUNDARY if c <= NO_COLOR else c for c in range(256))
_READ = bytes(NO_COLOR if c == UNREAD else c for c in range(256))
#: Record text after "d p q", by code; the writer's two passes keep the
#: colored codes, then the unknown boundary one.
_RECORD_TAILS = (" blue", " red", "", " blue *", " red *", " unknown *", "")
_COLORED_PASS = bytes(c if c in (BLUE_CODE, RED_CODE, BLUE_CODE + BOUNDARY, RED_CODE + BOUNDARY)
                      else ABSENT for c in range(256))
_UNKNOWN_PASS = bytes(c if c == NO_COLOR + BOUNDARY else ABSENT for c in range(256))
_CODES = {Color.BLUE.value: BLUE_CODE, Color.RED.value: RED_CODE}


def _columns(by_q: dict[int, tuple[int, bytes]]
             ) -> tuple[list[int], Iterator[tuple[int, int, bytes]]]:
    """(qs, columns) for one direction's rows: qs in increasing order, and
    (p, i, codes) per column p in increasing p, codes[j] being the byte
    of the segment at (p, qs[i + j]), or ABSENT.  The rows are padded to
    a common span, the columns read off with extended slices and the
    padding at their ends stripped."""
    qs = sorted(by_q)
    if not qs:
        return qs, iter(())
    lo = min(first for first, _ in by_q.values())
    hi = max(first + len(row) for first, row in by_q.values())
    width = hi - lo
    pad = bytes([ABSENT])
    grid = b"".join(pad * (by_q[q][0] - lo) + by_q[q][1] + pad * (hi - by_q[q][0] - len(by_q[q][1]))
                    for q in qs)

    def columns():
        for j in range(width):
            column = grid[j::width]
            codes = column.lstrip(pad)
            yield lo + j, len(column) - len(codes), codes.rstrip(pad)

    return qs, columns()


def write_pattern(patch: PatternPatch, seq: str = "") -> str:
    """The colored records in (d, p, q) order, then the uncolored
    boundary records, also in that order.

    A column's records are its rows' texts picked by code, so one
    column is one join behind its shared ``"d p "`` prefix; each pass
    first turns the codes it does not write into ABSENT, whose text is
    empty.
    """
    chunks = [f"{PATTERN_MAGIC}\nseq {seq}\n{_region_header(patch.region)}\n"]
    directions = []
    for d, by_q in enumerate(patch.colors.on_sides(_FLAG), start=1):
        qs, columns = _columns(by_q)
        texts = [tuple(tail and f"{q}{tail}" for tail in _RECORD_TAILS) for q in qs]
        directions.append((d, texts, list(columns)))
    for only in (_COLORED_PASS, _UNKNOWN_PASS):
        for d, texts, columns in directions:
            for p, i, codes in columns:
                codes = codes.translate(only)
                absent = codes.count(ABSENT)
                if absent == len(codes):
                    continue
                prefix = f"{d} {p} "
                records = map(getitem, texts[i:i + len(codes)], codes)
                chunks += (prefix, ("\n" + prefix).join(filter(None, records) if absent else records),
                           "\n")
    return "".join(chunks)


def read_pattern(text: str) -> tuple[PatternPatch, str]:
    lines = text.splitlines()
    if not lines or lines[0] != PATTERN_MAGIC:
        raise ParseError(f"expected {PATTERN_MAGIC!r} header", 1)
    if len(lines) < 3 or not lines[1].startswith("seq"):
        raise ParseError("missing seq header", 2)
    seq = lines[1][4:]
    region = _parse_region(lines[2].split(), 3)
    rows = tuple({q: (first, bytearray(bytes([UNREAD]) * (stop - first)))
                  for q, (first, stop) in extents.items()}
                 for extents in region.segment_rows())
    sides = region.side_rows()
    flagged: set[Seg] = set()  # boundary segments with a flagged record
    stray: tuple[Seg, int] | None = None  # the first flag off the boundary
    for no, raw in enumerate(lines[3:], start=4):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) not in (4, 5):
            raise ParseError(f"bad record {raw!r}", no)
        try:
            d, p, q = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"bad segment id in {raw!r}", no) from None
        if d not in (1, 2, 3):
            raise ParseError(f"bad direction {d}", no)
        entry = rows[d - 1].get(q)
        if entry is None or not 0 <= p - entry[0] < len(entry[1]):
            raise ParseError(f"{Seg(d, p, q)} is outside the region", no)
        if len(parts) == 5:
            if parts[4] != "*":
                raise ParseError(f"bad flag {parts[4]!r}", no)
            lo, hi = sides[d - 1].get(q, (0, 0))
            if lo <= p < hi:
                flagged.add(Seg(d, p, q))
            elif stray is None:
                stray = (Seg(d, p, q), no)
        code = _CODES.get(parts[3])
        if code is None:
            if parts[3] != "unknown":
                raise ParseError(f"bad color {parts[3]!r}", no)
            if len(parts) != 5:
                raise ParseError("unknown color only allowed on boundary", no)
            code = NO_COLOR
        first, row = entry
        if row[p - first] != UNREAD:
            raise ParseError(f"{Seg(d, p, q)} repeats an earlier record", no)
        row[p - first] = code
    if stray is not None:
        raise ParseError(f"{stray[0]} is flagged but not on the boundary", stray[1])
    # duplicates are refused, so every side segment is flagged once iff
    # the count is right
    if len(flagged) != sum(hi - lo for spans in sides for lo, hi in spans.values()):
        seg = min(s for s in region.iter_boundary_segments() if s not in flagged)
        raise ParseError(f"boundary segment {seg} has no flagged record", 3)
    store = tuple({q: (first, bytes(row.translate(_READ))) for q, (first, row) in r.items()}
                  for r in rows)
    return PatternPatch(region, WindowColors(region, store)), seq


def write_tiling(window: dict[Anchor, DecoratedTile], seq: str = "",
                 region: Region | None = None) -> str:
    lines = [TILING_MAGIC, f"seq {seq}"]
    if region is not None:
        lines.append(_region_header(region))
    for anchor, tile in _by_anchor(window):
        rec = f"{tile_name(*anchor)} {tile.red_count}"
        lines.append(rec if tile.decoration is None else f"{rec} {tile.decoration}")
    return "\n".join(lines) + "\n"


def _by_anchor(window: dict[Anchor, DecoratedTile]) -> list[tuple[Anchor, DecoratedTile]]:
    """(anchor, tile) pairs, positive tiles first, then by (p, q)."""
    return sorted(window.items(), key=lambda item: (-item[0][0], item[0][1], item[0][2]))


def read_tiling(text: str) -> tuple[dict[Anchor, DecoratedTile], str]:
    lines = text.splitlines()
    if not lines or lines[0] != TILING_MAGIC:
        raise ParseError(f"expected {TILING_MAGIC!r} header", 1)
    if len(lines) < 2 or not lines[1].startswith("seq"):
        raise ParseError("missing seq header", 2)
    seq = lines[1][4:]
    start, anchors = 2, None
    if len(lines) > 2 and lines[2].startswith("region"):
        start, anchors = 3, set(_parse_region(lines[2].split(), 3).iter_tile_anchors())
    window: dict[Anchor, DecoratedTile] = {}
    for no, raw in enumerate(lines[start:], start=start + 1):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) not in (4, 5) or parts[0] not in ("P", "N"):
            raise ParseError(f"bad record {raw!r}", no)
        try:
            p, q, count = int(parts[1]), int(parts[2]), int(parts[3])
            slot = int(parts[4]) if len(parts) == 5 else None
        except ValueError:
            raise ParseError(f"bad record {raw!r}", no) from None
        if not 0 <= count <= 3:
            raise ParseError(f"bad red count {count}", no)
        if slot is not None and slot not in (1, 2, 3):
            raise ParseError(f"bad decoration slot {slot}", no)
        if (count in (0, 3)) != (slot is None):
            raise ParseError("decoration present iff red count is 1 or 2", no)
        anchor = (POSITIVE if parts[0] == "P" else NEGATIVE, p, q)
        if anchors is not None and anchor not in anchors:
            raise ParseError(f"tile {raw!r} is outside the region", no)
        if anchor in window:
            raise ParseError(f"tile {parts[0]} {p} {q} repeats an earlier record", no)
        window[anchor] = DecoratedTile(count, slot)
    return window, seq


# -- SVG -------------------------------------------------------------------

def _fmt(x: float) -> str:
    out = f"{x:.4f}"
    return "0.0000" if out == "-0.0000" else out


def _svg_document(body: list[str], xs: list[float], ys: list[float]) -> str:
    if xs:
        x0, x1 = min(xs) - MARGIN, max(xs) + MARGIN
        y0, y1 = min(ys) - MARGIN, max(ys) + MARGIN
    else:
        x0, y0, x1, y1 = -1.0, -1.0, 1.0, 1.0
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(x1 - x0)} {_fmt(y1 - y0)}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"


def render_svg(patch: PatternPatch) -> str:
    """Interior segments as colored strokes, in (d, p, q) order.

    A vertex (p, q) sits at x = 12 (2p + q - 1), y = -(3q - 1) sqrt(3) / 6
    scaled, so the coordinate texts are made once per value of 2p + q - 1
    and once per row q, each from Vertex.xy.
    """
    rows = patch.colors.interior()
    spans = [(2 * first + q - 1, 2 * (first + len(row)) + q + 1, q)
             for by_q in rows for q, (first, row) in by_q.items()]
    n0 = min((s[0] for s in spans), default=0)
    q0 = min((s[2] for s in spans), default=0) - 1
    x_at = [Vertex(0, n + 1).xy()[0] * SCALE
            for n in range(n0, max((s[1] for s in spans), default=0))]
    y_at = [-Vertex(0, q).xy()[1] * SCALE
            for q in range(q0, max((s[2] for s in spans), default=0) + 2)]
    x_text, y_text = [_fmt(x) for x in x_at], [_fmt(y) for y in y_at]
    tails = [f'" stroke="{hexcol}" stroke-width="{_fmt(STROKE_WIDTH)}" stroke-linecap="round"/>'
             for hexcol in (BLUE_HEX, RED_HEX)]
    body: list[str] = []
    xs: list[float] = []
    ys: list[float] = []
    # second endpoint: (p+1, q), (p+1, q-1) or (p, q+1)
    for (dn, dq), by_q in zip(((2, 0), (1, -1), (1, 1)), rows):
        qs, columns = _columns(by_q)
        for p, i, codes in columns:
            kept = [(q, c) for q, c in zip(qs[i:], codes) if c < NO_COLOR]
            if not kept:
                continue
            base = 2 * p - 1 - n0
            body += [f'<line x1="{x_text[base + q]}" y1="{y_text[q - q0]}" '
                     f'x2="{x_text[base + q + dn]}" y2="{y_text[q + dq - q0]}{tails[c]}'
                     for q, c in kept]
            # x grows with 2p + q and y falls with q: the column's ends
            # hold its extremes
            (low, _), (high, _) = kept[0], kept[-1]
            xs += [x_at[base + low], x_at[base + high + dn]]
            ys += [y_at[q - q0] for q in (low, low + dq, high, high + dq)]
    return _svg_document(body, xs, ys)


def render_tiling_svg(window: dict[Anchor, DecoratedTile]) -> str:
    """Tiles as filled triangles keyed by red count; decorations are
    dots near the marked side."""
    body = []
    xs: list[float] = []
    ys: list[float] = []
    for (o, p, q), tile in _by_anchor(window):
        verts = [Vertex(p + dp, q + dq).xy() for dp, dq in TILE_VERTICES[o]]
        pts = [(x * SCALE, -y * SCALE) for x, y in verts]
        xs.extend(x for x, _ in pts)
        ys.extend(y for _, y in pts)
        path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        fill = TILE_HEX[tile.red_count]
        body.append(f'<polygon points="{path}" fill="{fill}" '
                    f'stroke="#444444" stroke-width="{_fmt(STROKE_WIDTH / 4)}"/>')
        if tile.decoration is not None:
            side = unit_tile_segments(o, p, q)[tile.decoration - 1]
            a, b = side.endpoints()
            cx = sum(x for x, _ in pts) / 3
            cy = sum(y for _, y in pts) / 3
            mx = (a.xy()[0] + b.xy()[0]) / 2 * SCALE
            my = -(a.xy()[1] + b.xy()[1]) / 2 * SCALE
            dx, dy = (cx + mx) / 2, (cy + my) / 2
            body.append(f'<circle cx="{_fmt(dx)}" cy="{_fmt(dy)}" '
                        f'r="{_fmt(SCALE / 10)}" fill="#222222"/>')
    return _svg_document(body, xs, ys)

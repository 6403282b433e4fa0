"""Deterministic text serialization and SVG rendering.

Pattern files carry one ``d p q color`` record per segment, sorted by
(d, p, q), with the records of the region's boundary flagged ``*``;
the reader rejects records off the region's line extents and flags
that differ from the boundary its region header gives.  Tiling files
carry ``orient p q red_count [slot]`` records, each a tile of the
region when a header names one.  Serialization is canonical, so
read/write round trips are byte identical.  Floats appear only in the
SVG emitter, at a fixed four decimal places.
"""

from __future__ import annotations

from typing import Iterable

from .errors import ParseError
from .folding import Color, PatternPatch
from .lattice import (
    NEGATIVE,
    POSITIVE,
    BallRegion,
    Region,
    Seg,
    TriRegion,
    Triangle,
    standard_region,
)
from .tiling import DecoratedTile

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


def write_pattern(patch: PatternPatch, seq: str = "") -> str:
    lines = [PATTERN_MAGIC, f"seq {seq}", _region_header(patch.region)]
    boundary = patch.boundary
    for seg in sorted(patch.colors):
        flag = " *" if seg in boundary else ""
        lines.append(f"{seg.d} {seg.p} {seg.q} {patch.colors[seg].value}{flag}")
    for seg in sorted(s for s in boundary if s not in patch.colors):
        lines.append(f"{seg.d} {seg.p} {seg.q} unknown *")
    return "\n".join(lines) + "\n"


def read_pattern(text: str) -> tuple[PatternPatch, str]:
    lines = text.splitlines()
    if not lines or lines[0] != PATTERN_MAGIC:
        raise ParseError(f"expected {PATTERN_MAGIC!r} header", 1)
    if len(lines) < 3 or not lines[1].startswith("seq"):
        raise ParseError("missing seq header", 2)
    seq = lines[1][4:]
    region = _parse_region(lines[2].split(), 3)
    extents = {(d, v): range(a, b) for d, v, a, b in region.line_extents()}
    colors: dict[Seg, Color] = {}
    flagged: dict[Seg, int] = {}
    for no, raw in enumerate(lines[3:], start=4):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) not in (4, 5):
            raise ParseError(f"bad record {raw!r}", no)
        try:
            d, p, q = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"bad segment id in {raw!r}", no) from None
        if d not in (1, 2, 3):
            raise ParseError(f"bad direction {d}", no)
        seg = Seg(d, p, q)
        # line_of(seg), inlined: this runs once per record
        v = 1 - 3 * q if d == 1 else 3 * (p + q) - 2 if d == 2 else 1 - 3 * p
        if (q if d == 3 else p) not in extents.get((d, v), ()):
            raise ParseError(f"{seg} is outside the region", no)
        if len(parts) == 5:
            if parts[4] != "*":
                raise ParseError(f"bad flag {parts[4]!r}", no)
            flagged[seg] = no
        if parts[3] == "unknown":
            if len(parts) != 5:
                raise ParseError("unknown color only allowed on boundary", no)
            continue
        try:
            colors[seg] = Color(parts[3])
        except ValueError:
            raise ParseError(f"bad color {parts[3]!r}", no) from None
    patch = PatternPatch(region, colors)
    boundary = patch.boundary
    if flagged.keys() != boundary:
        for seg, no in flagged.items():
            if seg not in boundary:
                raise ParseError(f"{seg} is flagged but not on the boundary", no)
        seg = min(boundary - flagged.keys())
        raise ParseError(f"boundary segment {seg} has no flagged record", 3)
    return patch, seq


def write_tiling(window: Iterable[DecoratedTile], seq: str = "",
                 region: Region | None = None) -> str:
    tiles = window.values() if isinstance(window, dict) else list(window)
    lines = [TILING_MAGIC, f"seq {seq}"]
    if region is not None:
        lines.append(_region_header(region))
    recs = []
    for tile in tiles:
        o, p, q = tile.triangle.anchor()
        key = (0 if o == POSITIVE else 1, p, q)
        rec = f"{'P' if o == POSITIVE else 'N'} {p} {q} {tile.red_count}"
        if tile.decoration is not None:
            rec += f" {tile.decoration}"
        recs.append((key, rec))
    lines.extend(rec for _, rec in sorted(recs))
    return "\n".join(lines) + "\n"


def read_tiling(text: str) -> tuple[dict[Triangle, DecoratedTile], str]:
    lines = text.splitlines()
    if not lines or lines[0] != TILING_MAGIC:
        raise ParseError(f"expected {TILING_MAGIC!r} header", 1)
    if len(lines) < 2 or not lines[1].startswith("seq"):
        raise ParseError("missing seq header", 2)
    seq = lines[1][4:]
    start, anchors = 2, None
    if len(lines) > 2 and lines[2].startswith("region"):
        start, anchors = 3, set(_parse_region(lines[2].split(), 3).iter_tile_anchors())
    window: dict[Triangle, DecoratedTile] = {}
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
        tri = Triangle.unit_from_anchor(*anchor)
        window[tri] = DecoratedTile(tri, count, slot)
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
    """Interior segments as colored strokes; deterministic element order."""
    body = []
    xs: list[float] = []
    ys: list[float] = []
    for seg, col in sorted(patch.interior_items()):
        a, b = seg.endpoints()
        (ax, ay), (bx, by) = a.xy(), b.xy()
        pts = [ax * SCALE, -ay * SCALE, bx * SCALE, -by * SCALE]
        xs.extend(pts[0::2])
        ys.extend(pts[1::2])
        hexcol = RED_HEX if col is Color.RED else BLUE_HEX
        body.append(f'<line x1="{_fmt(pts[0])}" y1="{_fmt(pts[1])}" '
                    f'x2="{_fmt(pts[2])}" y2="{_fmt(pts[3])}" '
                    f'stroke="{hexcol}" stroke-width="{_fmt(STROKE_WIDTH)}" '
                    f'stroke-linecap="round"/>')
    return _svg_document(body, xs, ys)


def render_tiling_svg(window) -> str:
    """Tiles as filled triangles keyed by red count; decorations are
    dots near the marked side."""
    tiles = window.values() if isinstance(window, dict) else list(window)
    recs = []
    for tile in tiles:
        o, p, q = tile.triangle.anchor()
        recs.append(((0 if o == POSITIVE else 1, p, q), tile))
    body = []
    xs: list[float] = []
    ys: list[float] = []
    for _, tile in sorted(recs, key=lambda r: r[0]):
        verts = [v.xy() for v in tile.triangle.vertices()]
        pts = [(x * SCALE, -y * SCALE) for x, y in verts]
        xs.extend(x for x, _ in pts)
        ys.extend(y for _, y in pts)
        path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        fill = TILE_HEX[tile.red_count]
        body.append(f'<polygon points="{path}" fill="{fill}" '
                    f'stroke="#444444" stroke-width="{_fmt(STROKE_WIDTH / 4)}"/>')
        if tile.decoration is not None:
            side = tile.triangle.side_segments()[tile.decoration - 1]
            a, b = side.endpoints()
            cx = sum(x for x, _ in pts) / 3
            cy = sum(y for _, y in pts) / 3
            mx = (a.xy()[0] + b.xy()[0]) / 2 * SCALE
            my = -(a.xy()[1] + b.xy()[1]) / 2 * SCALE
            dx, dy = (cx + mx) / 2, (cy + my) / 2
            body.append(f'<circle cx="{_fmt(dx)}" cy="{_fmt(dy)}" '
                        f'r="{_fmt(SCALE / 10)}" fill="#222222"/>')
    return _svg_document(body, xs, ys)

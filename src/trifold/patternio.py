"""Deterministic text serialization and SVG rendering.

Pattern files carry one ``d p q color`` record per segment, sorted by
(d, p, q), with the records of the region's boundary flagged ``*``.
The writer reads the window store column by column, which is that
order, behind one ``"d p "`` prefix per column, and takes the flags
from the region's closed-form sides.  The reader takes a canonical
file, the text the writer makes, by that layout into the padded column
grid of ``_grid``, and keeps the result only when the writer gives the
text back byte for byte.  Any other file is read record by record
into blank store rows (``folding.blank_rows``), and only that path
raises: it rejects records off the region's row extents, records that
repeat an earlier one, flags that differ from the boundary its region
header gives, and a triangle header with more boundary segments than
the file has lines.  Both paths end in ``freeze``.

Tiling files carry ``orient p q red_count [slot]`` records, each a
tile of the region when a header names one (checked against the
region's vertex rows next to the record's own row, never all of them)
and none repeated, positive tiles first, then by (p, q).  Tilings are
``tiling.Runs`` of tile codes, so the two formats share the column
grid: the writer reads each orientation's tile rows a column at a time
(a sparse tiling's a sorted record at a time), and a canonical file,
every tile of its header region listed, is read back by that layout and
kept only when it writes back byte for byte.  Any other file is read
record by record, the only path that raises.
Both formats start with a magic line and a ``seq`` or ``seq <text>``
line.  Serialization is canonical, so read/write round trips are byte
identical.  Floats appear only in the SVG emitter, at a fixed four
decimal places; segment coordinates come from integer positions, one
text per x value and per row, and the ``<line>`` texts of each
colored run of a column are joined from those pieces.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import repeat
from operator import getitem, itemgetter

from .errors import ParseError
from .folding import BLUE_CODE, NO_COLOR, RED_CODE, Color, PatternPatch, blank_rows, freeze
from .lattice import (
    NEGATIVE,
    POSITIVE,
    TILE_VERTICES,
    BallRegion,
    Region,
    Seg,
    TriRegion,
    Vertex,
    segment_rows,
    standard_region,
    tile_rows,
    unit_tile_segments,
)
from .tiling import DECORATIONS, NO_TILE, Anchor, RunRows, Runs, anchor_rows

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


def _read_seq(lines: list[str], need: int) -> str:
    """The sequence text of line 2, which is ``seq`` or ``seq <text>``;
    a file needs at least ``need`` lines."""
    if len(lines) < need or not lines[1].startswith("seq"):
        raise ParseError("missing seq header", 2)
    if lines[1] != "seq" and lines[1][3] != " ":
        raise ParseError(f"bad seq header {lines[1]!r}", 2)
    return lines[1][4:]


def _region_header(region: Region) -> str:
    if isinstance(region, BallRegion):
        return f"region ball {region.radius}"
    k = region.side.bit_length() - 1
    if region == standard_region(k):
        return f"region triangle {k}"
    return f"region tri {region.w1} {region.w2} {region.w3}"


def _parse_region(parts: list[str], line_no: int, records: int | None = None) -> Region:
    """The region a header line names.

    ``records`` is given for a pattern file: the number of lines after
    its header.  Each of a triangle's 3 * side boundary segments needs a
    flagged record among them, so a larger triangle is refused before
    anything is laid out by its size, and ``triangle k`` with 2^k above
    ``records`` before (-2)^k is computed.
    """
    region = None
    try:
        if parts[:2] == ["region", "ball"] and len(parts) == 3 and int(parts[2]) >= 0:
            return BallRegion(int(parts[2]))
        if parts[:2] == ["region", "triangle"] and len(parts) == 3 and int(parts[2]) >= 0:
            if records is not None and int(parts[2]) >= records.bit_length():
                raise _unfillable(parts, records, line_no)
            region = standard_region(int(parts[2]))
        elif parts[:2] == ["region", "tri"] and len(parts) == 5:
            tri = TriRegion(int(parts[2]), int(parts[3]), int(parts[4]))
            if tri.side and all(w % 3 == 1 for w in tri):
                region = tri
    except ValueError:
        pass
    if region is None:
        raise ParseError(f"bad region {' '.join(parts)!r}", line_no)
    if records is not None and 3 * region.side > records:
        raise _unfillable(parts, records, line_no)
    return region


def _unfillable(parts: list[str], records: int, line_no: int) -> ParseError:
    return ParseError(f"{' '.join(parts)!r} needs more flagged records than the "
                      f"{records} lines after it", line_no)


#: Extra byte codes the text formats use beside the store's: a boundary
#: segment's code plus BOUNDARY, the reader's not-yet-read byte, and the
#: padding of ``_grid``.
BOUNDARY = 3
UNREAD = 3
ABSENT = NO_TILE
_FLAG = bytes(c + BOUNDARY if c <= NO_COLOR else c for c in range(256))
_READ = bytes(NO_COLOR if c == UNREAD else c for c in range(256))
#: Record text after "d p q", by code; the writer's two passes keep the
#: colored codes, then the unknown boundary one.
_RECORD_TAILS = (" blue", " red", "", " blue *", " red *", " unknown *", "")
_COLORED_PASS = bytes(c if c in (BLUE_CODE, RED_CODE, BLUE_CODE + BOUNDARY, RED_CODE + BOUNDARY)
                      else ABSENT for c in range(256))
_UNKNOWN_PASS = bytes(c if c == NO_COLOR + BOUNDARY else ABSENT for c in range(256))
_CODES = {Color.BLUE.value: BLUE_CODE, Color.RED.value: RED_CODE}
_UNCOLORED = bytes([NO_COLOR])
_PAD = bytes([ABSENT])


def _grid(by_q: dict[int, tuple[int, bytes]]) -> tuple[list[int], int, int, bytes]:
    """(qs, lo, width, grid) for one direction's rows: qs in increasing
    order, and the rows in that order padded with ABSENT to the common
    span lo..lo + width and joined, so column p is grid[p - lo::width]."""
    qs = sorted(by_q)
    lo = min((first for first, _ in by_q.values()), default=0)
    hi = max((first + len(row) for first, row in by_q.values()), default=lo)
    return qs, lo, hi - lo, b"".join(
        _PAD * (by_q[q][0] - lo) + by_q[q][1] + _PAD * (hi - by_q[q][0] - len(by_q[q][1]))
        for q in qs)


def _columns(by_q: dict[int, tuple[int, bytes]]
             ) -> tuple[list[int], Iterator[tuple[int, int, bytes]]]:
    """(qs, columns) for one direction's rows: qs in increasing order, and
    (p, i, codes) per column p in increasing p, codes[j] being the byte
    of the segment at (p, qs[i + j]), or ABSENT.  The columns are read
    off the ``_grid`` with extended slices and the padding at their ends
    stripped."""
    qs, lo, width, grid = _grid(by_q)

    def columns():
        for j in range(width):
            column = grid[j::width]
            codes = column.lstrip(_PAD)
            yield lo + j, len(column) - len(codes), codes.rstrip(_PAD)

    return qs, columns()


def _fill_columns(by_q: dict[int, tuple[int, bytes]], codes: bytes, pos: int,
                  skip: bytes = _PAD) -> int | None:
    """Fill rows as ``_grid`` lays them out, in place: each column's run
    between its ``skip`` bytes takes the next ``codes`` from ``pos``.  The
    new pos, or None when the codes run out."""
    qs, lo, width, grid = _grid(by_q)
    filled = bytearray(grid)
    for j in range(width):
        column = grid[j::width]
        run = column.lstrip(skip)
        i, n = len(column) - len(run), len(run.rstrip(skip))
        if pos + n > len(codes):
            return None
        filled[j + i * width:j + (i + n) * width:width] = codes[pos:pos + n]
        pos += n
    filled = bytes(filled)
    for r, q in enumerate(qs):
        first, row = by_q[q]
        at = r * width + first - lo
        by_q[q] = (first, filled[at:at + len(row)])
    return pos


def _write(head: str, parts, tails: tuple[str, ...], passes=(None,)) -> str:
    """``head``, then per pass and (prefix, rows) part one record per byte,
    a column at a time: its rows' texts, ``q`` plus ``tails[byte]``, joined
    behind one ``prefix + "p "``.  A pass table turns the bytes it leaves
    out into ABSENT, whose text, like that of any code with no record, is
    empty."""
    chunks, columns = [head], []
    for prefix, by_q in parts:
        qs, cols = _columns(by_q)
        columns.append((prefix, [tuple(t and f"{q}{t}" for t in tails) for q in qs], list(cols)))
    for only in passes:
        for lead, texts, cols in columns:
            for p, i, codes in cols:
                codes = codes.translate(only)
                absent = codes.count(ABSENT)
                if absent == len(codes):
                    continue
                prefix = f"{lead}{p} "
                records = map(getitem, texts[i:i + len(codes)], codes)
                records = filter(None, records) if absent else records
                chunks += (prefix, ("\n" + prefix).join(records), "\n")
    return "".join(chunks)


def write_pattern(patch: PatternPatch, seq: str = "") -> str:
    """The colored records in (d, p, q) order, then the uncolored
    boundary records, also in that order: a pass each (``_write``)."""
    return _write(f"{PATTERN_MAGIC}\nseq {seq}\n{_region_header(patch.region)}\n",
                  ((f"{d} ", by_q) for d, by_q in enumerate(patch.colors.on_sides(_FLAG), start=1)),
                  _RECORD_TAILS, (_COLORED_PASS, _UNKNOWN_PASS))


def read_pattern(text: str) -> tuple[PatternPatch, str]:
    """The patch and seq of a pattern file.

    A canonical file, the text ``write_pattern`` makes, is read by its
    layout (``_read_columns``); any other text, valid or not, is read
    record by record, which alone raises, so every ParseError names the
    same record and line either way.
    """
    return _read_columns(text) or _read_records(text)


#: A colored record's code by the third character from its end, that of
#: " blue", " blue *", " red" or " red *"; any other reads NO_COLOR.
_CODE_BY_CHAR = bytes(BLUE_CODE if c in b"le" else RED_CODE if c in b"rd" else NO_COLOR
                      for c in range(256))
#: Characters of colored records split at a time: the codes take a byte
#: a record, but a whole body split at once would hold a string object
#: per record and raise the peak memory of a read above the file's size.
_CHUNK = 1 << 16


def _canonical_head(text: str, magic: str) -> tuple[Region, str, int, int] | None:
    """(region, seq, body, records) of a text that may be a writer's, its
    ``records`` lines from offset ``body`` on; None for any other."""
    head = text.split("\n", 3)
    if len(head) < 4 or head[0] != magic or head[1][:4] != "seq " \
            or head[1].splitlines() != [head[1]] or not text.endswith("\n"):
        return None
    body = len(text) - len(head[3])
    records = text.count("\n", body)
    try:
        region = _parse_region(head[2].split(), 3, records)
    except ParseError:
        return None
    # a ball of radius r has at least r segments and r tiles, so the rows
    # laid out stay within the file's size (as a triangle's header check sees to)
    if isinstance(region, BallRegion) and region.radius > records:
        return None
    return region, head[1][4:], body, records


def _lines(text: str, pos: int, end: int) -> Iterator[list[str]]:
    """The lines of text[pos:end], ending at a newline, a chunk at a time."""
    while pos < end:
        cut = text.find("\n", min(pos + _CHUNK, end) - 1) + 1
        yield text[pos:cut - 1].split("\n")
        pos = cut


def _read_columns(text: str) -> tuple[PatternPatch, str] | None:
    """The patch and seq of a canonical pattern file, or None.

    The region header fixes the records' order: one per segment, a
    column at a time in (d, p, q) order, the uncolored boundary ones
    (``unknown *``) last.  Only those trailing records are parsed; they
    sit at column ends, so each column's colored run is what is left
    between them, and it takes the codes of the next colored records
    in turn, read off their tails.  The result stands only when
    ``write_pattern`` gives the text back byte for byte, so a file this
    accepts reads the same record by record.  A header whose window has
    more segments than the file has lines is left to ``_read_records``.
    """
    start = _canonical_head(text, PATTERN_MAGIC)
    if start is None:
        return None
    region, seq, body, records = start
    extents = region.segment_rows()
    if sum(stop - first for by_q in extents for first, stop in by_q.values()) != records:
        return None
    marks = blank_rows(region, UNREAD)
    # the trailing records, each naming a boundary segment once, so at
    # most 3 * side of them: their bytes are marked NO_COLOR
    unknown = {f"{d} {p} {q} unknown *\n": (by_q[q][1], p - by_q[q][0])
               for d, (spans, by_q) in enumerate(zip(region.side_rows(), marks), start=1)
               for q, (lo, hi) in spans.items() for p in range(lo, hi)}
    end = len(text)
    while True:
        start = text.rfind("\n", 0, end - 1) + 1
        row, i = unknown.pop(text[start:end], (None, 0))
        if row is None:
            break
        row[i] = NO_COLOR
        end = start
    codes = b"".join("".join(map(itemgetter(slice(-3, -2)), lines)).encode("ascii", "replace")
                     for lines in _lines(text, body, end)).translate(_CODE_BY_CHAR)
    pos = 0
    for by_q in marks:
        pos = _fill_columns(by_q, codes, pos, _PAD + _UNCOLORED)
        if pos is None:  # an unknown inside a column, or a short line
            return None
    patch = freeze(region, marks)
    return (patch, seq) if write_pattern(patch, seq) == text else None


def _read_records(text: str) -> tuple[PatternPatch, str]:
    """Any pattern file, record by record: the one reader that raises."""
    lines = text.splitlines()
    if not lines or lines[0] != PATTERN_MAGIC:
        raise ParseError(f"expected {PATTERN_MAGIC!r} header", 1)
    seq = _read_seq(lines, 3)
    region = _parse_region(lines[2].split(), 3, len(lines) - 3)
    rows = blank_rows(region, UNREAD)
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
    return freeze(region, rows, _READ), seq


#: A tile record's text after "P p q", by tile code up to the all-red 21,
#: empty for no tile's (NO_TILE among them), and its code by that text.
_TILE_TAILS = tuple("" if t is None else f" {t.red_count}" if t.decoration is None
                    else f" {t.red_count} {t.decoration}" for t in DECORATIONS[:22])
_TILE_CODES = {tail[1:]: code for code, tail in enumerate(_TILE_TAILS) if tail}
#: Cells of an orientation's column grid per tile above which its sorted
#: records are written instead, so a tiling read record by record, which
#: may span any box, writes in memory its records size.  Windows have 1.5
#: (ball) to 2 (triangle) cells a tile, where columns write 4x faster; on
#: tiles scattered at random the two tie at 3 to 8 (2,000 to 16,000 tiles,
#: best of 5 CPU times on a 2-core x86 box).
_SPARSE = 4


def write_tiling(window: Runs, seq: str = "", region: Region | None = None) -> str:
    """The tiles' records, positive tiles first, then by (p, q): per
    orientation, a column of tile codes at a time (``_write``), or a
    sorted record at a time when its grid has over _SPARSE cells a tile."""
    chunks = [f"{TILING_MAGIC}\nseq {seq}\n"]
    if region is not None:
        chunks.append(f"{_region_header(region)}\n")
    for o, letter in ((POSITIVE, "P "), (NEGATIVE, "N ")):
        ends = {q: (runs[0][0], runs[-1][0] + len(runs[-1][1]))
                for (kind, q), runs in window.rows.items() if kind == o}
        firsts, stops = zip(*ends.values()) if ends else ((0,), (0,))
        tiles = sum(len(run) - run.count(window.blank)
                    for q in ends for _, run in window.rows[(o, q)])
        if len(ends) * (max(stops) - min(firsts)) <= _SPARSE * tiles:
            rows = {q: (first, window.row(o, q, first, stop)) for q, (first, stop) in ends.items()}
            chunks.append(_write("", [(letter, rows)], _TILE_TAILS))
        else:
            chunks += (f"{letter}{p} {q}{_TILE_TAILS[code]}\n"
                       for p, q, code in _sorted_tiles(window, o))
    return "".join(chunks)


def _sorted_tiles(window: Runs, o: int) -> list[tuple[int, int, int]]:
    """(p, q, code) of the tiling's orientation-o tiles, by (p, q)."""
    return sorted((first + i, q, code) for (kind, q), runs in window.rows.items() if kind == o
                  for first, run in runs for i, code in enumerate(run) if code != window.blank)


def _tile_spans(region: Region, q: int) -> dict[int, tuple[int, int]]:
    """{orientation: (first, stop)} of the region's tiles anchored on row
    q, laid out from its vertex rows q - 1 to q + 1 alone."""
    verts = {r: span for r in (q - 1, q, q + 1) if (span := region.vertex_span(r)) is not None}
    return {o: (first, stop) for o, row, first, stop in tile_rows(segment_rows(verts))
            if row == q}


def read_tiling(text: str) -> tuple[Runs, str]:
    """The tiling and seq of a tiling file: a canonical file by its
    layout, any other text record by record, which alone raises."""
    return _read_tile_columns(text) or _read_tile_records(text)


def _read_tile_columns(text: str) -> tuple[Runs, str] | None:
    """The tiling and seq of a canonical tiling file, or None: the columns
    of each orientation's tile rows take the records' codes in turn, and
    the result stands when ``write_tiling`` gives the text back."""
    start = _canonical_head(text, TILING_MAGIC)
    if start is None:
        return None
    region, seq, body, records = start
    spans = list(tile_rows(region.segment_rows()))
    if sum(stop - first for _, _, first, stop in spans) != records:
        return None
    try:
        codes = b"".join(bytes(map(_TILE_CODES.get, map(itemgetter(3), map(
            str.split, lines, repeat(" "), repeat(3))), repeat(ABSENT)))
            for lines in _lines(text, body, len(text)))
    except IndexError:  # a line of fewer than four fields
        return None
    rows: RunRows = {}
    pos = 0
    for o in (POSITIVE, NEGATIVE):
        by_q = {q: (first, bytes(stop - first)) for kind, q, first, stop in spans if kind == o}
        pos = _fill_columns(by_q, codes, pos)
        if pos is None:  # a column with a gap
            return None
        rows.update(((o, q), [run]) for q, run in by_q.items())
    tiles = Runs(rows)
    return (tiles, seq) if write_tiling(tiles, seq, region) == text else None


def _read_tile_records(text: str) -> tuple[Runs, str]:
    """Any tiling file, record by record: the one reader that raises."""
    lines = text.splitlines()
    if not lines or lines[0] != TILING_MAGIC:
        raise ParseError(f"expected {TILING_MAGIC!r} header", 1)
    seq = _read_seq(lines, 2)
    start, region = 2, None
    if len(lines) > 2 and lines[2].startswith("region"):
        region = _parse_region(lines[2].split(), 3)
        start = 3
    spans: dict[int, dict[int, tuple[int, int]]] = {}
    window: dict[Anchor, int] = {}  # anchor -> tile code
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
        if region is not None:
            if q not in spans:
                spans[q] = _tile_spans(region, q)
            first, stop = spans[q].get(anchor[0], (0, 0))
            if not first <= p < stop:
                raise ParseError(f"tile {raw!r} is outside the region", no)
        if anchor in window:
            raise ParseError(f"tile {parts[0]} {p} {q} repeats an earlier record", no)
        window[anchor] = _TILE_CODES[f"{count}" if slot is None else f"{count} {slot}"]
    return Runs(anchor_rows(window)), seq


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
    and once per row q, each from Vertex.xy.  A window's rows are
    consecutive q, so each maximal colored run of a column is drawn as
    one slice of those texts.
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
    # a <line> is starts[x1] + mids[y1] + x_text[x2] + ends[y2] + tail
    starts = [f'<line x1="{x}" y1="' for x in x_text]
    mids = [f'{y}" x2="' for y in y_text]
    ends = [f'" y2="{y}' for y in y_text]
    body: list[str] = []
    xs: list[float] = []
    ys: list[float] = []
    # second endpoint: (p+1, q), (p+1, q-1) or (p, q+1)
    for (dn, dq), by_q in zip(((2, 0), (1, -1), (1, 1)), rows):
        qs, columns = _columns(by_q)
        for p, i, codes in columns:
            base = 2 * p - 1 - n0
            for run in codes.split(_UNCOLORED):
                if run:
                    low = qs[i]
                    high = low + len(run) - 1
                    x1, y1 = base + low, low - q0
                    body.append("\n".join(map("".join, zip(
                        starts[x1:x1 + len(run)], mids[y1:y1 + len(run)],
                        x_text[x1 + dn:x1 + dn + len(run)], ends[y1 + dq:y1 + dq + len(run)],
                        map(tails.__getitem__, run)))))
                    # x grows with 2p + q and y falls with q: the run's ends
                    # hold its extremes
                    xs += [x_at[base + low], x_at[base + high + dn]]
                    ys += [y_at[q - q0] for q in (low, low + dq, high, high + dq)]
                i += len(run) + 1
    return _svg_document(body, xs, ys)


def render_tiling_svg(window: Runs) -> str:
    """Tiles as filled triangles keyed by red count, positive tiles first,
    then by (p, q); decorations are dots near the marked side."""
    body = []
    xs: list[float] = []
    ys: list[float] = []
    for o, (p, q, code) in ((o, t) for o in (POSITIVE, NEGATIVE) for t in _sorted_tiles(window, o)):
        tile = DECORATIONS[code]
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

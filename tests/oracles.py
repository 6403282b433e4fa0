"""Independent brute-force oracles used only by the tests.

Layer triangles are found by enumerating all value triples with the
right 2-adic valuation and side length, and their boundary segments by
walking the triangle's corners; ``layer_triangle_of`` turns the
library's one-segment ``layer_data`` into the attached triangle's side
values so that enumeration can check it.  Grid triangles are
``TriRegion`` side values; the unit-tile arithmetic on them (side
values from an anchor and back, corners, sides joining the corners)
lives here, apart from the library's offset tables.  Window segments
and unit tiles are found by testing every segment or tile in the
window's bounding box: a triangle's with the midpoint predicates
``TriRegion.contains_interior`` and ``is_boundary``, a ball's with the
exact Cartesian norm ``norm_sq_times_12``.  ``reflect_line`` is the
line form of the library's vertex and segment reflections,
``incident_segments`` lists a vertex's six spokes from the ``SPOKES``
table and ``AROUND`` the six tiles around a vertex, with their outer
sides, as offsets.  Matrix products and ranks are taken over plain
`Fraction`s, with no integer shortcuts.  Pattern windows are painted into plain
dicts one segment at a time with `color_of_segment`, and recolored,
filtered and translated one segment at a time.  The unfolder and the
substituter keep their segment-at-a-time forms: ``dict_unfold_once``
reflects every segment with ``reflect_segment`` and keeps the images
that ``contains_interior`` accepts, and ``dict_apply_rule_patch`` places
each tile's four children as side values and writes their
``unit_sides`` into a dict.  ``full_tiles`` decodes a window's tile
codes into (anchor, side colors) pairs.  ``dict_reconstruct`` is the
reconstruction on side values: it builds the six triangles around each
vertex and filters their ``unit_sides`` against the spokes.
``worklist_reconstruct`` runs the library's one propagation rule a tile
at a time from a worklist, where the library sweeps whole tile rows.
``loop_reference_match`` compares a reconstruction with a reference
pattern a segment at a time, by mapping lookups, where the command line
compares row slices, and ``record_write_tiling`` writes a tiling a
sorted record at a time, where the library writes tile-code columns.

The last section holds measurements only the tests take: a window's
interior as a dict, its disallowed stars, the layer-block check, the
class names and the all-blue seed.
"""
from __future__ import annotations

from fractions import Fraction

from trifold.analysis import star_allowed, vertex_star_histogram
from trifold.errors import Inconsistent, OutOfRegion, SeamConflict, WindowTooSmall
from trifold.folding import (
    CODE_COLORS,
    NO_COLOR,
    TILE_SIDES,
    UP,
    Color,
    FoldingSequence,
    PatternPatch,
    color_of_segment,
    iter_colored,
)
from trifold.lattice import (
    NEGATIVE,
    POSITIVE,
    SPOKES,
    TILE_SEGMENTS,
    Line,
    Seg,
    TriRegion,
    Vertex,
    layer_data,
    layer_of,
    line_of,
    line_position,
    reflect_segment,
    seg_between,
    standard_region,
    unit_tile_segments,
    v2,
)
from trifold.patternio import TILING_MAGIC, _region_header
from trifold.substitution import TriangleColoring, medial_color
from trifold.tiling import tile_name


def v2_slow(n: int) -> int:
    n = abs(n)
    k = 0
    while n % 2 == 0:
        n //= 2
        k += 1
    return k


def _corner(f1: int, f3: int) -> Vertex:
    return Vertex.from_functionals(f1, f3)


def triangle_boundary_segments(tri: TriRegion) -> list[Seg]:
    """Unit segments on the boundary of any grid triangle."""
    s = tri.side
    c12 = _corner(tri.w1, -tri.w1 - tri.w2)
    c13 = _corner(tri.w1, tri.w3)
    c23 = _corner(-tri.w2 - tri.w3, tri.w3)
    segs = []
    for a, b in ((c12, c13), (c12, c23), (c13, c23)):
        dp = (b.p - a.p) // s
        dq = (b.q - a.q) // s
        for i in range(s):
            u = Vertex(a.p + i * dp, a.q + i * dq)
            w = Vertex(a.p + (i + 1) * dp, a.q + (i + 1) * dq)
            segs.append(seg_between(u, w))
    return segs


def brute_layer_triangles(k: int, value_bound: int) -> dict[Seg, TriRegion]:
    """Map from each segment of a layer-k line to its layer-k triangle,
    for all layer-k triangles with side values within the bound."""
    s = 2 ** (k - 1)
    vals = [v for v in range(-value_bound, value_bound + 1)
            if v % 3 == 1 % 3 and v != 0 and v2_slow(v) == k - 1]
    valset = set(vals)
    out: dict[Seg, TriRegion] = {}
    for a in vals:
        for b in vals:
            for total in (3 * s, -3 * s):
                c = total - a - b
                if c in valset:
                    tri = TriRegion(a, b, c)
                    for seg in triangle_boundary_segments(tri):
                        if seg in out:
                            raise AssertionError(f"{seg} in two layer-{k} triangles")
                        out[seg] = tri
    return out


def layer_triangle_of(seg: Seg) -> TriRegion:
    """The layer triangle attached to the segment, with its side values:
    in each other direction, the layer-k value just below the midpoint
    (negative triangle) or just above it (positive)."""
    k, positive = layer_data(seg)
    s = 1 << (k - 1)
    r = s if k & 1 else -s
    step = 6 * s
    mids = seg.doubled_midpoint()
    vals = [r + step * ((m - 2 * r) // (2 * step) + positive) for m in mids]
    vals[seg.d - 1] = mids[seg.d - 1] // 2
    return TriRegion(*vals)


def reflect_line(line: Line, mirror: Line) -> Line:
    """Mirror image of a grid line across another."""
    d, V = mirror
    if line.d == d:
        return Line(d, 2 * V - line.v)
    (other,) = [i for i in (1, 2, 3) if i != d and i != line.d]
    return Line(other, -line.v - V)


def incident_segments(vertex: Vertex) -> tuple[Seg, ...]:
    """The six unit segments at a vertex, counterclockwise from east,
    read off the library's ``SPOKES`` table."""
    p, q = vertex
    return tuple(Seg(d, p + dp, q + dq) for d, dp, dq in SPOKES)


def norm_sq_times_12(p: int, q: int) -> int:
    """12 |x|^2 at the vertex (p, q), exactly."""
    return 3 * (2 * p + q - 1) ** 2 + (3 * q - 1) ** 2


def is_boundary(region: TriRegion, seg: Seg) -> bool:
    """Whether the segment's midpoint lies on exactly one side line of
    the triangle and inside the other two."""
    mids = seg.doubled_midpoint()
    sign = region.orientation
    on_own = False
    for m, w in zip(mids, region):
        if m == 2 * w:
            if on_own:
                return False
            on_own = True
        elif sign * m > sign * 2 * w:
            return False
    return on_own


def scan_region_segments(region: TriRegion) -> tuple[set[Seg], set[Seg]]:
    """(interior, boundary) segments of a triangular window, found by
    testing every segment anchored in the bounding box of its corners
    with the window's midpoint predicates."""
    w1, w2, w3 = region
    corners = (_corner(w1, w3), _corner(w1, -w1 - w2), _corner(-w2 - w3, w3))
    ps = [c.p for c in corners]
    qs = [c.q for c in corners]
    interior, boundary = set(), set()
    for p in range(min(ps) - 1, max(ps) + 2):
        for q in range(min(qs) - 1, max(qs) + 2):
            for d in (1, 2, 3):
                seg = Seg(d, p, q)
                if region.contains_interior(seg):
                    interior.add(seg)
                elif is_boundary(region, seg):
                    boundary.add(seg)
    return interior, boundary


def _box_tiles(inside, ps: range, qs: range) -> set[tuple[int, int, int]]:
    """Anchors in the box of unit tiles whose three vertices are inside."""
    tiles = set()
    for p in ps:
        for q in qs:
            if inside(p, q) and inside(p + 1, q):
                if inside(p, q + 1):
                    tiles.add((POSITIVE, p, q))
                if inside(p + 1, q - 1):
                    tiles.add((NEGATIVE, p, q))
    return tiles


def scan_region_tiles(region: TriRegion) -> set[tuple[int, int, int]]:
    """Unit tile anchors of a triangular window: every anchor in the
    bounding box of its corners, kept when all three tile vertices lie
    in the closed triangle."""
    w1, w2, w3 = region
    sign = 1 if w1 + w2 + w3 > 0 else -1
    corners = (_corner(w1, w3), _corner(w1, -w1 - w2), _corner(-w2 - w3, w3))
    ps = [c.p for c in corners]
    qs = [c.q for c in corners]

    def inside(p: int, q: int) -> bool:
        return all(sign * f <= sign * w for f, w in zip(Vertex(p, q).functionals(), region))

    return _box_tiles(inside, range(min(ps) - 2, max(ps) + 2), range(min(qs) - 2, max(qs) + 2))


def scan_ball(radius: int) -> tuple[set[Seg], set[tuple[int, int, int]]]:
    """(segments, tile anchors) of the radius-r ball at O, from a box of
    vertices tested with the Cartesian norm: the vertex (p, q) sits at
    ((2p + q - 1)/2, (3q - 1)/(2 sqrt 3)), so 12|x|^2 is an integer."""
    def inside(p: int, q: int) -> bool:
        return norm_sq_times_12(p, q) <= 12 * radius * radius

    span = range(-2 * radius - 2, 2 * radius + 3)
    segs = set()
    for p in span:
        for q in span:
            for d, (p2, q2) in ((1, (p + 1, q)), (2, (p + 1, q - 1)), (3, (p, q + 1))):
                if inside(p, q) and inside(p2, q2):
                    segs.add(Seg(d, p, q))
    return segs, _box_tiles(inside, span, span)


def fraction_rows(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def fraction_product(a, b) -> list[list[Fraction]]:
    """Matrix product over plain `Fraction`s (row-times-column sums)."""
    a, b = fraction_rows(a), fraction_rows(b)
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def fraction_rank(rows) -> int:
    """Rank by Gaussian elimination over plain `Fraction`s."""
    m = fraction_rows(rows)
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(rank + 1, n_rows):
            if m[r][col]:
                factor = m[r][col] / pv
                for c in range(col, n_cols):
                    m[r][c] -= factor * m[rank][c]
        rank += 1
    return rank


def dict_pattern(seq: FoldingSequence, region) -> dict[Seg, Color]:
    """The closed form as a plain dict: `color_of_segment` on every
    interior segment of the region, and on every boundary segment it
    answers for (a finite word leaves its own patch's boundary out)."""
    colors = {s: color_of_segment(seq, s) for s in region.iter_interior_segments()}
    for seg in region.iter_boundary_segments():
        try:
            colors[seg] = color_of_segment(seq, seg)
        except OutOfRegion:
            pass
    return colors


def dict_recolor(colors, seq: FoldingSequence, to: FoldingSequence) -> dict[Seg, Color]:
    """Flip each segment whose layer's fold differs; drop layers ``to``
    does not define."""
    return {s: c if seq.a(layer_of(s)) == to.a(layer_of(s)) else c.swapped
            for s, c in colors.items() if to.defined_through(layer_of(s))}


def dict_filter_layer(colors, k: int) -> dict[Seg, Color]:
    return {s: c for s, c in colors.items() if layer_of(s) == k}


def translate_segment(seg: Seg, a: int, b: int) -> Seg:
    return Seg(seg.d, seg.p + a, seg.q + b)


def dict_translate(colors, a: int, b: int) -> dict[Seg, Color]:
    return {translate_segment(s, a, b): c for s, c in colors.items()}


def tiles_by_lookup(colors, anchors) -> dict[tuple[int, int, int], tuple[Color, Color, Color]]:
    """Side colors, by direction, of each tile anchor whose three sides
    are all colored, looked up one segment at a time."""
    out = {}
    for o, p, q in anchors:
        sides = tuple(colors.get(s) for s in unit_tile_segments(o, p, q))
        if None not in sides:
            out[(o, p, q)] = sides
    return out


def dict_mismatches(left: dict, right: dict) -> list[Seg]:
    """Segments colored differently in two interior dicts, plus those
    colored in only one of them."""
    bad = [s for s, c in left.items() if s in right and right[s] is not c]
    bad.extend(left.keys() ^ right.keys())
    return sorted(bad)


def dict_period_check(interior: dict, max_norm: int) -> list[tuple[int, int]]:
    """Translations (a, b) of norm <= max_norm under which every colored
    segment agrees with its colored translate."""
    out = []
    for a in range(-max_norm, max_norm + 1):
        for b in range(-max_norm, max_norm + 1):
            if (a, b) != (0, 0) and a * a + a * b + b * b <= max_norm * max_norm:
                if all(interior.get(Seg(s.d, s.p + a, s.q + b), c) is c
                       for s, c in interior.items()):
                    out.append((a, b))
    return out


def dict_unfold_once(patch: PatternPatch, fold) -> PatternPatch:
    """One unfolding step a segment at a time: the old sides become the
    creases of their flaps, and every colored segment of the central
    patch is reflected across each side line, color-swapped, wherever
    the image is a new interior segment."""
    m = patch.region.side.bit_length() - 1
    big = standard_region(m + 1)
    mid_value = (-2) ** m

    colors = interior_colors(patch)
    for seg in patch.region.iter_boundary_segments():
        colors[seg] = Color.RED if fold[seg.d - 1] == UP else Color.BLUE

    snapshot = list(colors.items())
    for d in (1, 2, 3):
        mirror = Line(d, mid_value)
        for seg, col in snapshot:
            image = reflect_segment(seg, mirror)
            if image != seg and big.contains_interior(image):
                colors[image] = col.swapped
    return PatternPatch(big, colors)


def _placed_children(rule: str, tri: TriRegion, cols, anchor):
    """The four children of a unit tile doubled about ``anchor`` (vertex
    functionals), with their side colors: the medial one monochrome,
    corner d sharing side d with it and swapping the tile's other
    sides."""
    o = tri.orientation
    x = (2 * tri.w1 - anchor[0], 2 * tri.w2 - anchor[1], 2 * tri.w3 - anchor[2])
    adj = -3 * o
    mu = medial_color(rule, -o)
    yield TriRegion(x[0] + adj, x[1] + adj, x[2] + adj), (mu, mu, mu)
    for d in (1, 2, 3):
        vals = list(x)
        vals[d - 1] += adj
        child_cols = tuple(mu if e == d else cols[e - 1].swapped for e in (1, 2, 3))
        yield TriRegion(*vals), child_cols


def dict_apply_rule_patch(rule: str, patch: PatternPatch) -> PatternPatch:
    """One inflation step a tile at a time, about the corner where the
    direction-1 and direction-3 sides meet, into a dict that checks
    every seam."""
    region = patch.region
    anchor = (region.w1, -region.w1 - region.w3, region.w3)
    tiles = list(full_tiles(patch))
    if len(tiles) != region.side * region.side:
        raise ValueError("patch is not fully colored (boundary sides included)")
    out: dict[Seg, Color] = {}
    for tile, cols in tiles:
        for child, child_cols in _placed_children(rule, unit_triangle(*tile), cols, anchor):
            for seg, col in zip(unit_sides(child), child_cols):
                prev = out.setdefault(seg, col)
                if prev is not col:
                    raise SeamConflict(f"{seg}: {prev.value} vs {col.value}")
    return PatternPatch(TriRegion(*(2 * w - a for w, a in zip(region, anchor))), out)


def full_tiles(patch: PatternPatch):
    """(anchor, side colors) for tiles with all three sides known."""
    for o, q, first, codes in patch.colors.tile_codes():
        for i, code in enumerate(codes):
            sides = TILE_SIDES[code]
            if sides is not None:
                yield (o, first + i, q), sides


# -- unit triangles by side values ----------------------------------------

def unit_triangle(o: int, p: int, q: int) -> TriRegion:
    """The side values of the unit tile at the anchor (o, p, q)."""
    if o == POSITIVE:
        return TriRegion(1 - 3 * q, 3 * (p + q) + 1, 1 - 3 * p)
    return TriRegion(1 - 3 * q, 3 * (p + q) - 2, -2 - 3 * p)


def unit_anchor(tri: TriRegion) -> tuple[int, int, int]:
    """(orientation, p, q) of a unit triangle given by side values.

    Positive: vertices (p,q), (p+1,q), (p,q+1); negative: vertices
    (p,q), (p+1,q), (p+1,q-1).
    """
    total = sum(tri)
    if total == 3:
        return (POSITIVE, (1 - tri.w3) // 3, (1 - tri.w1) // 3)
    if total == -3:
        return (NEGATIVE, (-2 - tri.w3) // 3, (1 - tri.w1) // 3)
    raise ValueError(f"{tri} is not a unit triangle")


def unit_vertices(tri: TriRegion) -> tuple[Vertex, Vertex, Vertex]:
    """The corners of a unit triangle, from its anchor."""
    o, p, q = unit_anchor(tri)
    if o == POSITIVE:
        return (Vertex(p, q), Vertex(p + 1, q), Vertex(p, q + 1))
    return (Vertex(p, q), Vertex(p + 1, q), Vertex(p + 1, q - 1))


def unit_sides(tri: TriRegion) -> tuple[Seg, Seg, Seg]:
    """The sides of a unit triangle, by direction, joining its corners."""
    a, b, c = unit_vertices(tri)
    return tuple(sorted((seg_between(a, b), seg_between(b, c), seg_between(a, c))))


#: The six unit tiles around a vertex, counterclockwise: tile i, at the
#: offset (orientation, dp, dq), lies between spokes i and i + 1, and its
#: third side is the outer (d, dp, dq).
AROUND = ((POSITIVE, 0, 0, (2, 0, 1)), (NEGATIVE, -1, 1, (1, -1, 1)),
          (POSITIVE, -1, 0, (3, -1, 0)), (NEGATIVE, -1, 0, (2, -1, 0)),
          (POSITIVE, 0, -1, (1, 0, -1)), (NEGATIVE, 0, 0, (3, 1, -1)))


def tiles_around(vertex: Vertex):
    """The six unit tiles around a vertex in ccw order, each with its
    two incident spokes and its outer side.

    Spoke i and spoke i+1 belong to tile i; the spokes are listed ccw
    starting from the direction-1 segment to the right of the vertex.
    """
    p, q = vertex
    spokes = incident_segments(vertex)
    anchors = ((POSITIVE, p, q), (NEGATIVE, p - 1, q + 1), (POSITIVE, p - 1, q),
               (NEGATIVE, p - 1, q), (POSITIVE, p, q - 1), (NEGATIVE, p, q))
    tiles = [unit_triangle(*a) for a in anchors]
    outer = []
    for i, tri in enumerate(tiles):
        side = [s for s in unit_sides(tri)
                if s != spokes[i] and s != spokes[(i + 1) % 6]]
        outer.append(side[0])
    return tiles, spokes, outer


def dict_reconstruct(counts: dict[tuple[int, int, int], int]) -> dict[Seg, Color]:
    """Local reconstruction of anchor-keyed red counts, run on the tiles'
    side values, a tile's sides and vertices recomputed wherever they
    are needed."""
    RED, BLUE = Color.RED, Color.BLUE
    window = {unit_triangle(*a): count for a, count in counts.items()}
    for tri, count in window.items():
        if not 0 <= count <= 3:
            raise Inconsistent(f"{tri}: red count {count} out of range")

    colors: dict[Seg, Color] = {}

    def paint(seg: Seg, col: Color):
        prev = colors.get(seg)
        if prev is None:
            colors[seg] = col
        elif prev is not col:
            raise Inconsistent(f"{seg}: both colors forced")

    # 1. monochrome tiles know all their sides
    for tri, count in window.items():
        if count == 3 or count == 0:
            col = RED if count else BLUE
            for seg in unit_sides(tri):
                paint(seg, col)

    # 2. finest-layer lines show alternating runs of three
    by_line: dict[Line, dict[int, Seg]] = {}
    for tri in window:
        for seg in unit_sides(tri):
            pos = seg.p if seg.d != 3 else seg.q
            by_line.setdefault(line_of(seg), {})[pos] = seg
    finest_lines: set[Line] = set()
    for line, segs in by_line.items():
        for pos, seg in segs.items():
            c0 = colors.get(seg)
            if c0 is None:
                continue
            left = segs.get(pos - 1)
            right = segs.get(pos + 1)
            if left is None or right is None:
                continue
            if (colors.get(left) is c0.swapped
                    and colors.get(right) is c0.swapped):
                finest_lines.add(line)
                break

    # 3. hexagons of the identified layer
    pending = []
    seen = set()
    for tri in window:
        for vert in unit_vertices(tri):
            if vert in seen:
                continue
            seen.add(vert)
            tiles, spokes, outer = tiles_around(vert)
            if any(t not in window for t in tiles):
                continue
            if any(line_of(s) not in finest_lines for s in outer):
                continue
            if any(colors.get(s) is None for s in outer):
                continue
            pending.append((tiles, spokes, outer))

    for tiles, spokes, outer in pending:
        counts = [window[t] for t in tiles]
        progress = True
        while progress:
            progress = False
            for i in range(6):
                sides = (outer[i], spokes[i], spokes[(i + 1) % 6])
                known = [colors.get(s) for s in sides]
                reds = sum(c is RED for c in known)
                missing = [s for s, c in zip(sides, known) if c is None]
                if not missing:
                    if reds != counts[i]:
                        raise Inconsistent(f"tile {tiles[i]}: red count mismatch")
                    continue
                if len(missing) == 1:
                    need = counts[i] - reds
                    if need not in (0, 1):
                        raise Inconsistent(f"tile {tiles[i]}: red count {counts[i]} impossible")
                    paint(missing[0], RED if need else BLUE)
                    progress = True

    # 4. every fully recovered tile must agree with its count
    for tri, count in window.items():
        known = [colors.get(s) for s in unit_sides(tri)]
        if None not in known and sum(c is RED for c in known) != count:
            raise Inconsistent(f"tile {tri}: red count mismatch")
    return colors


#: Per direction d - 1, the two tiles bordering a segment Seg(d, p, q), as
#: (orientation, dp, dq) offsets from (p, q): ``TILE_SEGMENTS`` read backwards.
BORDERS = tuple(tuple((o, -sides[i][1], -sides[i][2]) for o, sides in TILE_SEGMENTS.items())
                for i in range(3))


def worklist_reconstruct(counts: dict[tuple[int, int, int], int]) -> dict[Seg, Color]:
    """The library's propagation rule run one tile at a time: a worklist
    starts with the monochrome tiles, and each painted segment puts its
    other tile (``BORDERS``) back on it."""
    RED, BLUE = Color.RED, Color.BLUE
    for a, count in counts.items():
        if not 0 <= count <= 3:
            raise Inconsistent(f"tile {tile_name(*a)}: red count {count} out of range")
    colors: dict[Seg, Color] = {}
    work = [a for a, count in counts.items() if count in (0, 3)]
    while work:
        a = work.pop()
        count = counts[a]
        segs = unit_tile_segments(*a)
        known = [colors.get(s) for s in segs]
        reds, unknown = known.count(RED), known.count(None)
        if not reds <= count <= reds + unknown:
            raise Inconsistent(f"tile {tile_name(*a)}: red count {count} impossible")
        if unknown and count in (reds, reds + unknown):
            col = BLUE if count == reds else RED
            for seg, c in zip(segs, known):
                if c is None:
                    colors[seg] = col
                    d, p, q = seg
                    for o, dp, dq in BORDERS[d - 1]:
                        tile = (o, p + dp, q + dq)
                        if tile != a and tile in counts:
                            work.append(tile)
    return colors


def loop_reference_match(colors, ref: PatternPatch, margin: int) -> tuple[int, int]:
    """(checked, bad) of ``reconstruct --ref``: every colored segment of
    the reference's interior eroded by ``margin``, looked up one at a
    time in ``colors``; bad where it is missing there or differs."""
    bad = checked = 0
    spans = ref.region.erode(margin).interior_rows()
    for d, (by_q, rows) in enumerate(zip(spans, ref.colors.rows), start=1):
        for q, (first, stop) in by_q.items():
            f, row = rows[q]
            for p, code in enumerate(row[first - f:stop - f], start=first):
                if code != NO_COLOR:
                    checked += 1
                    bad += colors.get((d, p, q)) is not CODE_COLORS[code]
    return checked, bad


def record_write_tiling(window, seq: str = "", region=None) -> str:
    """A tiling file from a mapping of anchors to (red count, slot) labels,
    a record at a time: positive tiles first, then by (p, q)."""
    lines = [TILING_MAGIC, f"seq {seq}"]
    if region is not None:
        lines.append(_region_header(region))
    for (o, p, q), (count, slot) in sorted(window.items(), key=lambda i: (-i[0][0], *i[0][1:])):
        lines.append(f"{tile_name(o, p, q)} {count}" + ("" if slot is None else f" {slot}"))
    return "\n".join(lines) + "\n"


# -- measurements only the tests take -------------------------------------

CLASS_NAMES = ("P-RRR", "P-RRB", "P-RBB", "P-BBB",
               "N-BBB", "N-RBB", "N-RRB", "N-RRR")

ALL_BLUE_POSITIVE = TriangleColoring(POSITIVE, (Color.BLUE,) * 3)


def interior_items(patch: PatternPatch):
    """(segment, color) for every colored interior segment."""
    return iter_colored(patch.colors.interior())


def interior_colors(patch: PatternPatch) -> dict[Seg, Color]:
    return dict(interior_items(patch))


def disallowed_stars(patch: PatternPatch) -> dict[str, int]:
    return {s: n for s, n in vertex_star_histogram(patch).items()
            if not star_allowed(s)}


def layer_block_check(patch: PatternPatch, k: int) -> bool:
    """True iff every layer-k line in the window alternates in
    monochrome blocks of exactly 2^(k-1) unit segments.

    Adjacent segments share a vertex; the block boundary falls exactly
    where another layer-k line passes through that vertex.
    """
    if not patch.region.contains_ball_of_radius(2 << k):
        raise WindowTooSmall(f"window too small for layer-{k} blocks")
    interior = interior_colors(patch)
    by_line: dict[Line, dict[int, Seg]] = {}
    for seg in interior:
        v, pos = line_position(seg)
        if v2(v) != k - 1:
            continue
        by_line.setdefault(Line(seg.d, v), {})[pos] = seg
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

"""Exact integer model of the triangular grid.

A vertex (p, q) stands for the point p*u + q*w + v0 with u = (1, 0),
w = (1/2, sqrt(3)/2) and v0 = (-1/2, -sqrt(3)/6).  With this offset the
three line functionals

    f1 = 1 - 3q,    f2 = 3(p + q) - 2,    f3 = 1 - 3p

are integers on every vertex, sum to zero, and are all congruent to
1 mod 3.  Grid lines are the level sets f_d = v with v = 1 (mod 3); the
unit triangle T0 = (1, 1, 1) is centered at the origin O.  A line whose
value has 2-adic valuation k-1 belongs to layer k; each layer splits
into triangles of side 2^(k-1) and hexagons, and every unit segment of
a layer-k line is the side of exactly one layer-k triangle.

A grid triangle of any size, a window or a layer triangle, is a
``TriRegion`` of its three side values.  A unit tile is named by its
anchor (orientation, p, q) alone, and its geometry is constant offset
tables: its vertices and sides (``TILE_VERTICES``, ``TILE_SEGMENTS``),
a vertex's six spokes (``SPOKES``) and the six tiles around it with
their outer sides (``AROUND``).  ``line_position`` and ``segment_at``
map a segment to its grid line and position there, and back.

``layer_kernel`` is the one implementation of the layer rule: given a
line and the doubled midpoints of segments along it, it returns the
layer and, per midpoint, the orientation of its layer triangle.  The
painter calls it once per line, on one period of midpoints;
``layer_data`` is its one-segment form.

Every window is its vertex rows: ``vertex_rows`` gives {q: (first,
stop)}, the vertices inside being p = first..stop-1 on row q.  On a
triangle they are linear in the side values.  On a radius-r ball,
12|x|^2 = 3(2p + q - 1)^2 + (3q - 1)^2 puts (p, q) inside iff
|6p + 3q - 3| <= isqrt(36r^2 - 3(3q - 1)^2): one isqrt per row.
``segment_rows`` turns the vertex rows into, per direction d, the
anchors p = first..stop-1 of the window's segments Seg(d, p, q) on each
row q; ``side_rows`` gives the anchors on a triangle's side lines in the
same form, and ``tile_rows`` the unit tiles row by row.  Segments, side
segments and tiles are all enumerated from these rows.

All geometry below is integer arithmetic on these values; floats appear
only in the rendering helpers.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable, Iterator, NamedTuple

from .errors import MalformedLayer

POSITIVE = 1
NEGATIVE = -1

_SQRT3 = 3 ** 0.5


def v2(n: int) -> int:
    """2-adic valuation of |n| (n must be nonzero)."""
    if n == 0:
        raise ValueError("v2(0) is undefined")
    return (n & -n).bit_length() - 1


class Vertex(NamedTuple):
    p: int
    q: int

    def functionals(self) -> tuple[int, int, int]:
        return (1 - 3 * self.q, 3 * (self.p + self.q) - 2, 1 - 3 * self.p)

    @classmethod
    def from_functionals(cls, f1: int, f3: int) -> "Vertex":
        if (1 - f1) % 3 or (1 - f3) % 3:
            raise ValueError(f"({f1}, {f3}) is not a vertex functional pair")
        return cls((1 - f3) // 3, (1 - f1) // 3)

    def xy(self) -> tuple[float, float]:
        """Cartesian coordinates (rendering only)."""
        return (self.p + self.q / 2 - 0.5, (3 * self.q - 1) * _SQRT3 / 6)


class Line(NamedTuple):
    """Grid line {x : f_d(x) = v}; grid lines have v = 1 (mod 3)."""

    d: int
    v: int


class Seg(NamedTuple):
    """Canonical unit segment id.

    d=1 joins (p,q)-(p+1,q); d=2 joins (p,q)-(p+1,q-1); d=3 joins
    (p,q)-(p,q+1).  The anchor is unique, so segments are usable as
    dictionary keys.
    """

    d: int
    p: int
    q: int

    def endpoints(self) -> tuple[Vertex, Vertex]:
        p, q = self.p, self.q
        if self.d == 1:
            return (Vertex(p, q), Vertex(p + 1, q))
        if self.d == 2:
            return (Vertex(p, q), Vertex(p + 1, q - 1))
        return (Vertex(p, q), Vertex(p, q + 1))

    def doubled_midpoint(self) -> tuple[int, int, int]:
        """(2*f1, 2*f2, 2*f3) at the segment midpoint; always integers."""
        f1 = 2 - 6 * self.q
        f2 = 6 * (self.p + self.q) - 4
        f3 = 2 - 6 * self.p
        if self.d == 1:
            return (f1, f2 + 3, f3 - 3)
        if self.d == 2:
            return (f1 + 3, f2, f3 - 3)
        return (f1 - 3, f2 + 3, f3)


#: The unit tile at (p, q), per orientation: its vertices as (dp, dq)
#: offsets and its sides, by direction, as (d, dp, dq) offsets.
TILE_VERTICES = {POSITIVE: ((0, 0), (1, 0), (0, 1)), NEGATIVE: ((0, 0), (1, 0), (1, -1))}
TILE_SEGMENTS = {POSITIVE: ((1, 0, 0), (2, 0, 1), (3, 0, 0)),
                 NEGATIVE: ((1, 0, 0), (2, 0, 0), (3, 1, -1))}
#: The six segments at a vertex, counterclockwise from east, as (d, dp, dq).
SPOKES = ((1, 0, 0), (3, 0, 0), (2, -1, 1), (1, -1, 0), (3, 0, -1), (2, 0, 0))
#: The six unit tiles around a vertex, counterclockwise: tile i, at the
#: offset (orientation, dp, dq), lies between spokes i and i + 1, and its
#: third side is the outer (d, dp, dq).
AROUND = ((POSITIVE, 0, 0, (2, 0, 1)), (NEGATIVE, -1, 1, (1, -1, 1)),
          (POSITIVE, -1, 0, (3, -1, 0)), (NEGATIVE, -1, 0, (2, -1, 0)),
          (POSITIVE, 0, -1, (1, 0, -1)), (NEGATIVE, 0, 0, (3, 1, -1)))


def unit_tile_segments(o: int, p: int, q: int) -> tuple[Seg, ...]:
    """Side segments (by direction) of the unit tile anchored at (p, q)."""
    return tuple(Seg(d, p + dp, q + dq) for d, dp, dq in TILE_SEGMENTS[o])


def seg_between(u: Vertex, v: Vertex) -> Seg:
    """The canonical segment joining two adjacent vertices."""
    dp, dq = v.p - u.p, v.q - u.q
    if (dp, dq) == (1, 0) or (dp, dq) == (-1, 0):
        return Seg(1, min(u.p, v.p), u.q)
    if (dp, dq) == (0, 1) or (dp, dq) == (0, -1):
        return Seg(3, u.p, min(u.q, v.q))
    if (dp, dq) == (1, -1):
        return Seg(2, u.p, u.q)
    if (dp, dq) == (-1, 1):
        return Seg(2, v.p, v.q)
    raise ValueError(f"{u} and {v} are not adjacent")


def line_position(seg: tuple[int, int, int]) -> tuple[int, int]:
    """(v, t): the segment (d, p, q) lies on the grid line {f_d = v} at
    position t, p on lines of directions 1 and 2 and q on direction-3
    lines."""
    d, p, q = seg
    return (1 - 3 * q, p) if d == 1 else (3 * (p + q) - 2, p) if d == 2 else (1 - 3 * p, q)


def segment_at(d: int, v: int, t: int) -> Seg:
    """The segment at position t on the grid line {f_d = v}; undoes
    line_position."""
    L = (v + 2) // 3 if d == 2 else (1 - v) // 3
    return Seg(1, t, L) if d == 1 else Seg(2, t, L - t) if d == 2 else Seg(3, L, t)


def line_of(seg: Seg) -> Line:
    """The grid line the segment lies on."""
    return Line(seg.d, line_position(seg)[0])


def layer_of(seg: Seg) -> int:
    """Layer index k: the line value has 2-adic valuation k-1."""
    return v2(line_of(seg).v) + 1


def layer_kernel(d: int, v: int, mids: Iterable[int]) -> tuple[int, list[bool]]:
    """The closed-form layer rule along the grid line {f_d = v}.

    ``mids`` are doubled midpoint values, all in one of the two other
    directions, of segments on the line.  Returns the layer k and, per
    segment, whether its layer-k triangle is positive.

    Layer-k values are spaced 6s apart (s = 2^(k-1)) with residue
    r = (-2)^(k-1); a line value off that progression is not a layer-k
    grid line and raises MalformedLayer.  Flooring the two other
    midpoint functionals onto the progression gives the lower side
    values of the candidate layer triangle, summing with v to -3s (the
    attached negative triangle) or -9s (the positive one).  As the two
    midpoints add up to -2v, the sum is -9s exactly when
    (m - 2r) mod 12s > 6s, for either of them.
    """
    k = (v & -v).bit_length()
    s = 1 << (k - 1)
    r2 = 2 * s if k & 1 else -2 * s
    if (2 * v - r2) % (12 * s):
        raise MalformedLayer(f"line f{d} = {v} is not a layer-{k} grid line")
    period, half = 12 * s, 6 * s
    return k, [(m - r2) % period > half for m in mids]


def layer_data(seg: Seg) -> tuple[int, bool]:
    """(layer k, layer-triangle-is-positive): layer_kernel on one segment."""
    v, t = line_position(seg)
    k, (positive,) = layer_kernel(seg.d, v, (-1 - 6 * t,))
    return k, positive


# -- reflections ----------------------------------------------------------

def _reflect_triple(f: tuple[int, int, int], mirror: Line) -> tuple[int, int, int]:
    # Across {f_d = V}: f_d -> 2V - f_d, and the two other functionals
    # swap direction with f_j -> -f_l - V (the three values keep sum 0).
    d, V = mirror
    out = [0, 0, 0]
    j, l = [i for i in (1, 2, 3) if i != d]
    out[d - 1] = 2 * V - f[d - 1]
    out[j - 1] = -f[l - 1] - V
    out[l - 1] = -f[j - 1] - V
    return (out[0], out[1], out[2])


def reflect_vertex(vert: Vertex, mirror: Line) -> Vertex:
    g = _reflect_triple(vert.functionals(), mirror)
    return Vertex.from_functionals(g[0], g[2])


def reflect_segment(seg: Seg, mirror: Line) -> Seg:
    a, b = seg.endpoints()
    return seg_between(reflect_vertex(a, mirror), reflect_vertex(b, mirror))


# -- windows ---------------------------------------------------------------

#: Per direction d, {q: (first, stop)}: anchors p = first..stop-1 of
#: segments Seg(d, p, q) on row q, rows in increasing q.
Spans = tuple[dict[int, tuple[int, int]], ...]


def segment_rows(verts: dict[int, tuple[int, int]]) -> Spans:
    """The window's segments, those with both ends inside, from its
    vertex rows ``verts`` (vertices p = first..stop-1 on row q).

    Seg(1, p, q) needs p and p+1 on row q, Seg(2, p, q) needs p on row q
    and p+1 on row q-1, Seg(3, p, q) needs p on rows q and q+1.  Rows
    without segments are left out.
    """
    rows: Spans = ({}, {}, {})
    for q, (a, b) in verts.items():
        below, above = verts.get(q - 1), verts.get(q + 1)
        spans = [(a, b - 1), None, None]
        if below is not None:
            spans[1] = (max(a, below[0] - 1), min(b, below[1] - 1))
        if above is not None:
            spans[2] = (max(a, above[0]), min(b, above[1]))
        for out, span in zip(rows, spans):
            if span is not None and span[0] < span[1]:
                out[q] = span
    return rows


def row_segments(rows: Spans) -> Iterator[Seg]:
    """Seg(d, p, q) for every anchor of the rows, in (d, q, p) order."""
    for d, by_q in enumerate(rows, start=1):
        for q, (first, stop) in by_q.items():
            for p in range(first, stop):
                yield Seg(d, p, q)


def tile_rows(rows: Spans) -> Iterator[tuple[int, int, int, int]]:
    """(orientation, q, first, stop) for the unit tiles anchored at
    p = first..stop-1 on row q, given ``segment_rows``.

    A positive tile at (p, q) is there when Seg(1, p, q) and Seg(3, p, q)
    are; a negative one when Seg(1, p, q) and Seg(2, p, q) are.
    """
    r1, r2, r3 = rows
    for q, (f1, t1) in r1.items():
        for o, side in ((POSITIVE, r3.get(q)), (NEGATIVE, r2.get(q))):
            if side is not None and max(f1, side[0]) < min(t1, side[1]):
                yield o, q, max(f1, side[0]), min(t1, side[1])


class TriRegion(NamedTuple):
    """Grid triangle, or triangular window, with side lines (w1, w2, w3).

    Positive (value sum +3*side) means {f_d <= w_d}; negative means
    {f_d >= w_d}.  The side lines are anchor row q1 = (1 - w1)/3, the
    anchors with p + q = c2 = (w2 + 2)/3 and column p3 = (1 - w3)/3; the
    window's segments on them are its boundary, the others are interior
    (midpoint strictly inside).
    """

    w1: int
    w2: int
    w3: int

    @property
    def orientation(self) -> int:
        return POSITIVE if self.w1 + self.w2 + self.w3 > 0 else NEGATIVE

    @property
    def side(self) -> int:
        return abs(self.w1 + self.w2 + self.w3) // 3

    def contains_interior(self, seg: Seg) -> bool:
        mids = seg.doubled_midpoint()
        if self.orientation == POSITIVE:
            return all(m < 2 * w for m, w in zip(mids, self))
        return all(m > 2 * w for m, w in zip(mids, self))

    def _sides(self) -> tuple[int, int, int]:
        return (1 - self.w1) // 3, (self.w2 + 2) // 3, (1 - self.w3) // 3

    def vertex_rows(self) -> dict[int, tuple[int, int]]:
        """{q: (first, stop)}: the vertices on row q are p = first..stop-1,
        from column p3 to the line p + q = c2, for q between q1 and c2 - p3."""
        q1, c2, p3 = self._sides()
        if self.orientation == POSITIVE:
            return {q: (p3, c2 - q + 1) for q in range(q1, c2 - p3 + 1)}
        return {q: (c2 - q, p3 + 1) for q in range(c2 - p3, q1 + 1)}

    def side_rows(self) -> Spans:
        """The boundary in ``segment_rows`` form: all of row q1 in
        direction 1, and one anchor per row in directions 2 (p = c2 - q)
        and 3 (p = p3).  Each span sits at one end of its segment row."""
        q1, c2, p3 = self._sides()
        low, high = sorted((q1, c2 - p3))
        first, stop = sorted((p3, c2 - q1))
        return ({q1: (first, stop)} if first < stop else {},
                {q: (c2 - q, c2 - q + 1) for q in range(low + 1, high + 1)},
                {q: (p3, p3 + 1) for q in range(low, high)})

    def iter_interior_segments(self) -> Iterator[Seg]:
        """The segment rows less their side spans, one end of each row."""
        for d, (by_q, sides) in enumerate(zip(self.segment_rows(), self.side_rows()), start=1):
            for q, (first, stop) in by_q.items():
                lo, hi = sides.get(q, (stop, stop))
                for p in range(hi, stop) if lo == first else range(first, lo):
                    yield Seg(d, p, q)

    def iter_boundary_segments(self) -> Iterator[Seg]:
        return row_segments(self.side_rows())

    def iter_tile_anchors(self) -> Iterator[tuple[int, int, int]]:
        """(orientation, p, q) of every unit triangle in the window."""
        return ((o, p, q) for o, q, first, stop in tile_rows(self.segment_rows())
                for p in range(first, stop))

    def segment_rows(self) -> Spans:
        return segment_rows(self.vertex_rows())

    def contains_ball_of_radius(self, r: int) -> bool:
        return self.side * self.side >= 12 * r * r

    def translate(self, a: int, b: int) -> "TriRegion":
        """The triangle moved by a steps along u and b along w."""
        return TriRegion(self.w1 - 3 * b, self.w2 + 3 * (a + b), self.w3 - 3 * a)

    def erode(self, rows: int) -> "TriRegion":
        """Each side moved ``rows`` rows inward, taking 3 off the side per
        row.  From 3 * rows >= side on nothing is left inside: the result
        is then the side-0 triangle, a vertex, where the first two sides
        meet after side // 3 rows."""
        shift = 3 * self.orientation * min(rows, self.side // 3)
        w1, w2 = self.w1 - shift, self.w2 - shift
        return TriRegion(w1, w2, -w1 - w2 if 3 * rows >= self.side else self.w3 - shift)


class BallRegion(NamedTuple):
    """Ball window of integer radius centered at O.

    A segment belongs to the window when both endpoints are within the
    radius; a ball has no sides, so no flagged boundary segments.
    """

    radius: int

    @property
    def orientation(self) -> int:
        return 0

    def vertex_rows(self) -> dict[int, tuple[int, int]]:
        """{q: (first, stop)}: the vertices on row q are p = first..stop-1,
        those with |6p + 3q - 3| <= isqrt(36r^2 - 3(3q - 1)^2)."""
        bound = 36 * self.radius * self.radius
        top = isqrt(bound // 3)  # rows with |3q - 1| <= top
        rows = {}
        for q in range(-((top - 1) // 3), (top + 1) // 3 + 1):
            m = isqrt(bound - 3 * (3 * q - 1) ** 2)
            first, stop = (8 - 3 * q - m) // 6, (9 - 3 * q + m) // 6
            if first < stop:
                rows[q] = first, stop
        return rows

    def side_rows(self) -> Spans:
        """A ball has no sides."""
        return {}, {}, {}

    def iter_interior_segments(self) -> Iterator[Seg]:
        return row_segments(self.segment_rows())

    def iter_boundary_segments(self) -> Iterator[Seg]:
        return iter(())

    def iter_tile_anchors(self) -> Iterator[tuple[int, int, int]]:
        return ((o, p, q) for o, q, first, stop in tile_rows(self.segment_rows())
                for p in range(first, stop))

    def segment_rows(self) -> Spans:
        return segment_rows(self.vertex_rows())

    def contains_ball_of_radius(self, r: int) -> bool:
        return self.radius >= r

    def erode(self, units: int) -> "BallRegion":
        return BallRegion(max(self.radius - units, 0))


Region = TriRegion | BallRegion


def standard_region(k: int) -> TriRegion:
    """The side-2^k pattern triangle centered at O (positive iff k even)."""
    v = (-2) ** k
    return TriRegion(v, v, v)

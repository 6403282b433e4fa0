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

``layer_kernel`` is the one implementation of the layer rule: given a
line and the doubled midpoints of segments along it, it returns the
layer and, per midpoint, the orientation of its layer triangle.  The
painter calls it once per line, on one period of midpoints;
``layer_data`` is its one-segment form.

Every window is its vertex extents along grid lines: ``line_extents``
yields (d, v, first, last) per line {f_d = v} it meets, the vertices
inside being t = first..last with f_j = 1 - 3t (t = p, or q if d = 3).
On a triangle they are linear in the side values.  On a radius-r ball,
12|x|^2 = (2/3)(f1^2 + f2^2 + f3^2) puts the vertex with f_j = g inside
iff (2g + v)^2 + 3v^2 <= 36r^2: one isqrt per line, in any direction.
``line_segments`` builds each line's segments from these extents.

Pattern windows are stored by anchor row: ``segment_rows`` turns the
extents into, per direction d, the anchors p = first..stop-1 of the
window's segments Seg(d, p, q) on each row q, and ``tile_rows`` gives
the unit tiles row by row from those.

All geometry below is integer arithmetic on these values; floats appear
only in the rendering helpers.
"""

from __future__ import annotations

from itertools import chain
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

    def norm_sq_times_12(self) -> int:
        """12 * |vertex|^2, exactly."""
        return 3 * (2 * self.p + self.q - 1) ** 2 + (3 * self.q - 1) ** 2


class Line(NamedTuple):
    """Grid line {x : f_d(x) = v}; grid lines have v = 1 (mod 3)."""

    d: int
    v: int

    @property
    def layer(self) -> int:
        return v2(self.v) + 1


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

    def translate(self, a: int, b: int) -> "Seg":
        return Seg(self.d, self.p + a, self.q + b)


def unit_tile_segments(o: int, p: int, q: int) -> tuple[Seg, Seg, Seg]:
    """Side segments (by direction) of the unit tile anchored at (p, q)."""
    if o == POSITIVE:
        return (Seg(1, p, q), Seg(2, p, q + 1), Seg(3, p, q))
    return (Seg(1, p, q), Seg(2, p, q), Seg(3, p + 1, q - 1))


def incident_segments(vertex: Vertex) -> tuple[Seg, ...]:
    """The six unit segments at a vertex, counterclockwise from east."""
    p, q = vertex
    return (Seg(1, p, q), Seg(3, p, q), Seg(2, p - 1, q + 1),
            Seg(1, p - 1, q), Seg(3, p, q - 1), Seg(2, p, q))


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


class Triangle(NamedTuple):
    """Grid triangle given by its three side line values (by direction).

    The value sum is +3s for a positive (apex up) triangle of side s,
    -3s for a negative one: a positive triangle is {f_d <= v_d}, a
    negative one is {f_d >= v_d}.
    """

    v1: int
    v2: int
    v3: int

    @property
    def total(self) -> int:
        return self.v1 + self.v2 + self.v3

    @property
    def orientation(self) -> int:
        return POSITIVE if self.total > 0 else NEGATIVE

    @property
    def side(self) -> int:
        return abs(self.total) // 3

    def value(self, d: int) -> int:
        return self[d - 1]

    def anchor(self) -> tuple[int, int, int]:
        """(orientation, p, q) for a unit triangle.

        Positive: vertices (p,q), (p+1,q), (p,q+1); negative: vertices
        (p,q), (p+1,q), (p+1,q-1).
        """
        if self.total == 3:
            return (POSITIVE, (1 - self.v3) // 3, (1 - self.v1) // 3)
        if self.total == -3:
            return (NEGATIVE, (-2 - self.v3) // 3, (1 - self.v1) // 3)
        raise ValueError(f"{self} is not a unit triangle")

    @classmethod
    def unit_from_anchor(cls, orientation: int, p: int, q: int) -> "Triangle":
        if orientation == POSITIVE:
            return cls(1 - 3 * q, 3 * (p + q) + 1, 1 - 3 * p)
        return cls(1 - 3 * q, 3 * (p + q) - 2, -2 - 3 * p)

    def side_segments(self) -> tuple[Seg, Seg, Seg]:
        """The unit segments forming the sides of a unit triangle, by direction."""
        return unit_tile_segments(*self.anchor())

    def vertices(self) -> tuple[Vertex, Vertex, Vertex]:
        o, p, q = self.anchor()
        if o == POSITIVE:
            return (Vertex(p, q), Vertex(p + 1, q), Vertex(p, q + 1))
        return (Vertex(p, q), Vertex(p + 1, q), Vertex(p + 1, q - 1))

    def translate(self, a: int, b: int) -> "Triangle":
        return Triangle(self.v1 - 3 * b, self.v2 + 3 * (a + b), self.v3 - 3 * a)


def line_of(seg: Seg) -> Line:
    """The grid line the segment lies on."""
    if seg.d == 1:
        return Line(1, 1 - 3 * seg.q)
    if seg.d == 2:
        return Line(2, 3 * (seg.p + seg.q) - 2)
    return Line(3, 1 - 3 * seg.p)


def layer_of(seg: Seg) -> int:
    """Layer index k: the line value has 2-adic valuation k-1."""
    return v2(line_of(seg).v) + 1


def adjacent_unit_triangles(seg: Seg) -> tuple[Triangle, Triangle]:
    """The (positive, negative) unit triangles sharing the segment."""
    d, p, q = seg
    if d == 1:
        pos = Triangle.unit_from_anchor(POSITIVE, p, q)
        neg = Triangle.unit_from_anchor(NEGATIVE, p, q)
    elif d == 2:
        pos = Triangle.unit_from_anchor(POSITIVE, p, q - 1)
        neg = Triangle.unit_from_anchor(NEGATIVE, p, q)
    else:
        pos = Triangle.unit_from_anchor(POSITIVE, p, q)
        neg = Triangle.unit_from_anchor(NEGATIVE, p - 1, q + 1)
    return pos, neg


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
    d, p, q = seg
    v = 1 - 3 * q if d == 1 else 3 * (p + q) - 2 if d == 2 else 1 - 3 * p
    k, (positive,) = layer_kernel(d, v, (-1 - 6 * (q if d == 3 else p),))
    return k, positive


def layer_triangle_orientation(seg: Seg) -> int:
    """Orientation of the layer-k triangle having seg on its boundary."""
    return POSITIVE if layer_data(seg)[1] else NEGATIVE


def layer_triangle_of(seg: Seg) -> Triangle:
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
    return Triangle(*vals)


# -- reflections and dilations -------------------------------------------

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


def reflect_line(line: Line, mirror: Line) -> Line:
    d, V = mirror
    if line.d == d:
        return Line(d, 2 * V - line.v)
    (other,) = [i for i in (1, 2, 3) if i != d and i != line.d]
    return Line(other, -line.v - V)


def reflect(obj, mirror: Line):
    """Mirror image of a vertex, segment or line across a grid line."""
    if isinstance(obj, Vertex):
        return reflect_vertex(obj, mirror)
    if isinstance(obj, Seg):
        return reflect_segment(obj, mirror)
    if isinstance(obj, Line):
        return reflect_line(obj, mirror)
    raise TypeError(f"cannot reflect {type(obj).__name__}")


def dilate(obj, factor: int):
    """Dilation about O; factor must be 1 (mod 3) to preserve the grid."""
    if factor % 3 != 1:
        raise ValueError("grid dilations need factor = 1 (mod 3)")
    if isinstance(obj, Line):
        return Line(obj.d, factor * obj.v)
    if isinstance(obj, Vertex):
        f = obj.functionals()
        return Vertex.from_functionals(factor * f[0], factor * f[2])
    if isinstance(obj, Triangle):
        return Triangle(factor * obj.v1, factor * obj.v2, factor * obj.v3)
    if isinstance(obj, Seg):
        raise TypeError("a dilated unit segment is not a unit segment")
    raise TypeError(f"cannot dilate {type(obj).__name__}")


# -- windows ---------------------------------------------------------------

def line_segments(d: int, v: int, first: int, last: int) -> tuple[int, int, list[Seg], range]:
    """(d, v, segments, mids) for the segments joining vertices first..last
    on {f_d = v}; ``mids`` are their doubled f_j, -1 - 6t, for layer_kernel."""
    c, ts = (v + 2) // 3 if d == 2 else (1 - v) // 3, range(first, last)
    segs = ([Seg(1, t, c) for t in ts] if d == 1 else
            [Seg(2, t, c - t) for t in ts] if d == 2 else [Seg(3, c, t) for t in ts])
    return d, v, segs, range(-1 - 6 * first, -1 - 6 * last, -6)


def segment_rows(extents: Iterable[tuple[int, int, int, int]]
                 ) -> tuple[dict[int, tuple[int, int]], ...]:
    """Per direction d, {q: (first, stop)}: the window's segments Seg(d, p, q)
    on anchor row q are p = first..stop-1, those with both ends inside.

    Everything follows from the vertex extents of the direction-1 lines
    (the rows): Seg(1, p, q) needs p and p+1 on row q, Seg(2, p, q)
    needs p on row q and p+1 on row q-1, Seg(3, p, q) needs p on rows q
    and q+1.  Rows without segments are left out.
    """
    verts = {(1 - v) // 3: (a, b + 1) for d, v, a, b in extents if d == 1}
    rows: tuple[dict[int, tuple[int, int]], ...] = ({}, {}, {})
    for q in sorted(verts):
        a, b = verts[q]
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


def tile_rows(rows: tuple[dict[int, tuple[int, int]], ...]
              ) -> Iterator[tuple[int, int, int, int]]:
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


def tile_anchors(extents: Iterable[tuple[int, int, int, int]]) -> Iterator[tuple[int, int, int]]:
    """(orientation, p, q) of the unit tiles on the extents' rows."""
    for o, q, first, stop in tile_rows(segment_rows(extents)):
        for p in range(first, stop):
            yield o, p, q


class TriRegion(NamedTuple):
    """Triangular window with side lines (w1, w2, w3).

    Positive (value sum +3*side) means {f_d <= w_d}; negative means
    {f_d >= w_d}.  A segment is interior when its midpoint is strictly
    inside, and boundary when it lies on a side line within the side's
    extent; midpoint tests use doubled functionals to stay integral.
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

    def is_boundary(self, seg: Seg) -> bool:
        mids = seg.doubled_midpoint()
        sign = self.orientation
        on_own = False
        for m, w in zip(mids, self):
            if m == 2 * w:
                if on_own:
                    return False
                on_own = True
            elif sign * m > sign * 2 * w:
                return False
        return on_own

    def _extents(self, rows: range) -> Iterator[tuple[int, int, int, int]]:
        """(d, v, first, last) for the i-th line in from each side, i in
        rows: side - i + 1 vertices, i = 0 being the side line itself."""
        sign = self.orientation
        for d, j, l in ((1, 3, 2), (2, 3, 1), (3, 1, 2)):
            wd, wj, wl = self[d - 1], self[j - 1], self[l - 1]
            for i in rows:
                v = wd - 3 * sign * i
                a, b = (1 - wj) // 3, (v + wl + 1) // 3
                yield (d, v, a, b) if sign == POSITIVE else (d, v, b, a)

    def line_extents(self) -> Iterator[tuple[int, int, int, int]]:
        """(d, v, first, last) for every grid line meeting the closed window."""
        return self._extents(range(self.side + 1))

    def iter_interior_lines(self) -> Iterator[tuple[int, int, list[Seg], range]]:
        """(d, v, segments, mids) for each grid line through the interior."""
        return (line_segments(*e) for e in self._extents(range(1, self.side)))

    def iter_boundary_lines(self) -> Iterator[tuple[int, int, list[Seg], range]]:
        """(d, v, segments, mids) for the three side lines."""
        return (line_segments(*e) for e in self._extents(range(1)))

    def iter_interior_segments(self) -> Iterator[Seg]:
        return chain.from_iterable(segs for _, _, segs, _ in self.iter_interior_lines())

    def iter_boundary_segments(self) -> Iterator[Seg]:
        return chain.from_iterable(segs for _, _, segs, _ in self.iter_boundary_lines())

    def iter_tile_anchors(self) -> Iterator[tuple[int, int, int]]:
        """(orientation, p, q) of every unit triangle in the window."""
        return tile_anchors(self.line_extents())

    def segment_rows(self) -> tuple[dict[int, tuple[int, int]], ...]:
        return segment_rows(self.line_extents())

    def side_anchors(self) -> tuple[int, int, int]:
        """(q1, c2, p3): the boundary is anchor row q1 in direction 1, the
        anchors with p + q = c2 in direction 2 and column p3 in direction 3."""
        return (1 - self.w1) // 3, (self.w2 + 2) // 3, (1 - self.w3) // 3

    def contains_ball_of_radius(self, r: int) -> bool:
        return self.side * self.side >= 12 * r * r

    def erode(self, rows: int) -> "TriRegion":
        sign = self.orientation
        return TriRegion(self.w1 - 3 * rows * sign,
                         self.w2 - 3 * rows * sign,
                         self.w3 - 3 * rows * sign)


class BallRegion(NamedTuple):
    """Ball window of integer radius centered at O.

    A segment belongs to the window when both endpoints are within the
    radius; there are no flagged boundary segments.
    """

    radius: int

    @property
    def orientation(self) -> int:
        return 0

    def contains_vertex(self, vert: Vertex) -> bool:
        return vert.norm_sq_times_12() <= 12 * self.radius * self.radius

    def contains_interior(self, seg: Seg) -> bool:
        a, b = seg.endpoints()
        return self.contains_vertex(a) and self.contains_vertex(b)

    def is_boundary(self, seg: Seg) -> bool:
        return False

    def line_extents(self) -> Iterator[tuple[int, int, int, int]]:
        """(d, v, first, last) for every grid line meeting the ball:
        |2g + v| <= isqrt(36r^2 - 3v^2) at the vertices' g = 1 - 3t."""
        bound = 36 * self.radius * self.radius
        top = isqrt(bound // 3)
        for d in (1, 2, 3):
            for v in range(-top + (top + 1) % 3, top + 1, 3):
                m = isqrt(bound - 3 * v * v)
                first, last = (v + 7 - m) // 6, (v + 2 + m) // 6
                if first <= last:
                    yield d, v, first, last

    def iter_interior_lines(self) -> Iterator[tuple[int, int, list[Seg], range]]:
        """(d, v, segments, mids) for each grid line holding a ball segment."""
        return (line_segments(*e) for e in self.line_extents() if e[2] < e[3])

    def iter_interior_segments(self) -> Iterator[Seg]:
        return chain.from_iterable(segs for _, _, segs, _ in self.iter_interior_lines())

    def iter_boundary_segments(self) -> Iterator[Seg]:
        return iter(())

    def iter_tile_anchors(self) -> Iterator[tuple[int, int, int]]:
        return tile_anchors(self.line_extents())

    def segment_rows(self) -> tuple[dict[int, tuple[int, int]], ...]:
        return segment_rows(self.line_extents())

    def side_anchors(self) -> None:
        """A ball has no sides."""
        return None

    def contains_ball_of_radius(self, r: int) -> bool:
        return self.radius >= r

    def erode(self, units: int) -> "BallRegion":
        return BallRegion(max(self.radius - units, 0))


Region = TriRegion | BallRegion


def standard_region(k: int) -> TriRegion:
    """The side-2^k pattern triangle centered at O (positive iff k even)."""
    v = (-2) ** k
    return TriRegion(v, v, v)

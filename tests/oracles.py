"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's layer/orientation arithmetic:
layer triangles are found by enumerating all value triples with the
right 2-adic valuation and side length, and their boundary segments by
walking the triangle's corners.  Window segments are found by testing
every segment in the window's bounding box.
"""

from __future__ import annotations

from trifold.lattice import Seg, Triangle, TriRegion, Vertex, seg_between


def v2_slow(n: int) -> int:
    n = abs(n)
    k = 0
    while n % 2 == 0:
        n //= 2
        k += 1
    return k


def _corner(f1: int, f3: int) -> Vertex:
    return Vertex.from_functionals(f1, f3)


def triangle_boundary_segments(tri: Triangle) -> list[Seg]:
    """Unit segments on the boundary of any grid triangle."""
    s = tri.side
    c12 = _corner(tri.v1, -tri.v1 - tri.v2)
    c13 = _corner(tri.v1, tri.v3)
    c23 = _corner(-tri.v2 - tri.v3, tri.v3)
    segs = []
    for a, b in ((c12, c13), (c12, c23), (c13, c23)):
        dp = (b.p - a.p) // s
        dq = (b.q - a.q) // s
        for i in range(s):
            u = Vertex(a.p + i * dp, a.q + i * dq)
            w = Vertex(a.p + (i + 1) * dp, a.q + (i + 1) * dq)
            segs.append(seg_between(u, w))
    return segs


def brute_layer_triangles(k: int, value_bound: int) -> dict[Seg, Triangle]:
    """Map from each segment of a layer-k line to its layer-k triangle,
    for all layer-k triangles with side values within the bound."""
    s = 2 ** (k - 1)
    vals = [v for v in range(-value_bound, value_bound + 1)
            if v % 3 == 1 % 3 and v != 0 and v2_slow(v) == k - 1]
    valset = set(vals)
    out: dict[Seg, Triangle] = {}
    for a in vals:
        for b in vals:
            for total in (3 * s, -3 * s):
                c = total - a - b
                if c in valset:
                    tri = Triangle(a, b, c)
                    for seg in triangle_boundary_segments(tri):
                        assert seg not in out, f"{seg} in two layer-{k} triangles"
                        out[seg] = tri
    return out


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
                elif region.is_boundary(seg):
                    boundary.add(seg)
    return interior, boundary

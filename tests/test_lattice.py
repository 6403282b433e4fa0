import itertools
import random

import pytest

from oracles import (
    AROUND,
    brute_layer_triangles,
    incident_segments,
    is_boundary,
    layer_triangle_of,
    norm_sq_times_12,
    reflect_line,
    scan_ball,
    scan_region_segments,
    scan_region_tiles,
    unit_triangle,
    unit_vertices,
    v2_slow,
)
from trifold.errors import MalformedLayer
from trifold.lattice import (
    NEGATIVE,
    POSITIVE,
    TILE_VERTICES,
    BallRegion,
    Line,
    Seg,
    TriRegion,
    Vertex,
    layer_data,
    layer_kernel,
    layer_of,
    line_of,
    line_position,
    reflect_segment,
    reflect_vertex,
    seg_between,
    segment_at,
    standard_region,
    unit_tile_segments,
    v2,
)

RNG = random.Random(7)


def test_vertex_functional_identities():
    for _ in range(200):
        v = Vertex(RNG.randint(-50, 50), RNG.randint(-50, 50))
        f1, f2, f3 = v.functionals()
        assert f1 + f2 + f3 == 0
        assert f1 % 3 == f2 % 3 == f3 % 3 == 1
        assert Vertex.from_functionals(f1, f3) == v


def test_t0_is_unit_positive_centered():
    t0 = TriRegion(1, 1, 1)
    assert t0.orientation == POSITIVE and t0.side == 1
    assert unit_vertices(t0) == (Vertex(0, 0), Vertex(1, 0), Vertex(0, 1))
    xs = [v.xy() for v in unit_vertices(t0)]
    assert abs(sum(x for x, _ in xs)) < 1e-12
    assert abs(sum(y for _, y in xs)) < 1e-12


def test_tile_tables_fit_together():
    center = Vertex(0, 0)
    ccw = [Vertex(1, 0), Vertex(0, 1), Vertex(-1, 1), Vertex(-1, 0), Vertex(0, -1), Vertex(1, -1)]
    spokes = incident_segments(center)
    assert spokes == tuple(seg_between(center, v) for v in ccw)
    for o in (POSITIVE, NEGATIVE):
        tri = unit_triangle(o, 2, -3)
        corners = tuple(Vertex(2 + dp, -3 + dq) for dp, dq in TILE_VERTICES[o])
        assert corners == unit_vertices(tri)
        # a corner lies on exactly two of the triangle's side lines
        assert len(set(corners)) == 3
        assert all(sum(f == w for f, w in zip(v.functionals(), tri)) == 2 for v in corners)
        sides = unit_tile_segments(o, 2, -3)
        assert [s.d for s in sides] == [1, 2, 3]
        assert set(sides) == {seg_between(a, b) for a, b in itertools.combinations(corners, 2)}
    # tile i around a vertex has the vertex as a corner, spokes i and
    # i + 1 and its outer side as its sides
    for i, (o, a, b, outer) in enumerate(AROUND):
        assert center in unit_vertices(unit_triangle(o, a, b))
        assert set(unit_tile_segments(o, a, b)) == {spokes[i], spokes[(i + 1) % 6], Seg(*outer)}
    assert len({(o, a, b) for o, a, b, _ in AROUND}) == 6


def test_line_position_and_segment_at_are_inverse():
    for _ in range(300):
        seg = Seg(RNG.randint(1, 3), RNG.randint(-40, 40), RNG.randint(-40, 40))
        v, t = line_position(seg)
        assert line_of(seg) == Line(seg.d, v) and segment_at(seg.d, v, t) == seg
        # the next position along the line is the adjacent segment on it
        nxt = segment_at(seg.d, v, t + 1)
        assert line_of(nxt) == line_of(seg) and set(seg.endpoints()) & set(nxt.endpoints())


def test_line_of_examples():
    assert line_of(Seg(1, 0, 0)) == Line(1, 1)
    assert line_of(Seg(3, 0, 0)) == Line(3, 1)
    assert line_of(Seg(1, 0, 1)) == Line(1, -2)


def test_layer_of_examples():
    assert layer_of(Seg(1, 0, 0)) == 1   # value 1
    assert layer_of(Seg(1, 0, 1)) == 2   # value -2
    assert layer_of(Seg(1, 0, -1)) == 3  # value 4
    assert v2(1) == 0 and v2(-2) == 1 and v2(4) == 2


def test_layer_partition_of_line_values():
    for v in range(-200, 200):
        if v % 3 == 1 % 3 and v != 0:
            assert v2(v) == v2_slow(v)
            assert layer_of(Seg(1, 0, (1 - v) // 3)) == v2(v) + 1


def test_layer_triangle_on_t0_sides():
    for seg in unit_tile_segments(POSITIVE, 0, 0):
        assert layer_data(seg)[1]
        assert layer_triangle_of(seg) == TriRegion(1, 1, 1)


def test_layer_triangle_against_brute_force_radius_64():
    # radius-64 functionals stay within +-222 (layers 1..8); a layer-k
    # triangle's far sides reach another 3*2^k beyond that
    oracle = {}
    for k in range(1, 9):
        oracle.update(brute_layer_triangles(k, 232 + 3 * 2 ** k))
    window = BallRegion(64)
    checked = 0
    for seg in window.iter_interior_segments():
        tri = oracle[seg]
        assert layer_triangle_of(seg) == tri
        assert layer_data(seg)[1] == (tri.orientation == POSITIVE)
        checked += 1
    assert checked > 40000


def test_layer_orientation_never_malformed_radius_128():
    for seg in BallRegion(128).iter_interior_segments():
        layer_data(seg)  # must not raise


def test_reflect_fixed_line_and_point():
    line = Line(1, 1)
    assert reflect_line(line, line) == line
    assert reflect_vertex(Vertex(0, 0), Line(2, -2)) == Vertex(0, 0)  # on the line


def test_reflect_direction_swap_rule():
    # direction-2 line about a direction-1 mirror lands on direction 3
    # with value -(c) - V
    for c, V in ((1, 1), (-5, -2), (7, 4), (10, -2)):
        if c % 3 == 1 % 3 and V % 3 == 1 % 3:
            img = reflect_line(Line(2, c), Line(1, V))
            assert img == Line(3, -c - V)


def test_reflect_segment_involution_and_line():
    for _ in range(200):
        seg = Seg(RNG.choice((1, 2, 3)), RNG.randint(-20, 20), RNG.randint(-20, 20))
        mirror = Line(RNG.choice((1, 2, 3)), RNG.choice((1, -2, 4, -5, 7)))
        img = reflect_segment(seg, mirror)
        assert reflect_segment(img, mirror) == seg
        assert line_of(img) == reflect_line(line_of(seg), mirror)


def test_reflection_preserves_layer_when_mirror_is_deeper():
    # mirror value with strictly larger valuation keeps each layer fixed
    for k in (1, 2, 3):
        for mv in (4, -8, 16):
            if v2(mv) > k - 1:
                for v in (1, -5, -2, 10, 4, -20):
                    if v % 3 == 1 % 3 and v2(v) == k - 1:
                        for d in (1, 2, 3):
                            for md in (1, 2, 3):
                                img = reflect_line(Line(d, v), Line(md, mv))
                                assert v2(img.v) == k - 1


def test_seg_between_roundtrip():
    for _ in range(100):
        seg = Seg(RNG.choice((1, 2, 3)), RNG.randint(-20, 20), RNG.randint(-20, 20))
        a, b = seg.endpoints()
        assert seg_between(a, b) == seg
        assert seg_between(b, a) == seg


def test_standard_region_orientation_alternates():
    for k in range(0, 7):
        region = standard_region(k)
        assert region.side == 2 ** k
        assert region.orientation == (POSITIVE if k % 2 == 0 else NEGATIVE)


def test_region_interior_boundary_segment_counts():
    for k in (1, 2, 3, 4):
        region = standard_region(k)
        n = 2 ** k
        interior = list(region.iter_interior_segments())
        boundary = list(region.iter_boundary_segments())
        assert len(boundary) == 3 * n
        assert len(interior) == 3 * n * (n - 1) // 2
        assert len(set(interior)) == len(interior)
        for seg in interior:
            assert region.contains_interior(seg)
            assert not is_boundary(region, seg)
        for seg in boundary:
            assert is_boundary(region, seg)
            assert not region.contains_interior(seg)


def test_region_tile_enumeration_matches_side_square():
    for region in (standard_region(2), standard_region(3),
                   TriRegion(1, -5, -2), TriRegion(4, 16, -11)):
        tiles = [unit_triangle(*a) for a in region.iter_tile_anchors()]
        assert len(tiles) == region.side ** 2
        assert len(set(tiles)) == len(tiles)
        ups = sum(1 for t in tiles if t.orientation == POSITIVE)
        downs = len(tiles) - ups
        s = region.side
        if region.orientation == POSITIVE:
            assert (ups, downs) == (s * (s + 1) // 2, s * (s - 1) // 2)
        else:
            assert (downs, ups) == (s * (s + 1) // 2, s * (s - 1) // 2)


def test_ball_region_segments_have_endpoints_inside():
    ball = BallRegion(10)
    for seg in ball.iter_interior_segments():
        for v in seg.endpoints():
            assert norm_sq_times_12(*v) <= 12 * 100


@pytest.mark.parametrize("region", [
    TriRegion(1, 1, 1), TriRegion(1, -2, -2), TriRegion(4, -2, 1), TriRegion(-2, -5, 4),
    standard_region(4), standard_region(5), TriRegion(7, -14, 22), TriRegion(-5, 4, -20),
], ids=["side1+", "side1-", "side1+off", "side1-off", "k4", "k5", "off+", "off-"])
def test_region_enumeration_matches_bounding_box_scan(region):
    interior, boundary = scan_region_segments(region)
    segs = list(region.iter_interior_segments())
    assert len(segs) == len(interior) and set(segs) == interior
    bnd = list(region.iter_boundary_segments())
    assert len(bnd) == 3 * region.side and set(bnd) == boundary


@pytest.mark.parametrize("radius", [*range(41), 48])
def test_ball_enumeration_matches_box_scan(radius):
    ball = BallRegion(radius)
    segs, tiles = scan_ball(radius)
    found = list(ball.iter_interior_segments())
    assert len(found) == len(segs) and set(found) == segs
    anchors = list(ball.iter_tile_anchors())
    assert len(anchors) == len(tiles) and set(anchors) == tiles


def _vertices(region) -> set[tuple[int, int]]:
    return {(p, q) for q, (first, stop) in region.vertex_rows().items() for p in range(first, stop)}


def test_erosion_stays_inside_and_empties_past_the_center():
    for side in range(0, 12):
        for sign in (1, -1):
            for a, b in ((0, 0), (3, -2), (-5, 4)):
                w1, w3 = 1 - 3 * b, 1 - 3 * a
                region = TriRegion(w1, sign * 3 * side - w1 - w3, w3)
                interior = set(region.iter_interior_segments())
                vertices = _vertices(region)
                for rows in range(0, side + 3):
                    eroded = set(region.erode(rows).iter_interior_segments())
                    assert eroded <= interior
                    assert _vertices(region.erode(rows)) <= vertices
                    if 3 * rows >= side:
                        assert not eroded
                    else:
                        assert region.erode(rows).side == side - 3 * rows
                        assert region.erode(rows).orientation == region.orientation


def test_tile_rule_matches_box_scan_on_triangles():
    for side in range(1, 9):
        for sign in (1, -1):
            for a, b in ((0, 0), (3, -2), (-5, 4), (2, 5)):
                w1, w3 = 1 - 3 * b, 1 - 3 * a
                region = TriRegion(w1, sign * 3 * side - w1 - w3, w3)
                anchors = list(region.iter_tile_anchors())
                assert len(anchors) == side * side
                assert set(anchors) == scan_region_tiles(region)


def test_layer_kernel_rejects_off_grid_lines():
    # line f1 = 4 carries Seg(1, p, -1) at doubled midpoint f3 = -1 - 6p
    want = [layer_data(Seg(1, p, -1))[1] for p in range(-4, 4)]
    assert layer_kernel(1, 4, [-1 - 6 * p for p in range(-4, 4)]) == (3, want)
    for v in (2, 3, 5, -1, 6):
        with pytest.raises(MalformedLayer):
            layer_kernel(1, v, [-1])


def test_malformed_layer_is_internal_only():
    # the resolver is total on real segments; the error type exists for
    # defensive checks only
    assert issubclass(MalformedLayer, Exception)

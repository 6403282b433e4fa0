import dataclasses
import itertools
import random

import pytest

from trifold.errors import IncompatibleSequences, OutOfRegion
from trifold.folding import (
    Color,
    FoldingSequence,
    PatternPatch,
    ball_patch,
    color_of_segment,
    interior_mismatches,
    patch,
    recolor,
)
from trifold.lattice import BallRegion, Seg, TriRegion, Vertex, layer_of, standard_region

RNG = random.Random(11)
ALL_UP = FoldingSequence.parse("(+)*")


def test_sequence_parsing():
    assert FoldingSequence.parse("+-+").word == "+-+"
    assert not FoldingSequence.parse("+-+").periodic
    s = FoldingSequence.parse("(+-)*")
    assert s.periodic and s.word == "+-"
    assert str(s) == "(+-)*"
    assert [s.a(k) for k in (1, 2, 3, 4)] == ["+", "-", "+", "-"]
    with pytest.raises(ValueError):
        FoldingSequence.parse("+x")
    with pytest.raises(OutOfRegion):
        FoldingSequence("+-").a(3)


def test_callback_sequence():
    s = FoldingSequence(fn=lambda k: "+" if k % 2 else "-")
    assert s.a(1) == "+" and s.a(2) == "-"
    assert s.defined_through(10 ** 6)


def test_t0_sides_red_for_all_up():
    for seg in (Seg(1, 0, 0), Seg(2, 0, 1), Seg(3, 0, 0)):
        assert color_of_segment(ALL_UP, seg) is Color.RED


def test_first_fold_down_makes_t0_blue():
    s = FoldingSequence.parse("(-)*")
    assert color_of_segment(s, Seg(1, 0, 0)) is Color.BLUE


def test_even_layer_negative_triangle_red_for_all_up():
    # layer-2 segment attached to a negative layer triangle
    seg = Seg(2, 0, 0)  # line value -2, negative layer triangle
    assert layer_of(seg) == 2
    assert color_of_segment(ALL_UP, seg) is Color.RED


def test_finite_sequence_rejects_outside_queries():
    s = FoldingSequence("+")
    with pytest.raises(OutOfRegion):
        color_of_segment(s, Seg(1, 5, 5))
    with pytest.raises(OutOfRegion):
        patch(s, 2)
    with pytest.raises(OutOfRegion):
        ball_patch(s, 4)


def test_patch_size_one():
    p = patch(FoldingSequence("+"), 1)
    interior = p.interior_colors()
    assert set(interior) == {Seg(1, 0, 0), Seg(2, 0, 1), Seg(3, 0, 0)}
    assert all(c is Color.RED for c in interior.values())
    # |S| = k leaves the boundary unknown
    assert all(s not in p.colors for s in p.region.iter_boundary_segments())


def test_patch_zero_empty_interior():
    p = patch(ALL_UP, 0)
    assert not p.interior_colors()
    boundary = set(p.region.iter_boundary_segments())
    assert len(boundary) == 3 and all(s in p.colors for s in boundary)


def test_patch_boundary_colored_when_next_fold_known():
    p = patch(FoldingSequence("++"), 1)
    assert all(s in p.colors for s in p.region.iter_boundary_segments())


def test_central_pattern_stability():
    for n, m in ((1, 3), (2, 4), (3, 5)):
        small = patch(ALL_UP, n)
        large = patch(ALL_UP, m)
        for seg, col in small.interior_items():
            assert large.colors[seg] is col


def test_pattern_has_threefold_symmetry():
    # rotation by 2*pi/3 about O permutes functionals cyclically
    def rotate(seg):
        a, b = seg.endpoints()

        def rot(v: Vertex) -> Vertex:
            f1, f2, f3 = v.functionals()
            return Vertex.from_functionals(f3, f2)

        from trifold.lattice import seg_between
        return seg_between(rot(a), rot(b))

    p = patch(FoldingSequence.parse("(+-)*"), 4)
    interior = p.interior_colors()
    for seg, col in interior.items():
        img = rotate(seg)
        if img in interior:
            assert interior[img] is col


def test_ball_patch_layers_match_triangle_patch():
    pb = ball_patch(FoldingSequence.parse("(+--)*"), 12)
    pt = patch(FoldingSequence.parse("(+--)*"), 6)
    boundary = set(pt.region.iter_boundary_segments())
    for seg, col in pb.colors.items():
        if seg in pt.colors and seg not in boundary:
            assert pt.colors[seg] is col


def test_ball_guard_raises_iff_a_segment_leaves_the_shell():
    from oracles import scan_ball
    for n in range(1, 7):
        shell = standard_region(n)
        for radius in range(2 ** n // 3 + 4):
            segs, _ = scan_ball(radius)
            outside = any(not shell.contains_interior(s) for s in segs)
            for word in (("+-" * n)[:n], ("-+" * n)[:n]):
                seq = FoldingSequence(word)
                if outside:
                    with pytest.raises(OutOfRegion):
                        ball_patch(seq, radius)
                else:
                    want = {s: color_of_segment(seq, s) for s in segs}
                    assert ball_patch(seq, radius).colors == want


def test_recolor_identity_and_single_layer_flip():
    p = ball_patch(ALL_UP, 12)
    same = recolor(p, ALL_UP, ALL_UP)
    assert not interior_mismatches(p, same)

    flipped = FoldingSequence(fn=lambda k: "-" if k == 1 else "+")
    q = recolor(p, ALL_UP, flipped)
    for seg, col in p.colors.items():
        want = col.swapped if layer_of(seg) == 1 else col
        assert q.colors[seg] is want


def test_recolor_matches_direct_generation():
    for _ in range(5):
        word = "".join(RNG.choice("+-") for _ in range(10))
        tail = word[3:]
        other = "".join(RNG.choice("+-") for _ in range(3)) + tail
        s, r = FoldingSequence(word), FoldingSequence(other)
        src = ball_patch(s, 16)
        assert not interior_mismatches(recolor(src, s, r), ball_patch(r, 16))


def test_recolor_incompatible_periodic_words():
    p = patch(ALL_UP, 2)
    with pytest.raises(IncompatibleSequences):
        recolor(p, ALL_UP, FoldingSequence.parse("(-)*"))
    # equal tails written differently are fine
    out = recolor(p, ALL_UP, FoldingSequence.parse("(++)*"))
    assert not interior_mismatches(out, p)


@pytest.mark.parametrize("seq", [
    FoldingSequence("+--+-++-"),
    FoldingSequence.parse("(+--)*"),
    FoldingSequence(fn=lambda k: "+" if bin(k).count("1") % 2 else "-"),
], ids=["finite", "periodic", "callback"])
def test_patch_matches_per_segment_colors(seq):
    # the line-by-line painter against the one-segment form
    for k in range(8):
        p = patch(seq, k)
        region = standard_region(k)
        want = {s: color_of_segment(seq, s) for s in region.iter_interior_segments()}
        want.update((s, color_of_segment(seq, s)) for s in region.iter_boundary_segments())
        assert p.colors == want


def test_patch_boundary_comes_from_region():
    assert [f.name for f in dataclasses.fields(PatternPatch)] == ["region", "colors"]
    # the interior leaves out exactly the region's side segments
    for region in (standard_region(3), TriRegion(7, -14, 22), BallRegion(4)):
        every = {s: Color.RED for r in (region.iter_interior_segments(),
                                         region.iter_boundary_segments()) for s in r}
        left_out = every.keys() - PatternPatch(region, every).interior_colors().keys()
        assert left_out == set(region.iter_boundary_segments())


def test_line_alternation_blocks():
    from trifold.analysis import layer_block_check
    p = ball_patch(ALL_UP, 32)
    for k in (1, 2, 3):
        assert layer_block_check(p, k)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_agreement_with_unfolder(k):
    from trifold.unfold import unfold_pattern, uniform_word
    for bits in itertools.product("+-", repeat=k):
        word = "".join(bits)
        a = patch(FoldingSequence(word), k)
        b = unfold_pattern(uniform_word(word))
        assert not interior_mismatches(a, b)

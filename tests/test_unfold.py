import itertools

import pytest

from trifold.errors import OrientationMismatch
from trifold.folding import Color, FoldingSequence, PatternPatch, patch
from trifold.lattice import Line, Seg, reflect_segment, standard_region
from trifold.unfold import parse_mixed_word, unfold_once, unfold_pattern, uniform, uniform_word


def test_parse_mixed_word():
    assert parse_mixed_word("++-,+++") == [("+", "+", "-"), ("+", "+", "+")]
    with pytest.raises(ValueError):
        parse_mixed_word("++")
    assert uniform_word("+-") == [("+",) * 3, ("-",) * 3]


def test_single_unfold_up_gives_three_red_segments():
    p = unfold_pattern([uniform("+")])
    assert p.region == standard_region(1)
    interior = p.interior_colors()
    assert set(interior) == {Seg(1, 0, 0), Seg(2, 0, 1), Seg(3, 0, 0)}
    assert all(c is Color.RED for c in interior.values())


def test_single_unfold_down_gives_blue():
    p = unfold_pattern([uniform("-")])
    assert all(c is Color.BLUE for c in p.interior_colors().values())


def test_unfold_requires_centered_patch():
    from trifold.lattice import TriRegion
    bad = PatternPatch(TriRegion(1, 4, 1), {})  # side 2, but not centered
    with pytest.raises(OrientationMismatch):
        unfold_once(bad, uniform("+"))


def test_region_orientation_alternates():
    p = unfold_pattern([])
    for fold in uniform_word("+-+"):
        k = p.region.side.bit_length() - 1
        assert p.region == standard_region(k)
        p = unfold_once(p, fold)
    assert p.region == standard_region(3)


def test_unfold_preserves_central_part():
    small = unfold_pattern(uniform_word("+-"))
    large = unfold_once(small, uniform("+"))
    for seg, col in small.interior_items():
        assert large.colors[seg] is col
    # the old boundary became the new crease, colored by the new fold
    for seg in small.region.iter_boundary_segments():
        assert large.colors[seg] is Color.RED


def test_side_parts_are_swapped_mirrors():
    p = unfold_pattern(uniform_word("++"))
    inner = standard_region(1)
    mids = (-2) ** 1
    for d in (1, 2, 3):
        mirror = Line(d, mids)
        for seg, col in p.interior_items():
            if inner.contains_interior(seg):
                image = reflect_segment(seg, mirror)
                if image != seg:
                    assert p.colors[image] is col.swapped


def test_interior_count_recurrence():
    p = unfold_pattern([])
    count = 0
    for m, fold in enumerate(uniform_word("+-++")):
        p = unfold_once(p, fold)
        count = 4 * count + 3 * 2 ** m
        assert len(p.interior_colors()) == count


def test_full_equivalence_with_closed_form_length_5():
    for bits in itertools.product("+-", repeat=5):
        word = "".join(bits)
        a = patch(FoldingSequence(word), 5)
        b = unfold_pattern(uniform_word(word))
        assert dict(a.interior_items()) == dict(b.interior_items())


def test_mixed_fold_creases_follow_flaps():
    p = unfold_pattern([("+", "-", "+")])
    assert p.colors[Seg(1, 0, 0)] is Color.RED
    assert p.colors[Seg(2, 0, 1)] is Color.BLUE
    assert p.colors[Seg(3, 0, 0)] is Color.RED


def test_mixed_fold_breaks_vertex_rule_somewhere():
    from trifold.analysis import disallowed_stars
    found = False
    for f1 in itertools.product("+-", repeat=3):
        for f2 in itertools.product("+-", repeat=3):
            word = [tuple(f1), tuple(f2)]
            if any(len(set(f)) > 1 for f in word):
                if disallowed_stars(unfold_pattern(word)):
                    found = True
                    break
        if found:
            break
    assert found

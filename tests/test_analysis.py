import itertools
from fractions import Fraction

import pytest

from trifold.analysis import (
    decorated_type_counts,
    disallowed_stars,
    filter_layer,
    layer_block_check,
    period_check,
    star_allowed,
    star_class,
    tile_class_counts,
    vertex_star_histogram,
)
from trifold.errors import WindowTooSmall
from trifold.folding import Color, FoldingSequence, PatternPatch, ball_patch, patch
from trifold.lattice import BallRegion, Seg, Vertex, incident_segments
from trifold.spectral import word_matrix

ALL_UP = FoldingSequence.parse("(+)*")


def test_incident_segments_are_the_six_around():
    segs = incident_segments(Vertex(0, 0))
    assert len(set(segs)) == 6
    for s in segs:
        assert Vertex(0, 0) in s.endpoints()


def test_star_predicates():
    assert star_allowed("rrbbbb")
    assert star_allowed("brrrrb")  # blue pair wraps around
    assert not star_allowed("rbrbrb")
    assert not star_allowed("rrrbbb")
    assert not star_allowed("rbbrbb")
    assert star_class("bbbbrr") == star_class("rrbbbb")


def test_stars_all_allowed_for_uniform_words():
    for k in (2, 3, 4):
        for bits in itertools.product("+-", repeat=k):
            p = patch(FoldingSequence("".join(bits)), k)
            hist = vertex_star_histogram(p)
            assert hist and not disallowed_stars(p)


def test_empty_patch_has_empty_histogram():
    p = patch(FoldingSequence("+"), 0)
    assert vertex_star_histogram(p) == {}


def test_densities_match_matrix_counts():
    # side-16 window of the all-up pattern: counts are the printed
    # M_P^2 column 1
    p = patch(ALL_UP, 4)
    assert tile_class_counts(p) == (28, 54, 36, 18, 36, 27, 18, 39)
    counts = tile_class_counts(p)
    assert sum(counts) == 256
    assert counts[0] == 28


def test_densities_match_exact_vectors_more_scales():
    for n in (1, 2, 3):
        p = patch(ALL_UP, 2 * n)
        expected = tuple(int(x) for x in word_matrix("++").power(n).column(0))
        assert tile_class_counts(p) == expected


def test_decorated_types_have_equal_slots():
    p = patch(ALL_UP, 6)
    counts = decorated_type_counts(p)
    for o in (1, -1):
        for rc in (1, 2):
            assert counts[(o, rc, 1)] == counts[(o, rc, 2)] == counts[(o, rc, 3)]


def test_decorated_frequencies_approach_one_twentyfourth():
    p = patch(ALL_UP, 8)
    counts = decorated_type_counts(p)
    total = sum(counts.values())
    for key, n in counts.items():
        if key[2] is not None:
            assert abs(Fraction(n, total) - Fraction(1, 24)) < Fraction(1, 100)


def test_single_tile_window_degenerate_density():
    p = patch(ALL_UP, 0)  # just the central tile, boundary colored
    assert tile_class_counts(p) == (1,) + (0,) * 7


def test_period_check_empty_on_aperiodic_window():
    p = ball_patch(ALL_UP, 24)
    assert period_check(p, 3) == []


def test_period_check_window_too_small():
    p = ball_patch(ALL_UP, 8)
    with pytest.raises(WindowTooSmall):
        period_check(p, 8)


def test_layer_one_restriction_is_periodic():
    p = ball_patch(ALL_UP, 16)
    layer1 = filter_layer(p, 1)
    survivors = period_check(layer1, 2)
    assert (2, 0) in survivors and (0, 2) in survivors
    assert all(a % 2 == 0 and b % 2 == 0 for a, b in survivors)


def test_periodic_coloring_detects_fake_period():
    # color everything red: every candidate translation survives
    region = BallRegion(16)
    colors = {s: Color.RED for s in region.iter_interior_segments()}
    p = PatternPatch(region, colors)
    assert (1, 0) in period_check(p, 2)


def test_layer_block_check():
    p = ball_patch(ALL_UP, 32)
    for k in (1, 2, 3):
        assert layer_block_check(p, k)
    with pytest.raises(WindowTooSmall):
        layer_block_check(p, 6)


def test_layer_block_check_detects_corruption():
    p = ball_patch(ALL_UP, 16)
    seg = Seg(1, 0, 0)
    corrupted = dict(p.colors)
    corrupted[seg] = corrupted[seg].swapped
    assert not layer_block_check(PatternPatch(p.region, corrupted), 1)


def test_mixed_fold_pattern_has_disallowed_star():
    from trifold.unfold import unfold_pattern
    p = unfold_pattern([("+", "+", "-"), ("+", "+", "+")])
    assert disallowed_stars(p)

"""The row store behind PatternPatch.colors: the Mapping contract it
keeps, and properties checked against plain-dict oracles on random
words, triangles, translated triangles and balls."""

from collections import Counter
from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dict_filter_layer,
    dict_mismatches,
    dict_pattern,
    dict_period_check,
    dict_recolor,
    dict_translate,
    full_tiles,
    interior_colors,
    scan_ball,
    scan_region_tiles,
    tiles_by_lookup,
    translate_segment,
)
from trifold.analysis import decorated_type_counts, filter_layer, period_check, tile_class_counts
from trifold.errors import OutOfRegion, ParseError
from trifold.folding import (
    Color,
    FoldingSequence,
    PatternPatch,
    WindowColors,
    ball_patch,
    interior_mismatches,
    patch,
    recolor,
)
from trifold.lattice import BallRegion, Seg, TriRegion, standard_region
from trifold.patternio import read_pattern, write_pattern
from trifold.substitution import class_index
from trifold.tiling import decorate, to_tiling

ALL_UP = FoldingSequence.parse("(+)*")

# -- the Mapping contract ---------------------------------------------------


def test_view_is_a_read_only_mapping():
    p = patch(ALL_UP, 3)
    assert isinstance(p.colors, Mapping) and isinstance(p.colors, WindowColors)
    with pytest.raises(TypeError):
        p.colors[Seg(1, 0, 0)] = Color.BLUE
    with pytest.raises(TypeError):
        del p.colors[Seg(1, 0, 0)]
    assert p.colors[Seg(1, 0, 0)] is Color.RED


def test_view_equals_the_dict_it_replaces():
    for p in (patch(FoldingSequence.parse("(+-)*"), 4), ball_patch(ALL_UP, 7),
              patch(FoldingSequence("+-+"), 3)):
        plain = dict(p.colors)
        assert p.colors == plain and plain == p.colors
        assert dict(p.colors.items()) == plain and list(p.colors) == list(plain)
        assert sorted(p.colors.values(), key=lambda c: c.value) == sorted(
            plain.values(), key=lambda c: c.value)
        assert PatternPatch(p.region, plain).colors == p.colors
        changed = dict(plain)
        seg = next(iter(changed))
        changed[seg] = changed[seg].swapped
        assert p.colors != changed and p.colors != {}


def test_get_is_none_off_the_window_and_on_unknown_boundary():
    p = patch(FoldingSequence("+++"), 3)  # a_4 undefined: boundary unknown
    for seg in p.region.iter_boundary_segments():
        assert p.colors.get(seg) is None and seg not in p.colors
        with pytest.raises(KeyError):
            p.colors[seg]
    for off in (Seg(1, 100, 100), Seg(2, 0, 40), Seg(4, 0, 0), Seg(0, 0, 0), "1 0 0", None):
        assert p.colors.get(off) is None and off not in p.colors
    assert p.colors.get(Seg(1, 100, 100), Color.RED) is Color.RED


def test_len_counts_colored_boundary_and_leaves_out_unknown():
    interior = 3 * 8 * 7 // 2
    unknown = patch(FoldingSequence("+++"), 3)
    known = patch(FoldingSequence("++++"), 3)
    assert len(unknown.colors) == interior == len(list(unknown.colors))
    assert len(known.colors) == interior + 3 * 8 == len(list(known.colors))
    assert len(PatternPatch(BallRegion(5), {}).colors) == 0


def test_constructor_rejects_segments_off_the_window():
    with pytest.raises(OutOfRegion):
        PatternPatch(standard_region(1), {Seg(1, 50, 50): Color.RED})
    with pytest.raises(OutOfRegion):
        PatternPatch(BallRegion(2), {Seg(4, 0, 0): Color.RED})


def test_translate_recolor_and_filter_layer_match_dict_oracles():
    p = patch(FoldingSequence.parse("(+--)*"), 5)
    for a, b in ((0, 0), (3, -2), (-7, 11)):
        moved = p.translate(a, b)
        assert moved.region.vertex_rows() == {
            q + b: (first + a, stop + a) for q, (first, stop) in p.region.vertex_rows().items()}
        assert moved.colors == dict_translate(p.colors, a, b)
        assert set(moved.region.iter_boundary_segments()) == {
            translate_segment(s, a, b) for s in p.region.iter_boundary_segments()}

    src = FoldingSequence("+--+-++")
    for window in (patch(src, 6), ball_patch(src, 9)):
        for to in (FoldingSequence("-+-"), FoldingSequence("---+-++"),
                   FoldingSequence(fn=lambda k: "+" if k % 3 else "-")):
            assert recolor(window, src, to).colors == dict_recolor(window.colors, src, to)
        for k in range(1, 8):
            assert filter_layer(window, k).colors == dict_filter_layer(window.colors, k)


def test_recolor_past_the_source_sequence_raises():
    window = patch(FoldingSequence("++-+"), 3)  # the boundary is layer 4
    with pytest.raises(OutOfRegion):
        recolor(window, FoldingSequence("++-"), ALL_UP)
    # layers the target leaves out are dropped instead
    short = recolor(window, FoldingSequence("++-"), FoldingSequence("+-"))
    assert short.colors == dict_recolor(window.colors, FoldingSequence("++-"),
                                        FoldingSequence("+-"))


# -- properties against the dict oracles -------------------------------------

exact = settings(deadline=None, max_examples=40)
words = st.text(alphabet="+-", min_size=1, max_size=4)
periodic = words.map(lambda w: FoldingSequence(w, periodic=True))


@st.composite
def finite_windows(draw):
    word = draw(st.text(alphabet="+-", min_size=1, max_size=7))
    return FoldingSequence(word), standard_region(draw(st.integers(0, len(word))))


@st.composite
def translated_triangles(draw):
    side = draw(st.integers(1, 20))
    sign = draw(st.sampled_from((1, -1)))
    a, b = draw(st.integers(-30, 30)), draw(st.integers(-30, 30))
    w1, w3 = 1 - 3 * b, 1 - 3 * a
    return TriRegion(w1, sign * 3 * side - w1 - w3, w3)


def _painted(seq, region):
    if isinstance(region, BallRegion):
        return ball_patch(seq, region.radius)
    if region == standard_region(region.side.bit_length() - 1):
        return patch(seq, region.side.bit_length() - 1)
    return PatternPatch(region, dict_pattern(seq, region))


windows = st.one_of(
    st.tuples(periodic, st.integers(0, 7).map(standard_region)),
    finite_windows(),
    st.tuples(periodic, st.integers(0, 24).map(BallRegion)),
    st.tuples(periodic, translated_triangles()),
)


@exact
@given(windows)
def test_store_equals_the_dict_painter(window):
    seq, region = window
    p = _painted(seq, region)
    want = dict_pattern(seq, region)
    assert p.colors == want
    assert dict(p.colors.items()) == want and len(p.colors) == len(want)
    boundary = set(region.iter_boundary_segments())
    assert interior_colors(p) == {s: c for s, c in want.items() if s not in boundary}


@exact
@given(windows)
def test_write_read_write_is_byte_identical(window):
    p = _painted(*window)
    text = write_pattern(p, "s")
    back, seq = read_pattern(text)
    assert seq == "s" and back.region == p.region and back.colors == p.colors
    assert write_pattern(back, seq) == text


@exact
@given(windows)
def test_tile_counts_equal_a_per_tile_count(window):
    seq, region = window
    p = _painted(seq, region)
    anchors = scan_ball(region.radius)[1] if isinstance(region, BallRegion) else \
        scan_region_tiles(region)
    tiles = tiles_by_lookup(dict_pattern(seq, region), anchors)
    assert dict(full_tiles(p)) == tiles
    assert {a: tuple(tile) for a, tile in to_tiling(p).items()} == {
        a: decorate(sides) for a, sides in tiles.items()}
    types = Counter((o, *decorate(sides)) for (o, _, _), sides in tiles.items())
    assert decorated_type_counts(p) == dict(types)
    classes = [0] * 8
    for (o, reds, _), n in types.items():
        classes[class_index(o, reds)] += n
    assert tile_class_counts(p) == tuple(classes)


_TOKENS = st.sampled_from(["red", "blue", "unknown", "*", "x", "0", "-1", "4", "99", "", "1 2"])


@settings(deadline=None, max_examples=60)
@given(windows, st.sampled_from(("delete", "duplicate", "alter")), st.integers(0, 10 ** 6),
       st.integers(0, 4), _TOKENS)
def test_one_broken_record_only_raises_parse_error(window, how, pick, slot, token):
    p = _painted(*window)
    lines = write_pattern(p, "s").splitlines()
    if len(lines) == 3:
        return
    i = 3 + pick % (len(lines) - 3)
    if how == "delete":
        broken = lines[:i] + lines[i + 1:]
    elif how == "duplicate":
        broken = lines + [lines[i]]
    else:
        parts = lines[i].split()
        parts[slot % len(parts)] = token
        broken = lines[:i] + [" ".join(parts)] + lines[i + 1:]
    try:
        back, _ = read_pattern("\n".join(broken) + "\n")
    except ParseError as exc:
        assert exc.line is not None
        return
    assert how != "duplicate"
    if how == "delete":
        d, a, b = map(int, lines[i].split()[:3])
        gone = Seg(d, a, b)
        assert gone not in set(p.region.iter_boundary_segments())
        assert back.colors == {s: c for s, c in p.colors.items() if s != gone}


@exact
@given(windows, st.lists(st.integers(0, 10 ** 6), max_size=6), st.lists(st.integers(0, 10 ** 6), max_size=3))
def test_mismatches_equal_the_dict_compare(window, flips, drops):
    p = _painted(*window)
    colors = dict(p.colors)
    segs = sorted(colors)
    if not segs:
        return
    for i in flips:
        colors[segs[i % len(segs)]] = colors[segs[i % len(segs)]].swapped
    for i in drops:
        colors.pop(segs[i % len(segs)], None)
    q = PatternPatch(p.region, colors)
    want = dict_mismatches(interior_colors(p), interior_colors(q))
    assert interior_mismatches(p, q) == want
    assert interior_mismatches(q, p) == want
    other = patch(FoldingSequence.parse("(+)*"), 2)
    assert interior_mismatches(p, other) == dict_mismatches(interior_colors(p),
                                                            interior_colors(other))


@exact
@given(st.integers(4, 9), st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=3),
       st.booleans())
def test_period_check_equals_the_dict_check(radius, blues, holes):
    # all red but a few blue (or uncolored) segments: only translations
    # that move no blue segment onto a red one survive
    region = BallRegion(radius)
    colors = {s: Color.RED for s in region.iter_interior_segments()}
    segs = sorted(colors)
    for i in blues:
        if holes:
            colors.pop(segs[i % len(segs)], None)
        else:
            colors[segs[i % len(segs)]] = Color.BLUE
    p = PatternPatch(region, colors)
    assert period_check(p, radius // 2) == dict_period_check(colors, radius // 2)

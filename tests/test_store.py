"""The row store behind PatternPatch.colors: the Mapping contract it
keeps, and properties checked against plain-dict oracles on random
words, triangles, translated triangles and balls."""

import tracemalloc
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
    record_write_tiling,
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
from trifold.lattice import BallRegion, Seg, TriRegion, standard_region, tile_rows
from trifold import patternio
from trifold.patternio import read_pattern, read_tiling, write_pattern, write_tiling
from trifold.substitution import class_index
from trifold.tiling import DECORATIONS, Runs, anchor_rows, decorate, to_tiling

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


_SPELLINGS = ("canonical", "shuffled", "blank lines", "doubled spaces", "crlf",
              "no final newline", "bare seq")


@exact
@given(windows, st.sampled_from(_SPELLINGS), st.randoms(use_true_random=False))
def test_column_and_record_reads_agree(window, spelling, rng):
    # the canonical text and valid respellings of it read to the same
    # patch and seq whichever path takes them
    p = _painted(*window)
    seq = "" if spelling == "bare seq" else "s"
    magic, seq_line, region, *records = write_pattern(p, seq).splitlines()
    if spelling == "shuffled":
        rng.shuffle(records)
    elif spelling == "blank lines":
        for blank in ("", "  ", ""):
            records.insert(rng.randrange(len(records) + 1), blank)
    elif spelling == "doubled spaces":
        region, records = region.replace(" ", "  "), [r.replace(" ", "  ") for r in records]
    elif spelling == "bare seq":
        seq_line = "seq"
    lines = [magic, seq_line, region, *records]
    text = "\n".join(lines) + "\n"
    if spelling == "crlf":
        text = "\r\n".join(lines) + "\r\n"
    elif spelling == "no final newline":
        text = "\n".join(lines)
    back, got = read_pattern(text)
    slow, slow_seq = patternio._read_records(text)
    assert got == slow_seq == seq
    assert back.region == slow.region == p.region
    assert back.colors.rows == slow.colors.rows == p.colors.rows


def _no_record_reads(text):
    raise AssertionError("a canonical file was read record by record")


@exact
@given(windows, st.sampled_from(("s", "", "(+-)*", "+-,++-")))
def test_canonical_files_never_reach_the_record_reader(window, seq):
    # a silent fall back to the record reader would keep every result
    # and lose the column reader's speed
    p = _painted(*window)
    text = write_pattern(p, seq)
    with pytest.MonkeyPatch.context() as patcher:
        patcher.setattr(patternio, "_read_records", _no_record_reads)
        back, got = read_pattern(text)
    assert got == seq and back.region == p.region and back.colors.rows == p.colors.rows


@exact
@given(periodic, st.integers(1, 6), st.sampled_from(("colored", "unknown", "holed")),
       st.randoms(use_true_random=False))
def test_partly_unknown_sides_read_as_the_records_say(seq, k, side3, rng):
    # unknown direction-1 and direction-2 side segments sit at column
    # ends, where the column reader trims them; the direction-3 side is
    # one column, and a hole inside it is left to the record reader
    def unknown(seg):
        if seg.d != 3 or side3 == "holed":
            return rng.random() < 0.5
        return side3 == "unknown"

    full = patch(seq, k)
    drop = set(filter(unknown, full.region.iter_boundary_segments()))
    p = PatternPatch(full.region, {s: c for s, c in full.colors.items() if s not in drop})
    text = write_pattern(p, "s")
    with pytest.MonkeyPatch.context() as patcher:
        if side3 != "holed":
            patcher.setattr(patternio, "_read_records", _no_record_reads)
        back, _ = read_pattern(text)
    assert back.colors.rows == patternio._read_records(text)[0].colors.rows == p.colors.rows


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
@given(windows, st.booleans())
def test_tiling_write_read_write_is_byte_identical(window, header):
    p = _painted(*window)
    region = p.region if header else None
    tiles = to_tiling(p)
    text = write_tiling(tiles, "s", region)
    back, seq = read_tiling(text)
    assert seq == "s" and back == tiles
    assert write_tiling(back, seq, region) == text


_TILE_TOKENS = st.sampled_from(["P", "N", "Q", "0", "1", "2", "3", "4", "-1", "99", "x", "", "1 2"])


@settings(deadline=None, max_examples=60)
@given(windows, st.booleans(), st.sampled_from(("delete", "duplicate", "alter")),
       st.integers(0, 10 ** 6), st.integers(0, 4), _TILE_TOKENS)
def test_one_broken_tile_record_only_raises_parse_error(window, header, how, pick, slot, token):
    p = _painted(*window)
    tiles = to_tiling(p)
    lines = write_tiling(tiles, "s", p.region if header else None).splitlines()
    start = 3 if header else 2
    if len(lines) == start:
        return
    i = start + pick % (len(lines) - start)
    if how == "delete":
        broken = lines[:i] + lines[i + 1:]
    elif how == "duplicate":
        broken = lines + [lines[i]]
    else:
        parts = lines[i].split()
        parts[slot % len(parts)] = token
        broken = lines[:i] + [" ".join(parts)] + lines[i + 1:]
        if broken[i] == lines[i]:
            return
    try:
        back, _ = read_tiling("\n".join(broken) + "\n")
    except ParseError as exc:
        assert exc.line is not None
        return
    assert back != tiles


# -- tiling files: the column reader against the record reader -------------

def _tile_read(read, text):
    """A reader's tiling as a dict, and its seq; or its ParseError's text
    and line."""
    try:
        tiles, seq = read(text)
    except ParseError as exc:
        return str(exc), exc.line
    return dict(tiles), seq


@exact
@given(windows, st.booleans())
def test_tiling_column_and_record_reads_agree(window, header):
    # a finite word's boundary tiles are missing from its file, and so is
    # every tile of a file with no region header: those files must take
    # the record path; a file listing every tile of its region is read by
    # its layout, unless its triangle is below side 3 (as in a pattern
    # file, 3 * side records must fit)
    p = _painted(*window)
    tiles = to_tiling(p)
    text = write_tiling(tiles, "s", p.region if header else None)
    fast, slow = patternio._read_tile_columns(text), patternio._read_tile_records(text)
    assert slow == (tiles, "s")
    complete = header and len(tiles) == sum(
        stop - first for _, _, first, stop in tile_rows(p.region.segment_rows()))
    if fast is not None:
        assert complete and fast == slow
    assert fast is not None or not complete or p.region.side < 3


_MUTATIONS = ("count", "drop slot", "slot", "duplicate", "swap", "p", "q", "blank", "crlf")


@settings(deadline=None, max_examples=120)
@given(windows, st.sampled_from(_MUTATIONS), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       st.integers(1, 3))
def test_a_mutated_canonical_tiling_reads_as_its_records_say(window, how, pick, other, step):
    # whichever path takes a file with one line changed, the tiling, or
    # the ParseError text and line, is the record reader's
    p = _painted(*window)
    lines = write_tiling(to_tiling(p), "s", p.region).splitlines()
    if len(lines) == 3:
        return
    i, j = 3 + pick % (len(lines) - 3), 3 + other % (len(lines) - 3)
    kind, a, b, count, *slot = lines[i].split()
    line = {
        "count": [kind, a, b, str((int(count) + step) % 4), *slot],
        "drop slot": [kind, a, b, count],
        "slot": [kind, a, b, count, str(step)],
        "p": [kind, str(int(a) + step - 2), b, count, *slot],
        "q": [kind, a, str(int(b) + step - 2), count, *slot],
    }.get(how)
    if line is not None:
        lines[i] = " ".join(line)
    elif how == "duplicate":
        lines.insert(i, lines[i])
    elif how == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        lines.insert(i, "" if how == "blank" else lines.pop(i) + "\r")
    text = "\n".join(lines) + "\n"
    assert _tile_read(read_tiling, text) == _tile_read(patternio._read_tile_records, text)


@exact
@given(windows, st.lists(st.integers(0, 10 ** 6), max_size=8), st.booleans())
def test_tilings_with_holes_write_as_sorted_records(window, drops, header):
    # segments left out of a window leave holes in its tile rows, and a
    # tiling read record by record keeps its rows cut at the holes: both
    # write a column at a time what a record at a time writes
    p = _painted(*window)
    segs = sorted(p.colors)
    gone = {segs[i % len(segs)] for i in drops} if segs else set()
    holed = PatternPatch(p.region, {s: c for s, c in p.colors.items() if s not in gone})
    tiles = to_tiling(holed)
    region = holed.region if header else None
    text = write_tiling(tiles, "s", region)
    assert text == record_write_tiling(tiles, "s", region)
    back, _ = read_tiling(text)
    assert back == tiles and write_tiling(back, "s", region) == text


_TILE_CODES = [code for code, label in enumerate(DECORATIONS) if label]


@exact
@given(st.dictionaries(st.tuples(st.sampled_from((1, -1)),
                                 st.integers(-5, 5) | st.integers(-10 ** 9, 10 ** 9),
                                 st.integers(-5, 5)),
                       st.sampled_from(_TILE_CODES), max_size=40))
def test_any_tiling_writes_as_sorted_records(codes):
    # dense or sparse, as a file read record by record can be: a tiling
    # whose rows span a far larger box than its tiles is written a record
    # at a time, in memory its tiles size
    tiles = Runs(anchor_rows(codes))
    tracemalloc.start()
    try:
        text = write_tiling(tiles, "s")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == record_write_tiling(tiles, "s") and peak < 1_000_000


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

import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dict_reconstruct, unit_triangle, worklist_reconstruct
from trifold.errors import Inconsistent
from trifold.folding import COLOR_CODES, NO_COLOR, Color, FoldingSequence, ball_patch, patch
from trifold.lattice import NEGATIVE, POSITIVE, BallRegion, Seg, unit_tile_segments
from trifold.tiling import NO_TILE, Runs, reconstruct, strip_decoration, to_tiling

RNG = random.Random(3)
R, B = Color.RED, Color.BLUE


def test_to_tiling_decoration_rules():
    p = ball_patch(FoldingSequence.parse("(+)*"), 8)
    window = to_tiling(p)
    t0 = (POSITIVE, 0, 0)
    assert window[t0].red_count == 3 and window[t0].decoration is None
    for a, tile in window.items():
        cols = [p.colors[s] for s in unit_tile_segments(*a)]
        assert tile.red_count == sum(c is R for c in cols)
        if tile.red_count in (0, 3):
            assert tile.decoration is None
        elif tile.red_count == 2:
            assert cols[tile.decoration - 1] is B
        else:
            assert cols[tile.decoration - 1] is R


def test_strip_decoration_is_projection():
    p = ball_patch(FoldingSequence.parse("(+-)*"), 8)
    window = to_tiling(p)
    stripped = strip_decoration(window)
    assert set(stripped) == set(window)
    assert all(stripped[t] == window[t].red_count for t in window)


def test_sixteen_and_eight_translation_types():
    from trifold.analysis import decorated_type_counts, tile_class_counts
    p = patch(FoldingSequence.parse("(+)*"), 6)
    assert len(decorated_type_counts(p)) == 16
    assert all(c > 0 for c in tile_class_counts(p))


def _roundtrip(seq_text, radius):
    """Reconstruct a ball window from its red counts; every colored
    segment, the rim's too, must come back with its color and nothing
    else.  Returns the number of segments compared."""
    p = ball_patch(FoldingSequence.parse(seq_text), radius)
    colors = reconstruct(strip_decoration(to_tiling(p)))
    want = {seg: p.colors[seg] for seg in p.colors}
    assert colors == want
    return len(want)


def test_reconstruct_all_up():
    assert _roundtrip("(+)*", 16) > 1000


def test_reconstruct_alternating():
    assert _roundtrip("(+-)*", 16) > 1000


def test_reconstruct_random_words():
    for _ in range(3):
        word = "".join(RNG.choice("+-") for _ in range(12))
        assert _roundtrip(word, 16) > 1000


def test_reconstruct_settles_every_segment_of_a_triangle():
    for k in range(1, 7):
        for word in ("(+)*", "(+-)*", "+--+-+"[:k]):
            p = patch(FoldingSequence.parse(word), k)
            want = {seg: p.colors[seg] for seg in p.colors}
            assert reconstruct(strip_decoration(to_tiling(p))) == want, (word, k)


def test_reconstruct_with_targets():
    seq = FoldingSequence.parse("(+)*")
    p = ball_patch(seq, 16)
    targets = [s for s in BallRegion(10).iter_interior_segments()]
    colors = reconstruct(strip_decoration(to_tiling(p)))
    assert all(colors.get(s) is p.colors[s] for s in targets)


def test_reconstruct_undecidable_when_window_tiny():
    seq = FoldingSequence.parse("(+)*")
    p = ball_patch(seq, 3)
    window = strip_decoration(to_tiling(p))
    far = Seg(1, 40, 40)
    assert far not in reconstruct(window)


def test_reconstruct_corrupted_monochrome_tile():
    seq = FoldingSequence.parse("(+)*")
    p = ball_patch(seq, 12)
    window = dict(strip_decoration(to_tiling(p)))
    tri = (POSITIVE, 0, 0)
    assert window[tri] == 3
    window[tri] = 0
    with pytest.raises(Inconsistent):
        reconstruct(window)


def test_reconstruct_corrupted_mixed_tile():
    seq = FoldingSequence.parse("(+-)*")
    p = ball_patch(seq, 12)
    window = dict(strip_decoration(to_tiling(p)))
    tri = next(t for t, c in window.items() if c in (1, 2)
               and all(abs(v) < 10 for v in unit_triangle(*t)))
    window[tri] = 3 - window[tri]
    with pytest.raises(Inconsistent):
        reconstruct(window)


def test_reconstruct_rejects_a_count_no_spoke_color_fits():
    # two tiles of a hexagon, each with its two sides off the spoke s
    # between them of one color, get the count no color of s fits: 2 if
    # those sides are blue, 1 if red.  Propagation from another monochrome
    # tile of the hexagon reaches both with s open, so neither tile is
    # ever fully painted; the count is out of reach of its open side
    # once the other two are painted, and that alone must raise.
    from oracles import AROUND
    from trifold.lattice import SPOKES

    p = ball_patch(FoldingSequence.parse("(+-)*"), 10)
    window = strip_decoration(to_tiling(p))
    cases = []
    for cp, cq in ((1, 1), (-1, 1), (1, -1)):
        tiles = [(o, cp + a, cq + b) for o, a, b, _ in AROUND]
        spokes = [Seg(d, cp + a, cq + b) for d, a, b in SPOKES]
        outer = [Seg(d, cp + a, cq + b) for _, _, _, (d, a, b) in AROUND]
        for i in range(6):
            j = (i + 1) % 6
            left = (p.colors[outer[i]], p.colors[spokes[i]])
            right = (p.colors[outer[j]], p.colors[spokes[(j + 1) % 6]])
            sources = [t for k, t in enumerate(tiles) if k not in (i, j) and window[t] in (0, 3)]
            if left[0] is left[1] and right[0] is right[1] and sources:
                cases.append(({tiles[i]: 2 if left[0] is B else 1,
                               tiles[j]: 2 if right[0] is B else 1}, spokes[j]))
    assert cases
    colors = reconstruct(window)
    for damage, spoke in cases:
        assert colors[spoke] is p.colors[spoke]
        with pytest.raises(Inconsistent, match="impossible"):
            reconstruct({**window, **damage})


def test_reconstruct_rejects_bad_counts():
    with pytest.raises(Inconsistent):
        reconstruct({(POSITIVE, 0, 0): 5})


def test_hexagon_spokes_uniquely_determined():
    # brute force: inside each solved hexagon, exactly one of the 2^6
    # spoke colorings matches the six red counts and boundary colors
    import itertools

    from oracles import AROUND
    from trifold.lattice import SPOKES, Vertex

    seq = FoldingSequence.parse("(+-)*")
    p = ball_patch(seq, 10)
    window = strip_decoration(to_tiling(p))
    # hexagon centers are the vertices on no finest-layer line (all
    # functionals even, i.e. p and q both odd)
    centers = [Vertex(1, 1), Vertex(-1, 1), Vertex(1, -1)]
    assert all(all(x % 2 == 0 for x in v.functionals()) for v in centers)
    for cp, cq in centers:
        tiles = [(o, cp + a, cq + b) for o, a, b, _ in AROUND]
        spokes = [Seg(d, cp + a, cq + b) for d, a, b in SPOKES]
        outer = [Seg(d, cp + a, cq + b) for _, _, _, (d, a, b) in AROUND]
        solutions = 0
        for bits in itertools.product((R, B), repeat=6):
            ok = True
            for i in range(6):
                reds = ((p.colors[outer[i]] is R) + (bits[i] is R)
                        + (bits[(i + 1) % 6] is R))
                if reds != window[tiles[i]]:
                    ok = False
                    break
            if ok:
                solutions += 1
                assert bits == tuple(p.colors[s] for s in spokes)
        assert solutions == 1


@st.composite
def damaged_tilings(draw):
    """A ball or triangle window of a periodic or finite word, as red
    counts with up to two of them changed."""
    word = draw(st.text(alphabet="+-", min_size=2, max_size=6))
    periodic = draw(st.booleans())
    seq = FoldingSequence(word, periodic=periodic)
    if draw(st.booleans()):
        # a finite word's ball must stay inside its side-2^n patch
        top = 24 if periodic else isqrt(4 ** len(word) // 12)
        window = ball_patch(seq, draw(st.integers(min(4, top), top)))
    else:
        window = patch(seq, draw(st.integers(2, 6 if periodic else len(word))))
    tiles = dict(strip_decoration(to_tiling(window)))
    keys = list(tiles)
    for _ in range(draw(st.integers(0, 2)) if keys else 0):
        key = keys[draw(st.integers(0, len(keys) - 1))]
        tiles[key] = (tiles[key] + draw(st.integers(1, 3))) % 4
    return tiles


def _outcome(fn, tiles):
    try:
        return fn(dict(tiles))
    except Inconsistent:
        return Inconsistent


@settings(deadline=None, max_examples=60)
@given(damaged_tilings())
def test_reconstruct_extends_the_triangle_oracle(tiles):
    # the one propagation rule settles all the hexagon procedure does and
    # more, so it may raise where the oracle returns, never the other way
    got, oracle = _outcome(reconstruct, tiles), _outcome(dict_reconstruct, tiles)
    if oracle is Inconsistent or got is Inconsistent:
        assert got is Inconsistent
        return
    assert got.items() >= oracle.items()
    # a fixpoint: every tile agrees with its count, and no tile with an
    # open side could settle it
    for a, count in tiles.items():
        known = [got.get(s) for s in unit_tile_segments(*a)]
        reds, unknown = known.count(R), known.count(None)
        if unknown:
            assert reds < count < reds + unknown, a
        else:
            assert reds == count, a


def test_row_sweeps_follow_a_chain_along_a_row():
    # on a strip of one positive and one negative tile row, the colors
    # spread from the one monochrome tile a tile at a time, alternating
    # rows, so every sweep after the first settles only a few tiles
    n = 300
    tiles = {(POSITIVE, 0, 0): 3, **{(POSITIVE, p, 0): 2 for p in range(1, n)},
             **{(NEGATIVE, p, 1): 1 for p in range(n)}}
    colors = reconstruct(tiles)
    assert len(colors) == 4 * n + 1
    assert colors == worklist_reconstruct(tiles)


@settings(deadline=None, max_examples=150)
@given(damaged_tilings())
def test_row_sweeps_equal_the_worklist_oracle(tiles):
    # the rule reaches one fixpoint whatever order it visits the tiles
    # in, so sweeping whole rows must give the worklist's coloring, or
    # raise where it raises
    assert _outcome(reconstruct, tiles) == _outcome(worklist_reconstruct, tiles)


@settings(deadline=None, max_examples=40)
@given(damaged_tilings())
def test_len_is_the_number_of_settled_segments(tiles):
    # the benchmark counts tiling.reconstruct.segments as len(result)
    try:
        colors = reconstruct(tiles)
    except Inconsistent:
        return
    assert len(colors) == len(list(colors)) == len(dict(colors.items()))
    assert len(colors) == len(worklist_reconstruct(tiles))


def test_tilings_are_read_only_runs_of_tile_codes():
    p = patch(FoldingSequence("+-+"), 3)  # unknown boundary: its tiles are left out
    window = to_tiling(p)
    assert isinstance(window, Runs) and all(len(runs) == 1 for runs in window.rows.values())
    assert NO_TILE in b"".join(run for runs in window.rows.values() for _, run in runs)
    assert len(window) == len(list(window)) == len(dict(window.items())) > 0
    with pytest.raises(TypeError):
        window[(POSITIVE, 0, 0)] = (3, None)
    for off in ((POSITIVE, 99, 99), (0, 0, 0), (POSITIVE, 0), "P 0 0", None):
        assert window.get(off) is None and off not in window
    colors = reconstruct(strip_decoration(window))
    assert all(colors[Seg(*seg)] is colors[seg] for seg in colors)  # keys equal their Seg
    want = [COLOR_CODES[colors[(1, p, 0)]] if (1, p, 0) in colors else NO_COLOR
            for p in range(-9, 9)]
    assert colors.row(1, 0, -9, 9) == bytes(want) and NO_COLOR in want

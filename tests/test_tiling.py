import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dict_reconstruct, unit_triangle
from trifold.errors import Inconsistent, Undecidable
from trifold.folding import Color, FoldingSequence, ball_patch, patch
from trifold.lattice import POSITIVE, BallRegion, Seg, unit_tile_segments
from trifold.tiling import reconstruct, strip_decoration, to_tiling

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


def _roundtrip(seq_text, radius, margin=4):
    seq = FoldingSequence.parse(seq_text)
    p = ball_patch(seq, radius)
    colors = reconstruct(strip_decoration(to_tiling(p)))
    eroded = BallRegion(radius - margin)
    checked = 0
    for seg in eroded.iter_interior_segments():
        want = p.colors.get(seg)
        if want is None:
            continue
        assert colors.get(seg) is want, seg
        checked += 1
    return checked


def test_reconstruct_all_up():
    assert _roundtrip("(+)*", 16) > 1000


def test_reconstruct_alternating():
    assert _roundtrip("(+-)*", 16) > 1000


def test_reconstruct_random_words():
    for _ in range(3):
        word = "".join(RNG.choice("+-") for _ in range(12))
        assert _roundtrip(word, 16) > 1000


def test_reconstruct_with_targets():
    seq = FoldingSequence.parse("(+)*")
    p = ball_patch(seq, 16)
    targets = [s for s in BallRegion(10).iter_interior_segments()]
    colors = reconstruct(strip_decoration(to_tiling(p)), targets)
    assert set(colors) == set(targets)


def test_reconstruct_undecidable_when_window_tiny():
    seq = FoldingSequence.parse("(+)*")
    p = ball_patch(seq, 3)
    window = strip_decoration(to_tiling(p))
    far = [Seg(1, 40, 40)]
    with pytest.raises(Undecidable):
        reconstruct(window, far)


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
    # those sides are blue, 1 if red.  Solving from another monochrome
    # tile of the hexagon then reaches both with s open, s stays open,
    # neither tile is ever fully recovered, and only the in-hexagon count
    # check sees the damage.
    from trifold.lattice import AROUND, SPOKES

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
    from trifold.lattice import AROUND, SPOKES, Vertex

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
    counts with up to two of them changed, and optional targets."""
    word = draw(st.text(alphabet="+-", min_size=2, max_size=6))
    periodic = draw(st.booleans())
    seq = FoldingSequence(word, periodic=periodic)
    if draw(st.booleans()):
        # a finite word's ball must stay inside its side-2^n patch
        top = 24 if periodic else isqrt(4 ** len(word) // 12)
        window = ball_patch(seq, draw(st.integers(min(4, top), top)))
    else:
        window = patch(seq, draw(st.integers(2, 6 if periodic else len(word))))
    tiles = strip_decoration(to_tiling(window))
    keys = list(tiles)
    for _ in range(draw(st.integers(0, 2)) if keys else 0):
        key = keys[draw(st.integers(0, len(keys) - 1))]
        tiles[key] = (tiles[key] + draw(st.integers(1, 3))) % 4
    pool = [*window.colors, Seg(1, 99, 99)]
    targets = draw(st.none() | st.lists(st.sampled_from(pool), max_size=12))
    return tiles, targets


def _outcome(fn, tiles, targets):
    try:
        return fn(dict(tiles), targets)
    except (Inconsistent, Undecidable) as exc:
        return type(exc)


@settings(deadline=None, max_examples=60)
@given(damaged_tilings())
def test_reconstruct_equals_the_triangle_oracle(case):
    tiles, targets = case
    assert _outcome(reconstruct, tiles, targets) == _outcome(dict_reconstruct, tiles, targets)

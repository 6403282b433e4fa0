"""The unfolder and the substituter against their segment-at-a-time
oracles, byte for byte, and mutations of either that ``verify`` must
catch."""

import re
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trifold.substitution as substitution
import trifold.unfold as unfold
from oracles import (
    _placed_children,
    dict_apply_rule_patch,
    dict_unfold_once,
    interior_colors,
    unit_sides,
    unit_triangle,
)
from trifold import cli
from trifold.analysis import tile_class_counts
from trifold.errors import SeamConflict
from trifold.folding import (
    TILE_SIDES,
    UP,
    FoldingSequence,
    PatternPatch,
    interior_mismatches,
    patch,
)
from trifold.lattice import POSITIVE, Seg, standard_region, unit_tile_segments
from trifold.substitution import (
    RULES,
    apply_rule_patch,
    class_representative,
    classify,
    compose,
    folding_seed,
    medial_color,
    seed_patch,
)
from trifold.spectral import word_matrix
from trifold.unfold import unfold_once, unfold_pattern

exact = settings(deadline=None, max_examples=25)
fold_triples = st.tuples(*[st.sampled_from("+-")] * 3)


@exact
@given(st.lists(fold_triples, max_size=7))
def test_unfold_rows_equal_the_dict_unfolder(folds):
    step = PatternPatch(standard_region(0), {})
    for fold in folds:
        new, old = unfold_once(step, fold), dict_unfold_once(step, fold)
        assert new.region == old.region
        assert new.colors.rows == old.colors.rows
        step = new
    assert unfold_pattern(folds).colors.rows == step.colors.rows


@exact
@given(st.text(alphabet="+-", min_size=1, max_size=6))
def test_compose_rows_equal_the_dict_substituter(word):
    step = seed_patch(folding_seed(len(word)))
    for rule in reversed(word):
        new, old = apply_rule_patch(rule, step), dict_apply_rule_patch(rule, step)
        assert new.region == old.region
        assert new.colors.rows == old.colors.rows
        step = new
    assert compose(word, 1, folding_seed(len(word))).colors.rows == \
        substitution.recenter(step).colors.rows


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("index", range(8))
def test_one_step_from_every_class_seed_equals_the_dict_substituter(rule, index):
    seed = seed_patch(class_representative(index))
    new, old = apply_rule_patch(rule, seed), dict_apply_rule_patch(rule, seed)
    assert new.region == old.region and new.colors.rows == old.colors.rows


def test_partly_colored_patch_is_rejected():
    window = patch(FoldingSequence("++"), 2)  # a_3 undefined: no boundary colors
    with pytest.raises(ValueError, match="not fully colored"):
        apply_rule_patch("+", window)


def test_a_partly_colored_tile_in_the_middle_of_its_row_is_rejected():
    window = patch(FoldingSequence("+-++"), 3)  # boundary colored by a_4
    (q1, (first, stop)), = window.region.side_rows()[0].items()
    victim = Seg(1, (first + stop) // 2, q1)
    partly = PatternPatch(window.region,
                          {seg: c for seg, c in window.colors.items() if seg != victim})
    uncolored = [(i, len(codes)) for _, _, _, codes in partly.colors.tile_codes()
                 for i, code in enumerate(codes) if TILE_SIDES[code] is None]
    assert len(uncolored) == 1 and 0 < uncolored[0][0] < uncolored[0][1] - 1
    with pytest.raises(ValueError, match="not fully colored"):
        apply_rule_patch("+", partly)


# -- mutations that verify must catch -----------------------------------------

def verify(capsys, word="+-+-"):
    code = cli.main(["verify", f"--seq={word}"])
    return code, capsys.readouterr().out


def test_unswapped_mirror_contents_fail_verify(monkeypatch, capsys):
    monkeypatch.setattr(unfold, "SWAP", bytes(range(256)))
    code, out = verify(capsys)
    assert code == 1 and "closed vs unfold: MISMATCH" in out


@pytest.mark.parametrize("layer", (2, 3, 4))
def test_one_wrong_crease_color_fails_verify_at_its_layer(monkeypatch, capsys, layer):
    # the step that opens side 2^(layer-1) creases layer `layer`; flip
    # the color of its direction-1 crease only
    original = unfold.unfold_once

    def wrong_crease(step, fold):
        if step.region.side == 1 << (layer - 1):
            fold = ("-" if fold[0] == UP else UP, fold[1], fold[2])
        return original(step, fold)

    monkeypatch.setattr(unfold, "unfold_once", wrong_crease)
    code, out = verify(capsys)
    assert code == 1
    line = next(ln for ln in out.splitlines() if "closed vs unfold" in ln)
    assert re.search(rf"; layers {layer}:\d+\)$", line), line
    assert "closed vs subst: ok" in out


def test_one_wrong_medial_color_fails_verify(monkeypatch, capsys):
    def wrong(rule, orientation):
        color = medial_color(rule, orientation)
        return color.swapped if (rule, orientation) == ("+", POSITIVE) else color

    # a fresh table cache, filled from the wrong rule
    monkeypatch.setattr(substitution, "_child_writes", cache(substitution._child_writes.__wrapped__))
    monkeypatch.setattr(substitution, "medial_color", wrong)
    code, out = verify(capsys)
    assert code == 1 and "closed vs subst: MISMATCH" in out
    assert "closed vs unfold: ok" in out


def test_an_unswapped_corner_side_raises_seam_conflict(monkeypatch):
    window = patch(FoldingSequence("+-+"), 2)  # boundary colored by a_3
    assert apply_rule_patch("+", window).colors.rows == \
        dict_apply_rule_patch("+", window).colors.rows
    # a tile whose direction-2 side another tile shares
    o, q, first, codes = next(
        (o, q, first, codes) for o, q, first, codes in window.colors.tile_codes()
        if unit_tile_segments(o, first, q)[1] not in set(window.region.iter_boundary_segments()))
    code = codes[0]
    table = list(substitution._child_writes("+", o))
    writes = list(table[code])
    # entry 4: corner 1, direction-2 side, half of the tile's own side 2
    d, dp, dq, color = writes[4]
    side = code >> 2 & 3
    assert d == 2 and color == 1 - side
    writes[4] = (d, dp, dq, side)
    table[code] = tuple(writes)
    real = substitution._child_writes
    monkeypatch.setattr(substitution, "_child_writes", lambda rule, orientation: tuple(table)
                        if (rule, orientation) == ("+", o) else real(rule, orientation))
    with pytest.raises(SeamConflict) as raised:
        apply_rule_patch("+", window)
    # the text names where the seam breaks: a direction-2 child of that tile
    region = window.region
    anchor = (region.w1, -region.w1 - region.w3, region.w3)
    children = {str(unit_sides(child)[1]) for child, _ in
                _placed_children("+", unit_triangle(o, first, q), TILE_SIDES[code], anchor)}
    named, colors = str(raised.value).split(": ")
    assert named in children and colors in ("red vs blue", "blue vs red")


@settings(deadline=None, max_examples=15)
@given(st.text(alphabet="+-", min_size=7, max_size=8))
def test_three_generators_and_the_count_matrix_agree_on_longer_words(word):
    # a word's window is the substitution image of its seed tile, so its
    # tile-class counts are the seed's column of the word's count matrix
    k = len(word)
    closed = patch(FoldingSequence(word), k)
    unfolded = unfold_pattern(unfold.uniform_word(word))
    substituted = compose(word, 1, folding_seed(k))
    for other in (unfolded, substituted):
        assert interior_mismatches(closed, other) == []
        assert interior_colors(other).keys() == interior_colors(closed).keys()
    assert tile_class_counts(substituted) == word_matrix(word).column(classify(folding_seed(k)))

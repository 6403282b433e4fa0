import itertools

import pytest

from oracles import full_tiles
from trifold.errors import OrientationMismatch
from trifold.folding import Color, FoldingSequence, interior_mismatches, patch
from trifold.lattice import NEGATIVE, POSITIVE, Triangle
from trifold.spectral import M_MINUS, M_PLUS
from trifold.substitution import (
    ALL_RED_POSITIVE,
    CLASS_NAMES,
    TriangleColoring,
    apply_rule_patch,
    apply_rule_tile,
    class_index,
    class_representative,
    classify,
    compose,
    folding_seed,
    recenter,
    seed_patch,
    substitution_matrix,
)

R, B = Color.RED, Color.BLUE


def coloring(orientation, *cols):
    return TriangleColoring(orientation, tuple(cols))


def test_class_order_matches_matrix_convention():
    assert CLASS_NAMES[0] == "P-RRR" and CLASS_NAMES[4] == "N-BBB"
    assert class_index(POSITIVE, 3) == 0
    assert class_index(POSITIVE, 0) == 3
    assert class_index(NEGATIVE, 0) == 4
    assert class_index(NEGATIVE, 3) == 7
    for i in range(8):
        assert classify(class_representative(i)) == i


def counts_of(children):
    out = [0] * 8
    for child in children:
        out[classify(child)] += 1
    return tuple(out)


def test_rule_tile_known_images():
    # F+(P-RRR) = 3 P-BBB + N-BBB
    assert counts_of(apply_rule_tile("+", coloring(POSITIVE, R, R, R))) == \
        (0, 0, 0, 3, 1, 0, 0, 0)
    # F-(P-RRR) = 3 P-RBB + N-RRR
    assert counts_of(apply_rule_tile("-", coloring(POSITIVE, R, R, R))) == \
        (0, 0, 3, 0, 0, 0, 0, 1)
    # F+(N-BBB) = P-RRR + 3 N-RRR
    assert counts_of(apply_rule_tile("+", coloring(NEGATIVE, B, B, B))) == \
        (1, 0, 0, 0, 0, 0, 0, 3)
    # F+(P-RRB) = 2 P-RBB + P-BBB + N-BBB
    assert counts_of(apply_rule_tile("+", coloring(POSITIVE, R, R, B))) == \
        (0, 0, 2, 1, 1, 0, 0, 0)


def test_geometric_matrices_match_printed():
    assert substitution_matrix("+") == M_PLUS
    assert substitution_matrix("-") == M_MINUS


def test_every_column_matches_tile_rule():
    for rule, printed in (("+", M_PLUS), ("-", M_MINUS)):
        for j in range(8):
            children = apply_rule_tile(rule, class_representative(j))
            assert counts_of(children) == tuple(int(x) for x in printed.column(j))


def test_column_sums_are_four():
    for rule in "+-":
        m = substitution_matrix(rule).int_rows()
        for j in range(8):
            assert sum(m[i][j] for i in range(8)) == 4


def test_word_matrix_order():
    assert substitution_matrix("+-") == M_PLUS * M_MINUS


def test_seed_patch_positions():
    pos = seed_patch(ALL_RED_POSITIVE)
    assert list(full_tiles(pos))[0][0] == Triangle(1, 1, 1)
    neg = seed_patch(folding_seed(1))
    assert list(full_tiles(neg))[0][0] == Triangle(1, -2, -2)


def test_single_application_swaps_outer_colors():
    stepped = apply_rule_patch("+", seed_patch(ALL_RED_POSITIVE))
    assert stepped.region.side == 2
    outer = [stepped.colors[s] for s in stepped.region.iter_boundary_segments()]
    assert outer and all(c is B for c in outer)


def test_double_application_restores_outer_colors():
    p = apply_rule_patch("+", apply_rule_patch("+", seed_patch(ALL_RED_POSITIVE)))
    assert all(p.colors[s] is R for s in p.region.iter_boundary_segments())


def test_double_plus_equals_pattern():
    p = recenter(apply_rule_patch("+", apply_rule_patch("+", seed_patch(ALL_RED_POSITIVE))))
    assert not interior_mismatches(p, patch(FoldingSequence("++"), 2))


def test_compose_matches_pattern_all_words_len4():
    for k in (1, 2, 3, 4):
        for bits in itertools.product("+-", repeat=k):
            word = "".join(bits)
            c = compose(word, 1, folding_seed(k))
            assert not interior_mismatches(c, patch(FoldingSequence(word), k))


def test_compose_with_repetition():
    c = compose("+-", 2, folding_seed(4))
    assert not interior_mismatches(c, patch(FoldingSequence.parse("(+-)*"), 4))
    c = compose("+", 4, folding_seed(4))
    assert not interior_mismatches(c, patch(FoldingSequence.parse("(+)*"), 4))


def test_compose_interior_is_seed_color_independent():
    # the all-blue positive seed works just as well for words led by "-"
    from trifold.substitution import ALL_BLUE_POSITIVE
    c = compose("-+", 1, ALL_BLUE_POSITIVE)
    assert not interior_mismatches(c, patch(FoldingSequence("-+"), 2))


def test_compose_zero_reps_returns_seed():
    p = compose("+", 0, ALL_RED_POSITIVE)
    tiles = list(full_tiles(p))
    assert len(tiles) == 1 and tiles[0][1] == (R, R, R)


def test_compose_checks_seed_orientation():
    with pytest.raises(OrientationMismatch):
        compose("+", 1, ALL_RED_POSITIVE)  # odd total needs a negative seed
    with pytest.raises(OrientationMismatch):
        compose("++", 1, folding_seed(1))


def test_recenter_rejects_wrong_parity():
    stepped = apply_rule_patch("+", seed_patch(ALL_RED_POSITIVE))
    # side 2 but positive orientation: no centered window fits
    with pytest.raises(OrientationMismatch):
        recenter(stepped)


def test_patch_tile_counts_match_matrix_column():
    # counting the composed side-4 patch reproduces M_P column 1
    from trifold.analysis import tile_class_counts
    c = compose("++", 1, folding_seed(2))
    expected = tuple(int(x) for x in (M_PLUS * M_PLUS).column(0))
    assert tile_class_counts(c) == expected

"""Acceptance suite: one test per criterion, exact checks, stated budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion with its runtime.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from oracles import disallowed_stars, interior_items, layer_block_check, unit_triangle
from trifold.analysis import (
    decorated_type_counts,
    filter_layer,
    period_check,
    tile_class_counts,
    vertex_star_histogram,
)
from trifold.errors import Inconsistent
from trifold.folding import FoldingSequence, ball_patch, interior_mismatches, patch, recolor
from trifold.lattice import BallRegion
from trifold.spectral import (
    KERNEL_LOWER,
    KERNEL_UPPER,
    U_MINUS,
    U_MINUS_LOWER,
    U_PLUS,
    U_PLUS_LOWER,
    density_limit,
    expected_diagonal,
    triangularize,
    word_matrix,
)
from trifold.substitution import compose, folding_seed, substitution_matrix
from trifold.tiling import reconstruct, strip_decoration, to_tiling
from trifold.unfold import unfold_pattern, uniform_word

PRINTED_M_PLUS = (
    (0, 0, 0, 0, 1, 1, 1, 1),
    (0, 0, 1, 3, 0, 0, 0, 0),
    (0, 2, 2, 0, 0, 0, 0, 0),
    (3, 1, 0, 0, 0, 0, 0, 0),
    (1, 1, 1, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 3),
    (0, 0, 0, 0, 0, 2, 2, 0),
    (0, 0, 0, 0, 3, 1, 0, 0),
)

PRINTED_M_MINUS = (
    (0, 0, 1, 3, 0, 0, 0, 0),
    (0, 2, 2, 0, 0, 0, 0, 0),
    (3, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 1, 1, 1),
    (0, 0, 0, 0, 0, 0, 1, 3),
    (0, 0, 0, 0, 0, 2, 2, 0),
    (0, 0, 0, 0, 3, 1, 0, 0),
    (1, 1, 1, 1, 0, 0, 0, 0),
)

PRINTED_M_P = (
    (1, 1, 1, 1, 3, 3, 3, 3),
    (9, 5, 2, 0, 0, 0, 0, 0),
    (0, 4, 6, 6, 0, 0, 0, 0),
    (0, 0, 1, 3, 3, 3, 3, 3),
    (3, 3, 3, 3, 1, 1, 1, 1),
    (0, 0, 0, 0, 9, 5, 2, 0),
    (0, 0, 0, 0, 0, 4, 6, 6),
    (3, 3, 3, 3, 0, 0, 1, 3),
)

PRINTED_M_P2 = (
    (28, 28, 28, 28, 36, 36, 36, 36),
    (54, 42, 31, 21, 27, 27, 27, 27),
    (36, 44, 50, 54, 18, 18, 18, 18),
    (18, 22, 27, 33, 39, 39, 39, 39),
    (36, 36, 36, 36, 28, 28, 28, 28),
    (27, 27, 27, 27, 54, 42, 31, 21),
    (18, 18, 18, 18, 36, 44, 50, 54),
    (39, 39, 39, 39, 18, 22, 27, 33),
)

EIGHTH = Fraction(1, 8)


def report(number: int, budget: float, started: float, detail: str):
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s (> {budget}s)"
    print(f"PASS criterion {number}: {detail} [{elapsed:.1f}s]")


def test_criterion_1_matrix_pinning():
    t0 = time.time()
    assert substitution_matrix("+").int_rows() == PRINTED_M_PLUS
    assert substitution_matrix("-").int_rows() == PRINTED_M_MINUS
    m_p = substitution_matrix("++")
    assert m_p.int_rows() == PRINTED_M_P
    m_p2 = m_p.power(2)
    assert m_p2.int_rows() == PRINTED_M_P2
    assert all(x > 0 for row in m_p2.int_rows() for x in row)
    report(1, 1.0, t0, "recomputed M+, M-, M_P, M_P^2 equal the printed "
                       "matrices; M_P^2 positive")


def test_criterion_2_oracle_triangulation():
    t0 = time.time()
    for bits in itertools.product("+-", repeat=6):
        word = "".join(bits)
        closed = patch(FoldingSequence(word), 6)
        unfolded = unfold_pattern(uniform_word(word))
        composed = compose(word, 1, folding_seed(6))
        assert not interior_mismatches(closed, unfolded), word
        assert not interior_mismatches(closed, composed), word
        assert dict(interior_items(closed)).keys() == \
            dict(interior_items(unfolded)).keys()
    report(2, 30.0, t0, "closed form, unfolding and substitution agree on "
                        "all interiors for all 64 words of length 6")


def test_criterion_3_spectrum():
    t0 = time.time()
    words = ["".join(bits) for k in range(1, 6)
             for bits in itertools.product("+-", repeat=k)]
    rng = random.Random(0)
    words += ["".join(rng.choice("+-") for _ in range(rng.randint(6, 8)))
              for _ in range(100)]
    ones = tuple(Fraction(1) for _ in range(8))
    zero = tuple(Fraction(0) for _ in range(8))
    for word in words:
        k = len(word)
        m = word_matrix(word)
        _, diag = triangularize(m)
        assert diag == expected_diagonal(k), word
        assert m.vec(ones) == tuple(4 ** k * x for x in ones)
        units = (U_PLUS, U_PLUS_LOWER) if word[0] == "+" else (U_MINUS, U_MINUS_LOWER)
        for u in units:
            assert m.vec(u) == tuple(map(Fraction, u))
        assert m.vec(KERNEL_UPPER) == zero
        assert m.vec(KERNEL_LOWER) == zero
    from trifold.spectral import eigen_report
    assert eigen_report("+-").diagonalizable is False
    report(3, 10.0, t0, f"triangular forms and exact eigensystem verified for "
                        f"{len(words)} words; '+-' not diagonalizable")


def test_criterion_4_densities():
    t0 = time.time()
    # exact vectors: per-word envelope constant from the n=2 data
    words = ["".join(bits) for k in (1, 2, 3)
             for bits in itertools.product("+-", repeat=k)]
    for word in words:
        c = max(max(abs(x - EIGHTH) for x in density_limit(word, 2, j))
                for j in range(1, 9))
        for j in range(1, 9):
            for n in range(2, 13):
                dev = max(abs(x - EIGHTH) for x in density_limit(word, n, j))
                assert dev <= c * Fraction(1, 2) ** (n - 2), (word, j, n)
        assert max(abs(x - EIGHTH)
                   for x in density_limit(word, 12, 1)) < Fraction(1, 512)

    # empirical frequencies on all-up windows match the exact vectors
    m_p = word_matrix("++")
    all_up = FoldingSequence.parse("(+)*")
    decorated_devs = {}
    for n in range(1, 6):
        window = patch(all_up, 2 * n)
        counts = tile_class_counts(window)
        exact = tuple(int(x) for x in m_p.power(n).column(0))
        assert counts == exact, n
        dec = decorated_type_counts(window)
        total = sum(dec.values())
        decorated_devs[n] = max(abs(Fraction(c, total) - Fraction(1, 24))
                                for key, c in dec.items() if key[2] is not None)
    for n in range(2, 6):
        assert decorated_devs[n] <= decorated_devs[2] * Fraction(1, 2) ** (n - 2)
    report(4, 60.0, t0, "density envelopes hold (computed constants), "
                        "empirical counts equal exact vectors for n<=5, "
                        "decorated types approach 1/24")


def test_criterion_5_vertex_stars():
    t0 = time.time()
    for k in range(1, 6):
        for bits in itertools.product("+-", repeat=k):
            p = patch(FoldingSequence("".join(bits)), k)
            assert not disallowed_stars(p), "".join(bits)
            if k >= 2:
                assert vertex_star_histogram(p)
    violating = unfold_pattern([("+", "+", "-"), ("+", "+", "+")])
    assert disallowed_stars(violating)
    report(5, 30.0, t0, "all stars of all 62 uniform words lie in the two "
                        "allowed classes; mixed word '++-,+++' violates")


def test_criterion_6_aperiodicity_and_limit_periodicity():
    t0 = time.time()
    for seq_text in ("(+)*", "(+-)*"):
        window = ball_patch(FoldingSequence.parse(seq_text), 64)
        assert period_check(window, 8) == [], seq_text
        for k in range(1, 5):
            assert layer_block_check(window, k), (seq_text, k)
        layer1 = filter_layer(window, 1)
        survivors = period_check(layer1, 2)
        assert any(a * a + a * b + b * b == 4 for a, b in survivors)
    report(6, 30.0, t0, "no period of norm <= 8 on radius-64 windows; "
                        "layer blocks exact for k<=4; layer 1 admits a "
                        "norm-2 translation")


def test_criterion_7_mld_reconstruction():
    t0 = time.time()
    rng = random.Random(0)
    cases = [("(+)*", 16), ("(+)*", 32), ("(-)*", 16), ("(-)*", 28),
             ("(+-)*", 20), ("(+-)*", 32), ("(++--)*", 24), ("(++--)*", 32),
             ("(+)*", 24), ("(-)*", 20)]
    while len(cases) < 20:
        cases.append(("".join(rng.choice("+-") for _ in range(12)),
                      rng.choice((16, 20, 24))))
    for seq_text, radius in cases:
        seq = FoldingSequence.parse(seq_text)
        window = ball_patch(seq, radius)
        colors = reconstruct(strip_decoration(to_tiling(window)))
        checked = 0
        for seg in BallRegion(radius - 4).iter_interior_segments():
            want = window.colors.get(seg)
            if want is None:
                continue
            assert colors.get(seg) is want, (seq_text, radius, seg)
            checked += 1
        assert checked > 500

    for seq_text in ("(+)*", "(+-)*"):
        window = ball_patch(FoldingSequence.parse(seq_text), 12)
        tiles = dict(strip_decoration(to_tiling(window)))
        victim = next(t for t, c in tiles.items()
                      if all(abs(v) < 10 for v in unit_triangle(*t)))
        tiles[victim] = 3 - tiles[victim]
        with pytest.raises(Inconsistent):
            reconstruct(tiles)
    report(7, 60.0, t0, "20 windows reconstruct exactly on eroded "
                        "interiors; corrupted windows raise Inconsistent")


def test_criterion_8_recoloring():
    t0 = time.time()
    rng = random.Random(0)
    for _ in range(20):
        word = "".join(rng.choice("+-") for _ in range(12))
        head = "".join(rng.choice("+-") for _ in range(3))
        other = head + word[3:]
        s, r = FoldingSequence(word), FoldingSequence(other)
        src = ball_patch(s, 32)
        direct = ball_patch(r, 32)
        assert not interior_mismatches(recolor(src, s, r), direct), (word, other)
    report(8, 30.0, t0, "recoloring equals direct generation for 20 pairs "
                        "agreeing after index 3 on radius-32 windows")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    t0 = time.time()
    from trifold.cli import main

    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out

    pat = tmp_path / "p.pat"
    til = tmp_path / "p.til"
    svg = tmp_path / "p.svg"
    run("generate", "--seq", "(+)*", "--ball", "12", "--out", str(pat))
    from trifold.patternio import read_pattern, write_tiling
    window, seq = read_pattern(pat.read_text())
    til.write_text(write_tiling(to_tiling(window), seq, window.region))

    commands = [
        ("generate", "--seq", "(+-)*", "--size", "4", "--out", str(pat)),
        ("render", "--in", str(pat), "--svg", str(svg)),
        ("matrix", "--word", "++", "--power", "2"),
        ("spectrum", "--word", "+-"),
        ("density", "--word", "+-", "--steps", "6"),
        ("verify", "--seq", "+++", "--random", "2", "--rng-seed", "0"),
        ("stars", "--seq", "(+)*", "--size", "4"),
        ("period", "--seq", "(+)*", "--ball", "20", "--max-norm", "4"),
        ("reconstruct", "--in", str(til)),
    ]
    for argv in commands:
        first = run(*argv)
        files1 = {f: f.read_bytes() for f in (pat, svg) if f.exists()}
        second = run(*argv)
        files2 = {f: f.read_bytes() for f in (pat, svg) if f.exists()}
        assert first == second, argv
        assert files1 == files2, argv
        assert first[0] == 0, argv

    outs = set()
    for threads in ("1", "2", "4"):
        run("generate", "--seq", "(+)*", "--size", "5", "--threads", threads,
            "--out", str(pat))
        outs.add(pat.read_bytes())
    assert len(outs) == 1
    elapsed = time.time() - t0
    print(f"PASS criterion 9: every CLI command byte-identical across runs "
          f"and thread counts [{elapsed:.1f}s]")

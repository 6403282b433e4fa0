import itertools
import random
from fractions import Fraction

import pytest

from trifold.errors import NotTriangular
from trifold.spectral import (
    C_MATRIX,
    KERNEL_LOWER,
    KERNEL_UPPER,
    M_MINUS,
    M_PLUS,
    Mat,
    U_MINUS,
    U_PLUS,
    c_inverse,
    density_limit,
    density_vectors,
    eigen_report,
    expected_diagonal,
    triangularize,
    word_matrix,
)

PRINTED_MP = Mat([
    [1, 1, 1, 1, 3, 3, 3, 3],
    [9, 5, 2, 0, 0, 0, 0, 0],
    [0, 4, 6, 6, 0, 0, 0, 0],
    [0, 0, 1, 3, 3, 3, 3, 3],
    [3, 3, 3, 3, 1, 1, 1, 1],
    [0, 0, 0, 0, 9, 5, 2, 0],
    [0, 0, 0, 0, 0, 4, 6, 6],
    [3, 3, 3, 3, 0, 0, 1, 3],
])

PRINTED_MP2 = Mat([
    [28, 28, 28, 28, 36, 36, 36, 36],
    [54, 42, 31, 21, 27, 27, 27, 27],
    [36, 44, 50, 54, 18, 18, 18, 18],
    [18, 22, 27, 33, 39, 39, 39, 39],
    [36, 36, 36, 36, 28, 28, 28, 28],
    [27, 27, 27, 27, 54, 42, 31, 21],
    [18, 18, 18, 18, 36, 44, 50, 54],
    [39, 39, 39, 39, 18, 22, 27, 33],
])

PRINTED_TPLUS_DIAG = (4, 2, -2, -2, 1, 1, 0, 0)

PRINTED_TMINUS = Mat([
    [4, 0, 0, 0, 0, 0, 0, 0],
    [0, 2, 0, 0, 0, 0, 0, 0],
    [0, -8, -2, 0, 0, 0, 0, 0],
    [0, 8, 0, -2, 0, 0, 0, 0],
    [0, 14, 6, 0, 1, 0, 0, 0],
    [0, -14, 0, 6, 0, 1, 0, 0],
    [0, -4, -4, 0, -1, 0, 0, 0],
    [0, 4, 0, -4, 0, -1, 0, 0],
])


def test_c_is_invertible_exactly():
    assert C_MATRIX * c_inverse() == Mat.identity()


def test_word_matrix_products():
    assert word_matrix("+") == M_PLUS
    assert word_matrix("-") == M_MINUS
    assert word_matrix("++") == PRINTED_MP
    assert word_matrix("++").power(2) == PRINTED_MP2
    assert word_matrix("+-") == M_PLUS * M_MINUS


def test_triangularize_printed_forms():
    t_plus, diag = triangularize(M_PLUS)
    assert diag == PRINTED_TPLUS_DIAG
    # C^-1 M+ C must come out exactly diagonal
    assert t_plus == Mat([[PRINTED_TPLUS_DIAG[i] if i == j else 0
                           for j in range(8)] for i in range(8)])
    t_minus, diag_minus = triangularize(M_MINUS)
    assert t_minus == PRINTED_TMINUS
    assert diag_minus == PRINTED_TPLUS_DIAG


def test_triangularize_rejects_non_words():
    probe = Mat([[1 if (i, j) == (0, 1) else 0 for j in range(8)]
                 for i in range(8)])
    with pytest.raises(NotTriangular):
        triangularize(probe)


def test_diagonal_formula_exhaustive_small():
    for k in range(1, 5):
        for bits in itertools.product("+-", repeat=k):
            word = "".join(bits)
            _, diag = triangularize(word_matrix(word))
            assert diag == expected_diagonal(k)


def test_diagonal_formula_random_long_words():
    rng = random.Random(0)
    for _ in range(30):
        k = rng.randint(6, 8)
        word = "".join(rng.choice("+-") for _ in range(k))
        _, diag = triangularize(word_matrix(word))
        assert diag == expected_diagonal(k)


def test_unit_vectors_behave_as_printed():
    assert M_PLUS.vec(U_PLUS) == tuple(map(Fraction, U_PLUS))
    assert M_PLUS.vec(U_MINUS) == tuple(map(Fraction, U_PLUS))
    assert M_MINUS.vec(U_PLUS) == tuple(map(Fraction, U_MINUS))
    assert M_MINUS.vec(U_MINUS) == tuple(map(Fraction, U_MINUS))


def test_kernel_vectors():
    zero = tuple(Fraction(0) for _ in range(8))
    for m in (M_PLUS, M_MINUS):
        assert m.vec(KERNEL_UPPER) == zero
        assert m.vec(KERNEL_LOWER) == zero


def test_invariant_subspaces():
    # {x1+x2+x3+x4 = 0, x5..x8 = 0} and its mirror are invariant
    upper = [(1, -1, 0, 0, 0, 0, 0, 0), (0, 1, -1, 0, 0, 0, 0, 0),
             (0, 0, 1, -1, 0, 0, 0, 0)]
    lower = [v[4:] + v[:4] for v in upper]
    for m in (M_PLUS, M_MINUS):
        for v in upper:
            img = m.vec(v)
            assert sum(img[:4]) == 0 and all(x == 0 for x in img[4:])
        for v in lower:
            img = m.vec(v)
            assert sum(img[4:]) == 0 and all(x == 0 for x in img[:4])


def test_eigen_report_all_up_squared():
    rep = eigen_report("++")
    assert rep.eigenvalues == (16, 4, 4, 4, 1, 1, 0, 0)
    assert rep.pf_ok and rep.unit_ok and rep.kernel_ok
    assert rep.eigenspace_dims[16] == 1
    assert rep.eigenspace_dims[2 ** rep.k] in (2, 3)
    assert rep.diagonalizable


def test_eigen_report_plus_minus_not_diagonalizable():
    rep = eigen_report("+-")
    assert not rep.diagonalizable
    assert rep.eigenspace_dims[2 ** rep.k] == 2
    assert rep.pf_ok and rep.unit_ok and rep.kernel_ok


def test_eigen_report_rejects_wrong_diagonal(monkeypatch):
    import trifold.spectral as spectral

    def skewed(m):
        t, diag = triangularize(m)
        return t, (diag[0] + 1,) + diag[1:]

    monkeypatch.setattr(spectral, "triangularize", skewed)
    with pytest.raises(NotTriangular):
        eigen_report("++")


def test_eigen_report_odd_word_diagonalizable():
    for word in ("+", "-", "+-+"):
        assert eigen_report(word).diagonalizable


def test_column_sums_are_powers_of_four():
    rng = random.Random(1)
    for _ in range(10):
        k = rng.randint(1, 6)
        word = "".join(rng.choice("+-") for _ in range(k))
        m = word_matrix(word).int_rows()
        for j in range(8):
            assert sum(m[i][j] for i in range(8)) == 4 ** k


def test_density_limit_first_steps():
    assert density_limit("+", 1, 1) == tuple(
        Fraction(x, 4) for x in (0, 0, 0, 3, 1, 0, 0, 0))
    # frozen from the printed M_P column 1
    assert density_limit("+", 2, 1) == tuple(
        Fraction(x, 16) for x in (1, 9, 0, 0, 3, 0, 0, 3))


def test_density_limit_converges_to_eighth():
    eighth = Fraction(1, 8)
    for word in ("+", "-", "+-", "++-"):
        for seed in (1, 5):
            v = density_limit(word, 16 // len(word), seed)
            assert max(abs(x - eighth) for x in v) < Fraction(1, 2 ** 10)


def test_density_limit_envelope_with_computed_constant():
    # per-word constant from the n=2 vectors bounds the whole decay
    eighth = Fraction(1, 8)
    for word in ("+", "-", "+-", "-++"):
        c = max(max(abs(x - eighth) for x in density_limit(word, 2, j))
                for j in range(1, 9))
        for j in range(1, 9):
            for n in range(3, 9):
                dev = max(abs(x - eighth) for x in density_limit(word, n, j))
                assert dev <= c * Fraction(1, 2) ** (n - 2)


def test_density_limit_validates_seed():
    with pytest.raises(ValueError):
        density_limit("+", 1, 0)


def test_rank_and_inverse_helpers():
    assert Mat.identity().rank() == 8
    assert M_PLUS.minus_scalar_diag(0).rank() == 6  # two kernel vectors
    with pytest.raises(ValueError):
        Mat([[1, 1], [1, 1]]).inverse()


def test_power_rejects_negative_exponents():
    assert M_PLUS.power(0) == Mat.identity()
    assert M_PLUS.power(3) == M_PLUS * M_PLUS * M_PLUS
    with pytest.raises(ValueError):
        M_PLUS.power(-1)


def _exact_only(values) -> bool:
    return all(type(x) in (int, Fraction) for x in values)


def test_count_matrices_hold_ints():
    for m in (M_PLUS, word_matrix("+-+"), word_matrix("++").power(3),
              M_MINUS.minus_scalar_diag(4)):
        assert all(type(x) is int for row in m.rows for x in row)
    assert all(type(x) is int for x in M_PLUS.vec(U_PLUS))


def test_no_floats_leak_from_exact_results():
    inv = Mat([[2, 0], [0, 4]]).inverse()
    assert inv.rows == ((Fraction(1, 2), 0), (0, Fraction(1, 4)))
    assert _exact_only(x for row in inv.rows for x in row)
    assert _exact_only(x for row in c_inverse().rows for x in row)
    assert type(Mat([[1, 2], [3, 4]]).rank()) is int
    assert Mat([[Fraction(1, 2), 1], [1, 2]]).rank() == 1
    assert Mat([[0.5, 1], [1, 2]]).rows[0][0] == Fraction(1, 2)
    for word in ("+", "-+", "++--+"):
        t, diag = triangularize(word_matrix(word))
        assert _exact_only(x for row in t.rows for x in row)
        assert _exact_only(diag)
        rep = eigen_report(word)
        assert _exact_only(rep.eigenvalues)
        assert _exact_only(list(rep.eigenspace_dims) + list(rep.eigenspace_dims.values()))
        for vec in density_vectors(word, 4, 3):
            assert all(type(x) is Fraction for x in vec)


def test_density_limit_step_zero_is_the_seed_column():
    for seed in range(1, 9):
        want = tuple(Fraction(int(j == seed - 1)) for j in range(8))
        assert density_limit("+-", 0, seed) == want
    assert list(density_vectors("+-", 0, 2)) == []


def test_density_limit_rejects_negative_steps():
    with pytest.raises(ValueError):
        density_limit("+", -1, 1)
    with pytest.raises(ValueError):
        density_vectors("+", -1, 1)


@pytest.mark.parametrize("seed", [0, 9, -1])
def test_density_vectors_reject_bad_seeds_at_call_time(seed):
    with pytest.raises(ValueError):
        density_limit("+-", 3, seed)
    with pytest.raises(ValueError):
        density_vectors("+-", 3, seed)  # not iterated: the call itself raises


def test_density_vectors_reject_bad_words_at_call_time():
    for word in ("", "+x"):
        with pytest.raises(ValueError):
            density_vectors(word, 3, 1)


def test_density_limit_is_the_last_density_vector():
    vectors = list(density_vectors("-+-", 7, 6))
    assert [density_limit("-+-", n, 6) for n in range(1, 8)] == vectors

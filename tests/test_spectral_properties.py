"""Property tests: the integer spectral core against plain-Fraction references."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fraction_product, fraction_rank
from trifold.spectral import (
    C_MATRIX,
    M_MINUS,
    M_PLUS,
    Mat,
    c_inverse,
    density_vectors,
    expected_diagonal,
    triangularize,
    word_matrix,
)

RULES = {"+": M_PLUS.rows, "-": M_MINUS.rows}
IDENTITY = Mat.identity().rows

words = st.text(alphabet="+-", min_size=1, max_size=8)
small_ints = st.integers(min_value=-4, max_value=4)
shapes = st.tuples(st.integers(1, 5), st.integers(1, 5))

exact = settings(deadline=None, max_examples=60)


def reference_word_matrix(word: str):
    out = RULES[word[0]]
    for c in word[1:]:
        out = fraction_product(out, RULES[c])
    return out


def int_matrix(n_rows: int, n_cols: int):
    return st.lists(st.lists(small_ints, min_size=n_cols, max_size=n_cols),
                    min_size=n_rows, max_size=n_rows)


@st.composite
def int_matrices(draw):
    return draw(int_matrix(*draw(shapes)))


@st.composite
def low_rank_matrices(draw):
    """A product (r x k)(k x c) with k small, so usually rank-deficient."""
    n_rows, n_cols = draw(shapes)
    k = draw(st.integers(1, 3))
    return fraction_product(draw(int_matrix(n_rows, k)), draw(int_matrix(k, n_cols)))


@st.composite
def fraction_matrices(draw):
    n_rows, n_cols = draw(shapes)
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    rows = draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols),
                         min_size=n_rows, max_size=n_rows))
    # repeat a scaled row now and then, so the rank drops
    if n_rows > 1 and draw(st.booleans()):
        rows[-1] = [Fraction(3, 2) * x for x in rows[0]]
    return rows


@exact
@given(words)
def test_word_matrix_matches_fraction_products(word):
    assert word_matrix(word).rows == tuple(map(tuple, reference_word_matrix(word)))


@exact
@given(words, st.integers(0, 6))
def test_power_matches_repeated_fraction_products(word, e):
    m = reference_word_matrix(word)
    want = IDENTITY
    for _ in range(e):
        want = fraction_product(want, m)
    assert word_matrix(word).power(e).rows == tuple(map(tuple, want))


@exact
@given(words)
def test_triangularize_matches_fraction_conjugation(word):
    m = word_matrix(word)
    want = fraction_product(fraction_product(c_inverse().rows, m.rows), C_MATRIX.rows)
    t, diag = triangularize(m)
    assert t.rows == tuple(map(tuple, want))
    assert diag == tuple(want[i][i] for i in range(8)) == expected_diagonal(len(word))


@st.composite
def lower_triangular(draw):
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    return [[draw(entry) if j <= i else 0 for j in range(8)] for i in range(8)]


@exact
@given(lower_triangular())
def test_triangularize_recovers_fractional_forms(t):
    # m = C T C^-1 has Fraction entries, and C^-1 m C = T need not be integral
    m = Mat(fraction_product(fraction_product(C_MATRIX.rows, t), c_inverse().rows))
    got, diag = triangularize(m)
    assert got.rows == tuple(map(tuple, t))
    assert diag == tuple(t[i][i] for i in range(8))


@exact
@given(words)
def test_eigenvalue_ranks_match_fraction_elimination(word):
    m = word_matrix(word)
    for lam in set(expected_diagonal(len(word))):
        shifted = m.minus_scalar_diag(lam)
        assert shifted.rank() == fraction_rank(shifted.rows), lam


@exact
@given(st.one_of(int_matrices(), low_rank_matrices(), fraction_matrices()))
def test_rank_matches_fraction_elimination(rows):
    assert Mat(rows).rank() == fraction_rank(rows)


@exact
@given(words, st.integers(0, 6), st.integers(1, 8))
def test_density_vectors_match_matrix_powers(word, steps, seed):
    vectors = list(density_vectors(word, steps, seed))
    assert len(vectors) == steps
    m = word_matrix(word)
    for n, vec in enumerate(vectors, start=1):
        col = m.power(n).column(seed - 1)
        assert vec == tuple(Fraction(x, 4 ** (len(word) * n)) for x in col)

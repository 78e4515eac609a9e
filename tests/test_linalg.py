import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieradicals.linalg import Matrix, dense, divided, echelon_rows, insert_row, numerators, sparse
from lieradicals.subspace import Subspace

import reference
from reference import apply, is_zero_vector, rank, trace, vdot, zeros


F = Fraction

small_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def matrices(max_rows=4, max_cols=4):
    def build(shape):
        r, c = shape
        return st.lists(
            st.lists(small_fractions, min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        ).map(lambda rows: Matrix.from_rows(rows, c))

    return st.tuples(
        st.integers(1, max_rows), st.integers(1, max_cols)
    ).flatmap(build)


# -- rref ------------------------------------------------------------------


def test_rref_dependent_rows():
    m, pivots = Matrix.from_rows([[2, 4], [1, 2]]).rref()
    assert m == Matrix.from_rows([[1, 2]])
    assert pivots == (0,)


def test_rref_identity():
    m, pivots = Subspace.full(3).basis.rref()
    assert m == Subspace.full(3).basis
    assert pivots == (0, 1, 2)


def test_rref_permutation():
    m, pivots = Matrix.from_rows([[0, 1], [1, 0]]).rref()
    assert m == Subspace.full(2).basis
    assert pivots == (0, 1)


def test_rref_zero_rows_dropped():
    m, pivots = Matrix.from_rows([[0, 0, 0], [0, 2, 4]]).rref()
    assert m == Matrix.from_rows([[0, 1, 2]])
    assert pivots == (1,)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_idempotent(m):
    r1, p1 = m.rref()
    r2, p2 = r1.rref()
    assert r1 == r2
    assert p1 == p2
    assert list(p1) == sorted(p1)


def _in_row_space(reduced, pivots, row):
    w = list(row)
    for r_idx, p in enumerate(pivots):
        c = w[p]
        if c:
            w = [a - c * b for a, b in zip(w, reduced.row(r_idx))]
    return is_zero_vector(w)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_preserves_row_space(m):
    reduced, pivots = m.rref()
    for i in range(m.rows):
        assert _in_row_space(reduced, pivots, m.row(i))
    for i in range(reduced.rows):
        red2, piv2 = m.rref()
        assert _in_row_space(red2, piv2, reduced.row(i))


# -- the integer kernel against the Fraction slow path --------------------------


def _random_matrices(count: int, seed: int):
    """Seeded rational matrices: small, with denominators, or with huge entries.

    Some rows are zero and some are combinations of others, so ranks fall
    short; pivots come out negative and non-unit as often as not.
    """
    rng = random.Random(seed)
    draws = (
        lambda: rng.randint(-3, 3),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        lambda: Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**20)),
    )
    for _ in range(count):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        draw, zero_share = rng.choice(draws), rng.random()
        m = [[draw() if rng.random() > zero_share else 0 for _ in range(cols)]
             for _ in range(rows)]
        if m and rng.random() < 0.5:
            a, b, c = rng.choice(m), rng.choice(m), draw()
            m.append([x + c * y for x, y in zip(a, b)])
        yield Matrix.from_rows(m, cols)


def _hilbert(n: int) -> Matrix:
    return Matrix.from_rows([[F(1, i + j + 1) for j in range(n)] for i in range(n)])


EDGE_MATRICES = [
    Matrix.from_rows([], 0),
    Matrix.from_rows([], 4),
    Matrix.from_rows([(), (), ()], 0),
    zeros(3, 4),
    Matrix.from_rows([[0, -3, 2, 5], [0, 6, -4, 1], [0, -9, 6, 7]]),
    Matrix.from_rows([[F(-7, 2), F(1, 3)], [F(7, 4), F(-1, 6)]]),
    _hilbert(9),
    # rank 2, entries near 2^200: coefficient growth in the updates
    _hilbert(6) @ Matrix.from_rows([[2**200 + 1, 3, -(5**80)], [7, -(2**150), 1]]
                                   + [[0, 0, 0]] * 4),
]


@pytest.mark.parametrize("m", EDGE_MATRICES, ids=range(len(EDGE_MATRICES)))
def test_rref_matches_fraction_slow_path_on_edge_cases(m):
    assert m.rref() == reference.fraction_rref(m)


def test_rref_matches_fraction_slow_path_on_random_matrices():
    ranks = set()
    for m in _random_matrices(1500, 20240811):
        red, pivots = m.rref()
        assert (red, pivots) == reference.fraction_rref(m)
        ranks.add((len(pivots), m.rows))
    assert (0, 0) in ranks and (0, 3) in ranks and (7, 7) in ranks


# -- one elimination step against the column sweep -----------------------------


@st.composite
def row_lists(draw, max_rows=5, max_cols=5, max_extra=3):
    """(rows, cols): int or Fraction rows, with zero rows and repeats of drawn
    rows (some scaled) mixed in at drawn places."""
    cols = draw(st.integers(0, max_cols))
    entry = draw(st.sampled_from((st.integers(-3, 3), small_fractions)))
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=max_rows))
    for _ in range(draw(st.integers(0, max_extra))):
        if rows and draw(st.booleans()):
            c = draw(st.sampled_from((1, -1, 2, Fraction(-1, 3))))
            extra = [c * x for x in draw(st.sampled_from(rows))]
        else:
            extra = [0] * cols
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows, cols


def _primitive(row):
    """The int or Fraction row scaled to coprime integers (0s for a zero row)."""
    ints = numerators(row)[0]
    g = math.gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


@st.composite
def sparse_row_lists(draw, max_rows=8, max_cols=12):
    """(rows, cols): sparse 0/±1 rows, each a {col: int} dict or a list, in
    shuffled order.  A row often takes an earlier row's first column, so
    reducing it fills in that row's other columns."""
    cols = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        support = draw(st.sets(st.integers(0, cols - 1), max_size=3))
        earlier = [r for r in rows if r]
        if earlier and draw(st.booleans()):
            support.add(min(draw(st.sampled_from(earlier))))
        rows.append({k: draw(st.sampled_from((1, -1))) for k in sorted(support)})
    rows = draw(st.permutations(rows))
    return [r if draw(st.booleans()) else dense(r, cols) for r in rows], cols


def _check_table(table, cols):
    """Each row a {col: int} dict with no zero entries, primitive, positive at
    its pivot, which is its first column, and with no entry at another pivot."""
    for c, row in table.items():
        assert all(0 <= k < cols and type(x) is int and x for k, x in row.items())
        assert min(row) == c and row[c] > 0 and math.gcd(*row.values()) == 1
        assert not any(k in row for k in table if k != c)


@settings(max_examples=300, deadline=None)
@given(row_lists())
def test_echelon_rows_match_column_sweep_and_fraction_rref(case):
    rows, cols = case
    red, pivots = echelon_rows(rows, cols)
    red = [dense(r, cols) for r in red]
    ints = [r for r in map(_primitive, rows) if any(r)]
    assert (red, list(pivots)) == reference.column_sweep_echelon(ints, cols)
    rref = Matrix.from_rows([divided(r, r[p]) for r, p in zip(red, pivots)], cols)
    assert (rref, pivots) == reference.fraction_rref(Matrix.from_rows(rows, cols))


@settings(max_examples=300, deadline=None)
@given(sparse_row_lists(), st.randoms(use_true_random=False))
def test_echelon_rows_of_sparse_rows_match_column_sweep_and_fraction_rref(case, rng):
    rows, cols = case
    table, pivots = echelon_rows(rows, cols)
    red = [dense(r, cols) for r in table]
    dense_rows = [dense(r, cols) if isinstance(r, dict) else r for r in rows]
    ints = [r for r in map(_primitive, dense_rows) if any(r)]
    assert (red, list(pivots)) == reference.column_sweep_echelon(ints, cols)
    rref = Matrix.from_rows([divided(r, r[p]) for r, p in zip(red, pivots)], cols)
    assert (rref, pivots) == reference.fraction_rref(Matrix.from_rows(dense_rows, cols))
    rng.shuffle(rows)
    assert echelon_rows(rows, cols) == (table, pivots)


@settings(max_examples=40, deadline=None)
@given(row_lists(max_rows=4, max_extra=2))
def test_echelon_rows_do_not_depend_on_row_order(case):
    rows, cols = case
    expected = echelon_rows(rows, cols)
    for order in itertools.permutations(rows):
        assert echelon_rows(order, cols) == expected


@settings(max_examples=300, deadline=None)
@given(st.one_of(row_lists(), sparse_row_lists()))
def test_insert_row_adds_exactly_the_independent_rows(case):
    rows, cols = case
    rows = [dense(r, cols) if isinstance(r, dict) else r for r in rows]
    table, rank = {}, 0
    for k, r in enumerate(rows):
        before = {c: dict(row) for c, row in table.items()}
        w = sparse(r, cols)
        given_w = dict(w)
        added = insert_row(table, w)
        assert w == given_w
        new_rank = len(reference.fraction_rref(Matrix.from_rows(rows[: k + 1], cols))[1])
        if added is None:
            assert table == before
        else:
            assert table[min(added)] is added
        assert (added is not None) == (new_rank > rank) and len(table) == new_rank
        _check_table(table, cols)
        rank = new_rank


@given(st.lists(st.one_of(st.integers(-10**20, 10**20), small_fractions), max_size=6))
def test_sparse_is_numerators_without_zeros(row):
    got = sparse(row, len(row))
    assert got == {k: x for k, x in enumerate(numerators(row)[0]) if x}
    assert all(type(x) is int for x in got.values())
    assert dense(got, len(row)) == numerators(row)[0] and sparse(got, len(row)) is got
    with pytest.raises(ValueError, match="length"):
        sparse(row, len(row) + 1)


@given(st.lists(st.integers(-10**20, 10**20), max_size=6))
def test_numerators_of_ints_match_the_fraction_path(ints):
    expected = numerators([Fraction(x) for x in ints])
    got, e = numerators(ints)
    assert (got, e) == expected and type(got) is list and all(type(x) is int for x in got)


# -- kernel ----------------------------------------------------------------


def test_kernel_trivial():
    assert Subspace.full(2).basis.kernel().rows == 0


def test_kernel_one_equation():
    assert Matrix.from_rows([[1, 1]]).kernel() == Matrix.from_rows([[1, -1]])


def test_kernel_zero_map():
    assert zeros(2, 3).kernel() == Subspace.full(3).basis


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_annihilates_and_counts(m):
    k = m.kernel()
    for i in range(k.rows):
        assert is_zero_vector(apply(m, k.row(i)))
    assert rank(m) + k.rows == m.cols


# -- products and trace -------------------------------------------------------


def test_matmul_identity():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert Subspace.full(2).basis @ m == m


def test_matmul_upper_triangular_square():
    u = Matrix.from_rows([[1, 1], [0, 1]])
    assert u @ u == Matrix.from_rows([[1, 2], [0, 1]])


def test_matmul_annihilator():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert m @ zeros(2, 2) == zeros(2, 2)


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        zeros(2, 3) @ zeros(2, 3)


def test_trace_identity():
    assert trace(Subspace.full(3).basis) == 3


def test_trace_diagonal_sum():
    assert trace(Matrix.from_rows([[1, 2], [0, 1]])) == 2


def test_trace_zero():
    assert trace(zeros(4, 4)) == 0


def test_trace_non_square():
    with pytest.raises(ValueError):
        trace(zeros(2, 3))


# -- exactness ----------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    st.integers(-50, 50),
    st.integers(1, 50),
    st.integers(-50, 50),
    st.integers(1, 50),
)
def test_fraction_addition_matches_cross_multiplication(a, b, c, d):
    # a/b + c/d recomputed from first principles.
    assert Fraction(a, b) + Fraction(c, d) == Fraction(a * d + c * b, b * d)


def test_fractions_stay_reduced_with_positive_denominator():
    x = Fraction(4, -6)
    assert (x.numerator, x.denominator) == (-2, 3)
    assert Fraction(0, 5) == Fraction(0, 1)


def test_vdot_exact():
    assert vdot((F(1, 3), F(1, 2)), (F(3), F(4))) == F(3)

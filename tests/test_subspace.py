import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieradicals.linalg import Matrix
from lieradicals.subspace import Subspace

import reference
from reference import apply


def span(*vecs, n=3):
    return Subspace.span(vecs, n)


small_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))


def subspaces(n=4):
    return st.lists(
        st.lists(small_fractions, min_size=n, max_size=n), min_size=0, max_size=n
    ).map(lambda vs: Subspace.span(vs, n))


# -- span ---------------------------------------------------------------------


def test_span_empty_is_zero():
    s = Subspace.span([], 3)
    assert s.is_zero() and s.dim == 0 and s.ambient_dim == 3


def test_span_of_integer_rows_equals_span_of_the_same_fractions():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(0, 6)
        rows = [[rng.choice((0, 0, 1, -1, 2, -6, 10**25)) for _ in range(n)]
                for _ in range(rng.randint(0, 6))]
        as_fractions = [[Fraction(x) for x in r] for r in rows]
        assert Subspace.span(rows, n) == Subspace.span(as_fractions, n)


def test_span_dependent_set():
    s = span((1, 0, 0), (2, 0, 0))
    assert s == span((1, 0, 0))
    assert s.dim == 1


def test_span_canonicalizes_to_coordinate_plane():
    # RREF of {(1,0,0), (1,1,0)} is {e1, e2}; this span shows up as the
    # derived algebra of the s3_2 example.
    s = span((1, 0, 0), (1, 1, 0))
    assert s.basis == Matrix.from_rows([[1, 0, 0], [0, 1, 0]])


def test_span_length_mismatch():
    with pytest.raises(ValueError):
        Subspace.span([(1, 0)], 3)


# -- lattice operations ----------------------------------------------------------


def test_sum_with_zero_is_identity():
    a = span((1, 2, 3))
    assert a.sum(Subspace.zero(3)) == a


def test_sum_of_coordinate_lines():
    assert span((1, 0, 0)) + span((0, 1, 0)) == span((1, 0, 0), (0, 1, 0))


def test_sum_idempotent():
    a = span((1, 2, 3), (0, 1, 1))
    assert a + a == a


@pytest.mark.parametrize("n", [0, 1, 4])
def test_full_is_built_once_per_dimension(n):
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert Subspace.full(n) is Subspace.full(n)
    assert Subspace.full(n) == Subspace.span(identity, n) and Subspace.full(n).is_full()


def test_intersect_with_full():
    a = span((1, 2, 3))
    assert a.intersect(Subspace.full(3)) == a


def test_intersect_disjoint_lines():
    assert (span((1, 0, 0)) & span((0, 1, 0))).is_zero()


def test_intersect_coordinate_planes():
    a = span((1, 0, 0), (0, 1, 0))
    b = span((0, 1, 0), (0, 0, 1))
    assert a & b == span((0, 1, 0))


def test_leq_zero_below_everything():
    assert Subspace.zero(3).leq(span((1, 1, 1)))


def test_leq_reflexive():
    a = span((1, 2, 0), (0, 0, 1))
    assert a.leq(a)


def test_leq_member_of_plane():
    assert span((1, 1, 0)).leq(span((1, 0, 0), (0, 1, 0)))
    assert not span((1, 1, 1)).leq(span((1, 0, 0), (0, 1, 0)))


def test_ambient_mismatch():
    with pytest.raises(ValueError):
        Subspace.zero(2).sum(Subspace.zero(3))
    with pytest.raises(ValueError):
        Subspace.zero(2).intersect(Subspace.zero(3))
    with pytest.raises(ValueError):
        Subspace.zero(2).leq(Subspace.zero(3))


# -- properties --------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(subspaces(), subspaces())
def test_modularity_of_dimensions(a, b):
    meet = a & b
    join = a + b
    assert a.dim + b.dim == join.dim + meet.dim
    assert meet.leq(a) and meet.leq(b)
    assert a.leq(join) and b.leq(join)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(small_fractions, min_size=4, max_size=4), min_size=1, max_size=4
    ).flatmap(
        lambda vecs: st.tuples(
            st.just(vecs),
            st.permutations(vecs),
            st.lists(
                st.sampled_from([1, -1, 2, -2, 3]),
                min_size=len(vecs),
                max_size=len(vecs),
            ),
        )
    )
)
def test_canonicality_under_permutation_and_rescaling(data):
    vecs, perm, scales = data
    rescaled = [[s * x for x in v] for s, v in zip(scales, perm)]
    assert Subspace.span(rescaled, 4) == Subspace.span(vecs, 4)


@settings(max_examples=60, deadline=None)
@given(subspaces(), subspaces())
def test_intersect_matches_coefficient_system(a, b):
    assert a.intersect(b) == reference.coefficient_intersect(a, b)


@settings(max_examples=60, deadline=None)
@given(subspaces(), subspaces())
def test_mutual_containment_is_equality(a, b):
    assert (a.leq(b) and b.leq(a)) == (a == b)


def test_contains_and_coordinates():
    a = span((1, 0, 1), (0, 1, 1))
    assert (1, 1, 2) in a
    assert (1, 1, 1) not in a


def test_equal_spans_hash_equal_whatever_the_row_and_key_order():
    """Shuffled, scaled and dict spellings of one generating set, some of them
    with the keys of a row in reverse order, give one subspace: equal, with
    equal hashes, and one member of a set.  The rows of the spans differ in
    their key order, which the hash must not see."""
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 6)
        vecs = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)]
                for _ in range(rng.randint(1, 5))]
        spellings = [Subspace.span(vecs, n)]
        for _ in range(4):
            order = rng.sample(vecs, len(vecs))
            scaled = [[c * x for x in v] for v, c in zip(order, rng.choices((1, -1, 2, -5), k=len(order)))]
            items = [[(k, x) for k, x in enumerate(v) if x] for v in scaled]
            spellings += [Subspace.span(scaled, n),
                          Subspace.span([dict(reversed(r)) for r in items], n),
                          Subspace.span([dict(rng.sample(r, len(r))) for r in items], n)]
        first = spellings[0]
        assert all(s == first and hash(s) == hash(first) for s in spellings)
        assert len(set(spellings)) == 1
    # Spans whose rows hold the same entries in another key order.
    a = Subspace.span([{0: 1, 2: 1}, {1: 1, 2: 1}], 3)
    b = Subspace.span([{2: 1, 1: 1}, {2: 1, 0: 1}], 3)
    assert [list(r) for r in a.int_rows] != [list(r) for r in b.int_rows]
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1


def test_quotient_projection_kills_the_subspace():
    a = span((1, 0, 1), (0, 1, 1))
    p = a.quotient_projection()
    for row in a.rows():
        assert all(x == 0 for x in apply(p, row))
    # the complementary coordinate survives
    assert apply(p, (0, 0, 1)) == (Fraction(1),)

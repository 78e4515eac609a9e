"""The sparse structure-tensor paths against their dense slow paths.

`LieAlgebra.killing_matrix` and `series.upper_extension` read the sparse
adjoint table; `reference.dense_killing` and `reference.dense_upper_extension`
are the dense `ad`-matrix computations they replaced.  Both are compared
entry by entry on the catalog, the seeded random corpus, the matrix-unit
families up to dimension 16, three of them again in a dense rational basis,
and abelian algebras.  `LieAlgebra.validate`, which sums each Jacobi triple
from its nonzero terms on the constants scaled to integers and packed,
is compared with the check over every pair and triple, and its whole report
with the triple loop it replaced (`reference.triple_validate`), on random raw
tables, most of them invalid, with integer constants and with denominators.
`LieAlgebra.ideal_closure`, which brackets a generating set G of L once with
each echelon row it adds, is compared with `reference.naive_ideal_closure`,
which brackets L with the whole subspace every round, on random vectors of
every input and, under hypothesis, of random-corpus algebras in their own and
a rational basis, and on generators of L that bring its table to rank n
early, where it must stop (G is built before that run is recorded).
`LieAlgebra.is_ideal`, which reduces each bracket [e_g, r], g in G, modulo
the subspace, is compared with `reference.naive_is_ideal`, which echelonizes
[L, s] first, on ideals, lines and random spans of the same inputs.
`upper_extension`, which finds out from its own elimination, and from one
`is_ideal` call after a stop, whether the subspace is an ideal, and the
ideal predicates are compared with
`reference`'s versions that run `is_ideal` first and form unbounded
products, on the same kinds of subspace and, under hypothesis, on catalog
and random-corpus algebras in their own and a rational basis: equal
results, or `NotAnIdealError` from both, and `upper_extension` raises
exactly when `is_ideal` is False.  `is_perfect_ideal` and
`is_near_perfect_ideal`, whose products stop at s once s passed the ideal test,
are compared with theirs on lines and wide spans of catalog, random-corpus and
matrix-unit algebras too.
`upper_extension` is also compared with its reference on every upper
central term of matrix-unit gl8, n14 and b12, sparse inputs past the ladder.
It runs `profile`'s `_upper_step` over all of L, forming its rows one e_g at a
time and stopping at rank n − dim s, then asks `is_ideal` when the kernel so far
is s; it is compared with
`reference.dense_upper_extension`, the dense matrices of x -> [x, e_j] read
from the table, and with `reference.checked_upper_extension`, on wide and
short spans of the catalog, random-corpus and matrix-unit algebras, among them
non-ideals that the kernel test rejects and non-ideals that only `is_ideal`
after the stop rejects, and under hypothesis on random ones, and no row is
formed after the stop.  `upper_extension`, `center`, `upper_central_series`,
`is_upper_bounded_ideal` and `profile` all reach `_upper_step`, and
`upper_extension` calls `is_ideal` once on a stabilizing ideal other than L
and never otherwise.  `profile`, which
solves every upper central step inside R(L) and stops it at a floor, is
compared with `upper_central_series` and with the series of a reference
extension on the inputs above, on gl8, n14, b12 and sl6, and under
hypothesis on random-corpus algebras.  The two bounds it takes, every
upper central term inside `radical(L)` and L^(c−k) <= U_k on a nilpotent L
of class c, are checked on the public series alone.  A monkeypatched
`_extension_rows` and `echelon_rows` show the rank each step's system stops
at and the rows it builds: none for sl3, for U(Z) = Z on gl4 and rational
gl3 or for the last step of a nilpotent input, and ranks 9, 7 and 4 on
rational n5, with no public `upper_extension` call.  `profile` takes
R(L) = P(L)^⊥ and stops the lower central series at P(L): a solvable input
builds no Killing matrix and gl4 forms no [G, sl4]; `profile` is compared
with `reference.unbounded_profile`, and its radical with `radical`, on
direct sums with 0 != P(L) < D(L), on rational n5 and n6, and on direct
sums where the upper bounds are strict or absent.

The derived and lower central series, whose products stop at the rank of
the term that bounds them, are compared term by term with
`reference.unbounded_series`, which eliminates the brackets of every pair
and forms [L, L] afresh, and the whole `profile` with
`reference.unbounded_profile`: on the matrix-unit ladder up to gl8 and n14
and, under hypothesis, on random-corpus algebras in their own and a rational
basis.  A monkeypatched `insert_row` shows that the
stabilizing steps insert no row once their table has the bound's rank, and
that `profile` forms D(L) once, from the stored brackets, with no product.
`is_near_perfect_ideal`, which reduces every bracket [e_g, r] modulo s before
it spans the same brackets bounded by s, still rejects non-ideals whose
product has their dimension, and forms each of those brackets once.
`bracket_spaces`, which takes no bound, is compared with
`reference.unbounded_product` on spans that are neither ideals nor series
terms: under hypothesis on the same random inputs, and on fixed spans of
matrix-unit algebras, where a product can outgrow both factors.

The integer paths of `Subspace` and of the algebra built on them are compared
with the `Fraction` code they replaced: `reduce` and `contains` with
`reference.fraction_reduce` on every subspace that `profile` builds,
`killing_orthogonal` with the dense `Fraction` Gram matrix, the
sparse `quotient` with `reference.dense_quotient`, which projects every pair,
and `restrict`, which brackets scaled integer rows, with
`reference.fraction_restrict`, which takes `Fraction` coordinates, on the
ideals `verify` restricts to and on spans that may not be closed.
`from_brackets`, which completes the constructor's integer table, is compared
with `reference.fraction_from_brackets` on random tables under hypothesis, and
rows given as `{k: value}` dicts must build the table of the dense rows they
spell.

`cli.profile_json`, which writes each basis entry from the integer rows and
builds a subspace reported twice once, is compared with
`reference.fraction_profile_json`, which stringifies the dense `Fraction`
RREF rows of every report, on the inputs above (gl4's radical and center are
equal, distinct objects) and, under hypothesis, on random-corpus algebras in
their own and a rational basis; its rendering is
compared with `json.dumps(..., indent=2)` of the reference dict.

`validate` and `reference.dense_validate` read the same integer table, so the
table itself is checked against the raw input it was built from: every
bracket it gives back, raw and antisymmetrized, its denominator, the order of
`pairs()`, and equality across spellings and scalings of the same table.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieradicals import catalog, cli, core, linalg, series, subspace
from lieradicals.subspace import Subspace
from lieradicals.core import LieAlgebra, NotAnIdealError, StructureConstants
from lieradicals.linalg import Matrix
from lieradicals.oracle import random_algebras, random_ideal
from lieradicals.series import (
    SeriesKind,
    derived_series,
    derived_subalgebra,
    is_near_perfect_ideal,
    is_perfect_ideal,
    is_semisimple,
    is_solvable,
    is_upper_bounded_ideal,
    lower_central_series,
    profile,
    radical,
    upper_central_series,
    upper_extension,
)

import reference
from reference import is_zero_vector
from test_closed_form import direct_sum

FAMILY_NAMES = reference.matrix_unit_ladder(16)
ABELIAN_DIMS = (0, 1, 5, 12)


def _inputs():
    cases = [(f"catalog-{n}", catalog.get(n).algebra) for n in catalog.names()]
    corpus = random_algebras(100, 4, 20240809)
    cases += [(f"random-{k:03d}", L) for k, L in enumerate(corpus)]
    cases += [(name, reference.build(name)) for name in FAMILY_NAMES]
    cases += [(name, reference.build(name)) for name in reference.RATIONAL]
    cases += [(f"abelian{n}", reference.abelian(n)) for n in ABELIAN_DIMS]
    return cases


INPUTS = _inputs()
IDS = [name for name, _ in INPUTS]


def _ideals(L):
    """Every series term, the radical, 0 and L, without repeats."""
    found = []
    for rep in (derived_series(L), lower_central_series(L), upper_central_series(L)):
        found.extend(rep.terms)
    found += [radical(L), L.zero_space(), L.full_space()]
    return list(dict.fromkeys(found))


def _structure_ideals(name, L):
    """`_ideals`, then R(L) ∩ P(L), [L, R] and three random ideals: the ideals
    that `verify` restricts to and factors out."""
    rad, perfect = radical(L), derived_series(L).stable_term
    rng = random.Random(name)
    found = _ideals(L) + [rad.intersect(perfect), L.bracket_spaces(L.full_space(), rad)]
    return list(dict.fromkeys(found + [random_ideal(L, rng.randrange(2**32)) for _ in range(3)]))


def test_inputs_cover_the_families():
    assert len(FAMILY_NAMES) == 15
    assert {"gl4", "sl3", "b5", "n6"} <= set(FAMILY_NAMES)
    assert max(L.dim for _, L in INPUTS) == 16  # gl4


@pytest.mark.parametrize("name,L", INPUTS, ids=IDS)
def test_killing_matrix_matches_dense_traces(name, L):
    assert L.killing_matrix() == reference.dense_killing(L)


@pytest.mark.parametrize("name,L", INPUTS, ids=IDS)
def test_bracket_and_ad_of_basis_vectors_give_the_constants(name, L):
    for i in range(L.dim):
        ad_i = L.ad(L.basis_vector(i))
        for j in range(L.dim):
            expected = L.constants.bracket_basis(i, j)
            assert L.bracket(L.basis_vector(i), L.basis_vector(j)) == expected
            assert tuple(ad_i[k, j] for k in range(L.dim)) == expected


@pytest.mark.parametrize("name,L", INPUTS, ids=IDS)
def test_upper_extension_matches_dense_stack(name, L):
    for ideal in _ideals(L):
        assert upper_extension(L, ideal) == reference.dense_upper_extension(L, ideal)


@pytest.mark.parametrize("name,L", INPUTS, ids=IDS)
def test_killing_orthogonal_matches_fraction_gram(name, L):
    gram = L.killing_matrix()  # equal to the dense traces, as tested above
    for ideal in _ideals(L):
        assert L.killing_orthogonal(ideal).basis == reference.fraction_killing_orthogonal(gram, ideal)


@pytest.mark.parametrize("name,L", INPUTS, ids=IDS)
def test_quotient_matches_dense_projection(name, L):
    for ideal in _structure_ideals(name, L):
        expected_q, expected_proj = reference.dense_quotient(L, ideal)
        assert L.quotient(ideal) == expected_q
        assert reference.quotient_projection(ideal) == expected_proj


def _outcome(fn, *args):
    """fn's result, or the type of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


@pytest.mark.parametrize("name,L", INPUTS, ids=IDS)
def test_restrict_matches_fraction_coordinates(name, L):
    """On the ideals `verify` restricts to, then on lines and random spans,
    closed or not."""
    for s in _structure_ideals(name, L):
        assert L.restrict(s) == reference.fraction_restrict(L, s)
    rng = random.Random(name)
    spaces = _lines(L) + [Subspace.span([[rng.randint(-1, 1) for _ in range(L.dim)]
                                         for _ in range(rng.randint(1, 3))], L.dim)
                          for _ in range(3)]
    outcomes = [_outcome(LieAlgebra.restrict, L, s) for s in spaces]
    assert outcomes == [_outcome(reference.fraction_restrict, L, s) for s in spaces]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 9), st.booleans(), st.data())
def test_restrict_matches_fraction_coordinates_on_random_spans(seed, k, rational, data):
    """Spans of 1 to 3 int or Fraction vectors, and the ideals they generate, in
    a random-corpus algebra or its rational basis; NotClosedError exactly when
    the reference raises it."""
    L = random_algebras(k + 1, 4, seed)[k]
    if rational:
        L = reference.rebase(L)
    entry = st.sampled_from((0, 0, 1, -1, 2, Fraction(-1, 2), Fraction(2, 3)))
    vecs = data.draw(st.lists(st.lists(entry, min_size=L.dim, max_size=L.dim),
                              min_size=1, max_size=3))
    for s in (Subspace.span(vecs, L.dim), L.ideal_closure(vecs)):
        got = _outcome(LieAlgebra.restrict, L, s)
        assert got == _outcome(reference.fraction_restrict, L, s)


def _profile_subspaces(monkeypatch) -> list:
    """Every distinct subspace that `profile` builds on the inputs."""
    made = {}
    init = Subspace.__init__
    built = iter(range(20_000))  # about 2,000 when every series terminates

    def record(self, *args):
        init(self, *args)
        made.setdefault(self, None)
        assert next(built, None) is not None, "a series did not stabilize"

    monkeypatch.setattr(Subspace, "__init__", record)
    for _, L in INPUTS:
        profile(L)
    monkeypatch.undo()
    return list(made)


def _test_vectors(rng: random.Random, s: Subspace) -> list:
    """Random int and Fraction vectors, some with 30-digit denominators, and
    vectors of s and next to it."""
    n, big = s.ambient_dim, 10**30
    vecs = [
        [rng.randint(-3, 3) for _ in range(n)],
        [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 7))) for _ in range(n)],
        [Fraction(rng.randint(-big, big), rng.randint(big // 10, big)) for _ in range(n)],
    ]
    inside = [sum((Fraction(rng.randint(-big, big), rng.randint(1, big)) * row[k]
                   for row in s.rows()), Fraction(0)) for k in range(n)]
    vecs.append(inside)
    if n:
        vecs.append([x + (k == rng.randrange(n)) for k, x in enumerate(inside)])
    return vecs


def test_reduce_coordinates_contains_match_fraction_elimination(monkeypatch):
    spaces = _profile_subspaces(monkeypatch)
    assert len(spaces) >= 100
    assert any(s._delta > 1 for s in spaces)
    rng = random.Random(20261018)
    outcomes = set()
    for s in spaces:
        for v in _test_vectors(rng, s) + _test_vectors(rng, s):
            rest = reference.fraction_reduce(s, v)[1]
            inside = is_zero_vector(rest)
            outcomes.add(inside)
            assert s.reduce(v) == rest
            assert s.contains(v) == inside
    assert outcomes == {True, False}


@pytest.mark.parametrize("name,L", INPUTS, ids=IDS)
def test_ideal_closure_matches_naive_iteration(name, L):
    rng = random.Random(name)
    for count in (1, 1, 2, 3):
        vecs = [[Fraction(rng.randint(-2, 2), rng.choice((1, 1, 3))) for _ in range(L.dim)]
                for _ in range(count)]
        assert L.ideal_closure(vecs) == reference.naive_ideal_closure(L, vecs)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 9), st.booleans(), st.data())
def test_ideal_closure_matches_naive_iteration_on_random_algebras(seed, k, rational, data):
    """The k-th algebra of a random corpus, in its own or the rational basis,
    on 0 to 3 int or Fraction vectors with repeats and zero vectors."""
    L = random_algebras(k + 1, 4, seed)[k]
    if rational:
        L = reference.rebase(L)
    entry = st.sampled_from((0, 0, 1, -1, 2, Fraction(-1, 2), Fraction(2, 3)))
    vecs = data.draw(st.lists(st.lists(entry, min_size=L.dim, max_size=L.dim), max_size=3))
    vecs += vecs[:data.draw(st.integers(0, 1))]
    assert L.ideal_closure(vecs) == reference.naive_ideal_closure(L, vecs)


@pytest.mark.parametrize("vecs", [[(1, 0)], [(1, 0, 0), (1, 0, 0, 0)]])
def test_ideal_closure_length_mismatch(vecs):
    with pytest.raises(ValueError, match="vector length disagrees"):
        catalog.get("s3_2").algebra.ideal_closure(vecs)


def _lines(L) -> list:
    """span(e_j) and span(e_0 + e_k).  If all were ideals, every ad x would be
    one scalar on L, zero since [x, x] = 0; so some line fails unless L is abelian."""
    n = L.dim
    vecs = [[int(i == j) for i in range(n)] for j in range(n)]
    vecs += [[int(i in (0, k)) for i in range(n)] for k in range(1, n)]
    return [Subspace.span([v], n) for v in vecs]


@pytest.mark.parametrize("name,L", INPUTS, ids=IDS)
def test_is_ideal_matches_naive_test(name, L):
    """On the series terms and the radical, on lines, and on spans of random
    vectors alone and joined to part of an ideal's basis."""
    rng = random.Random(name)
    ideals = _ideals(L)
    assert all(L.is_ideal(s) for s in ideals)
    spaces = _lines(L)
    for _ in range(3):
        vecs = [[rng.randint(-1, 1) for _ in range(L.dim)] for _ in range(rng.randint(1, 2))]
        base = rng.choice(ideals).int_rows
        spaces += [Subspace.span(vecs, L.dim), Subspace.span([*base[1:], vecs[0]], L.dim)]
    outcomes = [L.is_ideal(s) for s in spaces]
    assert outcomes == [reference.naive_is_ideal(L, s) for s in spaces]
    assert (False in outcomes) == any(L.constants.adjoint)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 9), st.booleans(), st.data())
def test_is_ideal_matches_naive_test_on_random_algebras(seed, k, rational, data):
    """Spans of 1 to 3 int or Fraction vectors of a random-corpus algebra, in
    its own or the rational basis, and the ideals they generate."""
    L = random_algebras(k + 1, 4, seed)[k]
    if rational:
        L = reference.rebase(L)
    entry = st.sampled_from((0, 0, 1, -1, 2, Fraction(-1, 2), Fraction(2, 3)))
    vecs = data.draw(st.lists(st.lists(entry, min_size=L.dim, max_size=L.dim),
                              min_size=1, max_size=3))
    for s in (Subspace.span(vecs, L.dim), L.ideal_closure(vecs)):
        assert L.is_ideal(s) == reference.naive_is_ideal(L, s)


def test_is_ideal_length_mismatch():
    with pytest.raises(ValueError, match="ambient dimension disagrees"):
        catalog.get("s3_2").algebra.is_ideal(Subspace.zero(2))


#: Each predicate that checks its own input, and the reference that runs
#: `is_ideal` before it computes.
PREDICATES = (
    (upper_extension, reference.checked_upper_extension),
    (is_perfect_ideal, reference.checked_is_perfect_ideal),
    (is_near_perfect_ideal, reference.checked_is_near_perfect_ideal),
    (is_upper_bounded_ideal, reference.checked_is_upper_bounded_ideal),
)


def _checked_outcomes(L, s) -> tuple:
    """(got, want): each predicate's result or NotAnIdealError against its
    reference's, then whether `upper_extension` raised against `not is_ideal`."""

    def outcome(fn):
        try:
            return fn(L, s)
        except NotAnIdealError:
            return NotAnIdealError

    pairs = [(outcome(new), outcome(old)) for new, old in PREDICATES]
    pairs.append((pairs[0][0] is NotAnIdealError, not L.is_ideal(s)))
    return tuple(zip(*pairs))


@pytest.mark.parametrize("name,L", INPUTS, ids=IDS)
def test_ideal_predicates_match_checked_reference(name, L):
    """On the series terms and the radical, on lines, and on spans of random
    vectors alone and added to an ideal."""
    rng = random.Random(name)
    ideals = _ideals(L)
    spaces = ideals + _lines(L)
    for _ in range(3):
        vecs = [[rng.randint(-1, 1) for _ in range(L.dim)] for _ in range(rng.randint(1, 2))]
        spaces += [Subspace.span(vecs, L.dim), rng.choice(ideals).sum(Subspace.span(vecs, L.dim))]
    raised = set()
    for s in spaces:
        got, want = _checked_outcomes(L, s)
        assert got == want
        raised.add(got[-1])
    assert raised == ({False, True} if any(L.constants.adjoint) else {False})


@pytest.mark.parametrize("name", ["gl8", "n14", "b12"])
def test_upper_extension_matches_checked_reference_past_the_ladder(name):
    """U(t) for every upper central term t, on dims 64, 91 and 78, where the
    sparse reduction touches a few of hundreds of columns."""
    L = reference.build(name)
    terms = upper_central_series(L).terms
    assert len(terms) >= 3
    for t in terms:
        assert upper_extension(L, t) == reference.checked_upper_extension(L, t)


CATALOG_OR_CORPUS = st.one_of(
    st.sampled_from(catalog.names()).map(lambda n: catalog.get(n).algebra),
    st.builds(lambda seed, k: random_algebras(k + 1, 4, seed)[k],
              st.integers(0, 2**32), st.integers(0, 9)),
)


@settings(max_examples=200, deadline=None)
@given(CATALOG_OR_CORPUS, st.booleans(), st.data())
def test_ideal_predicates_match_checked_reference_on_random_spans(L, rational, data):
    """Spans of 1 to 3 int or Fraction vectors of a catalog or random-corpus
    algebra, in its own or the rational basis, the ideal they generate, and
    that ideal plus one more vector: equal results, or NotAnIdealError from both."""
    if rational:
        L = reference.rebase(L)
    entry = st.sampled_from((0, 0, 1, -1, 2, Fraction(-1, 2), Fraction(2, 3)))
    vector = st.lists(entry, min_size=L.dim, max_size=L.dim)
    vecs = data.draw(st.lists(vector, min_size=1, max_size=3))
    ideal = L.ideal_closure(vecs)
    for s in (Subspace.span(vecs, L.dim), ideal,
              ideal.sum(Subspace.span([data.draw(vector)], L.dim))):
        got, want = _checked_outcomes(L, s)
        assert got == want


@pytest.mark.parametrize("name", ["gl3", "b4", "rational-b3", "rational-gl3"])
def test_ideal_closure_stops_at_rank_n(name, monkeypatch):
    """The basis vectors off the pivots of [L, L] generate L here; the closure
    inserts nothing after its table reaches rank n and matches the naive loop.
    The generating set G, which the closure brackets with, is built first, so
    only the closure's own table is recorded."""
    L = reference.build(name)
    n, derived = L.dim, L.bracket_spaces(L.full_space(), L.full_space())
    vecs = [[int(i == c) for i in range(n)] for c in derived.free_columns()]
    assert L._generators
    ranks = []
    insert_row = core.insert_row

    def record(rows, w):
        added = insert_row(rows, w)
        ranks.append(len(rows))
        return added

    monkeypatch.setattr(core, "insert_row", record)
    closed = L.ideal_closure(vecs)
    monkeypatch.undo()
    assert closed == reference.naive_ideal_closure(L, vecs) == L.full_space()
    assert ranks.index(n) == len(ranks) - 1


#: The matrix-unit ladder up to gl8 (dim 64), and n14 (dim 91), whose lower
#: central series takes 13 steps to reach 0.
BOUNDED_LADDER = reference.matrix_unit_ladder(64) + ["n14"]


def _check_descending_against_unbounded(L):
    assert derived_series(L) == reference.unbounded_series(L, SeriesKind.DERIVED)
    assert lower_central_series(L) == reference.unbounded_series(L, SeriesKind.LOWER_CENTRAL)
    assert _outcome(profile, L) == _outcome(reference.unbounded_profile, L)


@pytest.mark.parametrize("name", BOUNDED_LADDER)
def test_descending_series_match_unbounded_products_on_the_ladder(name):
    """Each bounded product, term by term, and the whole profile, with its one
    [L, L], against the products of every pair with no bound."""
    _check_descending_against_unbounded(reference.build(name))


def _random_algebra(seed: int, k: int, basis: str) -> LieAlgebra:
    """Random-corpus algebra k in its own or the rational basis."""
    L = random_algebras(k + 1, 4, seed)[k]
    return reference.rebase(L) if basis == "rational" else L


RANDOM_INPUTS = (st.integers(0, 2**32), st.integers(0, 9), st.sampled_from(("own", "rational")))


@settings(max_examples=200, deadline=None)
@given(*RANDOM_INPUTS)
def test_descending_series_match_unbounded_products_on_random_algebras(seed, k, basis):
    """A random-corpus algebra in its own or the rational basis."""
    _check_descending_against_unbounded(_random_algebra(seed, k, basis))


def _settled_inputs():
    """Direct sums with 0 != P(L) < D(L), where R(L) = P(L)^⊥ takes constraint rows
    that D(L)^⊥ does not, and nilpotent inputs in a rational basis."""
    perfect = [(name, catalog.get(name).algebra) for name in ("sl2", "sl2_plus_s3_2")]
    parts = [(name, catalog.get(name).algebra) for name in ("heis3", "s3_2")]
    parts += [(name, reference.build(name)) for name in ("b3", "rational-b3", "rational-n4")]
    cases = [pytest.param(direct_sum(x, y), id=f"{a}+{b}") for a, x in perfect for b, y in parts]
    return cases + [pytest.param(reference.build(name), id=name)
                    for name in ("rational-n5", "rational-n6")]


@pytest.mark.parametrize("L", _settled_inputs())
def test_profile_matches_unbounded_profile_where_the_series_settle_answers(L):
    """`profile` takes R(L) = P(L)^⊥, stops the lower central series at P(L) and
    solves each upper central step inside R(L), down to its floor;
    `unbounded_profile` takes D(L)^⊥, the public upper central series and
    products with no bound."""
    prof = profile(L)
    p = prof.perfect_radical
    d1 = derived_subalgebra(L)
    assert prof.nilpotent or not p.is_zero() and p <= d1 and p != d1
    assert prof == reference.unbounded_profile(L)
    assert prof.radical == radical(L)


@pytest.mark.parametrize("name", ["gl4", "sl3", "rational-gl3"])
def test_descending_products_stop_at_the_bounding_term(name, monkeypatch):
    """Each series' stabilizing step, and [s, s] in `is_perfect_ideal`, inserts
    no row once its table has the rank of the term that bounds it; `profile`
    forms D(L) once for both descending series, from the stored brackets, with
    no `bracket_spaces` product."""
    L = reference.build(name)
    spans, products, derived = [], [], []  # (rank, table size after each insertion); ...
    echelon_rows, insert_row = linalg.echelon_rows, linalg.insert_row
    bracket_spaces, derived_subalgebra = LieAlgebra.bracket_spaces, series.derived_subalgebra

    def record_span(rows, cols, rank=None):
        spans.append((rank, []))
        return echelon_rows(rows, cols, rank)

    def record_insert(rows, w):
        added = insert_row(rows, w)
        spans[-1][1].append(len(rows))
        return added

    def record_product(self, a, b, *bound):
        products.append((a, b))
        return bracket_spaces(self, a, b, *bound)

    def record_derived(L):
        derived.append(L)
        return derived_subalgebra(L)

    def assert_stopped(rank):
        got, sizes = spans[-1]
        assert got == rank and sizes.index(rank) == len(sizes) - 1

    monkeypatch.setattr(subspace, "echelon_rows", record_span)
    monkeypatch.setattr(linalg, "insert_row", record_insert)
    monkeypatch.setattr(LieAlgebra, "bracket_spaces", record_product)
    monkeypatch.setattr(series, "derived_subalgebra", record_derived)
    for chain in (lower_central_series, derived_series):
        stable = chain(L).stable_term
        assert_stopped(stable.dim)
    assert is_perfect_ideal(L, stable)
    assert_stopped(stable.dim)
    products.clear()
    derived.clear()
    prof = profile(L)
    monkeypatch.undo()
    assert derived == [L] and products == []
    assert prof == reference.unbounded_profile(L)


@pytest.mark.parametrize("name,col,product", [("heis3", 0, [[0, 0, 1]]),
                                              ("sl2", 1, [[1, 0, 0], [0, 1, 0]])],
                         ids=["heis3", "sl2"])
def test_near_perfect_ideal_test_forms_an_unbounded_product(name, col, product):
    """s = span(e_col) is no ideal, and [L, s] has at least its dimension: in
    heis3, [L, e1] = span(e3); in sl2, the first bracket [h, e] = 2e lies in s, so
    a product bounded by s would stop there, equal to s, and pass a non-ideal.
    The ideal test is `is_ideal`, which reduces every bracket, before that product."""
    L = catalog.get(name).algebra
    s = Subspace.span([[int(i == col) for i in range(3)]], 3)
    assert L.bracket_spaces(L.full_space(), s) == Subspace.span(product, 3)
    with pytest.raises(NotAnIdealError):
        is_near_perfect_ideal(L, s)


@pytest.mark.parametrize("name", ["gl3", "b4", "rational-gl3"])
def test_near_perfect_ideal_test_forms_its_brackets_once(name, monkeypatch):
    """The ideal test and the span of [L, s] share one list of brackets: one
    `_basis_brackets` call per basis row of s, and no `_brackets` product."""
    L = reference.build(name)
    ideals = [L.full_space(), series.derived_subalgebra(L), radical(L), L.zero_space()]
    expected = [reference.checked_is_near_perfect_ideal(L, s) for s in ideals]
    calls = []
    basis_brackets = LieAlgebra._basis_brackets
    monkeypatch.setattr(LieAlgebra, "_basis_brackets",
                        lambda self, u: calls.append(u) or basis_brackets(self, u))
    monkeypatch.setattr(LieAlgebra, "_brackets", None)  # calling it would raise
    for s, near_perfect in zip(ideals, expected):
        calls.clear()
        assert is_near_perfect_ideal(L, s) == near_perfect
        assert len(calls) == s.dim
    assert expected[:2] == [False, True]  # [L, L] < L, and [L, [L, L]] = [L, L]


def _random_spans(draw, L: LieAlgebra) -> tuple[Subspace, Subspace]:
    """Two spans of 0 to 3 vectors with entries in −2..2; `draw(k)` gives a number
    in 0..k.  They are in general neither ideals nor terms of a series."""
    def span():
        return Subspace.span([[draw(4) - 2 for _ in range(L.dim)] for _ in range(draw(3))],
                             L.dim)
    return span(), span()


@settings(max_examples=200, deadline=None)
@given(*RANDOM_INPUTS, st.data())
def test_bracket_spaces_match_unbounded_product_on_random_spans(seed, k, basis, data):
    """The same random inputs and arbitrary spans a and b: [a, b] against the
    span of every pair's bracket, summed apart from the package."""
    L = _random_algebra(seed, k, basis)
    a, b = _random_spans(lambda top: data.draw(st.integers(0, top)), L)
    assert L.bracket_spaces(a, b) == reference.unbounded_product(L, a, b)


@pytest.mark.parametrize("name", ["gl3", "b4", "n5", "sl3", "rational-gl3"])
def test_bracket_spaces_match_unbounded_product_on_fixed_spans(name):
    L, rng = reference.build(name), random.Random(20261019)
    for _ in range(20):
        a, b = _random_spans(lambda top: rng.randint(0, top), L)
        assert L.bracket_spaces(a, b) == reference.unbounded_product(L, a, b)


@pytest.mark.parametrize("name,L", INPUTS, ids=IDS)
def test_profile_semisimple_agrees_with_form_cross_check(name, L):
    assert profile(L).semisimple == is_semisimple(L)


INTEGER_VALUES = (0, 0, 1, -1, 2)
RATIONAL_VALUES = (0, 0, 1, Fraction(-1, 2), Fraction(2, 3), Fraction(-3, 4))


#: Inputs profiled beyond INPUTS for the elimination check below: an upper
#: extension brackets with a generating set, not the whole basis, so INPUTS
#: alone show the kernel fewer matrices than the check asks for.
PROFILE_MATRIX_EXTRAS = ("rational-sl3", "rational-b4", "rational-n4", "rational-n6")


def test_rref_matches_fraction_slow_path_on_profile_matrices(monkeypatch):
    """Every matrix the elimination kernel sees while profiling the inputs and
    PROFILE_MATRIX_EXTRAS: its canonical integer rows, divided by their pivots,
    are the RREF."""
    seen = {}
    kernel = linalg.echelon_rows

    def record(rows, cols, *rank):
        # The kernel takes {col: int} rows too; record every row densely.
        rows = list(rows)
        dense = tuple(tuple(linalg.dense(r, cols) if isinstance(r, dict) else r) for r in rows)
        seen.setdefault((dense, cols), name)
        return kernel(rows, cols, *rank)

    monkeypatch.setattr(linalg, "echelon_rows", record)
    monkeypatch.setattr(subspace, "echelon_rows", record)
    for name, L in INPUTS + [(name, reference.build(name)) for name in PROFILE_MATRIX_EXTRAS]:
        profile(L)
    monkeypatch.undo()
    assert len(seen) >= 300
    # Profiling hands the kernel integers only, the inputs with denominators included.
    assert set(reference.RATIONAL) <= set(seen.values())
    assert all(type(x) is int for rows, _ in seen for r in rows for x in r)
    for rows, cols in seen:
        m = Matrix.from_rows(rows, cols)
        expected = reference.fraction_rref(m)
        assert m.rref() == expected
        ints, pivots = kernel(rows, cols)
        ints = [linalg.dense(r, cols) for r in ints]
        assert all(r[p] > 0 and gcd(*r) == 1 for r, p in zip(ints, pivots))
        red = [linalg.divided(r, r[p]) for r, p in zip(ints, pivots)]
        assert (Matrix.from_rows(red, cols), pivots) == expected


def _random_tables(count: int, seed: int, values=INTEGER_VALUES):
    """(dim, table) for random tables of ordered pairs, the diagonal included."""
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(1, 6)
        table = {
            (rng.randrange(dim), rng.randrange(dim)): [
                rng.choice(values) for _ in range(dim)
            ]
            for _ in range(rng.randint(0, 8))
        }
        yield dim, table


def _raw_tables(count: int, seed: int, values=INTEGER_VALUES):
    """Random tables, raw and antisymmetrized; most fail an axiom."""
    for dim, table in _random_tables(count, seed, values):
        yield StructureConstants(dim, table)
        try:
            yield StructureConstants.from_brackets(dim, table)
        except ValueError:  # both orientations given, inconsistently
            pass


def _check_against_full_validate(tables):
    kinds = set()
    for constants in tables:
        L = LieAlgebra(constants)
        report = L.validate()
        assert (report.ok, report.kind, report.indices) == reference.dense_validate(L)
        assert report == reference.triple_validate(L)
        kinds.add(report.kind)
    assert kinds == {None, "antisymmetry", "jacobi"}


def test_validate_reports_the_first_failure_of_the_full_check():
    _check_against_full_validate(_raw_tables(1500, 7))


def test_validate_with_denominators_matches_the_full_check():
    _check_against_full_validate(_raw_tables(800, 11, RATIONAL_VALUES))


@pytest.mark.parametrize("name,L", INPUTS, ids=IDS)
def test_valid_inputs_pass_both_checks(name, L):
    assert L.validate().ok and reference.dense_validate(L)[0]
    assert reference.triple_validate(L).ok


# -- the integer tensor against the table it was given ----------------------------


def _scaled(table: dict, c) -> dict:
    return {key: [c * Fraction(x) for x in v] for key, v in table.items()}


def _check_tensor(dim: int, table: dict) -> None:
    """`StructureConstants` on a table gives back its Fractions, raw and
    antisymmetrized, and compares by value whatever numbers spell them."""
    given = {key: tuple(map(Fraction, v)) for key, v in table.items()}
    zero = (Fraction(0),) * dim
    expected = {key: v for key, v in given.items() if v != zero}
    raw = StructureConstants(dim, table)
    assert raw.denominator == lcm(*(x.denominator for v in given.values() for x in v))
    assert all(all(col.values()) for row in raw.adjoint for col in row.values())
    derived = dict(expected)
    for (i, j), v in expected.items():
        derived.setdefault((j, i), tuple(-x for x in v))
    cases = [(raw, expected)]
    try:
        cases.append((StructureConstants.from_brackets(dim, table), derived))
    except ValueError:  # both orientations given, inconsistently
        assert any(derived[(j, i)] != tuple(-x for x in v)
                   for (i, j), v in expected.items() if i != j)
    for constants, values in cases:
        for i in range(dim):
            for j in range(dim):
                assert constants.bracket_basis(i, j) == values.get((i, j), zero)
        listed = list(constants.pairs())
        assert [(i, j) for i, j, _ in listed] == sorted(k for k in values if k[0] < k[1])
        assert all(v == values[(i, j)] for i, j, v in listed)
    # The same values spelled as ints, as unreduced and as reduced Fractions.
    spellings = (
        {key: [x.numerator if x.denominator == 1 else x for x in v] for key, v in given.items()},
        {key: [Fraction(2 * x.numerator, 2 * x.denominator) for x in v] for key, v in given.items()},
        given,
    )
    assert all(StructureConstants(dim, t) == raw for t in spellings)
    for c in (2, Fraction(1, 2), -1):
        assert (StructureConstants(dim, _scaled(table, c)) == raw) == (not expected)


@pytest.mark.parametrize("name,L", INPUTS, ids=IDS)
def test_tensor_gives_back_the_defining_brackets(name, L):
    table = {(i, j): v for i, j, v in L.constants.pairs()}
    _check_tensor(L.dim, table)
    assert StructureConstants.from_brackets(L.dim, table) == L.constants


@pytest.mark.parametrize("values", [INTEGER_VALUES, RATIONAL_VALUES], ids=["int", "rational"])
def test_tensor_gives_back_raw_tables(values):
    for dim, table in _random_tables(800, 13, values):
        _check_tensor(dim, table)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 5), st.data())
def test_from_brackets_matches_fraction_table(dim, data):
    """Random tables of int, `Fraction` and str entries with zero vectors,
    diagonal entries, both orientations of some pairs (consistent or not, the
    negation spelled as a `Fraction` or a str), wrong lengths and indices out
    of range.  The one difference from the `Fraction` table: a pair out of
    range is rejected even when its vector is zero."""
    indices = st.sampled_from([*range(dim)] * 4 + [-1, dim])
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, Fraction(-1, 2), Fraction(2, 3), "3/4", "-1", "0"))
    lengths = st.sampled_from([dim] * 8 + [dim + 1] + [dim - 1] * (dim > 0))

    def draw_vector():
        return data.draw(st.lists(entry, min_size=(n := data.draw(lengths)), max_size=n))

    table = {data.draw(st.tuples(indices, indices)): draw_vector()
             for _ in range(data.draw(st.integers(0, 6)))}
    for (i, j), v in list(table.items()):
        neg = [-Fraction(x) for x in v]
        reverse = data.draw(st.sampled_from((None, neg, [str(x) for x in neg], "other")))
        if reverse is not None:
            table[(j, i)] = draw_vector() if reverse == "other" else reverse
    got = _outcome(StructureConstants.from_brackets, dim, table)
    expected = _outcome(reference.fraction_from_brackets, dim, table)
    out_of_range = [v for (i, j), v in table.items() if not (0 <= i < dim and 0 <= j < dim)]
    if out_of_range:
        assert got is ValueError
        assert expected is ValueError or not any(Fraction(x) for v in out_of_range for x in v)
    else:
        assert got == expected


# -- dict rows and dense rows ----------------------------------------------------------

ENTRIES = (0, "0", Fraction(0), 1, -1, 2, "3/4", Fraction(2, 3), Fraction(-1, 2))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.data())
def test_dict_rows_build_the_table_of_the_dense_rows(dim, data):
    """The same rows as dicts, holding every nonzero entry and some of the zero
    ones, whatever they spell zero with."""
    index = st.integers(0, dim - 1)
    rows = st.lists(st.sampled_from(ENTRIES), min_size=dim, max_size=dim)
    dense = data.draw(st.dictionaries(st.tuples(index, index), rows, max_size=6))
    sparse = {key: {k: x for k, x in enumerate(v) if Fraction(x) or data.draw(st.booleans())}
              for key, v in dense.items()}
    assert StructureConstants(dim, sparse) == StructureConstants(dim, dense)
    built = _outcome(StructureConstants.from_brackets, dim, sparse)
    assert built == _outcome(StructureConstants.from_brackets, dim, dense)


def test_dict_row_of_zeros_stores_no_bracket():
    for zero in (0, "0", Fraction(0)):
        c = StructureConstants.from_brackets(2, {(0, 1): {0: zero, 1: zero}})
        assert c.adjoint == ({}, {}) and c.denominator == 1
    c = StructureConstants(2, {(0, 1): {0: "0", 1: Fraction(3, 4)}})
    assert c.adjoint == ({1: {1: 3}}, {}) and c.denominator == 4


@pytest.mark.parametrize("key", [-1, 2, 5])
@pytest.mark.parametrize("value", [1, 0, "0"])
def test_dict_row_key_out_of_range_is_a_value_error(key, value):
    for build in (StructureConstants, StructureConstants.from_brackets):
        with pytest.raises(ValueError):
            build(2, {(0, 1): {0: 1, key: value}})


def _check_profile_json(L):
    prof = profile(L)
    got, expected = cli.profile_json(L, prof), reference.fraction_profile_json(L, prof)
    assert got == expected
    assert cli._dump_json(got) == json.dumps(expected, indent=2) + "\n"


@pytest.mark.parametrize("name,L", INPUTS, ids=IDS)
def test_profile_json_matches_fraction_rows(name, L):
    _check_profile_json(L)


def test_profile_json_of_equal_distinct_subspaces():
    """gl4's radical and center are the same subspace held by two objects."""
    L = reference.build("gl4")
    prof = profile(L)
    assert prof.radical == prof.center and prof.radical is not prof.center
    assert cli.profile_json(L, prof)["radical"] == reference.fraction_subspace_json(prof.center)
    _check_profile_json(L)


@settings(max_examples=200, deadline=None)
@given(*RANDOM_INPUTS)
def test_profile_json_matches_fraction_rows_on_random_algebras(seed, k, basis):
    _check_profile_json(_random_algebra(seed, k, basis))


# -- the upper central series: steps inside R(L), and stopped extensions ----------


def _stacked_upper_extension(L: LieAlgebra, s: Subspace):
    """The dense kernel U(s) of x -> [x, e_j] mod s, or NotAnIdealError unless
    s <= U(s): the contract of `upper_extension`."""
    u = reference.dense_upper_extension(L, s)
    return u if s.leq(u) else NotAnIdealError


def _traced_upper_extension(L: LieAlgebra, s: Subspace) -> tuple:
    """(outcome, stopped, by the ideal test alone) of `upper_extension(L, s)`: whether
    its elimination stopped, its table reaching the rank it was given, and whether
    only `is_ideal` then raised, the stopped table's kernel being s itself.  No row
    is formed after the stop."""
    seen = {"rows": 0}
    rows, echelon_rows = series._extension_rows, subspace.echelon_rows

    def count_rows(*args):
        for r in rows(*args):
            seen["rows"] += 1
            yield r

    def record_stop(vectors, cols, rank=None):
        table = echelon_rows(vectors, cols, rank)
        seen.setdefault("stop", (seen["rows"], len(table[1]) == rank, Subspace(cols, *table)))
        return table

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "_extension_rows", count_rows)
        mp.setattr(subspace, "echelon_rows", record_stop)
        got = _outcome(upper_extension, L, s)
    eliminated, stopped, table = seen.get("stop", (0, False, None))
    assert eliminated == seen["rows"]
    return got, stopped, stopped and got is NotAnIdealError and table.annihilator() == s


def _check_upper_extension(L: LieAlgebra, s: Subspace) -> tuple:
    """`upper_extension` against the dense kernel and `checked_upper_extension`:
    (raised by the kernel test, stopped, raised by `is_ideal` alone after the stop)."""
    got, stopped, alone = _traced_upper_extension(L, s)
    assert got == _stacked_upper_extension(L, s) == _outcome(reference.checked_upper_extension,
                                                              L, s)
    return got is NotAnIdealError and not alone, stopped, alone


def _wide_spans(rng: random.Random, n: int) -> list:
    """Spans of n − 1 or n − 2 sparse vectors, whose extension may stop at rank 1
    or 2, and of one to three vectors; most are no ideal."""
    def span(count):
        return Subspace.span([[rng.choice((0, 0, 1, -1)) for _ in range(n)]
                              for _ in range(count)], n)
    return [span(max(1, n - rng.randint(1, 2))) for _ in range(3)] + [span(rng.randint(1, 3))]


def _seeded_lie_algebras() -> list:
    """The catalog, 100 random-corpus algebras and six matrix-unit and rational ones."""
    return ([catalog.get(name).algebra for name in catalog.names()]
            + random_algebras(100, 4, 21)
            + [reference.build(name) for name in ("gl3", "b4", "n5", "rational-gl3",
                                                  "rational-b3", "rational-n4")])


def test_upper_extension_stops_exactly_on_non_ideal_spans():
    """Wide and short spans of Lie algebras, most of them no ideal: equal results or
    NotAnIdealError from both references.  Among the non-ideals, the kernel test
    rejects some, and others, whose elimination stopped at rank n − dim s with s as
    its kernel, only `is_ideal` rejects."""
    rng, counts = random.Random(2026), {"kernel": 0, "stopped": 0, "alone": 0}
    for L in _seeded_lie_algebras():
        for s in _wide_spans(rng, L.dim) + _wide_spans(rng, L.dim):
            kernel, stopped, alone = _check_upper_extension(L, s)
            counts["kernel"] += kernel
            counts["stopped"] += stopped
            counts["alone"] += alone
    assert counts["kernel"] >= 100 and counts["stopped"] >= 20 and counts["alone"] >= 10, counts


@settings(max_examples=300, deadline=None)
@given(*RANDOM_INPUTS, st.data())
def test_upper_extension_matches_references_on_random_wide_spans(seed, k, basis, data):
    """A random-corpus algebra in its own or the rational basis, and spans of 1 to
    n vectors, the stopped extensions among them."""
    L = _random_algebra(seed, k, basis)
    entry = st.sampled_from((0, 0, 1, -1, 2, Fraction(-1, 2)))
    vecs = data.draw(st.lists(st.lists(entry, min_size=L.dim, max_size=L.dim),
                              min_size=1, max_size=L.dim))
    s = Subspace.span(vecs, L.dim)
    _check_upper_extension(L, s)
    _check_product_predicates(L, s)


SOLVER_INPUTS = ([(name, catalog.get(name).algebra) for name in catalog.names()]
                 + [(name, reference.build(name)) for name in ("gl4", "b4", "n5", "rational-n4")])


@pytest.mark.parametrize("name,L", SOLVER_INPUTS, ids=[n for n, _ in SOLVER_INPUTS])
def test_one_upper_extension_solver(name, L, monkeypatch):
    """Every U(·) goes through `series._upper_step`, and `upper_extension` calls
    `is_ideal` exactly when its elimination leaves I itself as the kernel: once for
    an ideal with U(I) = I other than L, and never for L or an ideal with U(I) > I.
    The ideals are the terms of the three series and the profile's subspaces."""
    steps, tests = [], []
    upper_step, is_ideal = series._upper_step, LieAlgebra.is_ideal
    monkeypatch.setattr(series, "_upper_step", lambda *a: steps.append(a) or upper_step(*a))
    monkeypatch.setattr(LieAlgebra, "is_ideal", lambda M, s: tests.append(s) or is_ideal(M, s))
    for entry in (lambda: upper_extension(L, L.zero_space()), lambda: series.center(L),
                  lambda: upper_central_series(L), lambda: profile(L),
                  lambda: is_upper_bounded_ideal(L, L.full_space())):
        steps.clear()
        entry()
        assert steps
    prof = profile(L)
    ideals = {L.full_space(), *prof.subspaces().values(),
              *(t for rep in prof.series().values() for t in rep.terms)}
    for s in ideals:
        tests.clear()
        u = upper_extension(L, s)
        assert u == reference.dense_upper_extension(L, s)
        assert tests == ([s] if u == s != L.full_space() else [])


def _check_product_predicates(L: LieAlgebra, s: Subspace):
    """`is_perfect_ideal` and `is_near_perfect_ideal`, whose products are bounded by
    s once `is_ideal` passed, against `reference`'s unbounded checked forms; the
    outcomes, NotAnIdealError among them."""
    outcomes = [_outcome(new, L, s) for new, _ in PREDICATES[1:3]]
    assert outcomes == [_outcome(old, L, s) for _, old in PREDICATES[1:3]]
    return outcomes


def test_product_predicates_match_checked_reference_on_non_ideal_spans():
    """Lines and wide spans of Lie algebras, most of them no ideal, and the ideals
    these generate."""
    rng, seen = random.Random(2027), set()
    for L in _seeded_lie_algebras():
        spans = _lines(L) + _wide_spans(rng, L.dim)
        for s in spans + [L.ideal_closure(s.int_rows) for s in spans]:
            seen.update(_check_product_predicates(L, s))
    assert seen == {True, False, NotAnIdealError}


def _reference_upper_central(L: LieAlgebra, extension) -> tuple:
    """The upper central terms by iterating `extension` from 0, apart from `series`."""
    terms = [L.zero_space(), extension(L, L.zero_space())]
    while terms[-1] != terms[-2]:
        terms.append(extension(L, terms[-1]))
    return tuple(terms)


def _check_upper_central(L: LieAlgebra, extension=reference.dense_upper_extension) -> None:
    """`profile`'s center, found inside R(L), and its upper central series against
    the public series and against the series of a reference extension."""
    prof, public = profile(L), upper_central_series(L)
    assert prof.upper_central == public
    assert prof.upper_central.terms == _reference_upper_central(L, extension)
    assert prof.center == public.terms[1] <= prof.radical


@pytest.mark.parametrize("name,L", INPUTS, ids=IDS)
def test_profile_upper_central_matches_reference(name, L):
    """The catalog, the corpus, the matrix-unit ladder, rational bases and
    abelian algebras."""
    _check_upper_central(L)


@pytest.mark.parametrize("name", ["gl8", "n14", "b12", "sl6"])
def test_profile_upper_central_matches_reference_past_the_ladder(name):
    _check_upper_central(reference.build(name), reference.checked_upper_extension)


@settings(max_examples=200, deadline=None)
@given(*RANDOM_INPUTS)
def test_profile_upper_central_matches_reference_on_random_algebras(seed, k, basis):
    """Random-corpus algebras in their own and the rational basis."""
    _check_upper_central(_random_algebra(seed, k, basis))


def _check_series_bounds(L: LieAlgebra) -> None:
    """The two bounds `profile`'s upper steps take, on the public series alone:
    every upper central term lies in R(L), and on a nilpotent L of class c,
    L^(c−k) <= U_k for every k <= c."""
    upper, rad = upper_central_series(L).terms, radical(L)
    assert all(u <= rad for u in upper)
    low = lower_central_series(L)
    if low.stable_term.is_zero():
        c = len(low.chain) - 1
        assert all(low.chain[c - k] <= upper[k] for k in range(c + 1))


@pytest.mark.parametrize("name", [f"catalog-{n}" for n in catalog.names()] + BOUNDED_LADDER
                         + ["b12", "rational-n4", "rational-n5", "rational-n6"])
def test_upper_central_terms_lie_in_the_radical_and_over_the_lower_central_terms(name):
    _check_series_bounds(_fresh(name))


@settings(max_examples=200, deadline=None)
@given(*RANDOM_INPUTS)
def test_upper_central_bounds_hold_on_random_algebras(seed, k, basis):
    """Random-corpus algebras in their own and the rational basis."""
    _check_series_bounds(_random_algebra(seed, k, basis))


@pytest.mark.parametrize("parts,upper,lower,rad", [
    (("gl2", "heis3"), [0, 2, 4], [7, 4, 3], 4),  # U_1 = Z < U_2 = R < L
    (("heis3", "abelian1"), [0, 2, 4], [4, 1, 0], 4),  # dim Z = 2 > dim L^1 = 1
    (("sl2", "n4"), [0, 1, 3, 6], [9, 6, 4, 3], 6),  # R = n4 < L, no lower bound
])
def test_profile_matches_unbounded_profile_where_the_upper_bounds_are_strict(
        parts, upper, lower, rad):
    """Direct sums where U(t) <= R(L) is strict or L^(c−k−1) does not reach U(U_k):
    gl2 + heis3, where R ≠ L and no lower bound holds; heis3 + Q, nilpotent, whose
    center step runs to its full rank past the floor dim L^1; sl2 + n4, R = n4.
    The chains' dimensions show which case each input is."""
    L = direct_sum(*(catalog.get(p).algebra if p == "heis3" else reference.build(p)
                     for p in parts))
    prof = profile(L)
    assert [t.dim for t in prof.upper_central.chain] == upper
    assert [t.dim for t in prof.lower_central.chain] == lower
    assert prof.radical.dim == rad
    assert prof == reference.unbounded_profile(L)


def _upper_systems(L: LieAlgebra) -> tuple:
    """`profile(L)` and, for each system its upper central steps solve, (unknowns,
    the rank its elimination stops at, rows built, rows stored), read through a
    monkeypatched `_extension_rows` and `echelon_rows`; the public `upper_extension`
    must not be called."""
    systems, rows_of, echelon_rows = [], series._extension_rows, subspace.echelon_rows

    def traced_rows(ideal, images):
        record = {"built": 0}

        def rows():
            for r in rows_of(ideal, images):
                record["built"] += 1
                yield r

        record["rows"] = rows()
        systems.append(record)
        return record["rows"]

    def record_span(vectors, cols, rank=None):
        table = echelon_rows(vectors, cols, rank)
        if systems and vectors is systems[-1]["rows"]:
            systems[-1].update(unknowns=cols, stop=rank, stored=len(table[1]))
        return table

    def refused(*args):
        raise AssertionError("profile called the public upper_extension")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "_extension_rows", traced_rows)
        mp.setattr(subspace, "echelon_rows", record_span)
        mp.setattr(series, "upper_extension", refused)
        prof = profile(L)
    return prof, [(r["unknowns"], r["stop"], r["built"], r["stored"]) for r in systems]


@pytest.mark.parametrize("name,unknowns,center_rows,steps", [
    ("sl3", 0, 0, []),  # R = 0: no unknown, so no step forms a system
    ("gl4", 1, 0, [(1, 0)]),  # R = Z(L), dim 1; U(Z) = Z = R forms no system
    ("rational-gl3", 1, 0, [(1, 0)]),
    ("b4", 10, 9, [(10, 26), (9, 9)]),  # R = L: the center runs to its full rank 9
    ("n5", 10, 9, [(9, 10), (7, 8), (4, 5)]),  # each floor dim L^(c−k−1) is met
    ("rational-n5", 10, 9, [(9, 14), (7, 12), (4, 9)]),  # U(U_3) = L forms no system
])
def test_profile_center_and_stabilizing_step_insert_rows(name, unknowns, center_rows, steps):
    """Each upper central step solves one system over the rows of R(L), the center's
    first: it has dim R unknowns and stores `center_rows`, and every system's
    (rank it stops at, rows built) is listed in `steps`.  A step whose floor reaches
    dim R forms no system, so the stabilizing U(Z) = Z of gl4 and rational gl3
    forms no row, nor does the last step of a nilpotent input."""
    L = reference.build(name)
    prof, systems = _upper_systems(L)
    assert [s[1:3] for s in systems] == steps
    assert all(s[0] == unknowns == prof.radical.dim for s in systems)
    assert [s[3] for s in systems[:1]] == ([center_rows] if steps else [])
    assert prof == reference.unbounded_profile(L)


SOLVABLE = ["b4", "n5", "rational-b4", "rational-n5", "abelian12"]
SOLVABLE += [f"catalog-{e.name}" for e in catalog.entries() if is_solvable(e.algebra)]


def _fresh(name: str) -> LieAlgebra:
    """A new algebra object, with nothing cached on it yet."""
    if name.startswith("catalog-"):
        return LieAlgebra(catalog.get(name[len("catalog-"):]).algebra.constants)
    return reference.build(name)


@pytest.mark.parametrize("name", SOLVABLE + ["gl3", "sl3"])
def test_profile_builds_the_killing_matrix_only_for_a_nonzero_perfect_radical(name):
    """R(L) = P(L)^⊥ has no constraint row when P(L) = 0, so a solvable input never
    builds `_killing`; gl3 and sl3 do."""
    L = _fresh(name)
    prof = profile(L)
    assert prof.solvable == (name in SOLVABLE)
    assert ("_killing" in L.__dict__) != prof.solvable
    assert prof.radical == radical(L)


@pytest.mark.parametrize("name", ["n3", "n4", "n5", "n6", "rational-n4", "rational-n5",
                                  "catalog-heis3", "catalog-n4", "catalog-abelian2"])
def test_nilpotent_profile_makes_one_upper_extension_fewer_than_its_class(name):
    """On a nilpotent L of class c, L^(c−k−1) <= U(U_k), so the step from U_k stops
    at rank n − dim L^(c−k−1), and from U_(c−1), with floor n, forms no system:
    c − 1 systems, the center's included, none with a public `upper_extension`."""
    L = _fresh(name)
    prof, systems = _upper_systems(L)
    assert prof.nilpotent
    low = prof.lower_central.chain
    c = len(low) - 1
    stops = [(L.dim, L.dim - low[c - k - 1].dim) for k in range(c - 1)]
    assert [s[:2] for s in systems] == stops
    assert prof.upper_central == upper_central_series(L)


def test_profile_lower_central_series_of_gl4_stops_at_the_perfect_radical(monkeypatch):
    """On matrix-unit gl4, D(L) = sl4 = P(L), so `profile` forms no [G, sl4]:
    no `_basis_brackets` call, where the public series makes some."""
    L, calls = reference.build("gl4"), []
    basis_brackets = LieAlgebra._basis_brackets

    def record(self, u):
        calls.append(u)
        return basis_brackets(self, u)

    monkeypatch.setattr(LieAlgebra, "_basis_brackets", record)
    prof = profile(L)
    assert calls == []
    assert lower_central_series(L) == prof.lower_central
    assert calls


@pytest.mark.parametrize("name", ["sl3", "sl12", "gl4", "rational-gl3"])
def test_center_forms_no_row_after_its_stop(name):
    """`upper_extension(L, 0)` forms no row after its stop: sl_n, whose center is 0,
    stops at rank n, and on gl4 and rational gl3, whose center is a line, the rank
    never reaches n."""
    L = reference.build(name)
    got, stopped, _ = _traced_upper_extension(L, L.zero_space())
    assert stopped == name.startswith("sl")
    assert got.dim == (0 if name.startswith("sl") else 1)
    assert L.dim > 16 or got == reference.dense_upper_extension(L, L.zero_space())

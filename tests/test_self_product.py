"""Each self-product once: `LieAlgebra._brackets(t, t)` and `restrict`.

On a table that passes `validate`, antisymmetry gives [y, x] = −[x, y] and
[x, x] = 0, so `_brackets(t, t)` calls `_bracket` once per unordered linked
pair of t's basis rows, the later row p against the earlier row q.  Each call
is counted by a wrapper over `LieAlgebra._bracket` and compared with the pairs
read off the table, on the catalog, matrix-unit families in a rational basis
and `random_algebras`; the product spans `reference.unbounded_product`.  A raw
table that fails `validate` keeps both orientations and [x, x].  The derived
series and `is_perfect_ideal`, which read `_brackets(t, t)`, are compared term
by term and verdict by verdict with their unbounded references.  `restrict`
forms the pairs p < q alone under a cached passing report and every (p, q)
otherwise, and raises `NotClosedError` on a subspace that is not closed either
way.  The pair order is pinned by counts: matrix-unit gl8 and gl12 `profile`
call `_bracket` no more often than with both orientations formed (124 and 284
times once G and the report are cached); pairing row q with the rows p < q
instead took 414 and 1508.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieradicals import catalog
from lieradicals.core import LieAlgebra, NotAnIdealError, NotClosedError, StructureConstants
from lieradicals.oracle import random_algebras
from lieradicals.series import (
    SeriesKind,
    derived_series,
    is_perfect_ideal,
    lower_central_series,
    perfect_radical,
    profile,
    radical,
)
from lieradicals.subspace import Subspace

import reference

RATIONAL = ("rational-gl2", "rational-sl3", "rational-gl3", "rational-b3", "rational-b4",
            "rational-n4", "rational-n5")
CORPUS = range(len(catalog.names()) + 20 + len(RATIONAL))  # the indices of `_corpus()`
VALUES = (0, 0, 1, -1, 2, Fraction(-1, 2))


@cache
def _corpus() -> list[LieAlgebra]:
    return ([catalog.get(name).algebra for name in catalog.names()]
            + random_algebras(20, 4, 7) + [reference.build(name) for name in RATIONAL])


def _counted(f, *args):
    """f(*args) and the (x, y) of each `LieAlgebra._bracket` call it makes."""
    calls, bracket = [], LieAlgebra._bracket

    def counting(self, x, y):
        calls.append((x, y))
        return bracket(self, x, y)

    LieAlgebra._bracket = counting
    try:
        return f(*args), calls
    finally:
        LieAlgebra._bracket = bracket


def _linked(L: LieAlgebra, x: dict, y: dict) -> bool:
    """Some [e_i, e_j] with x_i ≠ 0 and y_j ≠ 0 is stored."""
    adj = L.constants.adjoint
    return any(j in adj[i] for i in x for j in y)


def _pairs(t: Subspace, calls) -> list[tuple[int, int]]:
    """The calls as (p, q), [x_p, x_q] over t's basis rows, sorted."""
    at = {id(r): p for p, r in enumerate(t.int_rows)}
    return sorted((at[id(x)], at[id(y)]) for x, y in calls)


def _spaces(L: LieAlgebra, rng: random.Random) -> list[Subspace]:
    """The descending series terms and random spans, most of them no ideal."""
    spans = [Subspace.span([[rng.choice((0, 0, 1, -1, 2)) for _ in range(L.dim)]
                            for _ in range(rng.randint(1, 3))], L.dim) for _ in range(3)]
    spans += [reference.naive_ideal_closure(L, s.int_rows) for s in spans]
    return list(derived_series(L).terms + lower_central_series(L).terms) + spans


def _check_self_product(L: LieAlgebra, t: Subspace, once: bool) -> None:
    got, calls = _counted(lambda: list(L._brackets(t, t)))
    rows = t.int_rows
    want = sorted((p, q) for p in range(len(rows)) for q in range(len(rows))
                  if (p > q or not once) and _linked(L, rows[p], rows[q]))
    assert _pairs(t, calls) == want
    assert Subspace.span(got, L.dim) == reference.unbounded_product(L, t, t)


@pytest.mark.parametrize("k", CORPUS)
def test_a_validated_self_product_forms_each_unordered_linked_pair_once(k):
    L = _corpus()[k]
    assert L.validate().ok
    for t in _spaces(L, random.Random(k)):
        _check_self_product(L, t, once=True)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_a_table_that_fails_validate_forms_both_orientations(seed):
    """Random tables of ordered pairs, the diagonal included."""
    rng = random.Random(seed)
    dim = rng.randint(1, 5)
    table = {(rng.randrange(dim), rng.randrange(dim)): [rng.choice(VALUES) for _ in range(dim)]
             for _ in range(rng.randint(1, 8))}
    L = LieAlgebra(StructureConstants(dim, table))
    if L.validate().ok:
        return
    for t in [L.full_space()] + _spaces(L, rng):
        _check_self_product(L, t, once=False)


def test_a_self_product_on_a_one_sided_table_forms_both_orientations():
    """[e1, e2] = e3 stored without [e2, e1]: [e2, e1] = 0 is formed too."""
    L = LieAlgebra(StructureConstants(3, {(0, 1): [0, 0, 1]}))
    assert L.validate().kind == "antisymmetry"
    full = L.full_space()
    _, calls = _counted(lambda: list(L._brackets(full, full)))
    assert _pairs(full, calls) == [(0, 1)]  # [e2, e1] is not stored: e1 meets no row
    L = LieAlgebra(StructureConstants(3, {(0, 1): [0, 0, 1], (1, 0): [0, 0, 1]}))
    assert not L.validate().ok
    _, calls = _counted(lambda: list(L._brackets(full, full)))
    assert _pairs(full, calls) == [(0, 1), (1, 0)]


def _verdict(f, *args):
    try:
        return f(*args)
    except NotAnIdealError:
        return NotAnIdealError


def _reference_is_perfect(L: LieAlgebra, s: Subspace):
    if not reference.naive_is_ideal(L, s):
        return NotAnIdealError
    return reference.unbounded_product(L, s, s) == s


@pytest.mark.parametrize("k", CORPUS)
def test_derived_terms_and_perfect_verdicts_match_the_unbounded_references(k):
    L = _corpus()[k]
    assert derived_series(L) == reference.unbounded_series(L, SeriesKind.DERIVED)
    pool = _spaces(L, random.Random(k)) + [perfect_radical(L), radical(L)]
    for s in pool:
        assert _verdict(is_perfect_ideal, L, s) == _reference_is_perfect(L, s)


def _closed(L: LieAlgebra, s: Subspace) -> bool:
    return reference.unbounded_product(L, s, s).leq(s)


@pytest.mark.parametrize("k", CORPUS)
def test_restrict_forms_each_pair_once_only_under_a_cached_passing_report(k):
    """A validated parent forms p < q; one never validated forms every (p, q),
    computes no report, and builds the same algebra."""
    L = _corpus()[k]
    L.validate()
    for s in _spaces(L, random.Random(k)):
        raw = LieAlgebra(L.constants, L.labels)
        if not _closed(L, s):
            with pytest.raises(NotClosedError):
                L.restrict(s)
            with pytest.raises(NotClosedError):
                raw.restrict(s)
            continue
        sub, calls = _counted(L.restrict, s)
        assert len(calls) == s.dim * (s.dim - 1) // 2
        assert sub == reference.fraction_restrict(L, s)
        again, calls = _counted(raw.restrict, s)
        assert len(calls) == s.dim * s.dim
        assert again == sub
        assert "_validation" not in raw.__dict__


def test_restrict_of_a_table_that_fails_validate_forms_every_pair():
    """Jacobi fails on (e1, e2, e3), and the failing report is cached: every
    (p, q) is formed, and a subspace that is not closed still raises."""
    L = LieAlgebra.from_brackets(3, {(0, 1): (0, 1, 0), (1, 2): (1, 0, 0)})
    assert L.validate().kind == "jacobi"
    full = L.full_space()
    _, calls = _counted(L.restrict, full)
    assert len(calls) == 9
    with pytest.raises(NotClosedError):
        L.restrict(Subspace.span([[0, 1, 0], [0, 0, 1]], 3))


@pytest.mark.parametrize("name,most", [("gl8", 124), ("gl12", 284)])
def test_profile_pairs_each_row_with_the_later_rows(name, most):
    """Row 0 meets every later row first, so the perfect D(gl_n) = sl_n reaches its
    rank stop as early as with both orientations formed."""
    L = reference.build(name)
    profile(L)  # G and the report are cached; the second profile is counted
    _, calls = _counted(profile, L)
    assert len(calls) <= most

"""Each self-product once: `LieAlgebra._brackets(t, t)` and `restrict`.

Antisymmetry gives [y, x] = −[x, y] and [x, x] = 0, so `_brackets(t, t)` calls
`_bracket` once per unordered linked pair of t's basis rows, the later row p
against the earlier row q.  Each call is counted by a wrapper over
`LieAlgebra._bracket` and compared with the pairs read off the table, on the
catalog, matrix-unit families in a rational basis and `random_algebras`; the
product spans `reference.unbounded_product`.  A table that fails `validate` is
refused before any bracket is formed.  The derived series and
`is_perfect_ideal`, which read `_brackets(t, t)`, are compared term by term and
verdict by verdict with their unbounded references.  `restrict` forms the pairs
p < q alone, a parent never validated included, and raises `NotClosedError` on
a subspace that is not closed.  The pair order is pinned by counts: matrix-unit
gl8 and gl12 `profile` call `_bracket` no more often than with both
orientations formed (124 and 284 times once G and the report are cached);
pairing row q with the rows p < q instead took 414 and 1508.
"""

from __future__ import annotations

import random
import re
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


def _check_self_product(L: LieAlgebra, t: Subspace) -> None:
    got, calls = _counted(lambda: list(L._brackets(t, t)))
    rows = t.int_rows
    want = sorted((p, q) for p in range(len(rows)) for q in range(p)
                  if _linked(L, rows[p], rows[q]))
    assert _pairs(t, calls) == want
    assert Subspace.span(got, L.dim) == reference.unbounded_product(L, t, t)


@pytest.mark.parametrize("k", CORPUS)
def test_a_validated_self_product_forms_each_unordered_linked_pair_once(k):
    L = _corpus()[k]
    assert L.validate().ok
    for t in _spaces(L, random.Random(k)):
        _check_self_product(L, t)


def _refused(L: LieAlgebra, *steps) -> None:
    """Each step raises `ValueError` with L's failing report message, and no
    `_bracket` call is made."""
    report = L.validate()
    assert not report.ok
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LieAlgebra, "_bracket", lambda self, x, y: calls.append((x, y)))
        for step in steps:
            with pytest.raises(ValueError, match=re.escape(report.message)):
                step()
    assert calls == []


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_a_table_that_fails_validate_forms_no_bracket(seed):
    """Random tables of ordered pairs, the diagonal included: one that fails
    `validate` is refused, with its message, by the self-product, `restrict` and
    the derived series before any `_bracket` call.  Among the tables are
    one-sided ones and those failing Jacobi alone."""
    rng = random.Random(seed)
    dim = rng.randint(1, 5)
    table = {(rng.randrange(dim), rng.randrange(dim)): [rng.choice(VALUES) for _ in range(dim)]
             for _ in range(rng.randint(1, 8))}
    for L in (LieAlgebra(StructureConstants(dim, table)), _completed(dim, table)):
        if L is None or L.validate().ok:
            continue
        full = L.full_space()
        _refused(L, lambda: list(L._brackets(full, full)), lambda: L.restrict(full),
                 lambda: derived_series(L))


def test_a_self_product_on_a_one_sided_table_forms_no_bracket():
    """[e1, e2] = e3 stored without [e2, e1] fails antisymmetry, and so does the
    table storing both orientations with one sign: the self-product refuses
    each.  Completed by `from_brackets`, [e2, e1] = −e3 is read off `adjoint`
    and the one linked pair is formed once."""
    L = LieAlgebra(StructureConstants(3, {(0, 1): [0, 0, 1]}))
    assert L.validate().kind == "antisymmetry"
    full = L.full_space()
    _refused(L, lambda: list(L._brackets(full, full)))
    L = LieAlgebra(StructureConstants(3, {(0, 1): [0, 0, 1], (1, 0): [0, 0, 1]}))
    assert L.validate().kind == "antisymmetry"
    _refused(L, lambda: list(L._brackets(full, full)))
    L = LieAlgebra.from_brackets(3, {(0, 1): [0, 0, 1]})
    assert L.validate().ok
    got, calls = _counted(lambda: list(L._brackets(full, full)))
    assert _pairs(full, calls) == [(1, 0)]
    assert Subspace.span(got, 3) == Subspace.span([[0, 0, 1]], 3)


def test_restrict_of_a_table_that_fails_validate_forms_no_pair():
    """Jacobi fails on (e1, e2, e3): `restrict` raises `ValueError` with the
    report's message before forming any pair, on a subspace that is not closed
    too, where `NotClosedError` would be its verdict on a Lie algebra."""
    L = LieAlgebra.from_brackets(3, {(0, 1): (0, 1, 0), (1, 2): (1, 0, 0)})
    assert L.validate().kind == "jacobi"
    _refused(L, lambda: L.restrict(L.full_space()),
             lambda: L.restrict(Subspace.span([[0, 1, 0], [0, 0, 1]], 3)))


def _completed(dim: int, table) -> LieAlgebra | None:
    """The table with its reverse orientations added, or None if it gives a
    pair both ways, inconsistently."""
    try:
        return LieAlgebra.from_brackets(dim, table)
    except ValueError:
        return None


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
    """`restrict` forms p < q alone.  A parent never validated computes its report
    at the gate, caches it, hands it on and builds the same algebra."""
    L = _corpus()[k]
    L.validate()
    for s in _spaces(L, random.Random(k)):
        fresh = LieAlgebra(L.constants, L.labels)
        if not _closed(L, s):
            with pytest.raises(NotClosedError):
                L.restrict(s)
            with pytest.raises(NotClosedError):
                fresh.restrict(s)
            continue
        sub, calls = _counted(L.restrict, s)
        assert len(calls) == s.dim * (s.dim - 1) // 2
        assert sub == reference.fraction_restrict(L, s)
        again, calls = _counted(fresh.restrict, s)
        assert len(calls) == s.dim * (s.dim - 1) // 2
        assert again == sub
        assert again.validate() is fresh.__dict__["_validation"]


@pytest.mark.parametrize("name,most", [("gl8", 124), ("gl12", 284)])
def test_profile_pairs_each_row_with_the_later_rows(name, most):
    """Row 0 meets every later row first, so the perfect D(gl_n) = sl_n reaches its
    rank stop as early as with both orientations formed."""
    L = reference.build(name)
    profile(L)  # G and the report are cached; the second profile is counted
    _, calls = _counted(profile, L)
    assert len(calls) <= most

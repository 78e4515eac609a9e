"""The Lie generating set G (`LieAlgebra._generators`) and the steps that bracket
with it instead of the whole basis.

G is checked apart from the package: the span of its basis vectors, closed
under ad e_g for g in G by `reference.unbounded_product` (which sums every
bracket itself), must be L.  A table that fails `validate` is refused before
G is built.  Every step that reads G is compared with its all-basis reference,
term by term: D(L) and the lower central series with `reference`'s unbounded
products, each upper extension of the upper central series with
`reference.dense_upper_extension`, and `is_ideal`, `ideal_closure` and the
ideal predicates with `reference`'s versions, which bracket with every e_i.
The inputs are catalog and random-corpus algebras in their own and a rational
basis.  A quotient or subalgebra takes over its parent's passing report.  The
sizes of G that the upper extension's gain rests on are pinned on matrix-unit
n5 and rational sl3, gl3 and n5, and sl3, whose profile needs no G, builds none.
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieradicals import catalog
from lieradicals.core import LieAlgebra, NotAnIdealError, StructureConstants
from lieradicals.oracle import random_algebras
from lieradicals.series import (
    SeriesKind,
    derived_subalgebra,
    is_near_perfect_ideal,
    is_perfect_ideal,
    is_upper_bounded_ideal,
    lower_central_series,
    profile,
    upper_central_series,
    upper_extension,
)
from lieradicals.subspace import Subspace

import reference


def _algebra(seed: int, k: int, basis: str) -> LieAlgebra:
    """Catalog entry or random-corpus algebra k in its own or the rational basis."""
    names = catalog.names()
    L = (catalog.get(names[k]).algebra if k < len(names)
         else random_algebras(k - len(names) + 1, 4, seed)[-1])
    return reference.rebase(L) if basis == "rational" else L


INPUTS = (st.integers(0, 2**32), st.integers(0, 14), st.sampled_from(("own", "rational")))


def _ad_closure(L: LieAlgebra, gens) -> Subspace:
    """span{e_g}, closed under [e_g, ·] for g in gens, by unbounded products."""
    g_space = Subspace.span([{g: 1} for g in gens], L.dim)
    s = g_space
    while (t := s.sum(reference.unbounded_product(L, g_space, s))) != s:
        s = t
    return s


def _spans(rng: random.Random, L: LieAlgebra) -> list[Subspace]:
    """Lines, random spans and the ideals they generate: most spans are no ideal."""
    spans = [Subspace.span([[rng.choice((0, 0, 1, -1, 2)) for _ in range(L.dim)]
                            for _ in range(rng.randint(1, 3))], L.dim) for _ in range(3)]
    spans += [Subspace.span([[int(i == c) for i in range(L.dim)]], L.dim) for c in range(L.dim)]
    return spans + [reference.naive_ideal_closure(L, s.int_rows) for s in spans]


def _outcome(f, *args):
    try:
        return f(*args)
    except NotAnIdealError:
        return NotAnIdealError


def _check_generators(L: LieAlgebra) -> None:
    gens = L._generators
    assert list(gens) == sorted(set(gens))
    assert _ad_closure(L, gens) == L.full_space()


def _check_steps(L: LieAlgebra, rng: random.Random) -> None:
    """Every step that brackets with G against its all-basis reference."""
    full = L.full_space()
    assert derived_subalgebra(L) == reference.unbounded_product(L, full, full)
    assert lower_central_series(L) == reference.unbounded_series(L, SeriesKind.LOWER_CENTRAL)
    upper = upper_central_series(L)
    for t in upper.terms:
        assert upper_extension(L, t) == reference.dense_upper_extension(L, t)
    assert profile(L) == reference.unbounded_profile(L)
    for s in _spans(rng, L) + list(upper.terms):
        assert L.is_ideal(s) == reference.naive_is_ideal(L, s)
        assert L.ideal_closure(s.int_rows) == reference.naive_ideal_closure(L, s.int_rows)
        checks = [(is_perfect_ideal, reference.checked_is_perfect_ideal),
                  (is_near_perfect_ideal, reference.checked_is_near_perfect_ideal),
                  (is_upper_bounded_ideal, reference.checked_is_upper_bounded_ideal)]
        for got, want in checks:
            assert _outcome(got, L, s) == _outcome(want, L, s)


@settings(max_examples=150, deadline=None)
@given(*INPUTS)
def test_generators_close_to_L_and_steps_match_all_basis_references(seed, k, basis):
    L = _algebra(seed, k, basis)
    _check_generators(L)
    _check_steps(L, random.Random(seed))


@pytest.mark.parametrize("name", ["gl4", "sl4", "b5", "n6", "abelian5", "rational-b3",
                                  "rational-gl3", "rational-n5"])
def test_generators_close_to_L_and_steps_match_on_matrix_units(name):
    L = reference.build(name)
    _check_generators(L)
    _check_steps(L, random.Random(name))


def test_a_table_that_fails_validation_builds_no_generators():
    """A one-sided table, [e1, e2] = e3 stored without [e2, e1], and a table on which
    Jacobi fails: every step that reads G refuses it first, and G is never built."""
    for L in (LieAlgebra(StructureConstants(3, {(0, 1): [0, 0, 1]})),
              LieAlgebra.from_brackets(3, {(0, 1): (0, 1, 0), (1, 2): (1, 0, 0)})):
        s = Subspace.span([[0, 0, 1]], 3)
        for step in (L.is_ideal, L.quotient, lambda s: L.ideal_closure(s.int_rows),
                     lambda s: lower_central_series(L), lambda s: upper_extension(L, s),
                     lambda s: is_near_perfect_ideal(L, s)):
            with pytest.raises(ValueError, match=re.escape(L.validate().message)):
                step(s)
        assert "_generators" not in L.__dict__ and "_by_right_g" not in L.__dict__


@settings(max_examples=100, deadline=None)
@given(*INPUTS)
def test_children_take_over_only_a_passing_report(seed, k, basis):
    """`quotient` and `restrict` by an ideal: the parent's passing report is the
    child's, and it is the child's own verdict too.  A parent never validated
    computes its report at the gate and hands that on."""
    L = _algebra(seed, k, basis)
    report = L.validate()
    spans = [L.zero_space(), L.full_space(), derived_subalgebra(L)] + _spans(random.Random(seed), L)
    for s in spans:
        if not L.is_ideal(s):
            continue
        for child in (L.quotient(s), L.restrict(s)):
            assert child.__dict__["_validation"] is report
            assert reference.triple_validate(child).ok
        fresh = LieAlgebra(L.constants, L.labels)
        assert fresh.restrict(s).__dict__["_validation"] is fresh.__dict__["_validation"]


@pytest.mark.parametrize("name,gens", [
    ("n5", (0, 4, 7, 9)),  # the superdiagonal units E_12, E_23, E_34, E_45
    ("rational-sl3", (0, 1)),
    ("rational-gl3", (0, 1, 3)),
    ("rational-n5", (0, 1, 2, 4)),
])
def test_generator_sizes(name, gens):
    """The upper extension and the lower central step bracket with these few
    basis vectors instead of all n: 4 of 10, 2 of 8, 3 of 9, 4 of 10."""
    L = reference.build(name)
    assert L._generators == gens
    assert _ad_closure(L, gens) == L.full_space()


def test_a_profile_that_needs_no_generators_builds_none():
    """sl3 is perfect with R = 0: D(L) = L, so no lower central step brackets, and the
    center is solved over no unknowns."""
    L = reference.build("sl3")
    profile(L)
    assert "_generators" not in L.__dict__

"""`LieAlgebra.validate`, which sums each Jacobi triple from its nonzero terms,
against the triple loop it replaced and the check over every pair and triple.

`reference.triple_validate` is the earlier `validate`: every triple i < j < k
that touches a stored bracket, in index order, with three bracket lookups
each.  `reference.dense_validate` brackets `Fraction` vectors over every pair
and triple.  The whole `ValidationReport`, message included, must equal the
triple loop's, and its (ok, kind, indices) the dense check's:
- on antisymmetric tables perturbed to fail Jacobi, most of them at several
  triples, so that the triple reported must be the first in index order;
- on raw tables, which need not be antisymmetric;
- on perturbed tables in a dense rational basis;
- on the matrix-unit families up to dimension 36, as given and with one
  bracket perturbed (the triple loop only, the dense check being too slow).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieradicals import catalog
from lieradicals.core import LieAlgebra, StructureConstants, ValidationReport

import reference

BASES = [catalog.get(n).algebra for n in catalog.names()]
BASES += [reference.build(n) for n in reference.matrix_unit_ladder(9)]
BASES = [L for L in BASES if L.dim >= 3]
WIDE = reference.matrix_unit_ladder(36)
CHANGES = (-2, -1, 1, 2, Fraction(1, 2))


def _perturb(L: LieAlgebra, changes) -> LieAlgebra:
    """L with value added to the e_k coordinate of [e_i, e_j], i < j, for each
    (i, j, k, value) of changes."""
    table = {(i, j): list(v) for i, j, v in L.constants.pairs()}
    for i, j, k, value in changes:
        table.setdefault((i, j), [0] * L.dim)[k] += value
    return LieAlgebra.from_brackets(L.dim, table)


def _check(L: LieAlgebra):
    report = L.validate()
    assert report == reference.triple_validate(L)
    assert (report.ok, report.kind, report.indices) == reference.dense_validate(L)
    return report


def _failing_triples(L: LieAlgebra) -> list[tuple[int, int, int]]:
    """Every 1-based triple i < j < k whose Jacobi sum is nonzero, in index order."""
    n, e = L.dim, L.basis_vector
    return [(i + 1, j + 1, k + 1)
            for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)
            if any(reference.vadd(reference.vadd(
                L.bracket(L.bracket(e(i), e(j)), e(k)),
                L.bracket(L.bracket(e(j), e(k)), e(i))),
                L.bracket(L.bracket(e(k), e(i)), e(j))))]


@st.composite
def _perturbed(draw) -> LieAlgebra:
    L = draw(st.sampled_from(BASES))
    index = st.integers(0, L.dim - 1)
    changes = []
    for _ in range(draw(st.integers(1, 3))):
        i, j = sorted(draw(st.lists(index, min_size=2, max_size=2, unique=True)))
        changes.append((i, j, draw(index), draw(st.sampled_from(CHANGES))))
    return _perturb(L, changes)


@st.composite
def _raw(draw) -> LieAlgebra:
    n = draw(st.integers(1, 6))
    index = st.integers(0, n - 1)
    entries = st.lists(st.sampled_from((0, 0, 1, -1, 2, Fraction(1, 2))), min_size=n, max_size=n)
    table = draw(st.dictionaries(st.tuples(index, index), entries, max_size=8))
    return LieAlgebra(StructureConstants(n, table))


@settings(max_examples=300, deadline=None)
@given(_perturbed())
def test_perturbed_tables_report_as_the_triple_loop(L):
    _check(L)


@settings(max_examples=300, deadline=None)
@given(_raw())
def test_raw_tables_report_as_the_triple_loop(L):
    _check(L)


@settings(max_examples=60, deadline=None)
@given(_perturbed())
def test_perturbed_tables_in_a_rational_basis_report_as_the_triple_loop(L):
    _check(reference.rebase(L))


def test_perturbed_tables_fail_at_several_triples_and_report_the_first():
    rng = random.Random(16)
    several = 0
    for _ in range(150):
        L = rng.choice(BASES)
        changes = []
        for _ in range(rng.randint(1, 3)):
            i, j = sorted(rng.sample(range(L.dim), 2))
            changes.append((i, j, rng.randrange(L.dim), rng.choice(CHANGES)))
        L = _perturb(L, changes)
        failing = _failing_triples(L)
        report = _check(L)
        assert report.indices == (failing[0] if failing else ())
        several += len(failing) >= 2
    assert several >= 50


@pytest.mark.parametrize("name", WIDE)
def test_matrix_unit_families_match_the_triple_loop(name):
    """The family, then a dozen copies with e_k added to [e_1, e_n] or
    subtracted from [e_(n-1), e_n]."""
    L = reference.build(name)
    assert L.validate() == reference.triple_validate(L) == ValidationReport(ok=True)
    n, kinds = L.dim, set()
    for k in range(0, n, max(1, n // 6)):
        for change in ((0, n - 1, k, 1), (n - 2, n - 1, k, -1)):
            bad = _perturb(L, [change]) if n > 1 else L
            report = bad.validate()
            assert report == reference.triple_validate(bad)
            kinds.add(report.kind)
    assert "jacobi" in kinds or n < 3


def test_the_wide_ladder_reaches_dimension_36():
    assert max(reference.build(name).dim for name in WIDE) == 36
    assert {"gl6", "sl6", "b8", "n9"} <= set(WIDE)

"""The sparse structure-tensor paths against their dense slow paths.

`LieAlgebra.killing_matrix` and `series.upper_extension` read the sparse
adjoint table; `reference.dense_killing` and `reference.dense_upper_extension`
are the dense `ad`-matrix computations they replaced.  Both are compared
entry by entry on the catalog, the seeded random corpus, the matrix-unit
families up to dimension 16 and abelian algebras.  `LieAlgebra.validate`,
which skips the Jacobi triples that touch no nonzero bracket, is compared
with the check over every pair and triple on random raw tables, most of
them invalid.
"""

from __future__ import annotations

import random

import pytest

from lieradicals import catalog
from lieradicals.core import LieAlgebra, StructureConstants
from lieradicals.oracle import random_algebras
from lieradicals.series import (
    derived_series,
    is_semisimple,
    lower_central_series,
    profile,
    radical,
    upper_central_series,
    upper_extension,
)

import reference

FAMILY_NAMES = reference.matrix_unit_ladder(16)
ABELIAN_DIMS = (0, 1, 5, 12)


def _inputs():
    cases = [(f"catalog-{n}", catalog.get(n).algebra) for n in catalog.names()]
    corpus = random_algebras(100, 4, 20240809)
    cases += [(f"random-{k:03d}", L) for k, L in enumerate(corpus)]
    cases += [(name, reference.build(name)) for name in FAMILY_NAMES]
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


def test_inputs_cover_the_families():
    assert len(FAMILY_NAMES) == 15
    assert {"gl4", "sl3", "b5", "n6"} <= set(FAMILY_NAMES)
    assert max(L.dim for _, L in INPUTS) == 16  # gl4


@pytest.mark.parametrize("name,L", INPUTS, ids=IDS)
def test_killing_matrix_matches_dense_traces(name, L):
    assert L.killing_matrix() == reference.dense_killing(L)


@pytest.mark.parametrize("name,L", INPUTS, ids=IDS)
def test_upper_extension_matches_dense_stack(name, L):
    for ideal in _ideals(L):
        assert upper_extension(L, ideal) == reference.dense_upper_extension(L, ideal)


@pytest.mark.parametrize("name,L", INPUTS, ids=IDS)
def test_profile_semisimple_agrees_with_form_cross_check(name, L):
    assert profile(L).semisimple == is_semisimple(L)


def _raw_tables(count: int, seed: int):
    """Random tables, raw and antisymmetrized; most fail an axiom."""
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(1, 6)
        table = {
            (rng.randrange(dim), rng.randrange(dim)): [
                rng.choice((0, 0, 1, -1, 2)) for _ in range(dim)
            ]
            for _ in range(rng.randint(0, 8))
        }
        yield StructureConstants(dim, table)
        try:
            yield StructureConstants.from_brackets(dim, table)
        except ValueError:  # both orientations given, inconsistently
            pass


def test_validate_reports_the_first_failure_of_the_full_check():
    kinds = set()
    for constants in _raw_tables(1500, 7):
        L = LieAlgebra(constants)
        report = L.validate()
        assert (report.ok, report.kind, report.indices) == reference.dense_validate(L)
        kinds.add(report.kind)
    assert kinds == {None, "antisymmetry", "jacobi"}


@pytest.mark.parametrize("name,L", INPUTS, ids=IDS)
def test_valid_inputs_pass_both_checks(name, L):
    assert L.validate().ok and reference.dense_validate(L)[0]

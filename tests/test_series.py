import dataclasses
import random

import pytest

from lieradicals import catalog
from lieradicals.core import LieAlgebra, NotAnIdealError
from lieradicals.series import (
    SeriesKind,
    center,
    derived_series,
    is_abelian,
    is_near_perfect_ideal,
    is_nilpotent,
    is_perfect,
    is_perfect_ideal,
    is_semisimple,
    is_solvable,
    is_upper_bounded_ideal,
    lower_central_series,
    near_perfect_radical,
    perfect_radical,
    profile,
    radical,
    smallest_upper_bounded_ideal,
    upper_central_series,
    upper_extension,
)
from lieradicals.subspace import Subspace


def span(dim, *vecs):
    return Subspace.span(vecs, dim)


PLANE = span(3, (1, 0, 0), (0, 1, 0))


# -- the three series ------------------------------------------------------------


def test_derived_series_s32(s32):
    rep = derived_series(s32)
    assert rep.stabilization_index == 2
    assert rep.chain == (s32.full_space(), PLANE, s32.zero_space())
    assert rep.terms[rep.stabilization_index] == rep.terms[rep.stabilization_index + 1]


def test_derived_series_sl2(sl2):
    rep = derived_series(sl2)
    assert rep.stabilization_index == 0
    assert rep.terms == (sl2.full_space(), sl2.full_space())


def test_derived_series_abelian(abelian2):
    rep = derived_series(abelian2)
    assert rep.stabilization_index == 1
    assert rep.chain == (abelian2.full_space(), abelian2.zero_space())


def test_lower_central_series_s32(s32):
    rep = lower_central_series(s32)
    assert rep.stabilization_index == 1
    assert rep.terms == (s32.full_space(), PLANE, PLANE)


def test_lower_central_series_heis3(heis3):
    rep = lower_central_series(heis3)
    assert rep.stabilization_index == 2
    assert rep.chain == (heis3.full_space(), span(3, (0, 0, 1)), heis3.zero_space())


def test_lower_central_series_abelian(abelian2):
    rep = lower_central_series(abelian2)
    assert rep.stabilization_index == 1
    assert rep.chain == (abelian2.full_space(), abelian2.zero_space())


def test_upper_central_series_heis3(heis3):
    rep = upper_central_series(heis3)
    assert rep.stabilization_index == 2
    assert rep.chain == (heis3.zero_space(), span(3, (0, 0, 1)), heis3.full_space())


def test_upper_central_series_s32(s32):
    rep = upper_central_series(s32)
    assert rep.stabilization_index == 0
    assert rep.chain == (s32.zero_space(),)


def test_upper_central_series_abelian(abelian2):
    rep = upper_central_series(abelian2)
    assert rep.stabilization_index == 1
    assert rep.chain == (abelian2.zero_space(), abelian2.full_space())


def test_upper_central_series_n4_has_three_steps():
    n4 = catalog.get("n4").algebra
    rep = upper_central_series(n4)
    assert rep.stabilization_index == 3
    assert [t.dim for t in rep.chain] == [0, 1, 2, 4]


def test_series_terms_are_ideals_and_monotone():
    for entry in catalog.entries():
        L = entry.algebra
        for rep in (
            derived_series(L),
            lower_central_series(L),
            upper_central_series(L),
        ):
            for t in rep.terms:
                assert L.is_ideal(t)
            dims = [t.dim for t in rep.chain]
            if rep.kind is SeriesKind.UPPER_CENTRAL:
                assert dims == sorted(dims) and len(set(dims)) == len(dims)
            else:
                assert dims == sorted(dims, reverse=True)
                assert len(set(dims)) == len(dims)


# -- upper extension ----------------------------------------------------------------


def test_upper_extension_of_zero_is_center(heis3):
    assert upper_extension(heis3, heis3.zero_space()) == span(3, (0, 0, 1))


def test_upper_extension_of_plane_in_s32(s32):
    assert upper_extension(s32, PLANE).is_full()


def test_upper_extension_of_zero_in_s32(s32):
    assert upper_extension(s32, s32.zero_space()).is_zero()


def test_upper_extension_requires_ideal(s32):
    with pytest.raises(NotAnIdealError):
        upper_extension(s32, span(3, (0, 0, 1)))


def test_upper_extension_sandwich():
    rng = random.Random(2)
    for entry in catalog.entries():
        L = entry.algebra
        for _ in range(8):
            i = L.ideal_closure([[rng.randint(-2, 2) for _ in range(L.dim)]])
            u = upper_extension(L, i)
            assert i.leq(u)
            assert L.is_ideal(u)


# -- radicals -------------------------------------------------------------------------


def test_perfect_radical_values(s32, sl2, sl2s32):
    assert perfect_radical(s32).is_zero()
    assert perfect_radical(sl2).is_full()
    assert perfect_radical(sl2s32) == span(
        6, (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)
    )


def test_near_perfect_radical_values(s32, heis3, sl2s32):
    assert near_perfect_radical(s32) == PLANE
    assert near_perfect_radical(heis3).is_zero()
    assert near_perfect_radical(sl2s32) == span(
        6,
        (1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0),
        (0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 1, 0),
    )


def test_radical_values(s32, sl2, sl2s32):
    assert radical(sl2).is_zero()
    assert radical(s32).is_full()
    assert radical(sl2s32) == span(
        6, (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)
    )


def test_smallest_upper_bounded_values(s32, heis3, abelian2):
    assert smallest_upper_bounded_ideal(heis3).is_full()
    assert smallest_upper_bounded_ideal(s32).is_zero()
    assert smallest_upper_bounded_ideal(abelian2).is_full()


def test_center_values(heis3, sl2, abelian2):
    assert center(heis3) == span(3, (0, 0, 1))
    assert center(sl2).is_zero()
    assert center(abelian2).is_full()


# -- algebra predicates ------------------------------------------------------------------


def test_predicates_s32(s32):
    assert is_solvable(s32)
    assert not is_nilpotent(s32)
    assert not is_perfect(s32)
    assert not is_abelian(s32)
    assert not is_semisimple(s32)


def test_predicates_heis3(heis3):
    assert is_nilpotent(heis3)
    assert is_solvable(heis3)


def test_predicates_sl2(sl2):
    assert is_perfect(sl2)
    assert is_semisimple(sl2)
    assert not is_solvable(sl2)
    assert not is_nilpotent(sl2)


def test_zero_algebra_conventions():
    z = LieAlgebra.from_brackets(0, {})
    assert is_solvable(z)
    assert is_nilpotent(z)
    assert is_perfect(z)
    assert is_abelian(z)
    assert not is_semisimple(z)


# -- ideal predicates ------------------------------------------------------------------------


def test_plane_in_s32_is_near_perfect_not_perfect(s32):
    assert not is_perfect_ideal(s32, PLANE)
    assert is_near_perfect_ideal(s32, PLANE)


def test_plane_in_s32_is_not_upper_bounded(s32):
    assert not is_upper_bounded_ideal(s32, PLANE)


def test_zero_ideal_predicates(s32, heis3):
    for L, center_is_zero in ((s32, True), (heis3, False)):
        zero = L.zero_space()
        assert is_perfect_ideal(L, zero)
        assert is_near_perfect_ideal(L, zero)
        assert is_upper_bounded_ideal(L, zero) == center_is_zero


def test_ideal_predicates_require_ideal(s32):
    with pytest.raises(NotAnIdealError):
        is_perfect_ideal(s32, span(3, (0, 0, 1)))
    with pytest.raises(NotAnIdealError):
        is_near_perfect_ideal(s32, span(3, (0, 0, 1)))
    with pytest.raises(NotAnIdealError):
        is_upper_bounded_ideal(s32, span(3, (0, 0, 1)))


# -- profile-level laws ------------------------------------------------------------------------


def test_perfect_radical_inside_near_perfect_radical():
    for entry in catalog.entries():
        prof = profile(entry.algebra)
        assert prof.perfect_radical.leq(prof.near_perfect_radical)


def test_quotient_by_perfect_radical_is_solvable():
    for entry in catalog.entries():
        L = entry.algebra
        q = L.quotient(perfect_radical(L))
        assert is_solvable(q)


def test_quotient_by_near_perfect_radical_is_nilpotent():
    for entry in catalog.entries():
        L = entry.algebra
        q = L.quotient(near_perfect_radical(L))
        assert is_nilpotent(q)


def test_bracket_with_radical_stays_nilpotent_inside_radical():
    for entry in catalog.entries():
        L = entry.algebra
        r = radical(L)
        j = L.bracket_spaces(L.full_space(), r)
        assert j.leq(r)
        assert is_nilpotent(L.restrict(j))


def test_known_nilradical_inside_form_kernel():
    # The nilradical always pairs to zero against everything under the
    # Killing form; checked on the catalog's stored ground truth.
    for entry in catalog.entries():
        if entry.known_nilradical is None:
            continue
        L = entry.algebra
        n = entry.known_nilradical.value
        assert n.leq(L.killing_orthogonal(L.full_space()))


def test_radical_restriction_is_solvable_and_maximal():
    rng = random.Random(17)
    for entry in catalog.entries():
        L = entry.algebra
        r = radical(L)
        assert is_solvable(L.restrict(r))
        for _ in range(10):
            i = L.ideal_closure(
                [[rng.randint(-2, 2) for _ in range(L.dim)]]
            )
            if is_solvable(L.restrict(i)):
                assert i.leq(r)


def test_perfect_and_near_perfect_radicals_are_maximal():
    # Every sampled perfect ideal sits inside P(L); every sampled near
    # perfect ideal sits inside NP(L).
    rng = random.Random(23)
    for entry in catalog.entries():
        L = entry.algebra
        p = perfect_radical(L)
        np_ = near_perfect_radical(L)
        for _ in range(15):
            i = L.ideal_closure(
                [[rng.randint(-2, 2) for _ in range(L.dim)]]
            )
            if is_perfect_ideal(L, i):
                assert i.leq(p)
            if is_near_perfect_ideal(L, i):
                assert i.leq(np_)


def test_nilpotent_implies_solvable_consistency():
    for entry in catalog.entries():
        prof = profile(entry.algebra)
        if prof.nilpotent:
            assert prof.solvable
        if prof.abelian and entry.algebra.dim > 0:
            assert prof.nilpotent


def test_profile_report_groups_list_every_field_once_in_order(s32):
    # series(), subspaces() and flags() are what the CLI and verify read, so
    # together they must name each field of the report, in declared order.
    prof = profile(s32)
    groups = (prof.series(), prof.subspaces(), prof.flags())
    assert [k for g in groups for k in g] == [f.name for f in dataclasses.fields(prof)]
    assert all(v is getattr(prof, k) for g in groups for k, v in g.items())

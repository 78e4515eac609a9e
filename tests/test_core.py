import random
from fractions import Fraction

import pytest

from conftest import rand_vec
from lieradicals.core import (
    LieAlgebra,
    NotAnIdealError,
    NotClosedError,
    StructureConstants,
)
from lieradicals.linalg import Matrix
from lieradicals.oracle import random_ideal, verify_theorems
from lieradicals.series import center, derived_subalgebra, profile, upper_extension
from lieradicals.subspace import Subspace
from reference import apply, dense_killing, is_zero_vector, quotient_projection, vadd, zeros

F = Fraction


def span(dim, *vecs):
    return Subspace.span(vecs, dim)


# -- construction and validation ------------------------------------------------


def test_s32_table_is_valid(s32):
    assert s32.validate().ok


def test_abelian_is_valid():
    assert LieAlgebra.from_brackets(4, {}).validate().ok


def test_jacobi_violation_reported_with_triple():
    # [e1,e2]=e1, [e2,e3]=e2, [e3,e1]=e3; the Jacobi sum on (1,2,3) comes out
    # to -e1 - e2 - e3, expanded by hand.
    bad = LieAlgebra.from_brackets(
        3,
        {(0, 1): (1, 0, 0), (1, 2): (0, 1, 0), (2, 0): (0, 0, 1)},
    )
    jac = vadd(
        vadd(
            bad.bracket(bad.bracket((1, 0, 0), (0, 1, 0)), (0, 0, 1)),
            bad.bracket(bad.bracket((0, 1, 0), (0, 0, 1)), (1, 0, 0)),
        ),
        bad.bracket(bad.bracket((0, 0, 1), (1, 0, 0)), (0, 1, 0)),
    )
    assert jac == (F(-1), F(-1), F(-1))
    report = bad.validate()
    assert not report.ok
    assert report.kind == "jacobi"
    assert report.indices == (1, 2, 3)


def test_antisymmetry_violation_via_raw_table():
    raw = StructureConstants(
        2, {(0, 1): (0, 1), (1, 0): (0, 1)}
    )
    report = LieAlgebra(raw).validate()
    assert not report.ok
    assert report.kind == "antisymmetry"
    assert report.indices == (1, 2)


def test_nonzero_diagonal_bracket_is_antisymmetry_violation():
    raw = StructureConstants.from_brackets(2, {(0, 0): (0, 1)})
    report = LieAlgebra(raw).validate()
    assert not report.ok
    assert report.kind == "antisymmetry"
    assert report.indices == (1, 1)


def test_conflicting_double_definition_rejected():
    with pytest.raises(ValueError):
        StructureConstants.from_brackets(
            2, {(0, 1): (0, 1), (1, 0): (0, 1)}
        )


def test_consistent_double_definition_accepted():
    c = StructureConstants.from_brackets(2, {(0, 1): (0, 1), (1, 0): (0, -1)})
    assert c.bracket_basis(0, 1) == (F(0), F(1))


@pytest.mark.parametrize("dim,table", [(2, {(5, 0): (0, 0)}), (0, {(0, 0): ()})])
def test_from_brackets_rejects_out_of_range_pair_with_zero_vector(dim, table):
    for build in (StructureConstants, StructureConstants.from_brackets):
        with pytest.raises(ValueError, match="out of range"):
            build(dim, table)


@pytest.mark.parametrize("name", ["dim", "constants", "labels"])
def test_algebra_refuses_attribute_assignment(heis3, sl2, name):
    """Its cached bracket index and Killing form are built from these fields once,
    so a reassigned field would leave them describing the old table."""
    with pytest.raises(AttributeError):
        setattr(heis3, name, getattr(sl2, name))
    assert heis3.constants != sl2.constants
    assert heis3.bracket_spaces(heis3.full_space(), heis3.full_space()).dim == 1


def test_labels_must_be_unique():
    with pytest.raises(ValueError):
        LieAlgebra.from_brackets(2, {}, labels=("a", "a"))


@pytest.mark.parametrize("labels", [("x#1", "y"), ("x y", "z"), ("", "y"), ("x", "y\t"), ("x", "\u2028")])
def test_labels_the_file_format_cannot_hold_are_refused(labels):
    # render_algebra writes labels space-separated on the basis line, and the
    # parser strips '#' comments and splits at whitespace.
    with pytest.raises(ValueError, match="labels"):
        LieAlgebra.from_brackets(2, {}, labels=labels)


# -- brackets ----------------------------------------------------------------------


def test_bracket_z_y(s32):
    # [z, y] = x + y in the defining table.
    assert s32.bracket((0, 0, 1), (0, 1, 0)) == (F(1), F(1), F(0))


def test_bracket_alternating(s32):
    x = (F(1), F(2), F(-3))
    assert is_zero_vector(s32.bracket(x, x))


def test_bracket_bilinear_combination(s32):
    # [x + z, y] = [x, y] + [z, y] = 0 + (x + y)
    assert s32.bracket((1, 0, 1), (0, 1, 0)) == (F(1), F(1), F(0))


def test_bracket_length_mismatch(s32):
    with pytest.raises(ValueError):
        s32.bracket((1, 0), (0, 1, 0))


def test_bracket_random_bilinearity_and_jacobi(sl2s32):
    L = sl2s32
    rng = random.Random(11)
    for _ in range(150):
        x, y, z = (rand_vec(rng, L.dim) for _ in range(3))
        a, b = F(rng.randint(-3, 3)), F(rng.randint(-3, 3))
        ax_by = tuple(a * u + b * v for u, v in zip(x, y))
        left = L.bracket(ax_by, z)
        expect = tuple(
            a * u + b * v for u, v in zip(L.bracket(x, z), L.bracket(y, z))
        )
        assert left == expect
        assert L.bracket(x, y) == tuple(-c for c in L.bracket(y, x))
        jac = vadd(
            vadd(
                L.bracket(L.bracket(x, y), z),
                L.bracket(L.bracket(y, z), x),
            ),
            L.bracket(L.bracket(z, x), y),
        )
        assert is_zero_vector(jac)


# -- bracket of subspaces, ideals --------------------------------------------------


def test_derived_algebra_of_s32(s32):
    full = s32.full_space()
    assert s32.bracket_spaces(full, full) == span(3, (1, 0, 0), (0, 1, 0))


def test_bracket_spaces_with_zero(s32):
    assert s32.bracket_spaces(s32.full_space(), s32.zero_space()).is_zero()


def test_derived_algebra_of_heis3(heis3):
    full = heis3.full_space()
    assert heis3.bracket_spaces(full, full) == span(3, (0, 0, 1))


def test_is_ideal(s32):
    assert s32.is_ideal(span(3, (1, 0, 0), (0, 1, 0)))
    assert not s32.is_ideal(span(3, (0, 0, 1)))
    assert s32.is_ideal(s32.zero_space())


def test_ideal_closure_of_x(s32):
    assert s32.ideal_closure([(1, 0, 0)]) == span(3, (1, 0, 0))


def test_ideal_closure_of_y(s32):
    assert s32.ideal_closure([(0, 1, 0)]) == span(3, (1, 0, 0), (0, 1, 0))


def _failing_tables() -> list[LieAlgebra]:
    """A one-sided table, [e2, e3] stored without [e3, e2] and a nonzero [e3, e3],
    and an antisymmetric one on which Jacobi fails at (e1, e2, e3)."""
    return [LieAlgebra(StructureConstants(3, {(1, 2): (0, F(-1, 2), F(2, 3)),
                                              (2, 2): (0, 0, F(-3, 4))})),
            LieAlgebra.from_brackets(3, {(0, 1): (0, 1, 0), (1, 2): (1, 0, 0)})]


STRUCTURE_STEPS = {
    "bracket_spaces": lambda L, s: L.bracket_spaces(s, s),
    "is_ideal": LieAlgebra.is_ideal,
    "ideal_closure": lambda L, s: L.ideal_closure(s.int_rows),
    "restrict": LieAlgebra.restrict,
    "quotient": LieAlgebra.quotient,
    "derived_subalgebra": lambda L, s: derived_subalgebra(L),
    "upper_extension": upper_extension,
    "center": lambda L, s: center(L),
    "profile": lambda L, s: profile(L),
    "verify_theorems": lambda L, s: verify_theorems(L, samples=1),
    "random_ideal": lambda L, s: random_ideal(L, 0),
}


@pytest.mark.parametrize("space", ["zero", "full", "line"])
@pytest.mark.parametrize("step", STRUCTURE_STEPS)
def test_structure_steps_refuse_a_table_that_fails_validate(step, space):
    """Every structure step takes a Lie algebra: on a table that fails `validate`
    it raises ValueError with the report's message, before any early return."""
    for L in _failing_tables():
        s = {"zero": L.zero_space(), "full": L.full_space(), "line": span(3, (0, 0, 1))}[space]
        with pytest.raises(ValueError) as raised:
            STRUCTURE_STEPS[step](L, s)
        assert type(raised.value) is ValueError
        assert str(raised.value) == L.validate().message
        assert "_generators" not in L.__dict__


def test_validate_bracket_ad_and_killing_form_read_a_table_that_fails_validate():
    """The axiom check and the bracket, adjoint and Killing arithmetic read any table."""
    L = _failing_tables()[0]
    assert L.validate().kind == "antisymmetry"
    z = (0, 0, 1)
    assert L.bracket(z, z) == (0, 0, F(-3, 4))
    assert L.bracket((0, 1, 0), z) == (0, F(-1, 2), F(2, 3))
    assert L.bracket(z, (0, 1, 0)) == (0, 0, 0)
    assert L.ad(z) == Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, F(-3, 4)]])
    assert L.killing_matrix() == dense_killing(L) == Matrix.from_rows(
        [[0, 0, 0], [0, F(4, 9), F(-1, 2)], [0, F(-1, 2), F(9, 16)]])
    assert L.killing_form(z, z) == F(9, 16)
    assert L.killing_orthogonal(span(3, z)) == span(3, (1, 0, 0), (0, 9, 8))


def test_ideal_closure_empty(s32):
    assert s32.ideal_closure([]).is_zero()


def test_ideal_closure_minimality(s32, sl2s32):
    rng = random.Random(5)
    for L in (s32, sl2s32):
        for _ in range(20):
            gens = [
                [rng.randint(-2, 2) for _ in range(L.dim)]
                for _ in range(rng.randint(1, 2))
            ]
            closed = L.ideal_closure(gens)
            assert L.is_ideal(closed)
            assert all(g in closed for g in gens)
            if closed.dim == 0:
                continue
            smaller = Subspace.span(closed.rows()[:-1], L.dim)
            assert not (
                L.is_ideal(smaller) and all(g in smaller for g in gens)
            )


# -- adjoint and Killing form ---------------------------------------------------------


def test_adjoint_of_z(s32):
    # ad(z): x -> x, y -> x + y, z -> 0, read off column by column.
    assert s32.ad((0, 0, 1)) == Matrix.from_rows(
        [[1, 1, 0], [0, 1, 0], [0, 0, 0]]
    )


def test_adjoint_of_zero_vector(s32):
    assert s32.ad((0, 0, 0)) == zeros(3, 3)


def test_adjoint_on_abelian(abelian2):
    assert abelian2.ad((3, -2)) == zeros(2, 2)


def test_killing_of_heis3_is_zero(heis3):
    assert heis3.killing_matrix().is_zero()


def test_killing_of_s32(s32):
    # Only K(z,z) is nonzero: the squared adjoint of z is upper triangular
    # with diagonal (1, 1, 0), so its trace is 2.
    assert s32.killing_matrix() == Matrix.from_rows(
        [[0, 0, 0], [0, 0, 0], [0, 0, 2]]
    )


def test_killing_of_sl2(sl2):
    k = sl2.killing_matrix()
    assert k == Matrix.from_rows([[8, 0, 0], [0, 0, 4], [0, 4, 0]])
    # 3x3 determinant expanded by hand: 8 * (0*0 - 4*4) = -128, nonzero.
    det = (
        k[0, 0] * (k[1, 1] * k[2, 2] - k[1, 2] * k[2, 1])
        - k[0, 1] * (k[1, 0] * k[2, 2] - k[1, 2] * k[2, 0])
        + k[0, 2] * (k[1, 0] * k[2, 1] - k[1, 1] * k[2, 0])
    )
    assert det == -128


def test_killing_symmetry_and_invariance(s32, sl2, heis3, sl2s32):
    rng = random.Random(7)
    for L in (s32, sl2, heis3, sl2s32):
        k = L.killing_matrix()
        assert k == k.transpose()
        for _ in range(100):
            x, y, z = (rand_vec(rng, L.dim) for _ in range(3))
            assert L.killing_form(x, y) == L.killing_form(y, x)
            assert L.killing_form(L.bracket(x, y), z) == L.killing_form(
                x, L.bracket(y, z)
            )


@pytest.mark.parametrize("x,y", [
    ((1, 0), (1, 0, 0)),        # short
    ((1, 0, 0), (1, 0)),
    ((1, 0, 0, 5), (1, 0, 0)),  # long: must not be cut down to (1, 0, 0)
    ((1, 0, 0), (1, 0, 0, 5)),
])
def test_killing_form_length_mismatch(sl2, x, y):
    with pytest.raises(ValueError, match="vector length disagrees"):
        sl2.killing_form(x, y)


def test_killing_orthogonal_of_full_sl2(sl2):
    assert sl2.killing_orthogonal(sl2.full_space()).is_zero()


def test_killing_orthogonal_of_full_heis3(heis3):
    assert heis3.killing_orthogonal(heis3.full_space()).is_full()


def test_killing_orthogonal_of_derived_s32(s32):
    d = s32.bracket_spaces(s32.full_space(), s32.full_space())
    assert s32.killing_orthogonal(d).is_full()


def test_killing_orthogonal_of_ideal_is_ideal(s32, sl2s32):
    rng = random.Random(3)
    for L in (s32, sl2s32):
        for _ in range(10):
            i = L.ideal_closure(
                [[rng.randint(-2, 2) for _ in range(L.dim)]]
            )
            assert L.is_ideal(L.killing_orthogonal(i))


# -- restrict and quotient ----------------------------------------------------------


def test_restrict_full_space(s32):
    assert s32.restrict(s32.full_space()).constants == s32.constants


def test_restrict_derived_of_s32_is_abelian(s32):
    r = s32.restrict(span(3, (1, 0, 0), (0, 1, 0)))
    assert r.dim == 2
    assert r.constants == StructureConstants.from_brackets(2, {})


def test_restrict_block_gives_sl2(sl2s32, sl2):
    block = span(6, (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0))
    assert sl2s32.restrict(block).constants == sl2.constants


def test_restrict_requires_closure(s32):
    with pytest.raises(NotClosedError):
        s32.restrict(span(3, (0, 1, 0), (0, 0, 1)))


def test_restrict_embedding_preserves_brackets(sl2s32):
    L = sl2s32
    s = L.ideal_closure([(0, 0, 0, 0, 1, 0)])  # the solvable-block plane
    r = L.restrict(s)
    rng = random.Random(9)
    for _ in range(30):
        u = rand_vec(rng, r.dim)
        w = rand_vec(rng, r.dim)
        assert L.embed(s, r.bracket(u, w)) == L.bracket(
            L.embed(s, u), L.embed(s, w)
        )


def test_embed_checks_the_ambient_dimension(sl2):
    for s, coords in ((Subspace.full(4), (1, 2, 3, 4)), (Subspace.full(2), (1, 2))):
        with pytest.raises(ValueError, match="ambient dimension disagrees"):
            sl2.embed(s, coords)


def test_quotient_by_zero_is_the_algebra(s32):
    zero = s32.zero_space()
    assert s32.quotient(zero) == s32
    assert quotient_projection(zero) == Subspace.full(3).basis


def test_quotient_s32_by_plane(s32):
    q = s32.quotient(span(3, (1, 0, 0), (0, 1, 0)))
    assert q.dim == 1
    assert q.labels == ("z",)
    assert q.constants == StructureConstants.from_brackets(1, {})


def test_quotient_heis3_by_center(heis3):
    q = heis3.quotient(span(3, (0, 0, 1)))
    assert q.dim == 2
    assert q.constants == StructureConstants.from_brackets(2, {})


def test_quotient_requires_ideal(s32):
    with pytest.raises(NotAnIdealError):
        s32.quotient(span(3, (0, 0, 1)))


def test_quotient_projection_is_homomorphism(s32, heis3, sl2s32):
    rng = random.Random(13)
    for L, ideal in (
        (s32, span(3, (1, 0, 0))),
        (heis3, span(3, (0, 0, 1))),
        (sl2s32, span(6, (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0))),
    ):
        q, proj = L.quotient(ideal), quotient_projection(ideal)
        assert q.validate().ok
        for _ in range(30):
            x, y = rand_vec(rng, L.dim), rand_vec(rng, L.dim)
            assert apply(proj, L.bracket(x, y)) == q.bracket(
                apply(proj, x), apply(proj, y)
            )

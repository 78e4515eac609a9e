"""`profile` on the family Q·z ⋉_M Q^k against closed forms.

V = Q^k is an abelian ideal on which ad z acts by an integer k×k matrix M:
with basis z = e_1 and v_j = e_(j+1), [z, v_j] = M v_j.  Every such table is
a Lie algebra, and its invariants have closed forms in M (Fitting's lemma;
Jacobson, *Lie Algebras*, 1962, ch. II):

* derived series: L, M V, 0, so the perfect radical is 0;
* lower central terms: L, then M^i V for i >= 1;
* upper central terms: ker M^i, plus Q·z from the first i with M^i = 0 on;
* center: ker M, or L when M = 0;
* Killing form: K(z, z) = tr M² and zero elsewhere, so the radical is L.

The expected subspaces are built from integer powers of M and
`reference.fraction_rref` alone, apart from the package's elimination.
Hypothesis draws M up to k = 39 (dim 40); fixed cases reach `MAX_DIM`, far
past the dim-16 inputs of the other comparisons, so they drive the integer
upper extension and reduction through long chains and wide rows.

A direct sum A ⊕ B is computed part by part: each series term, radical,
center and smallest upper bounded ideal is the block sum of the parts' ones
(the shorter chain padded with its stable term), each flag is the
conjunction of the parts' flags, and the Killing matrix is block-diagonal.
The sums pair `semidirect(M)` with every catalog entry and with b3 in the
dense rational basis of `reference`, so the structure tensor mixes integer
and rational constants at shifted indices.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieradicals import catalog
from lieradicals.algfile import MAX_DIM
from lieradicals.core import LieAlgebra
from lieradicals.linalg import Matrix
from lieradicals.series import profile
from lieradicals.subspace import Subspace

import reference


def semidirect(m: list[list[int]]) -> LieAlgebra:
    """Q·z ⋉_M Q^k: [z, v_j] = sum_i M[i][j] v_i, and V abelian."""
    k = len(m)
    brackets = {}
    for j in range(k):
        col = [0] + [m[i][j] for i in range(k)]
        if any(col):
            brackets[(0, j + 1)] = col
    return LieAlgebra.from_brackets(k + 1, brackets)


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    out = [[0] * len(b[0]) for _ in a]
    for row, out_row in zip(a, out):
        for t, x in enumerate(row):
            if x:
                for j, y in enumerate(b[t]):
                    if y:
                        out_row[j] += x * y
    return out


def _powers(m: list[list[int]]):
    """M, M², M³, ... as integer matrices."""
    p = m
    while True:
        yield p
        p = _matmul(p, m)


def _rref(vectors: list, n: int) -> Matrix:
    return reference.fraction_rref(Matrix.from_rows(vectors, n))[0]


def _image(p: list[list[int]]) -> Matrix:
    """p V inside L: the span of the columns of p, with z-coordinate 0."""
    k = len(p)
    return _rref([[0, *col] for col in zip(*p)], k + 1)


def _upper_term(p: list[list[int]]) -> Matrix:
    """ker p inside V, plus Q·z when p = 0."""
    k = len(p)
    ker = reference.fraction_kernel(Matrix.from_rows(p, k))
    vecs = [[0, *row] for row in ker.row_list()]
    if not any(map(any, p)):
        vecs.append([1] + [0] * k)
    return _rref(vecs, k + 1)


def _chain(first: Matrix, rest) -> list[Matrix]:
    """Terms through the first repeat, as `SeriesReport.terms` stores them."""
    terms = [first]
    for t in rest:
        terms.append(t)
        if t == terms[-2]:
            return terms
    raise AssertionError("unreachable: the iterator is infinite")


def _bases(report) -> list[Matrix]:
    return [t.basis for t in report.terms]


def check_closed_forms(m: list[list[int]]) -> None:
    k = len(m)
    n = k + 1
    L = semidirect(m)
    prof = profile(L)
    full, zero = Subspace.full(n).basis, Matrix.from_rows([], n)
    lower = _chain(full, map(_image, _powers(m)))
    nilpotent = lower[-1] == zero  # M^i V stops at 0 exactly when M is nilpotent

    assert _bases(prof.derived) == _chain(full, iter([_image(m), zero, zero]))
    assert _bases(prof.lower_central) == lower
    assert _bases(prof.upper_central) == _chain(zero, map(_upper_term, _powers(m)))
    assert prof.center.basis == _upper_term(m)
    assert prof.perfect_radical.is_zero() and prof.radical.is_full()

    trace_m2 = sum(m[i][j] * m[j][i] for i in range(k) for j in range(k))
    gram = [[Fraction(0)] * n for _ in range(n)]
    gram[0][0] = Fraction(trace_m2)
    assert L.killing_matrix() == Matrix.from_rows(gram, n)

    assert prof.flags() == {
        "solvable": True,
        "nilpotent": nilpotent,
        "perfect": False,
        "abelian": not any(map(any, m)),
        "semisimple": False,
    }


def _permuted(m: list[list[int]], rng: random.Random) -> list[list[int]]:
    """P M P⁻¹ for a random permutation P: the same structure, out of order."""
    k = len(m)
    perm = list(range(k))
    rng.shuffle(perm)
    out = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            out[perm[i]][perm[j]] = m[i][j]
    return out


@st.composite
def integer_matrices(draw, max_k=39):
    """Sparse, nilpotent (strictly triangular, then permuted) or mixed M."""
    k = draw(st.integers(1, max_k))
    kind = draw(st.sampled_from(("sparse", "nilpotent", "mixed")))
    density = draw(st.sampled_from((0.05, 0.15, 0.4)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def entry():
        return rng.choice((-2, -1, 1, 2, 3)) if rng.random() < density else 0

    if kind == "sparse":
        m = [[entry() for _ in range(k)] for _ in range(k)]
    elif kind == "nilpotent":
        m = [[entry() if j > i else 0 for j in range(k)] for i in range(k)]
    else:  # an invertible triangular block next to a nilpotent one
        h = rng.randint(0, k)
        m = [[(rng.choice((1, -2, 3)) if i == j and i < h else
               entry() if j > i and (i < h) == (j < h) else 0)
              for j in range(k)] for i in range(k)]
    return _permuted(m, rng)


@settings(max_examples=25, deadline=None)
@given(integer_matrices())
def test_semidirect_family_matches_closed_forms(m):
    check_closed_forms(m)


def _cyclic(k: int) -> list[list[int]]:
    return [[int(i == (j + 1) % k) for j in range(k)] for i in range(k)]


def test_cyclic_shift_on_three_vectors_is_solvable_with_zero_form():
    """M: x1 -> x2 -> x3 -> x1 (t³ − 1): solvable, not nilpotent, K = 0."""
    m = _cyclic(3)
    check_closed_forms(m)
    L = semidirect(m)
    assert L.killing_matrix() == Matrix.from_rows([[0] * 4] * 4)
    assert not profile(L).nilpotent


def test_fixed_small_cases():
    check_closed_forms([[0]])
    check_closed_forms([[5]])
    check_closed_forms([[0, 1], [0, 0]])
    check_closed_forms([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    jordan = [[int(j == i + 1) for j in range(12)] for i in range(12)]
    check_closed_forms(jordan)  # lower and upper chains of 12 steps


@pytest.mark.parametrize("case", ["cyclic", "square_zero", "diagonal"])
def test_fixed_cases_near_max_dim(case):
    k = MAX_DIM - 1
    if case == "cyclic":
        m = _cyclic(k)
    elif case == "square_zero":  # M² = 0 with rank k // 2
        h = (k + 1) // 2
        m = [[int(j >= h and i == j - h) for j in range(k)] for i in range(k)]
    else:  # diagonal, zero on every seventh vector: K(z, z) = tr M² > 0
        k = 100
        m = [[(i % 7 - 3) * (i == j) for j in range(k)] for i in range(k)]
    check_closed_forms(m)


# -- direct sums ---------------------------------------------------------------------


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """A ⊕ B on the basis of A followed by the basis of B."""
    n = a.dim + b.dim
    brackets = {(i, j): [*v, *[0] * b.dim] for i, j, v in a.constants.pairs()}
    for i, j, v in b.constants.pairs():
        brackets[(a.dim + i, a.dim + j)] = [*[0] * a.dim, *v]
    return LieAlgebra.from_brackets(n, brackets)


def _block(x: Matrix, y: Matrix) -> Matrix:
    """The rows of x, then those of y shifted right: the RREF basis of X ⊕ Y
    from those of X and Y, with no elimination."""
    rows = [[*r, *[0] * y.cols] for r in x.row_list()]
    rows += [[*[0] * x.cols, *r] for r in y.row_list()]
    return Matrix.from_rows(rows, x.cols + y.cols)


def _padded(report, length: int) -> list[Matrix]:
    terms = _bases(report)
    return terms + [terms[-1]] * (length - len(terms))


def check_direct_sum(a: LieAlgebra, b: LieAlgebra) -> None:
    pa, pb, ps = profile(a), profile(b), profile(direct_sum(a, b))
    for kind in ("derived", "lower_central", "upper_central"):
        ra, rb, rs = getattr(pa, kind), getattr(pb, kind), getattr(ps, kind)
        length = max(len(ra.terms), len(rb.terms))
        assert _bases(rs) == [_block(x, y) for x, y in
                              zip(_padded(ra, length), _padded(rb, length))]
    for name in ("perfect_radical", "near_perfect_radical", "radical", "center",
                 "smallest_upper_bounded"):
        assert getattr(ps, name).basis == _block(getattr(pa, name).basis,
                                                 getattr(pb, name).basis)
    assert ps.flags() == {k: pa.flags()[k] and pb.flags()[k] for k in pa.flags()}
    # Stacking the two Gram matrices' rows, shifted, gives the block diagonal.
    assert direct_sum(a, b).killing_matrix() == _block(a.killing_matrix(), b.killing_matrix())


PARTNERS = [*catalog.names(), "rational-b3"]


def _partner(name: str) -> LieAlgebra:
    return reference.build(name) if name in reference.RATIONAL else catalog.get(name).algebra


@settings(max_examples=25, deadline=None)
@given(integer_matrices(max_k=8), st.sampled_from(PARTNERS), st.booleans())
def test_direct_sum_with_a_partner_is_the_sum_of_the_parts(m, partner, semidirect_first):
    a, b = semidirect(m), _partner(partner)
    check_direct_sum(*((a, b) if semidirect_first else (b, a)))


@pytest.mark.parametrize("m", [_cyclic(3), [[0, 1], [0, 0]], [[2, 0], [1, -1]]],
                         ids=["cyclic", "nilpotent", "invertible"])
def test_direct_sum_with_rational_b3_mixes_denominators(m):
    a, b = semidirect(m), reference.build("rational-b3")
    assert b.constants.denominator > 1
    check_direct_sum(a, b)
    check_direct_sum(b, a)

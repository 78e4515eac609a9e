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

`validate` packs rows and sums into integers, a slot of bits per coordinate,
in blocks of coordinates.  The triple loop alone is also matched on integer
tables whose first failing triple has entries at the slot width, and on
rational gl3 with a basis vector scaled by 10^-2000, which splits into
blocks, as given and perturbed so that its first failing triple or pair is
nonzero only in a later block.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieradicals import catalog, core
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


def _jacobi_sum(L: LieAlgebra, i: int, j: int, k: int) -> list[Fraction]:
    """J(e_i, e_j, e_k) from brackets of `Fraction` vectors, 0-based."""
    e, br = L.basis_vector, L.bracket
    return list(reference.vadd(reference.vadd(br(br(e(i), e(j)), e(k)),
                                              br(br(e(j), e(k)), e(i))),
                               br(br(e(k), e(i)), e(j))))


def _failing_triples(L: LieAlgebra) -> list[tuple[int, int, int]]:
    """Every 1-based triple i < j < k whose Jacobi sum is nonzero, in index order."""
    n = L.dim
    return [(i + 1, j + 1, k + 1)
            for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)
            if any(_jacobi_sum(L, i, j, k))]


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


# -- the packed integers ---------------------------------------------------------
#
# `validate` packs each stored row D·[e_a, e_b] into one integer with a^k_ab in
# a slot of w = (3·n·top²).bit_length() bits at k, top the largest |a^k_ab|,
# and takes a packed Jacobi sum to be zero iff every entry is.  That needs
# every entry below 2^w in size; one bit less and an entry of 2^(w−1) next to
# an entry −1 packs to zero.  A block holds as many coordinates as fit
# `core._PACKED_BITS`, and each block is checked.


def _slot_width(L: LieAlgebra) -> int:
    top = max(abs(v) for row in L.constants.adjoint for col in row.values() for v in col.values())
    return (3 * L.dim * top * top).bit_length()


def _block_size(L: LieAlgebra) -> int:
    return max(1, core._PACKED_BITS // _slot_width(L))


def _check_against_the_triple_loop(L: LieAlgebra) -> ValidationReport:
    """For tables too wide or with constants too large for `dense_validate`."""
    report = L.validate()
    assert report == reference.triple_validate(L)
    return report


def _at_the_slot_width(n: int, t: int, l: int, sign: int) -> LieAlgebra:
    """An integer table, top = T = 2^t, whose J(e1, e2, e3) is sign·2^(w−1)·e_l
    − sign·e_(l+1), w the slot width: [e1, e2], [e2, e3] and [e3, e1] are
    T·Σ_m e_m over m >= 4 (0-based), plus e_3 in [e1, e2]; [e_m, e_c] for
    c < 3 carries the terms x·e_l, |x| <= T, that make up sign·2^(w−1)/T, and
    [e_3, e_2] = −sign·e_(l+1).  It needs 2^(w−1) <= 3(n − 4)·T²."""
    T, ms = 2 ** t, range(4, n)
    w = (3 * n * T * T).bit_length()
    left, xs = 2 ** (w - 1) // T, []  # the x over the pairs (m, c)
    for _ in range(3 * len(ms)):
        xs.append(min(T, left))
        left -= xs[-1]
    assert left == 0, "n too small for the slot width"
    table = {(0, 1): {m: T for m in ms} | {3: 1}, (1, 2): {m: T for m in ms},
             (0, 2): {m: -T for m in ms}, (2, 3): {l + 1: sign}}
    for (m, c), x in zip(((m, c) for m in ms for c in (2, 0, 1)), xs):
        if x:
            table[(c, m)] = {l: -sign * x}  # [e_m, e_c] = sign·x·e_l
    return LieAlgebra.from_brackets(n, table)


@pytest.mark.parametrize("n,t,l,sign", [(10, 0, 0, 1), (10, 3, 8, -1), (20, 0, 5, -1),
                                        (20, 40, 0, 1), (40, 7, 38, 1), (40, 100, 17, -1)])
def test_jacobi_sums_at_the_slot_width(n, t, l, sign):
    """The first failing triple's entries reach 2^(w−1): a slot one bit narrower
    would carry its entry at e_l into e_(l+1) and read the sum as zero."""
    L = _at_the_slot_width(n, t, l, sign)
    w, jac = _slot_width(L), _jacobi_sum(L, 0, 1, 2)
    assert jac == [sign * 2 ** (w - 1) if q == l else -sign if q == l + 1 else 0 for q in range(n)]
    assert sum(int(x) << (w - 1) * q for q, x in enumerate(jac)) == 0  # w − 1 bits: packed to 0
    assert _check_against_the_triple_loop(L).indices == (1, 2, 3)


def _scaled(L: LieAlgebra, s: int, c: Fraction) -> dict:
    """L's table of pairs in the basis with e_s replaced by c·e_s."""
    f = [c if a == s else 1 for a in range(L.dim)]
    return {(a, b): [f[a] * f[b] * x / f[k] for k, x in enumerate(v)]
            for a, b, v in L.constants.pairs()}


GL3_SCALED = _scaled(reference.build("rational-gl3"), 0, Fraction(1, 10 ** 2000))


def test_a_wide_valid_table_splits_into_blocks_and_validates():
    L = LieAlgebra.from_brackets(9, GL3_SCALED)
    assert _block_size(L) < L.dim // 2  # three blocks or more
    assert _check_against_the_triple_loop(L) == ValidationReport(ok=True)


@pytest.mark.parametrize("change", [(0, 1, 2, 1), (0, 3, 8, 1), (2, 5, 8, 1), (1, 4, 8, -1)])
def test_first_failing_triple_in_a_later_block(change):
    """rational gl3 with e1 scaled by 10^-2000, one constant changed: the first
    failing triple's Jacobi sum is zero on the first block's coordinates."""
    i, j, k, value = change
    table = {key: list(v) for key, v in GL3_SCALED.items()}
    table[(i, j)][k] += value
    L = LieAlgebra.from_brackets(9, table)
    first = reference.triple_validate(L).indices
    jac, size = _jacobi_sum(L, *(x - 1 for x in first)), _block_size(L)
    assert size <= k and not any(jac[:size]) and any(jac)
    _check_against_the_triple_loop(L)


@pytest.mark.parametrize("k", [2, 5, 8])
def test_antisymmetry_failing_in_a_later_block(k):
    """The same wide table given raw, [e3, e2] changed at coordinate k only."""
    adj = LieAlgebra.from_brackets(9, GL3_SCALED).constants.adjoint
    table = {(a, b): dict(col) for a, row in enumerate(adj) for b, col in row.items()}
    table[(2, 1)][k] = table[(2, 1)].get(k, 0) + 1
    L = LieAlgebra(StructureConstants(9, table))
    assert _block_size(L) <= k
    assert _check_against_the_triple_loop(L).indices == (2, 3)

"""Test-side builders and slow reference computations.

The matrix-unit families use ``[E_ij, E_kl] = δ_jk E_il − δ_li E_kj`` and are
built here, apart from the package's own catalog; `rational-<name>` is the
same algebra in a fixed dense basis whose constants carry denominators.  The
reference routines are the package's earlier implementations of the RREF
(over `Fraction`s, and the column sweep of the integer kernel), the Killing
Gram matrix and its orthogonal, the upper extension (dense, and the stacked
integer form behind its own `is_ideal` test), the ideal predicates that test
`is_ideal` before they compute, the axiom check (over every pair and
triple, and the triple loop `validate` ran before it summed the Jacobi terms),
subspace intersection, the ideal closure and ideal test, reduction modulo a
subspace, the quotient algebra, the construction of constants from one
orientation per pair and by restriction through `Fraction` tables, and the
descending series from the unbounded product, which brackets every pair of
basis rows and forms [L, L] afresh in each series, and the `analyze --json`
dict with its basis strings taken from the dense `Fraction` RREF rows, and
the ordering key of subspaces read from the `Fraction` RREF matrix, and the
text parser that read each coefficient through `Fraction`, kept as slow
paths that the faster code is compared against entry by entry.  The
dense `Fraction` matrix and vector arithmetic that only these slow paths and
the tests use (`apply`, `trace`, `rank`, `zeros`, `vdot`, ...) are plain
functions here, apart from `Matrix`.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd

from lieradicals.algfile import MAX_DIM, InvalidAlgebraError, ParseError
from lieradicals.core import (
    LieAlgebra,
    NotAnIdealError,
    NotClosedError,
    StructureConstants,
    ValidationReport,
)
from lieradicals.linalg import Matrix, divided, vector
from lieradicals.series import ProfileReport, SeriesKind, SeriesReport, upper_central_series
from lieradicals.subspace import Subspace

ZERO = Fraction(0)
ONE = Fraction(1)


# -- matrix-unit families --------------------------------------------------------


def _commutator(x: dict, y: dict) -> dict:
    """[x, y] = xy - yx for sparse matrices {(i, j): coefficient}."""
    out: dict = {}
    for (i, j), a in x.items():
        for (k, l), b in y.items():
            if j == k:
                out[(i, l)] = out.get((i, l), ZERO) + a * b
            if l == i:
                out[(k, j)] = out.get((k, j), ZERO) - a * b
    return {key: c for key, c in out.items() if c}


def _matrix_algebra(basis: list[dict], coords) -> LieAlgebra:
    brackets = {}
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            comm = _commutator(basis[a], basis[b])
            if comm:
                brackets[(a, b)] = coords(comm)
    return LieAlgebra.from_brackets(len(basis), brackets)


def _unit_algebra(units: list[tuple[int, int]]) -> LieAlgebra:
    index = {u: k for k, u in enumerate(units)}

    def coords(m: dict) -> list:
        vec = [ZERO] * len(units)
        for key, c in m.items():
            vec[index[key]] = c
        return vec

    return _matrix_algebra([{u: ONE} for u in units], coords)


def gl(n: int) -> LieAlgebra:
    return _unit_algebra([(i, j) for i in range(n) for j in range(n)])


def b(n: int) -> LieAlgebra:
    """Upper triangular n x n matrices, diagonal included."""
    return _unit_algebra([(i, j) for i in range(n) for j in range(i, n)])


def n_(n: int) -> LieAlgebra:
    """Strictly upper triangular n x n matrices."""
    return _unit_algebra([(i, j) for i in range(n) for j in range(i + 1, n)])


def sl(n: int) -> LieAlgebra:
    """Off-diagonal units, then H_i = E_ii - E_(i+1)(i+1)."""
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    basis = [{u: ONE} for u in off]
    basis += [{(i, i): ONE, (i + 1, i + 1): -ONE} for i in range(n - 1)]
    index = {u: k for k, u in enumerate(off)}

    def coords(m: dict) -> list:
        vec = [ZERO] * len(basis)
        running = ZERO
        for i in range(n - 1):
            # The coefficient of H_i is the sum of the first i+1 diagonal entries.
            running += m.get((i, i), ZERO)
            vec[len(off) + i] = running
        for key, c in m.items():
            if key[0] != key[1]:
                vec[index[key]] = c
        return vec

    return _matrix_algebra(basis, coords)


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra.from_brackets(n, {})


FAMILIES = {"gl": gl, "sl": sl, "b": b, "n": n_, "abelian": abelian}


def build(name: str) -> LieAlgebra:
    """`gl4`, `sl3`, `b5`, `n6`, `abelian12`: family name then size.

    A `rational-` prefix gives the algebra in the basis of `basis_change`.
    """
    if name.startswith("rational-"):
        return rebase(build(name[len("rational-"):]))
    family = name.rstrip("0123456789")
    return FAMILIES[family](int(name[len(family):]))


#: Matrix-unit algebras that the tests also take in the rational basis.
RATIONAL = ("rational-b3", "rational-gl3", "rational-n5")

_SCALES = (ONE, Fraction(1, 2), Fraction(-2, 3), Fraction(3), -ONE, Fraction(5, 4))


def basis_change(dim: int) -> list[list[Fraction]]:
    """A fixed invertible P = lower · diag(scales) · upper, dense with denominators.

    The triangular factors have unit diagonals and entries in {-1, 0, 1}
    off it, chosen by index arithmetic, so P depends on `dim` alone.
    """
    lower = [[ONE if i == j else Fraction((i + 2 * j) % 3 - 1) if j < i else ZERO
              for j in range(dim)] for i in range(dim)]
    upper = [[ONE if i == j else Fraction((2 * i + j) % 3 - 1) if j > i else ZERO
              for j in range(dim)] for i in range(dim)]
    scaled = [[lower[i][k] * _SCALES[k % len(_SCALES)] for k in range(dim)]
              for i in range(dim)]
    return [[sum((scaled[i][k] * upper[k][j] for k in range(dim)), ZERO)
             for j in range(dim)] for i in range(dim)]


def rebase(L: LieAlgebra) -> LieAlgebra:
    """L in the basis f_a = sum_i P[a][i] e_i, with P = basis_change(L.dim)."""
    n = L.dim
    p = basis_change(n)
    aug = Matrix.from_rows([row + [ONE if i == j else ZERO for j in range(n)]
                            for i, row in enumerate(p)], 2 * n)
    red, _ = fraction_rref(aug)
    p_inv = [red.row(i)[n:] for i in range(n)]  # [P | I] reduces to [I | P^-1]
    brackets = {}
    for a in range(n):
        for b_ in range(a + 1, n):
            v = L.bracket(p[a], p[b_])
            brackets[(a, b_)] = [sum((v[i] * p_inv[i][k] for i in range(n)), ZERO)
                                 for k in range(n)]
    return LieAlgebra.from_brackets(n, brackets)


def matrix_unit_ladder(max_dim: int) -> list[str]:
    """Names of every gl_n, sl_n, b_n and n_n member of dimension <= max_dim."""
    dims = {
        "gl": lambda n: n * n,
        "sl": lambda n: n * n - 1,
        "b": lambda n: n * (n + 1) // 2,
        "n": lambda n: n * (n - 1) // 2,
    }
    names = []
    for family, dim in dims.items():
        n = 2
        while dim(n) <= max_dim:
            names.append(f"{family}{n}")
            n += 1
    return names


# -- dense Fraction arithmetic ------------------------------------------------------


def zeros(rows: int, cols: int) -> Matrix:
    return Matrix(rows, cols, [ZERO] * (rows * cols))


def vadd(u, v) -> tuple[Fraction, ...]:
    return tuple(a + b for a, b in zip(u, v))


def vdot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), ZERO)


def is_zero_vector(v) -> bool:
    return all(a == 0 for a in v)


def apply(m: Matrix, v) -> tuple[Fraction, ...]:
    """The matrix-vector product m·v."""
    if len(v) != m.cols:
        raise ValueError("vector length mismatch")
    return tuple(vdot(m.row(i), v) for i in range(m.rows))


def trace(m: Matrix) -> Fraction:
    if m.rows != m.cols:
        raise ValueError("trace of a non-square matrix")
    return sum((m[i, i] for i in range(m.rows)), ZERO)


def rank(m: Matrix) -> int:
    return len(m.rref()[1])


# -- slow paths -------------------------------------------------------------------


def fraction_rref(mat: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Gauss–Jordan over `Fraction`s: the canonical RREF and its pivot columns."""
    m = [list(mat.row(i)) for i in range(mat.rows)]
    n_rows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(mat.cols):
        pr = None
        for i in range(r, n_rows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        if pv != 1:
            m[r] = [x / pv for x in m[r]]
        row_r = m[r]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], row_r)]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return Matrix.from_rows(m[:r], mat.cols), tuple(pivots)


def column_sweep_echelon(rows: list[list[int]], cols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss–Jordan on nonzero primitive integer rows (Bareiss 1968).

    Entry f is cleared against pivot p by row <- (p/g)·row − (f/g)·prow with
    g = gcd(p, f), then the row is divided by its gcd.  Returns the echelon rows,
    each positive at its pivot column and zero at every other one, and their
    pivot columns.  A pivot row is made positive when it is chosen; later
    updates multiply it by p/g > 0, so it stays positive.
    """
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        if prow[c] < 0:
            rows[r] = prow = [-x for x in prow]
        p = prow[c]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                g = gcd(p, row[c])
                a, b = p // g, row[c] // g
                row = [a * x - b * y for x, y in zip(row, prow)]
                h = gcd(*row)
                rows[i] = [x // h for x in row] if h > 1 else row
        pivots.append(c)
    return rows[: len(pivots)], pivots


def stack(matrices, cols: int) -> Matrix:
    """Vertical concatenation; `cols` disambiguates the empty stack."""
    return Matrix.from_rows([r for m in matrices for r in m.row_list()], cols)


def dense_killing(L: LieAlgebra) -> Matrix:
    """K_ij = tr(ad(e_i) @ ad(e_j)) from dense adjoint matrices."""
    n = L.dim
    ads = [L.ad(L.basis_vector(i)) for i in range(n)]
    ents = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            t = trace(ads[i] @ ads[j])
            ents[i][j] = t
            ents[j][i] = t
    return Matrix.from_rows(ents, n)


def naive_ideal_closure(L: LieAlgebra, vectors) -> Subspace:
    """Ideal closure by s <- s + [L, s] over all of s, until s stops growing."""
    s = Subspace.span(vectors, L.dim)
    while True:
        t = s.sum(L.bracket_spaces(L.full_space(), s))
        if t == s:
            return s
        s = t


def naive_is_ideal(L: LieAlgebra, s: Subspace) -> bool:
    """[L, s] ⊆ s, by building and echelonizing [L, s] first."""
    return L.bracket_spaces(L.full_space(), s).leq(s)


def dense_upper_extension(L: LieAlgebra, ideal: Subspace) -> Subspace:
    """Kernel of the stacked maps proj @ R_j, one block per basis vector, for R_j the
    dense matrix of x -> [x, e_j]: its column i is [e_i, e_j], so R_j = −ad(e_j)."""
    n, proj = L.dim, fraction_projection(ideal)
    blocks = [proj @ Matrix.from_rows(zip(*(L.constants.bracket_basis(i, j) for i in range(n))), n)
              for j in range(n)]
    return Subspace.span(stack(blocks, n).kernel().row_list(), n)


def _require_ideal(L: LieAlgebra, s: Subspace) -> None:
    if not L.is_ideal(s):
        raise NotAnIdealError("subspace is not an ideal")


def checked_upper_extension(L: LieAlgebra, ideal: Subspace) -> Subspace:
    """U(I) after a separate `is_ideal` test: the kernel of the stacked rows
    (j, c), coordinate c of [x, e_j] mod I, each [e_i, e_j] of the adjoint
    reduced by `fraction_reduce`, which shares no code with `Subspace._reduce`."""
    _require_ideal(L, ideal)
    n = L.dim
    rows: dict[tuple[int, int], list[Fraction]] = {}
    for i, row in enumerate(L.constants.adjoint):
        for j in row:
            rest = fraction_reduce(ideal, L.constants.bracket_basis(i, j))[1]
            for c, a in enumerate(rest):
                if a:
                    rows.setdefault((j, c), [ZERO] * n)[i] = a
    return Subspace.span(rows.values(), n).annihilator()


def checked_is_perfect_ideal(L: LieAlgebra, s: Subspace) -> bool:
    _require_ideal(L, s)
    return unbounded_product(L, s, s) == s


def checked_is_near_perfect_ideal(L: LieAlgebra, s: Subspace) -> bool:
    _require_ideal(L, s)
    return L.bracket_spaces(L.full_space(), s) == s


def checked_is_upper_bounded_ideal(L: LieAlgebra, s: Subspace) -> bool:
    return checked_upper_extension(L, s) == s


def coefficient_intersect(a: Subspace, b: Subspace) -> Subspace:
    """U ∩ V from the solutions (x, y) of x·A = y·B on the two bases."""
    n = a.ambient_dim
    if a.is_zero() or b.is_zero():
        return Subspace.zero(n)
    neg_b = Matrix.from_rows([[-x for x in row] for row in b.rows()], n)
    coeffs = stack([a.basis, neg_b], n).transpose().kernel()
    vecs = []
    for i in range(coeffs.rows):
        v = [ZERO] * n
        for c, row in zip(coeffs.row(i)[: a.dim], a.rows()):
            v = [p + c * q for p, q in zip(v, row)]
        vecs.append(v)
    return Subspace.span(vecs, n)


def dense_validate(L: LieAlgebra) -> tuple:
    """(ok, kind, indices) of the first axiom failure over every pair and triple."""
    n, c = L.dim, L.constants
    for i in range(n):
        for j in range(i, n):
            vij, vji = c.bracket_basis(i, j), c.bracket_basis(j, i)
            if any(a != -b for a, b in zip(vij, vji)):
                return (False, "antisymmetry", (i + 1, j + 1))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                s = vadd(
                    vadd(
                        L.bracket(c.bracket_basis(i, j), L.basis_vector(k)),
                        L.bracket(c.bracket_basis(j, k), L.basis_vector(i)),
                    ),
                    L.bracket(c.bracket_basis(k, i), L.basis_vector(j)),
                )
                if not is_zero_vector(s):
                    return (False, "jacobi", (i + 1, j + 1, k + 1))
    return (True, None, ())


def triple_validate(L: LieAlgebra) -> ValidationReport:
    """`LieAlgebra.validate` as it was before the Jacobi sums were built from
    their terms: antisymmetry on the stored pairs, then every triple i < j < k
    in index order that touches a stored bracket, three bracket lookups each."""
    n = L.dim
    adj = L.constants.adjoint
    bad_pairs = [
        (min(i, j), max(i, j))
        for i, row in enumerate(adj)
        for j, col in row.items()
        if adj[j].get(i, {}) != {k: -v for k, v in col.items()}
    ]
    if bad_pairs:
        i, j = min(bad_pairs)
        return ValidationReport(
            ok=False,
            kind="antisymmetry",
            indices=(i + 1, j + 1),
            message=(
                f"antisymmetry fails on (e{i + 1}, e{j + 1}): "
                f"[e{i + 1},e{j + 1}] != -[e{j + 1},e{i + 1}]"
            ),
        )
    for i in range(n):
        for j in range(i + 1, n):
            if j in adj[i]:
                ks = range(j + 1, n)
            else:  # only k with [e_j, e_k] or [e_k, e_i] nonzero matter
                ks = sorted(k for k in adj[i].keys() | adj[j].keys() if k > j)
            for k in ks:
                s: dict[int, int] = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    # [[e_a, e_b], e_c] = sum_m c^m_ab [e_m, e_c]
                    for m, cm in adj[a].get(b, {}).items():
                        for l, cl in adj[m].get(c, {}).items():
                            s[l] = s.get(l, 0) + cm * cl
                if any(s.values()):
                    return ValidationReport(
                        ok=False,
                        kind="jacobi",
                        indices=(i + 1, j + 1, k + 1),
                        message=(
                            f"Jacobi identity fails on triple "
                            f"(e{i + 1}, e{j + 1}, e{k + 1})"
                        ),
                    )
    return ValidationReport(ok=True)


def fraction_reduce(s: Subspace, v) -> tuple[tuple, tuple]:
    """(coefficients taken off v at each pivot, remainder of v), by subtracting
    the `Fraction` RREF rows of s one pivot at a time."""
    w = list(vector(v))
    coeffs = []
    for r_idx, p in enumerate(s.pivots):
        c = w[p]
        coeffs.append(c)
        if c:
            w = [a - c * b for a, b in zip(w, s.basis.row(r_idx))]
    return tuple(coeffs), tuple(w)


def fraction_kernel(m: Matrix) -> Matrix:
    """RREF basis of {v : m v = 0}, from `fraction_rref` alone."""
    red, pivots = fraction_rref(m)
    vecs = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [ZERO] * m.cols
        v[f] = ONE
        for r_idx, p in enumerate(pivots):
            v[p] = -red.row(r_idx)[f]
        vecs.append(v)
    return fraction_rref(Matrix.from_rows(vecs, m.cols))[0]


def fraction_killing_orthogonal(gram: Matrix, s: Subspace) -> Matrix:
    """RREF basis of {x : K(x, y) = 0 for y in s}, from a `Fraction` Gram matrix."""
    n = gram.cols
    constraints = [[vdot(gram.row(i), y) for i in range(n)] for y in s.rows()]
    return fraction_kernel(Matrix.from_rows(constraints, n))


def fraction_projection(s: Subspace) -> Matrix:
    """Row c: e_c minus the RREF entries at c, placed at the pivots, for each
    non-pivot column c; it maps v to its coordinates modulo s."""
    rows = []
    for c in (c for c in range(s.ambient_dim) if c not in s.pivots):
        row = [ZERO] * s.ambient_dim
        row[c] = ONE
        for r_idx, p in enumerate(s.pivots):
            row[p] = -s.basis.row(r_idx)[c]
        rows.append(row)
    return Matrix.from_rows(rows, s.ambient_dim)


def quotient_projection(s: Subspace) -> Matrix:
    """The map onto the factor basis of `LieAlgebra.quotient`, the standard vectors
    at s's free columns: row a, for the a-th free column c, holds c's entry of
    `s._reduce` of each e_j, divided by δ, so the matrix takes v to the coordinates
    of v mod s.  It was `Subspace.quotient_projection`, which no library code used."""
    n, d = s.ambient_dim, s._delta
    cols = [s._reduce({j: 1}) for j in range(n)]
    return Matrix.from_rows([divided([v.get(c, 0) for v in cols], d)
                             for c in s.free_columns()], n)


def dense_quotient(L: LieAlgebra, ideal: Subspace) -> tuple[LieAlgebra, Matrix]:
    """L / ideal from the projection matrix applied to every basis pair."""
    proj = fraction_projection(ideal)
    non_pivots = [c for c in range(L.dim) if c not in ideal.pivots]
    d = len(non_pivots)
    table = {}
    for a in range(d):
        for b_ in range(a + 1, d):
            w = L.constants.bracket_basis(non_pivots[a], non_pivots[b_])
            table[(a, b_)] = apply(proj, w)
    labels = tuple(L.labels[c] for c in non_pivots)
    return LieAlgebra(StructureConstants.from_brackets(d, table), labels), proj


def fraction_from_brackets(dim: int, brackets) -> StructureConstants:
    """`StructureConstants.from_brackets` through a dense `Fraction` table:
    each given vector and its negation, checked against the other orientation."""
    table: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    for (i, j), v in brackets.items():
        vec = vector(v)
        if len(vec) != dim:
            raise ValueError("bracket coefficient vector has wrong length")
        if not any(vec):
            continue
        if i == j:
            table[(i, j)] = vec
            continue
        neg = tuple(-x for x in vec)
        if (i, j) in table:
            if table[(i, j)] != vec:
                raise ValueError(f"conflicting definitions for bracket ({i}, {j})")
            continue
        table[(i, j)] = vec
        if (j, i) in table:
            if table[(j, i)] != neg:
                raise ValueError(f"conflicting definitions for bracket ({i}, {j})")
        else:
            table[(j, i)] = neg
    return StructureConstants(dim, table)


def fraction_restrict(L: LieAlgebra, s: Subspace) -> LieAlgebra:
    """`LieAlgebra.restrict` by echelonizing [s, s] to test closure, then taking
    the `Fraction` coordinates of each bracket of RREF rows."""
    if s.ambient_dim != L.dim:
        raise ValueError("subspace ambient dimension disagrees with the algebra")
    if not unbounded_product(L, s, s).leq(s):
        raise NotClosedError("subspace is not closed under the bracket")
    rows = s.rows()
    table = {}
    for p in range(len(rows)):
        for q in range(p + 1, len(rows)):
            coords, rest = fraction_reduce(s, L.bracket(rows[p], rows[q]))
            assert is_zero_vector(rest)  # guaranteed by closure
            table[(p, q)] = coords
    return LieAlgebra(fraction_from_brackets(s.dim, table))


def unbounded_product(L: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """[a, b] as the span of the brackets of every pair of integer basis rows,
    all of them eliminated: no bound, and no pair left out.  Each bracket is
    summed here, entry by entry, over the stored integer constants, with no
    code shared with `LieAlgebra`; its zero entries are dropped, as the kernel
    takes {col: int} rows without zeros."""
    adj, vecs = L.constants.adjoint, []
    for x in a.int_rows:
        for y in b.int_rows:
            w: dict[int, int] = {}
            for i, xi in x.items():
                for j, yj in y.items():
                    for k, c in adj[i].get(j, {}).items():
                        w[k] = w.get(k, 0) + xi * yj * c
            vecs.append({k: v for k, v in w.items() if v})
    return Subspace.span(vecs, L.dim)


def unbounded_series(L: LieAlgebra, kind: SeriesKind) -> SeriesReport:
    """The derived or lower central series from `unbounded_product`, starting
    from its own [L, L], through the first repeated term."""
    full = L.full_space()
    terms = [full]
    while len(terms) < 2 or terms[-1] != terms[-2]:
        t = terms[-1]
        terms.append(unbounded_product(L, t if kind is SeriesKind.DERIVED else full, t))
    return SeriesReport(kind, tuple(terms), len(terms) - 2)


def unbounded_profile(L: LieAlgebra) -> ProfileReport:
    """`profile` with both descending series and D(L) from `unbounded_product`;
    the upper central series and the Killing orthogonal are the package's own."""
    der = unbounded_series(L, SeriesKind.DERIVED)
    low = unbounded_series(L, SeriesKind.LOWER_CENTRAL)
    upp = upper_central_series(L)
    d1 = unbounded_product(L, L.full_space(), L.full_space())
    rad = L.killing_orthogonal(d1)
    return ProfileReport(
        derived=der, lower_central=low, upper_central=upp,
        perfect_radical=der.stable_term, near_perfect_radical=low.stable_term, radical=rad,
        center=upp.terms[1], smallest_upper_bounded=upp.stable_term,
        solvable=der.stable_term.is_zero(), nilpotent=low.stable_term.is_zero(),
        perfect=d1.is_full(), abelian=d1.is_zero(), semisimple=L.dim > 0 and rad.is_zero(),
    )


def fraction_sort_key(s: Subspace) -> tuple:
    """`subspace.sort_key` as it was: the dimension, then the (numerator,
    denominator) of every entry of the dense `Fraction` RREF matrix."""
    return s.dim, tuple((x.numerator, x.denominator) for x in s.basis.entries)


def fraction_subspace_json(s: Subspace) -> dict:
    """`{dim, basis}` with every entry of the dense `Fraction` RREF rows as a string."""
    return {"dim": s.dim, "basis": [[str(x) for x in row] for row in s.rows()]}


def fraction_profile_json(L: LieAlgebra, prof: ProfileReport) -> dict:
    """The `analyze --json` dict, each reported subspace built afresh by
    `fraction_subspace_json`, however often it is reported."""
    return {
        "dim": L.dim,
        "series": {k: [fraction_subspace_json(t) for t in rep.chain]
                   for k, rep in prof.series().items()},
        **{k: fraction_subspace_json(s) for k, s in prof.subspaces().items()},
        "flags": prof.flags(),
    }


# -- the text format, read through Fraction --------------------------------------

_DIM_RE = re.compile(r"dim\s+(\d+)$")
_BASIS_RE = re.compile(r"basis\s+(.+)$")
_BRACKET_RE = re.compile(r"\[\s*(\d+)\s*,\s*(\d+)\s*\]\s*=\s*(.+)$")
_TERM_RE = re.compile(r"(-?\d+(?:/\d+)?)\s*\*\s*e(\d+)$")


def _numeral(text: str, lineno: int, kind=int):
    """kind(text); a numeral past Python's int-string digit limit is a ParseError."""
    try:
        return kind(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"number exceeds the limit of {limit} digits", lineno) from None


def fraction_parse_algebra(text: str) -> LieAlgebra:
    """`algfile.parse_algebra` reading each coefficient as an int or a `Fraction`
    and building the table from those values.

    Raises ParseError for malformed input and InvalidAlgebraError when the
    bracket table fails validation.
    """
    dim: int | None = None
    labels: tuple[str, ...] | None = None
    brackets: dict[tuple[int, int], dict[int, int | Fraction]] = {}  # (i, j) -> {k: c^k_ij}
    seen_pairs: set[tuple[int, int]] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        if line.startswith("dim"):
            m = _DIM_RE.fullmatch(line)
            if m is None:
                raise ParseError("malformed dim line", lineno)
            if dim is not None:
                raise ParseError("duplicate dim line", lineno)
            digits = m.group(1).lstrip("0")
            if len(digits) > len(str(MAX_DIM)) or int(digits or 0) > MAX_DIM:
                raise ParseError(f"dim exceeds the limit of {MAX_DIM}", lineno)
            dim = int(m.group(1))
            continue

        if line.startswith("basis"):
            if dim is None:
                raise ParseError("basis line before dim", lineno)
            if labels is not None:
                raise ParseError("duplicate basis line", lineno)
            m = _BASIS_RE.fullmatch(line)
            if m is None:
                raise ParseError("malformed basis line", lineno)
            names = tuple(m.group(1).split())
            if len(names) != dim:
                raise ParseError(
                    f"basis needs exactly {dim} names, got {len(names)}", lineno
                )
            if len(set(names)) != len(names):
                raise ParseError("basis names must be unique", lineno)
            labels = names
            continue

        if line.startswith("["):
            if dim is None:
                raise ParseError("bracket line before dim", lineno)
            m = _BRACKET_RE.fullmatch(line)
            if m is None:
                raise ParseError("malformed bracket line", lineno)
            i, j = _numeral(m.group(1), lineno), _numeral(m.group(2), lineno)
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise ParseError(f"bracket index out of range in [{i},{j}]", lineno)
            key = (min(i, j), max(i, j))
            if key in seen_pairs:
                raise ParseError(
                    f"bracket pair ({i},{j}) already defined "
                    "(in this or the reversed orientation)",
                    lineno,
                )
            seen_pairs.add(key)
            rhs = m.group(3).strip()
            terms: dict[int, int | Fraction] = {}  # repeated e_k add up; a zero sum is dropped
            if rhs != "0":
                for part in rhs.split("+"):
                    t = _TERM_RE.fullmatch(part.strip())
                    if t is None:
                        raise ParseError(f"malformed term {part.strip()!r} in {rhs!r}", lineno)
                    try:  # an integer skips Fraction's string parser
                        coeff = _numeral(t.group(1), lineno, Fraction if "/" in part else int)
                    except ZeroDivisionError:
                        raise ParseError(
                            f"zero denominator in {part.strip()!r}", lineno
                        ) from None
                    k = _numeral(t.group(2), lineno)
                    if not (1 <= k <= dim):
                        raise ParseError(f"basis index e{k} out of range", lineno)
                    terms[k - 1] = terms[k - 1] + coeff if k - 1 in terms else coeff
            brackets[(i - 1, j - 1)] = terms
            continue

        raise ParseError(f"unrecognized line {line!r}", lineno)

    if dim is None:
        raise ParseError("missing dim line")

    algebra = LieAlgebra(StructureConstants.from_brackets(dim, brackets), labels)
    report = algebra.validate()
    if not report.ok:
        raise InvalidAlgebraError(report)
    return algebra

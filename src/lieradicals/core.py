"""Lie algebras given by structure constants over the rationals.

An algebra is the data [e_i, e_j] = sum_k c^k_ij e_k on a chosen basis.  This
module owns validation (antisymmetry and the Jacobi identity), brackets of
vectors and of subspaces, ideal tests and ideal closure, the adjoint
representation, the Killing form and its orthogonal complements, restriction
to a subalgebra, and quotients by ideals.

`StructureConstants` holds the one copy of the constants: a sparse table of
integers, ``adjoint[i][j] = {k: a^k_ij}`` with c^k_ij = a^k_ij / D for the
common denominator D of all the constants.  Its constructor is the one place
a table is normalised; `from_brackets` adds the reverse orientations to its
integers, and `restrict` and `quotient` compute their new constants in
integers and divide them once by a common scalar.  `Fraction`s are made from
the table only on request (`bracket_basis`, `pairs`).  Brackets of vectors,
the axiom check, the Killing Gram matrix K_ij = sum_{k,l} c^l_ik c^k_jl
(de Graaf, *Lie Algebras: Theory and Algorithms*, ch. 1) and the upper
extension in `series` walk only its nonzero entries, so an abelian algebra
costs next to nothing at any size.  Scaling by D keeps antisymmetry, Jacobi,
spans and kernels, so these and the `Subspace` rows run on integers alone;
`bracket` divides by D once, the Killing form by D².

Everything downstream assumes the rational field.  All the structure theory
used here (Cartan's criteria, the radical formula, the series
characterizations) is valid over any field of characteristic zero, and exact
rational arithmetic is what makes the results machine-checkable.  Algebras
usually presented over C enter through rational split forms, e.g. sl2 with
basis h, e, f.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping, Sequence

from .linalg import Matrix, divided, insert_row, numerators, vector
from .subspace import Subspace


class NotAnIdealError(ValueError):
    """Raised when an operation requires an ideal and the subspace is not one."""


class NotClosedError(ValueError):
    """Raised when restricting to a subspace that is not bracket-closed."""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking the structure-constant axioms.

    `indices` are 1-based basis indices: the offending pair for an
    antisymmetry failure, the offending triple for a Jacobi failure.
    """

    ok: bool
    kind: str | None = None  # "antisymmetry" | "jacobi"
    indices: tuple[int, ...] = ()
    message: str = "ok"


class StructureConstants:
    """Sparse integer bracket table: [e_i, e_j] = sum_k (a^k_ij / D) e_k.

    `denominator` is D, the lcm of the denominators of all the constants, and
    ``adjoint[i][j] = {k: a^k_ij}`` holds only the nonzero integers D·c^k_ij;
    both are read-only.  Both orientations of a pair are kept so lookups never
    need sign fixing.  Use :meth:`from_brackets` for normal construction (one
    orientation given, the other derived); the constructor wraps a raw,
    possibly non-antisymmetric table that validation should inspect.
    """

    __slots__ = ("dim", "denominator", "adjoint")

    def __init__(self, dim: int, table: Mapping[tuple[int, int], Sequence]):
        vecs: dict[tuple[int, int], tuple[Fraction, ...]] = {}
        for (i, j), v in table.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"basis index out of range in bracket ({i}, {j})")
            vec = vector(v)
            if len(vec) != dim:
                raise ValueError("bracket coefficient vector has wrong length")
            if any(vec):
                vecs[(i, j)] = vec
        d = lcm(*(c.denominator for v in vecs.values() for c in v))
        adjoint: list[dict[int, dict[int, int]]] = [{} for _ in range(dim)]
        for (i, j), v in vecs.items():
            adjoint[i][j] = {k: c.numerator * (d // c.denominator) for k, c in enumerate(v) if c}
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "denominator", d)
        object.__setattr__(self, "adjoint", tuple(adjoint))

    def __setattr__(self, name, value):  # pragma: no cover - safety net
        raise AttributeError("StructureConstants is immutable")

    @classmethod
    def from_brackets(
        cls, dim: int, brackets: Mapping[tuple[int, int], Sequence]
    ) -> "StructureConstants":
        """Build from one orientation per pair; the constructor's integer
        table is completed by [e_j, e_i] = −[e_i, e_j].

        Supplying both orientations with inconsistent values is an error;
        consistent double definitions are accepted.  Nonzero diagonal entries
        are stored as given so that validation can report them.
        """
        constants = cls(dim, brackets)
        for i, row in enumerate(constants.adjoint):
            for j, col in row.items():
                neg = {k: -a for k, a in col.items()}
                if i != j and constants.adjoint[j].setdefault(i, neg) != neg:
                    raise ValueError(f"conflicting definitions for bracket ({i}, {j})")
        return constants

    def bracket_basis(self, i: int, j: int) -> tuple[Fraction, ...]:
        """[e_i, e_j] as a coordinate vector of Fractions."""
        col = self.adjoint[i].get(j, {})
        return divided([col.get(k, 0) for k in range(self.dim)], self.denominator)

    def pairs(self):
        """Defining brackets (i < j, nonzero), in index order."""
        for i, row in enumerate(self.adjoint):
            for j in sorted(row):
                if i < j:
                    yield i, j, self.bracket_basis(i, j)

    def __eq__(self, other) -> bool:
        # D is the lcm of the reduced denominators, so (D, integers) fixes the Fractions.
        if not isinstance(other, StructureConstants):
            return NotImplemented
        return (self.dim, self.denominator, self.adjoint) == (
            other.dim, other.denominator, other.adjoint)

    def __repr__(self) -> str:
        nonzero = sum(map(len, self.adjoint))
        return f"StructureConstants(dim={self.dim}, nonzero={nonzero})"


def _support(x: Sequence[Fraction]) -> list[tuple[int, Fraction]]:
    """The nonzero coordinates of x as (index, value) pairs."""
    return [(i, xi) for i, xi in enumerate(x) if xi]


def _default_labels(dim: int) -> tuple[str, ...]:
    return tuple(f"e{i + 1}" for i in range(dim))


class LieAlgebra:
    """A finite-dimensional Lie algebra: dimension, constants, basis labels."""

    __slots__ = ("dim", "constants", "labels", "__dict__")

    def __init__(
        self,
        constants: StructureConstants,
        labels: Sequence[str] | None = None,
    ):
        dim = constants.dim
        labels = tuple(labels) if labels is not None else _default_labels(dim)
        if len(labels) != dim:
            raise ValueError("need exactly one label per basis vector")
        if len(set(labels)) != dim:
            raise ValueError("basis labels must be unique")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "constants", constants)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_brackets(
        cls,
        dim: int,
        brackets: Mapping[tuple[int, int], Sequence],
        labels: Sequence[str] | None = None,
    ) -> "LieAlgebra":
        return cls(StructureConstants.from_brackets(dim, brackets), labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.constants == other.constants and self.labels == other.labels

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, labels={self.labels})"

    # -- axioms --------------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check antisymmetry on all pairs, then Jacobi on all basis triples.

        Returns the first violation found, in index order; violations are
        report data, not exceptions.  Checking Jacobi on basis triples
        suffices by trilinearity, and a triple whose three basis brackets are
        all zero satisfies it trivially, so only triples touching a nonzero
        bracket are evaluated.
        """
        n = self.dim
        adj = self.constants.adjoint
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

    # -- vectors and spaces ----------------------------------------------------

    def basis_vector(self, i: int) -> tuple[Fraction, ...]:
        v = [Fraction(0)] * self.dim
        v[i] = Fraction(1)
        return tuple(v)

    def _check_ambient(self, *spaces: Subspace) -> None:
        if any(s.ambient_dim != self.dim for s in spaces):
            raise ValueError("subspace ambient dimension disagrees with the algebra")

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim)

    def zero_space(self) -> Subspace:
        return Subspace.zero(self.dim)

    def bracket(self, x: Sequence, y: Sequence) -> tuple[Fraction, ...]:
        """[x, y] = sum x_i y_j [e_i, e_j] over the nonzero x_i and stored brackets."""
        d = self.constants.denominator
        x = [a / d for a in vector(x)]
        y = vector(y)
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length disagrees with the algebra dimension")
        return vector(self._bracket(_support(x), y))

    def _bracket(self, xs: list[tuple], y: Sequence) -> list:
        """D·[x, y] from the nonzero (i, x_i) of x, in the type of the inputs."""
        out, adj = [0] * self.dim, self.constants.adjoint
        for i, xi in xs:
            for j, col in adj[i].items():
                c = xi * y[j]
                if c:
                    for k, v in col.items():
                        out[k] += c * v
        return out

    def bracket_spaces(self, a: Subspace, b: Subspace) -> Subspace:
        """Span of the pairwise brackets of the two bases: the ideal product."""
        self._check_ambient(a, b)
        adj = self.constants.adjoint
        supports = [(v, {j for j, x in enumerate(v) if x}) for v in b.int_rows]
        vecs = []
        for u in a.int_rows:
            xs = _support(u)
            linked = set().union(*(adj[i] for i, _ in xs))  # j with some [e_i, e_j] stored
            for v, support in supports:
                # A pair with no stored bracket between the supports brackets to zero,
                # and zero brackets do not change the span.
                if not linked.isdisjoint(support):
                    w = self._bracket(xs, v)
                    if any(w):
                        vecs.append(w)
        return Subspace.span(vecs, self.dim)

    def is_ideal(self, s: Subspace) -> bool:
        """True iff [L, s] is contained in s: by bilinearity, iff every nonzero
        D·[e_i, r] for a basis row r of s reduces to zero modulo s."""
        self._check_ambient(s)
        return not any(any(s._reduce(b)) for r in s.int_rows for b in self._basis_brackets(r))

    def _basis_brackets(self, u: Sequence[int]) -> list[list[int]]:
        """The nonzero D·[e_i, u], formed only for i with a stored [e_i, e_j] on u's support."""
        adj, support = self.constants.adjoint, {j for j, x in enumerate(u) if x}
        return [b for i in range(self.dim) if not support.isdisjoint(adj[i])
                and any(b := self._bracket([(i, 1)], u))]

    def ideal_closure(self, vectors: Iterable[Sequence]) -> Subspace:
        """Smallest ideal containing the vectors, grown one echelon row at a time.

        Each row that `insert_row` adds is bracketed once with every e_i and the
        nonzero brackets are inserted in turn, so the final span is closed under
        [L, ·] and lies in the ideal the vectors generate (`notes/decisions.md`).
        Once the table has rank n its span is L, an ideal, and the loop stops.
        """
        n = self.dim
        rows: dict[int, list[int]] = {}
        todo = [numerators(v)[0] for v in vectors]
        if any(len(v) != n for v in todo):
            raise ValueError("vector length disagrees with ambient dimension")
        for w in todo:  # grows while it is walked: the brackets of each added row
            u = insert_row(rows, w)
            if len(rows) == n:
                return Subspace.full(n)
            if u is not None:
                todo += self._basis_brackets(u)
        pivots = sorted(rows)
        return Subspace(n, [rows[p] for p in pivots], pivots)

    # -- adjoint and Killing form -----------------------------------------------

    def ad(self, x: Sequence) -> Matrix:
        """Adjoint matrix of x: column j is [x, e_j]."""
        x = vector(x)
        if len(x) != self.dim:
            raise ValueError("vector length disagrees with the algebra dimension")
        cols = [self.bracket(x, self.basis_vector(j)) for j in range(self.dim)]
        return Matrix(self.dim, self.dim, [c for row in zip(*cols) for c in row])

    @cached_property
    def _killing(self) -> tuple[dict[int, int], ...]:
        """_killing[i] = {j: D²·K_ij}, the nonzero entries of the scaled Gram
        matrix, K_ij = sum_{k,l} c^l_ik c^k_jl summed over the nonzero c^l_ik."""
        n = self.dim
        adj = self.constants.adjoint
        gram: list[dict[int, int]] = [{} for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                t = 0
                for k, col in adj[i].items():
                    for l, c in col.items():
                        d = adj[j].get(l, {}).get(k)
                        if d:
                            t += c * d
                if t:
                    gram[i][j] = gram[j][i] = t
        return tuple(gram)

    def killing_matrix(self) -> Matrix:
        """Gram matrix of the Killing form: K_ij = tr(ad(e_i) ad(e_j))."""
        n, d2 = self.dim, self.constants.denominator ** 2
        return Matrix(n, n, [Fraction(g.get(j, 0), d2) for g in self._killing for j in range(n)])

    def killing_form(self, x: Sequence, y: Sequence) -> Fraction:
        """K(x, y) = tr(ad(x) ad(y)), evaluated through the scaled Gram matrix."""
        x, y = vector(x), vector(y)
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length disagrees with the algebra dimension")
        gram = enumerate(self._killing)
        t = sum((x[i] * c * y[j] for i, g in gram for j, c in g.items()), Fraction(0))
        return t / self.constants.denominator ** 2

    def killing_orthogonal(self, s: Subspace) -> Subspace:
        """{x : K(x, y) = 0 for all y in s}; an ideal whenever s is one."""
        self._check_ambient(s)
        # K is symmetric, so the constraint of a basis row y is D²·K applied to y.
        constraints = [[sum(c * y[j] for j, c in g.items()) for g in self._killing]
                       for y in s.int_rows]
        return Subspace.span(constraints, self.dim).annihilator()

    # -- subalgebras and quotients -----------------------------------------------

    def restrict(self, s: Subspace) -> "LieAlgebra":
        """The Lie algebra structure induced on a bracket-closed subspace.

        The new basis is s's RREF basis b_r.  For B_r = δ·b_r, D·[B_p, B_q] is
        D·δ²·[b_p, b_q]; its entries at the pivots over D·δ² are the constants.
        Raises NotClosedError if [s, s] is not contained in s.
        """
        self._check_ambient(s)
        d = s._delta
        rows = [[(d // r[p]) * x for x in r] for r, p in zip(s.int_rows, s.pivots)]
        scale, table = self.constants.denominator * d * d, {}
        for p, xs in enumerate(map(_support, rows)):
            for q, v in enumerate(rows):
                w = self._bracket(xs, v)
                if any(s._reduce(w)):
                    raise NotClosedError("subspace is not closed under the bracket")
                if p < q:
                    table[(p, q)] = divided([w[c] for c in s.pivots], scale)
        return LieAlgebra(StructureConstants.from_brackets(s.dim, table))

    def embed(self, s: Subspace, coords: Sequence) -> tuple[Fraction, ...]:
        """Map restricted coordinates back to ambient coordinates."""
        self._check_ambient(s)
        coords = vector(coords)
        if len(coords) != s.dim:
            raise ValueError("coordinate length disagrees with the subspace dimension")
        return tuple(sum((c * row[k] for c, row in zip(coords, s.rows())), Fraction(0))
                     for k in range(self.dim))

    def quotient(self, ideal: Subspace) -> "LieAlgebra":
        """The factor algebra L / ideal; raises NotAnIdealError for a non-ideal.

        The quotient basis is the standard vectors at the ideal's free columns
        (`Subspace.free_columns`), in index order, and
        `ideal.quotient_projection()` maps ambient coordinates onto it.  The
        quotient coordinates of [e_i, e_j] are its free entries mod the ideal:
        `ideal._reduce` of the stored integers D·[e_i, e_j] is
        δ·D·([e_i, e_j] mod I), so they are divided by δ·D.
        """
        if not self.is_ideal(ideal):
            raise NotAnIdealError("quotient requires an ideal")
        n, free = self.dim, ideal.free_columns()
        index = {c: a for a, c in enumerate(free)}
        scale, table = ideal._delta * self.constants.denominator, {}
        for i, row in enumerate(self.constants.adjoint):
            for j, col in row.items():
                if i < j and i in index and j in index:
                    w = ideal._reduce([col.get(k, 0) for k in range(n)])
                    table[(index[i], index[j])] = divided([w[c] for c in free], scale)
        labels = tuple(self.labels[c] for c in free)
        return LieAlgebra(StructureConstants.from_brackets(len(free), table), labels)

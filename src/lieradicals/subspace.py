"""Canonical linear subspaces of the ambient coordinate space.

A :class:`Subspace` keeps its basis in reduced row echelon form with no zero
rows, so two subspaces are equal exactly when their basis matrices are equal.
That turns every containment/equality question in the rest of the package into
a syntactic check, with no tolerances anywhere.  Ideals of a Lie algebra are
represented by these values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import Matrix, is_zero_vector, rref_rows, vector


class Subspace:
    """A subspace of Q^n, canonicalized by its RREF basis."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: Matrix):
        # `basis` must already be in RREF with no zero rows; use span() for
        # arbitrary generating sets.
        if basis.cols != ambient_dim:
            raise ValueError("basis width disagrees with ambient dimension")
        if basis.rows > ambient_dim:
            raise ValueError("more basis rows than the ambient dimension allows")
        pivots = []
        for i in range(basis.rows):
            row = basis.row(i)
            lead = next((j for j, x in enumerate(row) if x != 0), None)
            if lead is None:
                raise ValueError("zero row in subspace basis")
            pivots.append(lead)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, name, value):  # pragma: no cover - safety net
        raise AttributeError("Subspace is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def span(cls, vectors: Iterable[Sequence], ambient_dim: int) -> "Subspace":
        """Smallest subspace containing the int or Fraction rows, canonicalized."""
        rows = list(vectors)
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("vector length disagrees with ambient dimension")
        reduced, _ = rref_rows(rows, ambient_dim)
        return cls(ambient_dim, Matrix.from_rows(reduced, ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.from_rows([], ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim))

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.basis.rows == 0

    def is_full(self) -> bool:
        return self.basis.rows == self.ambient_dim

    def rows(self) -> list[tuple[Fraction, ...]]:
        return self.basis.row_list()

    def _eliminate(self, v: Sequence) -> tuple[tuple[Fraction, ...], ...]:
        """Coefficients taken off v at each pivot, and what remains of v."""
        w = list(vector(v))
        if len(w) != self.ambient_dim:
            raise ValueError("vector length disagrees with ambient dimension")
        coeffs = []
        for r_idx, p in enumerate(self.pivots):
            c = w[p]
            coeffs.append(c)
            if c:
                row = self.basis.row(r_idx)
                w = [a - c * b for a, b in zip(w, row)]
        return tuple(coeffs), tuple(w)

    def reduce(self, v: Sequence) -> tuple[Fraction, ...]:
        """Remainder of v after eliminating this subspace's pivot coordinates.

        The result has zeros at all pivot columns; it is the canonical
        representative of v modulo this subspace.
        """
        return self._eliminate(v)[1]

    def contains(self, v: Sequence) -> bool:
        return is_zero_vector(self.reduce(v))

    def coordinates(self, v: Sequence) -> tuple[Fraction, ...] | None:
        """Coefficients of v against the RREF basis, or None if v is outside."""
        coeffs, rest = self._eliminate(v)
        return coeffs if is_zero_vector(rest) else None

    # -- lattice operations --------------------------------------------------

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.span(self.rows() + other.rows(), self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        """U ∩ V = (U^⊥ + V^⊥)^⊥ under the standard dot product.

        Each annihilator is the kernel of a basis matrix; the dot product is
        nondegenerate, so (U^⊥)^⊥ = U and the outer kernel is U ∩ V.
        """
        self._check_ambient(other)
        n = self.ambient_dim
        annihilators = Matrix.stack([self.basis.kernel(), other.basis.kernel()], n)
        return Subspace(n, annihilators.kernel())

    def leq(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(other.contains(r) for r in self.rows())

    def quotient_projection(self) -> Matrix:
        """Projection onto the complementary standard coordinates.

        Rows index the non-pivot columns of the basis, in increasing order;
        applying the matrix to v gives the coordinates of v mod this subspace
        in the basis of standard vectors at those columns.
        """
        pivot_set = set(self.pivots)
        non_pivots = [c for c in range(self.ambient_dim) if c not in pivot_set]
        rows = []
        for c in non_pivots:
            row = [Fraction(0)] * self.ambient_dim
            row[c] = Fraction(1)
            for r_idx, p in enumerate(self.pivots):
                row[p] = -self.basis[r_idx, c]
            rows.append(row)
        return Matrix.from_rows(rows, self.ambient_dim)

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __add__(self, other: "Subspace") -> "Subspace":
        return self.sum(other)

    def __and__(self, other: "Subspace") -> "Subspace":
        return self.intersect(other)

    def __le__(self, other: "Subspace") -> bool:
        return self.leq(other)

    def __contains__(self, v) -> bool:
        return self.contains(v)

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient_dim}: {self.basis!r})"


def sort_key(s: Subspace) -> tuple:
    """Deterministic ordering key for subspaces of one ambient space."""
    return (
        s.dim,
        tuple((x.numerator, x.denominator) for x in s.basis.entries),
    )

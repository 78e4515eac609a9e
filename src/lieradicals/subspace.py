"""Canonical linear subspaces of the ambient coordinate space.

A :class:`Subspace` keeps the canonical ``{col: int}`` rows of
`linalg.echelon_rows` (its RREF basis rows scaled to coprime integers, zeros
left out) and their pivots, so two subspaces are equal exactly when those rows
are: every containment/equality question in the package is a syntactic check,
with no tolerances anywhere.  Reduction stays in integers too: with δ the lcm
of the pivot entries q_r, the row B_r = (δ/q_r)·row_r is δ times RREF row r,
and RREF rows vanish at the other pivots, so δ·(v mod the subspace) =
δ·v − Σ_r v[p_r]·B_r, one update per pivot in v's support.  Dense rows and
Fractions are made only on request (`basis`, `rows()`, `reduce`) and never
kept; `sort_key` reads the integer rows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from typing import Iterable, Sequence

from .linalg import (Matrix, dense, divided, echelon_rows, kernel_rows, numerators, sparse,
                     subtract, vector)


class Subspace:
    """A subspace of Q^n, canonicalized by its integer echelon rows."""

    __slots__ = ("ambient_dim", "int_rows", "pivots", "_by_pivot", "_delta")

    def __init__(self, ambient_dim: int, rows: Iterable[dict[int, int]], pivots: Iterable[int]):
        # `rows` and `pivots` must already be canonical, as `echelon_rows`
        # gives them; use span() for arbitrary generating sets.
        rows, pivots = tuple(rows), tuple(pivots)
        by_pivot = dict(zip(pivots, rows))
        delta = lcm(*(r[p] for p, r in by_pivot.items()))
        for name, value in zip(self.__slots__, (ambient_dim, rows, pivots, by_pivot, delta)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):  # pragma: no cover - safety net
        raise AttributeError("Subspace is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def span(cls, vectors: Iterable[Sequence], ambient_dim: int, rank: int | None = None
             ) -> "Subspace":
        """Smallest subspace containing the int, Fraction or {col: int} rows.  With a
        `rank`, the rows must lie in a subspace of that dimension, which is returned
        as soon as they reach it; `vectors` is read lazily (`echelon_rows`)."""
        return cls(ambient_dim, *echelon_rows(vectors, ambient_dim, rank))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), ())

    @classmethod
    @cache  # subspaces are immutable, so one full space per dimension serves all
    def full(cls, ambient_dim: int) -> "Subspace":
        n = ambient_dim
        return cls(n, [{i: 1} for i in range(n)], range(n))

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def is_zero(self) -> bool:
        return not self.pivots

    def is_full(self) -> bool:
        return len(self.pivots) == self.ambient_dim

    @property
    def basis(self) -> Matrix:
        """The RREF basis, a matrix of Fractions made from `rows()` on each request."""
        return Matrix.from_rows(self.rows(), self.ambient_dim)

    def rows(self) -> list[tuple[Fraction, ...]]:
        """The RREF basis rows: each integer row divided by its pivot entry."""
        n = self.ambient_dim
        return [divided(dense(r, n), r[p]) for r, p in zip(self.int_rows, self.pivots)]

    def _reduce(self, u: dict[int, int]) -> dict[int, int]:
        """δ·(u mod this subspace) for a {col: int} row u, as such a row:
        δ·u − Σ_r u[p_r]·B_r over the pivots p_r in u's support, one pass, as
        each row is zero at the other pivots."""
        d, by_pivot = self._delta, self._by_pivot
        w = {k: d * x for k, x in u.items()}
        for p in u.keys() & by_pivot.keys():
            subtract(w, u[p] * (d // by_pivot[p][p]), by_pivot[p])
        return w

    def reduce(self, v: Sequence) -> tuple[Fraction, ...]:
        """Remainder of v after eliminating this subspace's pivot coordinates.

        The result has zeros at all pivot columns; it is the canonical
        representative of v modulo this subspace.
        """
        u, e = numerators(vector(v))  # v = u / e
        w = self._reduce(sparse(u, self.ambient_dim))
        return divided(dense(w, self.ambient_dim), self._delta * e)

    def contains(self, v: Sequence) -> bool:
        return not any(self.reduce(v))

    # -- lattice operations --------------------------------------------------

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.span(self.int_rows + other.int_rows, self.ambient_dim)

    def annihilator(self) -> "Subspace":
        """U^⊥ = {x : u·x = 0 for every u in U}, the kernel of the basis matrix."""
        n = self.ambient_dim
        return Subspace.span(kernel_rows(self.int_rows, self.pivots, n), n)

    def intersect(self, other: "Subspace") -> "Subspace":
        """U ∩ V = (U^⊥ + V^⊥)^⊥ under the standard dot product.

        The dot product is nondegenerate, so (U^⊥)^⊥ = U and the outer
        annihilator is U ∩ V.
        """
        self._check_ambient(other)
        return (self.annihilator() + other.annihilator()).annihilator()

    def leq(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return not any(map(other._reduce, self.int_rows))

    def free_columns(self) -> list[int]:
        """The non-pivot columns, in increasing order."""
        return sorted(set(range(self.ambient_dim)).difference(self.pivots))

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.int_rows == other.int_rows

    def __hash__(self) -> int:
        # Equal rows may list their keys in different orders.
        return hash((self.ambient_dim, *(frozenset(r.items()) for r in self.int_rows)))

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
    """Deterministic ordering key for subspaces of one ambient space: the dimension,
    then each RREF entry x/q, row by row, as its reduced `Fraction`'s terms
    (x/g, q/g) for g = gcd(x, q), as the pivot entry q is positive."""
    n = s.ambient_dim
    return s.dim, tuple((x // (g := gcd(x, r[p])), r[p] // g)
                        for r, p in zip(s.int_rows, s.pivots) for x in dense(r, n))

"""Exact dense linear algebra over the rationals.

Scalars are ``fractions.Fraction`` values (arbitrary-precision, always stored
reduced with a positive denominator), so every result in this package is exact.
Matrices are small, dense and immutable; the workhorse is :func:`rref_rows`,
behind :meth:`Matrix.rref` and ``Subspace.span``, which everything else
(kernels, subspace lattices, series computations) is built on.  It scales each
row to coprime integers (:func:`integer_row`), eliminates fraction-free in
`_echelon`, and makes Fractions only when dividing each row by its pivot.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce an int/str/Fraction to Fraction without re-normalizing Fractions."""
    return x if isinstance(x, Fraction) else Fraction(x)


def vector(entries: Iterable) -> tuple[Fraction, ...]:
    return tuple(frac(x) for x in entries)


def zero_vector(n: int) -> tuple[Fraction, ...]:
    return (_ZERO,) * n


def vadd(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(a + b for a, b in zip(u, v))


def vscale(c: Fraction, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(c * a for a in v)


def vdot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), _ZERO)


def is_zero_vector(v: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in v)


def integer_row(row: Sequence) -> list[int]:
    """Coprime integers on the line of an int or Fraction row (0s for a zero row)."""
    d = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (d // x.denominator) for x in row]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _echelon(rows: list[list[int]], cols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss–Jordan on nonzero primitive integer rows (Bareiss 1968).

    Entry f is cleared against pivot p by row <- (p/g)·row − (f/g)·prow with
    g = gcd(p, f), then the row is divided by its gcd.  Returns the echelon rows,
    each zero at every pivot column but its own, and their pivot columns.
    """
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
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


def rref_rows(
    rows: Iterable[Sequence], cols: int
) -> tuple[list[tuple[Fraction, ...]], tuple[int, ...]]:
    """Canonical RREF of the span of int or Fraction rows, and its pivot columns."""
    red, pivots = _echelon([r for r in map(integer_row, rows) if any(r)], cols)
    out = []
    for row, c in zip(red, pivots):
        out.append(tuple(Fraction(x, row[c]) if x else _ZERO for x in row))
    return out, tuple(pivots)


class Matrix:
    """Immutable dense matrix of Fractions, stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        ents = tuple(frac(x) for x in entries)
        if len(ents) != rows * cols:
            raise ValueError(
                f"matrix needs {rows * cols} entries, got {len(ents)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", ents)

    def __setattr__(self, name, value):  # pragma: no cover - safety net
        raise AttributeError("Matrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence], cols: int | None = None) -> "Matrix":
        rows = [tuple(r) for r in rows]
        if cols is None:
            if not rows:
                raise ValueError("cols is required for a matrix with no rows")
            cols = len(rows[0])
        for r in rows:
            if len(r) != cols:
                raise ValueError("rows of unequal length")
        return cls(len(rows), cols, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [_ONE if i == j else _ZERO for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [_ZERO] * (rows * cols))

    @classmethod
    def stack(cls, matrices: Sequence["Matrix"], cols: int) -> "Matrix":
        """Vertical concatenation; `cols` disambiguates the empty stack."""
        ents: list[Fraction] = []
        rows = 0
        for m in matrices:
            if m.cols != cols:
                raise ValueError("column count mismatch in stack")
            ents.extend(m.entries)
            rows += m.rows
        return cls(rows, cols, ents)

    # -- element access ----------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list[tuple[Fraction, ...]]:
        return [self.row(i) for i in range(self.rows)]

    # -- algebra -----------------------------------------------------------

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n, k, m = self.rows, self.cols, other.cols
        out = [_ZERO] * (n * m)
        for i in range(n):
            arow = self.entries[i * k : (i + 1) * k]
            for j in range(m):
                out[i * m + j] = sum(
                    (arow[t] * other.entries[t * m + j] for t in range(k)), _ZERO
                )
        return Matrix(n, m, out)

    def apply(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(vdot(self.row(i), v) for i in range(self.rows))

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((self[i, i] for i in range(self.rows)), _ZERO)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form with zero rows dropped.

        Returns the canonical RREF (leading ones, pivot columns cleared) and
        the strictly increasing pivot-column indices.  The row space is
        preserved, which makes the result a canonical form for subspaces.
        """
        red, pivots = rref_rows(self.row_list(), self.cols)
        return Matrix.from_rows(red, self.cols), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> "Matrix":
        """Basis of the right null space {v : self @ v = 0}, rows in RREF.

        Row count is cols - rank by construction.
        """
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        rows = []
        for f in free:
            v = [_ZERO] * self.cols
            v[f] = _ONE
            for r_idx, p in enumerate(pivots):
                v[p] = -red[r_idx, f]
            rows.append(v)
        basis = Matrix.from_rows(rows, self.cols)
        return basis.rref()[0]

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(
            "[" + ", ".join(str(x) for x in self.row(i)) + "]" for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"

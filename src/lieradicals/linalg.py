"""Exact linear algebra over the rationals: one elimination kernel and the
`Fraction` matrix type of the package's results.

The one elimination step is :func:`insert_row`: it adds a sparse integer row
(a ``{col: int}`` dict without zeros) to a table of such primitive echelon
rows keyed by pivot column, fraction-free (Bareiss 1968) and touching nonzero
entries only; it alone divides the rows it stores by their gcd.
:func:`echelon_rows`, behind ``Subspace.span`` and :meth:`Matrix.rref`,
converts each int, Fraction or dict row once (:func:`sparse`) and returns
the table's ``{col: int}`` rows in pivot order; given a rank, it stops pulling
rows at it, so a series step stops at the term that bounds it.
``LieAlgebra.ideal_closure`` grows one table as it brackets.  Everything else
is built on these rows; dense rows are made only for a :class:`Matrix` or
output (:func:`dense`), and ``Fraction`` values when a row is divided by its
pivot entry (:func:`divided`).
:class:`Matrix` is small, dense and immutable; it is what `ad`,
`killing_matrix`, `Subspace.quotient_projection` and `Subspace.basis` return,
and it keeps only `rref`, `kernel`, `@`, `transpose`, `identity` and
`is_zero` beyond element access.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

_ZERO = Fraction(0)


def frac(x) -> Fraction:
    """Coerce an int/str/Fraction to Fraction without re-normalizing Fractions."""
    return x if isinstance(x, Fraction) else Fraction(x)


def vector(entries: Iterable) -> tuple[Fraction, ...]:
    return tuple(frac(x) for x in entries)


def numerators(row: Sequence) -> tuple[list[int], int]:
    """(u, e) with row = u / e, for e the lcm of the int or Fraction row's denominators."""
    if all(isinstance(x, int) for x in row):
        return list(row), 1
    e = lcm(*(x.denominator for x in row))
    return [x.numerator * (e // x.denominator) for x in row], e


def divided(row: Sequence[int], d: int) -> tuple[Fraction, ...]:
    """The integer row divided by d, as Fractions."""
    return tuple(Fraction(x, d) if x else _ZERO for x in row)


def sparse(row, cols: int) -> dict[int, int]:
    """{col: int} numerators of an int or Fraction row of length cols; a dict is kept."""
    if isinstance(row, dict):
        return row
    if len(row) != cols:
        raise ValueError("vector length disagrees with ambient dimension")
    return {k: x for k, x in enumerate(numerators(row)[0]) if x}


def dense(row: dict[int, int], cols: int) -> list[int]:
    """The {col: int} row as a list of length cols."""
    out = [0] * cols
    for k, x in row.items():
        out[k] = x
    return out


def combination(terms: Iterable[tuple]) -> dict:
    """Σ c·row over the (c, row) terms, rows {col: value}, as {col: value} without zeros."""
    out: dict = {}
    for c, row in terms:
        for k, x in row.items():
            out[k] = out.get(k, 0) + c * x
    return {k: x for k, x in out.items() if x}


def subtract(out: dict[int, int], b: int, v: dict[int, int]) -> dict[int, int]:
    """out − b·v for {col: int} rows without zeros, b ≠ 0, made in place in out."""
    for k, y in v.items():
        if x := out.get(k, 0) - b * y:
            out[k] = x
        else:
            del out[k]
    return out


def _combine(a: int, u: dict[int, int], b: int, v: dict[int, int]) -> dict[int, int]:
    """a·u − b·v for {col: int} rows, zeros left out: `insert_row`'s two-term combination."""
    return subtract({k: a * x for k, x in u.items()} if a != 1 else dict(u), b, v)


def insert_row(rows: dict[int, dict[int, int]], w: dict[int, int]) -> dict[int, int] | None:
    """Add the row w to `rows`, a table {pivot: primitive row, positive there
    and zero at every other pivot}; return the row stored, or None.  Rows are
    {col: int} dicts without zeros; w is not changed.

    w is reduced at the pivots in its support, entry f against pivot p by
    w <- (p/g)·w − (f/g)·row with g = gcd(p, f); one pass suffices, as a stored
    row is zero at the other pivots.  A nonzero remainder is divided by its
    gcd, made positive at its first column c, cleared the same way from the
    rows with an entry at c (each then divided by its gcd; it is zero at their
    pivots, so they stay positive there) and stored at c.
    """
    for c in w.keys() & rows.keys():
        p, f = rows[c][c], w[c]
        g = gcd(p, f)
        w = _combine(p // g, w, f // g, rows[c])
    if not w:
        return None
    c = min(w)
    h = gcd(*w.values()) if w[c] > 0 else -gcd(*w.values())
    if h != 1:
        w = {k: x // h for k, x in w.items()}
    p = w[c]
    for k, row in rows.items():
        if f := row.get(c):
            g = gcd(p, f)
            row = _combine(p // g, row, f // g, w)
            h = gcd(*row.values())
            rows[k] = {j: x // h for j, x in row.items()} if h > 1 else row
    rows[c] = w
    return w


def echelon_rows(rows: Iterable, cols: int,
                 rank: int | None = None) -> tuple[list[dict[int, int]], tuple[int, ...]]:
    """Canonical {col: int} echelon rows, in pivot order, and the pivots of the
    span of int, Fraction or {col: int} rows of length cols.

    Each row is primitive, positive at its pivot column and zero at the other
    pivot columns, so divided by its pivot entry it is the RREF row: the rows
    and pivots depend on the row space alone, not on the order of insertion.
    Given a `rank`, no row is pulled from `rows` after the insertion that gives
    the table that rank: for rows known to lie in a space of dimension `rank`,
    the table then spans that space, and its rows are the space's own.
    """
    table: dict[int, dict[int, int]] = {}
    for r in rows:
        if insert_row(table, sparse(r, cols)) and len(table) == rank:
            break
    pivots = tuple(sorted(table))
    return [table[c] for c in pivots], pivots


def kernel_rows(rows: Sequence[dict[int, int]], pivots: Sequence[int], cols: int) -> list:
    """{col: int} vectors spanning {x : row·x = 0 for every row}, for {col: int}
    echelon rows.

    One vector per non-pivot column f: δ at f and −(δ/q)·row[f] at each
    row's pivot, where q is the row's pivot entry and δ the lcm of them all.
    """
    d = lcm(*(row[p] for row, p in zip(rows, pivots)))
    return [{f: d} | {p: -(d // row[p]) * row[f] for row, p in zip(rows, pivots) if f in row}
            for f in sorted(set(range(cols)).difference(pivots))]


class Matrix:
    """Immutable dense matrix of Fractions, stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        ents = tuple(frac(x) for x in entries)
        if len(ents) != rows * cols:
            raise ValueError(f"matrix needs {rows * cols} entries, got {len(ents)}")
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
        return cls(n, n, [int(i == j) for i in range(n) for j in range(n)])

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
        return Matrix(self.cols, self.rows, [x for col in zip(*self.row_list()) for x in col])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        (n, k), (k2, m) = (self.rows, self.cols), (other.rows, other.cols)
        if k != k2:
            raise ValueError(f"cannot multiply {n}x{k} by {k2}x{m}")
        cols = other.transpose().row_list()
        return Matrix(n, m, [sum((a * b for a, b in zip(r, c)), _ZERO)
                             for r in self.row_list() for c in cols])

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form with zero rows dropped.

        Returns the canonical RREF (leading ones, pivot columns cleared) and
        the strictly increasing pivot-column indices.  The row space is
        preserved, which makes the result a canonical form for subspaces.
        """
        red, pivots = echelon_rows(self.row_list(), self.cols)
        rows = [divided(dense(r, self.cols), r[c]) for r, c in zip(red, pivots)]
        return Matrix.from_rows(rows, self.cols), pivots

    def kernel(self) -> "Matrix":
        """Basis of the right null space {v : self @ v = 0}, rows in RREF.

        Row count is cols - rank by construction.
        """
        rows = kernel_rows(*echelon_rows(self.row_list(), self.cols), self.cols)
        return Matrix.from_rows([dense(v, self.cols) for v in rows], self.cols).rref()[0]

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

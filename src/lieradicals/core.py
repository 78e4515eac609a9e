"""Lie algebras given by structure constants over the rationals.

An algebra is the data [e_i, e_j] = sum_k c^k_ij e_k on a chosen basis.  This
module owns validation (antisymmetry and the Jacobi identity), brackets of
vectors and of subspaces, ideal tests and ideal closure, the adjoint
representation, the Killing form and its orthogonal complements, restriction
to a subalgebra, and quotients by ideals.

`StructureConstants` holds the one copy of the constants: a sparse table of
integers, ``adjoint[i][j] = {k: a^k_ij}`` with c^k_ij = a^k_ij / D for the
common denominator D of all the constants.  Its constructor is the one place
a table is normalised; it takes integer numerators over a common scale, as the
parser, `restrict` and `quotient` make them (other rows are brought to that
form first), and `from_brackets` adds the reverse orientations in the same
pass.  `Fraction`s are made from the table only on request (`bracket_basis`,
`pairs`).  Brackets of vectors, the Jacobi sums (term by term), the Killing
Gram matrix K_ij = sum_{k,l} c^l_ik c^k_jl (de Graaf, *Lie Algebras: Theory
and Algorithms*, ch. 1) and the upper extension in `series` walk only its
nonzero entries, so an abelian algebra costs next to nothing at any size.  Scaling by
D keeps antisymmetry, Jacobi, spans and kernels, so these and `Subspace` rows
run on integers alone; `bracket` divides by D once, the Killing form by D².
`validate` packs each row of the table into one integer, a slot of bits per
coordinate wide enough for every entry of a Jacobi sum (Kronecker
substitution), so a term of a sum is one integer multiply-add; its report is
cached on the algebra.

Every structure step (brackets of subspaces, the ideal test and closure,
`restrict`, `quotient` and the steps of `series`) takes a Lie algebra: on a
table that fails `validate` it raises ValueError with the report's message.
`validate`, `bracket`, `ad` and the Killing form read any table.  A set G of
basis vectors that generates L as a Lie algebra (`LieAlgebra._generators`,
built when a step first needs it) stands in for the whole basis wherever a
step brackets with all of L: the ideal test, the ideal closure, the lower
central step and the upper extension in `series`.

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
from math import gcd
from typing import Iterable, Mapping, Sequence

from .linalg import Matrix, combination, dense, divided, insert_row, numerators, sparse, vector
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

    `denominator` is D, the lcm of the reduced denominators of the constants,
    and ``adjoint[i][j] = {k: a^k_ij}`` holds only the nonzero integers
    D·c^k_ij; both are read-only, and both orientations of a pair are kept.
    `table[(i, j)]` is s·[e_i, e_j], s = `scale`, as a dense or {k: int} row
    (Fraction or str values are brought to ints over their lcm denominator
    first), and D = s / gcd(s, every numerator).  :meth:`from_brackets` derives
    the other orientation; the constructor alone wraps a raw table to validate.
    """

    __slots__ = ("dim", "denominator", "adjoint")

    def __init__(self, dim: int, table: Mapping[tuple[int, int], Sequence | dict],
                 scale: int = 1, complete: bool = False):
        rows = []
        for (i, j), v in table.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"basis index out of range in bracket ({i}, {j})")
            if not isinstance(v, dict):  # a dense coefficient sequence
                if len(v := tuple(v)) != dim:
                    raise ValueError("bracket coefficient vector has wrong length")
                v = dict(enumerate(v))
            elif v and (min(v) < 0 or max(v) >= dim):
                raise ValueError(f"basis index out of range in bracket ({i}, {j})")
            rows.append((i, j, v))
        try:  # gcd takes ints alone: a Fraction or str value raises TypeError
            g = gcd(scale, *(x for _, _, v in rows for x in v.values()))
        except TypeError:  # all values as ints over the lcm e of their denominators
            nums, e = numerators(vector(x for _, _, v in rows for x in v.values()))
            nums = iter(nums)
            table = {(i, j): {k: next(nums) for k in v} for i, j, v in rows}
            return self.__init__(dim, table, scale * e, complete)
        adjoint: list[dict[int, dict[int, int]]] = [{} for _ in range(dim)]
        for i, j, v in rows:  # (i, j) may be held already, as the reverse of a given (j, i)
            if (col := {k: x // g for k, x in v.items() if x}) and (
                    got := adjoint[i].setdefault(j, col)) is not col and got != col:
                raise ValueError(f"conflicting definitions for bracket ({min(i, j)}, {max(i, j)})")
            if col and complete and i != j:
                adjoint[j][i] = {k: -x for k, x in col.items()}
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "denominator", scale // g)
        object.__setattr__(self, "adjoint", tuple(adjoint))

    def __setattr__(self, name, value):  # pragma: no cover - safety net
        raise AttributeError("StructureConstants is immutable")

    @classmethod
    def from_brackets(cls, dim: int, brackets: Mapping[tuple[int, int], Sequence],
                      scale: int = 1) -> "StructureConstants":
        """Build from one orientation per pair, [e_j, e_i] = −[e_i, e_j] derived; a
        pair given in both orientations must agree.  Nonzero diagonal entries
        are stored as given so that validation can report them."""
        return cls(dim, brackets, scale, complete=True)

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


_PACKED_BITS = 1 << 16  # the bits a block of coordinates packed by `validate` may fill


def _packed_block(adj, w: int, lo: int, hi: int, bad_pairs: list) -> list[dict[int, int]]:
    """packed[a][b] = Σ_k a^k_ab << w·(k − lo) over lo <= k < hi for the stored
    D·[e_a, e_b], zeros left out.  Appends each pair (a, b), a <= b, whose rows
    fail antisymmetry on these coordinates to bad_pairs: a row meets its
    reverse when the later of the two is packed, or is nonzero without one."""
    packed: list[dict[int, int]] = []
    for a, row in enumerate(adj):
        prow = {}
        for b, col in row.items():
            p = 0
            for k, v in col.items():
                if lo <= k < hi:
                    p += v << w * (k - lo)
            if p:
                prow[b] = p
            if b < a:
                if packed[b].get(a, 0) != -p:
                    bad_pairs.append((b, a))
            elif p and (b == a or a not in adj[b]):
                bad_pairs.append((a, b))
        packed.append(prow)
    return packed


def _first_failing_triple(adj, packed, by_output, last: int) -> tuple[int, int, int] | None:
    """The least (i, j, k), i < j < k, i <= last, whose packed D²·J(i, j, k) is
    nonzero, from the packed rows of an antisymmetric table.  [[e_i, e_x], e_c]
    belongs to J(i, x, c), or with sign − to J(i, c, x); [[e_a, e_b], e_i] =
    −Σ_x a^x_ab·[e_i, e_x] belongs to J(i, a, b)."""
    n = len(adj)
    for i, row in enumerate(adj[:last + 1]):
        prow, sums = packed[i], {}  # j·n + k -> packed D²·J(i, j, k)
        for x, col in row.items():
            if x > i:
                for m, cm in col.items():
                    for c, out in packed[m].items():
                        if c > x:
                            key = x * n + c
                            sums[key] = sums.get(key, 0) + cm * out
                        elif i < c < x:
                            key = c * n + x
                            sums[key] = sums.get(key, 0) - cm * out
            if p := prow.get(x):
                for a, b, cm in by_output.get(x, ()):
                    if a > i:
                        key = a * n + b
                        sums[key] = sums.get(key, 0) - cm * p
        if any(sums.values()):
            return (i, *divmod(min(key for key, s in sums.items() if s), n))
    return None


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
        if "#" in (line := " ".join(labels)) or line.split() != list(labels):  # a basis line
            raise ValueError("basis labels must be nonempty, without whitespace or '#'")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "constants", constants)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):  # the cached brackets and form would go stale
        raise AttributeError("LieAlgebra is immutable")

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
        report data, not exceptions.  The report is computed once and cached
        on the algebra; `quotient` and `restrict` hand it on to the algebra
        they build.  Checking Jacobi on basis triples
        suffices by trilinearity.  Each stored row D·[e_a, e_b] is packed
        into one integer with a^k_ab in a slot of w bits at k, w chosen so
        that every entry of D²·J(i, j, k) fits a slot; a packed sum is then 0
        iff all its entries are.  Antisymmetry compares packed rows.  Each
        D²·J(i, j, k), i < j < k, is one integer built from its nonzero terms
        a^m_ab·[e_m, e_c] alone, grouped by the smallest index i.  Where n
        slots would pass `_PACKED_BITS`, the coordinates are split into
        blocks checked in turn (`notes/decisions.md`, "Jacobi by terms").
        """
        return self._validation

    @cached_property
    def _validation(self) -> ValidationReport:  # `validate`'s report, computed once
        adj, n = self.constants.adjoint, self.dim
        top, by_output = 0, {}  # by_output: m -> [(a, b, a^m_ab) for a < b]
        for a, row in enumerate(adj):
            for b, col in row.items():
                for m, v in col.items():
                    if v > top or -v > top:
                        top = abs(v)
                    if a < b:
                        by_output.setdefault(m, []).append((a, b, v))
        if not top:
            return ValidationReport(ok=True)
        w = (3 * n * top * top).bit_length()  # |an entry of D²·J(i, j, k)| <= 3n·top² < 2^w
        size = max(1, _PACKED_BITS // w)  # coordinates per block
        bad_pairs: list[tuple[int, int]] = []
        triples: list[tuple[int, int, int]] = []  # the first failing triple of each block
        for lo in range(0, n, size):
            packed = _packed_block(adj, w, lo, lo + size, bad_pairs)
            if not bad_pairs:  # Jacobi by terms reads antisymmetry on every block
                last = min(triples)[0] if triples else n
                if triple := _first_failing_triple(adj, packed, by_output, last):
                    triples.append(triple)
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
        if triples:
            i, j, k = min(triples)
            message = f"Jacobi identity fails on triple (e{i + 1}, e{j + 1}, e{k + 1})"
            return ValidationReport(False, "jacobi", (i + 1, j + 1, k + 1), message)
        return ValidationReport(ok=True)

    def _check_valid(self) -> None:
        """The precondition of every structure step: ValueError with `validate`'s
        message unless the table passes it (`notes/decisions.md`, "The validity gate")."""
        if not (report := self._validation).ok:
            raise ValueError(report.message)

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
        d, x, y = self.constants.denominator, vector(x), vector(y)
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length disagrees with the algebra dimension")
        xs = {i: a / d for i, a in enumerate(x) if a}
        ys = {j: b for j, b in enumerate(y) if b}
        return vector(dense(self._bracket(xs, ys), self.dim))

    def _bracket(self, x: dict, y: dict) -> dict:
        """D·[x, y] as {k: value} without zeros, for x and y given as {i: x_i}
        without zeros, in the type of their values."""
        out, adj = {}, self.constants.adjoint
        for i, xi in x.items():
            row = adj[i]
            for j, yj in y.items():
                if col := row.get(j):
                    c = xi * yj
                    for k, v in col.items():
                        out[k] = out.get(k, 0) + c * v
        return {k: v for k, v in out.items() if v}

    def bracket_spaces(self, a: Subspace, b: Subspace) -> Subspace:
        """Span of the pairwise brackets of the two bases: the ideal product [a, b]."""
        return Subspace.span(self._brackets(a, b), self.dim, self.dim)

    def _brackets(self, a: Subspace, b: Subspace):
        """The nonzero D·[x, y] for basis rows x of a and y of b, formed lazily.  A row
        y of b meets only the rows of a with an entry at some i with [e_j, e_i] stored,
        y_j ≠ 0; the other pairs bracket to zero.  `series` reads it up to a bound.  In
        a self-product [t, t], row q meets only the linked rows at p > q, as
        [y, x] = −[x, y] and [x, x] = 0 (`notes/decisions.md`, "Each self-product once")."""
        self._check_valid()
        self._check_ambient(a, b)
        xs, adj, holding = a.int_rows, self.constants.adjoint, {}  # i -> the p with xs[p][i] ≠ 0
        for p, x in enumerate(xs):
            for i in x:
                holding.setdefault(i, []).append(p)
        return (w for q, y in enumerate(b.int_rows)  # with the rows of a linked to y, each once
                for p in {p: 0 for j in y for i in adj[j] for p in holding.get(i, ())}
                if (p > q or a is not b) and (w := self._bracket(xs[p], y)))

    def is_ideal(self, s: Subspace) -> bool:
        """True iff [L, s] is contained in s: iff every nonzero D·[e_g, r], g in G
        (`_generators`), for a basis row r of s reduces to zero modulo s."""
        self._check_valid()
        self._check_ambient(s)
        return not any(s._reduce(b) for r in s.int_rows for b in self._basis_brackets(r))

    @cached_property
    def _generators(self) -> tuple[int, ...]:
        """G, sorted: basis indices whose span, closed under ad e_g for g in G, is
        L, so G generates L (`notes/decisions.md`, "One Lie generating set").

        One worklist pass: the candidates that occur in no stored bracket come
        first, then the rest in index order; e_c joins G when it is not in the
        span so far, and is bracketed with the rows so far; each new row is
        bracketed with every g in G.  The row of e_c needs no brackets, since
        [e_g, e_c] = −[e_c, e_g] and e_g is in the span.  The pass stops at rank n."""
        n, adj = self.dim, self.constants.adjoint
        seen = {k for row in adj for col in row.values() for k in col}  # in some bracket
        rows, added, gens = {}, [], []  # added: every row stored, spanning the table
        for c in [c for c in range(n) if c not in seen] + sorted(seen):
            if len(rows) == n:
                break
            if (u := insert_row(rows, {c: 1})) is None:  # e_c is in the closure so far
                continue
            gens.append(c)
            todo = [(c, r) for r in added]  # (g, row) pairs, bracketed only when reached
            added.append(u)
            for g, r in todo:  # grows while it is walked
                if len(rows) == n:
                    break
                if (u := insert_row(rows, self._bracket({g: 1}, r))) is not None:
                    added.append(u)
                    todo += [(h, u) for h in gens]
        return tuple(sorted(gens))

    @cached_property
    def _by_right_g(self) -> tuple[dict[int, dict[int, int]], ...]:
        """The stored D·[e_g, e_j], g in G, by their right factor: _by_right_g[j] = {g: ...}."""
        by_right: list[dict[int, dict[int, int]]] = [{} for _ in range(self.dim)]
        for g in self._generators:
            for j, col in self.constants.adjoint[g].items():
                by_right[j][g] = col
        return tuple(by_right)

    def _basis_brackets(self, u: dict) -> list[dict]:
        """The nonzero D·[e_g, u] = Σ_j u_j·D·[e_g, e_j] for g in G as {k: value},
        in order of g, for u given as {j: u_j} without zeros: one pass over u's support."""
        out: dict[int, dict] = {}
        by_right = self._by_right_g
        for j, x in u.items():
            for i, col in by_right[j].items():
                b = out.setdefault(i, {})
                for k, v in col.items():
                    b[k] = b.get(k, 0) + x * v
        return [b for i in sorted(out) if (b := {k: v for k, v in out[i].items() if v})]

    def ideal_closure(self, vectors: Iterable[Sequence]) -> Subspace:
        """Smallest ideal containing the vectors, grown one echelon row at a time.

        Each row that `insert_row` adds is bracketed once with every e_g, g in G,
        and the nonzero brackets are inserted in turn, so the final span is closed
        under [G, ·], hence an ideal, and lies in the ideal the vectors generate
        (`notes/decisions.md`).  Once the table has rank n its span is L, an
        ideal, and the loop stops.
        """
        self._check_valid()
        n = self.dim
        rows, todo = {}, [sparse(v, n) for v in vectors]
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
        matrix, K_ij = sum_{k,l} c^l_ik c^k_jl summed over the nonzero products:
        a reverse index (l, k) -> {j: a^k_jl} pairs each c^l_ik with them.  K is symmetric
        (tr(AB) = tr(BA)), so row i is formed while the index holds j >= i only."""
        adj, rev = self.constants.adjoint, {}
        gram: list[dict[int, int]] = [{} for _ in adj]
        for i in reversed(range(len(adj))):
            for l, col in adj[i].items():
                for k, a in col.items():
                    rev.setdefault((l, k), {})[i] = a
            gram[i] = combination((c, rev[l, k]) for k, col in adj[i].items()
                                  for l, c in col.items() if (l, k) in rev)
            for j in gram[i].keys() - {i}:
                gram[j][i] = gram[i][j]
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
        constraints = [combination((yj, self._killing[j]) for j, yj in y.items())
                       for y in s.int_rows]
        return Subspace.span(constraints, self.dim).annihilator()

    # -- subalgebras and quotients -----------------------------------------------

    def restrict(self, s: Subspace) -> "LieAlgebra":
        """The Lie algebra structure induced on a bracket-closed subspace.

        The new basis is s's RREF basis b_r.  For B_r = δ·b_r, D·[B_p, B_q] is
        D·δ²·[b_p, b_q]; its entries at the pivots over D·δ² are the constants.
        Raises NotClosedError if [s, s] is not contained in s.  Only p < q is
        formed: [y, x] = −[x, y] and [x, x] = 0.
        """
        self._check_valid()
        self._check_ambient(s)
        d, index = s._delta, {c: a for a, c in enumerate(s.pivots)}
        rows = [{k: (d // r[p]) * x for k, x in r.items()} for r, p in zip(s.int_rows, s.pivots)]
        scale, table = self.constants.denominator * d * d, {}
        for p, x in enumerate(rows):
            for q in range(p + 1, len(rows)):
                w = self._bracket(x, rows[q])
                if s._reduce(w):
                    raise NotClosedError("subspace is not closed under the bracket")
                table[(p, q)] = {index[c]: v for c, v in w.items() if c in index}
        return self._child(LieAlgebra(StructureConstants.from_brackets(s.dim, table, scale)))

    def embed(self, s: Subspace, coords: Sequence) -> tuple[Fraction, ...]:
        """Map restricted coordinates back to ambient coordinates."""
        self._check_ambient(s)
        coords = vector(coords)
        if len(coords) != s.dim:
            raise ValueError("coordinate length disagrees with the subspace dimension")
        rows = s.rows()
        return tuple(sum((c * row[k] for c, row in zip(coords, rows)), Fraction(0))
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
        free = ideal.free_columns()
        index = {c: a for a, c in enumerate(free)}
        scale, table = ideal._delta * self.constants.denominator, {}
        for i, row in enumerate(self.constants.adjoint):
            for j, col in row.items():
                if i < j and i in index and j in index:  # the remainder holds only free keys
                    table[(index[i], index[j])] = {index[c]: x
                                                   for c, x in ideal._reduce(col).items()}
        constants = StructureConstants.from_brackets(len(free), table, scale)
        return self._child(LieAlgebra(constants, tuple(self.labels[c] for c in free)))

    def _child(self, child: "LieAlgebra") -> "LieAlgebra":
        """child, a quotient or subalgebra of this Lie algebra, given its passing
        `validate` report: a quotient or subalgebra of a Lie algebra is one."""
        child.__dict__["_validation"] = self._validation
        return child

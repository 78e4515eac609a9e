"""Characteristic series, radicals, and classification predicates.

Three ideal chains organize a finite-dimensional Lie algebra:

* the derived series      L(0) = L,  L(k+1) = [L(k), L(k)]
* the lower central series L^0 = L,  L^(k+1) = [L, L^k]
* the upper central series U_0 = 0,  U_(k+1) = U(U_k), where
  U(I) = {x : [x, L] contained in I} is the upper extension of I.

Each chain is monotone in dimension, so it stabilizes after at most n steps.
The descending ones share L(1) = L^1 = D(L) = [L, L], which `profile` forms once.
By bilinearity each term holds the next, and an ideal s holds [L, s], so a step, or a
product of s after `is_ideal`, reads brackets (`LieAlgebra._brackets`) only up to that
dimension; only this module stops a product or an upper extension early
(`notes/decisions.md`, "Bounded products", "The upper central series stops too").
D(L) is the span of the stored brackets.  Each term is an ideal, so a lower central
step [L, t] and an upper extension bracket with the generating set G of L
(`LieAlgebra._generators`) instead of every basis vector (`notes/decisions.md`,
"One Lie generating set").
The stabilized values are the headline invariants:

* perfect radical  P(L): the largest ideal with [I, I] = I; equals the last
  term of the derived series.  L is solvable iff P(L) = 0, and L / P(L) is
  always solvable.
* near perfect radical NP(L): the largest ideal with [L, I] = I; equals the
  last term of the lower central series.  L is nilpotent iff NP(L) = 0, and
  L / NP(L) is always nilpotent.  P(L) is contained in NP(L).
* smallest upper bounded ideal: the last (largest) term of the upper central
  series; it is contained in every ideal I with U(I) = I.
* radical R(L): the largest solvable ideal, computed exactly as a
  Killing-orthogonal complement: `radical` takes D(L)^⊥, and `profile` takes
  P(L)^⊥, which is the same ideal and has no constraint row on a solvable input.
* center Z(L) = U(0).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .core import LieAlgebra, NotAnIdealError
from .linalg import combination
from .subspace import Subspace


class SeriesKind(Enum):
    DERIVED = "derived"
    LOWER_CENTRAL = "lower_central"
    UPPER_CENTRAL = "upper_central"


@dataclass(frozen=True)
class SeriesReport:
    """A stabilized ideal chain.

    `terms` stores the chain through its first repeated term, so
    terms[stabilization_index] == terms[stabilization_index + 1] always holds
    and the stabilized value is terms[-1].  `chain` gives the strictly
    monotone prefix (indices 0..m), which is what reports display.
    """

    kind: SeriesKind
    terms: tuple[Subspace, ...]
    stabilization_index: int

    @property
    def stable_term(self) -> Subspace:
        return self.terms[self.stabilization_index]

    @property
    def chain(self) -> tuple[Subspace, ...]:
        return self.terms[: self.stabilization_index + 1]


def iterate_series(
    kind: SeriesKind, first: Subspace, step: Callable[[Subspace], Subspace]
) -> SeriesReport:
    """Iterate `step` from `first` until the first repeated term."""
    terms = [first, step(first)]
    while terms[-1] != terms[-2]:
        terms.append(step(terms[-1]))
    return SeriesReport(kind, tuple(terms), len(terms) - 2)


def derived_subalgebra(L: LieAlgebra) -> Subspace:
    """D(L) = [L, L], term 1 of both descending series: the span of the stored
    brackets [e_i, e_j], i < j, with no product formed; antisymmetry gives
    [e_j, e_i] and [e_i, e_i] = 0."""
    L._check_valid()
    return Subspace.span((col for i, row in enumerate(L.constants.adjoint)
                          for j, col in row.items() if i < j), L.dim, L.dim)


def _descending(kind: SeriesKind, L: LieAlgebra, d1: Subspace,
                fixed: Subspace | None = None) -> SeriesReport:
    """L, then d1 = D(L), then each [t, t] or [L, t] bounded by the term t, which holds
    it; [L, t] is spanned by [G, t], as t is an ideal (`LieAlgebra._generators`).
    A term equal to `fixed`, a known fixed point of the step, is its own next term."""
    derived = kind is SeriesKind.DERIVED
    return iterate_series(kind, L.full_space(), lambda t: d1 if t.is_full() else t if t == fixed
                          else Subspace.span(L._brackets(t, t) if derived else (
                              b for r in t.int_rows for b in L._basis_brackets(r)), L.dim, t.dim))


def derived_series(L: LieAlgebra) -> SeriesReport:
    return _descending(SeriesKind.DERIVED, L, derived_subalgebra(L))


def lower_central_series(L: LieAlgebra) -> SeriesReport:
    return _descending(SeriesKind.LOWER_CENTRAL, L, derived_subalgebra(L))


def _extension_rows(ideal: Subspace, images):
    """The rows of x -> [e_j, x] mod I, one e_j at a time: `images` gives each j's
    {a: D·[e_j, v_a]} over the unknowns v_a, and the row of coordinate c holds c's
    entry of `ideal._reduce` of each, δ·D·([e_j, v_a] mod I), zero at I's pivots;
    the common scalar δ·D leaves the kernel unchanged.  Rows that vanish are not built."""
    for cols in images:
        rows: dict[int, dict[int, int]] = {}
        for a, col in cols.items():
            for c, x in ideal._reduce(col).items():
                rows.setdefault(c, {})[a] = x
        yield from rows.values()


def upper_extension(L: LieAlgebra, ideal: Subspace) -> Subspace:
    """U(I) = {x : [e_g, x] lies in I for every g in G}: the kernel of
    `_extension_rows` over the generators G of L (`LieAlgebra._generators`), whose
    images are the stored rows `adjoint[g]`.  For an ideal I that is
    {x : [x, L] <= I}, since {y : [x, y] in I} is then a subalgebra.  I <= U(I)
    exactly when [G, I] <= I, the ideal test; otherwise this raises NotAnIdealError.
    U(I) is again an ideal.  The rows of an ideal have rank n − dim U(I) <= n − dim I,
    so the elimination stops there; then I <= U(I) iff I is the kernel so far and
    the rows left vanish on I's basis, and for I = 0, with no basis row, none is
    formed (`notes/decisions.md`, "The upper central series stops too")."""
    L._check_valid()
    L._check_ambient(ideal)
    if ideal.is_full():
        return ideal
    rows = _extension_rows(ideal, (L.constants.adjoint[g] for g in L._generators))
    u = Subspace.span(rows, L.dim, L.dim - ideal.dim).annihilator()
    if not ideal.leq(u) or not ideal.is_zero() and any(
            sum(x * b[i] for i, x in r.items() if i in b) for r in rows for b in ideal.int_rows):
        raise NotAnIdealError("upper extension requires an ideal")
    return u


def _center_in(L: LieAlgebra, rad: Subspace) -> Subspace:
    """Z(L), solved over the rows R_a of rad = R(L) as unknowns, with [e_g, x] = 0
    for g in G.  A central x has ad x = 0, so K(x, ·) = 0 and x lies in
    L^⊥ <= D(L)^⊥ = R.  With no unknown (R = 0) there is no row,
    and G is not built."""
    if rad.is_full():  # the unknowns are the standard basis: U(0) itself
        return upper_extension(L, L.zero_space())
    gens = L._generators if rad.dim else ()
    images = ({a: w for a, r in enumerate(rad.int_rows)  # D·[e_g, R_a], summed over R_a's i
               if (w := combination((x, row[i]) for i, x in r.items() if i in row))}
              for row in (L.constants.adjoint[g] for g in gens))
    coeffs = Subspace.span(_extension_rows(L.zero_space(), images), rad.dim, rad.dim).annihilator()
    return Subspace.span([combination((y, rad.int_rows[a]) for a, y in c.items())
                          for c in coeffs.int_rows], L.dim)


def upper_central_series(L: LieAlgebra) -> SeriesReport:
    return iterate_series(
        SeriesKind.UPPER_CENTRAL, L.zero_space(), lambda t: upper_extension(L, t)
    )


# -- radicals ----------------------------------------------------------------


def perfect_radical(L: LieAlgebra) -> Subspace:
    """Largest perfect ideal: the stabilized term of the derived series."""
    return derived_series(L).stable_term


def near_perfect_radical(L: LieAlgebra) -> Subspace:
    """Largest ideal I with [L, I] = I: stabilized lower central term."""
    return lower_central_series(L).stable_term


def smallest_upper_bounded_ideal(L: LieAlgebra) -> Subspace:
    """The minimum of {I ideal : U(I) = I}: stabilized upper central term."""
    return upper_central_series(L).stable_term


def center(L: LieAlgebra) -> Subspace:
    """Z(L) = U(0)."""
    return upper_extension(L, L.zero_space())


def radical(L: LieAlgebra) -> Subspace:
    """Largest solvable ideal, via the Killing-orthogonal complement of D(L)."""
    return L.killing_orthogonal(derived_subalgebra(L))


# -- algebra predicates --------------------------------------------------------

# Zero-dimensional conventions: solvable, nilpotent, perfect and abelian are
# all True for the 0 algebra; semisimple requires a nonzero algebra.


def is_solvable(L: LieAlgebra) -> bool:
    return derived_series(L).stable_term.is_zero()


def is_nilpotent(L: LieAlgebra) -> bool:
    return lower_central_series(L).stable_term.is_zero()


def is_perfect(L: LieAlgebra) -> bool:
    return derived_subalgebra(L).is_full()


def is_abelian(L: LieAlgebra) -> bool:
    return derived_subalgebra(L).is_zero()


def is_semisimple(L: LieAlgebra) -> bool:
    """radical(L) = 0 on a nonzero algebra, cross-checked against the form.

    Over a characteristic-zero field a trivial radical and a nondegenerate
    Killing form are equivalent; a disagreement between the two computations
    would mean a bug in this package, so it raises instead of picking a side.
    """
    if L.dim == 0:
        return False
    by_radical = radical(L).is_zero()
    by_form = L.killing_orthogonal(L.full_space()).is_zero()
    if by_radical != by_form:  # pragma: no cover - internal consistency gate
        raise RuntimeError(
            "internal error: radical and Killing nondegeneracy disagree"
        )
    return by_radical


# -- ideal predicates: each raises NotAnIdealError unless s is an ideal ----------


def is_perfect_ideal(L: LieAlgebra, s: Subspace) -> bool:
    """Ideal with [s, s] = s (a perfect Lie algebra in its own right)."""
    if not L.is_ideal(s):
        raise NotAnIdealError("subspace is not an ideal")
    return Subspace.span(L._brackets(s, s), L.dim, s.dim) == s  # an ideal s holds [s, s]


def is_near_perfect_ideal(L: LieAlgebra, s: Subspace) -> bool:
    """Ideal with [L, s] = s.  The D·[e_g, r], g in G, over s's basis rows r span
    [L, s] for an ideal s; they are formed once, for the ideal test (each reduces
    to zero mod s) and for the span, which s then bounds."""
    L._check_valid()
    L._check_ambient(s)
    brackets = [b for r in s.int_rows for b in L._basis_brackets(r)]
    if any(s._reduce(b) for b in brackets):
        raise NotAnIdealError("subspace is not an ideal")
    return Subspace.span(brackets, L.dim, s.dim) == s


def is_upper_bounded_ideal(L: LieAlgebra, s: Subspace) -> bool:
    """Ideal with U(s) = s; `upper_extension` checks that s is an ideal."""
    return upper_extension(L, s) == s


# -- the full profile -------------------------------------------------------------


@dataclass(frozen=True)
class ProfileReport:
    """Everything the library computes about one algebra, in one value."""

    derived: SeriesReport
    lower_central: SeriesReport
    upper_central: SeriesReport
    perfect_radical: Subspace
    near_perfect_radical: Subspace
    radical: Subspace
    center: Subspace
    smallest_upper_bounded: Subspace
    solvable: bool
    nilpotent: bool
    perfect: bool
    abelian: bool
    semisimple: bool

    # The reported fields, each group by name and in report order.
    def series(self) -> dict[str, SeriesReport]:
        return self._fields("derived", "lower_central", "upper_central")

    def subspaces(self) -> dict[str, Subspace]:
        return self._fields("perfect_radical", "near_perfect_radical", "radical", "center",
                            "smallest_upper_bounded")

    def flags(self) -> dict[str, bool]:
        return self._fields("solvable", "nilpotent", "perfect", "abelian", "semisimple")

    def _fields(self, *names: str) -> dict:
        return {k: getattr(self, k) for k in names}


def profile(L: LieAlgebra) -> ProfileReport:
    """Compute the three series, the radicals and all flags in one pass."""
    d1 = derived_subalgebra(L)  # D(L) = [L, L], formed once for both series
    der = _descending(SeriesKind.DERIVED, L, d1)
    p = der.stable_term  # P(L): [L, P] = P, so the lower central series stops on it
    low = _descending(SeriesKind.LOWER_CENTRAL, L, d1, p)
    # R(L) = P(L)^⊥, the D(L)^⊥ of radical(L), with no row if P = 0; it holds the center.
    rad = L.killing_orthogonal(p)
    # U(t) = L once D(L) <= t, since every [x, L] lies in D(L).
    upp = iterate_series(SeriesKind.UPPER_CENTRAL, L.zero_space(), lambda t: L.full_space()
                         if d1.leq(t) else upper_extension(L, t) if t.dim else _center_in(L, rad))
    # A nonzero algebra is semisimple iff its radical is 0; is_semisimple
    # also cross-checks that against the form's kernel, which tests exercise.
    return ProfileReport(
        derived=der,
        lower_central=low,
        upper_central=upp,
        perfect_radical=p,
        near_perfect_radical=low.stable_term,
        radical=rad,
        center=upp.terms[1],
        smallest_upper_bounded=upp.stable_term,
        solvable=p.is_zero(),
        nilpotent=low.stable_term.is_zero(),
        perfect=d1.is_full(),
        abelian=d1.is_zero(),
        semisimple=L.dim > 0 and rad.is_zero(),
    )

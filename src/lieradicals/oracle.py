"""Independent recomputation and randomized checking of the structure laws.

Two kinds of cross-examination live here:

* :func:`naive_series` recomputes the three characteristic series by a
  deliberately different route than the optimized code: the derived and lower
  central series expand brackets over redundant, non-reduced generating sets,
  and the upper central series is rebuilt as the preimage of the center of the
  quotient algebra.  Term-by-term agreement certifies the optimized path.

* :func:`verify_theorems` exercises the package's structure laws on an
  arbitrary validated algebra, using randomly sampled ideals.  Random ideals
  are generated by taking the ideal closure of one or two small random
  vectors; over the rationals the ideal lattice is infinite, so sampling
  (biased toward small ideals, the interesting ones) is the only general
  strategy.  Canonical ideals (0, L, the radicals, every series term) are
  thrown into the pool as well.  Predicates that check their input is an
  ideal sort the pool once into perfect, near perfect and upper bounded
  ideals; then each entry of the table `CHECKS`, one small function per law,
  reads that context in turn.

A "holds" status means no sampled counterexample exists; sampling is heuristic
by nature, which the report header states.  A "violated" status always means a
bug in this package, since every checked statement is a theorem, and it comes
with a witness sufficient to replay the failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import catalog as _catalog
from . import series
from .core import LieAlgebra
from .series import (
    ProfileReport,
    SeriesKind,
    SeriesReport,
    is_near_perfect_ideal,
    is_nilpotent,
    is_perfect,
    is_perfect_ideal,
    is_solvable,
    is_upper_bounded_ideal,
    iterate_series,
    near_perfect_radical,
    profile,
    radical,
)
from .subspace import Subspace, sort_key

#: The most random ideals `verify_theorems` samples in one run.
MAX_SAMPLES = 10_000

HOLDS = "holds"
VACUOUS = "vacuous"
VIOLATED = "violated"

SAMPLING_NOTE = (
    "random-ideal sampling is heuristic: 'holds' records that no sampled "
    "counterexample exists"
)


@dataclass(frozen=True)
class PropositionCheck:
    prop_id: str
    status: str
    detail: str = ""
    witness: tuple[tuple[str, str], ...] | None = None

    def witness_dict(self) -> dict[str, str] | None:
        return dict(self.witness) if self.witness is not None else None


@dataclass(frozen=True)
class TheoremReport:
    dim: int
    samples: int
    seed: int
    note: str
    checks: tuple[PropositionCheck, ...]

    @property
    def violated(self) -> tuple[PropositionCheck, ...]:
        return tuple(c for c in self.checks if c.status == VIOLATED)

    @property
    def ok(self) -> bool:
        return not self.violated


# -- random generation ---------------------------------------------------------


def random_ideal(L: LieAlgebra, seed: int) -> Subspace:
    """Ideal closure of one or two random small-integer vectors: the values of
    `randint(1, 2)`, then of `randint(-2, 2)` per entry, from `random.Random(seed)`."""
    bits = random.Random(seed).getrandbits

    def below(w: int, k: int) -> int:  # randint's draw, k = w.bit_length(), without its layers
        while (r := bits(k)) >= w:
            pass
        return r

    count = 1 + below(2, 2)
    return L.ideal_closure([[below(5, 3) - 2 for _ in range(L.dim)] for _ in range(count)])


def _sparse_candidate(rng: random.Random, dim: int) -> LieAlgebra:
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    k = rng.randint(0, min(3, len(pairs)))
    brackets = {}
    for (i, j) in rng.sample(pairs, k):
        vec = {}
        for _ in range(rng.randint(1, 2)):
            vec[rng.randrange(dim)] = rng.choice((-2, -1, 1, 2))
        brackets[(i, j)] = vec
    return LieAlgebra.from_brackets(dim, brackets)


def _perturbed_candidate(rng: random.Random, max_dim: int) -> LieAlgebra:
    small = [e for e in _catalog.entries() if 2 <= e.algebra.dim <= max_dim]
    base = rng.choice(small).algebra
    brackets = {(i, j): list(v) for i, j, v in base.constants.pairs()}
    i = rng.randrange(base.dim)
    j = rng.randrange(base.dim - 1)
    if j >= i:
        j += 1
    pair = (min(i, j), max(i, j))
    vec = list(brackets.get(pair, [0] * base.dim))
    vec[rng.randrange(base.dim)] += rng.choice((-2, -1, 1, 2))
    brackets[pair] = vec
    return LieAlgebra.from_brackets(base.dim, brackets)


def random_algebras(count: int, max_dim: int = 4, seed: int = 0) -> list[LieAlgebra]:
    """Deterministic corpus of validated random algebras of dim <= max_dim.

    Candidates come from sparse small-integer bracket tables and from
    single-entry perturbations of catalog algebras; anything failing the
    Jacobi identity is rejected.
    """
    rng = random.Random(seed)
    out: list[LieAlgebra] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 500 * count:  # pragma: no cover - generation safety net
            raise RuntimeError("rejection sampling failed to produce algebras")
        if max_dim < 2 or rng.random() < 0.5:
            cand = _sparse_candidate(rng, rng.randint(1, max_dim))
        else:
            cand = _perturbed_candidate(rng, max_dim)
        if cand.validate().ok:
            out.append(cand)
    return out


# -- naive series ----------------------------------------------------------------


def _redundant_spanning(s: Subspace) -> list[tuple[Fraction, ...]]:
    """A spanning set with built-in redundancy: basis rows, doubles, pair sums."""
    rows = s.rows()
    vecs = list(rows)
    for a in range(len(rows)):
        vecs.append(tuple(2 * x for x in rows[a]))
        for b in range(a + 1, len(rows)):
            vecs.append(tuple(x + y for x, y in zip(rows[a], rows[b])))
    return vecs


def _preimage(L: LieAlgebra, ideal: Subspace, h: Subspace) -> Subspace:
    """Preimage in L of h, a subspace of the quotient L / ideal.

    Quotient coordinates index the free columns of the ideal's basis, as in
    `LieAlgebra.quotient`, so h's integer rows lift to those columns.
    """
    free = ideal.free_columns()
    lifts = [{free[k]: x for k, x in row.items()} for row in h.int_rows]
    return Subspace.span(lifts + list(ideal.int_rows), L.dim)


def _stacked_center(Q: LieAlgebra) -> Subspace:
    rows = [r for j in range(Q.dim) for r in Q.ad(Q.basis_vector(j)).row_list()]
    return Subspace.span(rows, Q.dim).annihilator()


def naive_series(L: LieAlgebra, kind: SeriesKind) -> SeriesReport:
    """Recompute a characteristic series without canonicalization shortcuts.

    Descending series bracket every pair drawn from redundant generating
    sets; the upper central series is rebuilt as the preimage of the center
    of the quotient algebra at each step.
    """
    if kind is SeriesKind.UPPER_CENTRAL:
        return iterate_series(kind, L.zero_space(),
                              lambda t: _preimage(L, t, _stacked_center(L.quotient(t))))

    def step(t: Subspace) -> Subspace:
        gens = _redundant_spanning(t)
        left = gens if kind is SeriesKind.DERIVED else _redundant_spanning(L.full_space())
        return Subspace.span([L.bracket(u, v) for u in left for v in gens], L.dim)

    return iterate_series(kind, L.full_space(), step)


# -- theorem verification -----------------------------------------------------------


@dataclass(frozen=True)
class _Context:
    """What every check reads: the algebra, its profile, the one rng, and the
    sampled ideals that are perfect, near perfect and upper bounded."""

    L: LieAlgebra
    prof: ProfileReport
    rng: random.Random
    perfect: tuple[Subspace, ...]
    near_perfect: tuple[Subspace, ...]
    upper_bounded: tuple[Subspace, ...]


def _basis_strings(s: Subspace | None) -> str:
    if s is None:
        return "(none)"
    return "; ".join(
        "(" + ", ".join(str(x) for x in row) + ")" for row in s.rows()
    ) or "(zero)"


def _bad(detail: str, **subspaces: Subspace | None) -> tuple:
    """A violated result, witnessed by the basis of each named subspace."""
    return VIOLATED, detail, tuple((k, _basis_strings(s)) for k, s in subspaces.items())


def _flag_iff_zero(ctx: _Context, flag: str, name: str) -> tuple:
    """On a nonzero algebra, the profile flag `flag` holds iff the radical `name` is 0."""
    if ctx.L.dim == 0:
        return VACUOUS, "zero algebra"
    value, rad = getattr(ctx.prof, flag), getattr(ctx.prof, name)
    text = f"{name.replace('_', ' ')} dim {rad.dim}"
    if value == rad.is_zero():
        return HOLDS, f"{flag}={value}, {text}"
    return _bad(f"{flag}={value} but {text}", **{name: rad})


def _quotient_is(ctx: _Context, pred, name: str, failure: str) -> tuple:
    """L / (the radical `name`) satisfies `pred`."""
    rad = getattr(ctx.prof, name)
    q = ctx.L.quotient(rad)
    return (HOLDS, f"quotient dim {q.dim}") if pred(q) else _bad(failure, **{name: rad})


def _pairwise(ctx: _Context, ideals, empty: str, combine, keeps, noun: str, failure: str):
    """`keeps` holds for `combine` of every pair of `ideals`; vacuous, saying
    `empty`, with fewer than two.  0 is perfect and near perfect, so for those
    classes fewer than two means no nonzero one."""
    if len(ideals) < 2:
        return VACUOUS, empty
    pairs = list(combinations(ideals, 2))
    for a, b in pairs:
        if not keeps(ctx.L, c := combine(a, b)):
            return _bad(failure, ideal_a=a, ideal_b=b, **{noun: c})
    return HOLDS, f"{len(pairs)} pair(s) checked"


def _p21(ctx: _Context) -> tuple:
    return _pairwise(ctx, ctx.perfect, "no nonzero perfect ideal sampled", Subspace.sum,
                     is_perfect_ideal, "sum", "sum of two sampled perfect ideals is not perfect")


def _p22(ctx: _Context) -> tuple:
    return _flag_iff_zero(ctx, "solvable", "perfect_radical")


def _p24(ctx: _Context) -> tuple:
    fired = [i for i in ctx.perfect if is_perfect(ctx.L.quotient(i))]
    if not fired:
        return VACUOUS, "no sampled perfect ideal has a perfect quotient"
    if ctx.prof.perfect:
        return HOLDS, f"{len(fired)} instance(s) checked"
    return _bad("perfect ideal with perfect quotient on a non-perfect algebra", ideal=fired[0])


def _p25(ctx: _Context) -> tuple:
    return _quotient_is(ctx, is_solvable, "perfect_radical",
                        "quotient by the perfect radical is not solvable")


def _p31(ctx: _Context) -> tuple:
    return _pairwise(ctx, ctx.near_perfect, "no nonzero near perfect ideal sampled",
                     Subspace.sum, is_near_perfect_ideal, "sum",
                     "sum of two sampled near perfect ideals is not near perfect")


def _p32(ctx: _Context) -> tuple:
    return _flag_iff_zero(ctx, "nilpotent", "near_perfect_radical")


def _p34(ctx: _Context) -> tuple:
    # For each near perfect I, lift 0, NP(L/I) and the near perfect ones of
    # three random ideals of L/I.
    L = ctx.L
    instances = nontrivial = 0
    for i in ctx.near_perfect:
        q = L.quotient(i)
        candidates = {q.zero_space(), near_perfect_radical(q)}
        for _ in range(3):
            h = random_ideal(q, ctx.rng.randrange(2**32))
            if series.is_near_perfect_ideal(q, h):
                candidates.add(h)
        for h in sorted(candidates, key=sort_key):
            j = _preimage(L, i, h)
            instances += 1
            nontrivial += i.dim > 0 or h.dim > 0
            if not is_near_perfect_ideal(L, j):
                return _bad("preimage of a near perfect quotient ideal is not near perfect",
                            ideal=i, quotient_ideal=h, preimage=j)
    if nontrivial == 0:
        return VACUOUS, "only trivial quotient ideals arose"
    return HOLDS, f"{instances} preimage(s) checked"


def _p35(ctx: _Context) -> tuple:
    return _quotient_is(ctx, is_nilpotent, "near_perfect_radical",
                        "quotient by the near perfect radical is not nilpotent")


def _p41(ctx: _Context) -> tuple:
    return _pairwise(ctx, ctx.upper_bounded, "fewer than two upper bounded ideals sampled",
                     Subspace.intersect, is_upper_bounded_ideal, "intersection",
                     "intersection of two sampled upper bounded ideals is not upper bounded")


def _p42(ctx: _Context) -> tuple:
    u = ctx.prof.smallest_upper_bounded
    bad = next((i for i in ctx.upper_bounded if not u.leq(i)), None)
    if bad is None:
        return HOLDS, f"{len(ctx.upper_bounded)} upper bounded ideal(s) checked"
    return _bad("an upper bounded ideal fails to contain the stabilized upper central term",
                smallest=u, ideal=bad)


def _t43(ctx: _Context) -> tuple:
    if ctx.L.dim == 0 or not ctx.prof.nilpotent:
        return VACUOUS, "algebra is zero or not nilpotent"
    u = ctx.prof.smallest_upper_bounded
    bad = next((i for i in ctx.upper_bounded if not i.is_full()), None)
    if bad is None and u.is_full():
        return HOLDS, f"all {len(ctx.upper_bounded)} upper bounded ideal(s) equal L"
    return _bad("nilpotent algebra admits an upper bounded ideal other than itself",
                ideal=bad, smallest=u)


def _t26c(ctx: _Context) -> tuple:
    L, p = ctx.L, ctx.prof.perfect_radical
    rad_p = Subspace.span([L.embed(p, r) for r in radical(L.restrict(p)).rows()], L.dim)
    meet = ctx.prof.radical.intersect(p)
    if rad_p == meet and is_nilpotent(L.restrict(meet)):
        return HOLDS, f"P dim {p.dim}, R∩P dim {meet.dim}"
    return _bad("radical of the perfect radical disagrees with R(L) ∩ P(L) or is not nilpotent",
                perfect_radical=p, radical_of_p=rad_p, meet=meet)


def _e22(ctx: _Context) -> tuple:
    L, r = ctx.L, ctx.prof.radical
    j = L.bracket_spaces(L.full_space(), r)
    if j.leq(r) and is_nilpotent(L.restrict(j)):
        return HOLDS, f"[L, R] dim {j.dim} inside R dim {r.dim}"
    return _bad("[L, R(L)] escapes R(L) or is not nilpotent", bracket=j, radical=r)


#: The structure-law checks in report order.  Each reads a `_Context` and
#: returns (status, detail[, witness]).  The predicates they call are looked
#: up when they run, so a test can monkeypatch one to exercise a violation.
CHECKS = (
    ("P2.1", _p21),    # sums of perfect ideals are perfect ideals
    ("P2.2", _p22),    # solvable <=> perfect radical is zero (nonzero algebras)
    ("P2.4", _p24),    # perfect ideal with perfect quotient forces a perfect algebra
    ("P2.5", _p25),    # the quotient by the perfect radical is solvable
    ("P3.1", _p31),    # sums of near perfect ideals are near perfect ideals
    ("P3.2", _p32),    # nilpotent <=> near perfect radical is zero (nonzero algebras)
    ("P3.4", _p34),    # preimages of near perfect ideals of a quotient are near perfect
    ("P3.5", _p35),    # the quotient by the near perfect radical is nilpotent
    ("P4.1", _p41),    # intersections of upper bounded ideals are upper bounded
    ("P4.2", _p42),    # the stabilized upper central term is the smallest upper bounded ideal
    ("T4.3", _t43),    # a nonzero nilpotent algebra has exactly one upper bounded ideal
    ("T2.6c", _t26c),  # the radical of the perfect radical is R(L) ∩ P(L) and nilpotent
    ("E2.2", _e22),    # [L, R(L)] stays inside R(L) and is nilpotent
)

#: Check identifiers, in report order.
PROPOSITION_IDS = tuple(pid for pid, _ in CHECKS)


def verify_theorems(L: LieAlgebra, samples: int = 50, seed: int = 0) -> TheoremReport:
    """Run every check in `CHECKS` against `samples` random ideals.

    The pool is sorted once into its upper bounded, near perfect and perfect
    ideals; a member that is no ideal raises NotAnIdealError.  `samples` must
    lie in 1..MAX_SAMPLES, or ValueError is raised.  Pure for fixed
    (L, samples, seed); the input algebra is never mutated.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_SAMPLES}")
    rng = random.Random(seed)
    prof = profile(L)
    pool = {random_ideal(L, rng.randrange(2**32)) for _ in range(samples)}
    pool.update((L.zero_space(), L.full_space(), *prof.subspaces().values()))
    pool.update(t for rep in prof.series().values() for t in rep.terms)
    ideals = sorted(pool, key=sort_key)
    # `series.is_*` check that their input is an ideal, so the first filter checks
    # the whole pool; a test that patches the checks' `is_*` leaves these alone.
    # A perfect ideal is near perfect, since [s, s] <= [L, s] <= s.
    upper_bounded = tuple(i for i in ideals if series.is_upper_bounded_ideal(L, i))
    near_perfect = tuple(i for i in ideals if series.is_near_perfect_ideal(L, i))
    perfect = tuple(i for i in near_perfect if series.is_perfect_ideal(L, i))
    ctx = _Context(L, prof, rng, perfect, near_perfect, upper_bounded)
    checks = tuple(PropositionCheck(pid, *check(ctx)) for pid, check in CHECKS)
    return TheoremReport(L.dim, samples, seed, SAMPLING_NOTE, checks)

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
  thrown into the pool as well.

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
from .core import LieAlgebra
from .linalg import Matrix, vadd, vscale
from .series import (
    SeriesKind,
    SeriesReport,
    is_near_perfect_ideal,
    is_nilpotent,
    is_perfect,
    is_perfect_ideal,
    is_solvable,
    is_upper_bounded_ideal,
    iterate_series,
    profile,
    radical,
)
from .subspace import Subspace, sort_key

HOLDS = "holds"
VACUOUS = "vacuous"
VIOLATED = "violated"

#: Check identifiers, in report order.
PROPOSITION_IDS = (
    "P2.1",   # sums of perfect ideals are perfect ideals
    "P2.2",   # solvable <=> perfect radical is zero (nonzero algebras)
    "P2.4",   # perfect ideal with perfect quotient forces a perfect algebra
    "P2.5",   # the quotient by the perfect radical is solvable
    "P3.1",   # sums of near perfect ideals are near perfect ideals
    "P3.2",   # nilpotent <=> near perfect radical is zero (nonzero algebras)
    "P3.4",   # preimages of near perfect ideals of a quotient are near perfect
    "P3.5",   # the quotient by the near perfect radical is nilpotent
    "P4.1",   # intersections of upper bounded ideals are upper bounded
    "P4.2",   # the stabilized upper central term is the smallest upper bounded ideal
    "T4.3",   # a nonzero nilpotent algebra has exactly one upper bounded ideal
    "T2.6c",  # the radical of the perfect radical is R(L) ∩ P(L) and nilpotent
    "E2.2",   # [L, R(L)] stays inside R(L) and is nilpotent
)

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
    """Ideal closure of one or two random small-integer vectors."""
    rng = random.Random(seed)
    count = rng.randint(1, 2)
    vecs = [
        [rng.randint(-2, 2) for _ in range(L.dim)] for _ in range(count)
    ]
    return L.ideal_closure(vecs)


def _sparse_candidate(rng: random.Random, dim: int) -> LieAlgebra:
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    k = rng.randint(0, min(3, len(pairs)))
    brackets = {}
    for (i, j) in rng.sample(pairs, k):
        vec = [0] * dim
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
        vecs.append(vscale(Fraction(2), rows[a]))
        for b in range(a + 1, len(rows)):
            vecs.append(vadd(rows[a], rows[b]))
    return vecs


def _preimage(L: LieAlgebra, ideal: Subspace, h: Subspace) -> Subspace:
    """Preimage in L of h, a subspace of the quotient L / ideal.

    Quotient coordinates index the non-pivot columns of the ideal's basis,
    as in `LieAlgebra.quotient`.
    """
    pivot_set = set(ideal.pivots)
    non_pivots = [c for c in range(L.dim) if c not in pivot_set]
    lifts = []
    for row in h.rows():
        v = [Fraction(0)] * L.dim
        for a, c in enumerate(row):
            v[non_pivots[a]] = c
        lifts.append(v)
    return Subspace.span(lifts + ideal.rows(), L.dim)


def _stacked_center(Q: LieAlgebra) -> Subspace:
    blocks = [Q.ad(Q.basis_vector(j)) for j in range(Q.dim)]
    return Subspace(Q.dim, Matrix.stack(blocks, Q.dim).kernel())


def naive_series(L: LieAlgebra, kind: SeriesKind) -> SeriesReport:
    """Recompute a characteristic series without canonicalization shortcuts.

    Descending series bracket every pair drawn from redundant generating
    sets; the upper central series is rebuilt as the preimage of the center
    of the quotient algebra at each step.
    """
    if kind is SeriesKind.DERIVED:

        def step(t: Subspace) -> Subspace:
            gens = _redundant_spanning(t)
            return Subspace.span(
                [L.bracket(u, v) for u in gens for v in gens], L.dim
            )

        return iterate_series(kind, L.full_space(), step)

    if kind is SeriesKind.LOWER_CENTRAL:
        left = _redundant_spanning(L.full_space())

        def step(t: Subspace) -> Subspace:
            gens = _redundant_spanning(t)
            return Subspace.span(
                [L.bracket(u, v) for u in left for v in gens], L.dim
            )

        return iterate_series(kind, L.full_space(), step)

    def step(t: Subspace) -> Subspace:
        Q, _ = L.quotient(t)
        return _preimage(L, t, _stacked_center(Q))

    return iterate_series(kind, L.zero_space(), step)


# -- theorem verification -----------------------------------------------------------


def _basis_strings(s: Subspace) -> str:
    return "; ".join(
        "(" + ", ".join(str(x) for x in row) + ")" for row in s.rows()
    ) or "(zero)"


def _witness(**kv: str) -> tuple[tuple[str, str], ...]:
    return tuple(kv.items())


def verify_theorems(L: LieAlgebra, samples: int = 50, seed: int = 0) -> TheoremReport:
    """Run every built-in structure-law check against `samples` random ideals.

    Pure for fixed (L, samples, seed); the input algebra is never mutated.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = random.Random(seed)
    prof = profile(L)
    full = L.full_space()
    zero = L.zero_space()

    pool = {random_ideal(L, rng.randrange(2**32)) for _ in range(samples)}
    pool.update(
        (
            zero,
            full,
            prof.perfect_radical,
            prof.near_perfect_radical,
            prof.radical,
            prof.center,
            prof.smallest_upper_bounded,
        )
    )
    pool.update(prof.derived.terms)
    pool.update(prof.lower_central.terms)
    pool.update(prof.upper_central.terms)
    ideals = sorted(pool, key=sort_key)

    perfect_ideals = [i for i in ideals if is_perfect_ideal(L, i)]
    near_perfect_ideals = [i for i in ideals if is_near_perfect_ideal(L, i)]
    upper_bounded_ideals = [i for i in ideals if is_upper_bounded_ideal(L, i)]

    checks: list[PropositionCheck] = []

    def hold(pid: str, detail: str = "") -> None:
        checks.append(PropositionCheck(pid, HOLDS, detail))

    def vacuous(pid: str, detail: str = "") -> None:
        checks.append(PropositionCheck(pid, VACUOUS, detail))

    def violated(pid: str, detail: str, witness) -> None:
        checks.append(PropositionCheck(pid, VIOLATED, detail, witness))

    def flag_iff_zero(pid: str, flag: str, value: bool, name: str) -> None:
        """On a nonzero algebra, `flag` holds iff the radical `name` is 0."""
        if L.dim == 0:
            return vacuous(pid, "zero algebra")
        rad = getattr(prof, name)
        text = f"{name.replace('_', ' ')} dim {rad.dim}"
        if value == rad.is_zero():
            hold(pid, f"{flag}={value}, {text}")
        else:
            witness = _witness(**{name: _basis_strings(rad)})
            violated(pid, f"{flag}={value} but {text}", witness)

    def quotient_is(pid: str, pred, name: str, failure: str) -> None:
        """L / (the radical `name`) satisfies `pred`."""
        rad = getattr(prof, name)
        q, _ = L.quotient(rad)
        if pred(q):
            hold(pid, f"quotient dim {q.dim}")
        else:
            violated(pid, failure, _witness(**{name: _basis_strings(rad)}))

    def pairwise(pid, ideals, empty, combine, keeps, noun, failure) -> None:
        """`keeps` holds for `combine` of every pair, unless `empty` says why not."""
        if empty:
            return vacuous(pid, empty)
        pairs = list(combinations(ideals, 2))
        bad = next(
            ((a, b, c) for a, b in pairs if not keeps(L, c := combine(a, b))), None
        )
        if bad is None:
            hold(pid, f"{len(pairs)} pair(s) checked")
        else:
            violated(pid, failure, _witness(
                ideal_a=_basis_strings(bad[0]),
                ideal_b=_basis_strings(bad[1]),
                **{noun: _basis_strings(bad[2])},
            ))

    # P2.1 -- sums of perfect ideals stay perfect.
    pairwise(
        "P2.1",
        perfect_ideals,
        all(i.is_zero() for i in perfect_ideals) and "no nonzero perfect ideal sampled",
        Subspace.sum,
        is_perfect_ideal,
        "sum",
        "sum of two sampled perfect ideals is not perfect",
    )

    # P2.2 -- solvable <=> P(L) = 0, for nonzero algebras.
    flag_iff_zero("P2.2", "solvable", prof.solvable, "perfect_radical")

    # P2.4 -- a perfect ideal with a perfect quotient forces a perfect algebra.
    fired = []
    for i in perfect_ideals:
        q, _ = L.quotient(i)
        if is_perfect(q):
            fired.append(i)
    if not fired:
        vacuous("P2.4", "no sampled perfect ideal has a perfect quotient")
    elif prof.perfect:
        hold("P2.4", f"{len(fired)} instance(s) checked")
    else:
        violated(
            "P2.4",
            "perfect ideal with perfect quotient on a non-perfect algebra",
            _witness(ideal=_basis_strings(fired[0])),
        )

    # P2.5 -- L / P(L) is solvable.
    quotient_is(
        "P2.5", is_solvable, "perfect_radical",
        "quotient by the perfect radical is not solvable",
    )

    # P3.1 -- sums of near perfect ideals stay near perfect.
    pairwise(
        "P3.1",
        near_perfect_ideals,
        all(i.is_zero() for i in near_perfect_ideals)
        and "no nonzero near perfect ideal sampled",
        Subspace.sum,
        is_near_perfect_ideal,
        "sum",
        "sum of two sampled near perfect ideals is not near perfect",
    )

    # P3.2 -- nilpotent <=> NP(L) = 0, for nonzero algebras.
    flag_iff_zero("P3.2", "nilpotent", prof.nilpotent, "near_perfect_radical")

    # P3.4 -- preimages of near perfect ideals of L/I are near perfect in L.
    instances = 0
    nontrivial = 0
    bad = None
    for i in near_perfect_ideals:
        q, _ = L.quotient(i)
        candidates = {q.zero_space()}
        candidates.add(profile(q).near_perfect_radical)
        for k in range(3):
            h = random_ideal(q, rng.randrange(2**32))
            if is_near_perfect_ideal(q, h):
                candidates.add(h)
        for h in sorted(candidates, key=sort_key):
            j = _preimage(L, i, h)
            instances += 1
            if i.dim > 0 or h.dim > 0:
                nontrivial += 1
            if not is_near_perfect_ideal(L, j):
                bad = (i, h, j)
                break
        if bad:
            break
    if bad is not None:
        violated(
            "P3.4",
            "preimage of a near perfect quotient ideal is not near perfect",
            _witness(
                ideal=_basis_strings(bad[0]),
                quotient_ideal=_basis_strings(bad[1]),
                preimage=_basis_strings(bad[2]),
            ),
        )
    elif nontrivial == 0:
        vacuous("P3.4", "only trivial quotient ideals arose")
    else:
        hold("P3.4", f"{instances} preimage(s) checked")

    # P3.5 -- L / NP(L) is nilpotent.
    quotient_is(
        "P3.5", is_nilpotent, "near_perfect_radical",
        "quotient by the near perfect radical is not nilpotent",
    )

    # P4.1 -- intersections of upper bounded ideals stay upper bounded.
    pairwise(
        "P4.1",
        upper_bounded_ideals,
        len(upper_bounded_ideals) < 2 and "fewer than two upper bounded ideals sampled",
        Subspace.intersect,
        is_upper_bounded_ideal,
        "intersection",
        "intersection of two sampled upper bounded ideals is not upper bounded",
    )

    # P4.2 -- the stabilized upper central term is below every upper bounded ideal.
    u = prof.smallest_upper_bounded
    bad = next((i for i in upper_bounded_ideals if not u.leq(i)), None)
    if bad is None:
        hold("P4.2", f"{len(upper_bounded_ideals)} upper bounded ideal(s) checked")
    else:
        violated(
            "P4.2",
            "an upper bounded ideal fails to contain the stabilized upper central term",
            _witness(
                smallest=_basis_strings(u), ideal=_basis_strings(bad)
            ),
        )

    # T4.3 -- a nonzero nilpotent algebra has exactly one upper bounded ideal.
    if L.dim == 0 or not prof.nilpotent:
        vacuous("T4.3", "algebra is zero or not nilpotent")
    else:
        bad = next((i for i in upper_bounded_ideals if not i.is_full()), None)
        if bad is None and u.is_full():
            hold("T4.3", f"all {len(upper_bounded_ideals)} upper bounded ideal(s) equal L")
        else:
            violated(
                "T4.3",
                "nilpotent algebra admits an upper bounded ideal other than itself",
                _witness(
                    ideal=_basis_strings(bad) if bad is not None else "(none)",
                    smallest=_basis_strings(u),
                ),
            )

    # T2.6c -- radical(P(L)) equals R(L) ∩ P(L) and is nilpotent.
    p = prof.perfect_radical
    restr = L.restrict(p)
    rad_local = radical(restr)
    rad_ambient = Subspace.span(
        [L.embed(p, row) for row in rad_local.rows()], L.dim
    )
    meet = prof.radical.intersect(p)
    if rad_ambient == meet and is_nilpotent(L.restrict(meet)):
        hold("T2.6c", f"P dim {p.dim}, R∩P dim {meet.dim}")
    else:
        violated(
            "T2.6c",
            "radical of the perfect radical disagrees with R(L) ∩ P(L) or is not nilpotent",
            _witness(
                perfect_radical=_basis_strings(p),
                radical_of_p=_basis_strings(rad_ambient),
                meet=_basis_strings(meet),
            ),
        )

    # E2.2 -- [L, R(L)] stays inside R(L) and is a nilpotent ideal.
    j = L.bracket_spaces(full, prof.radical)
    if j.leq(prof.radical) and is_nilpotent(L.restrict(j)):
        hold("E2.2", f"[L, R] dim {j.dim} inside R dim {prof.radical.dim}")
    else:
        violated(
            "E2.2",
            "[L, R(L)] escapes R(L) or is not nilpotent",
            _witness(
                bracket=_basis_strings(j), radical=_basis_strings(prof.radical)
            ),
        )

    assert tuple(c.prop_id for c in checks) == PROPOSITION_IDS
    return TheoremReport(
        dim=L.dim,
        samples=samples,
        seed=seed,
        note=SAMPLING_NOTE,
        checks=tuple(checks),
    )

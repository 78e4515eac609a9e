import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lieradicals.oracle as oracle
from lieradicals import catalog, series
from lieradicals.algfile import render_algebra
from lieradicals.cli import main
from lieradicals.core import NotAnIdealError
from lieradicals.oracle import (
    MAX_SAMPLES,
    PROPOSITION_IDS,
    naive_series,
    random_algebras,
    random_ideal,
    verify_theorems,
)
from lieradicals.series import (
    SeriesKind,
    derived_series,
    lower_central_series,
    upper_central_series,
)
from lieradicals.subspace import Subspace, sort_key

import reference

OPTIMIZED = {
    SeriesKind.DERIVED: derived_series,
    SeriesKind.LOWER_CENTRAL: lower_central_series,
    SeriesKind.UPPER_CENTRAL: upper_central_series,
}


def span(dim, *vecs):
    return Subspace.span(vecs, dim)


# -- random ideals ------------------------------------------------------------


def test_random_ideal_deterministic(s32):
    assert random_ideal(s32, 42) == random_ideal(s32, 42)


class _Recorder:
    """Stands in for an algebra of the given dimension: its ideal closure
    returns the vectors it is given."""

    def __init__(self, dim):
        self.dim = dim

    def ideal_closure(self, vectors):
        return vectors


@pytest.mark.parametrize("dim", [0, 1, 2, 3, 7])
def test_random_ideal_draws_the_values_of_randint(dim):
    """The vectors are those `randint` draws from the same seed, on the
    running interpreter: the count by `randint(1, 2)`, each entry by
    `randint(-2, 2)`."""
    for seed in range(2000):
        rng = random.Random(seed)
        count = rng.randint(1, 2)
        expected = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(count)]
        assert random_ideal(_Recorder(dim), seed) == expected


def test_random_ideal_is_ideal(sl2s32):
    for seed in range(30):
        assert sl2s32.is_ideal(random_ideal(sl2s32, seed))


def test_random_ideal_lattice_of_s32(s32):
    # The full ideal lattice of s3_2 is 0, span{x}, span{x,y}, L.
    lattice = {
        s32.zero_space(),
        span(3, (1, 0, 0)),
        span(3, (1, 0, 0), (0, 1, 0)),
        s32.full_space(),
    }
    seen = {random_ideal(s32, seed) for seed in range(400)}
    assert seen <= lattice
    assert len(seen) >= 3


def test_random_ideal_on_simple_algebra(sl2):
    for seed in range(30):
        i = random_ideal(sl2, seed)
        assert i.is_zero() or i.is_full()


def test_random_ideal_on_abelian(abelian2):
    for seed in range(10):
        i = random_ideal(abelian2, seed)
        assert abelian2.is_ideal(i)  # every subspace qualifies


# -- random algebras ------------------------------------------------------------


def test_random_algebras_deterministic_and_valid():
    a = random_algebras(25, max_dim=4, seed=3)
    b = random_algebras(25, max_dim=4, seed=3)
    assert len(a) == 25
    assert all(x.constants == y.constants for x, y in zip(a, b))
    for L in a:
        assert 1 <= L.dim <= 4
        assert L.validate().ok


# -- naive series oracle -----------------------------------------------------------


@pytest.mark.parametrize("kind", list(SeriesKind))
def test_naive_matches_optimized_on_catalog(kind):
    for entry in catalog.entries():
        naive = naive_series(entry.algebra, kind)
        fast = OPTIMIZED[kind](entry.algebra)
        assert naive.terms == fast.terms, (entry.name, kind)
        assert naive.stabilization_index == fast.stabilization_index


def test_naive_matches_optimized_on_random_sample():
    for L in random_algebras(20, max_dim=4, seed=99):
        for kind in SeriesKind:
            assert naive_series(L, kind).terms == OPTIMIZED[kind](L).terms


def test_naive_series_examples(s32, heis3, abelian2):
    ds = naive_series(s32, SeriesKind.DERIVED)
    assert ds.chain == (
        s32.full_space(),
        span(3, (1, 0, 0), (0, 1, 0)),
        s32.zero_space(),
    )
    ucs = naive_series(heis3, SeriesKind.UPPER_CENTRAL)
    assert ucs.chain == (
        heis3.zero_space(),
        span(3, (0, 0, 1)),
        heis3.full_space(),
    )
    lcs = naive_series(abelian2, SeriesKind.LOWER_CENTRAL)
    assert lcs.chain == (abelian2.full_space(), abelian2.zero_space())


# -- verify_theorems -----------------------------------------------------------------


def test_verify_s32_all_hold_or_vacuous(s32):
    report = verify_theorems(s32, samples=50, seed=7)
    assert tuple(c.prop_id for c in report.checks) == PROPOSITION_IDS
    assert report.ok
    assert all(c.status in ("holds", "vacuous") for c in report.checks)


def test_verify_heis3_t43_holds(heis3):
    report = verify_theorems(heis3, samples=50, seed=7)
    t43 = next(c for c in report.checks if c.prop_id == "T4.3")
    assert t43.status == "holds"
    u = next(c for c in report.checks if c.prop_id == "P4.2")
    assert u.status == "holds"


def test_verify_block_sum_t26c_witness_dims(sl2s32):
    report = verify_theorems(sl2s32, samples=100, seed=7)
    assert report.ok
    t26c = next(c for c in report.checks if c.prop_id == "T2.6c")
    assert t26c.status == "holds"
    assert "P dim 3" in t26c.detail
    assert "R∩P dim 0" in t26c.detail


def test_verify_seed_determinism(s32):
    a = verify_theorems(s32, samples=25, seed=5)
    b = verify_theorems(s32, samples=25, seed=5)
    assert a == b


def test_verify_rejects_bad_sample_count(s32):
    with pytest.raises(ValueError):
        verify_theorems(s32, samples=0, seed=1)
    with pytest.raises(ValueError, match="at most 10000"):
        verify_theorems(s32, samples=MAX_SAMPLES + 1, seed=1)


def test_verify_report_metadata(s32):
    report = verify_theorems(s32, samples=10, seed=1)
    assert report.dim == 3
    assert report.samples == 10
    assert report.seed == 1
    assert "heuristic" in report.note


def test_verify_p24_fires_on_perfect_algebra(sl2):
    report = verify_theorems(sl2, samples=20, seed=3)
    p24 = next(c for c in report.checks if c.prop_id == "P2.4")
    assert p24.status == "holds"  # L itself is the firing instance


def test_verify_p34_nontrivial_on_block_sum(sl2s32):
    report = verify_theorems(sl2s32, samples=30, seed=3)
    p34 = next(c for c in report.checks if c.prop_id == "P3.4")
    assert p34.status == "holds"


def test_violation_machinery_produces_witness(monkeypatch, s32):
    # No valid algebra can violate these laws, so break a predicate on
    # purpose to exercise the witness path end to end.
    monkeypatch.setattr(oracle, "is_solvable", lambda L: False)
    report = verify_theorems(s32, samples=10, seed=2)
    p25 = next(c for c in report.checks if c.prop_id == "P2.5")
    assert p25.status == "violated"
    assert p25.witness is not None
    assert p25.witness_dict() is not None
    assert not report.ok


# -- one mutation per check ------------------------------------------------------


def _never(*args):
    return False


def _profile_with(change):
    """A profile() giving the real report with the fields `change(L, prof)` returns."""

    def fake(L):
        prof = series.profile(L)
        return dataclasses.replace(prof, **change(L, prof))

    return fake


# id -> (catalog algebra, oracle attribute, replacement): breaking that one
# predicate, or the profile the check reads, must turn the check violated.
MUTATIONS = {
    "P2.1": ("sl2", "is_perfect_ideal", _never),
    "P2.2": ("s3_2", "profile", _profile_with(lambda L, p: {"solvable": not p.solvable})),
    "P2.4": ("s3_2", "is_perfect", lambda L: True),
    "P2.5": ("s3_2", "is_solvable", _never),
    "P3.1": ("sl2", "is_near_perfect_ideal", _never),
    "P3.2": ("s3_2", "profile", _profile_with(lambda L, p: {"nilpotent": not p.nilpotent})),
    "P3.4": ("s3_2", "is_near_perfect_ideal", _never),
    "P3.5": ("s3_2", "is_nilpotent", _never),
    "P4.1": ("sl2", "is_upper_bounded_ideal", _never),
    "P4.2": ("sl2", "profile",
             _profile_with(lambda L, p: {"smallest_upper_bounded": L.full_space()})),
    "T4.3": ("heis3", "profile",
             _profile_with(lambda L, p: {"smallest_upper_bounded": L.zero_space()})),
    "T2.6c": ("sl2", "radical", lambda L: L.full_space()),
    "E2.2": ("s3_2", "is_nilpotent", _never),
}


def _status(report, pid):
    return next(c for c in report.checks if c.prop_id == pid)


@pytest.mark.parametrize("pid", [pid for pid, _ in oracle.CHECKS])
def test_one_mutation_turns_each_check_violated(pid, monkeypatch, tmp_path, capsys):
    name, attr, fake = MUTATIONS[pid]
    L = catalog.get(name).algebra
    assert _status(verify_theorems(L, samples=10, seed=2), pid).status != "violated"
    monkeypatch.setattr(oracle, attr, fake)
    check = _status(verify_theorems(L, samples=10, seed=2), pid)
    assert check.status == "violated"
    assert check.witness and all(value for _, value in check.witness)
    # The same mutation seen through `lieradicals verify`: exit 3, witness in the JSON.
    path = tmp_path / f"{name}.alg"
    path.write_text(render_algebra(L))
    assert main(["verify", str(path), "--json", "--samples", "10", "--seed", "2"]) == 3
    result = next(r for r in json.loads(capsys.readouterr().out)["results"] if r["id"] == pid)
    assert result["status"] == "violated"
    assert result["witness"] == check.witness_dict()


def test_checks_table_gives_the_ids():
    assert PROPOSITION_IDS == tuple(pid for pid, _ in oracle.CHECKS)
    assert len(set(PROPOSITION_IDS)) == len(PROPOSITION_IDS) == len(MUTATIONS)


def test_a_pool_member_that_is_no_ideal_raises(monkeypatch, s32):
    monkeypatch.setattr(oracle, "random_ideal", lambda L, seed: span(3, (0, 0, 1)))
    with pytest.raises(NotAnIdealError):
        verify_theorems(s32, samples=3, seed=0)


def _verify_pool(L, samples, seed):
    """The ideals `verify_theorems` classifies, built and sorted as it does."""
    rng = random.Random(seed)
    prof = series.profile(L)
    pool = {random_ideal(L, rng.randrange(2**32)) for _ in range(samples)}
    pool.update((L.zero_space(), L.full_space(), *prof.subspaces().values()))
    pool.update(t for rep in prof.series().values() for t in rep.terms)
    return sorted(pool, key=sort_key)


POOL_INPUTS = [(f"catalog-{e.name}", e.algebra) for e in catalog.entries()]
POOL_INPUTS += [(f"random-{k:03d}", L) for k, L in enumerate(random_algebras(100, 4, 20240809))]


@pytest.mark.parametrize("name,L", POOL_INPUTS, ids=[name for name, _ in POOL_INPUTS])
def test_perfect_filtered_from_near_perfect_equals_perfect_over_the_pool(name, L, monkeypatch):
    """`verify` tests only its near perfect ideals for perfection; each class it
    builds is the whole pool's, in the same order."""
    seen = []
    monkeypatch.setattr(oracle, "CHECKS", (("pool", lambda ctx: seen.append(ctx) or ("holds",)),))
    verify_theorems(L, samples=50, seed=0)
    (ctx,) = seen
    pool = _verify_pool(L, 50, 0)
    assert ctx.perfect == tuple(i for i in pool if series.is_perfect_ideal(L, i))
    assert ctx.near_perfect == tuple(i for i in pool if series.is_near_perfect_ideal(L, i))
    assert ctx.upper_bounded == tuple(i for i in pool if series.is_upper_bounded_ideal(L, i))


#: Catalog and random-corpus algebras, each in its own or the rational basis.
KEY_INPUTS = st.builds(lambda L, rational: reference.rebase(L) if rational else L,
                       st.one_of(st.sampled_from([e.algebra for e in catalog.entries()]),
                                 st.builds(lambda seed, k: random_algebras(k + 1, 4, seed)[k],
                                           st.integers(0, 2**32), st.integers(0, 9))),
                       st.booleans())


@settings(max_examples=150, deadline=None)
@given(KEY_INPUTS, st.integers(0, 2**32))
def test_sort_key_matches_fraction_key_on_verify_pools(L, seed):
    """`sort_key`, read from the integer rows, against the key of the `Fraction`
    RREF matrix on every member of the pool `verify_theorems` builds, and the
    pool's order under each."""
    pool = _verify_pool(L, 10, seed)
    assert [sort_key(s) for s in pool] == [reference.fraction_sort_key(s) for s in pool]
    assert sorted(pool, key=reference.fraction_sort_key) == pool

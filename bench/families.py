"""Benchmark inputs built from matrix units, with plain `fractions` only.

Nothing here imports `lieradicals`: the inputs and the facts the outputs are
checked against are computed apart from the program under test.

A family member is a bracket table ``{(a, b): vector}`` on basis indices
``a < b`` (0-based), holding only the nonzero brackets.  The matrix-unit
families use ``[E_ij, E_kl] = δ_jk E_il − δ_li E_kj``.
"""

from __future__ import annotations

import random
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


# -- matrix-unit families ------------------------------------------------------


def _commutator(x: dict, y: dict) -> dict:
    """[x, y] = xy − yx for sparse matrices {(i, j): coefficient}."""
    out: dict = {}
    for (i, j), a in x.items():
        for (k, l), b in y.items():
            if j == k:
                out[(i, l)] = out.get((i, l), ZERO) + a * b
            if l == i:
                out[(k, j)] = out.get((k, j), ZERO) - a * b
    return {key: c for key, c in out.items() if c}


def _table(basis: list[dict], coords) -> dict:
    """Bracket table of a matrix Lie algebra given by its basis matrices."""
    table = {}
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            comm = _commutator(basis[a], basis[b])
            if comm:
                table[(a, b)] = coords(comm)
    return table


def _unit_coords(units: list[tuple[int, int]]):
    index = {u: k for k, u in enumerate(units)}

    def coords(m: dict) -> tuple:
        vec = [ZERO] * len(units)
        for key, c in m.items():
            vec[index[key]] = c  # KeyError would mean the space is not closed
        return tuple(vec)

    return coords


def gl(n: int) -> tuple[int, dict]:
    units = [(i, j) for i in range(n) for j in range(n)]
    return len(units), _table([{u: ONE} for u in units], _unit_coords(units))


def b(n: int) -> tuple[int, dict]:
    """Upper triangular n×n matrices, diagonal included."""
    units = [(i, j) for i in range(n) for j in range(i, n)]
    return len(units), _table([{u: ONE} for u in units], _unit_coords(units))


def n_(n: int) -> tuple[int, dict]:
    """Strictly upper triangular n×n matrices."""
    units = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return len(units), _table([{u: ONE} for u in units], _unit_coords(units))


def sl(n: int) -> tuple[int, dict]:
    """Traceless n×n matrices: off-diagonal units, then H_i = E_ii − E_(i+1)(i+1)."""
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    basis = [{u: ONE} for u in off]
    basis += [{(i, i): ONE, (i + 1, i + 1): -ONE} for i in range(n - 1)]
    index = {u: k for k, u in enumerate(off)}

    def coords(m: dict) -> tuple:
        vec = [ZERO] * (len(off) + n - 1)
        running = ZERO
        for i in range(n - 1):
            # Coefficient of H_i is the running sum of the first i+1 diagonal entries.
            running += m.get((i, i), ZERO)
            vec[len(off) + i] = running
        for key, c in m.items():
            if key[0] != key[1]:
                vec[index[key]] = c
        return tuple(vec)

    return len(basis), _table(basis, coords)


def abelian(n: int) -> tuple[int, dict]:
    return n, {}


FAMILIES = {"gl": gl, "sl": sl, "b": b, "n": n_, "abelian": abelian}


def build(name: str) -> tuple[int, dict]:
    """`gl4`, `sl3`, `b5`, `n6`, `abelian12`: family name then size."""
    family = name.rstrip("0123456789")
    return FAMILIES[family](int(name[len(family):]))


# -- closed forms ------------------------------------------------------------------


def _above(n: int, d: int) -> int:
    """Number of matrix units E_ij with j − i >= d (d >= 1)."""
    return max(n - d, 0) * max(n - d + 1, 0) // 2


def expected(name: str) -> dict:
    """Series dimensions, radical dimensions and flags from closed forms.

    These values depend only on the isomorphism type, so they hold in any
    basis.  Series are listed as `analyze --json` lists them: through the
    stabilized term, each term once.
    """
    family = name.rstrip("0123456789")
    n = int(name[len(family):])
    flags = dict(solvable=False, nilpotent=False, perfect=False, abelian=False, semisimple=False)
    if family == "gl":  # gl_n = sl_n + scalars, n >= 2
        d = n * n
        derived = lower = [d, d - 1]
        upper = [0, 1]
        p = np_ = d - 1
        r = z = u = 1
    elif family == "sl":  # simple, n >= 2
        d = n * n - 1
        derived = lower = [d]
        upper = [0]
        p = np_ = d
        r = z = u = 0
        flags.update(perfect=True, semisimple=True)
    elif family == "b":  # b_n' = n_n, [b_n, n_n] = n_n; centre = scalars
        d = n * (n + 1) // 2
        derived = [d] + _derived_nilradical(n)
        lower = [d, _above(n, 1)]
        upper = [0, 1]
        p, np_ = 0, _above(n, 1)
        r, z, u = d, 1, 1
        flags.update(solvable=True)
    elif family == "n":  # n >= 3
        d = _above(n, 1)
        derived = _derived_nilradical(n)
        lower = [_above(n, k + 1) for k in range(n)]
        upper = [k * (k + 1) // 2 for k in range(n)]
        p = np_ = 0
        r, z, u = d, 1, d
        flags.update(solvable=True, nilpotent=True)
    elif family == "abelian":
        derived = lower = [n, 0]
        upper = [0, n]
        p = np_ = 0
        r = z = u = n
        flags.update(solvable=True, nilpotent=True, abelian=True)
    else:
        raise KeyError(name)
    return {
        "dim": derived[0],
        "series": {"derived": derived, "lower_central": lower, "upper_central": upper},
        "perfect_radical": p,
        "near_perfect_radical": np_,
        "radical": r,
        "center": z,
        "smallest_upper_bounded": u,
        "flags": flags,
    }


def _derived_nilradical(n: int) -> list[int]:
    """Derived series of n_n: the k-th term is {j − i >= 2^k}, down to 0."""
    dims = []
    k = 0
    while True:
        dims.append(_above(n, 2 ** k))
        if dims[-1] == 0:
            return dims
        k += 1


# -- change of basis --------------------------------------------------------------

# The diagonal of `basis_change`: fixed values in a drawn order, so the
# coefficient sizes of a rebased algebra do not depend much on the draw.
_SCALES = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3), Fraction(-2, 3), Fraction(-1))


def _inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(m)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        p = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[p] = aug[p], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def basis_change(dim: int, rng: random.Random) -> list[list[Fraction]]:
    """A seeded invertible rational matrix P = L·D·U.

    L and U are unit triangular with entries in {−1, 0, 1} below (above) the
    diagonal, and D scales by the fixed values in `_SCALES`, cycled and
    shuffled, so the new basis carries denominators.
    """
    lower = [[ONE if i == j else (Fraction(rng.choice((-1, 0, 1))) if j < i else ZERO)
              for j in range(dim)] for i in range(dim)]
    upper = [[ONE if i == j else (Fraction(rng.choice((-1, 0, 1))) if j > i else ZERO)
              for j in range(dim)] for i in range(dim)]
    scales = [_SCALES[i % len(_SCALES)] for i in range(dim)]
    rng.shuffle(scales)
    ld = [[lower[i][j] * scales[j] for j in range(dim)] for i in range(dim)]
    return [[sum((ld[i][k] * upper[k][j] for k in range(dim)), ZERO) for j in range(dim)]
            for i in range(dim)]


def permute(dim: int, table: dict, perm: list[int]) -> dict:
    """Bracket table in the reordered basis f_a = e_perm[a]."""
    pos = {p: a for a, p in enumerate(perm)}
    new = {}
    for (i, j), v in table.items():
        w = tuple(v[perm[k]] for k in range(dim))
        a, b_ = pos[i], pos[j]
        if a < b_:
            new[(a, b_)] = w
        else:
            new[(b_, a)] = tuple(-x for x in w)
    return new


def bracket(table: dict, x, y) -> list[Fraction]:
    """[x, y] for coordinate vectors, from a bracket table on a < b."""
    out = [ZERO] * len(x)
    for (a, b_), v in table.items():
        c = x[a] * y[b_] - x[b_] * y[a]
        if c:
            for k, vk in enumerate(v):
                if vk:
                    out[k] += c * vk
    return out


def rebase(dim: int, table: dict, p: list[list[Fraction]]) -> dict:
    """Bracket table in the basis f_a = Σ_i p[a][i] e_i."""
    pinv = _inverse(p)
    new = {}
    for a in range(dim):
        for b_ in range(a + 1, dim):
            v = bracket(table, p[a], p[b_])
            coords = tuple(sum((v[i] * pinv[i][k] for i in range(dim) if v[i]), ZERO)
                           for k in range(dim))
            if any(coords):
                new[(a, b_)] = coords
    return new


# -- the text format -------------------------------------------------------------


def render(dim: int, table: dict, name: str = "") -> str:
    """The algebra file format: `dim`, then one line per nonzero bracket."""
    lines = [f"# {name}"] if name else []
    lines.append(f"dim {dim}")
    for (a, b_), vec in sorted(table.items()):
        terms = " + ".join(f"{c}*e{k + 1}" for k, c in enumerate(vec) if c)
        lines.append(f"[{a + 1},{b_ + 1}] = {terms}")
    return "\n".join(lines) + "\n"

"""The algebra text format: parsing and rendering.

Line-based grammar (UTF-8, LF or CRLF; `#` starts a comment, blank lines are
ignored):

    dim <n>                        exactly once, before any bracket line
    basis <name1> ... <namen>      optional; defaults to e1..en
    [<i>,<j>] = <term> (+ <term>)* one per bracket pair, indices 1-based
    [<i>,<j>] = 0

with term := <rational>*e<k> and rational matching -?digits(/digits)?.
Subtraction is written with negative rationals (`-1*e2`), not a `-`
separator.  Each pair may be defined at most once in either orientation;
undeclared brackets are zero and reversed brackets are derived by
antisymmetry.  The parsed algebra must satisfy the antisymmetry and Jacobi
axioms, otherwise parsing fails with the offending indices.  Numerators and
denominators are read with `int()` alone; `StructureConstants` gets integer
numerators over the lcm of the denominators.
"""

from __future__ import annotations

import re
import sys
from math import gcd

from .core import LieAlgebra, StructureConstants, ValidationReport

#: Largest `dim` a file may declare: cost grows at least as dim², so refuse early.
MAX_DIM = 256

_DIM_RE = re.compile(r"dim\s+(\d+)$")
_BASIS_RE = re.compile(r"basis\s+(.+)$")
_BRACKET_RE = re.compile(r"\[\s*(\d+)\s*,\s*(\d+)\s*\]\s*=\s*(.+)$")
_TERM_RE = re.compile(r"\s*((-?\d+)(?:/(\d+))?\s*\*\s*e(\d+))\s*(\+|\Z)")


class AlgebraFileError(Exception):
    """Base class for algebra-file failures."""


class ParseError(AlgebraFileError):
    """Syntax, duplicate-bracket, or index-range failure, with a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class InvalidAlgebraError(AlgebraFileError):
    """Input parsed but violates the antisymmetry or Jacobi axioms."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__(report.message)


def _terms(rhs: str, dim: int, s: int, lineno: int) -> tuple[dict[int, int], int]:
    """({k - 1: s'·c^k}, s') for a bracket line's right-hand side, read a term and its
    `+` at a time: e_k add up, and s' is the least multiple of s each q divides."""
    terms, pos, more = {}, 0, rhs != "0"
    while more:  # `more`: a `+` follows the term read
        if (t := _TERM_RE.match(rhs, pos)) is None:
            part = rhs[pos:].split("+", 1)[0].strip()
            raise ParseError(f"malformed term {part!r} in {rhs!r}", lineno)
        part, n, q, k, more = t.groups()
        n, q = int(n), int(q) if q else 1
        if not q:
            raise ParseError(f"zero denominator in {part!r}", lineno)
        if not (1 <= (k := int(k)) <= dim):
            raise ParseError(f"basis index e{k} out of range", lineno)
        if s % q:
            f = q // gcd(s, q)
            s, terms = s * f, {c: x * f for c, x in terms.items()}
        terms[k - 1] = terms.get(k - 1, 0) + n * (s // q)
        pos = t.end()
    return terms, s


def parse_algebra(text: str) -> LieAlgebra:
    """Parse the text format into a validated algebra.

    Raises ParseError for malformed input and InvalidAlgebraError when the
    bracket table fails validation.
    """
    dim: int | None = None
    labels: tuple[str, ...] | None = None
    scale = 1  # the lcm of the denominators read so far
    brackets = {}  # {i, j} as a sorted pair -> (i - 1, j - 1, {k - 1: s·c^k_ij}, s)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        if line.startswith("dim"):
            m = _DIM_RE.fullmatch(line)
            if m is None:
                raise ParseError("malformed dim line", lineno)
            if dim is not None:
                raise ParseError("duplicate dim line", lineno)
            digits = m.group(1).lstrip("0")
            if len(digits) > len(str(MAX_DIM)) or int(digits or 0) > MAX_DIM:
                raise ParseError(f"dim exceeds the limit of {MAX_DIM}", lineno)
            dim = int(digits or 0)
            continue

        if line.startswith("basis"):
            if dim is None:
                raise ParseError("basis line before dim", lineno)
            if labels is not None:
                raise ParseError("duplicate basis line", lineno)
            m = _BASIS_RE.fullmatch(line)
            if m is None:
                raise ParseError("malformed basis line", lineno)
            names = tuple(m.group(1).split())
            if len(names) != dim:
                raise ParseError(
                    f"basis needs exactly {dim} names, got {len(names)}", lineno
                )
            if len(set(names)) != len(names):
                raise ParseError("basis names must be unique", lineno)
            labels = names
            continue

        if line.startswith("["):
            if dim is None:
                raise ParseError("bracket line before dim", lineno)
            if (m := _BRACKET_RE.fullmatch(line)) is None:
                raise ParseError("malformed bracket line", lineno)
            try:
                i, j = int(m.group(1)), int(m.group(2))
                if not (1 <= i <= dim and 1 <= j <= dim):
                    raise ParseError(f"bracket index out of range in [{i},{j}]", lineno)
                if (key := (i, j) if i < j else (j, i)) in brackets:
                    raise ParseError(f"bracket pair ({i},{j}) already defined "
                                     "(in this or the reversed orientation)", lineno)
                terms, scale = _terms(m.group(3).strip(), dim, scale, lineno)
            except ValueError:  # from int(), past Python's int-string digit limit
                limit = sys.get_int_max_str_digits()
                raise ParseError(f"number exceeds the limit of {limit} digits", lineno) from None
            brackets[key] = i - 1, j - 1, terms, scale
            continue

        raise ParseError(f"unrecognized line {line!r}", lineno)

    if dim is None:
        raise ParseError("missing dim line")

    table = {(i, j): {k: x * (scale // s) for k, x in terms.items()} if s != scale else terms
             for i, j, terms, s in brackets.values()}
    algebra = LieAlgebra(StructureConstants.from_brackets(dim, table, scale), labels)
    report = algebra.validate()
    if not report.ok:
        raise InvalidAlgebraError(report)
    return algebra


def render_algebra(L: LieAlgebra, name: str | None = None) -> str:
    """Serialize an algebra so that parse_algebra round-trips it exactly."""
    lines = []
    if name:
        lines.append(f"# {name}")
    lines.append(f"dim {L.dim}")
    if L.labels:
        lines.append("basis " + " ".join(L.labels))
    for i, j, vec in L.constants.pairs():
        terms = " + ".join(
            f"{coeff}*e{k + 1}" for k, coeff in enumerate(vec) if coeff
        )
        lines.append(f"[{i + 1},{j + 1}] = {terms}")
    return "\n".join(lines) + "\n"

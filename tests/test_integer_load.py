"""The load path in integers: text to `parse_algebra` to `StructureConstants`.

`parse_algebra` reads each coefficient as integers and hands
`StructureConstants` numerators over one common scale; no `Fraction` is made
between the text and the stored table.  `reference.fraction_parse_algebra`
is the parser that read coefficients through `Fraction` and built the table
from those values.  The two are compared under hypothesis on valid files
(catalog renders, the bench's families in a rational basis, random `p/q`
spellings of the same constants) and on malformed ones: the constants and
labels, or the exception type and its message with its line, must agree.
`restrict` and `quotient` hand the constructor their integer numerators too,
and a pin test counts the `Fraction`s made on each of these paths.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from lieradicals import catalog, series
from lieradicals.algfile import InvalidAlgebraError, ParseError, parse_algebra, render_algebra
from lieradicals.core import StructureConstants

LIMIT = sys.get_int_max_str_digits()

_FAMILIES_PY = Path(__file__).resolve().parent.parent / "bench" / "families.py"


def _bench_families():
    spec = importlib.util.spec_from_file_location("bench_families", _FAMILIES_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


families = _bench_families()


def _bench_text(name: str, seed: int) -> str:
    """The file the benchmark writes for `name` in a seeded rational basis."""
    dim, table = families.build(name)
    table = families.rebase(dim, table, families.basis_change(dim, random.Random(seed)))
    return families.render(dim, table, name)


VALID_TEXTS = (
    [render_algebra(e.algebra, name=e.name) for e in catalog.entries()]
    + [_bench_text(name, seed) for name in ("sl2", "b3", "n4", "sl3", "gl3") for seed in (1, 2)]
)


def outcome(parse, text: str):
    """What a parser makes of the text: its constants and labels, or the
    type, message and line of the error it raises."""
    try:
        L = parse(text)
    except (ParseError, InvalidAlgebraError) as err:
        return type(err), str(err), getattr(err, "line", None)
    return L.constants, L.labels


def assert_same_outcome(text: str) -> None:
    assert outcome(parse_algebra, text) == outcome(reference.fraction_parse_algebra, text)


# -- explicit cases ---------------------------------------------------------------

CASES = [
    "dim 2\n[1,2] = 2/4*e1 + 6/4*e2\n",  # unreduced
    "dim 2\n[1,2] = -0*e1 + 0/7*e2\n",  # zeros, one with a denominator
    "dim 2\n[1,2] = -0/3*e1 + 1*e2\n",
    "dim 2\n[1,2] = 1/3*e1 + 2/3*e2 + -1/3*e1 + -2/6*e2 + 0*e1\n",  # repeated e_k ...
    "dim 2\n[1,2] = 1/2*e2 + -2/4*e2\n",  # ... summing to zero
    "dim 2\n[1,2] = 1/2*e2 + -2/4*e2\n[2,1] = 1*e1\n",  # a zero line still defines the pair
    "dim 2\n[1,2] = 007/0014*e2 + -000*e1\n[1,1] = 0/9*e2\n",  # leading zeros
    "dim 2\r\n[1,2] = 1/2*e1\r\n# c\r\n[2,2] = 0\r\n",  # CRLF, comments
    "dim\t2  # two\n[ 1 ,\t2 ]\t=\t1/2 *\te1\t+\t3*e2 # x\n",  # tabs
    "dim 2\n[1,2] =\u3000 1/2 *\u00a0e1 +\u2003-3*e2\n",  # Unicode whitespace
    "dim ٢\n[١,٢] = ١/٢*e١ + -٣*e٢\n",  # Arabic-Indic digits
    "dim ２\n[１,２] = ３/４*e２\n",  # fullwidth digits
    f"dim 2\n[1,2] = {'9' * LIMIT}/{'7' * LIMIT}*e1 + -{'1' * LIMIT}*e2\n",  # at the digit limit
    f"dim 2\n[1,2] = {'9' * (LIMIT + 1)}/0*e1\n",  # past it, before the zero denominator
    f"dim 2\n[1,2] = 1/{'0' * (LIMIT + 1)}*e1\n",
    f"dim 2\n[1,2] = 1/0*e{'1' * (LIMIT + 1)}\n",
    f"dim 2\n[1,2] = -{'0' * LIMIT}*e1\n",
    "dim 3\n[1,2] = 1/0*e1 + 1*e2 + 1*x3\n",  # zero denominator ahead of a malformed part 3
    "dim 3\n[1,2] = 1*x3 + 1/0*e1\n",  # and the other way round
    "dim 3\n[1,2] = 1*e1 + 1*e4 + 1/0*e2\n",  # out-of-range e_k ahead of a zero denominator
    "dim 3\n[1,2] = 1*e0\n",
    "dim 3\n[1,2] = 1/0*e4\n",  # the denominator is read before the index
    "dim 2\n[1,2] = 1/2/3*e1\n",
    "dim 2\n[1,2] = 1.5*e1\n",
    "dim 2\n[1,2] = +1*e1\n",
    "dim 2\n[1,2] = 1*e1 +\n",
    "dim 2\n[1,2] = 1*e1 ++ 1*e2\n",
    "dim 2\n[1,2] = 1*e1 2*e2\n",
    "dim 2\n[1,2] = 1*E1\n",
    "dim 2\n[1,2] = 0 + 1*e1\n",
    "dim 2\n[1,2] = 1*e1 + 0\n",
    "dim 2\n[1,2] = 00\n",
    "dim 2\n[1,2] = - 1*e1\n",
    "dim 2\n[1,2] = 1 /2*e1\n",
    "dim 2\n[1,2] = 1*e1\n[2,1] = 1*e1\n",
    "dim 2\n[1,3] = 1*e1\n",
    "dim 3\n[1,2] = 1*e1\n[2,3] = 1*e2\n[3,1] = 1*e3\n",  # Jacobi fails
    "dim 2\n[1,1] = 1/2*e2\n",  # antisymmetry fails
    "dim 3\nbasis x y z\n[3,1] = 1*e1\n[3,2] = 1*e1 + 1*e2\n",
]


@pytest.mark.parametrize("text", CASES)
def test_parse_matches_the_fraction_parser_on_listed_cases(text):
    assert_same_outcome(text)


@pytest.mark.parametrize("text", VALID_TEXTS)
def test_parse_matches_the_fraction_parser_on_valid_files(text):
    assert_same_outcome(text)


def test_dim_line_with_leading_zeros_past_the_digit_limit_parses():
    """`dim` is read from its digits without the leading zeros, which the
    limit check has already measured, so it cannot raise."""
    assert parse_algebra(f"dim {'0' * (LIMIT + 10)}3\n").dim == 3


# -- hypothesis: respelled valid files and malformed lines -------------------------

_WHITESPACE = st.sampled_from(["", " ", "  ", "\t", "\u00a0", "\u2003", "\u3000"])
_DIGIT_SETS = ("0123456789", "٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９")


@st.composite
def numeral(draw, value: int) -> str:
    """value's decimal digits, with leading zeros, in one of three digit sets."""
    digits = str(value).rjust(draw(st.integers(0, 3)) + len(str(value)), "0")
    table = str.maketrans("0123456789", draw(st.sampled_from(_DIGIT_SETS)))
    return digits.translate(table)


@st.composite
def spelled(draw, c: Fraction, k: int) -> list[str]:
    """Terms whose coefficients add up to c at e_k: c itself or c split in
    two, each written as p/q with a random common factor, or as an integer."""
    values = [c]
    if draw(st.booleans()):
        a = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 6)))
        values = [a, c - a]
    terms = []
    for v in values:
        f = draw(st.integers(1, 4))
        num, den = v.numerator * f, v.denominator * f
        sign = "-" if num < 0 or (num == 0 and draw(st.booleans())) else ""
        coeff = sign + draw(numeral(abs(num)))
        if den != 1 or draw(st.booleans()):
            coeff += "/" + draw(numeral(den))
        terms.append(coeff + draw(_WHITESPACE) + "*" + draw(_WHITESPACE) + "e" + draw(numeral(k)))
    return terms


@st.composite
def respelled(draw, text: str) -> str:
    """The file with every coefficient respelled, zero terms added, terms
    shuffled, and whitespace, comments and line ends varied."""
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    out = []
    for line in text.splitlines():
        if line.startswith("["):
            pair, rhs = line.split(" = ")
            terms = []
            for term in rhs.split(" + "):
                coeff, k = term.split("*e")
                terms += draw(spelled(Fraction(coeff), int(k)))
            if draw(st.booleans()):
                terms.append(draw(st.sampled_from(["0", "-0", "0/7"])) + f"*e{draw(st.integers(1, 2))}")
            terms = draw(st.permutations(terms))
            sep = draw(_WHITESPACE) + "+" + draw(_WHITESPACE)
            line = pair + draw(_WHITESPACE) + "=" + draw(_WHITESPACE) + sep.join(terms)
        if draw(st.booleans()):
            line += draw(_WHITESPACE) + "# note"
        out.append(line)
    return eol.join(out) + eol


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(VALID_TEXTS).flatmap(respelled))
def test_parse_matches_the_fraction_parser_on_respelled_files(text):
    got = outcome(parse_algebra, text)
    assert isinstance(got[0], StructureConstants)  # a respelled valid file stays valid
    assert got == outcome(reference.fraction_parse_algebra, text)


_TERM_ATOMS = st.sampled_from([
    "1*e1", "-1*e2", "1/2*e1", "-3/4*e2", "2/4*e1", "0*e1", "-0*e2", "0/7*e1", "007*e2",
    "1/0*e1", "0/0*e2", "1*e3", "1*e0", "-1/0*e9", "*e1", "1*e", "e1", "1.5*e1", "1/2/3*e1",
    "1 * e1", "1*E1", "+1*e1", "", " ", "x", "١/٢*e١", "1*e1 2",
    f"{'9' * LIMIT}*e1", f"1/{'9' * LIMIT}*e2", f"{'9' * (LIMIT + 1)}*e1",
    f"1/{'9' * (LIMIT + 1)}*e1", f"1*e{'1' * (LIMIT + 1)}",
])


@st.composite
def malformed_file(draw) -> str:
    """A dim-2 file (every antisymmetric dim-2 table satisfies Jacobi) whose
    lines mix good and bad terms, pairs, and other lines."""
    lines = [draw(st.sampled_from(["dim 2", "dim 02", "basis a b"]))]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.integers(0, 3))
        if kind == 3:
            lines.append(draw(st.text(alphabet="[]=,+*/e0123 #\t-", max_size=12)))
            continue
        pair = draw(st.sampled_from(["[1,2]", "[2,1]", "[1,1]", "[2, 2]", "[1,3]", "[0,1]"]))
        terms = draw(st.lists(_TERM_ATOMS, min_size=1, max_size=4))
        sep = draw(st.sampled_from(["+", " + ", "\t+ "]))
        rhs = draw(st.sampled_from(["0", sep.join(terms)]))
        lines.append(f"{pair} = {rhs}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(malformed_file())
@example("dim 2\n[1,2] = 1/0*e1 + 1*e2 + 1*x3\n")
def test_parse_matches_the_fraction_parser_on_malformed_files(text):
    assert_same_outcome(text)


# -- the constructor's one normalisation ------------------------------------------


@pytest.mark.parametrize("dim,table,scale,fractions", [
    # D is the lcm of the reduced denominators: 2/4 = 1/2 and 3/4
    (3, {(0, 1): {0: 2, 2: 3}}, 4, {(0, 1): (Fraction(1, 2), 0, Fraction(3, 4))}),
    # a scale sharing a factor with every numerator: 6/8 and 4/8
    (2, {(0, 1): {0: 6, 1: 4}}, 8, {(0, 1): (Fraction(3, 4), Fraction(1, 2))}),
    (2, {(0, 1): {0: 6, 1: 4}}, 2, {(0, 1): (3, 2)}),
    # an all-zero row is dropped, with and without zero entries
    (3, {(0, 1): {0: 0}, (0, 2): {1: 3}, (1, 2): {}}, 6,
     {(0, 1): (0, 0, 0), (0, 2): (0, Fraction(1, 2), 0), (1, 2): (0, 0, 0)}),
    (2, {}, 5, {}),
])
def test_constructor_normalises_numerators_over_a_scale(dim, table, scale, fractions):
    made = StructureConstants.from_brackets(dim, table, scale)
    assert made == reference.fraction_from_brackets(dim, fractions)
    assert made == StructureConstants.from_brackets(dim, fractions)
    assert all(made.adjoint[i] for i, j in fractions if any(fractions[i, j]))
    assert all(j not in made.adjoint[i] for (i, j), v in fractions.items() if not any(v))


def test_constructor_takes_int_fraction_and_str_values_alike():
    spellings = [
        {(0, 1): (0, Fraction(1, 2), Fraction(-3, 4))},
        {(0, 1): {1: "1/2", 2: "-6/8"}},
        {(0, 1): {1: Fraction(2, 4), 2: "-3/4", 0: 0}},
    ]
    want = reference.fraction_from_brackets(3, spellings[0])
    assert want.denominator == 4 and want.adjoint[0][1] == {1: 2, 2: -3}
    for table in spellings:
        assert StructureConstants.from_brackets(3, table) == want
    assert StructureConstants.from_brackets(3, {(0, 1): {1: 2, 2: -3}}, 4) == want


# -- no Fraction on the load path ---------------------------------------------------


class _Counted(Fraction):
    """Fraction that counts the instances made through the patched names."""

    made = 0

    def __new__(cls, *args, **kwargs):
        _Counted.made += 1
        return super().__new__(cls, *args, **kwargs)


@pytest.fixture
def fractions_made(monkeypatch):
    """Patch every module-level `Fraction` name of the package; yield a
    function that reads how many were made since."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lieradicals" and hasattr(module, "Fraction"):
            monkeypatch.setattr(module, "Fraction", _Counted)
    start = _Counted.made
    yield lambda: _Counted.made - start


@pytest.mark.parametrize("name", ["rational-n5", "rational-gl3"])
def test_parse_makes_no_fraction(name, fractions_made):
    text = render_algebra(reference.build(name))
    want = reference.fraction_parse_algebra(text)
    assert fractions_made() > 0  # the patched names see the Fraction path
    before = fractions_made()
    L = parse_algebra(text)
    assert fractions_made() == before
    assert L.constants == want.constants


def test_restrict_and_quotient_make_no_fraction(fractions_made):
    L = reference.build("rational-gl3")
    derived = series.derived_subalgebra(L)
    center = series.center(L)
    assert derived.dim == 8 and center.dim == 1
    want_sub = reference.fraction_restrict(L, derived)
    want_quotient, _ = reference.dense_quotient(L, center)
    before = fractions_made()
    sub, quotient = L.restrict(derived), L.quotient(center)
    assert fractions_made() == before
    assert sub == want_sub
    assert quotient == want_quotient

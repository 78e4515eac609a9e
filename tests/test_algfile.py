import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lieradicals import catalog
from lieradicals.algfile import (
    MAX_DIM,
    InvalidAlgebraError,
    ParseError,
    parse_algebra,
    render_algebra,
)
from lieradicals.core import LieAlgebra, StructureConstants

S32_TEXT = """\
# solvable example
dim 3
basis x y z

[3,1] = 1*e1
[3,2] = 1*e1 + 1*e2
"""


def test_parse_s32(s32):
    L = parse_algebra(S32_TEXT)
    assert L.labels == ("x", "y", "z")
    assert L.constants == s32.constants


def test_parse_bare_dim_is_abelian():
    L = parse_algebra("dim 2\n")
    assert L.dim == 2
    assert L.labels == ("e1", "e2")
    assert L.constants == StructureConstants.from_brackets(2, {})


def test_parse_zero_rhs_and_crlf():
    L = parse_algebra("dim 2\r\n[1,2] = 0\r\n")
    assert L.constants == StructureConstants.from_brackets(2, {})


def test_parse_rational_coefficients():
    L = parse_algebra("dim 2\n[1,2] = 1/2*e1 + -2*e2\n")
    assert L.constants.bracket_basis(0, 1) == (Fraction(1, 2), Fraction(-2))


def test_parse_repeated_term_coefficients_accumulate():
    L = parse_algebra("dim 2\n[1,2] = 1*e1 + 1*e1\n")
    assert L.constants.bracket_basis(0, 1) == (Fraction(2), Fraction(0))


def test_parse_cancelling_terms_store_no_bracket():
    L = parse_algebra("dim 2\n[1,2] = 1*e1 + -1*e1\n")
    assert L.constants.adjoint == ({}, {})


def test_parse_repeated_terms_store_their_sum():
    L = parse_algebra("dim 2\n[1,2] = 1*e1 + 1*e1\n")
    assert L.constants.adjoint == ({1: {0: 2}}, {0: {0: -2}})


@pytest.mark.parametrize("rhs,want", [
    ("-0*e1", ()),
    ("-0*e1 + 1*e2", ((1, 1),)),
    ("007*e1", ((0, 7),)),
    ("-007*e2 + 0*e1", ((1, -7),)),
    ("1*e1 + 1/2*e1", ((0, Fraction(3, 2)),)),
    ("0/5*e1 + 2/2*e2", ((1, 1),)),
])
def test_integer_coefficients_parse_as_fractions_do(rhs, want):
    """An integer coefficient is read with int(), a p/q one with Fraction();
    both give the table the Fraction spelling of the same numbers gives."""
    L = parse_algebra(f"dim 2\n[1,2] = {rhs}\n")
    expected = StructureConstants.from_brackets(2, {(0, 1): dict(want)} if want else {})
    assert L.constants == expected
    spelled = " + ".join(f"{Fraction(c)}*e{k + 1}" for k, c in want) or "0"
    assert L.constants == parse_algebra(f"dim 2\n[1,2] = {spelled}\n").constants


@pytest.mark.parametrize("coefficient", ["-" + "9" * 5000, "0" + "1" * 5000])
def test_over_long_integer_coefficient_is_a_parse_error(coefficient):
    with pytest.raises(ParseError) as err:
        parse_algebra(f"dim 2\n[1,2] = 1*e2 + {coefficient}*e1\n")
    assert str(err.value) == (
        f"line 2: number exceeds the limit of {sys.get_int_max_str_digits()} digits")


def test_zero_denominator_text_is_unchanged():
    with pytest.raises(ParseError) as err:
        parse_algebra("dim 2\n[1,2] = -3/0*e1\n")
    assert str(err.value) == "line 2: zero denominator in '-3/0*e1'"


def test_duplicate_bracket_either_orientation():
    with pytest.raises(ParseError) as err:
        parse_algebra("dim 3\n[1,2] = 1*e1\n[2,1] = 1*e1\n")
    assert err.value.line == 3
    assert "already defined" in str(err.value)


def test_duplicate_same_orientation():
    with pytest.raises(ParseError):
        parse_algebra("dim 3\n[1,2] = 1*e1\n[1,2] = 2*e1\n")


def test_syntax_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_algebra("dim 2\n[1,2] = e1\n")  # bare e1 is not a term
    assert err.value.line == 2


@pytest.mark.parametrize("rhs", ["+1*e2", "1*e1 +", "1*e1 + + 1*e2"])
def test_empty_term_is_a_parse_error_naming_the_right_hand_side(rhs):
    with pytest.raises(ParseError) as err:
        parse_algebra(f"dim 2\n[1,2] = {rhs}\n")
    assert err.value.line == 2
    assert str(err.value) == f"line 2: malformed term '' in {rhs!r}"


def test_zero_denominator_is_a_parse_error_with_line_number():
    with pytest.raises(ParseError) as err:
        parse_algebra("dim 2\n[1,2] = 1*e2 + 1/0*e1\n")
    assert err.value.line == 2
    assert "zero denominator" in str(err.value)


@pytest.mark.parametrize("value", ["257", "99999999999", "9" * 5000])
def test_dim_above_the_limit_is_a_parse_error(value):
    with pytest.raises(ParseError) as err:
        parse_algebra(f"# big\ndim {value}\n")
    assert err.value.line == 2
    assert f"limit of {MAX_DIM}" in str(err.value)


@pytest.mark.parametrize("line", [
    "[1,2] = " + "1" * 5000 + "*e1",
    "[1,2] = 1/" + "7" * 5000 + "*e1",
    "[1,2] = 1*e" + "1" * 5000,
    "[" + "1" * 5000 + ",2] = 1*e1",
], ids=["coefficient", "denominator", "basis-index", "bracket-index"])
def test_number_past_the_int_string_limit_is_a_parse_error(line):
    with pytest.raises(ParseError) as err:
        parse_algebra(f"dim 2\n{line}\n")
    assert err.value.line == 2
    assert f"limit of {sys.get_int_max_str_digits()} digits" in str(err.value)


def test_number_under_the_int_string_limit_parses():
    big = 10 ** 4000 + 1
    L = parse_algebra(f"dim 2\n[1,2] = {big}*e1\n")
    assert L.constants.bracket_basis(0, 1) == (big, 0)


def test_dim_at_the_limit_parses():
    assert MAX_DIM == 256
    assert parse_algebra(f"dim 0{MAX_DIM}\n").dim == MAX_DIM


def test_unrecognized_line():
    with pytest.raises(ParseError) as err:
        parse_algebra("dim 2\nhello world\n")
    assert err.value.line == 2


def test_index_out_of_range():
    with pytest.raises(ParseError) as err:
        parse_algebra("dim 2\n[1,3] = 1*e1\n")
    assert "out of range" in str(err.value)
    with pytest.raises(ParseError):
        parse_algebra("dim 2\n[1,2] = 1*e3\n")


def test_missing_dim():
    with pytest.raises(ParseError):
        parse_algebra("basis a b\n")
    with pytest.raises(ParseError):
        parse_algebra("")


def test_bracket_before_dim():
    with pytest.raises(ParseError) as err:
        parse_algebra("[1,2] = 1*e1\ndim 2\n")
    assert err.value.line == 1


def test_duplicate_dim():
    with pytest.raises(ParseError):
        parse_algebra("dim 2\ndim 2\n")


def test_basis_arity_and_uniqueness():
    with pytest.raises(ParseError):
        parse_algebra("dim 3\nbasis a b\n")
    with pytest.raises(ParseError):
        parse_algebra("dim 2\nbasis a a\n")


def test_jacobi_violation_fails_parse_with_triple():
    text = "dim 3\n[1,2] = 1*e1\n[2,3] = 1*e2\n[3,1] = 1*e3\n"
    with pytest.raises(InvalidAlgebraError) as err:
        parse_algebra(text)
    assert err.value.report.kind == "jacobi"
    assert err.value.report.indices == (1, 2, 3)


def test_nonzero_self_bracket_fails_validation():
    with pytest.raises(InvalidAlgebraError) as err:
        parse_algebra("dim 2\n[1,1] = 1*e2\n")
    assert err.value.report.kind == "antisymmetry"


def test_round_trip_every_catalog_entry():
    for entry in catalog.entries():
        text = render_algebra(entry.algebra, name=entry.name)
        back = parse_algebra(text)
        assert back.constants == entry.algebra.constants, entry.name
        assert back.labels == entry.algebra.labels


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(catalog.entries()), st.data())
def test_round_trip_catalog_entry_with_any_labels_the_constructor_accepts(entry, data):
    L = entry.algebra
    labels = data.draw(st.lists(st.text(max_size=4), min_size=L.dim, max_size=L.dim))
    try:
        relabelled = LieAlgebra(L.constants, labels)
    except ValueError:
        assume(False)
    assert parse_algebra(render_algebra(relabelled, name=entry.name)) == relabelled


def test_round_trip_dimension_zero():
    L = LieAlgebra.from_brackets(0, {})
    text = render_algebra(L)
    assert text == "dim 0\n"
    assert parse_algebra(text) == L

import gc
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lieradicals
import lieradicals.cli as cli
from lieradicals import catalog
from lieradicals.algfile import parse_algebra
from lieradicals.cli import main
from lieradicals.oracle import PROPOSITION_IDS, PropositionCheck, TheoremReport

GOOD = "dim 3\nbasis x y z\n[3,1] = 1*e1\n[3,2] = 1*e1 + 1*e2\n"
BAD_SYNTAX = "dim 2\nwat\n"
BAD_JACOBI = "dim 3\n[1,2] = 1*e1\n[2,3] = 1*e2\n[3,1] = 1*e3\n"


@pytest.fixture
def good_file(tmp_path):
    p = tmp_path / "s32.alg"
    p.write_text(GOOD)
    return str(p)


def test_analyze_text_output(good_file, capsys):
    assert main(["analyze", good_file]) == 0
    out = capsys.readouterr().out
    assert "flags: solvable=true nilpotent=false" in out
    assert "near_perfect_radical     dim 2" in out
    assert "radical                  dim 3" in out
    assert "basis: x; y" in out


def test_analyze_text_output_dimension_zero(tmp_path, capsys):
    p = tmp_path / "zero.alg"
    p.write_text("dim 0\n")
    assert main(["analyze", str(p)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["dim 0", "basis"]
    assert all(line == line.rstrip() for line in lines)


@pytest.mark.parametrize("row,text", [
    ((1, 1, 0), "x + -y"),
    ((1, -1, 0), "x - -y"),
    ((-1, 0, 1), "-x + z"),
    ((Fraction(-3, 2), 0, 2), "-3/2*x + 2*z"),
    ((0, Fraction(1, 2), Fraction(-2, 3)), "1/2*-y - 2/3*z"),
    ((0, 0, 0), "0"),
])
def test_format_vector_signs_each_term_and_leaves_labels_as_given(row, text):
    assert cli.format_vector(row, ("x", "-y", "z")) == text


def test_analyze_text_keeps_a_label_that_starts_with_minus(tmp_path, capsys):
    p = tmp_path / "minus.alg"
    p.write_text("dim 2\nbasis x -y\n[1,2] = 1*e1 + 1*e2\n")
    assert main(["analyze", str(p)]) == 0
    out = capsys.readouterr().out
    assert "near_perfect_radical     dim 1  basis: x + -y\n" in out
    assert " - y" not in out


def test_analyze_json_schema(good_file, capsys):
    assert main(["analyze", good_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data) == [
        "dim",
        "series",
        "perfect_radical",
        "near_perfect_radical",
        "radical",
        "center",
        "smallest_upper_bounded",
        "flags",
    ]
    assert data["dim"] == 3
    assert list(data["series"]) == ["derived", "lower_central", "upper_central"]
    assert [t["dim"] for t in data["series"]["derived"]] == [3, 2, 0]
    assert data["perfect_radical"]["dim"] == 0
    assert data["near_perfect_radical"]["dim"] == 2
    assert data["radical"]["dim"] == 3
    assert data["smallest_upper_bounded"]["dim"] == 0
    assert data["flags"] == {
        "solvable": True,
        "nilpotent": False,
        "perfect": False,
        "abelian": False,
        "semisimple": False,
    }


def test_json_output_is_byte_stable(good_file, capsys):
    main(["analyze", good_file, "--json"])
    first = capsys.readouterr().out
    main(["analyze", good_file, "--json"])
    second = capsys.readouterr().out
    assert first == second

    main(["verify", good_file, "--samples", "10", "--seed", "4", "--json"])
    v1 = capsys.readouterr().out
    main(["verify", good_file, "--samples", "10", "--seed", "4", "--json"])
    v2 = capsys.readouterr().out
    assert v1 == v2


# -- `_dump_json` against `json.dumps(obj, indent=2)`, its reference ------------

#: Text with quotes, backslashes, newlines, other control characters, a lone
#: surrogate and non-ASCII characters, beside any other character.
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f\u2028\ud800é€😀'),
                          st.characters()), max_size=8)
_SCALARS = st.one_of(_TEXT, st.none(), st.booleans(), st.integers(),
                     st.integers(-2**200, 2**200), st.sampled_from([True, False, 1, 0]),
                     st.floats())
#: JSON trees with `str` keys; lists, tuples and dicts of any size, empty ones included.
_TREES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple),
                            st.dictionaries(_TEXT, inner, max_size=5)),
    max_leaves=40,
)


def _stdlib_dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


@settings(max_examples=250, deadline=None)
@given(_TREES)
def test_dump_json_is_the_indented_stdlib_dump(obj):
    assert cli._dump_json(obj) == _stdlib_dump(obj)


@settings(deadline=None)
@given(st.lists(st.sampled_from([True, False, 1, 0, 1.0, 0.0, None]), min_size=1), _TREES)
def test_dump_json_tells_bools_from_ints_in_one_list(flags, tree):
    obj = {"flags": flags, "tree": [tree, flags]}
    assert cli._dump_json(obj) == _stdlib_dump(obj)


@settings(deadline=None)
@given(st.lists(_TREES, max_size=4), _TREES)
def test_dump_json_renders_one_list_object_at_two_depths(items, tree):
    """The same list object at depths 1, 3 and 4: it is rendered once, and
    indented where each place puts it."""
    shared = list(items)
    obj = {"a": shared, "b": [tree, {"c": shared, "d": [[shared], ()]}], "e": {}}
    assert cli._dump_json(obj) == _stdlib_dump(obj)


def test_dump_json_leaves_no_reference_cycle(sl2):
    """The renderer is a closure that calls itself, and the texts it made are
    held by it; `_dump_json` breaks that cycle, so they are freed when it
    returns, not whenever the cyclic collector next runs."""
    obj = cli.profile_json(sl2, lieradicals.profile(sl2))
    want = _stdlib_dump(obj)  # json's own encoder leaves cycles of its own
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert cli._dump_json(obj) == want
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("obj", [
    {}, [], {"": []}, {"a": {}, "b": (), "c": [[]]},
    {"k": ["x\ny", '"q"', "\\", "\x00\x1f", "é€😀", ""]},
    {"n": [10**100, -(10**100), -1, 0.5, float("inf"), float("nan"), -0.0]},
    {"f": {"solvable": True, "nilpotent": False}, "w": None, "v": [1, True, 0, False]},
])
def test_dump_json_fixed_trees(obj):
    assert cli._dump_json(obj) == _stdlib_dump(obj)


def test_dump_json_refuses_a_key_that_is_not_a_string():
    """json.dumps would write the key 1 as "1"; the renderer takes `str` keys only."""
    with pytest.raises(TypeError):
        cli._dump_json({"a": [{1: "x"}]})


@pytest.mark.parametrize("brackets,center,derived", [
    ("", 256, [256, 0]),
    ("[1,2] = 1*e3\n", 254, [256, 1, 0]),
])
def test_analyze_json_at_dim_256(tmp_path, capsys, brackets, center, derived):
    p = tmp_path / "wide.alg"
    p.write_text("dim 256\n" + brackets)
    assert main(["analyze", "--json", str(p)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dim"] == 256
    assert [t["dim"] for t in data["series"]["derived"]] == derived
    assert [t["dim"] for t in data["series"]["lower_central"]] == derived
    assert data["center"]["dim"] == center
    assert data["radical"]["dim"] == 256 and data["perfect_radical"]["dim"] == 0
    assert data["flags"]["abelian"] == (not brackets) and data["flags"]["nilpotent"]


def test_analyze_parse_error_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.alg"
    p.write_text(BAD_SYNTAX)
    assert main(["analyze", str(p)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_analyze_invalid_algebra_exit_1(tmp_path, capsys):
    p = tmp_path / "jacobi.alg"
    p.write_text(BAD_JACOBI)
    assert main(["analyze", str(p)]) == 1
    assert "Jacobi" in capsys.readouterr().err


def test_analyze_zero_denominator_exit_2(tmp_path, capsys):
    p = tmp_path / "zero.alg"
    p.write_text("dim 2\n[1,2] = 1/0*e1\n")
    assert main(["analyze", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: line 2: zero denominator")


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_samples_below_one_is_a_usage_error(good_file, samples, capsys):
    assert main(["verify", good_file, "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --samples must be at least 1, got {samples}\n"


@pytest.mark.parametrize("samples", ["10001", "99999999999999999999999"])
def test_verify_samples_above_the_limit_is_a_usage_error(samples, capsys):
    # The bound is checked before the file is read, so no file is needed.
    assert main(["verify", "/nonexistent/nope.alg", "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --samples must be at most 10000, got {samples}\n"


def test_analyze_missing_file_exit_2(capsys):
    assert main(["analyze", "/nonexistent/nope.alg"]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_non_utf8_file_exit_2(tmp_path, command, capsys):
    p = tmp_path / "utf16.alg"
    p.write_bytes(b"\xff\xfe" + "dim 1\n".encode("utf-16-le"))
    assert main([command, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {p}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_byte_order_mark_and_crlf_are_read_as_plain_utf8(tmp_path, command, capsys):
    plain, marked = tmp_path / "plain.alg", tmp_path / "bom.alg"
    plain.write_bytes(GOOD.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + GOOD.replace("\n", "\r\n").encode("utf-8"))
    outputs = []
    for p in (plain, marked):
        assert main([command, str(p), "--json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_dim_above_the_limit_exit_2(tmp_path, command, capsys):
    p = tmp_path / "huge.alg"
    p.write_text("dim 99999999999\n")
    assert main([command, str(p)]) == 2
    assert capsys.readouterr().err == "error: line 1: dim exceeds the limit of 256\n"


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_number_past_the_int_string_limit_exit_2(tmp_path, command, capsys):
    p = tmp_path / "digits.alg"
    p.write_text("dim 2\n[1,2] = " + "1" * 5000 + "*e1\n")
    assert main([command, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    limit = sys.get_int_max_str_digits()
    assert captured.err == f"error: line 2: number exceeds the limit of {limit} digits\n"


def _huge_rref_file(tmp_path) -> Path:
    """A valid dim-4 algebra whose derived algebra has RREF entries of ~6,000
    digits: [e4, e1] and [e4, e2] are random 3,000-digit combinations of e1-e3."""
    rng = random.Random(4300)
    lines = ["dim 4"]
    for i in (1, 2):
        terms = " + ".join(f"{rng.randrange(10**2999, 10**3000)}*e{k}" for k in (1, 2, 3))
        lines.append(f"[4,{i}] = {terms}")
    p = tmp_path / "huge-rref.alg"
    p.write_text("\n".join(lines) + "\n")
    return p


@pytest.mark.parametrize("as_json", [True, False])
def test_analyze_refuses_a_result_past_the_int_string_limit(tmp_path, as_json, capsys):
    p = _huge_rref_file(tmp_path)
    limit = sys.get_int_max_str_digits()
    L = parse_algebra(p.read_text())  # every numeral is within the limit
    derived = L.bracket_spaces(L.full_space(), L.full_space())
    assert max(x.numerator.bit_length() for x in derived.basis.entries) * 0.30103 > limit
    assert main(["analyze", str(p), *(["--json"] if as_json else [])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot print the result: a coefficient has more than {limit} digits\n"
    )
    assert sys.get_int_max_str_digits() == limit  # the limit stays in force
    # The refusal is about printing: verify reports no coefficient and passes.
    assert main(["verify", str(p), "--samples", "3"]) == 0


def test_verify_good_file(good_file, capsys):
    assert main(["verify", good_file, "--samples", "20", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    for pid in PROPOSITION_IDS:
        assert pid in out
    assert "violations: 0" in out


def test_verify_json(good_file, capsys):
    assert main(
        ["verify", good_file, "--samples", "10", "--seed", "7", "--json"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert [r["id"] for r in data["results"]] == list(PROPOSITION_IDS)
    assert data["violations"] == 0
    assert data["samples"] == 10
    assert data["seed"] == 7


def test_verify_invalid_algebra_exit_1_before_checks(tmp_path, capsys):
    p = tmp_path / "jacobi.alg"
    p.write_text(BAD_JACOBI)
    assert main(["verify", str(p)]) == 1
    assert capsys.readouterr().out == ""


def test_verify_violation_exit_3(good_file, monkeypatch, capsys):
    # A violation can only come from a bug, so fake one to pin the exit code.
    def fake_verify(L, samples=50, seed=0):
        checks = tuple(
            PropositionCheck(pid, "violated" if pid == "P2.5" else "holds")
            for pid in PROPOSITION_IDS
        )
        return TheoremReport(L.dim, samples, seed, "fake", checks)

    monkeypatch.setattr(cli, "verify_theorems", fake_verify)
    assert main(["verify", good_file]) == 3
    assert "violations: 1" in capsys.readouterr().out


def test_catalog_listing(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out.split()
    assert out == list(catalog.names())
    for required in ("s3_2", "sl2", "heis3"):
        assert required in out


def test_catalog_export_round_trips(tmp_path, capsys):
    assert main(["catalog", "s3_2"]) == 0
    text = capsys.readouterr().out
    p = tmp_path / "exported.alg"
    p.write_text(text)

    assert main(["analyze", str(p), "--json"]) == 0
    exported = json.loads(capsys.readouterr().out)

    from lieradicals.cli import profile_json
    from lieradicals.series import profile

    entry = catalog.get("s3_2")
    builtin = profile_json(entry.algebra, profile(entry.algebra))
    assert exported == builtin


def test_catalog_unknown_exit_2(capsys):
    assert main(["catalog", "nosuch"]) == 2
    assert "unknown algebra" in capsys.readouterr().err


def test_usage_error_exit_2(capsys):
    assert main([]) == 2
    assert main(["analyze"]) == 2


_CALLS_SCRIPT = """
import contextlib, io, json, sys
from lieradicals.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    results.append([rc, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _main_calls(argvs: list) -> list:
    """(exit code, stdout, stderr) of each `main(argv)`, in sequence in one new process."""
    src = str(Path(lieradicals.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), COLUMNS="80")
    proc = subprocess.run([sys.executable, "-c", _CALLS_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def test_parser_is_built_once_and_reused_calls_match_fresh_processes(good_file):
    assert cli._build_parser() is cli._build_parser()
    argvs = [
        ["analyze"],
        ["--help"],
        ["verify", good_file, "--samples", "0"],
        ["analyze", good_file, "--json"],
        ["verify", good_file, "--json"],
        ["catalog"],
    ]
    in_sequence = _main_calls(argvs)
    assert [rc for rc, _, _ in in_sequence] == [2, 0, 2, 0, 0, 0]
    assert in_sequence == [_main_calls([argv])[0] for argv in argvs]


def test_module_entry_point_runs():
    # Run the package under test, wherever it was imported from.
    src = str(Path(lieradicals.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-m", "lieradicals", "catalog"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "s3_2" in proc.stdout

"""Byte-for-byte gate on the CLI's output.

Each file under `tests/golden/` holds the exact stdout of one command:
`analyze --json` on every catalog entry and on the matrix-unit algebras in
`ANALYZE_FAMILIES`, some of them in a dense rational basis,
`verify --json --samples 50 --seed 0` on every catalog entry and on the
random-corpus algebras `random-<k>`, the k-th of
`oracle.random_algebras(RANDOM_COUNT, 4, seed=0)`, and
`verify --json --samples 10 --seed 0` on the larger algebras in
`VERIFY_FAMILIES`, where P3.4, T2.6c and E2.2 have real work to do.  The
`.txt` files hold the text output of `analyze` and of
`verify --samples 50 --seed 0` on every catalog entry.  Any change to a
computed subspace, flag, witness or to the rendering shows up here as a
diff.  To rewrite the files after an intended output change, run
`PYTHONPATH=src python tests/test_golden.py`.
"""

from __future__ import annotations

import contextlib
import io
import sys
from functools import cache
from pathlib import Path

import pytest

from lieradicals import catalog, oracle
from lieradicals.algfile import render_algebra
from lieradicals.cli import main

import reference

GOLDEN = Path(__file__).resolve().parent / "golden"
ANALYZE_FAMILIES = ("sl3", "gl3", "b4", "n5", "gl4", *reference.RATIONAL)
VERIFY_FAMILIES = ("b4", "n5", "gl4", "rational-b3", "rational-n5", "rational-gl3")
VERIFY_ARGS = ("--samples", "50", "--seed", "0")
VERIFY_FAMILY_ARGS = ("--samples", "10", "--seed", "0")
RANDOM_COUNT = 12
RANDOM = tuple(f"random-{k}" for k in range(RANDOM_COUNT))


def _cases() -> list[tuple[str, str, str]]:
    """(case name, command, source name) for every JSON golden file."""
    cases = [(f"analyze-{n}", "analyze", n) for n in catalog.names()]
    cases += [(f"analyze-{n}", "analyze", n) for n in ANALYZE_FAMILIES]
    cases += [(f"verify-{n}", "verify", n) for n in catalog.names()]
    cases += [(f"verify-{n}", "verify", n) for n in VERIFY_FAMILIES]
    cases += [(f"verify-{n}", "verify", n) for n in RANDOM]
    return cases


def _text_cases() -> list[tuple[str, str, str]]:
    """(case name, command, source name) for every text golden file."""
    return [(f"{c}-{n}", c, n) for c in ("analyze", "verify") for n in catalog.names()]


@cache
def _random_corpus() -> tuple:
    return tuple(oracle.random_algebras(RANDOM_COUNT, 4, seed=0))


def _algebra_text(source: str) -> str:
    if source in catalog.names():
        entry = catalog.get(source)
        return render_algebra(entry.algebra, name=entry.name)
    if source in RANDOM:
        return render_algebra(_random_corpus()[RANDOM.index(source)], name=source)
    return render_algebra(reference.build(source), name=source)


def run_case(command: str, source: str, workdir: Path, as_json: bool = True) -> str:
    path = workdir / f"{source}.alg"
    path.write_text(_algebra_text(source))
    args = ["--json"] if as_json else []
    if command == "verify":
        args += VERIFY_FAMILY_ARGS if source in VERIFY_FAMILIES else VERIFY_ARGS
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, str(path), *args])
    assert code == 0, (command, source, code)
    return out.getvalue()


@pytest.mark.parametrize(
    "name,command,source", _cases(), ids=[c[0] for c in _cases()]
)
def test_output_matches_golden_file(name, command, source, tmp_path):
    expected = (GOLDEN / f"{name}.json").read_text()
    assert run_case(command, source, tmp_path) == expected


@pytest.mark.parametrize(
    "name,command,source", _text_cases(), ids=[c[0] for c in _text_cases()]
)
def test_text_output_matches_golden_file(name, command, source, tmp_path):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert run_case(command, source, tmp_path, as_json=False) == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for cases, suffix, as_json in ((_cases(), "json", True), (_text_cases(), "txt", False)):
            for name, command, source in cases:
                text = run_case(command, source, Path(tmp), as_json)
                (GOLDEN / f"{name}.{suffix}").write_text(text)
                print(f"wrote {name}.{suffix}", file=sys.stderr)

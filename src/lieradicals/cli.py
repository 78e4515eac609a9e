"""Command line interface: analyze, verify, catalog.

Exit codes: 0 success, 1 invalid algebra (axioms fail), 2 parse/usage error or
a result too long to print, 3 structure-law violation (which would mean a bug
in this package).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from typing import Sequence

from . import catalog as _catalog
from .algfile import InvalidAlgebraError, ParseError, parse_algebra, render_algebra
from .core import LieAlgebra
from .oracle import MAX_SAMPLES, TheoremReport, verify_theorems
from .series import ProfileReport, profile
from .subspace import Subspace

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_VIOLATED = 3

_encode = json.encoder.encode_basestring_ascii  # C: one JSON string, ASCII only


# -- rendering helpers ---------------------------------------------------------


def format_vector(row: Sequence[Fraction], labels: Sequence[str]) -> str:
    text = ""
    for c, label in zip(row, labels):
        if c == 0:
            continue
        term = label if abs(c) == 1 else f"{abs(c)}*{label}"
        sign = "-" if c < 0 else "+"  # per term, so a label's own "-" stays
        text = f"{text} {sign} {term}" if text else term if c > 0 else f"-{term}"
    return text or "0"


def _format_subspace(s: Subspace, labels: Sequence[str]) -> str:
    if s.is_zero():
        return "(zero)"
    return "; ".join(format_vector(row, labels) for row in s.rows())


def _subspace_json(s: Subspace) -> dict:
    basis = [["0"] * s.ambient_dim for _ in s.pivots]
    for row, r, p in zip(basis, s.int_rows, s.pivots):  # RREF row = r / r[p]: only r's entries
        for k, x in r.items():
            row[k] = str(x) if r[p] == 1 else str(Fraction(x, r[p]))
    return {"dim": s.dim, "basis": basis}


def profile_json(L: LieAlgebra, prof: ProfileReport) -> dict:
    done: dict[int, dict] = {}  # by id: a subspace reported twice is built once

    def sub(s: Subspace) -> dict:
        return done.get(id(s)) or done.setdefault(id(s), _subspace_json(s))

    return {
        "dim": L.dim,
        "series": {k: [sub(t) for t in rep.chain] for k, rep in prof.series().items()},
        **{k: sub(s) for k, s in prof.subspaces().items()},
        "flags": prof.flags(),
    }


def report_json(report: TheoremReport) -> dict:
    return {
        "dim": report.dim,
        "samples": report.samples,
        "seed": report.seed,
        "note": report.note,
        "results": [
            {
                "id": c.prop_id,
                "status": c.status,
                "detail": c.detail,
                "witness": c.witness_dict(),
            }
            for c in report.checks
        ],
        "violations": len(report.violated),
    }


def _dump_json(obj: dict) -> str:
    """`json.dumps` with a two-space indent, and a newline, without its Python
    encoder: each container is rendered once, unindented, and its parent puts two
    spaces after each newline (encoded strings hold none).  Keys must be `str`."""
    done: dict[int, str] = {}  # by id: obj outlives the call, so ids stay unique

    def render(x) -> str:
        if isinstance(x, str):
            return _encode(x)
        if x is None or x is True or x is False:
            return "null" if x is None else "true" if x else "false"
        if not isinstance(x, (list, tuple, dict)):
            return json.dumps(x)
        if id(x) not in done:
            if not x:
                text = "{}" if isinstance(x, dict) else "[]"
            elif isinstance(x, dict):
                body = ",\n".join(f"{_encode(k)}: {render(v)}" for k, v in x.items())
                text = "{\n  " + body.replace("\n", "\n  ") + "\n}"
            else:
                try:  # strings only, all in C: _encode refuses anything else
                    text = "[\n  " + ",\n  ".join(map(_encode, x)) + "\n]"
                except TypeError:
                    text = "[\n  " + ",\n".join(map(render, x)).replace("\n", "\n  ") + "\n]"
            done[id(x)] = text
        return done[id(x)]

    text = render(obj) + "\n"
    del render  # it calls itself: break that cycle, so `done` goes now, not at the next gc
    return text


def _profile_text(L: LieAlgebra, prof: ProfileReport) -> str:
    labels = L.labels
    flags = " ".join(f"{k}={str(v).lower()}" for k, v in prof.flags().items())
    lines = [f"dim {L.dim}", " ".join(("basis", *labels)), f"flags: {flags}"]
    for name, rep in prof.series().items():
        lines.append(f"{name.replace('_', ' ')} series "
                     f"(stabilizes at index {rep.stabilization_index}):")
        lines += (f"  term {k}  dim {term.dim}  basis: {_format_subspace(term, labels)}"
                  for k, term in enumerate(rep.chain))
    for name, sub in prof.subspaces().items():
        lines.append(f"{name:<24} dim {sub.dim}  basis: {_format_subspace(sub, labels)}")
    return "\n".join(lines) + "\n"


# -- commands -------------------------------------------------------------------


def _load(path: str) -> LieAlgebra | int:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return parse_algebra(text)
    except InvalidAlgebraError as exc:
        print(f"error: invalid algebra: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def cmd_analyze(path: str, as_json: bool) -> int:
    loaded = _load(path)
    if isinstance(loaded, int):
        return loaded
    prof = profile(loaded)
    try:
        text = (_dump_json(profile_json(loaded, prof)) if as_json
                else _profile_text(loaded, prof))
    except ValueError:  # str() of an int past Python's int-string digit limit
        print("error: cannot print the result: a coefficient has more than "
              f"{sys.get_int_max_str_digits()} digits", file=sys.stderr)
        return EXIT_PARSE
    sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(path: str, samples: int, seed: int, as_json: bool) -> int:
    if samples < 1:
        print(f"error: --samples must be at least 1, got {samples}", file=sys.stderr)
        return EXIT_PARSE
    if samples > MAX_SAMPLES:
        print(f"error: --samples must be at most {MAX_SAMPLES}, got {samples}", file=sys.stderr)
        return EXIT_PARSE
    loaded = _load(path)
    if isinstance(loaded, int):
        return loaded
    report = verify_theorems(loaded, samples=samples, seed=seed)
    if as_json:
        sys.stdout.write(_dump_json(report_json(report)))
    else:
        print(f"dim {report.dim}, samples {report.samples}, seed {report.seed}")
        print(f"note: {report.note}")
        for c in report.checks:
            detail = f"  ({c.detail})" if c.detail else ""
            print(f"{c.prop_id:<6} {c.status}{detail}")
        print(f"violations: {len(report.violated)}")
    return EXIT_OK if report.ok else EXIT_VIOLATED


def cmd_catalog(name: str | None) -> int:
    if name is None:
        for n in _catalog.names():
            print(n)
        return EXIT_OK
    try:
        entry = _catalog.get(name)
    except _catalog.UnknownAlgebraError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_PARSE
    sys.stdout.write(render_algebra(entry.algebra, name=entry.name))
    return EXIT_OK


@cache  # built on first use and kept: each `main` call only parses its argv
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieradicals",
        description=(
            "Exact-arithmetic Lie algebra calculator: characteristic series, "
            "radicals, and structure-law verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="profile an algebra file")
    p_analyze.add_argument("path")
    p_analyze.add_argument("--json", action="store_true", help="machine-readable output")

    p_verify = sub.add_parser("verify", help="run the structure-law checks on a file")
    p_verify.add_argument("path")
    p_verify.add_argument("--samples", type=int, default=50, metavar="N")
    p_verify.add_argument("--seed", type=int, default=0, metavar="S")
    p_verify.add_argument("--json", action="store_true", help="machine-readable output")

    p_catalog = sub.add_parser("catalog", help="list entries or export one")
    p_catalog.add_argument("name", nargs="?")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep those codes.
        return int(exc.code or 0)
    if args.command == "analyze":
        return cmd_analyze(args.path, args.json)
    if args.command == "verify":
        return cmd_verify(args.path, args.samples, args.seed, args.json)
    return cmd_catalog(args.name)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""Output checks that do not trust the program under test.

`analyze --json` output is compared with closed forms (see
`families.expected`) and every reported basis must be in reduced row echelon
form.  `verify --json` output must list the 13 check ids in order with none
violated, and the solvable and nilpotent facts it reports must agree with
series dimensions computed here by a small exact rank routine.

Each check returns None when the output is right and a one-line reason when
it is not.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from families import bracket

#: The stable check ids of `verify`, in report order.
CHECK_IDS = (
    "P2.1", "P2.2", "P2.4", "P2.5", "P3.1", "P3.2", "P3.4", "P3.5",
    "P4.1", "P4.2", "T4.3", "T2.6c", "E2.2",
)

_RADICALS = ("perfect_radical", "near_perfect_radical", "radical", "center", "smallest_upper_bounded")
_P22 = re.compile(r"solvable=(True|False), perfect radical dim (\d+)$")
_P32 = re.compile(r"nilpotent=(True|False), near perfect radical dim (\d+)$")


# -- analyze ------------------------------------------------------------------------


def is_rref(rows: list[list[Fraction]]) -> bool:
    """Nonzero rows, leading ones in strictly increasing columns, pivot columns cleared."""
    last = -1
    for r, row in enumerate(rows):
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None or lead <= last or row[lead] != 1:
            return False
        if any(other[lead] for k, other in enumerate(rows) if k != r):
            return False
        last = lead
    return True


def profile_summary(data: dict) -> dict:
    """The basis-independent part of `analyze --json` output."""
    return {
        "dim": data["dim"],
        "series": {k: [t["dim"] for t in terms] for k, terms in data["series"].items()},
        **{k: data[k]["dim"] for k in _RADICALS},
        "flags": data["flags"],
    }


def check_analyze(stdout: str, expected: dict) -> str | None:
    data = json.loads(stdout)
    got = profile_summary(data)
    if got != expected:
        return f"expected {expected}, got {got}"
    spaces = [t for terms in data["series"].values() for t in terms]
    spaces += [data[k] for k in _RADICALS]
    for space in spaces:
        rows = [[Fraction(x) for x in row] for row in space["basis"]]
        if len(rows) != space["dim"] or not is_rref(rows):
            return "a reported basis is not in reduced row echelon form"
    return None


# -- verify ---------------------------------------------------------------------------


def echelon(vectors, dim: int) -> list[list[Fraction]]:
    """A basis of the span of `vectors`, by exact Gaussian elimination."""
    basis: list[tuple[int, list[Fraction]]] = []  # (pivot column, row with 1 there)
    for v in vectors:
        w = list(v)
        for p, row in basis:
            if w[p]:
                f = w[p]
                w = [a - f * b for a, b in zip(w, row)]
        lead = next((c for c in range(dim) if w[c]), None)
        if lead is not None:
            pv = w[lead]
            basis.append((lead, [a / pv for a in w]))
    return [row for _, row in basis]


def series_facts(dim: int, table: dict) -> dict:
    """Solvable and nilpotent facts from the derived and lower central series."""
    full = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]

    def stable(step) -> int:
        term = full
        while True:
            nxt = step(term)
            if len(nxt) == len(term):
                return len(term)
            term = nxt

    p = stable(lambda t: echelon((bracket(table, u, v) for u in t for v in t), dim))
    np_ = stable(lambda t: echelon((bracket(table, u, v) for u in full for v in t), dim))
    return {"solvable": p == 0, "perfect_radical": p, "nilpotent": np_ == 0, "near_perfect_radical": np_}


def check_verify(stdout: str, dim: int, facts: dict) -> str | None:
    data = json.loads(stdout)
    if data["dim"] != dim:
        return f"dim {data['dim']}, expected {dim}"
    results = {r["id"]: r for r in data["results"]}
    if tuple(r["id"] for r in data["results"]) != CHECK_IDS:
        return "check ids missing or out of order"
    violated = [r["id"] for r in data["results"] if r["status"] == "violated"]
    if violated or data["violations"] != 0:
        return f"violated: {violated}"
    m22 = _P22.fullmatch(results["P2.2"]["detail"])
    m32 = _P32.fullmatch(results["P3.2"]["detail"])
    if m22 is None or m32 is None:
        return "P2.2 or P3.2 detail does not state the series facts"
    got = {
        "solvable": m22.group(1) == "True",
        "perfect_radical": int(m22.group(2)),
        "nilpotent": m32.group(1) == "True",
        "near_perfect_radical": int(m32.group(2)),
    }
    if got != facts:
        return f"expected {facts}, got {got}"
    return None

"""Layer spans for the traced run, recorded from outside the program.

`Tracer.install` replaces each layer function of `lieradicals` named in
`LAYERS` by a wrapper, at every place it is reachable: the class attribute
for methods, and every module namespace that imported a module function (so
`cli.profile`, `oracle.profile` and `series.profile` are all traced).  A span
records its name, start, end and parent; spans stay in memory, in flat
arrays, until the run ends.

The Killing Gram matrix is the cached `LieAlgebra._killing`, first built
inside `killing_orthogonal`, so its cost shows in `core.killing_orthogonal`.
"""

from __future__ import annotations

import functools
import time
from array import array

#: (span name, module, attribute path) of every traced layer function.
LAYERS = (
    ("cli.render", "cli", "profile_json"),
    ("cli.render", "cli", "report_json"),
    ("cli.render", "cli", "_dump_json"),
    ("algfile.parse_algebra", "algfile", "parse_algebra"),
    ("core.validate", "core", "LieAlgebra.validate"),
    ("core.bracket", "core", "LieAlgebra.bracket"),
    ("core.bracket_spaces", "core", "LieAlgebra.bracket_spaces"),
    ("core.is_ideal", "core", "LieAlgebra.is_ideal"),
    ("core.ideal_closure", "core", "LieAlgebra.ideal_closure"),
    ("core.ad", "core", "LieAlgebra.ad"),
    ("core.killing_orthogonal", "core", "LieAlgebra.killing_orthogonal"),
    ("core.restrict", "core", "LieAlgebra.restrict"),
    ("core.quotient", "core", "LieAlgebra.quotient"),
    ("linalg.matmul", "linalg", "Matrix.__matmul__"),
    ("linalg.rref", "linalg", "Matrix.rref"),
    ("linalg.kernel", "linalg", "Matrix.kernel"),
    ("subspace.span", "subspace", "Subspace.span"),
    ("subspace.sum", "subspace", "Subspace.sum"),
    ("subspace.intersect", "subspace", "Subspace.intersect"),
    ("subspace.leq", "subspace", "Subspace.leq"),
    ("series.derived_series", "series", "derived_series"),
    ("series.lower_central_series", "series", "lower_central_series"),
    ("series.upper_central_series", "series", "upper_central_series"),
    ("series.upper_extension", "series", "upper_extension"),
    ("series.radical", "series", "radical"),
    ("series.is_semisimple", "series", "is_semisimple"),
    ("series.profile", "series", "profile"),
    ("oracle.random_ideal", "oracle", "random_ideal"),
    ("oracle.verify_theorems", "oracle", "verify_theorems"),
)


def _max_bits(result) -> int:
    red, _ = result
    return max(
        (max(x.numerator.bit_length(), x.denominator.bit_length()) for x in red.entries),
        default=0,
    )


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self._stack: list[int] = []
        self._depth: list[int] = []
        self.rref_rows = 0
        self.rref_max_bits = 0
        self.first_round_end = 0  # span count when the first round ended
        self._restore: list = []

    def span_id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
            self._depth.append(0)
        return self._ids[span]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outer.append(self._depth[nid] == 0)
        self.end.append(0.0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, nid: int, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[nid] -= 1

    def wrap(self, span: str, fn):
        nid = self.span_id(span)
        rref = span == "linalg.rref"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(nid, idx)
            if rref:
                self.rref_rows += args[0].rows
                self.rref_max_bits = max(self.rref_max_bits, _max_bits(result))
            return result

        return traced

    # -- patching -------------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every function in LAYERS; `modules` maps short names to modules."""
        for span, mod, path in LAYERS:
            owner = modules[mod]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(span, raw.__func__))
                else:
                    new = self.wrap(span, raw)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            orig = getattr(owner, path)
            new = self.wrap(span, orig)
            for m in modules.values():
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, self time and outermost inclusive time.

        `linalg.rref` also gets `rows`, the rows given to it, and `max_bits`,
        the largest numerator or denominator bit length it returned.
        """
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {s: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for s in self.names}
        for i in range(n):
            rec = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["self_s"] += dur - child[i]
            if self.outer[i]:
                rec["total_s"] += dur
        if "linalg.rref" in out:
            out["linalg.rref"].update(rows=self.rref_rows, max_bits=self.rref_max_bits)
        return out

    def spans(self, first: int = 0, stop: int | None = None) -> list:
        """Spans [name, parent, start, end] in the index range, for the trace file."""
        stop = len(self.start) if stop is None else stop
        return [
            [self.names[self.name[i]], self.parent[i], self.start[i], self.end[i]]
            for i in range(first, stop)
        ]

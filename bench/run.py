"""Benchmark of `lieradicals analyze` and `verify`, end to end and per layer.

    python3 bench/run.py --workload ladder_analyze --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
One process, one thread.  Set-up writes the inputs as `.alg` files under
`bench/out/`; each operation then calls `lieradicals.cli.main([...])` with
stdout captured to memory, so it covers file read, parsing and validation,
`profile` or `verify_theorems` and JSON rendering, without interpreter
start-up.  Whole rounds of the workload's operations run until `--seconds`
have passed, and every output is checked against facts computed apart from
the program (`checks.py`).  Times are reported at a nominal host speed; see
`Reference`.

With `--trace 0` the last stdout line gives the end-to-end metrics; with
`--trace 1` the layer functions are wrapped (`tracing.py`) and it gives the
per-layer metrics, per round.  A copy of the result, and with `--trace 1` the
spans of the first round, are written under `bench/out/`.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import io
import json
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

# The program imports these; loading them first keeps their one-off cost out
# of every set-up but the first, so the set-ups time the same work.
import dataclasses, enum, functools, itertools, re, typing  # noqa: E401,F401

import checks
import families
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUPS = 7
VERIFY_SAMPLES = "50"

# A round lists (input, repeats), each input's repeats in one block.  One
# mid-sized input repeats in a block that holds the median operation for every
# seed, so op_p50_ms never sits at the edge between two input sizes.  The last
# input is the top input of top_op_ms; it repeats so its median has samples.
LADDER = (
    ("n3", 1), ("sl2", 1), ("b2", 1), ("abelian4", 1), ("gl2", 1), ("b3", 1),
    ("n4", 1), ("abelian8", 1), ("sl3", 8), ("gl3", 1), ("b4", 1), ("n5", 1),
    ("abelian12", 1), ("gl4", 3),
)
RATIONAL = (
    ("sl2", 1), ("b2", 1), ("n3", 1), ("gl2", 1), ("b3", 10), ("n4", 1),
    ("sl3", 1), ("gl3", 1), ("b4", 1), ("n5", 3),
)
CORPUS_QUOTA = {1: 15, 2: 40, 3: 30, 4: 15}  # about the generator's own mix
CORPUS_ANCHOR = ("aff1", 90)
CORPUS_FAMILIES = (("n4", 1), ("b3", 3))

WORKLOADS = ("ladder_analyze", "corpus_verify", "rational_analyze")

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("top_op_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, span, field, unit) from `Tracer.layers`; values are per round,
# except the largest bit length.
PER_LAYER = (
    ("core.killing_orthogonal.total_s", "core.killing_orthogonal", "total_s", "s"),
    ("linalg.matmul.calls", "linalg.matmul", "calls", "count"),
    ("linalg.matmul.self_s", "linalg.matmul", "self_s", "s"),
    ("core.ad.calls", "core.ad", "calls", "count"),
    ("core.validate.total_s", "core.validate", "total_s", "s"),
    ("series.upper_extension.calls", "series.upper_extension", "calls", "count"),
    ("series.upper_extension.total_s", "series.upper_extension", "total_s", "s"),
    ("core.bracket.calls", "core.bracket", "calls", "count"),
    ("core.bracket.self_s", "core.bracket", "self_s", "s"),
    ("core.bracket_spaces.calls", "core.bracket_spaces", "calls", "count"),
    ("core.bracket_spaces.self_s", "core.bracket_spaces", "self_s", "s"),
    ("core.ideal_closure.calls", "core.ideal_closure", "calls", "count"),
    ("linalg.rref.calls", "linalg.rref", "calls", "count"),
    ("linalg.rref.rows", "linalg.rref", "rows", "count"),
    ("linalg.rref.self_s", "linalg.rref", "self_s", "s"),
    ("linalg.rref.max_bits", "linalg.rref", "max_bits", "bits"),
    ("linalg.kernel.calls", "linalg.kernel", "calls", "count"),
    ("subspace.span.calls", "subspace.span", "calls", "count"),
    ("subspace.span.self_s", "subspace.span", "self_s", "s"),
    ("subspace.intersect.calls", "subspace.intersect", "calls", "count"),
    ("subspace.leq.self_s", "subspace.leq", "self_s", "s"),
    ("series.profile.calls", "series.profile", "calls", "count"),
    ("series.profile.total_s", "series.profile", "total_s", "s"),
    ("series.radical.total_s", "series.radical", "total_s", "s"),
    ("oracle.random_ideal.calls", "oracle.random_ideal", "calls", "count"),
    ("core.quotient.calls", "core.quotient", "calls", "count"),
    ("core.restrict.calls", "core.restrict", "calls", "count"),
    ("algfile.parse_algebra.total_s", "algfile.parse_algebra", "total_s", "s"),
    ("cli.render.total_s", "cli.render", "total_s", "s"),
)


@dataclass
class Input:
    label: str
    dim: int
    table: dict
    repeats: int
    family: str | None = None  # closed forms apply; None for corpus algebras
    verify_seed: int | None = None  # None: `analyze`
    argv: list[str] = field(default_factory=list)
    check: Callable[[str], str | None] | None = None


# -- inputs --------------------------------------------------------------------------


def _sub_rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def _shuffled_basis(dim: int, table: dict, rng: random.Random) -> dict:
    perm = list(range(dim))
    rng.shuffle(perm)
    return families.permute(dim, table, perm)


def build_inputs(workload: str, seed: int) -> list[Input]:
    """The workload's inputs for `seed`, in round order."""
    if workload == "ladder_analyze":
        # Matrix units in a seeded order of the basis.
        out = []
        for name, repeats in LADDER:
            dim, table = families.build(name)
            table = _shuffled_basis(dim, table, _sub_rng(seed, name))
            out.append(Input(name, dim, table, repeats, family=name))
        return out
    if workload == "rational_analyze":
        # A dense rational basis fixed per input, then a seeded order of it:
        # every seed gets coefficients of the same sizes, so the same cost.
        out = []
        for name, repeats in RATIONAL:
            dim, table = families.build(name)
            p = families.basis_change(dim, random.Random(f"basis:{name}"))
            table = _shuffled_basis(dim, families.rebase(dim, table, p), _sub_rng(seed, name))
            out.append(Input(name, dim, table, repeats, family=name))
        return out
    catalog = sys.modules["lieradicals.catalog"]
    oracle = sys.modules["lieradicals.oracle"]
    algebras = [(f"catalog-{e.name}", e.algebra) for e in catalog.entries()]
    algebras += [(f"random-{k:03d}", alg) for k, alg in enumerate(random_corpus(oracle, seed))]
    out = []
    rng = random.Random(seed)
    for label, alg in algebras:
        table = {(i, j): v for i, j, v in alg.constants.pairs()}
        out.append(Input(label, alg.dim, table, 1, verify_seed=rng.randrange(2**31)))
    # The anchor and the largest inputs use verify's default seed 0 for every
    # benchmark seed: b3's cost moves by 10-15% with the ideals --seed samples.
    for item in out:
        if item.label == f"catalog-{CORPUS_ANCHOR[0]}":
            item.repeats, item.verify_seed = CORPUS_ANCHOR[1], 0
    for name, repeats in CORPUS_FAMILIES:
        dim, table = families.build(name)
        out.append(Input(name, dim, table, repeats, family=name, verify_seed=0))
    return out


def forget_program() -> None:
    """Drop `lieradicals` from the import cache, so the next import runs it afresh."""
    for name in [m for m in sys.modules if m == "lieradicals" or m.startswith("lieradicals.")]:
        del sys.modules[name]


def random_corpus(oracle, seed: int) -> list:
    """The first algebras of each dimension from `random_algebras(..., 4, seed)`,
    as many as CORPUS_QUOTA says.

    A plain `random_algebras(100, 4, seed)` holds 10 to 27 algebras of
    dimension 4, which moved ops_per_s by 12% between seeds.  The generator's
    sequence is the same for any count, so a larger count only extends it.
    """
    count = 2 * sum(CORPUS_QUOTA.values())
    while True:
        picked = []
        taken = dict.fromkeys(CORPUS_QUOTA, 0)
        for alg in oracle.random_algebras(count, max(CORPUS_QUOTA), seed):
            if taken[alg.dim] < CORPUS_QUOTA[alg.dim]:
                taken[alg.dim] += 1
                picked.append(alg)
        if taken == CORPUS_QUOTA:
            return picked
        count *= 2


def setup(workload: str, seed: int, workdir: Path) -> tuple[object, list[Input]]:
    """Import `lieradicals`, build the inputs and write them: the timed set-up."""
    cli = importlib.import_module("lieradicals.cli")
    inputs = build_inputs(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    for item in inputs:
        path = workdir / f"{item.label}.alg"
        path.write_text(families.render(item.dim, item.table, item.label), encoding="utf-8")
        if item.verify_seed is None:
            item.argv = ["analyze", str(path), "--json"]
        else:
            item.argv = ["verify", str(path), "--json", "--samples", VERIFY_SAMPLES,
                         "--seed", str(item.verify_seed)]
    return cli, inputs


def attach_checks(inputs: list[Input]) -> None:
    """Expected facts, computed by the benchmark alone (not timed)."""
    for item in inputs:
        if item.verify_seed is None:
            exp = families.expected(item.family)
            item.check = lambda out, exp=exp: checks.check_analyze(out, exp)
        else:
            facts = checks.series_facts(item.dim, item.table)
            item.check = lambda out, d=item.dim, f=facts: checks.check_verify(out, d, f)


# -- host speed ----------------------------------------------------------------------------

# The host's speed drifts by 20-40% within seconds to minutes, on both cores
# alike, and CPU time drifts with it, so no median inside one run removes the
# drift.  So the benchmark times a fixed pure-Python loop once just before and
# once just after every timed call, and, through an interval timer, every
# SAMPLE_EVERY_S during it.  A call's time, less the time spent in those
# interruptions, is reported at the loop's nominal speed: t * NOMINAL_S / m,
# with m the median of the loop's timings from NEAR_S before the call to
# NEAR_S after it.  Raw times stay in the result file under bench/out/.
NOMINAL_S = 0.0012
SAMPLE_EVERY_S = 0.05
NEAR_S = 0.25


def _reference_loop() -> Fraction:
    acc = Fraction(0)
    table = {}
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 5 + 1) * Fraction(i % 3 + 1, 2)
        table[(i % 13, i % 11)] = (acc, i)
    return acc


class Reference:
    """Host speed during one run; use as a context manager around the timed calls."""

    def __init__(self):
        self.stamps: list[float] = []  # start of each loop timing, increasing
        self.samples: list[float] = []  # the loop timings
        self._during = False
        self._paused = 0.0
        self._old_handler = None

    def __enter__(self) -> "Reference":
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def _time_loop(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # garbage the program left must not be collected on the loop's clock
        try:
            t0 = time.perf_counter()
            _reference_loop()
            dt = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.stamps.append(t0)
        self.samples.append(dt)

    def _tick(self, signum, frame) -> None:
        if self._during:
            t0 = time.perf_counter()
            self._time_loop()
            self._paused += time.perf_counter() - t0

    def timed(self, fn):
        """Call fn(); return its result, its raw seconds and its (start, end)."""
        self._time_loop()
        self._paused = 0.0
        self._during = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            self._during = False
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._time_loop()
        return result, t1 - t0 - self._paused, (t0, t1)

    def nominal(self, dt: float, span: tuple[float, float]) -> float:
        """`dt` measured over `span`, at the loop's nominal speed."""
        lo = bisect.bisect_left(self.stamps, span[0] - NEAR_S)
        hi = bisect.bisect_right(self.stamps, span[1] + NEAR_S)
        return dt * NOMINAL_S / statistics.median(self.samples[lo:hi])

    def scale(self) -> float:
        """Run-wide factor from measured to nominal-speed time, for layer times."""
        return NOMINAL_S / statistics.median(self.samples)


# -- running -----------------------------------------------------------------------------


def call(main, argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception as exc:  # a traceback is a failed operation, not a benchmark crash
            rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def judge(item: Input, rc, stdout: str, stderr: str) -> str | None:
    if rc != 0:
        return f"exit {rc}: {stderr.strip()[:200]}"
    try:
        return item.check(stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


@dataclass
class Run:
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    latencies: dict = field(default_factory=dict)  # at nominal speed, per input
    raw: dict = field(default_factory=dict)  # as measured, per input
    spans: dict = field(default_factory=dict)  # (start, end) of each, per input
    problems: list = field(default_factory=list)


def measure(main, inputs: list[Input], seconds: float, tracer: Tracer | None,
            ref: Reference) -> Run:
    run = Run(raw={item.label: [] for item in inputs}, spans={item.label: [] for item in inputs})
    op_nid = tracer.span_id("bench.op") if tracer else 0
    t0 = time.perf_counter()
    while run.rounds == 0 or time.perf_counter() - t0 < seconds:
        for item in inputs:
            for _ in range(item.repeats):
                idx = tracer.open(op_nid) if tracer else 0
                (rc, out, err), dt, span = ref.timed(lambda: call(main, item.argv))
                if tracer:
                    tracer.close(op_nid, idx)
                run.attempted += 1
                run.raw[item.label].append(dt)
                run.spans[item.label].append(span)
                problem = judge(item, rc, out, err)
                if problem:
                    run.failed += 1
                    run.problems.append(f"{item.label}: {problem}")
        run.rounds += 1
        if tracer and run.rounds == 1:
            tracer.first_round_end = len(tracer.start)
    run.wall_s = time.perf_counter() - t0
    run.latencies = {label: [ref.nominal(dt, span) for dt, span in zip(raw, run.spans[label])]
                     for label, raw in run.raw.items()}
    return run


def end_to_end(run: Run, inputs: list[Input], setups: list[float]) -> dict:
    """Times at the nominal host speed; see Reference.

    ops_per_s takes each input's median time, so that one operation caught in
    a host slowdown the reference loop did not see moves it no more than it
    moves the latency medians.
    """
    every = [dt for lat in run.latencies.values() for dt in lat]
    round_s = sum(item.repeats * statistics.median(run.latencies[item.label]) for item in inputs)
    return {
        "ops_per_s": (run.attempted - run.failed) / run.rounds / round_s,
        "op_p50_ms": 1000 * statistics.median(every),
        "top_op_ms": 1000 * statistics.median(run.latencies[inputs[-1].label]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(layers: dict, rounds: int, scale: float) -> dict:
    """PER_LAYER values per round; times at the run's nominal host speed."""
    values = {}
    for metric, span, fld, unit in PER_LAYER:
        value = layers.get(span, {}).get(fld, 0)
        if unit != "bits":
            value /= rounds
        values[metric] = value * scale if unit == "s" else value
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lieradicals" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'lieradicals'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = OUT / "inputs" / args.workload
    with Reference() as ref:
        raw_setups = []
        for _ in range(SETUPS):
            forget_program()
            (cli, inputs), dt, span = ref.timed(lambda: setup(args.workload, args.seed, workdir))
            raw_setups.append((dt, span))
        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            print(f"error: imported {cli.__file__}, not the checkout's program", file=sys.stderr)
            return 2
        attach_checks(inputs)

        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install({m.rsplit(".", 1)[-1]: mod for m, mod in sys.modules.items()
                            if m == "lieradicals" or m.startswith("lieradicals.")})
        run = measure(cli.main, inputs, args.seconds, tracer, ref)
    setups = [ref.nominal(dt, span) for dt, span in raw_setups]

    scale = ref.scale()
    e2e = end_to_end(run, inputs, setups)
    layers = tracer.layers() if tracer else {}
    values = per_layer(layers, run.rounds, scale) if tracer else e2e
    units = dict(END_TO_END) | {m: unit for m, _s, _f, unit in PER_LAYER}
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # ops_per_s of a traced run against an untraced one gives the tracing overhead.
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "python": sys.version.split()[0], "rounds": run.rounds, "wall_s": run.wall_s,
        "end_to_end": e2e, "raw_setups_s": [dt for dt, _ in raw_setups],
        "reference_median_s": statistics.median(ref.samples), "scale": scale,
        "median_ms": {k: 1000 * statistics.median(v) for k, v in run.latencies.items()},
        "raw_median_ms": {k: 1000 * statistics.median(v) for k, v in run.raw.items()},
        "problems": run.problems[:20], **result,
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        trace = {
            "layers_per_round": {k: {f: v / run.rounds for f, v in rec.items()}
                                 for k, rec in layers.items()},
            "spans_first_round": tracer.spans(0, tracer.first_round_end),
        }
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(trace) + "\n")
    for problem in run.problems[:5]:
        print(f"failed: {problem}", file=sys.stderr)
    print(f"{run.rounds} round(s), {run.attempted} op(s) in {run.wall_s:.2f} s", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

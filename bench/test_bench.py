"""Tests of the benchmark's own inputs, checks and tracing.

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import copy
import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import families  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

from lieradicals import catalog, cli  # noqa: E402


def analyze(dim: int, table: dict, tmp: Path) -> str:
    path = tmp / "x.alg"
    path.write_text(families.render(dim, table))
    rc, out, err = run.call(cli.main, ["analyze", str(path), "--json"])
    assert rc == 0, err
    return out


class ClosedForms(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(__file__).resolve().parent / "out" / "test"
        self.tmp.mkdir(parents=True, exist_ok=True)

    def test_program_agrees_with_closed_forms(self):
        for name in ("gl2", "gl3", "sl2", "sl3", "b2", "b4", "n3", "n5", "abelian3"):
            dim, table = families.build(name)
            out = analyze(dim, table, self.tmp)
            self.assertIsNone(checks.check_analyze(out, families.expected(name)), name)

    def test_closed_forms_hold_in_the_workload_bases(self):
        inputs = [i for w in ("ladder_analyze", "rational_analyze")
                  for i in run.build_inputs(w, 7) if i.dim <= 6]
        for item in inputs:
            out = analyze(item.dim, item.table, self.tmp)
            self.assertIsNone(checks.check_analyze(out, families.expected(item.family)), item.label)
        rational = run.build_inputs("rational_analyze", 7)
        self.assertTrue(all(any(c.denominator > 1 for v in i.table.values() for c in v)
                            for i in rational if i.dim >= 6))

    def test_wrong_expected_value_fails_the_check(self):
        dim, table = families.build("b3")
        out = analyze(dim, table, self.tmp)
        wrong = copy.deepcopy(families.expected("b3"))
        wrong["series"]["derived"][-1] += 1
        self.assertIsNotNone(checks.check_analyze(out, wrong))
        wrong = copy.deepcopy(families.expected("b3"))
        wrong["flags"]["nilpotent"] = True
        self.assertIsNotNone(checks.check_analyze(out, wrong))

    def test_basis_not_in_rref_fails_the_check(self):
        dim, table = families.build("n3")
        data = json.loads(analyze(dim, table, self.tmp))
        data["center"]["basis"] = [["0", "0", "2"]]
        self.assertIsNotNone(checks.check_analyze(json.dumps(data), families.expected("n3")))


class VerifyChecks(unittest.TestCase):
    def verify(self, name: str) -> tuple[int, dict, str]:
        alg = catalog.get(name).algebra
        table = {(i, j): v for i, j, v in alg.constants.pairs()}
        path = Path(__file__).resolve().parent / "out" / "test" / "v.alg"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(families.render(alg.dim, table))
        rc, out, err = run.call(cli.main, ["verify", str(path), "--json", "--samples", "5"])
        assert rc == 0, err
        return alg.dim, table, out

    def test_series_facts(self):
        for name, solvable, p, nilpotent, np_ in (
            ("heis3", True, 0, True, 0),
            ("s3_2", True, 0, False, 2),
            ("sl2", False, 3, False, 3),
            ("sl2_plus_s3_2", False, 3, False, 5),
        ):
            dim, table, _ = self.verify(name)
            self.assertEqual(
                checks.series_facts(dim, table),
                {"solvable": solvable, "perfect_radical": p, "nilpotent": nilpotent,
                 "near_perfect_radical": np_},
                name,
            )

    def test_verify_output_passes_and_wrong_facts_fail(self):
        dim, table, out = self.verify("s3_2")
        facts = checks.series_facts(dim, table)
        self.assertIsNone(checks.check_verify(out, dim, facts))
        self.assertIsNotNone(checks.check_verify(out, dim, {**facts, "nilpotent": True}))
        data = json.loads(out)
        data["results"][3]["status"] = "violated"
        self.assertIsNotNone(checks.check_verify(json.dumps(data), dim, facts))

    def test_rref(self):
        f = Fraction
        self.assertTrue(checks.is_rref([[f(1), f(0), f(2)], [f(0), f(1), f(-1, 2)]]))
        self.assertFalse(checks.is_rref([[f(1), f(1)], [f(0), f(1)]]))
        self.assertFalse(checks.is_rref([[f(0), f(1)], [f(1), f(0)]]))
        self.assertFalse(checks.is_rref([[f(0), f(0)]]))


class Tracing(unittest.TestCase):
    def test_two_traced_runs_count_the_same(self):
        main_cli, inputs = run.setup("rational_analyze", 3, run.OUT / "inputs" / "test")
        inputs = [item for item in inputs if item.dim <= 4]
        run.attach_checks(inputs)
        modules = {m.rsplit(".", 1)[-1]: mod for m, mod in sys.modules.items()
                   if m == "lieradicals" or m.startswith("lieradicals.")}
        counts = []
        for _ in range(2):
            tracer = Tracer()
            tracer.install(modules)
            try:
                with run.Reference() as ref:
                    result = run.measure(main_cli.main, inputs, 0, tracer, ref)
            finally:
                tracer.uninstall()
            self.assertEqual(result.failed, 0)
            values = run.per_layer(tracer.layers(), result.rounds, 1.0)
            counts.append({k: v for k, v in values.items() if not k.endswith("_s")})
            self.assertGreater(values["series.profile.total_s"], 0)
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0]["series.profile.calls"], sum(i.repeats for i in inputs))


if __name__ == "__main__":
    unittest.main()

"""The bench's traced layer functions still exist in `lieradicals`.

`bench/tracing.py` wraps each `(module, attribute)` of its `LAYERS` table by
name when the benchmark runs with `--trace 1`.  A function renamed or deleted
here would break only that traced run, so this test resolves every name the
way `Tracer.install` does: a method must be defined on the class itself, and
a module function must be an attribute of its module.  A traced `verify`
also shows that its upper bounded filter reaches the traced
`series.upper_extension` and that its factor algebras go
through the traced `LieAlgebra.quotient`, a traced descending series
that each of its products, bounded or not, is one traced `Subspace.span`,
and a traced `--json` command that it renders through exactly one call of
its dict builder and one of `_dump_json`.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
LAYERS = tracing.LAYERS


@pytest.mark.parametrize("span,mod,path", LAYERS, ids=[f"{m}.{p}" for _, m, p in LAYERS])
def test_traced_layer_resolves(span, mod, path):
    owner = importlib.import_module(f"lieradicals.{mod}")
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(owner, cls_name)), f"{span}: {path} is gone"
    else:
        assert callable(getattr(owner, path, None)), f"{span}: {path} is gone"


def _traced_layers(run) -> dict:
    """The tracer's layer counters after `run()`, traced as `--trace 1` does."""
    from lieradicals import cli  # noqa: F401  (loads every traced module)

    tracer = tracing.Tracer()
    tracer.install({m.rsplit(".", 1)[-1]: mod for m, mod in sys.modules.items()
                    if m == "lieradicals" or m.startswith("lieradicals.")})
    try:
        run()
    finally:
        tracer.uninstall()
    return tracer.layers()


def test_verify_reaches_the_traced_upper_extension():
    """`verify` sorts its pool into upper bounded ideals with `is_upper_bounded_ideal`,
    one `upper_extension` per ideal; the traced run must count them.  `profile`
    solves its upper central steps in a private step that the table does not name."""
    from lieradicals import catalog, oracle

    layers = _traced_layers(lambda: oracle.verify_theorems(catalog.get("n4").algebra, samples=5))
    assert layers["series.upper_extension"]["calls"] >= 2


def test_verify_reaches_the_traced_quotient():
    """P2.5 and P3.5 each factor s3_2 by a radical through `LieAlgebra.quotient`."""
    from lieradicals import catalog, oracle

    layers = _traced_layers(lambda: oracle.verify_theorems(catalog.get("s3_2").algebra, samples=5))
    assert layers["core.quotient"]["calls"] >= 2


@pytest.mark.parametrize("name", ["s3_2", "sl2", "heis3", "sl2_plus_s3_2"])
@pytest.mark.parametrize("kind", ["derived_series", "lower_central_series"])
def test_series_steps_reach_the_traced_span(kind, name):
    """Every term after L, D(L) and each bounded step, is one traced
    `Subspace.span`, so the run counts the elimination of every step."""
    from lieradicals import catalog, series

    reports = []
    layers = _traced_layers(
        lambda: reports.append(getattr(series, kind)(catalog.get(name).algebra)))
    assert layers["subspace.span"]["calls"] == len(reports[0].terms) - 1


@pytest.mark.parametrize("command,builder", [("analyze", "profile_json"),
                                             ("verify", "report_json")])
def test_json_commands_render_through_the_traced_functions(command, builder, tmp_path,
                                                           monkeypatch, capsys):
    """`cli.render` counts the dict builder and `_dump_json`, once each: a
    renderer inlined into the command, or recursing through the module name,
    would read 0 or count every container."""
    from lieradicals import catalog, cli
    from lieradicals.algfile import render_algebra

    path = tmp_path / "heis3.alg"
    path.write_text(render_algebra(catalog.get("heis3").algebra))
    argv = [command, str(path), "--json", *(["--samples", "3"] if command == "verify" else [])]
    assert _traced_layers(lambda: cli.main(argv))["cli.render"]["calls"] == 2
    # The same run with every layer traced under its own name.
    monkeypatch.setattr(tracing, "LAYERS", tuple((f"{m}.{p}", m, p) for _, m, p in LAYERS))
    layers = _traced_layers(lambda: cli.main(argv))
    assert {k: v["calls"] for k, v in layers.items() if k.startswith("cli.")} == {
        "cli.profile_json": 0, "cli.report_json": 0, "cli._dump_json": 1, f"cli.{builder}": 1}
    out = capsys.readouterr().out  # both runs printed the same JSON
    assert out == 2 * out[:len(out) // 2] and json.loads(out[:len(out) // 2])["dim"] == 3

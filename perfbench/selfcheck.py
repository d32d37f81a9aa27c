"""Self-tests of the benchmark itself (generator, references, tracer, loop).

    python3 perfbench/selfcheck.py          # or: python3 -m pytest perfbench/selfcheck.py

Run from the root of a source checkout; takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import math
import random
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS pins and the import paths
import speed
import tracer as tr
import workloads as wl

sys.path.insert(0, str(run.SRC))


def _cli():
    return sys.modules.get("finslerkit.cli") or run.import_package()


def _run_items(items: list[wl.Item], cycles: int = 2) -> list[run.Execution]:
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        runner = run.Runner(items, Path(tmp))
        runs, _wall, done = run.measure(runner, _cli(), 0.0, cycles, math.inf)
        runner.judge(runs)
    assert done == cycles and len(runs) == cycles * len(items)
    return runs


def _shrink(item: wl.Item, **sizes) -> wl.Item:
    """The same item with smaller section sizes (e.g. samples=2)."""
    config = item.config
    for key, value in sizes.items():
        config = "\n".join(f"{key} = {value}" if line.startswith(f"{key} =") else line
                           for line in config.splitlines())
    return dataclasses.replace(item, config=config,
                               reference=dict(item.reference, **sizes))


def test_generator_is_deterministic():
    for workload in wl.CYCLES:
        first, again, other = (wl.build(workload, s) for s in (7, 7, 8))
        assert [i.config for i in [first[0], *first[1]]] == [i.config for i in [again[0], *again[1]]]
        assert [i.reference for i in first[1]] == [i.reference for i in again[1]]
        assert {i.config for i in first[1]} != {i.config for i in other[1]}
        assert sorted(i.key for i in first[1]) == sorted(i.key for i in other[1])


def test_reference_lengths():
    randers = wl._pinned("randers", 1, [0.0, 0.0], {(0, 1): 0.2}, [1.0, 1.0], 8)
    assert abs(wl.reference_length(randers.reference) - (math.sqrt(2) + 0.2)) < 1e-15
    flat = wl._pinned("generalized-square", 2, [0.1, 0.2], {}, [1.0, 0.5], 4)
    alpha, beta = math.hypot(1.0, 0.5), 0.2
    assert abs(wl.reference_length(flat.reference) - (alpha + beta) ** 3 / alpha ** 2) < 1e-15
    # the midpoint rule is exact for b = grad(phi) with phi quadratic
    ref = randers.reference
    bent = [[0.0, 0.0], [0.7, 0.2], [1.0, 1.0]]
    exact = sum(math.dist(p, q) for p, q in zip(bent, bent[1:])) + 0.2
    assert abs(wl.polyline_length(ref, bent) - exact) < 1e-15


def test_references_hold_on_tiny_instances():
    rng = random.Random(3)
    items = [
        _shrink(wl._audit_item(rng, "generalized-square", 2, 2, varying=True), samples=2),
        _shrink(wl._classify_item(rng, "square", 1, 3, "affine"), points=3, directions=2),
        _shrink(wl._classify_item(rng, "generalized-square", 2, 3, "exp"), points=3, directions=2),
        _shrink(wl._classify_item(rng, "generalized-square", 1, 2, "quadratic"), points=3,
                directions=2),
        wl._pinned("randers", 1, [0.0, 0.0], {(0, 1): 0.2}, [1.0, 1.0], 4),
        wl._geodesic_item(rng, "matsumoto", 1, 3, curved=False),
    ]
    runs = _run_items(items, cycles=1)
    assert [ex.status for ex in runs] == [0, 0, 0, 1, 0, 0]
    assert [ex.problem for ex in runs] == [None] * len(items)


def test_checks_reject_wrong_output():
    rng = random.Random(4)
    item = _shrink(wl._classify_item(rng, "square", 1, 3, "quadratic"), points=2, directions=1)
    good = "\n".join([f"# seed={item.reference['seed']}", "point-index,test,residual,verdict",
                      "1,first-kind,0.5,FAIL", "1,second-kind,0.25,FAIL",
                      "1,third-kind,0.3,IMPOSSIBLE", "2,first-kind,0.5,FAIL",
                      "2,second-kind,0.25,FAIL", "2,third-kind,0.3,IMPOSSIBLE", ""])
    assert wl.check(item, 1, good.encode(), "") == (None, False)
    assert wl.check(item, 0, good.encode(), "")[0] == "exit status 0, expected 1"
    wrong = good.replace("1,first-kind,0.5,FAIL", "1,first-kind,0.0,PASS")
    assert wl.check(item, 1, wrong.encode(), "")[0].startswith("point 1 first-kind")
    assert wl.check(item, 2, None, "error: boom")[0].startswith("exit status 2")


def test_wrappers_cover_every_lookup_name_and_are_removed():
    cli = _cli()
    pkg = sys.modules["finslerkit"]
    bundle_at = sys.modules["finslerkit.tensors"].bundle_at
    tracer = tr.Tracer()
    assert tr.installed() == []
    tracer.install()
    try:
        names = set(tr.installed())
        for owner in ("finslerkit", "finslerkit.tensors", "finslerkit.cli",
                      "finslerkit.hypersurface"):
            assert f"{owner}.bundle_at" in names
        assert "finslerkit.geodesic.finsler_norm" in names
        assert "finslerkit.metric.SpaceSpec.a_at" in names
        assert "finslerkit.hypersurface.LevelSurface.gradient" in names
        assert "finslerkit.cli.cmd_audit" not in names
        assert cli.bundle_at is not bundle_at
    finally:
        tracer.uninstall()
    assert tr.installed() == []
    assert cli.bundle_at is bundle_at and pkg.bundle_at is bundle_at


class _ProbingRunner(run.Runner):
    """Checks before every item that no wrapper is reachable."""

    def run(self, cli, n):
        assert tr.installed() == []
        return super().run(cli, n)


def test_untraced_run_installs_no_wrappers():
    cli = _cli()
    for workload in wl.CYCLES:
        _warm, cycle = wl.build(workload, 1)
        light = [i for i in cycle if i.known_defect is None][:2]
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            runner = _ProbingRunner(light, Path(tmp))
            runs, _wall, _cycles = run.measure(runner, cli, 0.0, 2, math.inf)
            runner.judge(runs)
        assert len(runs) == 4 and all(ex.problem is None for ex in runs), runs


def test_traced_run_records_spans_and_self_time():
    cli = _cli()
    _warm, cycle = wl.build("classify-levels", 1)
    item = _shrink(cycle[0], points=2, directions=1)
    tracer = tr.Tracer()
    tracer.install()
    try:
        _run_items([item], cycles=1)
    finally:
        tracer.uninstall()
    spans = tracer.summary()
    assert spans["cli.main"]["calls"] == 1
    assert spans["tensors.bundle_at"]["calls"] == 2
    for row in spans.values():
        assert -1e-9 <= row["self_s"] <= row["total_s"] + 1e-12
    assert tracer.calls("hypersurface.level_eval", "classifier.surface_points") > 0
    assert tracer.values["classifier.surface_points.points"] == 2
    assert cli.main.__module__ == "finslerkit.cli" and not hasattr(cli.main, tr.MARK)


def test_tail_percentile_keeps_ten_items_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90, 90.0)
    assert run.tail([float(i) for i in range(1, 1001)]) == (99, 990.0)


def test_tail_rank_does_not_depend_on_the_cycle_count():
    for cycles in (2, 3, 7):
        runs = [run.Execution(n, 0.0, 0, None, 0, ref_s=float(n) + 0.01 * c)
                for c in range(cycles) for n in range(40)]
        p, value = run.tail(run.item_times(runs))
        assert (p, round(value)) == (75, 29)


def test_rescaling_uses_the_kernels_around_each_piece():
    ref = speed.REF_S
    # kernel i runs before piece i: piece 0 sees kernels 0..3, piece 3 sees
    # 1..6 (three ref, three 2*ref), piece 5 sees 3..6
    kernels = [ref, ref, ref, ref, 2 * ref, 2 * ref, 2 * ref]
    scaled = speed.rescale([1.0] * 6, kernels)
    assert scaled[0] == 1.0 and scaled[5] == 0.5
    assert math.isclose(scaled[3], 1 / 1.5)
    assert speed.scale([2 * ref]) == 0.5


def test_budget_defect_is_known_only_where_seen_at_baseline():
    _warm, cycle = wl.build("geodesic-solve", 1)
    tagged = {i.key for i in cycle if i.known_defect == "geodesic-budget"}
    assert tagged == {
        "geodesic/matsumoto/k1/d2/pinned/m8", "geodesic/generalized-square/k1/d2/pinned/m4",
        "geodesic/generalized-kropina/k2/d2/pinned/m4",
        "geodesic/generalized-square/k2/d3/flat/m4", "geodesic/randers/k1/d2/flat/m8",
    }
    converging = [i for i in cycle if i.reference["segments"] == 8 and not i.known_defect]
    assert {len(i.reference["a"]) for i in converging} == {2, 3}


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} self-tests passed")

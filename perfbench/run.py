"""finslerkit benchmark: drives ``finslerkit.cli.main`` in-process on generated
configs, exactly as a user runs the CLI, and checks every item.

    python3 perfbench/run.py --workload audit-sweep --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
Closed loop, one client, one process, no threads: each item starts when the
previous one has returned.  The measured phase repeats the workload's cycle
of items and stops at the first cycle boundary after ``--seconds`` (at least
two cycles, so every item is rerun and its ``--out`` digest compared).

Every time is rescaled to a reference host speed by a fixed kernel timed
next to it (``speed.py``): the hosts drift by up to a factor of two within
minutes.  The wall figures are printed beside the rescaled ones.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced phase, then a traced phase with wrappers around every public
function of each layer, and prints per-layer metrics per item plus the
tracing overhead.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import os

# BLAS threads pinned before numpy is imported anywhere in this process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = (11, 10)   # before and after the measured phases
HARD_STOP_S = 150.0   # no new cycle starts after this much wall time in one run

sys.path.insert(0, str(Path(__file__).resolve().parent))
import speed  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


@dataclass
class Execution:
    item: int
    seconds: float
    status: object
    digest: str | None
    out_bytes: int
    problem: str | None = None
    known: bool = False
    kernel: float = 0.0   # wall seconds of the speed kernel run just before
    ref_s: float = 0.0    # ``seconds`` rescaled to the reference speed


class Runner:
    """Executes items through the CLI module and checks them against references."""

    def __init__(self, items: list[wl.Item], workdir: Path):
        self.items = items
        self.paths = []
        for n, item in enumerate(items):
            cfg = workdir / f"item{n:03d}.cfg"
            cfg.write_text(item.config)
            self.paths.append((cfg, workdir / f"item{n:03d}.csv"))
        self.first: dict[int, tuple[object, bytes | None, str]] = {}
        self.verdicts: dict[int, tuple[str | None, bool]] = {}
        self.digests: dict[int, tuple[object, str | None]] = {}

    def run(self, cli, n: int) -> Execution:
        cfg, out = self.paths[n]
        out.unlink(missing_ok=True)
        argv = [self.items[n].command, "--config", str(cfg), "--out", str(out)]
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                status = cli.main(argv)
        except SystemExit as err:
            status = f"SystemExit({err.code})"
        except Exception as err:  # an exception is a failed item, not a crash
            status = f"{type(err).__name__}: {err}"
        seconds = time.perf_counter() - t0
        data = out.read_bytes() if out.exists() else None
        digest = hashlib.sha256(data).hexdigest() if data is not None else None
        if n not in self.first:
            self.first[n] = (status, data, buf.getvalue())
        return Execution(n, seconds, status, digest, len(data or b""))

    def judge(self, runs: list[Execution]) -> None:
        """Check each execution: the first one of an item against its reference,
        reruns against the first one's status and --out digest."""
        for n, (status, data, text) in self.first.items():
            if n not in self.verdicts:
                self.verdicts[n] = wl.check(self.items[n], status, data, text)
        for ex in runs:
            ref = self.digests.setdefault(ex.item, (ex.status, ex.digest))
            if (ex.status, ex.digest) != ref:
                ex.problem, ex.known = "rerun output differs (status or --out digest)", False
            else:
                ex.problem, ex.known = self.verdicts[ex.item]


def measure(runner: Runner, cli, seconds: float, min_cycles: int, deadline: float,
            tracer: tr.Tracer | None = None) -> tuple[list[Execution], float, int]:
    runs: list[Execution] = []
    cycles = 0
    t0 = time.perf_counter()
    while True:
        for n in range(len(runner.items)):
            if tracer is not None:
                tracer.item = len(runs) + 1  # spans of one execution share this id
            kernel = speed.probe()
            runs.append(runner.run(cli, n))
            runs[-1].kernel = kernel
        cycles += 1
        now = time.perf_counter()
        if (now - t0 >= seconds and cycles >= min_cycles) or now >= deadline:
            break
    kernels = [ex.kernel for ex in runs] + [speed.probe()]
    for ex, ref_s in zip(runs, speed.rescale([ex.seconds for ex in runs], kernels)):
        ex.ref_s = ref_s
    return runs, now - t0, cycles


def import_package():
    for name in [n for n in sys.modules if n == "finslerkit" or n.startswith("finslerkit.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("finslerkit.cli")


class Setup:
    """Set-up: import finslerkit afresh, then run one warm-up item that is not
    counted.  Repeated before and after the measured phases, so that the
    median spans the run rather than one moment of it.  Each set-up is
    rescaled by the speed kernels run just before and after it."""

    def __init__(self, warm: wl.Item, workdir: Path):
        self.runner = Runner([warm], workdir)
        self.times: list[float] = []   # wall seconds
        self.ref: list[float] = []     # reference seconds
        self.runs: list[Execution] = []

    def repeat(self, times: int):
        before, after = speed.WINDOW
        for _ in range(times):
            kernels = [speed.probe() for _ in range(before)]
            t0 = time.perf_counter()
            cli = import_package()
            self.runs.append(self.runner.run(cli, 0))
            self.times.append(time.perf_counter() - t0)
            kernels += [speed.probe() for _ in range(after)]
            self.ref.append(self.times[-1] * speed.scale(kernels))
        return cli

    def result(self) -> tuple[float, float, list[str], int]:
        """(median reference seconds, median wall seconds, problems, failed warm-ups)"""
        self.runner.judge(self.runs)
        key = self.runner.items[0].key
        bad = [ex for ex in self.runs if ex.problem]
        problems = sorted({f"warm-up {key}: {ex.problem}" for ex in bad})
        return statistics.median(self.ref), statistics.median(self.times), problems, len(bad)


def tail(latencies: list[float]) -> tuple[int, float]:
    """Highest integer percentile (nearest rank) with at least 10 items beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 50, xs[math.ceil(n / 2) - 1]


def item_times(runs: list[Execution]) -> list[float]:
    """Each item's time at the reference speed: the median of its executions.
    Percentiles over these have the same rank for any number of cycles."""
    by_item: dict[int, list[float]] = {}
    for ex in runs:
        by_item.setdefault(ex.item, []).append(ex.ref_s)
    return [statistics.median(xs) for xs in by_item.values()]


def rate(runs: list[Execution]) -> float:
    """Items per second at the reference speed."""
    return len(runs) / sum(ex.ref_s for ex in runs)


def end_to_end(runs: list[Execution], wall: float, cycles: int, setup: tuple[float, float],
               rss_mb: float) -> dict:
    times = item_times(runs)
    failed = sum(ex.problem is not None for ex in runs)
    p, tail_s = tail(times)
    per_item = f"{len(times)} items, each the median of {cycles} executions"
    return {
        "setup_s": (setup[0], "s", f"median of {sum(SETUP_REPEATS)} set-ups; "
                                   f"wall median {setup[1]:.4f} s"),
        "items_per_s": (rate(runs), "1/s",
                        f"{len(runs)} items; wall rate {len(runs) / wall:.4g}/s"),
        "item_p50_ms": (1e3 * statistics.median(times), "ms", per_item),
        "item_tail_ms": (1e3 * tail_s, "ms", f"p{p}, {per_item}"),
        "pass_ratio": ((len(runs) - failed) / len(runs), "ratio",
                       f"{len(runs) - failed} of {len(runs)} items free of any failure, "
                       f"known defects included"),
        "peak_rss_mb": (rss_mb, "MB", "getrusage ru_maxrss after the untraced phase"),
    }


SPAN_METRICS = (
    "numerics.jet_eval", "numerics.fd_hessian", "tensors.torsion_oracle", "tensors.audit_flag",
    "tensors.bundle_at", "connection.covariant_db", "connection.difference_ingredients",
    "connection.difference_tensor", "hypersurface.frame_at", "hypersurface.normal_curvature_and_h",
    "classifier.classify", "classifier.surface_points", "classifier.first_kind_test",
    "classifier.second_kind_test", "numerics.least_squares", "geodesic.minimize",
    "metric.coeff_eval", "metric.flag_point", "numerics.pd_check", "config.load_config",
)


def per_layer(tracer: tr.Tracer, runs: list[Execution], untraced: list[Execution]) -> dict:
    """Per-item layer figures of the traced phase; times at the reference speed."""
    n = len(runs)
    k = sum(ex.ref_s for ex in runs) / sum(ex.seconds for ex in runs)
    spans = tracer.summary()
    out = {}
    for name in SPAN_METRICS:
        row = spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = (row["calls"] / n, "calls/item")
        out[f"{name}.total_s"] = (k * row["total_s"] / n, "s/item")
        out[f"{name}.self_s"] = (k * row["self_s"] / n, "s/item")
    draws = spans.get("metric.validity_check", {"calls": 0})["calls"]
    accepted = tracer.values["metric.sample_flags.accepted"]
    out["metric.validity_check.calls"] = (draws / n, "calls/item")
    out["metric.sample_flags.accept_ratio"] = (accepted / draws if draws else 0.0, "ratio")
    level_evals = tracer.calls("hypersurface.level_eval")
    points = tracer.values["classifier.surface_points.points"]
    out["hypersurface.level_eval.calls"] = (level_evals / n, "calls/item")
    out["classifier.surface_points.evals_per_point"] = (
        tracer.calls("hypersurface.level_eval", "classifier.surface_points") / points
        if points else 0.0, "evals/point")
    iterations = tracer.values["geodesic.iterations"]
    segment_evals = tracer.calls("metric.finsler_norm")
    out["geodesic.iterations"] = (iterations / n, "iters/item")
    out["geodesic.segment_evals"] = (segment_evals / n, "calls/item")
    out["geodesic.segment_evals_per_iteration"] = (
        segment_evals / iterations if iterations else 0.0, "calls/iter")
    out["cli.main.self_s"] = (k * spans.get("cli.main", {"self_s": 0.0})["self_s"] / n,
                              "s/item")
    out["cli.out_bytes"] = (sum(ex.out_bytes for ex in runs) / n, "bytes/item")
    out["trace.items_per_s_ratio"] = (rate(runs) / rate(untraced), "ratio")
    return out


def environment(seed: int) -> str:
    import numpy

    threads = ",".join(f"{v}={os.environ[v]}" for v in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"))
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"nproc {os.cpu_count()}, seed {seed}, BLAS threads pinned ({threads}); "
            f"closed loop, 1 client, 1 process, no threads; times rescaled to a "
            f"{speed.REF_S * 1e3:g} ms speed kernel")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.CYCLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "finslerkit" / "__init__.py").is_file():
        print(f"error: no finslerkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()

    warm, cycle = wl.build(args.workload, args.seed)
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        (workdir / "warm").mkdir()
        setup = Setup(warm, workdir / "warm")
        cli = setup.repeat(SETUP_REPEATS[0])
        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            print(f"error: finslerkit imported from {cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        runner = Runner(cycle, workdir)
        deadline = start + HARD_STOP_S

        if tr.installed():
            print(f"error: wrappers installed in the untraced run: {tr.installed()}",
                  file=sys.stderr)
            return 2
        runs, wall, cycles = measure(runner, cli, args.seconds, 2, deadline)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tr.installed():
            print("error: wrappers appeared during the untraced run", file=sys.stderr)
            return 2
        runner.judge(runs)
        measured = list(runs)

        if args.trace:
            tracer = tr.Tracer()
            tracer.install()
            try:
                traced, _twall, tcycles = measure(runner, cli, args.seconds / 2, 1, deadline,
                                                 tracer)
            finally:
                tracer.uninstall()
            runner.judge(traced)
            measured += traced
            spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.csv"
            tracer.write(spans_path)
            layer = per_layer(tracer, traced, runs)
        setup.repeat(SETUP_REPEATS[1])
        setup_s, setup_wall, problems, warm_failed = setup.result()
        report = end_to_end(runs, wall, cycles, (setup_s, setup_wall), rss_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [ex for ex in measured if ex.problem]
    unexpected = [ex for ex in failed if not ex.known]
    problems += sorted({f"{cycle[ex.item].key}: {ex.problem}" for ex in unexpected})
    known = sorted({f"{cycle[ex.item].key} [{cycle[ex.item].known_defect}]: {ex.problem}"
                    for ex in failed if ex.known})

    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s per phase, "
          f"trace {args.trace}")
    print(f"environment: {environment(args.seed)}")
    print(f"cycle: {len(cycle)} items x {cycles} cycles untraced"
          + (f", x {tcycles} cycles traced" if args.trace else ""))
    for name, (value, unit, note) in report.items():
        print(f"  {name:<13} = {value:.6g} {unit}  ({note})")
    print(f"  fail_ratio    = {len(failed) / len(measured):.6g}  ({len(failed)} of "
          f"{len(measured)} items failed{' over both phases' if args.trace else ''}: "
          f"{len(failed) - len(unexpected)} known defects, {len(unexpected)} unexpected)")
    distinct = sorted({(ex.item, ex.digest) for ex in runs}, key=str)
    combined = hashlib.sha256("".join(str(d) for d in distinct).encode()).hexdigest()
    print(f"  determinism: {len(runs)} executions of {len(cycle)} items, "
          f"{len(distinct)} distinct --out digests, combined {combined[:16]}")
    for line in known:
        print(f"  known defect: {line}")
    for line in problems:
        print(f"  FAILED: {line}")
    if args.trace:
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        for name, (value, unit) in layer.items():
            print(f"  {name:<46} = {value:.6g} {unit}")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in report.items()}
    # A known defect of exactly its pinned shape is the item's expected
    # outcome at baseline: it shows in pass_ratio and fail_ratio, not here.
    print(json.dumps({"correct": not problems, "attempted": len(measured) + len(setup.runs),
                      "failed": len(unexpected) + warm_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

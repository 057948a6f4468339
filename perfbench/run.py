"""chamferkit's benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload pairs-grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; chamferkit is imported from its
`src/`. The load is a closed loop with one client in this process (and at
most one CLI child at a time), with worker threads pinned to one.

With --trace 0 the ops run untraced and the end-to-end metrics are reported.
With --trace 1 every op runs twice, untraced and then split into public calls
with spans; the per-layer metrics come from the spans. Either way the last
stdout line is the JSON result, the line before it the environment and input
record, and both are also written under .perfbench_out/ with the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, layer_stats

PINNED_ENV = {
    "CHAMFERKIT_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_REPEATS = 3  # each: import in a fresh interpreter, make inputs, one warm-up op
IMPORT_TIMER = "import time; t0 = time.perf_counter(); import chamferkit; print(repr(time.perf_counter() - t0))"
MIN_SAMPLES = 11  # the tail percentile needs ten samples beyond it
TAIL_BEYOND = 10

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds() -> float:
    """`import chamferkit` timed inside a fresh interpreter, as a user pays it."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(proc.stdout)


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0  # too few samples: report the maximum
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def children_usage() -> tuple[float, float]:
    """CPU seconds and peak RSS (MB) of all waited-for children so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(index / "size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pinned": PINNED_ENV,
        "seed": seed,
    }


class Runner:
    """Times one workload's ops and keeps count of what failed."""

    def __init__(self, workload, trace: bool):
        self.w = workload
        self.tracer = Tracer() if trace else None
        self.latencies: list[float] = []
        self.cpu: list[float] = []
        self.overhead: list[float] = []
        self.kinds: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def _cpu_now(self) -> float:
        return children_usage()[0] if self.w.spawns_children else time.process_time()

    def untraced(self, kind: str) -> float:
        self.attempted += 1
        c0, t0 = self._cpu_now(), time.perf_counter()
        try:
            out = self.w.run(kind)
        except Exception:  # a failed op is counted, the run goes on
            out, error = None, traceback.format_exc()
        else:
            error = None
        t1, c1 = time.perf_counter(), self._cpu_now()
        self.latencies.append(t1 - t0)
        self.cpu.append(c1 - c0)
        self.kinds.append(kind)
        if error is not None:
            self._fail(f"{kind}: {error}")
        elif not self.w.check(kind, out):
            self._fail(f"{kind}: output differs from the checked reference")
        return t1 - t0

    def traced(self, kind: str, op: int) -> float | None:
        self.attempted += 1
        tr = self.tracer
        tr.op = op
        first = len(tr.spans)
        try:
            out = self.w.run_traced(kind, tr)
        except Exception:
            self._fail(f"traced {kind}: {traceback.format_exc()}")
            return None
        if not self.w.check(kind, out):
            self._fail(f"traced {kind}: split calls differ from the op's checked output")
        name = self.w.timed_span(kind)
        return next(s.end - s.start for s in tr.spans[first:] if s.name == name)

    def measure(self, seconds: float) -> None:
        """Closed loop over whole rotations of the workload's op kinds."""
        cycle = self.w.cycle
        start = time.perf_counter()
        i = 0
        while True:
            elapsed = time.perf_counter() - start
            if self.tracer is None:  # whole rotations, so the mix of kinds is fixed
                stop = i % len(cycle) == 0 and len(self.latencies) >= MIN_SAMPLES
            else:  # every kind traced at least once
                stop = i >= len(cycle)
            if (stop and elapsed >= seconds) or elapsed >= 3 * seconds:
                break
            kind = cycle[i % len(cycle)]
            if self.tracer is None:
                self.untraced(kind)
            else:  # a pair, alternating which of the two runs first
                if i % 2:
                    traced = self.traced(kind, i)
                    plain = self.untraced(kind)
                else:
                    plain = self.untraced(kind)
                    traced = self.traced(kind, i)
                if traced is not None:
                    self.overhead.append(traced / plain)
            i += 1


def kind_median(runner: Runner, values: list[float]) -> float:
    """Median per op kind, averaged over the kinds of the rotation.

    With one kind this is the plain median; with a rotation of unequal ops
    it does not jump between kinds as the number of whole rotations varies.
    """
    return statistics.fmean(
        statistics.median(v for v, k in zip(values, runner.kinds) if k == kind) for kind in runner.w.cycle
    )


def end_to_end(runner: Runner, setup_s: float) -> dict[str, float]:
    lat = runner.latencies
    value, _ = tail(lat)
    if runner.w.spawns_children:
        peak = children_usage()[1]
    else:
        peak = self_peak_rss_mb()
    return {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_s": kind_median(runner, lat),
        "latency_tail_s": value,
        "cpu_per_op_s": kind_median(runner, runner.cpu),
        "peak_rss_mb": peak,
        "ok_share": 1.0 - runner.failed / runner.attempted,
    }


def per_layer(runner: Runner, properties: dict) -> dict[str, float]:
    stats = layer_stats(runner.tracer.spans)

    def get(name: str, field: str) -> float:
        return getattr(stats[name], field) if name in stats else 0.0

    out = {}
    for layer in (
        "matching.match_indexed",
        "distances.chamfer_poincare",
        "distances.chamfer",
        "gradients.chamfer_gradient",
        "fitting.fit",
        "evaluation.evaluate",
        "io.read_cloud",
        "io.write_cloud",
        "cloud.gen_shape",
    ):
        for field in ("calls", "busy_s", "self_s", "op_share"):
            out[f"{layer}.{field}"] = get(layer, field)
    out["matching.match_indexed.points_per_s"] = get("matching.match_indexed", "rate")
    out["distances.chamfer_poincare.pairs_per_s"] = get("distances.chamfer_poincare", "rate")
    out["io.read_cloud.mb_per_s"] = get("io.read_cloud", "rate")
    out["io.write_cloud.mb_per_s"] = get("io.write_cloud", "rate")
    out["fitting.fit.epoch_s"] = get("fitting.epoch", "span_s")
    for kind in ("distance", "eval", "gen"):
        out[f"cli.{kind}.process_s"] = get(f"cli.{kind}", "busy_s")
    imports = runner.tracer.values.get("cli.import_s")
    out["cli.import_s"] = statistics.median(imports) if imports else 0.0
    out["matching.tie_query_share"] = properties["tie_query_share"]
    out["trace.op_s"] = get("op", "busy_s")
    out["trace.overhead_share"] = statistics.median(runner.overhead) - 1.0 if runner.overhead else 0.0
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chamferkit" / "__init__.py").is_file():
        print(f"error: no chamferkit sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.update(PINNED_ENV)
    sys.path.insert(1, str(SRC))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = out_dir / f"work-{stem}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        runner = Runner(workload, trace=bool(args.trace))

        setups, imports = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(import_seconds())
            t0 = time.perf_counter()
            workload.make_inputs()
            warm = workload.run(workload.cycle[0])
            setups.append(imports[-1] + time.perf_counter() - t0)
        setup_s = statistics.median(setups)

        problems = workload.prepare_checks(warm)
        properties = workload.properties()
        runner.measure(args.seconds)
        if problems:  # ops reproduced a reference that failed its own checks
            runner.failed = runner.attempted
            runner.failures = problems[:20] + runner.failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values, listed = per_layer(runner, properties), spec["per_layer"]
    else:
        values, listed = end_to_end(runner, setup_s), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    tail_value, tail_pct = tail(runner.latencies)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "inputs": properties,
        "latency_tail": {"percentile": tail_pct, "samples": len(runner.latencies), "value_s": tail_value},
        "setup_repeats_s": setups,
        "import_s": imports,
        "op_kinds": runner.kinds,
        "latencies_s": runner.latencies,
        "failures": runner.failures,
        "values": values,  # every computed metric, listed or not
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps({"record": record, "result": result}, indent=1))
    if runner.tracer is not None:
        runner.tracer.write(out_dir / f"{stem}.spans.jsonl")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

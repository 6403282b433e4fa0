"""Benchmark of the trifold command line, run from the root of a checkout:

    python3 bench/run.py --workload window --seed 1 --seconds 25 --trace 0

Each op is an in-process ``trifold.cli.main(argv)`` call with the argv a
user would type; the ops of a workload run one at a time in one process
(closed loop), the ``--threads 2`` op using two threads.  A pass runs
the workload's whole op list; passes repeat while the next one still
fits in ``--seconds`` of measured op time, and at least one runs.
Garbage is collected before every op, outside the timing, so an op does
not pay for the previous op's objects.

Times are scaled to a nominal machine speed.  On a shared machine the
speed of the whole machine drifts by tens of percent within seconds, so
a fixed pure-Python reference task (``Gauge``) is timed at least every
``GAUGE_GAP_S`` seconds between ops, and each op's seconds are
multiplied by ``NOMINAL_REF_S`` over the mean reference time just before
and just after it.  The raw seconds are printed too, and the per-command
``cli.<cmd>_s`` of the traced run are raw.

Outputs are checked outside the timing: in full on the first pass, and
on later passes by comparing stdout, exit status and written files with
the first pass.  An op fails when it raises, exits non-zero or fails its
check; ``correct`` is false when an op gives a wrong result (see
``assess``), and an op that only errors counts in ``failed``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
``setup_s`` (fresh interpreter until ``import trifold.cli`` returns,
median of ``SETUP_LAUNCHES``), ``wall_s`` (median over passes of the
summed op time of a pass) and ``peak_rss_mb`` (process high-water mark
after the first pass, before any check runs).  ``--trace 1`` runs one
untraced pass, one traced pass (spans, see tracing.py) and one pass
taking tracemalloc peaks, and reports the per-layer metrics.  The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

SETUP_LAUNCHES = 15
GAUGE_GAP_S = 0.5
GAUGE_SPAN_S = 1.0
# Median reference time on the 2-core machine the benchmark was defined on.
NOMINAL_REF_S = 0.005


class Gauge:
    """Timings of a fixed pure-Python task that allocates like the ops do
    (a dict of tuples, then a sum).  It never changes with the program,
    so its time tracks only the machine's current speed."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (taken at, seconds)

    def sample(self):
        taken = time.perf_counter()
        runs = []
        for _ in range(5):
            gc.collect()
            start = time.perf_counter()
            table = {}
            for i in range(30000):
                table[i, i & 7] = i
            sum(table.values())
            runs.append(time.perf_counter() - start)
        self.samples.append((taken, statistics.median(runs)))

    def due(self) -> bool:
        return time.perf_counter() - self.samples[-1][0] >= GAUGE_GAP_S

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_REF_S over the mean of the samples taken within
        GAUGE_SPAN_S of the op, and at least the last one before it and
        the first one after it."""
        stamps = [t for t, _ in self.samples]
        lo = min(bisect.bisect_left(stamps, start) - 1, bisect.bisect_left(stamps, start - GAUGE_SPAN_S))
        hi = max(bisect.bisect_left(stamps, end), bisect.bisect_right(stamps, end + GAUGE_SPAN_S) - 1)
        near = [sec for _, sec in self.samples[lo:hi + 1]]
        return NOMINAL_REF_S * len(near) / sum(near)


@dataclass
class Outcome:
    command: str
    seconds: float
    code: object  # exit status, or None when the op raised
    out: str
    error: str
    digests: tuple[str, ...]
    scaled: float = 0.0  # seconds at nominal machine speed

    def fingerprint(self):
        return (self.code, self.out, self.error, self.digests)


def _argparser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def measure_setup(src: Path) -> tuple[float, float]:
    """Median (scaled, raw) time from starting a fresh interpreter until
    ``import trifold.cli`` returns, after one untimed launch."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import trifold.cli"]
    gauge = Gauge()
    spans = []
    for i in range(SETUP_LAUNCHES + 1):
        gauge.sample()
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL)
        if i:
            spans.append((start, time.perf_counter()))
    gauge.sample()
    return (statistics.median((e - s) * gauge.scale(s, e) for s, e in spans),
            statistics.median(e - s for s, e in spans))


def run_pass(ops, main, hook=None) -> list[Outcome]:
    """Run every op once; ``hook.op`` (a Tracer or PeakProbe) tracks the
    op index."""
    gauge = Gauge()
    gauge.sample()
    results, spans = [], []
    for index, op in enumerate(ops):
        if gauge.due():
            gauge.sample()
        gc.collect()
        if hook is not None:
            hook.op = index
        out, err = io.StringIO(), io.StringIO()
        code, error = None, ""
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(op.argv)
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
            except Exception as exc:  # a crash is a failed op, not a harness error
                error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
        spans.append((start, end))
        digests = tuple(hashlib.sha256(f.read_bytes()).hexdigest() if f.exists() else ""
                        for f in op.writes)
        results.append(Outcome(op.command, end - start, code, out.getvalue(),
                               error or err.getvalue(), digests))
    gauge.sample()
    for res, (start, end) in zip(results, spans):
        res.scaled = res.seconds * gauge.scale(start, end)
    return results


def assess(ops, results) -> list[str]:
    """First pass, per op: 'ok'; 'wrong: <reason>' when it exits 0 with
    output that fails its check, or exits 1 (the CLI's code for a
    property violation, and every op here should hold its property);
    'error: <reason>' when it raises or exits with another code."""
    status = []
    for op, res in zip(ops, results):
        if res.code == 0:
            try:
                reason = op.check(res.out)
            except Exception as exc:  # unreadable output is wrong output
                reason = f"check raised {type(exc).__name__}: {exc}"
            status.append("ok" if reason is None else f"wrong: {reason}")
        elif res.code == 1:
            status.append(f"wrong: exit 1: {res.out.strip().splitlines()[-1:]}")
        else:
            status.append("error: " + (res.error.strip().splitlines()
                                       or [f"exit {res.code}"])[-1])
    return status


def compare(first, first_status, results) -> list[str]:
    """Later passes repeat the first pass's outputs exactly."""
    return [s if r.fingerprint() == f.fingerprint() else "wrong: output differs from pass 1"
            for f, s, r in zip(first, first_status, results)]


def raw(results) -> float:
    return sum(r.seconds for r in results)


def scaled(results) -> float:
    return sum(r.scaled for r in results)


def by_command(results) -> dict[str, float]:
    out: dict[str, float] = {}
    for r in results:
        out[r.command] = out.get(r.command, 0.0) + r.seconds
    return out


def timed_run(ops, main, seconds: float):
    passes, statuses = [], []
    peak_rss_mb = None
    measured = 0.0
    while True:
        results = run_pass(ops, main)
        if not passes:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            statuses.append(assess(ops, results))
        else:
            statuses.append(compare(passes[0], statuses[0], results))
        passes.append(results)
        measured += raw(results)
        if measured + raw(results) > seconds:
            break
    print("# raw seconds per pass:", " ".join(f"{raw(p):.4f}" for p in passes))
    print("# scaled seconds per pass:", " ".join(f"{scaled(p):.4f}" for p in passes))
    for command in by_command(passes[0]):
        print(f"# raw {command}_s per pass:",
              " ".join(f"{by_command(p)[command]:.4f}" for p in passes))
    metrics = {"wall_s": statistics.median(scaled(p) for p in passes),
               "peak_rss_mb": peak_rss_mb}
    return metrics, statuses


def traced_run(ops, main):
    from trifold import cli

    untraced = run_pass(ops, main)
    statuses = [assess(ops, untraced)]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        # cli.main is looked up after install, so each op is a span
        traced = run_pass(ops, lambda argv: cli.main(argv), tracer)
    finally:
        tracer.uninstall()
    statuses.append(compare(untraced, statuses[0], traced))

    probe = tracing.PeakProbe(ops)
    probe.install()
    try:
        probed = run_pass(ops, main, probe)
    finally:
        probe.uninstall()
    statuses.append(compare(untraced, statuses[0], probed))

    found = tracer.metrics()
    found.update(probe.metrics())
    modules = sum(v for k, v in found.items()
                  if k.endswith(".self_s") and k.count(".") == 1)
    if abs(modules - found["cli.op_s"]) > 1e-6 * found["cli.op_s"]:
        raise RuntimeError(f"self times {modules} do not add up to op time {found['cli.op_s']}")

    for command, seconds in by_command(untraced).items():
        found[f"cli.{command}_s"] = seconds
    found["cli.bytes_written"] = sum(f.stat().st_size for op in ops for f in op.writes)
    attempted = len(ops) * len(statuses)
    found["cli.ops_failed_ratio"] = sum(s != "ok" for p in statuses for s in p) / attempted

    verify = [i for i, op in enumerate(ops) if op.command == "verify"]
    built = tracer.calls_by_op({"folding.patch", "unfold.unfold_pattern",
                                "substitution.compose"})
    used = sum(len(ops[i].argv[ops[i].argv.index("--methods") + 1].split(","))
               if "--methods" in ops[i].argv else 3 for i in verify)
    total_built = sum(built[i] for i in verify)
    found["cli.verify.generators_used_ratio"] = used / total_built if total_built else 0.0

    stars = [i for i, op in enumerate(ops) if op.command == "stars"]
    hist = tracer.calls_by_op({"analysis.vertex_star_histogram"})
    found["analysis.stars.histograms_per_op"] = (
        sum(hist[i] for i in stars) / len(stars) if stars else 0.0)
    found["trace.overhead_ratio"] = scaled(traced) / scaled(untraced)

    metrics = {name: found.get(name, 0.0) for name, *_ in tracing.LAYER_METRICS}
    return metrics, statuses


def check_benchmark_file(root: Path) -> str | None:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    want = [[name, unit, better] for name, unit, better, _ in tracing.LAYER_METRICS]
    have = [[m["name"], m["unit"], m["better"]] for m in spec["per_layer"]]
    if have != want:
        return "BENCHMARK.json per_layer differs from tracing.LAYER_METRICS"
    return None


def main(argv=None) -> int:
    args = _argparser().parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "trifold" / "cli.py").is_file():
        print(f"error: no trifold sources under {src}", file=sys.stderr)
        return 2
    problem = check_benchmark_file(root)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if not args.trace:
        setup_s, setup_raw_s = measure_setup(src)
        print(f"# raw setup_s: {setup_raw_s:.6f}")
    from trifold import cli

    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=root))
    try:
        ops = workloads.build(args.workload, args.seed, work)
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics, statuses = traced_run(ops, cli.main)
            units = {name: unit for name, unit, *_ in tracing.LAYER_METRICS}
        else:
            metrics, statuses = timed_run(ops, cli.main, args.seconds)
            metrics = {"setup_s": setup_s, **metrics}
            units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    flat = [s for p in statuses for s in p]
    for op, status in zip(ops, statuses[0]):
        if status != "ok":
            print(f"op {' '.join(op.argv[:2])}: {status}")
    failed = sum(s != "ok" for s in flat)
    print(f"# ops_failed_ratio {failed / len(flat):.6g} ({failed} of {len(flat)} ops)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": not any(s.startswith("wrong") for s in flat),
        "attempted": len(flat),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counters around the package's public functions, from outside.

Nothing in ``src/`` knows about tracing: ``Tracer.install`` rebinds each
traced function wherever a ``trifold`` module holds it (a module
attribute, a ``from x import f`` copy, or a class attribute) and
``uninstall`` puts the originals back, so untraced passes run the
program as shipped.

A span records name, start, end, parent span and op id.  Spans stay in
memory and are reduced to metrics when the run ends.  Self time is a
span's duration minus its children's; spans are kept per thread and a
thread's spans nest, so the self times of all spans add up to the time
of the ``cli.main`` spans, one per op.  Per-segment functions called
hundreds of thousands of times per pass are counted, not spanned, so
their time stays in the self time of the span that called them.
``folding.color_of_segment`` runs on the ``--threads`` worker threads;
its ``.s`` is the thread CPU time spent in it, which leaves out the
time a worker waits for the interpreter lock.
"""

from __future__ import annotations

import collections
import importlib
import sys
import threading
import time
import tracemalloc

# name, unit, better, and the end-to-end figure the metric should move.
# "<cmd>_s" are the per-command ``cli.<cmd>_s`` times; "wall_s" and
# "peak_rss_mb" are the end-to-end metrics in BENCHMARK.json.
LAYER_METRICS = (
    ("folding.patch.s", "s", "lower", "generate_s, stars_s, wall_s on window"),
    ("folding.patch.self_s", "s", "lower", "generate_s, stars_s, wall_s on window"),
    ("folding.patch.segments", "count", "lower", "generate_s, stars_s on window"),
    ("folding.color_of_segment.calls", "count", "lower", "generate_s on window"),
    ("folding.color_of_segment.s", "s", "lower", "generate_s on window"),
    ("folding.ball_patch.s", "s", "lower", "generate_s, period_s on mld"),
    ("folding.ball_patch.segments", "count", "lower", "generate_s, period_s on mld"),
    ("folding.interior_mismatches.s", "s", "lower", "verify_s on oracle"),
    ("unfold.unfold_pattern.s", "s", "lower", "verify_s on oracle"),
    ("unfold.unfold_once.s", "s", "lower", "verify_s on oracle"),
    ("unfold.unfold_once.calls", "count", "lower", "verify_s on oracle"),
    ("substitution.compose.s", "s", "lower", "verify_s on oracle"),
    ("substitution.apply_rule_patch.s", "s", "lower", "verify_s on oracle"),
    ("substitution.apply_rule_patch.calls", "count", "lower", "verify_s on oracle"),
    ("substitution.recenter.s", "s", "lower", "verify_s on oracle"),
    ("spectral.density_limit.s", "s", "lower", "density_s on spectra"),
    ("spectral.density_limit.calls", "count", "lower", "density_s on spectra"),
    ("spectral.word_matrix.calls", "count", "lower", "density_s, spectrum_s on spectra"),
    ("spectral.Mat.mul.calls", "count", "lower", "density_s, spectrum_s on spectra"),
    ("spectral.Mat.mul.s", "s", "lower", "density_s, spectrum_s on spectra"),
    ("spectral.Mat.power.s", "s", "lower", "density_s on spectra"),
    ("spectral.eigen_report.s", "s", "lower", "spectrum_s on spectra"),
    ("spectral.triangularize.s", "s", "lower", "spectrum_s on spectra"),
    ("spectral.Mat.rank.s", "s", "lower", "spectrum_s on spectra"),
    ("tiling.to_tiling.s", "s", "lower", "reconstruct_s on mld (0: tilings are made before timing)"),
    ("tiling.strip_decoration.s", "s", "lower", "reconstruct_s on mld"),
    ("tiling.reconstruct.s", "s", "lower", "reconstruct_s on mld"),
    ("tiling.reconstruct.segments", "count", "higher", "reconstruct_s on mld"),
    ("analysis.vertex_star_histogram.s", "s", "lower", "stars_s on window"),
    ("analysis.vertex_star_histogram.calls", "count", "lower", "stars_s on window"),
    ("analysis.period_check.s", "s", "lower", "period_s on mld"),
    ("analysis.filter_layer.s", "s", "lower", "period_s on mld"),
    ("patternio.write_pattern.s", "s", "lower", "generate_s on window"),
    ("patternio.write_pattern.bytes", "B", "lower", "generate_s on window"),
    ("patternio.read_pattern.s", "s", "lower", "render_s on window, reconstruct_s on mld"),
    ("patternio.read_pattern.bytes", "B", "lower", "render_s on window, reconstruct_s on mld"),
    ("patternio.read_tiling.s", "s", "lower", "reconstruct_s on mld"),
    ("patternio.render_svg.s", "s", "lower", "render_s on window"),
    ("lattice.segments_enumerated", "count", "lower", "wall_s on window, oracle, mld"),
    ("lattice.tiles_enumerated", "count", "lower", "wall_s on oracle, mld"),
    ("lattice.reflections", "count", "lower", "wall_s on oracle"),
    ("folding.self_s", "s", "lower", "wall_s everywhere"),
    ("unfold.self_s", "s", "lower", "wall_s on oracle"),
    ("substitution.self_s", "s", "lower", "wall_s on oracle"),
    ("spectral.self_s", "s", "lower", "wall_s on spectra"),
    ("tiling.self_s", "s", "lower", "wall_s on mld"),
    ("analysis.self_s", "s", "lower", "wall_s on window, mld"),
    ("patternio.self_s", "s", "lower", "wall_s on window, mld"),
    ("cli.self_s", "s", "lower", "wall_s everywhere, generate_s on window"),
    ("cli.op_s", "s", "lower", "wall_s everywhere (traced)"),
    ("cli.bytes_written", "B", "lower", "wall_s everywhere, generate_s on window"),
    ("cli.generate_s", "s", "lower", "wall_s on window, mld"),
    ("cli.render_s", "s", "lower", "wall_s on window"),
    ("cli.stars_s", "s", "lower", "wall_s on window"),
    ("cli.verify_s", "s", "lower", "wall_s on oracle"),
    ("cli.density_s", "s", "lower", "wall_s on spectra"),
    ("cli.spectrum_s", "s", "lower", "wall_s on spectra"),
    ("cli.reconstruct_s", "s", "lower", "wall_s on mld"),
    ("cli.period_s", "s", "lower", "wall_s on mld"),
    ("cli.ops_failed_ratio", "ratio", "lower", "attempted and failed everywhere"),
    ("cli.verify.generators_used_ratio", "ratio", "higher", "verify_s on oracle"),
    ("analysis.stars.histograms_per_op", "count", "lower", "stars_s on window"),
    ("folding.patch.peak_mb", "MB", "lower", "peak_rss_mb on window"),
    ("unfold.unfold_pattern.peak_mb", "MB", "lower", "peak_rss_mb on oracle"),
    ("substitution.compose.peak_mb", "MB", "lower", "peak_rss_mb on oracle"),
    ("tiling.reconstruct.peak_mb", "MB", "lower", "peak_rss_mb on mld"),
    ("patternio.read_pattern.peak_mb", "MB", "lower", "peak_rss_mb on window, mld"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced wall_s / untraced wall_s"),
)


def _segments(result, args):
    return len(result.colors)


def _result_len(result, args):
    return len(result)


def _text_len(result, args):
    return len(args[0])


# Spanned functions in ``module[.Class].attr`` form (the span is named
# the same, with ``Mat.__mul__`` as ``Mat.mul``), and the optional item
# count as (metric suffix, measure(result, args)).
SPANS = (
    ("cli.main", None),
    ("folding.patch", ("segments", _segments)),
    ("folding.ball_patch", ("segments", _segments)),
    ("folding.interior_mismatches", None),
    ("unfold.unfold_pattern", None),
    ("unfold.unfold_once", None),
    ("substitution.compose", None),
    ("substitution.apply_rule_patch", None),
    ("substitution.recenter", None),
    ("spectral.density_limit", None),
    ("spectral.word_matrix", None),
    ("spectral.eigen_report", None),
    ("spectral.triangularize", None),
    ("spectral.Mat.__mul__", None),
    ("spectral.Mat.power", None),
    ("spectral.Mat.rank", None),
    ("tiling.to_tiling", None),
    ("tiling.strip_decoration", None),
    ("tiling.reconstruct", ("segments", _result_len)),
    ("analysis.vertex_star_histogram", None),
    ("analysis.period_check", None),
    ("analysis.filter_layer", None),
    ("patternio.write_pattern", ("bytes", _result_len)),
    ("patternio.read_pattern", ("bytes", _text_len)),
    ("patternio.read_tiling", ("bytes", _text_len)),
    ("patternio.render_svg", None),
)

# Region iterators whose yielded items are counted, by counter name.
ITERATORS = (
    ("lattice.TriRegion.iter_interior_segments", "lattice.segments_enumerated"),
    ("lattice.TriRegion.iter_boundary_segments", "lattice.segments_enumerated"),
    ("lattice.BallRegion.iter_interior_segments", "lattice.segments_enumerated"),
    ("lattice.TriRegion.iter_tile_anchors", "lattice.tiles_enumerated"),
    ("lattice.BallRegion.iter_tile_anchors", "lattice.tiles_enumerated"),
)

# Functions whose tracemalloc peak is taken, in a pass of their own.
PEAKS = ("folding.patch", "unfold.unfold_pattern", "substitution.compose",
         "tiling.reconstruct", "patternio.read_pattern")


def _resolve(target: str):
    """(owner, attribute, original) for ``module[.Class].attr``."""
    parts = target.split(".")
    owner = importlib.import_module("trifold." + parts[0])
    for name in parts[1:-1]:
        owner = getattr(owner, name)
    return owner, parts[-1], vars(owner)[parts[-1]]


class _Patcher:
    """Rebinds functions across the ``trifold`` modules and restores them."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, target: str, make):
        owner, attr, original = _resolve(target)
        wrapper = make(original)
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "trifold":
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class _ThreadLog:
    """What one thread recorded: spans (name, start, end, parent index in
    this log, op id), the open-span stack and counters.  Only its own
    thread writes to it."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: collections.Counter = collections.Counter()


class Tracer:
    """Spans and counters for one traced pass; ``op`` is set per op."""

    def __init__(self):
        self.op = -1
        self._logs: list[_ThreadLog] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patcher = _Patcher()

    def install(self):
        for target, measure in SPANS:
            name = target.replace(".__mul__", ".mul")
            self._patcher.replace(target, lambda fn, n=name, m=measure: self._span(n, fn, m))
        for target, counter in ITERATORS:
            self._patcher.replace(target, lambda fn, c=counter: self._iter(c, fn))
        self._patcher.replace("lattice.reflect_segment", self._reflections)
        self._patcher.replace("folding.color_of_segment", self._colorer)

    def uninstall(self):
        self._patcher.restore()

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def _span(self, name, fn, measure):
        tracer, clock = self, time.perf_counter

        def wrapper(*args, **kwargs):
            log = tracer._log()
            spans, stack = log.spans, log.stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.op)
            if measure is not None:
                log.counts[f"{name}.{measure[0]}"] += measure[1](result, args)
            return result

        return wrapper

    def _iter(self, counter, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                tracer._log().counts[counter] += n

        return wrapper

    def _reflections(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._log().counts["lattice.reflections"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _colorer(self, fn):
        tracer, clock = self, time.thread_time

        def wrapper(*args, **kwargs):
            log = tracer._log()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                log.counts["folding.color_of_segment.s"] += clock() - start
                log.counts["folding.color_of_segment.calls"] += 1

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Inclusive ``.s``, ``.self_s`` and ``.calls`` per span name, self
        time per module, the counters, and ``cli.op_s``."""
        out: collections.Counter = collections.Counter()
        for log in self._logs:
            child = [0.0] * len(log.spans)
            for name, start, end, parent, _ in log.spans:
                if parent >= 0:
                    child[parent] += end - start
            for index, (name, start, end, _, _) in enumerate(log.spans):
                self_time = end - start - child[index]
                out[f"{name}.s"] += end - start
                out[f"{name}.self_s"] += self_time
                out[f"{name}.calls"] += 1
                out[f"{name.partition('.')[0]}.self_s"] += self_time
            out.update(log.counts)
        out["cli.op_s"] = out["cli.main.s"]
        return dict(out)

    def calls_by_op(self, names) -> collections.Counter:
        return collections.Counter(span[4] for log in self._logs for span in log.spans
                                   if span[0] in names)


class PeakProbe:
    """tracemalloc peak of the ``PEAKS`` functions, taken in the first op
    of each command (tracemalloc slows an allocating call several times
    over, and later ops of a command repeat the sizes of the first).

    Tracing runs only inside those calls, so the rest of the pass keeps
    its speed; a call made while tracing is already on is not measured
    on its own.
    """

    def __init__(self, ops):
        self.peaks: dict[str, int] = {}
        self.op = -1
        first: dict[str, int] = {}
        for index, op in enumerate(ops):
            first.setdefault(op.command, index)
        self._probed = set(first.values())
        self._patcher = _Patcher()

    def install(self):
        for target in PEAKS:
            self._patcher.replace(target, lambda fn, n=target: self._probe(n, fn))

    def uninstall(self):
        self._patcher.restore()

    def _probe(self, name, fn):
        peaks, probe = self.peaks, self

        def wrapper(*args, **kwargs):
            if probe.op not in probe._probed or tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                peaks[name] = max(peaks.get(name, 0), peak)

        return wrapper

    def metrics(self) -> dict[str, float]:
        return {f"{name}.peak_mb": peak / 2 ** 20 for name, peak in self.peaks.items()}

"""Timing, tracing and reporting shared by the workloads.

A workload is a fixed list of ``Op``s built from the seed.  A run repeats
the list in rounds until its time is up; an op's time is its median over
the rounds, so a pause in one round does not move the result.  Outputs
are checked outside the timed region: fully in the first round, and by
their canonical text in every later round.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, Optional

MODULES = (
    "graphs", "circuits", "gf2", "solver", "transforms", "catalog", "scanner",
    "arcdecomp", "pfaffian", "corpus", "fileio", "cli", "errors",
)


class CheckFailed(Exception):
    """An op returned a wrong result."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def load_package(src: Path) -> SimpleNamespace:
    """Import paritygraph from ``src`` afresh.

    Earlier imports are dropped first, so every call pays the package's
    import and starts with empty module-level caches.
    """
    for name in [n for n in sys.modules if n == "paritygraph" or n.startswith("paritygraph.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    return SimpleNamespace(
        **{m: importlib.import_module(f"paritygraph.{m}") for m in MODULES}
    )


def reset_caches(pg: SimpleNamespace) -> None:
    """Empty the circuit and witness-candidate caches."""
    pg.circuits.enumerate_circuits.cache_clear()
    pg.scanner.witness_candidates.cache_clear()


class Tracer:
    """Per-layer wall time (seconds, by span name) and work counts."""

    def __init__(self) -> None:
        self.times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.last = 0.0

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times[name] += time.perf_counter() - t0

    def timed(self, name: str, fn: Callable, *args):
        """``fn(*args)`` inside a span; its duration is left in ``last``."""
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.last = time.perf_counter() - t0
            self.times[name] += self.last

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n


@dataclass
class Op:
    """One timed operation.

    ``run`` does the work; ``traced`` does the same work through the
    layers' public calls, recording spans.  ``check`` raises CheckFailed
    on a wrong result and ``canon`` renders a result as canonical text.
    ``before`` runs untimed ahead of each call (cache resets).
    """

    name: str
    run: Callable[[], Any]
    traced: Callable[[Tracer], Any]
    check: Callable[[Any], None]
    canon: Callable[[Any], str]
    before: Optional[Callable[[], None]] = None


class Limited(NamedTuple):
    """What an op returns when it raised a typed limit error."""

    error: str


@dataclass
class RunResult:
    op_times: list[list[float]] = field(default_factory=list)  # [op][round]
    traced_times: list[list[float]] = field(default_factory=list)
    layer_times: list[list[dict[str, float]]] = field(default_factory=list)  # [op][round]
    layer_counts: list[dict[str, int]] = field(default_factory=list)  # [op]
    canon: list[str] = field(default_factory=list)
    limited: int = 0
    rounds: int = 0
    calibration_ms: list[float] = field(default_factory=list)  # one per round


# A warm op (no ``before``) shorter than this repeats back to back and is
# timed per call, so microsecond cache hits are not measured as the cache
# misses the collection before them causes.
MIN_SAMPLE_S = 0.002


def _call(op: Op, traced: bool, limit_errors: tuple) -> tuple[float, Any, Optional[Tracer]]:
    """(seconds per call, output, tracer with per-call times and counts)."""
    if op.before is not None:
        op.before()
    tracer = Tracer() if traced else None
    # Every op starts with empty collector generations, so the collections
    # its own allocations trigger are charged to it, wherever it sits in
    # the op list and whatever ran before it.
    gc.collect()
    calls = 0
    t0 = time.perf_counter()
    try:
        while True:
            out = op.traced(tracer) if traced else op.run()
            calls += 1
            if op.before is not None or time.perf_counter() - t0 >= MIN_SAMPLE_S:
                break
    except limit_errors as exc:
        out = Limited(type(exc).__name__)
        calls = max(calls, 1)
    dt = (time.perf_counter() - t0) / calls
    if tracer is not None and calls > 1:
        tracer.times = {k: v / calls for k, v in tracer.times.items()}
        tracer.counts = {k: v // calls for k, v in tracer.counts.items()}
    return dt, out, tracer


def run_rounds(ops: list[Op], seconds: float, trace: bool, limit_errors: tuple) -> RunResult:
    """Repeat the op list until ``seconds`` are used, at least once.

    With ``trace`` every round runs the op list twice, untraced and then
    traced, so both sides see the same machine conditions.  After each
    round, outside the round's time, the host's speed is read once.
    """
    res = RunResult(
        op_times=[[] for _ in ops],
        traced_times=[[] for _ in ops],
        layer_times=[[] for _ in ops],
        layer_counts=[{} for _ in ops],
    )
    start = time.perf_counter()
    longest = 0.0  # longest round so far, the first round's full checks excluded
    while res.rounds == 0 or time.perf_counter() - start + longest <= seconds:
        t_round = time.perf_counter()
        for i, op in enumerate(ops):
            dt, out, _ = _call(op, False, limit_errors)
            res.op_times[i].append(dt)
            t_check = time.perf_counter()
            _verify(res, i, op, out, first=res.rounds == 0)
            if res.rounds == 0:
                t_round += time.perf_counter() - t_check
        if trace:
            for i, op in enumerate(ops):
                dt, out, tracer = _call(op, True, limit_errors)
                res.traced_times[i].append(dt)
                res.layer_times[i].append(dict(tracer.times))
                if res.rounds == 0:
                    res.layer_counts[i] = dict(tracer.counts)
                _verify(res, i, op, out, first=False)
        res.rounds += 1
        longest = max(longest, time.perf_counter() - t_round)
        res.calibration_ms.append(calibration_ms(reps=1))
    return res


def _verify(res: RunResult, i: int, op: Op, out: Any, first: bool) -> None:
    if isinstance(out, Limited):
        text = f"LIMITED {out.error}\n"
        if first:
            res.limited += 1
    else:
        if first:
            try:
                op.check(out)
            except CheckFailed as exc:
                raise CheckFailed(f"{op.name}: {exc}") from None
        text = op.canon(out)
    if first:
        res.canon.append(text)
    elif text != res.canon[i]:
        raise CheckFailed(f"{op.name}: output changed between rounds")


def calibration_ms(reps: int = 5) -> float:
    """Median time of a fixed pure-Python loop.

    Not a metric: a reading of the host's speed, recorded beside the
    results so runs made while a shared machine was faster or slower than
    usual can be told apart.
    """
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        x = 0
        for i in range(300_000):
            x ^= (i * 2654435761) & 0xFFFF
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def digest(texts: list[str]) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(res: RunResult, setup_times: list[float], peak_rss_mb: float) -> dict:
    meds = [statistics.median(t) for t in res.op_times]
    n = len(meds)
    return {
        "total_s": metric(sum(meds), "s"),
        "op_p50_ms": metric(percentile(meds, 50) * 1e3, "ms"),
        "op_p90_ms": metric(percentile(meds, 90) * 1e3, "ms"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "ok_ratio": metric((n - res.limited) / n, "ratio"),
    }


def count(res: RunResult, name: str) -> int:
    return sum(c.get(name, 0) for c in res.layer_counts)


def per_layer(res: RunResult, units: dict[str, str]) -> dict:
    """Layer times: each op's median over traced rounds, summed over ops.
    Counts: summed over ops.  A layer the workload never calls reads 0."""
    out = {}
    for name, unit in units.items():
        if unit == "s":
            value = sum(
                statistics.median(r.get(name, 0.0) for r in rounds)
                for rounds in res.layer_times
            )
        else:
            value = count(res, name)
        out[name] = metric(value, unit)
    untraced = sum(statistics.median(t) for t in res.op_times)
    traced = sum(statistics.median(t) for t in res.traced_times)
    out["trace.overhead_ratio"] = metric(traced / untraced, "ratio")
    return out

"""Timed and traced passes over a workload, with every output checked."""

from __future__ import annotations

import importlib
import math
import resource
import signal
import sys
from bisect import bisect_left, bisect_right
from collections import defaultdict
from contextlib import contextmanager
from statistics import fmean, median
from time import perf_counter

import numpy as np

from . import checks, inputs
from .tracing import Tracer

SETUP_REPEATS = 9
# End-to-end times are scaled to a host on which host_probe() takes this long.
PROBE_REFERENCE_S = 0.003
PROBE_EVERY_S = 0.25
PROBE_WINDOW_S = 0.5   # probes this close to a call also describe the host during it


def host_probe() -> float:
    """Seconds for a fixed loop of Python and small numpy work that uses no vortexcc code."""
    a = np.eye(3) * 4 + 1
    acc = 0.0
    t0 = perf_counter()
    for i in range(500):
        acc += float(np.linalg.solve(a, a[0])[0]) + 0.5 * i
    return perf_counter() - t0


class HostSampler:
    """Host slowness sampled inside the timed calls.

    On a shared host the CPU switches between a fast and a slow state every
    few seconds, and the share of slow time drifts by 30% over minutes, which
    moves wall times by as much.  A SIGALRM handler runs host_probe() every
    PROBE_EVERY_S in the measuring thread, so the probes see the same periods
    the calls do; the time the handler takes is subtracted from the calls.
    """

    def __init__(self):
        self.times: list = []    # when each probe started
        self.probes: list = []   # host_probe() seconds
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.times.append(t0)
        self.probes.append(host_probe())
        self.spent += perf_counter() - t0

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def slowness(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Median probe time near [start, end] over the reference; 1 on the reference host.

        Falls back to every probe of the run when none is near.
        """
        lo = bisect_left(self.times, start - PROBE_WINDOW_S)
        hi = bisect_right(self.times, end + PROBE_WINDOW_S)
        return median(self.probes[lo:hi] or self.probes) / PROBE_REFERENCE_S


def weighted_quantile(values, weights, q: float) -> float:
    """Quantile with each value at the midpoint of its cumulative weight."""
    pairs = sorted(zip(values, weights))
    total = sum(weights)
    acc = 0.0
    points = []
    for v, w in pairs:
        points.append(((acc + w / 2) / total, v))
        acc += w
    if q <= points[0][0]:
        return points[0][1]
    for (p0, v0), (p1, v1) in zip(points, points[1:]):
        if q <= p1:
            return v0 + (v1 - v0) * (q - p0) / (p1 - p0)
    return points[-1][1]


def slot_stats(log) -> tuple:
    """Items per second and the p50 and p99 call seconds of (slot, items, seconds) records.

    Every slot of a round gets equal weight, so where the deadline cuts a
    round does not change the call mix the numbers describe.
    """
    by_slot = defaultdict(list)
    items = {}
    for slot, n, dt in log:
        by_slot[slot].append(dt)
        items[slot] = n
    rate = sum(items.values()) / sum(fmean(ts) for ts in by_slot.values())
    times = [t for ts in by_slot.values() for t in ts]
    weights = [1.0 / len(ts) for ts in by_slot.values() for _ in ts]
    return rate, weighted_quantile(times, weights, 0.5), weighted_quantile(times, weights, 0.99)


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.warmup = inputs.CERTIFY_WARMUP if workload == "certify" else inputs.CALIBRATION
        self.vc = None
        self.attempted = 0
        self.failures: list = []
        self.call_log: list = []   # (slot, items, seconds) of each timed call

    # -- calling and checking ------------------------------------------------

    def invoke(self, call, tracer=None):
        """(result, error, seconds) of one public call."""
        vc = self.vc
        v = vc.VorticitySet(call.gammas)
        fn = getattr(vc, call.api)
        if call.api == "verdict":
            args, kwargs = (v,), {}
        elif call.api == "solve_equilibria":
            args, kwargs = (v,), {"starts": call.starts, "seed": call.seed}
        else:
            args, kwargs = (v,), {"regime": call.regime, "starts": call.starts, "seed": call.seed}
        t0 = perf_counter()
        try:
            if tracer is None:
                result = fn(*args, **kwargs)
            else:
                with tracer.root("api." + call.api):
                    result = fn(*args, **kwargs)
        except Exception as exc:  # a raising call is a failed operation, not a crash
            return None, exc, perf_counter() - t0
        return result, None, perf_counter() - t0

    def problems(self, call, result, error) -> list:
        if error is not None:
            return [f"raised {type(error).__name__}: {error}"]
        if call is self.warmup and call.api != "verdict":
            return checks.calibration_problems(call, result)
        if call.api == "verdict":
            return checks.verdict_problems(call, result)
        return checks.solve_problems(call, result)

    def check(self, call, result, error) -> None:
        self.attempted += 1
        problems = self.problems(call, result, error)
        if problems:
            more = f"; +{len(problems) - 3} more" if len(problems) > 3 else ""
            self.failures.append({
                "input": checks.describe(call),
                "reason": "; ".join(problems[:3]) + more,
                "known_defect": checks.known_defect(call, error),
            })

    def probe_known_defects(self) -> list:
        """Check each known-defect input once, untimed and outside `attempted`.

        Each entry names the input, the failure reasons and the known defect
        the failure shows; a probe that passes has no reasons, and one that
        fails in another way has known_defect None.
        """
        found = []
        for call in inputs.KNOWN_DEFECT_PROBES:
            result, error, _ = self.invoke(call)
            problems = self.problems(call, result, error)
            found.append({
                "input": checks.describe(call),
                "reason": "; ".join(problems),
                "known_defect": checks.known_defect(call, error) if problems else None,
            })
        return found

    # -- phases ----------------------------------------------------------------

    def setup(self) -> tuple:
        """Set-up seconds, scaled to the reference host speed and raw.

        Set-up is: import vortexcc, make round 0, one warm-up call.  Each of
        SETUP_REPEATS set-ups is scaled by the mean of a probe just before and
        one just after it; the medians of the scaled and raw times are returned.
        """
        scaled = []
        raw = []
        for _ in range(SETUP_REPEATS):
            before = host_probe()
            for name in [m for m in sys.modules if m == "vortexcc" or m.startswith("vortexcc.")]:
                del sys.modules[name]
            t0 = perf_counter()
            self.vc = importlib.import_module("vortexcc")
            inputs.round_calls(self.workload, self.seed, 0)
            result, error, _ = self.invoke(self.warmup)
            dt = perf_counter() - t0
            slowness = (before + host_probe()) / (2 * PROBE_REFERENCE_S)
            raw.append(dt)
            scaled.append(dt / slowness)
            self.check(self.warmup, result, error)
        return median(scaled), median(raw)

    def timed(self) -> dict:
        """Call the workload until --seconds have passed; end-to-end metrics."""
        starts = converged = 0
        spans = []
        sampler = HostSampler()
        deadline = perf_counter() + self.seconds
        with sampler.running():
            for call in inputs.calls(self.workload, self.seed):
                spent = sampler.spent
                start = perf_counter()
                result, error, dt = self.invoke(call)
                spans.append((start, perf_counter()))
                self.call_log.append((call.slot, call.items, dt - (sampler.spent - spent)))
                self.check(call, result, error)
                if call.api == "solve_central_multistart" and result is not None:
                    starts += result.starts_attempted
                    converged += result.starts_converged
                if perf_counter() >= deadline:
                    break
        # Each call's time is scaled by the host slowness around it.
        scaled = [(slot, n, dt / sampler.slowness(*span))
                  for (slot, n, dt), span in zip(self.call_log, spans)]
        rate, p50, p99 = slot_stats(scaled)
        raw_rate, raw_p50, _ = slot_stats(self.call_log)
        summary = {
            "items_per_s": (rate, "1/s"),
            "call_p50_ms": (1e3 * p50, "ms"),
            "raw_items_per_s": (raw_rate, "1/s"),
            "raw_call_p50_ms": (1e3 * raw_p50, "ms"),
            "host_slowness": (sampler.slowness(), "ratio"),
            "host_probes": (len(sampler.probes), "count"),
            "calls": (len(scaled), "count"),
            "failed_frac": (len(self.failures) / self.attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        if len(scaled) >= 1000:  # at least ten samples beyond the 99th percentile
            summary["call_p99_ms"] = (1e3 * p99, "ms")
        if starts:
            summary["converged_frac"] = (converged / starts, "ratio")
        return summary

    def traced(self) -> tuple:
        """Round 0 untraced and traced, repeated while another pass fits in --seconds.

        Each call runs untraced and then traced right after it, so that both
        see the same host speed and their ratio gives the tracing overhead.
        """
        calls = inputs.round_calls(self.workload, self.seed, 0)
        tracer = Tracer()
        untraced = traced = 0.0
        verdict_s = {"exact": 0.0, "float": 0.0}
        outcome = defaultdict(float)
        passes = 0
        deadline = perf_counter() + self.seconds
        while True:
            pair_start = perf_counter()
            for call in calls:
                result, error, dt = self.invoke(call)
                self.check(call, result, error)
                untraced += dt
                with tracer.installed() as missing:
                    result, error, dt = self.invoke(call, tracer)
                self.check(call, result, error)
                traced += dt
                _tally(outcome, verdict_s, call, result, dt)
            passes += 1
            # Stop before a pair that would end past the deadline.
            if 2 * perf_counter() - pair_start >= deadline:
                break
        metrics = layer_metrics(tracer.totals(), missing, passes, outcome, verdict_s)
        metrics["trace.overhead_frac"] = traced / untraced - 1.0
        return metrics, sorted(missing), tracer


def _tally(outcome, verdict_s, call, result, dt) -> None:
    if result is None:
        return
    if call.api == "verdict":
        verdict_s["float" if call.is_float else "exact"] += dt
        outcome["matches"] += len(result.matches)
    elif call.api == "solve_central_multistart":
        outcome["starts"] += result.starts_attempted
        outcome["converged"] += result.starts_converged
        outcome["distinct"] += len(result.solutions)


SPAN_METRICS = (
    ("system.physical_residual", ("calls", "s")),
    ("system.physical_jacobian", ("calls", "s")),
    ("system.complex_residual", ("calls", "s")),
    ("system.complex_jacobian", ("calls", "s")),
    ("solver.lm_solve", ("calls", "s")),
    ("quantities.invariants", ("calls", "s")),
    ("exceptional.subset_check", ("calls", "s")),
    ("exceptional.catalog_match", ("calls", "s")),
    ("exactpoly.evaluate", ("calls", "s")),
    ("exactpoly.permuted", ("calls",)),
)
# Self time of a layer: its spans minus their children, valid only when
# every child layer it calls is traced.
SELF_TIME = {
    "solver.self_s": (("api.solve_central_multistart", "api.solve_equilibria"),
                      ("system.physical_residual", "system.physical_jacobian",
                       "system.complex_residual", "system.complex_jacobian",
                       "solver.lm_solve", "quantities.invariants")),
    "exceptional.self_s": (("api.verdict", "exceptional.subset_check", "exceptional.catalog_match"),
                           ("exceptional.subset_check", "exceptional.catalog_match",
                            "exactpoly.evaluate", "exactpoly.permuted")),
}


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_metrics(totals: dict, missing: set, passes: int, outcome: dict, verdict_s: dict) -> dict:
    """Per-layer metrics per round; None for anything resting on a missing span."""
    m = {}
    for span, fields in SPAN_METRICS:
        count, total, _ = totals.get(span, (0, 0.0, 0.0))
        for field in fields:
            value = count / passes if field == "calls" else total / passes
            m[f"{span}_{field}"] = None if span in missing else value
    for metric, (spans, children) in SELF_TIME.items():
        own = sum(totals.get(s, (0, 0.0, 0.0))[2] for s in spans) / passes
        m[metric] = None if missing.intersection(children) else own
    jac = _sum_or_none(m["system.physical_jacobian_calls"], m["system.complex_jacobian_calls"])
    starts = outcome["starts"] / passes
    converged = outcome["converged"] / passes
    distinct = outcome["distinct"] / passes
    m["solver.iterations_per_start"] = _ratio(jac, starts)
    m["solver.step_accept_ratio"] = _ratio(jac, m["solver.lm_solve_calls"])
    m["solver.converged_starts"] = converged
    m["solver.converged_frac"] = _ratio(converged, starts)
    m["solver.distinct_solutions"] = distinct
    m["solver.distinct_per_converged"] = _ratio(distinct, converged)
    m["exceptional.matches_reported"] = outcome["matches"] / passes
    m["exceptional.verdict_exact_s"] = verdict_s["exact"] / passes
    m["exceptional.verdict_float_s"] = verdict_s["float"] / passes
    return m


def _sum_or_none(*values):
    return None if any(v is None for v in values) else sum(values)

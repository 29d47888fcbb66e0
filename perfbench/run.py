"""Run one pinned workload of the benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload steady_join --seed 11 --seconds 30 --trace 0

The workload runs whole, each time in a fresh process, as often as fits in
``--seconds`` (at least three times untraced); every repetition uses the
same seed and so the same inputs.  With ``--trace 0`` the run reports the
end-to-end metrics, measured untraced.  With ``--trace 1`` it alternates
untraced and traced repetitions and reports per-layer self time, counts and
ratios from the traced ones, plus the tracing overhead.  Every repetition's
run-time plus cleanup results are checked against the reference oracle,
which runs in this process before the repetitions.  ``--out DIR`` also
writes each traced repetition's spans to ``DIR``.

Host times are reported in reference seconds: host seconds scaled by the
host's speed during the repetition, which a fixed calibration loop run
between slices measures (see :func:`calibrate`).  The shared hosts this
runs on change speed by tens of percent within minutes; the scaling keeps
two measurements of the same code comparable.  The table above the result
also prints the unscaled figures.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable table.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: least untraced repetitions of a ``--trace 0`` run (each is one set-up)
MIN_REPS = 3
#: a repetition that takes longer than this is killed and the run fails
REP_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "tuples_per_s": "tuples/s",
    "slice_ms_p50": "ms",
    "slice_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_runtime_outputs": "results",
    "sim_latency_p50_s": "sim_s",
    "sim_latency_p99_s": "sim_s",
}

#: per-layer self-time metric -> span name
SELF_TIME_SPANS = {
    "workloads.generator.self_s": "workloads.generator",
    "engine.split.self_s": "engine.split",
    "engine.columns.self_s": "engine.columns",
    "engine.state_store.probe_self_s": "engine.state_store.probe",
    "engine.state_store.evict_self_s": "engine.state_store.evict",
    "engine.state_store.install_self_s": "engine.state_store.install",
    "engine.state_store.purge_self_s": "engine.state_store.purge",
    "engine.query_engine.self_s": "engine.query_engine",
    "cluster.simulation.self_s": "cluster.simulation",
    "cluster.machine.self_s": "cluster.machine",
    "cluster.network.self_s": "cluster.network",
    "core.coordinator.self_s": "core.coordinator",
    "core.cleanup.self_s": "core.cleanup",
    "recovery.checkpoint.self_s": "recovery.checkpoint",
    "serving.admission.self_s": "serving.admission",
    "serving.gc.self_s": "serving.gc",
    "obs.slo.self_s": "obs.slo",
    "obs.metrics.self_s": "obs.metrics",
    "obs.invariants.check_s": "obs.invariants",
}

PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME_SPANS},
    "other.self_s": "s",
    "workloads.generator.tuples": "count",
    "engine.split.calls_per_tuple": "ratio",
    "engine.columns.rows_per_batch": "ratio",
    "engine.state_store.rows_per_call": "ratio",
    "engine.state_store.live_bytes_peak": "bytes",
    "cluster.simulation.events": "count",
    "cluster.simulation.us_per_event": "us",
    "cluster.simulation.compactions": "count",
    "cluster.machine.sim_busy_frac": "fraction",
    "cluster.network.messages": "count",
    "cluster.network.sim_bytes": "bytes",
    "core.coordinator.ticks": "count",
    "core.spill.count": "count",
    "core.spill.sim_bytes": "bytes",
    "core.relocation.count": "count",
    "core.relocation.sim_bytes": "bytes",
    "core.relocation.completed_ratio": "ratio",
    "core.cleanup.results": "count",
    "recovery.checkpoint.count": "count",
    "recovery.checkpoint.sim_bytes": "bytes",
    "recovery.recoveries": "count",
    "recovery.replayed_tuples": "count",
    "serving.gc.orders": "count",
    "serving.fold.state_bytes_saved": "bytes",
    "obs.slo.observations": "count",
    "obs.sketch.records_per_observation": "ratio",
    "obs.invariants.violations": "count",
    "tracing_overhead_frac": "fraction",
    "tracing.bookkeeping_frac": "fraction",
}


#: reference speed: the seconds :func:`calibrate` takes on the reference host
CAL_REF_S = 0.0015
#: calibrations per repetition, spread evenly over its slices
CALIBRATIONS = 100

_CAL_KEYS = list(range(257))


def calibrate(rounds: int = 6000) -> float:
    """Seconds a fixed pure-Python loop (dict updates, list appends,
    integer arithmetic) takes right now.  It allocates almost nothing the
    garbage collector tracks, so its time follows the host's current speed
    rather than the program's heap."""
    start = perf_counter()
    counts = dict.fromkeys(_CAL_KEYS, 0)
    seen = []
    total = 0
    for i in range(rounds):
        key = _CAL_KEYS[i % 257]
        counts[key] = counts[key] + i
        seen.append(key)
        total += len(seen) & 7
    return perf_counter() - start


@dataclass
class Rep:
    """One whole run of the workload, in its own process."""

    traced: bool
    #: reference seconds per host second over this run (see calibrate)
    speed: float
    #: process start to the first simulated event, host seconds
    setup_s: float
    #: build, run and cleanup (traced: and the invariant check), host seconds
    wall_s: float
    #: host seconds of each simulated slice, then of the post-run drain
    segments: list[float]
    #: reference seconds per host second around each segment
    speeds: list[float]
    peak_rss_mb: float
    outcome: object
    layers: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)

    @property
    def run_s(self) -> float:
        """Host seconds from the first simulated event to the drained end."""
        return sum(self.segments)

    @property
    def ref_segments(self) -> list[float]:
        """The segments in reference seconds."""
        return [seg * speed for seg, speed in zip(self.segments, self.speeds)]

    @property
    def tuples_per_s(self) -> float:
        """Input tuples per reference second."""
        return self.outcome.tuples / sum(self.ref_segments)


def load_program():
    """Put the checkout's ``src`` on the path and import the workloads."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: program source not found at {SRC}; run this from "
            f"the root of a full checkout"
        )
    sys.path.insert(0, SRC)
    import pinned

    return pinned


def mean_speed(cals: list[tuple[int, float]]) -> float:
    """Reference seconds per host second over a whole repetition."""
    return CAL_REF_S / statistics.mean(secs for __, secs in cals)


def local_speeds(n: int, cals: list[tuple[int, float]], width: int = 5) -> list[float]:
    """Reference seconds per host second for each of ``n`` segments, from
    the ``2 * width`` calibrations nearest to it (``cals`` holds
    ``(stamp index, seconds)`` in stamp order; segment ``i`` runs from
    stamp ``i`` to stamp ``i + 1``)."""
    at = [i for i, __ in cals]
    speeds = []
    for i in range(n):
        j = bisect.bisect_right(at, i)
        window = cals[max(0, j - width):j + width]
        speeds.append(CAL_REF_S / statistics.mean(secs for __, secs in window))
    return speeds


def run_rep(wl, seed: int, traced: bool, out_dir: str | None) -> dict:
    """One whole run in this process, untraced or traced, with its
    (untimed) cleanup phase.

    At every stamp the host clock is read; at every k-th stamp the
    calibration loop also runs, outside the timed slices, so the speed
    factor sees the same host conditions as the slices."""
    marks: list[tuple[float, float]] = []
    cals: list[tuple[int, float]] = []
    every = max(1, (wl.n_slices + 2) // CALIBRATIONS)
    first_event = [0.0]
    peak_state = [0]

    def stamp(obj) -> None:
        reached = perf_counter()
        if not marks:
            first_event[0] = time.monotonic()
        if traced:
            peak_state[0] = max(peak_state[0], wl.state_bytes(obj))
        if len(marks) % every == 0:
            cals.append((len(marks), calibrate()))
        marks.append((reached, perf_counter()))

    layers, spans = {}, {}
    if not traced:
        t0 = perf_counter()
        obj = wl.execute(seed, stamp)
        outcome = wl.finish(obj)
        wall = perf_counter() - t0
    else:
        from layers import LayerTrace
        from repro.obs import check_trace
        from repro.obs.ledger import DecisionLedger
        from repro.obs.trace import Tracer

        tracer, ledger = Tracer(), DecisionLedger()
        with LayerTrace() as trace:
            t0 = perf_counter()
            obj = wl.execute(seed, stamp, tracer=tracer, ledger=ledger)
            outcome = wl.finish(obj)
            violations = trace.span(
                trace.name_id("obs.invariants"), check_trace,
                tracer.events, ledger_entries=ledger.entries,
            )
            wall = perf_counter() - t0
        layers = layer_metrics(wl, obj, trace, outcome, violations,
                               peak_state[0], mean_speed(cals))
        layers["tracing.bookkeeping_frac"] = trace.bookkeeping_seconds() / wall
        spans = trace.self_seconds()
        if out_dir is not None:
            trace.write(os.path.join(out_dir, f"{wl.name}-seed{seed}"))
    if len(marks) != wl.n_slices + 2:
        raise RuntimeError(
            f"{wl.name}: expected {wl.n_slices + 2} stamps, got {len(marks)}"
        )
    segments = [b[0] - a[1] for a, b in zip(marks, marks[1:])]
    return {
        "traced": traced,
        "speed": mean_speed(cals),
        "first_event": first_event[0],
        "wall_s": wall,
        "segments": segments,
        "speeds": local_speeds(len(segments), cals),
        "outcome": dataclasses.asdict(outcome),
        "layers": layers,
        "spans": spans,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process in MB.  ``VmHWM`` belongs to
    this process's own address space; ``ru_maxrss`` would also carry the
    peak of the parent that spawned it, which Linux keeps across exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rep_main(args) -> int:
    """Child mode: one repetition; its record is the last stdout line."""
    pinned = load_program()
    wl = type(pinned.WORKLOADS[args.workload])(duration=args.duration)
    record = run_rep(wl, args.seed, bool(args.trace), args.out)
    record["setup_s"] = record.pop("first_event") - args.started
    record["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(record))
    return 0


def spawn_rep(pinned, wl, seed: int, traced: bool, out_dir: str | None) -> Rep:
    """Run one repetition in a fresh interpreter and collect its record."""
    cmd = [sys.executable, os.path.abspath(__file__), "--rep",
           "--workload", wl.name, "--seed", str(seed),
           "--seconds", "0", "--trace", str(int(traced)),
           "--duration", repr(wl.duration)]
    if out_dir is not None:
        cmd += ["--out", out_dir]
    started = time.monotonic()
    try:
        done = subprocess.run(cmd + ["--started", repr(started)],
                              capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: repetition killed after {REP_TIMEOUT_S} s"
                         ) from None
    if done.returncode != 0:
        raise SystemExit(f"perfbench: repetition failed with exit code "
                         f"{done.returncode}:\n{done.stderr}")
    record = json.loads(done.stdout.splitlines()[-1])
    record["outcome"] = pinned.Outcome(**record["outcome"])
    return Rep(**record)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(wl, obj, trace, outcome, violations, peak_state: int,
                  speed: float) -> dict:
    """Per-layer counts and self times (in reference seconds) of one traced
    run."""
    deps = wl.deployments(obj)
    self_s = {name: secs * speed for name, secs in trace.self_seconds().items()}
    calls = trace.calls()
    sims = {id(d.sim): d.sim for d in deps}.values()
    networks = {id(d.network): d.network for d in deps}.values()
    hubs = {id(d.metrics): d.metrics for d in deps}.values()

    def events(*kinds):
        return [e for hub in hubs for e in hub.events.of_kind(*kinds)]

    def event_bytes(*kinds):
        return sum(e.details.get("bytes", 0) for e in events(*kinds))

    routed = sum(d.source_host.tuples_routed for d in deps)
    n_events = sum(sim.events_processed for sim in sims)
    machines = [m for d in deps for m in d.machines.values()]
    sim_span = max(sim.now for sim in sims)
    stats = [d.coordinator.stats for d in deps]
    completed = sum(s.relocations_completed for s in stats)
    finished = completed + sum(s.relocations_aborted for s in stats)
    serving = getattr(obj, "cluster_gc", None)
    metrics = {name: self_s.get(span, 0.0) for name, span in SELF_TIME_SPANS.items()}
    metrics["other.self_s"] = sum(self_s.values()) - sum(metrics.values())
    metrics.update({
        "workloads.generator.tuples": sum(
            s.generator.tuples_generated for d in deps for s in d.sources),
        "engine.split.calls_per_tuple": ratio(calls.get("engine.split", 0), routed),
        "engine.columns.rows_per_batch": ratio(
            trace.columns_rows, calls.get("engine.columns", 0)),
        "engine.state_store.rows_per_call": ratio(
            trace.probe_rows, calls.get("engine.state_store.probe", 0)),
        "engine.state_store.live_bytes_peak": peak_state,
        "cluster.simulation.events": n_events,
        "cluster.simulation.us_per_event": ratio(
            1e6 * self_s.get("cluster.simulation", 0.0), n_events),
        "cluster.simulation.compactions": sum(sim.compactions for sim in sims),
        "cluster.machine.sim_busy_frac": ratio(
            sum(m.busy_time for m in machines), len(machines) * sim_span),
        "cluster.network.messages": sum(n.stats.messages for n in networks),
        "cluster.network.sim_bytes": sum(n.stats.bytes_sent for n in networks),
        "core.coordinator.ticks": sum(s.evaluations for s in stats),
        "core.spill.count": len(events("spill", "forced_spill")),
        "core.spill.sim_bytes": event_bytes("spill", "forced_spill"),
        "core.relocation.count": len(events("relocation")),
        "core.relocation.sim_bytes": event_bytes("relocation"),
        "core.relocation.completed_ratio": ratio(completed, finished),
        "core.cleanup.results": outcome.cleanup_results,
        "recovery.checkpoint.count": len(events("checkpoint")),
        "recovery.checkpoint.sim_bytes": event_bytes("checkpoint"),
        "recovery.recoveries": len(events("recovery")),
        "recovery.replayed_tuples": sum(d.source_host.replayed_total for d in deps),
        "serving.gc.orders": serving.stats.orders if serving else 0,
        "serving.fold.state_bytes_saved": (
            obj.max_fold_state_bytes_saved if serving else 0),
        "obs.slo.observations": trace.observations,
        "obs.sketch.records_per_observation": ratio(
            trace.sketch_records, trace.observations),
        "obs.invariants.violations": len(violations),
    })
    return metrics


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def measure(pinned, wl, seed: int, seconds: float, traced: bool,
            out_dir: str | None, started: float | None = None
            ) -> tuple[list[str], dict]:
    """Run ``wl`` whole as often as fits in ``seconds`` from ``started``
    (a ``perf_counter`` reading; default now), untraced or alternating
    untraced and traced, check every run against the oracle, and return the
    report lines and the result object."""
    begin = perf_counter() if started is None else started
    # the oracle runs first, in this process, so its time counts against
    # ``seconds``; the repetitions run in fresh processes and never see it
    expected = {q.qid: pinned.expected_results(q) for q in wl.queries(seed)}
    reps: list[Rep] = []
    least = 2 if traced else MIN_REPS
    longest = 0.0
    while True:
        kind = traced and len(reps) % 2 == 1
        start = perf_counter()
        reps.append(spawn_rep(pinned, wl, seed, kind, out_dir if kind else None))
        longest = max(longest, perf_counter() - start)
        if len(reps) >= least and perf_counter() - begin + longest > seconds:
            break

    problems = [p for rep in reps for p in pinned.failures(rep.outcome, expected)]
    attempted = len(reps) * (len(expected) + 1)
    failed = len(problems)
    untraced = [r for r in reps if not r.traced]
    tps = statistics.median(r.tuples_per_s for r in untraced)
    first = reps[0].outcome
    deterministic = all(
        (r.outcome.runtime_outputs, r.outcome.latency_p50, r.outcome.latency_p99)
        == (first.runtime_outputs, first.latency_p50, first.latency_p99)
        for r in reps
    )

    lines = [
        f"workload {wl.name}  seed {seed}  repetitions {len(reps)}"
        f"  ({sum(r.traced for r in reps)} traced)",
        f"  oracle: {attempted} checks, {failed} failed, error_rate "
        f"{ratio(failed, attempted):.4f}; expected results "
        + ", ".join(f"{q}={n:,}" for q, n in expected.items()),
        *(f"  FAILED: {p}" for p in problems),
        f"  simulated: {first.tuples:,} input tuples, {first.runtime_outputs:,} "
        f"run-time results, {first.cleanup_results:,} cleanup results, "
        f"latency samples {first.latency_count:,}",
        "  host speed (reference s per host s) by repetition: "
        + ", ".join(f"{r.speed:.3f}" for r in reps),
    ]
    if not deterministic:
        lines.append("  FAILED: repetitions of one seed (traced or not) disagree "
                     "on simulated figures")
    if not traced:
        # each quantile per repetition, then the median over repetitions,
        # so one repetition in a bad moment of the host moves it least
        slices = [r.ref_segments[:-1] for r in reps]
        metrics = {
            "tuples_per_s": tps,
            "slice_ms_p50": 1000.0 * statistics.median(map(statistics.median, slices)),
            "slice_ms_p95": 1000.0 * statistics.median(quantile(s, 0.95) for s in slices),
            "setup_s": statistics.median(r.setup_s * r.speeds[0] for r in reps),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in reps),
            "sim_runtime_outputs": first.runtime_outputs,
            "sim_latency_p50_s": first.latency_p50,
            "sim_latency_p99_s": first.latency_p99,
        }
        units = END_TO_END_UNITS
        raw = [seg for r in reps for seg in r.segments[:-1]]
        lines += [
            f"  slices: {wl.n_slices} of {wl.slice_s:g} simulated s per repetition",
            "  unscaled host time: tuples_per_s "
            + ", ".join(f"{r.outcome.tuples / r.run_s:.0f}" for r in reps)
            + f"; slice_ms p50 {1000 * statistics.median(raw):.3f}"
            f" p95 {1000 * quantile(raw, 0.95):.3f}; setup_s "
            + ", ".join(f"{r.setup_s:.3f}" for r in reps),
        ]
    else:
        traced_reps = [r for r in reps if r.traced]
        metrics = {
            name: statistics.median(r.layers[name] for r in traced_reps)
            for name in traced_reps[0].layers
        }
        metrics["tracing_overhead_frac"] = ratio(
            tps, statistics.median(r.tuples_per_s for r in traced_reps)) - 1.0
        units = PER_LAYER_UNITS
        rep = traced_reps[0]
        covered = sum(rep.spans.values())
        lines += [
            f"  traced wall {rep.wall_s:.3f} host s; spans cover {covered:.3f} "
            f"host s ({covered / rep.wall_s:.1%}; the rest is building the "
            f"system and gathering results, outside any span)",
            f"  tracer bookkeeping, estimated from empty spans: "
            f"{rep.layers['tracing.bookkeeping_frac']:.1%} of the wall, charged "
            f"to the callers' self time; by span:",
        ]
        for name, secs in sorted(rep.spans.items(), key=lambda kv: -kv[1]):
            lines.append(f"    {name:<32} {secs:9.3f} s  {secs / rep.wall_s:6.1%}")
    for name in units:
        lines.append(f"  {name:<38} {metrics[name]:>16.6g} {units[name]}")
    result = {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    return lines, result


def main(argv: list[str] | None = None) -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", default=None,
                        help="write each traced repetition's spans to this "
                        "directory (default: keep them in memory only)")
    # child mode: one repetition of a workload of the given length
    parser.add_argument("--rep", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--duration", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--started", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rep:
        return rep_main(args)
    pinned = load_program()
    if args.workload not in pinned.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of "
                     f"{', '.join(pinned.WORKLOADS)}")
    lines, result = measure(pinned, pinned.WORKLOADS[args.workload], args.seed,
                            args.seconds, bool(args.trace), args.out, started)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

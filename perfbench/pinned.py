"""The benchmark's three pinned whole-run workloads.

Each workload builds its system through the public API (``Deployment`` or
``QueryServer``), drives it to completion in fixed simulated slices while
the caller stamps host time, then checks run-time plus cleanup results
against the ``repro.engine.reference`` oracle.  The workload seed is the
only input that varies; the program sees only the inputs generated from it.

All sources are open-loop: every stream emits one tuple per fixed simulated
inter-arrival whatever the cluster's backlog, so an overloaded cluster shows
up as growing simulated latency, never as less offered load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro import (
    AdaptationConfig,
    Deployment,
    QueryServer,
    QuerySpec,
    StrategyName,
    Tenant,
)
from repro.cluster.faults import FaultSchedule, MachineCrash, MachineRestart
from repro.engine.reference import reference_join, reference_join_count
from repro.obs.sketch import BUCKET_BOUNDS
from repro.obs.slo import SLOConfig
from repro.workloads.generator import StreamWorkloadSpec, TupleGenerator, WorkloadSpec
from repro.workloads.queries import three_way_join
from repro.workloads.scenarios import membership_schedule

#: seed of every figure quoted in NOTES.md
DEFAULT_SEED = 11
#: never used while tuning the benchmark; later claims are re-checked on it
HELD_OUT_SEED = 29


@dataclass(frozen=True)
class QueryInput:
    """What the oracle needs to recompute one query's answer."""

    qid: str
    workload: WorkloadSpec
    streams: tuple[str, ...]
    duration: float
    window: float | None = None


def regenerate_inputs(query: QueryInput) -> list:
    """Every input tuple the query's sources emit, rebuilt from its
    ``WorkloadSpec``: a source stops at the first arrival later than the
    run duration."""
    tuples = []
    for stream in query.streams:
        generator = TupleGenerator(StreamWorkloadSpec(stream=stream, spec=query.workload))
        for time, tup in generator.arrivals():
            if time > query.duration:
                break
            tuples.append(tup)
    return tuples


def expected_results(query: QueryInput) -> int:
    """The oracle's result count for one query (run time plus cleanup)."""
    inputs = regenerate_inputs(query)
    if query.window is None:
        return reference_join_count(inputs, query.streams)
    return len(reference_join(inputs, query.streams, window=query.window))


def failures(outcome: "Outcome", expected: dict[str, int]) -> list[str]:
    """Mismatches of one run against the oracle's expected counts."""
    found = [
        f"{qid}: {outcome.observed.get(qid)} results, oracle says {want}"
        for qid, want in expected.items()
        if outcome.observed.get(qid) != want
    ]
    if not outcome.folded_agree:
        found.append("folded members reported different outputs")
    return found


def sketch_quantile(sketch, q: float) -> float:
    """The q-quantile of a latency sketch, interpolated log-linearly inside
    its bucket.  The sketch's own ``quantile`` returns the bucket midpoint,
    which moves in quarter-octave (19%) steps; interpolating by the rank's
    position in the bucket makes the figure move with the data."""
    need = q * sketch.count
    cum = 0
    for idx in sorted(sketch.counts):
        n = sketch.counts[idx]
        if cum + n >= need:
            if idx < 0:
                return 0.0
            lower = BUCKET_BOUNDS[idx]
            if idx + 1 >= len(BUCKET_BOUNDS):
                return lower
            return lower * (BUCKET_BOUNDS[idx + 1] / lower) ** ((need - cum) / n)
        cum += n
    return sketch.quantile(q)


@dataclass
class Outcome:
    """Simulated figures and check inputs of one completed run."""

    tuples: int
    runtime_outputs: int
    latency_p50: float
    latency_p99: float
    latency_count: int
    #: qid -> run-time plus cleanup results
    observed: dict[str, int]
    #: folded members reported identical outputs (vacuous when none fold)
    folded_agree: bool
    cleanup_results: int


class _Workload:
    """A pinned shape run for ``duration`` simulated seconds of input in
    slices of ``slice_s``, then drained (sources stop at ``duration``)."""

    name = ""
    duration = 0.0
    slice_s = 1.0

    def __init__(self, duration: float | None = None) -> None:
        if duration is not None:
            self.duration = duration

    @property
    def n_slices(self) -> int:
        return round(self.duration / self.slice_s)


class _Standalone(_Workload):
    """A single ``Deployment`` driven by its own ``run`` loop."""

    def workload(self, seed: int) -> WorkloadSpec:
        raise NotImplementedError

    def build(self, seed: int, tracer=None, ledger=None) -> Deployment:
        raise NotImplementedError

    def queries(self, seed: int) -> list[QueryInput]:
        streams = tuple(three_way_join().stream_names)
        return [QueryInput("q0", self.workload(seed), streams, self.duration)]

    def execute(self, seed: int, stamp: Callable[[object], None], *,
                tracer=None, ledger=None) -> Deployment:
        """Build and run the deployment.  ``stamp`` fires once when set-up
        is done (before the first simulated event), once after every
        simulated slice, and once after the post-run drain."""
        dep = self.build(seed, tracer, ledger)
        sample = dep.sample

        def sample_and_stamp() -> None:
            sample()
            stamp(dep)

        # ``run`` samples at launch, after every slice and after the drain
        dep.sample = sample_and_stamp
        dep.run(self.duration, sample_interval=self.slice_s)
        return dep

    @staticmethod
    def deployments(dep: Deployment) -> list[Deployment]:
        return [dep]

    @staticmethod
    def state_bytes(dep: Deployment) -> int:
        return dep.total_state_bytes()

    def finish(self, dep: Deployment) -> Outcome:
        """Run the cleanup phase and gather the outcome (untimed)."""
        report = dep.cleanup()
        e2e = dep.metrics.latency.merged("e2e")
        return Outcome(
            tuples=sum(source.tuples_sent for source in dep.sources),
            runtime_outputs=dep.total_outputs,
            latency_p50=sketch_quantile(e2e, 0.5),
            latency_p99=sketch_quantile(e2e, 0.99),
            latency_count=e2e.count,
            observed={"q0": dep.total_outputs + report.missing_results},
            folded_agree=True,
            cleanup_results=report.missing_results,
        )


class SteadyJoin(_Standalone):
    """The pinned standalone run: 3 workers, active-disk, columnar path."""

    name = "steady_join"
    duration = 4800.0
    slice_s = 12.0

    def workload(self, seed: int) -> WorkloadSpec:
        return WorkloadSpec.uniform(
            n_partitions=24, join_rate=3.0, tuple_range=3000,
            interarrival=0.03, seed=seed,
        )

    def build(self, seed: int, tracer=None, ledger=None) -> Deployment:
        config = AdaptationConfig(
            strategy=StrategyName.ACTIVE_DISK,
            memory_threshold=500_000,
            theta_r=0.8, tau_m=45.0,
            ss_interval=5.0, stats_interval=5.0, coordinator_interval=10.0,
        )
        return Deployment(
            join=three_way_join(), workload=self.workload(seed), workers=3,
            config=config, batch_size=50, data_path="columnar", seed=seed,
            latency=True, tracer=tracer, ledger=ledger,
        )


class ElasticRecovery(_Standalone):
    """48 -> 64 -> 48 machines with checkpointing and two crashes."""

    name = "elastic_recovery"
    duration = 480.0
    slice_s = 2.0
    base, peak = 48, 64

    def workload(self, seed: int) -> WorkloadSpec:
        return WorkloadSpec.uniform(
            n_partitions=128, join_rate=2.0, tuple_range=200,
            interarrival=0.02, seed=seed,
        )

    def build(self, seed: int, tracer=None, ledger=None) -> Deployment:
        config = AdaptationConfig(
            strategy=StrategyName.LAZY_DISK,
            memory_threshold=10**9,
            theta_r=0.9, tau_m=10.0,
            coordinator_interval=5.0, stats_interval=2.0, ss_interval=2.0,
            min_relocation_bytes=1024,
            checkpoint_enabled=True,
        )
        dep = Deployment(
            join=three_way_join(), workload=self.workload(seed),
            workers=self.base, config=config, data_path="columnar", seed=seed,
            latency=True,
            tracer=tracer, ledger=ledger,
        )
        joiners = [f"m{self.base + 1 + i}" for i in range(self.peak - self.base)]
        membership_schedule(
            dep,
            joins=[(20.0 + 2.0 * i, name) for i, name in enumerate(joiners)],
            drains=[(80.0 + 4.0 * i, name) for i, name in enumerate(joiners)],
        ).arm(dep.sim)
        FaultSchedule([
            MachineCrash(60.0, dep.engines["m7"]),
            MachineRestart(75.0, dep.engines["m7"]),
            MachineCrash(130.0, dep.engines["m20"]),
        ]).arm(dep.sim)
        return dep


class ServingSLO(_Workload):
    """Four queries of three tenants on one ``QueryServer``: q1 and q2 fold
    onto one runtime, q3 runs on the next seed, q4 is a windowed join on the
    seed after that.  Results are materialized (the ``QuerySpec`` default)
    and every query carries a p99 SLO.  Like ``Deployment.run``, the server
    runs in slices until the sources stop and ``finish`` then drains it."""

    name = "serving_slo"
    duration = 180.0
    slice_s = 1.0
    window = 60.0

    def _shapes(self, seed: int) -> list[tuple[str, str, int, float | None]]:
        """(qid, tenant, workload seed, window) per submission, in order."""
        return [
            ("q1", "t1", seed, None),
            ("q2", "t2", seed, None),
            ("q3", "t2", seed + 1, None),
            ("q4", "t3", seed + 2, self.window),
        ]

    @staticmethod
    def workload(seed: int) -> WorkloadSpec:
        return WorkloadSpec.uniform(
            n_partitions=24, join_rate=3.0, tuple_range=3000,
            interarrival=0.03, seed=seed,
        )

    def queries(self, seed: int) -> list[QueryInput]:
        streams = tuple(three_way_join().stream_names)
        return [
            QueryInput(qid, self.workload(s), streams, self.duration, window)
            for qid, __, s, window in self._shapes(seed)
        ]

    def execute(self, seed: int, stamp: Callable[[object], None], *,
                tracer=None, ledger=None) -> QueryServer:
        server = QueryServer(
            [Tenant("t1", 250_000), Tenant("t2", 500_000), Tenant("t3", 250_000)],
            cluster_capacity=1_000_000, latency=True,
            tracer=tracer, ledger=ledger,
        )
        config = AdaptationConfig(
            strategy=StrategyName.ACTIVE_DISK,
            memory_threshold=500_000,
            ss_interval=5.0, stats_interval=5.0, coordinator_interval=10.0,
        )
        slo = SLOConfig(target_p99=0.25)
        for qid, tenant, s, window in self._shapes(seed):
            handle = server.submit(QuerySpec(
                join=three_way_join(window=window), workload=self.workload(s),
                config=config, workers=2, tenant=tenant,
                duration=self.duration, memory_demand=120_000,
                data_path="columnar", seed=s, slo=slo,
            ))
            if handle.qid != qid or handle.status != "running":
                raise RuntimeError(
                    f"{qid}: expected a running query, got {handle.qid} "
                    f"{handle.status} ({handle.reason})"
                )
        stamp(server)
        for __ in range(self.n_slices):
            server.run_for(self.slice_s, sample_interval=self.slice_s)
            stamp(server)
        server.finish()
        stamp(server)
        return server

    @staticmethod
    def deployments(server: QueryServer) -> list[Deployment]:
        return [server.groups[gid].deployment for gid in sorted(server.groups)]

    def state_bytes(self, server: QueryServer) -> int:
        return sum(dep.total_state_bytes() for dep in self.deployments(server))

    def finish(self, server: QueryServer) -> Outcome:
        handles = [server.queries[qid] for qid in sorted(server.queries)]
        cleanup = {gid: server.groups[gid].deployment.cleanup().missing_results
                   for gid in sorted(server.groups)}
        q1, q2 = server.queries["q1"], server.queries["q2"]
        e2e = server.metrics.latency.merged("e2e")
        return Outcome(
            tuples=sum(
                source.tuples_sent
                for dep in self.deployments(server) for source in dep.sources
            ),
            runtime_outputs=sum(h.total_outputs for h in handles),
            latency_p50=sketch_quantile(e2e, 0.5),
            latency_p99=sketch_quantile(e2e, 0.99),
            latency_count=e2e.count,
            observed={h.qid: h.total_outputs + cleanup[h.group] for h in handles},
            folded_agree=(
                q2.folded and q2.group == q1.group
                and [r.ident for r in q1.results] == [r.ident for r in q2.results]
            ),
            cleanup_results=sum(cleanup.values()),
        )


WORKLOADS = {w.name: w for w in (SteadyJoin(), ElasticRecovery(), ServingSLO())}

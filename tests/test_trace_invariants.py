"""Trace-driven invariant harness: randomized schedules + mutation tests.

The tracer (repro.obs.trace) records every adaptation protocol step; the
invariant checker (repro.obs.invariants) replays the trace and asserts
the protocol contracts.  These tests drive randomized schedules — spills,
relocations, crashes, both integrated strategies — through full
deployments and require zero violations, then *mutate* known-good traces
to prove the checker actually catches each class of contract breach.
Also covered: multi-query traces (partitions are per query namespace),
seed determinism (byte-identical JSONL), the tracing-enabled run being
observationally identical to the disabled run, both export formats, and
the bench CLI ``--trace`` flag.
"""

import json
import random

import pytest

from repro import StrategyName, Tracer, check_trace
from repro.cluster.faults import FaultSchedule, MachineCrash, MachineRestart
from repro.obs.trace import load_jsonl

from tests.helpers import assert_no_violations, small_deployment


def traced_deployment(*, tracer=None, crash=None, restart=None, **kwargs):
    """small_deployment + tracer + optional {machine: time} faults."""
    tracer = tracer if tracer is not None else Tracer()
    dep = small_deployment(tracer=tracer, **kwargs)
    faults = []
    for machine, time in (crash or {}).items():
        faults.append(MachineCrash(time=time, engine=dep.engines[machine]))
    for machine, time in (restart or {}).items():
        faults.append(MachineRestart(time=time, engine=dep.engines[machine]))
    if faults:
        FaultSchedule(faults).arm(dep.sim)
    return dep, tracer


def run_traced(dep, *, duration=40.0, cleanup=True):
    dep.run(duration=duration, sample_interval=10.0)
    if cleanup:
        dep.cleanup()


# ----------------------------------------------------------------------
# Randomized schedules: every protocol mix must uphold every invariant.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("strategy", [StrategyName.LAZY_DISK,
                                      StrategyName.ACTIVE_DISK])
@pytest.mark.parametrize("seed", [3, 5, 11])
def test_randomized_adaptation_schedules_have_no_violations(strategy, seed):
    """Randomly parameterised runs mixing spills and relocations pass the
    full invariant suite, for both integrated strategies."""
    rng = random.Random(seed * 101 + hash(strategy.value) % 97)
    workers = rng.choice([2, 3])
    skew = rng.choice([None, {"m1": 0.7, "m2": 0.3},
                       {"m1": 0.5, "m2": 0.5}])
    if skew is not None and workers == 3:
        skew = {"m1": 0.6, "m2": 0.3, "m3": 0.1}
    dep, tracer = traced_deployment(
        strategy=strategy,
        workers=workers,
        assignment=skew,
        memory_threshold=rng.choice([15_000, 30_000]),
        seed=seed,
    )
    run_traced(dep)
    events = assert_no_violations(
        tracer, f"random-{strategy.value}-{seed}"
    )
    # the schedule must actually exercise the adaptation machinery
    assert any(e.name in ("spill", "relocation") for e in events)


@pytest.mark.parametrize("seed", [1, 4, 9])
def test_crash_recovery_schedules_have_no_violations(seed):
    """Runs with a mid-run crash + restart under checkpointing uphold the
    crash-epoch, residency, replay, and recovery-phase invariants."""
    rng = random.Random(seed)
    crash_at = 15.0 + rng.uniform(0.0, 10.0)
    victim = rng.choice(["m1", "m2"])
    dep, tracer = traced_deployment(
        workers=3,
        n_partitions=8,
        join_rate=3.0,
        tuple_range=240,
        interarrival=0.05,
        collect=True,
        config_overrides=dict(
            checkpoint_enabled=True,
            checkpoint_interval=6.0,
            failure_timeout=5.0,
        ),
        crash={victim: crash_at},
        restart={victim: crash_at + 20.0},
        seed=seed,
    )
    run_traced(dep, duration=60.0)
    events = assert_no_violations(tracer, f"crash-{seed}")
    names = {e.name for e in events}
    assert "engine.crash" in names
    assert "recovery" in names


# ----------------------------------------------------------------------
# Mutation tests: the checker must catch deliberately broken traces.
# ----------------------------------------------------------------------


def completed_relocation_trace():
    """A known-good trace containing at least one completed relocation."""
    dep, tracer = traced_deployment(
        workers=2, assignment={"m1": 0.75, "m2": 0.25}, seed=7,
    )
    run_traced(dep)
    events = list(tracer.events)
    done = [e.span for e in events
            if e.phase == "E" and e.name == "relocation"
            and e.get("status") == "done"]
    assert done, "fixture run produced no completed relocation"
    return events, done[0]


def test_mutated_trace_reordered_relocation_steps_is_caught():
    """Swapping two relocation steps of a completed session (pause before
    ptv) must produce relocation-steps violations; the original is clean."""
    events, span = completed_relocation_trace()
    assert check_trace(events) == []

    idx = {e.get("step"): i for i, e in enumerate(events)
           if e.name == "relocation.step" and e.span == span}
    mutated = list(events)
    mutated[idx[2]], mutated[idx[3]] = mutated[idx[3]], mutated[idx[2]]
    violations = check_trace(mutated)
    assert violations, "checker accepted a reordered relocation trace"
    assert any(v.check == "relocation-steps" for v in violations)


def test_mutated_trace_dropped_step_is_caught():
    """A completed relocation missing one of the 8 steps is rejected."""
    events, span = completed_relocation_trace()
    mutated = [e for e in events
               if not (e.name == "relocation.step" and e.span == span
                       and e.get("step") == 5)]
    assert any(v.check == "relocation-steps" for v in check_trace(mutated))


def test_mutated_trace_duplicated_flush_is_caught():
    """Flushing a paused split's buffer twice (duplicate delivery) is a
    pause-flush violation."""
    events, span = completed_relocation_trace()
    flush = next(e for e in events
                 if e.name == "split.flush" and e.span == span)
    assert any(v.check == "pause-flush"
               for v in check_trace(events + [flush]))


def synthetic(events_fn):
    """Author a synthetic trace through a real Tracer and check it."""
    tracer = Tracer()
    events_fn(tracer)
    return check_trace(tracer.events)


def test_checker_flags_double_residency():
    def author(t):
        t.event("deploy.assignment", machine="m1", pids=(0, 1))
        t.event("deploy.assignment", machine="m2", pids=(1, 2))

    assert any(v.check == "single-residency" for v in synthetic(author))


def test_checker_flags_install_on_live_partition():
    def author(t):
        t.event("deploy.assignment", machine="m1", pids=(0,))
        t.event("deploy.assignment", machine="m2", pids=(1,))
        span = t.begin_span("relocation", machine="gc")
        # install on m2 without the state ever being packed off m1
        t.event("relocation.install", machine="m2", span=span, pids=(0,))
        t.end_span(span, status="done")

    assert any(v.check == "single-residency" for v in synthetic(author))


def test_checker_flags_activity_in_crash_epoch():
    def author(t):
        t.event("deploy.assignment", machine="m1", pids=(0,))
        t.event("engine.crash", machine="m1", bytes_lost=0)
        t.event("checkpoint.commit", machine="m1", reason="interval")

    assert any(v.check == "crash-epoch" for v in synthetic(author))


def test_checker_flags_replay_arithmetic_mismatch():
    def author(t):
        span = t.begin_span("recovery", machine="gc", lost="m1")
        t.event("recovery.phase", machine="gc", span=span, phase="pausing")
        t.event("recovery.replay", machine="src", span=span,
                detail={"0": {"suffix": 5, "covered": 2, "replayed": 1,
                              "resident": False, "owner": "m2"}})
        t.end_span(span, status="done")

    assert any(v.check == "recovery-replay" for v in synthetic(author))


def test_checker_flags_replay_into_resident_partition():
    def author(t):
        span = t.begin_span("recovery", machine="gc", lost="m1")
        t.event("recovery.phase", machine="gc", span=span, phase="pausing")
        t.event("recovery.replay", machine="src", span=span,
                detail={"3": {"suffix": 4, "covered": 0, "replayed": 4,
                              "resident": True, "owner": "m2"}})
        t.end_span(span, status="done")

    assert any(v.check == "recovery-replay" for v in synthetic(author))


def test_checker_flags_recovery_phase_regression():
    def author(t):
        span = t.begin_span("recovery", machine="gc", lost="m1")
        t.event("recovery.phase", machine="gc", span=span, phase="restoring")
        t.event("recovery.phase", machine="gc", span=span, phase="pausing")
        t.end_span(span, status="done")

    assert any(v.check == "recovery-phases" for v in synthetic(author))


def test_checker_flags_pause_without_flush():
    def author(t):
        span = t.begin_span("relocation", machine="gc")
        t.event("relocation.step", machine="gc", span=span, step=1)
        t.event("split.pause", machine="src", span=span, pids=(0,))
        t.end_span(span, status="aborted", phase_reached="pausing")

    assert any(v.check == "pause-flush" for v in synthetic(author))


def test_checker_allows_pause_handoff_to_recovery():
    """An aborted relocation that hands its paused splits to a recovery
    session is exempt from the pause==flush rule."""
    def author(t):
        span = t.begin_span("relocation", machine="gc")
        t.event("relocation.step", machine="gc", span=span, step=1)
        t.event("split.pause", machine="src", span=span, pids=(0,))
        t.end_span(span, status="aborted", phase_reached="pausing",
                   pause_handoff=True)

    assert synthetic(author) == []


def test_checker_flags_double_merge_and_forgotten_spill():
    def author(t):
        t.event("deploy.assignment", machine="m1", pids=(0, 1))
        s = t.begin_span("spill", machine="m1", pids=(0, 1), bytes=100)
        t.end_span(s, duration=0.1)
        c = t.begin_span("cleanup", stage="")
        t.event("cleanup.merge", span=c, pid=0, stage="", parts=2)
        t.event("cleanup.merge", span=c, pid=0, stage="", parts=2)
        t.end_span(c, partitions=1)
        # pid 1 spilled but is never merged nor skipped

    violations = synthetic(author)
    assert sum(1 for v in violations if v.check == "spill-cleanup") == 2


# ----------------------------------------------------------------------
# Multi-query traces: serving runtimes namespace their machines (q1:m1),
# and partitions are per query
# ----------------------------------------------------------------------


def author_two_queries(t, *, q2_first_pid=0):
    """Two queries placing the same pids, each relocating, spilling and
    cleaning up on its own machines."""
    t.event("deploy.assignment", machine="q1:m1", pids=(0, 1))
    t.event("deploy.assignment", machine="q1:m2", pids=(2,))
    t.event("deploy.assignment", machine="q2:m1", pids=(q2_first_pid, 1))
    t.event("deploy.assignment", machine="q2:m2", pids=(2,))
    span = t.begin_span("relocation", machine="q1:gc")
    t.event("relocation.pack", machine="q1:m1", span=span, pids=(1,))
    t.event("relocation.install", machine="q1:m2", span=span, pids=(1,))
    t.end_span(span, status="aborted")
    for machine in ("q1:m2", "q2:m1"):
        s = t.begin_span("spill", machine=machine, pids=(1,), bytes=100)
        t.end_span(s, duration=0.1)
    for machine in ("q1:m2", "q2:m1"):
        c = t.begin_span("cleanup", stage="")
        t.event("cleanup.skip", span=c, pid=0, stage="", segments=0)
        t.event("cleanup.merge", machine=machine, span=c, pid=1, stage="",
                parts=2)
        t.end_span(c, partitions=1)


def test_checker_accepts_same_pid_in_two_query_namespaces():
    """Equal pids on two queries' machines are different partitions: the
    placements, the relocation and both cleanups check clean."""
    assert synthetic(author_two_queries) == []


def test_checker_flags_double_residency_within_one_namespace():
    """Namespacing does not hide a real double residency: q2 placing pid
    2 on both of its machines still fails, exactly once."""
    violations = synthetic(
        lambda t: author_two_queries(t, q2_first_pid=2)
    )
    assert [v.check for v in violations] == ["single-residency"]
    assert "'q2:m2'" in violations[0].message


def test_checker_matches_spill_and_cleanup_per_namespace():
    """Another query's merge of the same pid does not discharge a spill."""
    def author(t):
        t.event("deploy.assignment", machine="q1:m1", pids=(0, 1))
        t.event("deploy.assignment", machine="q2:m1", pids=(0, 1))
        s = t.begin_span("spill", machine="q1:m1", pids=(0, 1), bytes=100)
        t.end_span(s, duration=0.1)
        for machine, pids in (("q1:m1", (0,)), ("q2:m1", (1,))):
            c = t.begin_span("cleanup", stage="")
            for pid in pids:
                t.event("cleanup.merge", machine=machine, span=c, pid=pid,
                        stage="", parts=2)
            t.end_span(c, partitions=len(pids))

    violations = synthetic(author)
    assert [v.check for v in violations] == ["spill-cleanup"]
    assert "q1:1 " in violations[0].message


def test_cli_two_query_unfolded_trace_checks_clean(tmp_path):
    """A real two-query unfolded run places the same pids on both
    queries' machines; ``repro.obs check`` accepts its trace and ledger."""
    from repro.bench.cli import main
    from repro.obs.__main__ import main as obs_main

    trace, ledger = tmp_path / "t.jsonl", tmp_path / "l.jsonl"
    rc = main(["--strategy", "active_disk", "--workers", "2",
               "--minutes", "0.5", "--threshold-kb", "40",
               "--tuple-range", "400", "--queries", "2", "--fold", "off",
               "--trace", str(trace), "--ledger", str(ledger)])
    assert rc == 0
    events = load_jsonl(trace)
    assert {e.machine for e in events if e.name == "deploy.assignment"} == {
        "q1:m1", "q1:m2", "q2:m1", "q2:m2"}
    assert any(e.name == "spill" for e in events)
    assert obs_main(["check", "--trace", str(trace),
                     "--ledger", str(ledger)]) == 0


# ----------------------------------------------------------------------
# Repartition protocol (invariant 9): synthetic sessions + mutations
# ----------------------------------------------------------------------


def author_split_session(t, *, route_children=(8, 9), drop_install=None,
                         retire_first=False):
    """One complete split session 0 -> (8, 9), optionally corrupted."""
    t.event("deploy.assignment", machine="m1", pids=(0,))
    span = t.begin_span("repartition", machine="gc", kind="split",
                        owner="m1", parent_pid=0, children=(8, 9))
    t.event("repartition.pause", machine="src", span=span, pids=(0,))
    if retire_first:
        t.event("repartition.retire", machine="src", span=span, pid=0)
    for pid in (8, 9):
        if pid != drop_install:
            t.event("repartition.install", machine="m1", span=span,
                    pid=pid, bytes=128, tuples=2)
    t.event("repartition.route", machine="src", span=span, kind="split",
            parent=0, children=route_children, version=1)
    if not retire_first:
        t.event("repartition.retire", machine="src", span=span, pid=0)
    t.event("repartition.flush", machine="src", span=span, pids=(8, 9),
            flushed=0)
    t.end_span(span, status="done")


def test_checker_accepts_complete_split_session():
    assert synthetic(author_split_session) == []


def test_checker_accepts_complete_merge_session():
    def author(t):
        author_split_session(t)
        span = t.begin_span("repartition", machine="gc", kind="merge",
                            owner="m1", parent_pid=0, children=(8, 9))
        t.event("repartition.pause", machine="src", span=span, pids=(8, 9))
        t.event("repartition.install", machine="m1", span=span,
                pid=0, bytes=256, tuples=4)
        t.event("repartition.route", machine="src", span=span, kind="merge",
                parent=0, children=(8, 9), version=2)
        for pid in (8, 9):
            t.event("repartition.retire", machine="src", span=span, pid=pid)
        t.event("repartition.flush", machine="src", span=span, pids=(0,),
                flushed=0)
        t.end_span(span, status="done")

    assert synthetic(author) == []


def test_checker_flags_double_routed_key():
    """A host flipping its routing to different children than the session
    ordered would route keys of the divergent range to two live groups."""
    violations = synthetic(
        lambda t: author_split_session(t, route_children=(8, 10))
    )
    assert any(v.check == "repartition-routing" for v in violations)


def test_checker_flags_early_parent_retire():
    """Retiring the parent before both children installed loses the keys
    arriving in between."""
    violations = synthetic(
        lambda t: author_split_session(t, retire_first=True)
    )
    assert any(v.check == "repartition-protocol"
               and "retired before" in v.message for v in violations)


def test_checker_flags_dropped_child_install():
    """A done split session that never installed one child completed with
    half the parent's state missing."""
    violations = synthetic(
        lambda t: author_split_session(t, drop_install=9)
    )
    assert any(v.check == "repartition-protocol"
               and "completed with installs" in v.message
               for v in violations)


def test_checker_flags_install_on_second_machine():
    """A child group installed on a machine other than the owner (while
    the owner's copy is live) breaks single residency."""
    def author(t):
        t.event("deploy.assignment", machine="m1", pids=(0,))
        span = t.begin_span("repartition", machine="gc", kind="split",
                            owner="m1", parent_pid=0, children=(8, 9))
        t.event("repartition.pause", machine="src", span=span, pids=(0,))
        for machine in ("m1", "m2"):  # same child lands on both machines
            t.event("repartition.install", machine=machine, span=span,
                    pid=8, bytes=128, tuples=2)
        t.event("repartition.install", machine="m1", span=span,
                pid=9, bytes=128, tuples=2)
        t.event("repartition.route", machine="src", span=span, kind="split",
                parent=0, children=(8, 9), version=1)
        t.event("repartition.retire", machine="src", span=span, pid=0)
        t.event("repartition.flush", machine="src", span=span, pids=(8, 9),
                flushed=0)
        t.end_span(span, status="done")

    assert any(v.check == "single-residency" for v in synthetic(author))


def test_checker_flags_repartition_event_outside_span():
    def author(t):
        t.event("repartition.install", machine="m1", span=999, pid=8,
                bytes=128, tuples=2)

    assert any(v.check == "repartition-protocol" for v in synthetic(author))


def completed_repartition_trace():
    """A known-good real trace containing completed split sessions."""
    from repro import AdaptationConfig, Deployment
    from repro.workloads import WorkloadSpec, three_way_join
    from repro.workloads.generator import PartitionWorkload
    from repro.workloads.patterns import AlternatingPattern

    tracer = Tracer()
    parts = tuple(
        PartitionWorkload(pid=i, join_rate=3.0, tuple_range=240,
                          weight=(4.0 if i == 0 else 1.0))
        for i in range(8)
    )
    dep = Deployment(
        join=three_way_join(window=10.0),
        workload=WorkloadSpec(
            n_partitions=8, partitions=parts, interarrival=0.05, seed=11,
            pattern=AlternatingPattern([{0}, frozenset()], period=30.0,
                                       factor=6.0),
        ),
        workers=2,
        config=AdaptationConfig(
            strategy=StrategyName.LAZY_DISK, memory_threshold=60_000,
            theta_r=0.05, tau_m=10.0, coordinator_interval=5.0,
            stats_interval=2.0, ss_interval=2.0, min_relocation_bytes=1024,
            repartition_enabled=True, split_skew_factor=2.5,
            split_min_bytes=4_000, merge_max_bytes=6_000, tau_p=8.0,
        ),
        assignment={"m1": 1.0, "m2": 1.0},
        tracer=tracer,
    )
    dep.run(duration=60.0, sample_interval=10.0)
    dep.cleanup()
    events = list(tracer.events)
    done = [e.span for e in events
            if e.phase == "E" and e.name == "repartition"
            and e.get("status") == "done"]
    assert done, "fixture run completed no repartition session"
    return events, done[0]


def test_mutated_real_trace_dropped_install_is_caught():
    """Dropping one child install from a completed real split session is
    rejected; the unmutated trace is clean."""
    events, span = completed_repartition_trace()
    assert check_trace(events) == []
    installs = [i for i, e in enumerate(events)
                if e.name == "repartition.install" and e.span == span]
    mutated = [e for i, e in enumerate(events) if i != installs[-1]]
    assert any(v.check == "repartition-protocol" for v in check_trace(mutated))


def test_mutated_real_trace_duplicated_flush_is_caught():
    """Replaying a split host's buffer flush (duplicate delivery of the
    pause-buffered tuples) is a pause-flush violation."""
    events, span = completed_repartition_trace()
    flush = next(e for e in events
                 if e.name == "repartition.flush" and e.span == span)
    assert any(v.check == "pause-flush"
               for v in check_trace(events + [flush]))


# ----------------------------------------------------------------------
# Determinism and non-perturbation
# ----------------------------------------------------------------------


def run_for_trace(seed):
    dep, tracer = traced_deployment(
        workers=2, assignment={"m1": 0.75, "m2": 0.25}, seed=seed,
    )
    run_traced(dep)
    return tracer


def test_same_seed_produces_byte_identical_traces():
    """Tracing is deterministic: same seed + config → identical JSONL."""
    first = run_for_trace(7).to_jsonl()
    second = run_for_trace(7).to_jsonl()
    assert first == second


def test_different_seed_produces_a_different_trace():
    assert run_for_trace(7).to_jsonl() != run_for_trace(8).to_jsonl()


def test_tracing_does_not_perturb_the_run():
    """A traced run is observationally identical to an untraced one: same
    outputs, same spill/relocation counts, same memory trajectories."""
    plain = small_deployment(workers=2,
                             assignment={"m1": 0.75, "m2": 0.25}, seed=7)
    plain.run(duration=40.0, sample_interval=10.0)
    traced, _tracer = traced_deployment(
        workers=2, assignment={"m1": 0.75, "m2": 0.25}, seed=7,
    )
    traced.run(duration=40.0, sample_interval=10.0)
    assert plain.total_outputs == traced.total_outputs
    assert plain.spill_count == traced.spill_count
    assert plain.relocation_count == traced.relocation_count
    times = [10.0, 20.0, 30.0, 40.0]
    for machine in ("m1", "m2"):
        assert ([plain.memory_series(machine).value_at(t) for t in times]
                == [traced.memory_series(machine).value_at(t)
                    for t in times])


# ----------------------------------------------------------------------
# Export formats
# ----------------------------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    tracer = run_for_trace(7)
    path = tmp_path / "run.jsonl"
    tracer.write_jsonl(path)
    loaded = load_jsonl(path)
    assert [e.to_dict() for e in loaded] == [e.to_dict()
                                            for e in tracer.events]
    assert check_trace(loaded) == []


def test_chrome_export_structure(tmp_path):
    tracer = run_for_trace(7)
    path = tmp_path / "run.trace.json"
    tracer.write_chrome(path)
    doc = json.loads(path.read_text())
    records = doc["traceEvents"]
    assert {r["ph"] for r in records} >= {"M", "b", "e", "i"}
    begins = [r["id"] for r in records if r["ph"] == "b"]
    ends = [r["id"] for r in records if r["ph"] == "e"]
    assert set(ends) <= set(begins)
    threads = {r["args"]["name"] for r in records if r["ph"] == "M"}
    assert {"m1", "m2"} <= threads


def test_cli_trace_flags(tmp_path, capsys):
    from repro.bench.cli import main

    jsonl = tmp_path / "cli.jsonl"
    chrome = tmp_path / "cli.trace.json"
    rc = main(["--workers", "2", "--minutes", "0.5",
               "--threshold-kb", "40", "--tuple-range", "400",
               "--trace", str(jsonl), "--trace-chrome", str(chrome)])
    assert rc == 0
    out = capsys.readouterr().out
    assert str(jsonl) in out
    events = load_jsonl(jsonl)
    assert events, "CLI wrote an empty trace"
    assert check_trace(events) == []
    assert json.loads(chrome.read_text())["traceEvents"]

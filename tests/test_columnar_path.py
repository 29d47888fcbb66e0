"""Equivalence of the columnar (structure-of-arrays) data path.

The columnar path rebuilds the whole delivery pipeline — ``ColumnBatch``
at the source, vectorized probe/insert in the store, zero-copy bounded
snapshots on the spill/relocation/checkpoint paths — and every bit of it
is only legal if it is *unobservable*: same results in the same order,
same counters and victim orderings, same snapshots, and — end to end —
byte-identical outputs and adaptation traces for the same seeds, under
spills, relocations, purges and crashes.  These tests assert exactly
that, at the store level and over full deployments, mirroring
``test_batched_path.py`` one representation further down.
"""

import random

import pytest

from repro import AdaptationConfig, Deployment, StrategyName
from repro.cluster.faults import FaultSchedule, MachineCrash, MachineRestart
from repro.cluster.machine import Machine
from repro.cluster.simulation import Simulator
from repro.engine.columns import ColumnBatch, ColumnarPartitionGroup
from repro.engine.reference import reference_join, result_idents
from repro.engine.state_store import StateStore
from repro.engine.tuples import StreamTuple
from repro.obs.trace import Tracer
from repro.workloads import WorkloadSpec, three_way_join

from tests.helpers import canonical_frozen, small_deployment

STREAMS = ("A", "B", "C")


def synth_batches(n, *, batch_size=50, n_partitions=6, key_range=12, seed=3,
                  ts_step=0.5, nonuniform=False, payloads=False,
                  streams=STREAMS):
    rng = random.Random(seed)
    batches, current = [], []
    for seq in range(n):
        key = rng.randrange(key_range)
        size = 64 + (rng.randrange(4) * 16 if nonuniform else 0)
        payload = (("v", seq),) if payloads and rng.random() < 0.25 else ()
        tup = StreamTuple(stream=streams[seq % len(streams)], seq=seq, key=key,
                          ts=seq * ts_step, size=size, payload=payload)
        current.append((key % n_partitions, tup))
        if len(current) == batch_size:
            batches.append(current)
            current = []
    if current:
        batches.append(current)
    return batches


def fresh_store(*, columnar=False, streams=STREAMS):
    sim = Simulator()
    return StateStore(Machine(sim, "m"), streams, columnar=columnar)


def store_fingerprint(store):
    """Everything observable about a store, representation-independent."""
    return (
        store.total_bytes,
        store.outputs_total,
        store.tuples_processed,
        dict(store.mutations),
        store.machine.memory_used,
        store.machine.memory_high_water,
        store.productivity_snapshot(),
        tuple(sorted(
            canonical_frozen(store.state_of(pid))
            for pid in store.partition_ids()
        )),
    )


def run_per_tuple(store, batches, **kwargs):
    total, results = 0, []
    for batch in batches:
        for pid, tup in batch:
            count, rs = store.probe_insert(pid, tup, **kwargs)
            total += count
            results.extend(rs)
    return total, results


def run_columnar(store, batches, *, streams=STREAMS, **kwargs):
    total, results = 0, []
    for batch in batches:
        cb = ColumnBatch.from_routed(batch, streams)
        count, rs = store.probe_insert_columns(cb, **kwargs)
        total += count
        results.extend(rs)
    return total, results


class TestColumnBatch:
    def test_round_trips_in_arrival_order(self):
        batch = synth_batches(120, batch_size=120, nonuniform=True,
                              payloads=True)[0]
        cb = ColumnBatch.from_routed(batch, STREAMS)
        assert list(cb.iter_routed()) == batch
        assert [cb.tuple_at(i) for i in range(len(cb))] == [t for _, t in batch]

    def test_segments_group_by_pid_in_first_occurrence_order(self):
        batch = synth_batches(90, batch_size=90)[0]
        cb = ColumnBatch.from_routed(batch, STREAMS)
        seen = []
        for pid, start, end in cb.segments:
            assert pid not in seen
            seen.append(pid)
            assert all(cb.pids[i] == pid for i in range(start, end))
        first_occurrence = list(dict.fromkeys(pid for pid, _ in batch))
        assert seen == first_occurrence

    def test_uniform_collapse(self):
        batch = synth_batches(60, batch_size=60)[0]
        cb = ColumnBatch.from_routed(batch, STREAMS)
        assert cb.sizes is None and cb.usize == 64 and cb.payloads is None
        mixed = ColumnBatch.from_routed(
            synth_batches(60, batch_size=60, nonuniform=True,
                          payloads=True)[0], STREAMS)
        assert mixed.sizes is not None and mixed.payloads is not None


class TestStoreColumnarEquivalence:
    @pytest.mark.parametrize("window", [None, 5.0])
    @pytest.mark.parametrize("materialize", [False, True])
    @pytest.mark.parametrize("nonuniform", [False, True])
    def test_columnar_matches_per_tuple(self, nonuniform, materialize, window):
        batches = synth_batches(600, nonuniform=nonuniform,
                                payloads=nonuniform)
        per_tuple = fresh_store()
        total_a, results_a = run_per_tuple(
            per_tuple, batches, materialize=materialize, window=window)
        columnar = fresh_store(columnar=True)
        total_b, results_b = run_columnar(
            columnar, batches, materialize=materialize, window=window)
        assert total_b == total_a
        assert results_b == results_a  # same results, same order
        assert store_fingerprint(columnar) == store_fingerprint(per_tuple)

    @pytest.mark.parametrize("arity", [2, 4])
    def test_materialized_probe_matches_row_and_reference(self, arity):
        """At join arity 2 and 4, with the trigger in every slot, the
        columnar store materializes the row store's results in the row
        store's order, and each probe's results are the reference join's
        combinations through the trigger, in the reference's order."""
        streams = ("A", "B", "C", "D")[:arity]
        batches = synth_batches(200, key_range=8, streams=streams)
        row_total, row_results = run_per_tuple(
            fresh_store(streams=streams), batches, materialize=True)
        col_total, col_results = run_columnar(
            fresh_store(columnar=True, streams=streams), batches,
            streams=streams, materialize=True)
        assert col_total == row_total == len(row_results)
        assert col_results == row_results

        # reference: the join of the trigger with every earlier tuple of
        # the other streams, trigger by trigger in arrival order
        expected, seen = [], []
        for __, tup in (pair for batch in batches for pair in batch):
            probe = reference_join(
                [t for t in seen if t.key == tup.key and t.stream != tup.stream]
                + [tup], streams)
            expected.extend(r.parts for r in probe)
            seen.append(tup)
        assert [r.parts for r in col_results] == expected
        triggers = [max(r.parts, key=lambda t: t.seq) for r in col_results]
        assert [r.ts for r in col_results] == [t.ts for t in triggers]
        assert {t.stream for t in triggers} == set(streams)
        assert {r.ident for r in col_results} == result_idents(
            reference_join(seen, streams))

    def test_empty_batch_is_a_no_op(self):
        store = fresh_store(columnar=True)
        cb = ColumnBatch.from_routed([], STREAMS)
        assert store.probe_insert_columns(cb) == (0, [])
        assert store.total_bytes == 0
        assert store.mutations == {}

    def test_batch_split_points_do_not_matter(self):
        rows = [pair for b in synth_batches(240) for pair in b]
        whole = fresh_store(columnar=True)
        whole.probe_insert_columns(ColumnBatch.from_routed(rows, STREAMS))
        pieces = fresh_store(columnar=True)
        for start in range(0, len(rows), 17):
            pieces.probe_insert_columns(
                ColumnBatch.from_routed(rows[start:start + 17], STREAMS))
        assert store_fingerprint(pieces) == store_fingerprint(whole)

    def test_churn_equivalence(self):
        """Purge + evict/install mid-stream stay byte-identical."""
        batches = synth_batches(900)

        def run(columnar):
            store = fresh_store(columnar=columnar)
            for i, batch in enumerate(batches):
                if columnar:
                    store.probe_insert_columns(
                        ColumnBatch.from_routed(batch, STREAMS))
                else:
                    for pid, tup in batch:
                        store.probe_insert(pid, tup)
                if i == 7:
                    store.purge_window(60.0)
                if i == 12:
                    for frozen in store.evict(list(store.partition_ids())[:3]):
                        store.install(frozen)
            return store_fingerprint(store)

        assert run(True) == run(False)


class TestZeroCopySnapshots:
    def test_snapshot_is_immune_to_later_appends_and_purges(self):
        batches = synth_batches(600)
        store = fresh_store(columnar=True)
        snaps = {}
        for i, batch in enumerate(batches):
            store.probe_insert_columns(ColumnBatch.from_routed(batch, STREAMS))
            if i == 4:  # mid-stream: snapshots share live, growing buffers
                snaps = {pid: (store.state_of(pid),
                               canonical_frozen(store.state_of(pid)))
                         for pid in store.partition_ids()}
            if i == 8:
                store.purge_window(100.0)  # swaps in rebuilt column buffers
        assert snaps
        for frozen, before in snaps.values():
            assert canonical_frozen(frozen) == before

    def test_thaw_is_bounded_by_the_snapshot(self):
        batches = synth_batches(300)
        store = fresh_store(columnar=True)
        store.probe_insert_columns(ColumnBatch.from_routed(batches[0], STREAMS))
        pid = store.partition_ids()[0]
        frozen = store.state_of(pid)
        before = canonical_frozen(frozen)
        for batch in batches[1:]:  # keep appending into the shared buffers
            store.probe_insert_columns(ColumnBatch.from_routed(batch, STREAMS))
        thawed = ColumnarPartitionGroup.thaw(frozen)
        assert thawed.tuple_count == frozen.tuple_count
        assert len(thawed.row_sid) == frozen.nrows
        assert canonical_frozen(thawed.freeze()) == before

    def test_cross_representation_install(self):
        """A row-format snapshot installs into a columnar store and back."""
        batches = synth_batches(300)
        row = fresh_store()
        run_per_tuple(row, batches)
        columnar = fresh_store(columnar=True)
        for frozen in row.evict(row.partition_ids()):
            columnar.install(frozen)
        col_frozen = columnar.evict(columnar.partition_ids())
        back = fresh_store()
        for frozen in col_frozen:
            back.install(frozen)
        fresh = fresh_store()
        run_per_tuple(fresh, batches)
        assert (tuple(sorted(canonical_frozen(back.state_of(p))
                             for p in back.partition_ids()))
                == tuple(sorted(canonical_frozen(fresh.state_of(p))
                                for p in fresh.partition_ids())))


def run_deployment(data_path, **kwargs):
    tracer = Tracer()
    dep = small_deployment(collect=True, data_path=data_path,
                           tracer=tracer, **kwargs)
    dep.run(duration=40.0, sample_interval=5.0)
    report = dep.cleanup(materialize=True)
    return dep, report, tracer


class TestDeploymentEquivalence:
    def test_byte_identical_outputs_and_traces(self):
        dep_a, report_a, tracer_a = run_deployment("batched")
        dep_b, report_b, tracer_b = run_deployment("columnar")
        assert dep_a.spill_count > 0  # the run actually adapted
        assert dep_a.total_outputs == dep_b.total_outputs
        assert ([r.ident for r in dep_a.collector.results]
                == [r.ident for r in dep_b.collector.results])
        assert report_a.missing_results == report_b.missing_results
        assert ({r.ident for r in report_a.results}
                == {r.ident for r in report_b.results})
        # byte-identical adaptation traces: every spill, relocation and
        # protocol step happened at the same simulated instant either way
        assert tracer_a.to_jsonl() == tracer_b.to_jsonl()

    def test_windowed_deployment_equivalence(self):
        def run(data_path):
            tracer = Tracer()
            dep = Deployment(
                join=three_way_join(window=20.0),
                workload=WorkloadSpec.uniform(
                    n_partitions=8, join_rate=3.0, tuple_range=240,
                    interarrival=0.05, seed=7,
                ),
                workers=["m1"],
                config=AdaptationConfig(
                    strategy=StrategyName.NO_RELOCATION,
                    memory_threshold=6_000,
                    ss_interval=2.0,
                ),
                collect_results=True,
                record_inputs=True,
                data_path=data_path,
                tracer=tracer,
            )
            dep.run(duration=50, sample_interval=10)
            return dep, tracer

        dep_a, tracer_a = run("batched")
        dep_b, tracer_b = run("columnar")
        assert dep_a.total_outputs == dep_b.total_outputs
        assert ([r.ident for r in dep_a.collector.results]
                == [r.ident for r in dep_b.collector.results])
        assert tracer_a.to_jsonl() == tracer_b.to_jsonl()


class TestCrashEquivalence:
    def test_checkpointed_crash_run_is_identical(self):
        """Crash + recovery from checkpoints: same outputs, same traces,
        same canonical checkpoint registry either way."""

        def run(data_path):
            tracer = Tracer()
            dep = small_deployment(
                strategy=StrategyName.LAZY_DISK,
                workers=3,
                n_partitions=8,
                join_rate=3.0,
                tuple_range=240,
                interarrival=0.05,
                collect=True,
                data_path=data_path,
                tracer=tracer,
                config_overrides=dict(
                    checkpoint_enabled=True,
                    checkpoint_interval=6.0,
                    failure_timeout=5.0,
                ),
            )
            FaultSchedule([
                MachineCrash(time=15.0, engine=dep.engines["m2"]),
                MachineRestart(time=25.0, engine=dep.engines["m2"]),
            ]).arm(dep.sim)
            dep.run(duration=45.0, sample_interval=5.0)
            registry = tuple(
                (e.pid, e.owner, e.holder, e.time, e.live,
                 canonical_frozen(e.frozen))
                for e in dep.registry.entries()
            )
            return dep, tracer, registry

        dep_a, tracer_a, registry_a = run("batched")
        dep_b, tracer_b, registry_b = run("columnar")
        assert dep_a.checkpoint_count > 0
        assert dep_a.total_outputs == dep_b.total_outputs
        assert ([r.ident for r in dep_a.collector.results]
                == [r.ident for r in dep_b.collector.results])
        assert tracer_a.to_jsonl() == tracer_b.to_jsonl()
        assert registry_a == registry_b

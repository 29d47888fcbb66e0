"""Tests of the benchmark itself: the oracle wiring, failure detection, and
a tiny-length smoke run of every workload, untraced and traced.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os

import pytest

import run

pinned = run.load_program()

SEED = pinned.DEFAULT_SEED

#: the pinned shapes at a length that runs in a few seconds
TINY = {
    "steady_join": lambda: pinned.SteadyJoin(duration=300.0),
    "elastic_recovery": lambda: pinned.ElasticRecovery(duration=160.0),
    "serving_slo": lambda: pinned.ServingSLO(duration=30.0),
}


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit as ``BENCHMARK.json`` declares them."""
    path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_tiny_shapes_cover_every_pinned_workload():
    assert set(TINY) == set(pinned.WORKLOADS)


def test_regenerated_inputs_equal_recorded_inputs():
    wl = TINY["steady_join"]()
    dep = wl.build(SEED)
    dep.source_host.record_inputs = True
    dep.run(wl.duration, sample_interval=wl.slice_s)
    [query] = wl.queries(SEED)
    regenerated = pinned.regenerate_inputs(query)
    assert len(regenerated) == sum(s.tuples_sent for s in dep.sources)

    def key(t):
        return (t.stream, t.seq)

    assert sorted(regenerated, key=key) == sorted(dep.source_host.inputs, key=key)


def test_oracle_check_fails_on_a_perturbed_count():
    wl = TINY["serving_slo"]()
    server = wl.execute(SEED, lambda obj: None)
    outcome = wl.finish(server)
    expected = {q.qid: pinned.expected_results(q) for q in wl.queries(SEED)}
    assert pinned.failures(outcome, expected) == []
    outcome.observed["q4"] += 1
    assert len(pinned.failures(outcome, expected)) == 1
    outcome.observed["q4"] -= 1
    outcome.folded_agree = False
    assert len(pinned.failures(outcome, expected)) == 1


def check_printed(lines: list[str], result: dict, units: dict[str, str]) -> None:
    assert result["correct"], "\n".join(lines)
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    text = "\n".join(lines)
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and line.endswith(f" {unit}")
                   for line in lines), f"{name} [{unit}] not printed:\n{text}"


@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_end_to_end(workload):
    lines, result = run.measure(pinned, TINY[workload](), SEED, 0.0, False, None)
    check_printed(lines, result, declared("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_traced(workload, tmp_path):
    lines, result = run.measure(pinned, TINY[workload](), SEED, 0.0, True,
                                str(tmp_path))
    check_printed(lines, result, declared("per_layer"))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # every latency observation updates at least the e2e, processing and
    # queueing sketches, whether through ``record`` or inlined
    assert metrics["obs.sketch.records_per_observation"] >= 3
    assert 0 < metrics["tracing.bookkeeping_frac"] < 1
    files = sorted(os.listdir(tmp_path))
    assert files == [f"{workload}-seed{SEED}.bin", f"{workload}-seed{SEED}.json"]

"""Trace-driven protocol invariant checking.

The tracer (:mod:`repro.obs.trace`) records *what happened*; this module
replays a finished trace and asserts *what must always hold* about the
adaptation protocols, independent of any particular workload:

1. **Relocation step order** — every relocation session's steps 1–8
   (cptv → ptv → pause → paused → transfer → installed → remap →
   resumed) occur in strictly increasing order; a session that completes
   saw all eight exactly once.
2. **Pause/flush discipline** — tuples buffered at a paused split are
   flushed exactly once per session (on remap for a completed hand-off,
   on remap-back for an aborted one); never zero times, never twice.
3. **Single residency** — no partition's state is live on two machines
   at once.  Packing evicts it from the sender (it is *in flight* until
   the receiver installs), a crash evicts everything on the dead
   machine, and a recovery restore may only re-materialise state whose
   owner is gone.  A partition is a pid *within one query*: serving
   runtimes prefix their machines with the query's namespace
   (``q1:m1``), so the same pid on ``q1:m1`` and ``q2:m1`` names two
   different partitions (checks 4 and 9 key partitions the same way).
4. **Spill ↔ cleanup matching** — when a cleanup phase runs, every
   partition that ever spilled to disk is either merged exactly once or
   explicitly skipped (fewer than two parts on disk); nothing parked on
   disk is silently forgotten, and nothing is merged twice.
5. **Checkpoint / crash-epoch atomicity** — a machine emits no trace
   activity (in particular no checkpoint commits) between its crash and
   its restart; commits happen entirely before a crash or not at all.
6. **Recovery replay arithmetic** — recovery replays exactly the
   uncovered suffix of the replay log: per partition,
   ``replayed == suffix − covered`` when the state was restored from a
   checkpoint, and ``replayed == 0`` when it was already resident on a
   survivor.
7. **Recovery phase order** — every recovery session walks
   pausing → restoring → rerouting without skipping backwards.
8. **Ledger ↔ trace bijection** (when a decision ledger was recorded) —
   every ``spill``/``relocation``/``repartition`` span is justified by
   exactly one executed ledger entry and vice versa, and every entry's
   recorded rule inputs reproduce its decision when re-evaluated offline
   (:meth:`InvariantChecker.check_ledger`).
9. **Single residency under split/merge** — a repartition session's new
   group(s) install on exactly one live machine; every source host's
   routing flip names the same parent → children refinement (no key can
   route to two live groups); the old pid(s) retire only *after* every
   new group installed; a completed session installed exactly its
   ordered children (split) or parent (merge), retired exactly the
   replaced pid(s), and flushed each host's pause buffer exactly once.
10. **Elastic membership** — ownership is only ever acquired by a
    *member*: a machine seen in the initial ``deploy.assignment`` or
    admitted by a later ``membership.join``.  After ``membership.retire``
    (a completed graceful drain) no state may be installed, restored or
    assigned on the retired machine until a fresh ``membership.join``
    re-admits it; and a drained engine (``engine.drained``) emits no
    trace activity until ``engine.revive`` — the only exception is the
    post-run ``cleanup.*`` phase, which merges spilled fragments left on
    the retired machine's disk by design.
11. **Watermark monotonicity** — an engine's per-stream low-watermark
    (``engine.watermark`` events, emitted with its statistics reports
    when latency tracking is on) never regresses within one incarnation.
    Only crash-recovery adoption may lower it: the restarted engine
    reports under a strictly larger incarnation while it rebuilds event
    time from the replayed suffix.

``check_trace(events)`` returns a list of :class:`Violation`; an empty
list means the trace upholds every contract.  The checker needs only the
event stream — it can run on a live :class:`~repro.obs.trace.Tracer`'s
``events`` or on records loaded back from JSONL.  Pass the run's ledger
entries as ``check_trace(events, ledger_entries=...)`` to include
check 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.obs.trace import PHASE_BEGIN, PHASE_END, PHASE_INSTANT, TraceEvent

__all__ = ["InvariantChecker", "Violation", "check_trace"]

#: Step numbers of the 8-step relocation protocol, in contract order.
RELOCATION_STEPS = (1, 2, 3, 4, 5, 6, 7, 8)

#: Legal forward order of recovery session phases.
RECOVERY_PHASE_ORDER = ("pausing", "restoring", "rerouting", "done")

#: A partition namespace: (query namespace, pipeline stage).
Scope = tuple[str, str]


def _namespace(machine: str) -> str:
    """Query namespace of a machine name: ``"q1"`` for a serving
    runtime's ``"q1:m1"``, ``""`` for a standalone deployment's ``"m1"``."""
    return machine.rpartition(":")[0]


def _label(key: tuple[Scope, int]) -> str:
    """Readable partition name for messages: ``q1:s2/7`` (namespace and
    stage only when set)."""
    (ns, stage), pid = key
    return f"{ns + ':' if ns else ''}{stage + '/' if stage else ''}{pid}"


@dataclass(frozen=True)
class Violation:
    """One broken contract, anchored to the trace event that exposed it."""

    check: str
    message: str
    seq: int | None = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        anchor = f" (seq={self.seq})" if self.seq is not None else ""
        return f"[{self.check}] {self.message}{anchor}"


@dataclass
class _RelocationState:
    span: int
    machine: str
    steps: list[int] = field(default_factory=list)
    pauses: int = 0
    flushes: int = 0
    last_pause_seq: int = -1
    status: str | None = None
    #: aborted with splits left paused for a recovery session to resume
    pause_handoff: bool = False


@dataclass
class _RecoveryState:
    span: int
    phases: list[str] = field(default_factory=list)
    status: str | None = None


@dataclass
class _RepartitionState:
    span: int
    kind: str  # "split" | "merge"
    owner: str
    parent: int
    children: tuple[int, ...]
    pauses: int = 0
    flushes: int = 0
    last_pause_seq: int = -1
    installs: set[int] = field(default_factory=set)
    retires: set[int] = field(default_factory=set)
    status: str | None = None
    #: aborted with splits left paused for a recovery session to resume
    pause_handoff: bool = False

    @property
    def expected_installs(self) -> set[int]:
        return set(self.children) if self.kind == "split" else {self.parent}

    @property
    def expected_retires(self) -> set[int]:
        return {self.parent} if self.kind == "split" else set(self.children)


class InvariantChecker:
    """Replays a trace event stream and accumulates violations."""

    def __init__(self) -> None:
        self.violations: list[Violation] = []
        # machine -> pipeline stage label ("" for flat deployments)
        self._stage_of: dict[str, str] = {}
        # partitions are keyed (scope, pid), scope = (query namespace,
        # stage); see _scope
        # (scope, pid) -> machine currently holding live state
        self._resident: dict[tuple[Scope, int], str] = {}
        # (span, scope, pid) -> sender, for state packed but not installed
        self._in_flight: dict[tuple[int, Scope, int], str] = {}
        self._dead: set[str] = set()
        # check 10: cluster membership as seen by the trace
        self._members: set[str] = set()
        self._retired_members: set[str] = set()
        self._drained_engines: set[str] = set()
        self._relocations: dict[int, _RelocationState] = {}
        self._recoveries: dict[int, _RecoveryState] = {}
        self._repartitions: dict[int, _RepartitionState] = {}
        # (scope, pid) -> spill count / merge count
        self._spilled: dict[tuple[Scope, int], int] = {}
        self._merged: dict[tuple[Scope, int], int] = {}
        # cleanup spans and skips carry no machine, so their namespace is
        # resolved in finish() from the span's merges:
        # span -> stage, span -> namespace, (span, stage, pid) skipped
        self._cleanup_spans: dict[int, str] = {}
        self._cleanup_ns: dict[int, str] = {}
        self._skips: list[tuple[int, str, int]] = []
        # final routing refinement per scope: (scope, parent) -> children.
        # A segment spilled under a later-split pid re-buckets to the
        # refinement's leaves during cleanup, so spill/cleanup matching
        # resolves pids through this trie.
        self._refinement: dict[tuple[Scope, int], tuple[int, ...]] = {}
        # (scope, child) -> parent for merged-away groups: a child's disk
        # bytes route to the surviving parent after the merge
        self._merge_redirect: dict[tuple[Scope, int], int] = {}
        # check 11: (machine, stream) -> (incarnation, watermark) last seen
        self._watermarks: dict[tuple[str, str], tuple[int, float]] = {}
        # spill/relocation begin events + slo.alert instants, kept for
        # check_ledger (check 8)
        self._adaptation_spans: list[TraceEvent] = []

    # ------------------------------------------------------------------
    def _fail(self, check: str, message: str, event: TraceEvent | None = None) -> None:
        self.violations.append(
            Violation(check, message, event.seq if event is not None else None)
        )

    def _stage(self, machine: str, event: TraceEvent) -> str:
        return str(event.get("stage", self._stage_of.get(machine, "")))

    def _scope(self, machine: str, event: TraceEvent) -> Scope:
        """The partition namespace ``machine`` works in: its query
        namespace (the serving prefix before ``:``, "" for a standalone
        deployment) and its pipeline stage."""
        return (_namespace(machine), self._stage(machine, event))

    # ------------------------------------------------------------------
    def feed(self, events: Iterable[TraceEvent]) -> None:
        for event in events:
            self._feed_one(event)

    def _feed_one(self, e: TraceEvent) -> None:
        self._check_dead_epoch(e)

        if e.phase == PHASE_BEGIN:
            if e.name in ("relocation", "spill", "repartition"):
                self._adaptation_spans.append(e)
            if e.name == "relocation":
                self._relocations[e.span] = _RelocationState(e.span, e.machine)
            elif e.name == "recovery":
                self._recoveries[e.span] = _RecoveryState(e.span)
            elif e.name == "repartition":
                # the replaced pid travels as "parent_pid" ("parent" is the
                # tracer's span-hierarchy field)
                self._repartitions[e.span] = _RepartitionState(
                    e.span,
                    str(e.get("kind", "")),
                    str(e.get("owner", "")),
                    int(e.get("parent_pid", -1)),
                    tuple(int(c) for c in e.get("children", ())),
                )
            elif e.name == "spill":
                self._on_spill(e)
            elif e.name == "cleanup":
                self._cleanup_spans[e.span or 0] = str(e.get("stage", ""))
        elif e.phase == PHASE_END:
            if e.span in self._relocations and e.name == "relocation":
                state = self._relocations[e.span]
                state.status = str(e.get("status", ""))
                state.pause_handoff = bool(e.get("pause_handoff", False))
            elif e.span in self._recoveries and e.name == "recovery":
                self._recoveries[e.span].status = str(e.get("status", ""))
            elif e.span in self._repartitions and e.name == "repartition":
                state = self._repartitions[e.span]
                state.status = str(e.get("status", ""))
                state.pause_handoff = bool(e.get("pause_handoff", False))
        elif e.phase == PHASE_INSTANT:
            handler = {
                "deploy.assignment": self._on_assignment,
                "relocation.step": self._on_step,
                "split.pause": self._on_pause,
                "split.flush": self._on_flush,
                "relocation.pack": self._on_pack,
                "relocation.install": self._on_install,
                "cleanup.merge": self._on_merge,
                "cleanup.skip": self._on_skip,
                "engine.crash": self._on_crash,
                "engine.restart": self._on_restart,
                "recovery.phase": self._on_recovery_phase,
                "recovery.restore": self._on_restore,
                "recovery.replay": self._on_replay,
                "repartition.pause": self._on_repartition_pause,
                "repartition.install": self._on_repartition_install,
                "repartition.route": self._on_repartition_route,
                "repartition.retire": self._on_repartition_retire,
                "repartition.flush": self._on_repartition_flush,
                "membership.join": self._on_member_join,
                "membership.retire": self._on_member_retire,
                "engine.drained": self._on_engine_drained,
                "engine.revive": self._on_engine_revive,
                "engine.watermark": self._on_watermark,
                "slo.alert": self._on_slo_alert,
            }.get(e.name)
            if handler is not None:
                handler(e)

    # ------------------------------------------------------------------
    # Check 5: no activity from a crashed machine until it restarts.
    # ------------------------------------------------------------------
    def _check_dead_epoch(self, e: TraceEvent) -> None:
        if e.machine in self._dead and e.name not in ("engine.restart", "engine.crash"):
            self._fail(
                "crash-epoch",
                f"machine {e.machine!r} emitted {e.name!r} while crashed",
                e,
            )
        # check 10: a gracefully drained engine is equally silent until it
        # is revived — only post-run cleanup may touch its leftover disk
        if (
            e.machine in self._drained_engines
            and e.name not in ("engine.revive", "engine.drained")
            and not e.name.startswith("cleanup")
        ):
            self._fail(
                "membership",
                f"machine {e.machine!r} emitted {e.name!r} while drained",
                e,
            )

    # ------------------------------------------------------------------
    # Residency bookkeeping (check 3)
    # ------------------------------------------------------------------
    def _on_assignment(self, e: TraceEvent) -> None:
        self._stage_of[e.machine] = str(e.get("stage", ""))
        scope = self._scope(e.machine, e)
        # the initial placement doubles as the founding membership roster
        self._members.add(e.machine)
        for pid in e.get("pids", ()):
            key = (scope, int(pid))
            holder = self._resident.get(key)
            if holder is not None and holder != e.machine:
                self._fail(
                    "single-residency",
                    f"partition {_label(key)} initially assigned to both "
                    f"{holder!r} and {e.machine!r}",
                    e,
                )
            self._resident[key] = e.machine

    def _on_pack(self, e: TraceEvent) -> None:
        scope = self._scope(e.machine, e)
        span = e.span or 0
        for pid in e.get("pids", ()):
            key = (scope, int(pid))
            if self._resident.get(key) == e.machine:
                del self._resident[key]
            self._in_flight[(span, scope, int(pid))] = e.machine

    def _on_install(self, e: TraceEvent) -> None:
        self._check_ownership_target(e.machine, "installed", e)
        scope = self._scope(e.machine, e)
        span = e.span or 0
        for pid in e.get("pids", ()):
            key = (scope, int(pid))
            self._in_flight.pop((span, scope, int(pid)), None)
            holder = self._resident.get(key)
            if holder is not None and holder != e.machine and holder not in self._dead:
                self._fail(
                    "single-residency",
                    f"partition {_label(key)} installed on {e.machine!r} while still "
                    f"live on {holder!r}",
                    e,
                )
            self._resident[key] = e.machine

    def _on_crash(self, e: TraceEvent) -> None:
        self._dead.add(e.machine)
        for key, holder in list(self._resident.items()):
            if holder == e.machine:
                del self._resident[key]

    def _on_restart(self, e: TraceEvent) -> None:
        self._dead.discard(e.machine)

    def _on_restore(self, e: TraceEvent) -> None:
        self._check_ownership_target(e.machine, "restored", e)
        scope = self._scope(e.machine, e)
        for pid in e.get("installed", ()):
            key = (scope, int(pid))
            holder = self._resident.get(key)
            if holder is not None and holder != e.machine and holder not in self._dead:
                self._fail(
                    "single-residency",
                    f"recovery restored partition {_label(key)} on {e.machine!r} while "
                    f"still live on {holder!r}",
                    e,
                )
            self._resident[key] = e.machine

    # ------------------------------------------------------------------
    # Elastic membership (check 10)
    # ------------------------------------------------------------------
    def _on_member_join(self, e: TraceEvent) -> None:
        worker = str(e.get("worker", ""))
        self._members.add(worker)
        self._retired_members.discard(worker)

    def _on_member_retire(self, e: TraceEvent) -> None:
        worker = str(e.get("worker", ""))
        self._retired_members.add(worker)
        self._members.discard(worker)

    def _on_engine_drained(self, e: TraceEvent) -> None:
        self._drained_engines.add(e.machine)

    def _on_engine_revive(self, e: TraceEvent) -> None:
        self._drained_engines.discard(e.machine)

    def _check_ownership_target(self, machine: str, verb: str,
                                e: TraceEvent) -> None:
        """State may only land on a current member (check 10)."""
        if machine in self._retired_members:
            self._fail(
                "membership",
                f"state {verb} on {machine!r} after its graceful retirement",
                e,
            )
        elif self._members and machine not in self._members:
            self._fail(
                "membership",
                f"state {verb} on {machine!r}, which never joined the cluster",
                e,
            )

    # ------------------------------------------------------------------
    # Relocation protocol (checks 1 and 2)
    # ------------------------------------------------------------------
    def _relocation_for(self, e: TraceEvent) -> _RelocationState | None:
        if e.span is None:
            self._fail("relocation-steps", f"{e.name!r} event without a span", e)
            return None
        state = self._relocations.get(e.span)
        if state is None:
            self._fail(
                "relocation-steps",
                f"{e.name!r} event for unknown relocation span {e.span}",
                e,
            )
        return state

    def _on_step(self, e: TraceEvent) -> None:
        state = self._relocation_for(e)
        if state is None:
            return
        step = int(e.get("step", -1))
        if step not in RELOCATION_STEPS:
            self._fail("relocation-steps", f"step number {step} out of range", e)
            return
        if state.steps and step <= state.steps[-1]:
            self._fail(
                "relocation-steps",
                f"relocation span {state.span}: step {step} after step "
                f"{state.steps[-1]}",
                e,
            )
        state.steps.append(step)

    def _on_pause(self, e: TraceEvent) -> None:
        state = self._relocation_for(e)
        if state is None:
            return
        state.pauses += 1
        state.last_pause_seq = e.seq

    def _on_flush(self, e: TraceEvent) -> None:
        state = self._relocation_for(e)
        if state is None:
            return
        state.flushes += 1
        if state.flushes > state.pauses:
            self._fail(
                "pause-flush",
                f"relocation span {state.span}: flushed more times than paused "
                f"({state.flushes} > {state.pauses})",
                e,
            )
        if e.seq < state.last_pause_seq:
            self._fail(
                "pause-flush",
                f"relocation span {state.span}: flush before pause",
                e,
            )

    # ------------------------------------------------------------------
    # Spill / cleanup matching (check 4)
    # ------------------------------------------------------------------
    def _on_spill(self, e: TraceEvent) -> None:
        scope = self._scope(e.machine, e)
        for pid in e.get("pids", ()):
            key = (scope, int(pid))
            self._spilled[key] = self._spilled.get(key, 0) + 1

    def _on_merge(self, e: TraceEvent) -> None:
        ns = _namespace(e.machine)
        self._cleanup_ns.setdefault(e.span or 0, ns)
        key = ((ns, str(e.get("stage", ""))), int(e.get("pid", -1)))
        self._merged[key] = self._merged.get(key, 0) + 1
        if self._merged[key] > 1:
            self._fail(
                "spill-cleanup",
                f"partition {_label(key)} merged {self._merged[key]} times "
                f"during cleanup",
                e,
            )

    def _on_skip(self, e: TraceEvent) -> None:
        self._skips.append(
            (e.span or 0, str(e.get("stage", "")), int(e.get("pid", -1)))
        )

    # ------------------------------------------------------------------
    # Recovery (checks 6 and 7)
    # ------------------------------------------------------------------
    def _recovery_for(self, e: TraceEvent) -> _RecoveryState | None:
        if e.span is None or e.span not in self._recoveries:
            self._fail(
                "recovery-phases",
                f"{e.name!r} event outside any recovery span",
                e,
            )
            return None
        return self._recoveries[e.span]

    def _on_recovery_phase(self, e: TraceEvent) -> None:
        state = self._recovery_for(e)
        if state is None:
            return
        phase = str(e.get("phase", ""))
        if phase not in RECOVERY_PHASE_ORDER:
            self._fail("recovery-phases", f"unknown recovery phase {phase!r}", e)
            return
        if state.phases:
            prev = RECOVERY_PHASE_ORDER.index(state.phases[-1])
            if RECOVERY_PHASE_ORDER.index(phase) < prev:
                self._fail(
                    "recovery-phases",
                    f"recovery span {state.span}: phase {phase!r} after "
                    f"{state.phases[-1]!r}",
                    e,
                )
        state.phases.append(phase)

    def _on_replay(self, e: TraceEvent) -> None:
        self._recovery_for(e)
        detail = e.get("detail", {})
        for pid, row in detail.items():
            suffix = int(row.get("suffix", 0))
            covered = int(row.get("covered", 0))
            replayed = int(row.get("replayed", 0))
            resident = bool(row.get("resident", False))
            if resident:
                if replayed != 0:
                    self._fail(
                        "recovery-replay",
                        f"partition {pid}: replayed {replayed} tuples although "
                        f"state was already resident",
                        e,
                    )
            elif replayed != suffix - covered:
                self._fail(
                    "recovery-replay",
                    f"partition {pid}: replayed {replayed}, expected uncovered "
                    f"suffix {suffix} - {covered} = {suffix - covered}",
                    e,
                )

    # ------------------------------------------------------------------
    # Repartition protocol (check 9)
    # ------------------------------------------------------------------
    def _repartition_for(self, e: TraceEvent) -> _RepartitionState | None:
        if e.span is None or e.span not in self._repartitions:
            self._fail(
                "repartition-protocol",
                f"{e.name!r} event outside any repartition span",
                e,
            )
            return None
        return self._repartitions[e.span]

    def _on_repartition_pause(self, e: TraceEvent) -> None:
        state = self._repartition_for(e)
        if state is None:
            return
        state.pauses += 1
        state.last_pause_seq = e.seq

    def _on_repartition_install(self, e: TraceEvent) -> None:
        state = self._repartition_for(e)
        if state is None:
            return
        self._check_ownership_target(e.machine, "installed", e)
        scope = self._scope(e.machine, e)
        pid = int(e.get("pid", -1))
        if pid not in state.expected_installs:
            self._fail(
                "repartition-protocol",
                f"repartition span {state.span} installed pid {pid}, which is "
                f"not among its new group(s) {sorted(state.expected_installs)}",
                e,
            )
        key = (scope, pid)
        holder = self._resident.get(key)
        if holder is not None and holder != e.machine and holder not in self._dead:
            self._fail(
                "single-residency",
                f"repartition installed partition {_label(key)} on {e.machine!r} "
                f"while still live on {holder!r}",
                e,
            )
        self._resident[key] = e.machine
        state.installs.add(pid)
        # the replaced group(s) dissolve with the rebuild on the owner
        for old in state.expected_retires:
            okey = (scope, old)
            if self._resident.get(okey) == e.machine:
                del self._resident[okey]

    def _on_repartition_route(self, e: TraceEvent) -> None:
        state = self._repartition_for(e)
        if state is None:
            return
        kind = str(e.get("kind", ""))
        parent = int(e.get("parent", -1))
        children = tuple(int(c) for c in e.get("children", ()))
        if (kind, parent, children) != (state.kind, state.parent, state.children):
            self._fail(
                "repartition-routing",
                f"repartition span {state.span}: host {e.machine!r} flipped "
                f"routing to {kind} {parent} -> {children}, session ordered "
                f"{state.kind} {state.parent} -> {state.children} (a key "
                f"could route to two live groups)",
                e,
            )
            return
        scope = self._scope(e.machine, e)
        if kind == "split":
            self._refinement[(scope, parent)] = children
            self._merge_redirect.pop((scope, parent), None)
        else:
            self._refinement.pop((scope, parent), None)
            for child in children:
                self._merge_redirect[(scope, child)] = parent

    def _on_repartition_retire(self, e: TraceEvent) -> None:
        state = self._repartition_for(e)
        if state is None:
            return
        pid = int(e.get("pid", -1))
        if pid not in state.expected_retires:
            self._fail(
                "repartition-protocol",
                f"repartition span {state.span} retired pid {pid}, which is "
                f"not among its replaced group(s) "
                f"{sorted(state.expected_retires)}",
                e,
            )
            return
        if not state.installs >= state.expected_installs:
            self._fail(
                "repartition-protocol",
                f"repartition span {state.span}: pid {pid} retired before the "
                f"new group(s) installed ({sorted(state.installs)} of "
                f"{sorted(state.expected_installs)})",
                e,
            )
        state.retires.add(pid)

    def _on_repartition_flush(self, e: TraceEvent) -> None:
        state = self._repartition_for(e)
        if state is None:
            return
        state.flushes += 1
        if state.flushes > state.pauses:
            self._fail(
                "pause-flush",
                f"repartition span {state.span}: flushed more times than "
                f"paused ({state.flushes} > {state.pauses})",
                e,
            )
        if e.seq < state.last_pause_seq:
            self._fail(
                "pause-flush",
                f"repartition span {state.span}: flush before pause",
                e,
            )

    # ------------------------------------------------------------------
    # Watermarks (check 11) and SLO alerts (check 8 extension)
    # ------------------------------------------------------------------
    def _on_watermark(self, e: TraceEvent) -> None:
        incarnation = int(e.get("incarnation", 0))
        for sid, wm in sorted((e.get("watermarks", {}) or {}).items()):
            key = (e.machine, str(sid))
            wm = float(wm)
            prev = self._watermarks.get(key)
            if prev is not None:
                prev_inc, prev_wm = prev
                if incarnation < prev_inc:
                    self._fail(
                        "watermark-monotonic",
                        f"machine {e.machine!r} stream {sid!r} reported under "
                        f"stale incarnation {incarnation} < {prev_inc}",
                        e,
                    )
                    continue
                if incarnation == prev_inc and wm < prev_wm:
                    self._fail(
                        "watermark-monotonic",
                        f"machine {e.machine!r} stream {sid!r} watermark "
                        f"regressed {prev_wm!r} -> {wm!r} within incarnation "
                        f"{incarnation} (only crash-recovery adoption may "
                        f"lower a watermark)",
                        e,
                    )
                    continue
            self._watermarks[key] = (incarnation, wm)

    def _on_slo_alert(self, e: TraceEvent) -> None:
        # kept for the ledger bijection: every alert event must name
        # exactly one breaching slo_check entry (check_ledger_trace)
        self._adaptation_spans.append(e)

    # ------------------------------------------------------------------
    # End-of-trace checks
    # ------------------------------------------------------------------
    def finish(self) -> list[Violation]:
        for state in self._relocations.values():
            self._finish_relocation(state)
        for state in self._recoveries.values():
            self._finish_recovery(state)
        for state in self._repartitions.values():
            self._finish_repartition(state)
        self._finish_spill_cleanup()
        return self.violations

    def _finish_relocation(self, state: _RelocationState) -> None:
        if state.status == "done":
            if state.steps != list(RELOCATION_STEPS):
                self._fail(
                    "relocation-steps",
                    f"relocation span {state.span} completed with step sequence "
                    f"{state.steps}, expected {list(RELOCATION_STEPS)}",
                )
            if state.pauses < 1 or state.pauses != state.flushes:
                self._fail(
                    "pause-flush",
                    f"relocation span {state.span} completed with "
                    f"{state.pauses} pauses / {state.flushes} flushes "
                    f"(expected one flush per pause, at least one host)",
                )
        elif state.pause_handoff:
            # splits were deliberately left paused for recovery to resume;
            # the flush happens inside the recovery session's reroute
            pass
        elif state.pauses != state.flushes:
            # Aborted sessions must still release buffered tuples exactly
            # once per pause (remap-back), or the split leaks its buffer.
            self._fail(
                "pause-flush",
                f"relocation span {state.span} ({state.status or 'unclosed'}) "
                f"paused {state.pauses}x but flushed {state.flushes}x",
            )

    def _finish_recovery(self, state: _RecoveryState) -> None:
        if state.status == "done" and not state.phases:
            self._fail(
                "recovery-phases",
                f"recovery span {state.span} completed without phase events",
            )

    def _finish_repartition(self, state: _RepartitionState) -> None:
        if state.status == "done":
            if state.installs != state.expected_installs:
                self._fail(
                    "repartition-protocol",
                    f"repartition span {state.span} ({state.kind}) completed "
                    f"with installs {sorted(state.installs)}, expected "
                    f"{sorted(state.expected_installs)}",
                )
            if state.retires != state.expected_retires:
                self._fail(
                    "repartition-protocol",
                    f"repartition span {state.span} ({state.kind}) completed "
                    f"with retires {sorted(state.retires)}, expected "
                    f"{sorted(state.expected_retires)}",
                )
            if state.pauses < 1 or state.pauses != state.flushes:
                self._fail(
                    "pause-flush",
                    f"repartition span {state.span} completed with "
                    f"{state.pauses} pauses / {state.flushes} flushes "
                    f"(expected one flush per pause, at least one host)",
                )
        elif state.pause_handoff:
            # the owner died mid-session; the pause buffers are discharged
            # by the recovery session's reroute, not by this session
            pass
        elif state.pauses != state.flushes:
            self._fail(
                "pause-flush",
                f"repartition span {state.span} ({state.status or 'unclosed'})"
                f" paused {state.pauses}x but flushed {state.flushes}x",
            )

    # ------------------------------------------------------------------
    # Check 8: ledger ↔ trace bijection (call after feed())
    # ------------------------------------------------------------------
    def check_ledger(self, entries) -> list[Violation]:
        """Every spill/relocation/repartition span ↔ exactly one executed
        ledger entry,
        and every entry replays to its recorded decision.  ``entries`` are
        :class:`~repro.obs.ledger.DecisionLedger` entries (live or loaded
        from JSONL).  Returns the new violations (also accumulated)."""
        from repro.obs.ledger import check_ledger_trace, verify_replay

        entries = list(entries)
        found = check_ledger_trace(self._adaptation_spans, entries)
        found.extend(verify_replay(entries))
        self.violations.extend(found)
        return found

    def _routing_leaves(self, scope: Scope, pid: int) -> list[int]:
        """Pids a partition's disk bytes resolve to under the final
        routing: itself when unrefined, otherwise the refinement leaves
        its keys re-bucket into during cleanup."""
        while (scope, pid) in self._merge_redirect:
            pid = self._merge_redirect[(scope, pid)]
        children = self._refinement.get((scope, pid))
        if children is None:
            return [pid]
        leaves: list[int] = []
        for child in children:
            leaves.extend(self._routing_leaves(scope, child))
        return leaves

    def _finish_spill_cleanup(self) -> None:
        if not self._cleanup_spans:
            return  # cleanup never ran; nothing to match against
        # a cleanup span covers one deployment; its namespace is that of
        # its merges ("" when it merged nothing)
        ns_of = self._cleanup_ns
        ran = {
            (ns_of.get(span, ""), stage)
            for span, stage in self._cleanup_spans.items()
        }
        handled = set(self._merged)
        handled.update(
            ((ns_of.get(span, ""), stage), pid) for span, stage, pid in self._skips
        )
        for key in sorted(self._spilled):
            scope, pid = key
            if scope not in ran:
                continue
            # an unrefined pid must itself be merged or skipped; a refined
            # one re-buckets into its leaves, and only leaves that received
            # keys surface in cleanup, so any handled leaf discharges it
            if not any(
                (scope, leaf) in handled
                for leaf in self._routing_leaves(scope, pid)
            ):
                self._fail(
                    "spill-cleanup",
                    f"partition {_label(key)} spilled {self._spilled[key]}x "
                    f"but cleanup neither merged nor skipped it",
                )


def check_trace(
    events: Sequence[TraceEvent],
    *,
    ledger_entries: Sequence[dict] | None = None,
) -> list[Violation]:
    """Run every invariant over ``events``; returns the violations found.

    With ``ledger_entries`` (a run's decision-ledger entries) the ledger ↔
    trace bijection and offline decision replay (check 8) run too.
    """
    checker = InvariantChecker()
    checker.feed(events)
    if ledger_entries is not None:
        checker.check_ledger(ledger_entries)
    return checker.finish()

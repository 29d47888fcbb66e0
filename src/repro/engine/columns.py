"""Columnar (structure-of-arrays) batch and partition-group state.

The per-tuple and micro-batched data paths move ``StreamTuple`` objects:
every probe hashes a boxed key, every insert appends an object pointer into
a per-(stream, key) bucket, and every spill/checkpoint re-walks those
buckets.  The columnar path replaces the moving parts with flat parallel
columns:

``ColumnBatch``
    What travels from a source host to an engine: one flat column per
    attribute (pid, stream index, seq, key, ts) for a whole routed batch,
    built once at the source.  Uniform tuple sizes and empty payloads — the
    common case for the paper's benchmarks — collapse to a scalar/``None``
    instead of a column.

``ColumnarPartitionGroup``
    Drop-in replacement for :class:`~repro.engine.partitions.PartitionGroup`
    storing group state as row-major append-only columns plus a per-key
    match-count table ``{key: [count per stream]}``.  The unwindowed
    count-only probe — the hot path — is a dict lookup and an integer
    product; no per-tuple objects are created.  A per-(stream, key) row
    index and a row -> StreamTuple cache are built lazily, only when a
    windowed or materialising probe (or the cleanup oracle) needs them.

``FrozenColumnGroup``
    Immutable snapshot whose payload *is* the column buffers.  Because the
    buffers are append-only, spill, relocation and checkpoint snapshots
    *share* them with the live group and record only a row-count bound —
    zero-copy in the Python sense; just the small in-place-mutated count
    table is copied.  Per-tuple ``StreamTuple`` objects only come back
    into existence at the materialisation boundary: final result emission,
    the cleanup merge and the brute-force oracle, via the lazily built
    ``.data`` view.

Row order within a group is insertion order, which both probe paths respect,
so results and statistics are byte-identical to the row representation.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterator, Mapping, Sequence

from repro.engine.partitions import GROUP_OVERHEAD_BYTES
from repro.engine.tuples import JoinResult, StreamTuple

_OTHERS_CACHE: dict[int, tuple[tuple[int, ...], ...]] = {}


def others_table(m: int) -> tuple[tuple[int, ...], ...]:
    """``others_table(m)[i]`` = the stream indices other than ``i``.

    Shared by the group probes and the state store's batch loop so the
    "product over the other inputs" iteration allocates nothing per row.
    """
    table = _OTHERS_CACHE.get(m)
    if table is None:
        table = tuple(
            tuple(j for j in range(m) if j != i) for i in range(m)
        )
        _OTHERS_CACHE[m] = table
    return table


class ColumnBatch:
    """A routed batch in structure-of-arrays form, pre-grouped by partition.

    One flat column per attribute.  ``sids`` holds the per-row index into
    ``streams`` rather than the stream name, so the probe loop works on
    small ints.  ``sizes``/``payloads`` are ``None`` when all rows share
    one size (``usize``) / have empty payloads.

    The columns are stored *segmented by partition ID*: ``segments`` is
    ``[(pid, start, end), ...]`` in first-occurrence order of the pids,
    and rows of one pid keep their arrival order within their segment.
    Grouping happens here — once, at the source — so the engine's hot loop
    is pure column slices, with no per-row routing work left.  ``perm``
    maps an *arrival-order* row number to its storage index (``None`` when
    storage order already equals arrival order); order-sensitive consumers
    (windowed/materialising probes, :meth:`iter_routed`) go through it.
    """

    __slots__ = ("streams", "pids", "sids", "seqs", "keys", "ts",
                 "sizes", "usize", "payloads", "total_size",
                 "segments", "perm")

    def __init__(self, streams, pids, sids, seqs, keys, ts,
                 sizes, usize, payloads, total_size, segments, perm):
        self.streams = streams
        self.pids = pids
        self.sids = sids
        self.seqs = seqs
        self.keys = keys
        self.ts = ts
        self.sizes = sizes
        self.usize = usize
        self.payloads = payloads
        self.total_size = total_size
        self.segments = segments
        self.perm = perm

    def __len__(self) -> int:
        return len(self.pids)

    @classmethod
    def from_routed(cls, routed, streams: tuple[str, ...]) -> "ColumnBatch":
        """Build a column batch from ``[(pid, StreamTuple), ...]`` rows.

        Arrival order is preserved per partition (probe counts depend on
        the interleaving of inserts within a group) and recoverable across
        the whole batch via ``perm``; segments appear in first-occurrence
        order of the pids, matching the group-creation order a row-by-row
        replay would produce.
        """
        sid_of = {stream: i for i, stream in enumerate(streams)}
        grouped: dict[int, list] = {}
        for entry in enumerate(routed):
            rows = grouped.get(entry[1][0])
            if rows is None:
                grouped[entry[1][0]] = [entry]
            else:
                rows.append(entry)
        n = len(routed)
        pids: list[int] = []
        sids: list[int] = []
        seqs: list[int] = []
        keys: list[int] = []
        tss: list[float] = []
        sizes: list[int] = []
        payloads: list[tuple] = []
        segments: list[tuple[int, int, int]] = []
        perm = [0] * n
        uniform = True
        usize = -1
        any_payload = False
        total = 0
        storage = 0
        in_order = True
        for pid, rows in grouped.items():
            start = storage
            for orig, (__, tup) in rows:
                if orig != storage:
                    in_order = False
                perm[orig] = storage
                storage += 1
                sids.append(sid_of[tup.stream])
                seqs.append(tup.seq)
                keys.append(tup.key)
                tss.append(tup.ts)
                size = tup.size
                sizes.append(size)
                total += size
                if usize < 0:
                    usize = size
                elif size != usize:
                    uniform = False
                if tup.payload:
                    any_payload = True
                    payloads.append(tup.payload)
                else:
                    payloads.append(())
            pids.extend([pid] * (storage - start))
            segments.append((pid, start, storage))
        return cls(
            streams=streams,
            pids=pids,
            sids=sids,
            seqs=seqs,
            keys=keys,
            ts=tss,
            sizes=None if uniform else sizes,
            usize=usize if uniform else -1,
            payloads=payloads if any_payload else None,
            total_size=total,
            segments=segments,
            perm=None if in_order else perm,
        )

    def storage_row(self, row: int) -> int:
        """Storage index of the ``row``-th tuple in arrival order."""
        perm = self.perm
        return row if perm is None else perm[row]

    def tuple_at(self, row: int) -> StreamTuple:
        """Materialise the ``row``-th tuple in arrival order."""
        st = self.perm[row] if self.perm is not None else row
        sizes = self.sizes
        payloads = self.payloads
        return StreamTuple(
            stream=self.streams[self.sids[st]],
            seq=self.seqs[st],
            key=self.keys[st],
            ts=self.ts[st],
            size=sizes[st] if sizes is not None else self.usize,
            payload=payloads[st] if payloads is not None else (),
        )

    def iter_routed(self) -> Iterator[tuple[int, StreamTuple]]:
        """Materialise back into ``(pid, tuple)`` rows, in arrival order."""
        perm = self.perm
        for row in range(len(self.pids)):
            st = perm[row] if perm is not None else row
            yield self.pids[st], self.tuple_at(row)


class ColumnarPartitionGroup:
    """Columnar live state of one partition ID across all join inputs.

    Same interface and observable behaviour as
    :class:`~repro.engine.partitions.PartitionGroup`; the storage is
    row-major append-only columns (``row_sid``/``row_seq``/``row_key``/
    ``row_ts`` plus optional ``row_size``/``row_payload``) and a per-key
    count table ``_counts[key][sid]`` that makes the unwindowed count-only
    probe O(m) with no tuple objects.
    """

    __slots__ = (
        "pid",
        "streams",
        "generation",
        "created_at",
        "size_bytes",
        "tuple_count",
        "output_count",
        "row_sid",
        "row_seq",
        "row_key",
        "row_ts",
        "row_size",
        "row_payload",
        "_usize",
        "_counts",
        "_chunks",
        "_index",
        "_mat",
        "_sid_of",
        "_others",
    )

    def __init__(
        self,
        pid: int,
        streams: tuple[str, ...],
        *,
        generation: int = 0,
        created_at: float = 0.0,
    ) -> None:
        if len(streams) < 2:
            raise ValueError("a partition group needs at least two input streams")
        if len(set(streams)) != len(streams):
            raise ValueError(f"duplicate stream names in {streams!r}")
        self.pid = pid
        self.streams = streams
        self.generation = generation
        self.created_at = created_at
        self.size_bytes = GROUP_OVERHEAD_BYTES
        self.tuple_count = 0
        self.output_count = 0
        self.row_sid: list[int] = []
        self.row_seq: list[int] = []
        self.row_key: list[int] = []
        self.row_ts: list[float] = []
        #: Per-row sizes, or ``None`` while every row shares ``_usize``.
        self.row_size: list[int] | None = None
        self._usize = -1
        #: Per-row payloads, or ``None`` while every payload is empty.
        self.row_payload: list[tuple] | None = None
        self._counts: dict[int, list[int]] = {}
        #: Deferred column chunks from the batched hot path; see
        #: :meth:`_consolidate`.
        self._chunks: list[tuple] = []
        #: Lazy per-stream ``{key: [row, ...]}`` index (insertion order).
        self._index: list[dict[int, list[int]]] | None = None
        #: Lazy row -> StreamTuple materialisation cache.
        self._mat: dict[int, StreamTuple] = {}
        self._sid_of = {stream: i for i, stream in enumerate(streams)}
        self._others = others_table(len(streams))

    # ------------------------------------------------------------------
    # State mutation
    # ------------------------------------------------------------------
    def _require_sid(self, stream: str) -> int:
        try:
            return self._sid_of[stream]
        except KeyError:
            raise KeyError(
                f"partition group {self.pid}: unknown stream {stream!r} "
                f"(expected one of {self.streams!r})"
            ) from None

    def _consolidate(self) -> None:
        """Flush deferred column chunks into the row buffers.

        The batched hot path (:meth:`StateStore.probe_insert_columns
        <repro.engine.state_store.StateStore.probe_insert_columns>`)
        appends one ``(sids, seqs, keys, tss, start, end, usize)`` chunk
        reference per batch segment instead of extending the four row
        buffers — the count table, statistics and memory accounting stay
        eager, so the count-only probe never needs the rows themselves.
        The first reader that does (index build, materialisation, purge,
        freeze, a per-row insert) splices the pending chunks in here, in
        insertion order, making the deferral invisible.
        """
        chunks = self._chunks
        if not chunks:
            return
        row_sid = self.row_sid
        row_seq = self.row_seq
        row_key = self.row_key
        row_ts = self.row_ts
        rs = self.row_size
        rp = self.row_payload
        index = self._index
        for sids, seqs, keys, tss, start, end, usize in chunks:
            base = len(row_sid)
            row_sid.extend(sids[start:end])
            row_seq.extend(seqs[start:end])
            row_key.extend(keys[start:end])
            row_ts.extend(tss[start:end])
            n = end - start
            if rs is not None:
                rs.extend([usize] * n)
            if rp is not None:
                rp.extend([()] * n)
            if index is not None:
                for off in range(n):
                    i = start + off
                    bucket = index[sids[i]].get(keys[i])
                    if bucket is None:
                        index[sids[i]][keys[i]] = [base + off]
                    else:
                        bucket.append(base + off)
        del chunks[:]

    def promote_sizes(self) -> list[int]:
        """Switch from the uniform-size scalar to an explicit size column."""
        if self._chunks:
            self._consolidate()
        rs = self.row_size
        if rs is None:
            usize = self._usize if self._usize >= 0 else 0
            self.row_size = rs = [usize] * len(self.row_sid)
        return rs

    def promote_payloads(self) -> list[tuple]:
        """Switch from implicit empty payloads to an explicit column."""
        if self._chunks:
            self._consolidate()
        rp = self.row_payload
        if rp is None:
            self.row_payload = rp = [()] * len(self.row_sid)
        return rp

    def insert_cols(self, sid: int, seq: int, key: int, ts: float,
                    size: int, payload: tuple) -> None:
        """Append one row given already-decomposed attribute values."""
        if self._chunks:
            self._consolidate()
        self.row_sid.append(sid)
        self.row_seq.append(seq)
        self.row_key.append(key)
        self.row_ts.append(ts)
        rs = self.row_size
        if rs is not None:
            rs.append(size)
        elif self._usize < 0:
            self._usize = size
        elif size != self._usize:
            rs = [self._usize] * (len(self.row_sid) - 1)
            rs.append(size)
            self.row_size = rs
        rp = self.row_payload
        if rp is not None:
            rp.append(payload)
        elif payload:
            rp = [()] * (len(self.row_sid) - 1)
            rp.append(payload)
            self.row_payload = rp
        c = self._counts.get(key)
        if c is None:
            self._counts[key] = c = [0] * len(self.streams)
        c[sid] += 1
        index = self._index
        if index is not None:
            bucket = index[sid].get(key)
            if bucket is None:
                index[sid][key] = [len(self.row_sid) - 1]
            else:
                bucket.append(len(self.row_sid) - 1)
        self.tuple_count += 1
        self.size_bytes += size

    def insert(self, tup: StreamTuple) -> None:
        """Add a tuple to its input's columns within this group."""
        sid = self._require_sid(tup.stream)
        self.insert_cols(sid, tup.seq, tup.key, tup.ts, tup.size, tup.payload)

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def _ensure_index(self) -> list[dict[int, list[int]]]:
        if self._chunks:
            self._consolidate()
        index = self._index
        if index is None:
            index = [dict() for _ in self.streams]
            for row, (sid, key) in enumerate(zip(self.row_sid, self.row_key)):
                bucket = index[sid].get(key)
                if bucket is None:
                    index[sid][key] = [row]
                else:
                    bucket.append(row)
            self._index = index
        return index

    def tuple_at(self, row: int) -> StreamTuple:
        """Materialise (and cache) the tuple stored at ``row``."""
        if self._chunks:
            self._consolidate()
        tup = self._mat.get(row)
        if tup is None:
            rs = self.row_size
            rp = self.row_payload
            tup = StreamTuple(
                stream=self.streams[self.row_sid[row]],
                seq=self.row_seq[row],
                key=self.row_key[row],
                ts=self.row_ts[row],
                size=rs[row] if rs is not None else self._usize,
                payload=rp[row] if rp is not None else (),
            )
            self._mat[row] = tup
        return tup

    def probe(self, tup: StreamTuple, *, materialize: bool = False
              ) -> tuple[int, list[JoinResult]]:
        """Count (and optionally materialise) matches; see
        :meth:`PartitionGroup.probe <repro.engine.partitions.PartitionGroup.probe>`.
        """
        sid = self._require_sid(tup.stream)
        if not materialize:
            c = self._counts.get(tup.key)
            if c is None:
                return 0, []
            count = 1
            for j in self._others[sid]:
                n = c[j]
                if not n:
                    return 0, []
                count *= n
            return count, []
        index = self._ensure_index()
        # the trigger sits in its own stream's slot, so product() yields
        # complete parts tuples in join-input order
        match_lists: list[Sequence[StreamTuple]] = []
        count = 1
        for j in range(len(self.streams)):
            if j == sid:
                match_lists.append((tup,))
                continue
            bucket = index[j].get(tup.key)
            if not bucket:
                return 0, []
            count *= len(bucket)
            match_lists.append([self.tuple_at(r) for r in bucket])
        key, ts = tup.key, tup.ts
        return count, [JoinResult(key, parts, ts) for parts in product(*match_lists)]

    def probe_windowed_count(self, sid: int, key: int, ts: float,
                             window: float) -> int:
        """Count-only windowed probe over raw columns (no tuple objects)."""
        c = self._counts.get(key)
        if c is None:
            return 0
        others = self._others[sid]
        for j in others:
            if not c[j]:
                return 0
        index = self._ensure_index()
        row_ts = self.row_ts
        cand_ts: list[list[float]] = []
        for j in others:
            bucket = index[j].get(key)
            if not bucket:
                return 0
            cands = [row_ts[r] for r in bucket if abs(row_ts[r] - ts) <= window]
            if not cands:
                return 0
            cand_ts.append(cands)
        count = 0
        for combo in product(*cand_ts):
            lo = min(combo)
            hi = max(combo)
            if ts < lo:
                lo = ts
            elif ts > hi:
                hi = ts
            if hi - lo <= window:
                count += 1
        return count

    def probe_windowed(
        self, tup: StreamTuple, window: float, *, materialize: bool = False
    ) -> tuple[int, list[JoinResult]]:
        """Window-filtered probe; see
        :meth:`PartitionGroup.probe_windowed
        <repro.engine.partitions.PartitionGroup.probe_windowed>`.
        """
        sid = self._require_sid(tup.stream)
        if not materialize:
            return self.probe_windowed_count(sid, tup.key, tup.ts, window), []
        c = self._counts.get(tup.key)
        if c is None:
            return 0, []
        for j in self._others[sid]:
            if not c[j]:
                return 0, []
        index = self._ensure_index()
        row_ts = self.row_ts
        cand_rows: list[list[int]] = []
        for j in self._others[sid]:
            bucket = index[j].get(tup.key)
            if not bucket:
                return 0, []
            cands = [r for r in bucket if abs(row_ts[r] - tup.ts) <= window]
            if not cands:
                return 0, []
            cand_rows.append(cands)
        count = 0
        results: list[JoinResult] = []
        for combo in product(*cand_rows):
            ts_values = [row_ts[r] for r in combo]
            ts_values.append(tup.ts)
            if max(ts_values) - min(ts_values) > window:
                continue
            count += 1
            parts = [self.tuple_at(r) for r in combo]
            parts.insert(sid, tup)
            results.append(JoinResult(key=tup.key, parts=tuple(parts), ts=tup.ts))
        return count, results

    def record_output(self, count: int) -> None:
        """Credit ``count`` produced results to this group's statistics."""
        if count < 0:
            raise ValueError(f"negative output count {count!r}")
        self.output_count += count

    def purge_older_than(self, horizon: float) -> tuple[int, int]:
        """Drop every row with ``ts < horizon``; returns
        ``(tuples_dropped, bytes_freed)``.  Statistics arithmetic matches
        :meth:`PartitionGroup.purge_older_than
        <repro.engine.partitions.PartitionGroup.purge_older_than>` exactly.
        """
        if self._chunks:
            self._consolidate()
        row_ts = self.row_ts
        n = len(row_ts)
        keep = [row for row in range(n) if row_ts[row] >= horizon]
        dropped = n - len(keep)
        if not dropped:
            return 0, 0
        rs = self.row_size
        if rs is None:
            freed = dropped * (self._usize if self._usize >= 0 else 0)
        else:
            freed = sum(rs[row] for row in range(n) if row_ts[row] < horizon)
            self.row_size = [rs[row] for row in keep]
        self.row_sid = [self.row_sid[row] for row in keep]
        self.row_seq = [self.row_seq[row] for row in keep]
        self.row_key = [self.row_key[row] for row in keep]
        self.row_ts = [row_ts[row] for row in keep]
        rp = self.row_payload
        if rp is not None:
            self.row_payload = [rp[row] for row in keep]
        counts: dict[int, list[int]] = {}
        m = len(self.streams)
        for sid, key in zip(self.row_sid, self.row_key):
            c = counts.get(key)
            if c is None:
                counts[key] = c = [0] * m
            c[sid] += 1
        self._counts = counts
        self._index = None
        self._mat = {}
        payload_before = self.size_bytes - GROUP_OVERHEAD_BYTES
        self.tuple_count -= dropped
        self.size_bytes -= freed
        payload_after = self.size_bytes - GROUP_OVERHEAD_BYTES
        if payload_before > 0:
            self.output_count = (
                self.output_count * max(payload_after, 0) // payload_before
            )
        return dropped, freed

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def productivity(self) -> float:
        payload = self.size_bytes - GROUP_OVERHEAD_BYTES
        if payload <= 0:
            return math.inf
        return self.output_count / payload

    def tuples_of(self, stream: str) -> Iterator[StreamTuple]:
        """Iterate this group's tuples of one input stream (row order)."""
        if self._chunks:
            self._consolidate()
        sid = self._require_sid(stream)
        row_sid = self.row_sid
        for row in range(len(row_sid)):
            if row_sid[row] == sid:
                yield self.tuple_at(row)

    def keys_of(self, stream: str) -> tuple[int, ...]:
        sid = self._require_sid(stream)
        return tuple(self._ensure_index()[sid])

    @property
    def is_empty(self) -> bool:
        return self.tuple_count == 0

    # ------------------------------------------------------------------
    # Snapshotting (spill / relocation / checkpoint payloads)
    # ------------------------------------------------------------------
    def freeze(self, *, share: bool = False) -> "FrozenColumnGroup":
        """Snapshot the column buffers without copying them.

        The columns are append-only: live mutation either appends past the
        current length or (purge) swaps in replacement lists.  A snapshot
        can therefore *share* the live buffers and record only the row
        count at freeze time — later appends land beyond that bound and
        stay invisible to the snapshot, and a purge leaves the snapshot
        holding the superseded lists.  Checkpoints and ``state_of`` get
        O(keys) snapshots (only the in-place-mutated count table is
        copied); evict (``share=True``, the live group is discarded
        immediately after) additionally keeps the count table itself.
        """
        if self._chunks:
            self._consolidate()
        return FrozenColumnGroup(
            pid=self.pid,
            streams=self.streams,
            generation=self.generation,
            size_bytes=self.size_bytes,
            tuple_count=self.tuple_count,
            output_count=self.output_count,
            nrows=len(self.row_sid),
            row_sid=self.row_sid,
            row_seq=self.row_seq,
            row_key=self.row_key,
            row_ts=self.row_ts,
            row_size=self.row_size,
            usize=self._usize,
            row_payload=self.row_payload,
            counts=(self._counts if share
                    else {key: c[:] for key, c in self._counts.items()}),
        )

    @classmethod
    def thaw(cls, frozen, *, created_at: float = 0.0
             ) -> "ColumnarPartitionGroup":
        """Rebuild a live group from a snapshot.

        Columnar snapshots thaw by copying the column buffers; row-format
        :class:`~repro.engine.partitions.FrozenPartitionGroup` snapshots
        (cross-representation installs) fall back to per-tuple inserts.
        """
        group = cls(frozen.pid, frozen.streams, generation=frozen.generation,
                    created_at=created_at)
        if isinstance(frozen, FrozenColumnGroup):
            # bounded copies: the frozen view may share (longer) buffers
            # with a still-appending live group
            end = frozen.nrows
            group.row_sid = frozen.row_sid[:end]
            group.row_seq = frozen.row_seq[:end]
            group.row_key = frozen.row_key[:end]
            group.row_ts = frozen.row_ts[:end]
            group.row_size = (None if frozen.row_size is None
                              else frozen.row_size[:end])
            group._usize = frozen.usize
            group.row_payload = (None if frozen.row_payload is None
                                 else frozen.row_payload[:end])
            group._counts = {key: list(c) for key, c in frozen.counts.items()}
        else:
            for stream in frozen.streams:
                for tup in frozen.tuples_of(stream):
                    group.insert(tup)
        group.tuple_count = frozen.tuple_count
        group.size_bytes = frozen.size_bytes
        group.output_count = frozen.output_count
        return group

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarPartitionGroup(pid={self.pid}, gen={self.generation}, "
            f"tuples={self.tuple_count}, out={self.output_count}, "
            f"{self.size_bytes}B)"
        )


class FrozenColumnGroup:
    """Immutable columnar snapshot of a partition group.

    The payload is the raw column buffers; serialization paths (spill
    segments, relocation transfers, checkpoint snapshots) carry these lists
    as-is.  The buffers may be *shared* with a live group that keeps
    appending — ``nrows`` records the snapshot's row-count bound, and every
    reader stays below it (appends are the only in-place buffer mutation;
    purge swaps in replacement lists, leaving the snapshot intact).
    ``.data`` lazily materialises the row-format bucket view —
    ``{stream: {key: (StreamTuple, ...)}}`` — for the cleanup merge and for
    cross-representation thaws; nothing on the spill/checkpoint write path
    touches it.
    """

    __slots__ = ("pid", "streams", "generation", "size_bytes", "tuple_count",
                 "output_count", "nrows", "row_sid", "row_seq", "row_key",
                 "row_ts", "row_size", "usize", "row_payload", "counts",
                 "_data")

    def __init__(self, *, pid, streams, generation, size_bytes, tuple_count,
                 output_count, nrows, row_sid, row_seq, row_key, row_ts,
                 row_size, usize, row_payload, counts):
        self.pid = pid
        self.streams = streams
        self.generation = generation
        self.size_bytes = size_bytes
        self.tuple_count = tuple_count
        self.output_count = output_count
        self.nrows = nrows
        self.row_sid = row_sid
        self.row_seq = row_seq
        self.row_key = row_key
        self.row_ts = row_ts
        self.row_size = row_size
        self.usize = usize
        self.row_payload = row_payload
        self.counts = counts
        self._data: Mapping[str, Mapping[int, tuple[StreamTuple, ...]]] | None = None

    def idents(self) -> frozenset[tuple[str, int]]:
        """Global ``(stream, seq)`` identities — straight off the columns."""
        streams = self.streams
        row_sid = self.row_sid
        row_seq = self.row_seq
        return frozenset(
            (streams[row_sid[row]], row_seq[row]) for row in range(self.nrows)
        )

    def key_counts(self, stream: str) -> dict[int, int]:
        """``{key: tuple count}`` for one input — from the count table."""
        sid = self.streams.index(stream)
        return {key: c[sid] for key, c in self.counts.items() if c[sid]}

    def keys(self) -> set[int]:
        """All join-key values present in any input of this snapshot."""
        return set(self.counts)

    def tuple_at(self, row: int) -> StreamTuple:
        rs = self.row_size
        rp = self.row_payload
        return StreamTuple(
            stream=self.streams[self.row_sid[row]],
            seq=self.row_seq[row],
            key=self.row_key[row],
            ts=self.row_ts[row],
            size=rs[row] if rs is not None else self.usize,
            payload=rp[row] if rp is not None else (),
        )

    def tuples_of(self, stream: str) -> Iterator[StreamTuple]:
        sid = self.streams.index(stream)
        row_sid = self.row_sid
        for row in range(self.nrows):
            if row_sid[row] == sid:
                yield self.tuple_at(row)

    @property
    def data(self) -> Mapping[str, Mapping[int, tuple[StreamTuple, ...]]]:
        """Row-format bucket view (the materialisation boundary).

        Built lazily on first access and cached; bucket order is row
        (insertion) order, matching what replaying the same inserts through
        a row-format group would produce.
        """
        view = self._data
        if view is None:
            tmp: dict[str, dict[int, list[StreamTuple]]] = {
                stream: {} for stream in self.streams
            }
            streams = self.streams
            row_key = self.row_key
            row_sid = self.row_sid
            for row in range(self.nrows):
                sid = row_sid[row]
                table = tmp[streams[sid]]
                key = row_key[row]
                bucket = table.get(key)
                if bucket is None:
                    table[key] = [self.tuple_at(row)]
                else:
                    bucket.append(self.tuple_at(row))
            view = {
                stream: {key: tuple(bucket) for key, bucket in table.items()}
                for stream, table in tmp.items()
            }
            self._data = view
        return view

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrozenColumnGroup(pid={self.pid}, gen={self.generation}, "
            f"tuples={self.tuple_count}, {self.size_bytes}B)"
        )

"""Vectorized numpy bulk kernel: whole-frontier restricted BFS on CSR arrays.

The pooled python kernel of :mod:`repro.core.csr` removed per-call
allocation from restricted searches but still pays CPython's per-arc
interpretation cost: one ``for`` iteration, one stamp compare and one
list store per scanned arc.  This module trades that loop for
*level-synchronous bulk expansion*: each BFS level is processed as one
batch of :mod:`numpy` array operations over the snapshot's flat
``indptr``/``nbr``/``arc_eid`` storage, so the per-arc cost drops to a
handful of SIMD-friendly gathers and boolean masks regardless of how
many arcs the frontier touches.

**Bulk expansion.**  For a frontier ``f`` (an ``int32`` vertex array in
lex-rank order) the kernel gathers every outgoing arc slot in one shot::

    starts = indptr[f]; counts = indptr[f + 1] - starts
    pos    = arange(total) + repeat(starts - (cumsum(counts) - counts), counts)
    targets, eids = nbr[pos], arc_eid[pos]

bans and already-visited vertices are removed with boolean masks over
the whole batch (``visit[targets] != gen``, ``eban[eids] != ban_gen``,
``vban[targets] != ban_gen``) — the same generation-stamp discipline as
the python kernel, stamped per fault set in O(|F|) scatter stores.

**Bit-identical lex tie-breaking.**  The python kernel's FIFO BFS over
sorted adjacency keeps the *first discoverer* as the canonical parent,
which is exactly the lex-minimal assignment (see :mod:`repro.core.csr`).
The bulk kernel reproduces it exactly: the surviving ``(arc, target)``
batch is already ordered by ``(frontier position, adjacency rank)`` —
i.e. by lex rank of the discovering path — so a *stable first-occurrence
reduction* over the batch selects, for every newly discovered vertex,
the same minimum-rank discoverer the FIFO queue would.  The reduction is
a sort-free scatter (reverse-order position stores, so the earliest
claim wins)::

    firstpos[targets[::-1]] = arange(k)[::-1]   # first claim survives
    is_first = firstpos[targets] == arange(k)   # stable argmin per target

and the next frontier ``targets[is_first]`` comes out in discovery
order, which is the next level's lex-rank order.  Distances and parents
are therefore bit-identical to both ``LexShortestPaths`` and
``CSRLexShortestPaths`` (asserted by ``tests/test_csr_equivalence.py``).

**Hybrid dispatch.**  Vectorization has per-level fixed costs (a dozen
small array ops), so on small graphs the python kernel wins.  Below
``REPRO_BULK_MIN_N`` vertices (default ``512``, the empirical
crossover) the kernel transparently delegates every call to the shared
CSR kernel of the same snapshot (whose searches run in C whenever the
C kernel loads) — results are identical either way, so the switch is
purely a performance decision.

**C kernel tier.**  The two batch entry points —
:meth:`BulkCSRKernel.multi_pair_dists` and
:meth:`BulkCSRKernel.multi_target_dists` — additionally dispatch to
the compiled C kernel of :mod:`repro.core.ckernel` when it is
available and ``REPRO_C_KERNEL`` allows (``auto``/``on``/``off``):
the C tier runs the same searches over the same flat arrays with zero
per-round dispatch cost, which is what closes the gap on shallow
expander workloads where the lock-step numpy waves finish in 2-3
rounds (see ``docs/kernels.md`` for the full ladder).  Results are
bit-identical across all tiers; :attr:`BulkCSRKernel.dispatch_stats`
records which tier actually served each batch.

The kernel is cached per CSR snapshot via :func:`bulk_of` (and thereby
per graph version), so the ``lex-bulk`` engine, the bulk distance
oracle and the builders above them share one set of scratch arrays, the
same sharing discipline as :func:`repro.core.csr.csr_of`.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.csr import CSRGraph, UNREACHED, csr_of
from repro.core.csr import kernel_dispatch_stats  # noqa: F401 (re-export)
from repro.core.ckernel import (
    CKernel,
    c_kernel_mode,
    load_c_library,
    plan_c_threads,
)
from repro.core.graph import Graph

#: Below this vertex count the python kernel is faster and the bulk
#: kernel delegates to it wholesale (override: ``REPRO_BULK_MIN_N``).
DEFAULT_MIN_BULK_N = 512

#: Sentinel distance meaning "the lock-step chunk handed this query
#: back for scalar execution" (never escapes multi_pair_dists).
_CUTOVER = -3


def _min_bulk_n() -> int:
    try:
        return int(os.environ.get("REPRO_BULK_MIN_N", DEFAULT_MIN_BULK_N))
    except ValueError:
        return DEFAULT_MIN_BULK_N


def bulk_of(graph: Graph) -> "BulkCSRKernel":
    """The (cached) bulk kernel of ``graph``'s current CSR snapshot.

    Cached on the snapshot itself, so graph mutation (which invalidates
    the snapshot via :func:`repro.core.csr.csr_of`) invalidates the bulk
    kernel with it, and every consumer of one graph shares one kernel.
    """
    csr = csr_of(graph)
    kernel = csr._bulk
    if kernel is None:
        kernel = BulkCSRKernel(csr)
        csr._bulk = kernel
    return kernel


class BulkCSRKernel:
    """Level-synchronous numpy BFS over a CSR snapshot's flat arrays.

    Exposes the same restricted-search surface as the python kernel —
    :meth:`stamp_bans` / :meth:`stamp_edge_ids` / :meth:`source_banned`,
    :meth:`bfs` / :meth:`bfs_dists` / :meth:`multi_source_dists`, and
    the :meth:`collect` / :meth:`distances_list` / :meth:`last_distance`
    readout — so engines and oracles can hold either kernel behind one
    call shape.  See the module docstring for the expansion algorithm
    and the bit-identity argument.
    """

    #: A level whose frontier owns at most this many arcs is expanded by
    #: a scalar python loop over the snapshot's iteration views instead
    #: of the vectorized pipeline — numpy's per-call dispatch costs more
    #: than scanning a handful of arcs (source levels and the sparse
    #: tails of targeted searches live here).  Semantics are identical:
    #: the loop is exactly the FIFO first-discoverer scan.
    SMALL_LEVEL_ARCS = 24

    __slots__ = (
        "csr",
        "n",
        "m",
        "eid_cap",
        "vectorized",
        "_indptr",
        "_indptr1",
        "_ipl",
        "_nbr",
        "_arc_eid",
        "_arc_src",
        "_arange",
        "_visit",
        "_dist",
        "_parent",
        "_firstpos",
        "_vban",
        "_eban",
        "_gen",
        "_ban_gen",
        # Pooled multi-pair chunk tables (lazy; see _multi_pair_chunk).
        "_mp_visit",
        "_mp_dist",
        "_mp_last",
        "_mp_eban",
        "_mp_vban",
        # Pooled unified label table (lazy; see _multi_pair_chunk_compact).
        "_mp_label",
        "_mp_dirty",
        # C kernel tier (lazy; see _ckernel) + last stamped restriction
        # (so the C sweep path can re-stamp its own tables) + per-tier
        # dispatch counters (what `repro bench` reports as the kernel
        # tier that actually served each arm).
        "_ck",
        "_ck_failed",
        "_last_stamp",
        "dispatch_stats",
    )

    def __init__(self, csr: CSRGraph, min_bulk_n: Optional[int] = None) -> None:
        self.csr = csr
        n = csr.n
        self.n = n
        self.m = csr.m
        # Edge-id address bound: >= m on patched (delta) snapshots,
        # where deleted ids leave holes; every per-eid table/stride
        # below must use this, not m (see repro.core.csr).
        self.eid_cap = csr.eid_cap
        threshold = _min_bulk_n() if min_bulk_n is None else min_bulk_n
        self.vectorized = n >= threshold
        self._ck = None
        self._ck_failed = False
        self._last_stamp = None
        #: Which kernel tier actually answered each batch entry point
        #: (auto-dispatch is otherwise invisible); queries/targets are
        #: counted, not calls.  Read/reset via ``kernel_dispatch_stats``.
        self.dispatch_stats = {
            "pairs_c": 0,
            "pairs_c_mt": 0,
            # thread index -> pairs served by that thread under the
            # strided multi-pair split (observability for the
            # interleaved assignment; sums to pairs_c_mt).
            "pairs_c_mt_threads": {},
            "pairs_dense": 0,
            "pairs_compact": 0,
            "pairs_cutover": 0,
            "sweeps_c": 0,
            "sweeps_numpy": 0,
        }
        if not self.vectorized:
            return
        # Flat topology as numpy views/copies.  ``indptr`` stays int64
        # (it indexes arc slots); vertices, edge ids and the per-arc
        # source table are int32 frontier currency.
        self._indptr = np.asarray(csr.indptr, dtype=np.int64)
        self._indptr1 = self._indptr[1:]  # ends view: take() without +1
        self._ipl = csr.indptr  # array('q'): cheap python-int scalar reads
        self._nbr = np.asarray(csr.nbr, dtype=np.int32)
        self._arc_eid = np.asarray(csr.arc_eid, dtype=np.int32)
        # arc_src[p] = the vertex owning arc slot p; lets parent
        # extraction skip a repeat() over the frontier.
        self._arc_src = np.repeat(
            np.arange(n, dtype=np.int32), np.diff(self._indptr)
        )
        self._arange = np.arange(max(len(self._nbr), n, 1), dtype=np.int64)
        # Stamped scratch, one allocation per snapshot (python-kernel
        # pooling invariants 1-3 apply unchanged).
        self._visit = np.full(n, UNREACHED, dtype=np.int64)
        self._dist = np.zeros(n, dtype=np.int32)
        self._parent = np.zeros(n, dtype=np.int32)
        self._firstpos = np.zeros(n, dtype=np.int64)
        self._vban = np.full(n, UNREACHED, dtype=np.int64)
        self._eban = np.full(max(self.eid_cap, 1), UNREACHED, dtype=np.int64)
        self._gen = 0
        self._ban_gen = 0
        self._mp_visit = None
        self._mp_dist = None
        self._mp_last = None
        self._mp_eban = None
        self._mp_vban = None
        self._mp_label = None
        self._mp_dirty = None

    # ------------------------------------------------------------------
    # restriction stamping (same contract as CSRGraph)
    # ------------------------------------------------------------------
    def resolve_edge_ids(self, banned_edges: Iterable[Sequence[int]]) -> List[int]:
        """Dense edge ids for edge-like pairs (unknown edges dropped)."""
        return self.csr.resolve_edge_ids(banned_edges)

    def stamp_bans(
        self,
        banned_edges: Iterable[Sequence[int]] = (),
        banned_vertices: Iterable[int] = (),
    ) -> Tuple[int, bool, bool]:
        """Stamp a restriction; returns ``(ban_gen, any_edges, any_vertices)``."""
        return self.stamp_edge_ids(
            self.csr.resolve_edge_ids(banned_edges), banned_vertices
        )

    def stamp_edge_ids(
        self, edge_ids: Iterable[int], vertices: Iterable[int]
    ) -> Tuple[int, bool, bool]:
        """Like :meth:`stamp_bans` but from pre-resolved edge ids."""
        if not self.vectorized:
            return self.csr.stamp_edge_ids(edge_ids, vertices)
        bg = self._ban_gen + 1
        self._ban_gen = bg
        eids = edge_ids if isinstance(edge_ids, list) else list(edge_ids)
        verts = vertices if isinstance(vertices, list) else list(vertices)
        # Fault sets are almost always tiny; scalar stores beat a fancy
        # scatter's set-up cost there.
        if eids:
            if len(eids) <= 8:
                eban = self._eban
                for i in eids:
                    eban[i] = bg
            else:
                self._eban[eids] = bg
        if verts:
            if len(verts) <= 8:
                vban = self._vban
                for v in verts:
                    vban[v] = bg
            else:
                self._vban[verts] = bg
        # Remember the raw restriction behind this stamp: the C sweep
        # path re-stamps its own tables from it (the numpy stamp is a
        # representation detail the C tier cannot read).
        self._last_stamp = (bg, eids, verts)
        return bg, bool(eids), bool(verts)

    def source_banned(self, source: int, ban: Tuple[int, bool, bool]) -> bool:
        """True iff ``source`` is vertex-banned under the given stamp."""
        if not self.vectorized:
            return self.csr.source_banned(source, ban)
        bg, _, have_v = ban
        return have_v and self._vban[source] == bg

    # ------------------------------------------------------------------
    # C kernel tier dispatch
    # ------------------------------------------------------------------
    def _ckernel(self) -> Optional[CKernel]:
        """The compiled C kernel serving this snapshot, or ``None``.

        ``REPRO_C_KERNEL`` dispatch: ``off`` always returns ``None``,
        ``auto`` (default) returns the kernel when the library loads
        and ``None`` otherwise, ``on`` raises on load failure instead
        of degrading (the CI tier guard).  The mode is re-read per call
        (benchmark arms flip it between timed runs on one cached
        kernel); the load attempt and the per-snapshot scratch are
        resolved once.
        """
        mode = c_kernel_mode()
        if mode == "off" or not self.vectorized:
            return None
        ck = self._ck
        if ck is None:
            if self._ck_failed and mode != "on":
                return None
            lib, detail = load_c_library()
            if lib is None:
                self._ck_failed = True
                if mode == "on":
                    raise RuntimeError(
                        f"REPRO_C_KERNEL=on but the C kernel is "
                        f"unavailable: {detail}"
                    )
                return None
            ck = CKernel(
                lib, self.n, self.eid_cap, self._indptr, self._nbr, self._arc_eid
            )
            self._ck = ck
        return ck

    @property
    def c_active(self) -> bool:
        """True when batch entry points currently dispatch to C."""
        return self._ckernel() is not None

    # ------------------------------------------------------------------
    # the bulk kernel
    # ------------------------------------------------------------------
    def _expand_small(
        self, frontier_list: List[int], ban: Tuple[int, bool, bool],
        level: int, parents: bool,
    ) -> np.ndarray:
        """Scalar expansion of a tiny level (see ``SMALL_LEVEL_ARCS``).

        Exactly the FIFO first-discoverer scan of the python kernel,
        writing into the numpy scratch — byte-identical outcome to the
        vectorized path, chosen purely on cost.
        """
        bg, have_e, have_v = ban
        gen = self._gen
        visit = self._visit
        dist = self._dist
        parent = self._parent
        vban = self._vban
        eban = self._eban
        arcs = self.csr.arcs
        nxt: List[int] = []
        push = nxt.append
        for u in frontier_list:
            for w, e in arcs[u]:
                if visit[w] == gen:
                    continue
                if have_e and eban[e] == bg:
                    continue
                if have_v and vban[w] == bg:
                    continue
                visit[w] = gen
                dist[w] = level
                if parents:
                    parent[w] = u
                push(w)
        return np.array(nxt, dtype=np.int32)

    def _expand(
        self, frontier: np.ndarray, ban: Tuple[int, bool, bool], level: int,
        parents: bool,
    ) -> np.ndarray:
        """One bulk BFS level: all arcs out of ``frontier`` in one batch.

        Returns the next frontier in discovery (= lex-rank) order;
        stamps ``_visit``/``_dist`` (and ``_parent`` when ``parents``)
        for the discovered vertices.  Tiny levels take the scalar path
        (`_expand_small`); everything below leans on ndarray *methods*
        (``take``/``compress``/in-place arithmetic) because the generic
        :mod:`numpy` wrappers cost real dispatch time at this call rate.
        """
        bg, have_e, have_v = ban
        small = self.SMALL_LEVEL_ARCS
        if frontier.size <= small:
            fl = frontier.tolist()
            ipl = self._ipl
            total = 0
            for u in fl:
                total += ipl[u + 1] - ipl[u]
            if total <= small:
                return self._expand_small(fl, ban, level, parents)
        indptr = self._indptr
        starts = indptr.take(frontier)
        counts = self._indptr1.take(frontier)
        counts -= starts
        total = int(counts.sum())
        if total == 0:
            return frontier[:0]
        # pos = arange(total) + repeat(starts - (cumsum(counts) - counts))
        cum = counts.cumsum()
        np.subtract(starts, cum, out=starts)
        starts += counts
        pos = starts.repeat(counts)
        pos += self._arange[:total]
        targets = self._nbr.take(pos)
        gen = self._gen
        keep = self._visit.take(targets) != gen
        if have_e:
            keep &= self._eban.take(self._arc_eid.take(pos)) != bg
        if have_v:
            keep &= self._vban.take(targets) != bg
        tsel = targets.compress(keep)
        k = tsel.size
        if k == 0:
            return frontier[:0]
        # Stable first-occurrence reduction (see module docstring): the
        # reverse-order scatter makes the earliest claim per vertex win,
        # selecting the lex-minimal discoverer without a sort.
        idx = self._arange[:k]
        firstpos = self._firstpos
        firstpos[tsel[::-1]] = idx[::-1]
        is_first = firstpos.take(tsel) == idx
        new = tsel.compress(is_first)
        self._visit[new] = gen
        self._dist[new] = level
        if parents:
            psel = pos.compress(keep)
            self._parent[new] = self._arc_src.take(psel.compress(is_first))
        return new

    def bfs(
        self,
        source: int,
        ban: Tuple[int, bool, bool],
        target: Optional[int] = None,
    ) -> int:
        """Bulk restricted BFS from ``source`` under a stamped restriction.

        Same contract as :meth:`repro.core.csr.CSRGraph.bfs`: returns
        the hop distance to ``target`` (``-1`` when ``target`` is
        ``None`` or unreachable) and leaves distances/parents readable
        via :meth:`collect` until the next search.  With a target the
        search stops at the end of the level that discovered it (first
        discovery is final in BFS, so everything stamped is exact).
        """
        if not self.vectorized:
            return self.csr.bfs(source, ban, target)
        bg, _, have_v = ban
        gen = self._gen + 1
        self._gen = gen
        if have_v and self._vban[source] == bg:
            return UNREACHED
        self._visit[source] = gen
        self._dist[source] = 0
        self._parent[source] = source
        if target == source:
            return 0
        frontier = np.array([source], dtype=np.int32)
        level = 0
        while frontier.size:
            level += 1
            frontier = self._expand(frontier, ban, level, parents=True)
            if target is not None and self._visit[target] == gen:
                return level
        return UNREACHED

    def bfs_dists(self, source: int, ban: Tuple[int, bool, bool]) -> None:
        """Bulk restricted distance sweep (no parents, no target).

        The distance-sweep workhorse mirroring
        :meth:`repro.core.csr.CSRGraph.bfs_dists`; results are read with
        :meth:`distances_list` / :meth:`last_distance`.
        """
        if not self.vectorized:
            self.csr.bfs_dists(source, ban)
            return
        bg, _, have_v = ban
        gen = self._gen + 1
        self._gen = gen
        if have_v and self._vban[source] == bg:
            return
        self._visit[source] = gen
        self._dist[source] = 0
        frontier = np.array([source], dtype=np.int32)
        level = 0
        while frontier.size:
            level += 1
            frontier = self._expand(frontier, ban, level, parents=False)

    def multi_target_dists(
        self, source: int, targets: Sequence[int], ban: Tuple[int, bool, bool]
    ) -> List[int]:
        """Hop distances from ``source`` to each target, one shared sweep.

        The vectorized execution path of the batched point-query
        pipeline (:mod:`repro.core.query_batch`): all pairs of one
        fault-set group that share a source are answered by a single
        level-synchronous expansion with *per-pair early exit* — the
        sweep stops at the end of the level that labels the last
        still-pending target, so shallow target groups never pay for a
        full-graph sweep.  First discovery is final in BFS, so every
        reported distance is exact — bit-identical to per-pair
        :meth:`repro.core.csr.CSRGraph.bidir_distance` calls.

        Returns raw hops aligned with ``targets`` (``-1`` = cut by the
        restriction, including vertex-banned endpoints).
        """
        if not self.vectorized:
            return self.csr.bidir_distances(
                [(source, t) for t in targets], ban
            )
        ck = self._ckernel()
        if ck is not None:
            last = self._last_stamp
            if last is not None and last[0] == ban[0]:
                self.dispatch_stats["sweeps_c"] += len(targets)
                return ck.multi_target_dists(source, targets, last[1], last[2])
        self.dispatch_stats["sweeps_numpy"] += len(targets)
        bg, _, have_v = ban
        gen = self._gen + 1
        self._gen = gen
        if have_v and self._vban[source] == bg:
            return [UNREACHED] * len(targets)
        visit = self._visit
        dist = self._dist
        visit[source] = gen
        dist[source] = 0
        tarr = np.asarray(targets, dtype=np.int64)
        frontier = np.array([source], dtype=np.int32)
        level = 0
        while frontier.size:
            if bool((visit[tarr] == gen).all()):
                break  # every pair of this group is resolved
            level += 1
            frontier = self._expand(frontier, ban, level, parents=False)
        return [
            int(dist[t]) if visit[t] == gen else UNREACHED for t in targets
        ]

    def multi_source_dists(
        self, sources: Sequence[int], ban: Tuple[int, bool, bool]
    ) -> List[List[int]]:
        """Distance vectors from each source under one shared stamp.

        The batched FT-MBFS entry point: the restriction is stamped once
        by the caller and reused across all per-source sweeps (pooling
        invariant 2), exactly like the python kernel's batch path.
        """
        out: List[List[int]] = []
        for s in sources:
            self.bfs_dists(s, ban)
            out.append(self.distances_list())
        return out

    # ------------------------------------------------------------------
    # cross-query multi-pair kernel
    # ------------------------------------------------------------------
    def multi_pair_dists(
        self,
        queries: Sequence[Tuple[int, int, Sequence[int], Sequence[int]]],
    ) -> List[int]:
        """Many independent restricted point queries, expanded together.

        ``queries`` are ``(source, target, banned_edge_ids,
        banned_vertices)`` tuples — each with its *own* restriction,
        which is what distinguishes this entry point from the
        shared-stamp APIs: it is the execution path for the residue of
        a :class:`~repro.core.query_batch.PointQueryBatch` whose fault
        sets are all distinct (the common shape of ``Cons2FTBFS`` step-3
        probes), where per-group stamping has nothing left to share.

        Each query runs a meet-in-the-middle search with the same
        contract as :meth:`repro.core.csr.CSRGraph.bidir_distance` —
        stop at the end of the first expansion round producing a
        cross-labeled vertex, return the round's minimum
        ``dist_s + 1 + dist_t`` candidate — but *all queries advance in
        lock-step*: one round expands both balls of every still-pending
        query as a single batch of array operations over flat
        per-(query, side) label tables.  The exactness argument of
        :meth:`~repro.core.csr.CSRGraph.bidir_distance` never uses
        which side expands when — only first-discovery finality and
        the completed-round minimum — so results are bit-identical to
        per-pair scalar calls whatever the growth schedule.  Queries
        are processed in memory-bounded chunks; resolved queries drop
        out of the working set immediately (per-pair early exit).

        Returns raw hops aligned with ``queries`` (``-1`` = cut).
        """
        if not self.vectorized:
            csr = self.csr
            out: List[int] = []
            for source, target, eids, verts in queries:
                ban = csr.stamp_edge_ids(eids, verts)
                out.append(csr.bidir_distance(source, target, ban))
            return out
        ck = self._ckernel()
        if ck is not None:
            # C tier: the whole batch is one library call — no chunking
            # and no scalar tail cutover, the per-query fixed cost the
            # lock-step schedule exists to amortize is gone.  Batches
            # clearing the REPRO_C_THREADS / REPRO_C_MT_MIN bar run on
            # the threaded entry point (bit-identical results).
            threads = plan_c_threads(len(queries))
            if threads > 1:
                self.dispatch_stats["pairs_c_mt"] += len(queries)
                # Interleaved split: thread t serves queries t, t+T, ...
                per = self.dispatch_stats["pairs_c_mt_threads"]
                for t in range(threads):
                    per[t] = per.get(t, 0) + len(range(t, len(queries), threads))
            else:
                self.dispatch_stats["pairs_c"] += len(queries)
            return ck.multi_pair_dists(queries, threads=threads)
        compact = self._use_compact_labels(queries)
        try:
            chunk = int(os.environ.get("REPRO_BATCH_CHUNK", "0"))
        except ValueError:
            chunk = 0
        if chunk <= 0:
            if compact:
                # Compact label traffic scales with *live labels*, not
                # C·n, so chunks can be much larger — more queries
                # amortizing each round's array dispatch; only the
                # (sentinel-kept, touched-key-cleared) label table's
                # allocation bounds the chunk, budgeted at ~64 MB.
                chunk = min(8192, max(512, (32 << 20) // max(self.n, 1)))
            else:
                # Dense chunking keeps the per-(query, side) label
                # tables cache-friendly — the scalar kernel's n-sized
                # tables live in L1, and the chunked tables should at
                # least stay within L2/L3 or the random label gathers
                # dominate.
                chunk = max(64, min(2048, (2 << 20) // max(self.n, 1)))
        if compact:
            # int32 flat keys must cover 2·chunk·n (see the compact
            # kernel); the cap is generous (>1M queries at n=1000).
            chunk = min(chunk, (2**31 - 1) // max(2 * self.n, 1))
        csr = self.csr
        stats = self.dispatch_stats
        label_tier = "pairs_compact" if compact else "pairs_dense"
        out = []
        for lo in range(0, len(queries), chunk):
            part = queries[lo : lo + chunk]
            res = (
                self._multi_pair_chunk_compact(part)
                if compact
                else self._multi_pair_chunk(part)
            )
            ncut = 0
            for i, d in enumerate(res):
                if d == _CUTOVER:
                    # Lock-step tail cutover: the chunk retired this
                    # query to the scalar kernel (see _multi_pair_chunk).
                    source, target, eids, verts = part[i]
                    ban = csr.stamp_edge_ids(eids, verts)
                    res[i] = csr.bidir_distance(source, target, ban)
                    ncut += 1
            # Per-tier counters partition the batch: cutover queries
            # were served by the scalar kernel, not the label kernel.
            stats[label_tier] += len(part) - ncut
            stats["pairs_cutover"] += ncut
            out.extend(res)
        return out

    def _multi_pair_chunk(self, queries) -> List[int]:
        """One lock-step chunk of :meth:`multi_pair_dists` (see there).

        Performance notes, mirroring :meth:`_expand`'s: everything runs
        on int32 flat keys (``vq·n + vertex`` fits comfortably), masks
        apply via ``compress`` (faster than boolean fancy indexing at
        this call rate), and the per-round dedupe keeps the *last*
        occurrence per (ball, vertex) — for distance-only labeling any
        discoverer yields the same depth, so unlike the parent-tracking
        kernels no order-preserving reverse scatter is needed.
        """
        C = len(queries)
        n = self.n
        m = max(self.eid_cap, 1)  # per-query eid stride, not edge count
        nbr = self._nbr
        arc_eid = self._arc_eid
        indptr = self._indptr
        indptr1 = self._indptr1
        # Flat per-(virtual query, vertex) tables; virtual query
        # vq = 2·q + side encodes the two search balls of query q.
        # Pooled on the kernel: repeated chunks reuse the same pages
        # instead of fault-mapping ~100 MB of fresh allocations each.
        if self._mp_visit is None or self._mp_visit.size < 2 * C * n:
            self._mp_visit = np.zeros(2 * C * n, dtype=bool)
            self._mp_dist = np.empty(2 * C * n, dtype=np.int32)
            self._mp_last = np.empty(2 * C * n, dtype=np.int32)
        if self._mp_eban is None or self._mp_eban.size < C * m:
            self._mp_eban = np.zeros(C * m, dtype=bool)
        visitf = self._mp_visit
        visitf[: 2 * C * n].fill(False)  # previous chunk's labels
        distf = self._mp_dist  # read only after write
        lastpos = self._mp_last  # likewise
        ebanf = self._mp_eban  # kept clean: keys are unset on exit
        vbanf = None  # populated only when some query bans vertices
        PENDING = -2
        res = np.full(C, PENDING, dtype=np.int64)
        seed_vq: List[int] = []
        seed_v: List[int] = []
        seed_visit: List[int] = []
        eban_keys: List[int] = []
        vban_keys: List[int] = []
        for q, (source, target, eids, verts) in enumerate(queries):
            base_e = q * m
            for e in eids:
                eban_keys.append(base_e + e)
            banned = False
            if verts:
                base_v = q * n
                for v in verts:
                    vban_keys.append(base_v + v)
                    banned = banned or v == source or v == target
            if banned:
                res[q] = UNREACHED
            elif source == target:
                res[q] = 0
            else:
                seed_visit.append(2 * q * n + source)
                seed_visit.append((2 * q + 1) * n + target)
                seed_vq.extend((2 * q, 2 * q + 1))
                seed_v.extend((source, target))
        eban_arr = None
        if eban_keys:
            eban_arr = np.array(eban_keys, dtype=np.int64)
            ebanf[eban_arr] = True
        vban_arr = None
        if vban_keys:
            if self._mp_vban is None or self._mp_vban.size < C * n:
                self._mp_vban = np.zeros(C * n, dtype=bool)
            vbanf = self._mp_vban  # kept clean: keys are unset on exit
            vban_arr = np.array(vban_keys, dtype=np.int64)
            vbanf[vban_arr] = True
        seeds = np.array(seed_visit, dtype=np.int64)
        visitf[seeds] = True
        distf[seeds] = 0
        # Two frontier pools — source balls and target balls — expanded
        # in strict alternation, so each round touches only the
        # expanding side's entries and the two radii stay balanced (the
        # scalar kernel's cost shape); any growth schedule is exact.
        qarrs = np.array(seed_vq, dtype=np.int32) >> 1
        varrs = np.array(seed_v, dtype=np.int32)
        pools = [
            (qarrs[0::2].copy(), varrs[0::2].copy()),
            (qarrs[1::2].copy(), varrs[1::2].copy()),
        ]
        levels = [0, 0]
        big = np.iinfo(np.int64).max
        side = 1
        # Once only a handful of (typically far-apart) queries remain
        # pending, per-round array dispatch outweighs the work left —
        # hand the stragglers back for scalar execution.
        cutover = max(24, C >> 5)
        while pools[0][0].size and pools[1][0].size:
            if min(pools[0][0].size, pools[1][0].size) <= cutover < C:
                pend = res == PENDING
                if int(pend.sum()) <= cutover:
                    res[pend] = _CUTOVER
                    break
            side ^= 1  # S first, then strict alternation
            q_f, v_f = pools[side]
            levels[side] += 1
            lev = levels[side]
            starts = indptr.take(v_f)
            counts = indptr1.take(v_f)
            counts -= starts
            total = int(counts.sum())
            if total:
                cum = counts.cumsum()
                np.subtract(starts, cum, out=starts)
                starts += counts
                pos = starts.repeat(counts)
                pos += self._arange_n(total)
                targets = nbr.take(pos)
                q_arc = q_f.repeat(counts)
                karc = q_arc * (2 * n)  # flat key of ball (q, side)
                if side:
                    karc += n
                karc += targets
                keep = visitf.take(karc)
                np.logical_not(keep, out=keep)
                ekeys = q_arc.astype(np.int64)
                ekeys *= m
                ekeys += arc_eid.take(pos)
                keep &= ~ebanf.take(ekeys)
                if vbanf is not None:
                    vkeys = q_arc.astype(np.int64)
                    vkeys *= n
                    vkeys += targets
                    keep &= ~vbanf.take(vkeys)
                kkeep = karc.compress(keep)
                k = kkeep.size
            else:
                k = 0
            if k:
                # Dedupe per (ball, vertex): last occurrence wins (every
                # discoverer in a round implies the same depth, so no
                # order-preserving reverse scatter is needed here).
                idx = self._arange_n(k).astype(np.int32)
                lastpos[kkeep] = idx
                is_new = lastpos.take(kkeep) == idx
                knew = kkeep.compress(is_new)
                q_new = q_arc.compress(keep).compress(is_new)
                visitf[knew] = True
                distf[knew] = lev
                # Cross-label contact: the sibling ball's flat key is
                # ±n away.  Its labels are exact whenever written, so a
                # contacted pair yields the candidate dist_a + 1 + dist_b.
                kother = knew + (-n if side else n)
                contact = visitf.take(kother)
                if contact.any():
                    cand = distf.take(kother.compress(contact)).astype(np.int64)
                    cand += lev
                    round_best = np.full(C, big, dtype=np.int64)
                    np.minimum.at(round_best, q_new.compress(contact), cand)
                    hit = round_best < big
                    res[hit] = round_best[hit]
                    np.logical_not(contact, out=contact)
                    q_new = q_new.compress(contact)
                    knew = knew.compress(contact)
                v_new = knew - q_new * (2 * n)
                if side:
                    v_new -= n
            else:
                q_new = q_f[:0]
                v_new = v_f[:0]
            # Per-pair early exit: retire queries whose expanded ball
            # just went extinct (the scalar `while frontier_s and
            # frontier_t`), then purge resolved/retired queries from
            # both pools.
            pending = res == PENDING
            sizes = np.bincount(q_new, minlength=C)
            extinct = pending & (sizes == 0)
            if extinct.any():
                res[extinct] = UNREACHED
                pending &= ~extinct
            if q_new.size:
                alive = pending.take(q_new)
                q_new = q_new.compress(alive)
                v_new = v_new.compress(alive)
            pools[side] = (q_new, v_new)
            q_o, v_o = pools[side ^ 1]
            if q_o.size:
                alive = pending.take(q_o)
                pools[side ^ 1] = (q_o.compress(alive), v_o.compress(alive))
        # Leave the pooled ban tables clean for the next chunk.
        if eban_arr is not None:
            ebanf[eban_arr] = False
        if vban_arr is not None:
            vbanf[vban_arr] = False
        res[res == PENDING] = UNREACHED
        return [int(r) for r in res]

    def _use_compact_labels(self, queries) -> bool:
        """Whether :meth:`multi_pair_dists` runs on compact labels.

        ``REPRO_PAIR_LABELS``: ``compact`` / ``dense`` force a kernel,
        ``auto`` (default) dispatches on the measured crossover.  The
        compact kernel wins where searches run *deep* with *small*
        restrictions — sparse near-tree graphs (long meets, asymmetric
        frontiers, so per-query smaller-side growth and label pools
        sized to live labels pay off; ~15% on the tree-plus-chords
        feasibility workload).  The dense kernel wins shallow expander
        workloads (balls meet in 2-3 rounds, so its scatter-table
        dedupe beats the compact kernel's per-round key sort) and
        restriction-heavy waves (a handful of banned edges per query
        makes the sorted ban-key searches pricier than the dense
        kernel's one-byte ban-table gathers).  The heuristic reads both
        signals: average degree ≤ 4 (deep regime) and average banned
        edges per query ≤ 3 (sampled), else dense.
        """
        mode = os.environ.get("REPRO_PAIR_LABELS", "auto")
        if mode == "dense":
            return False
        if mode == "compact":
            return True
        if self.m > 2 * self.n:
            return False
        sample = queries[:256]
        bans = sum(len(q[2]) + len(q[3]) for q in sample)
        return bans <= 3 * len(sample)

    def _multi_pair_chunk_compact(self, queries) -> List[int]:
        """One lock-step chunk over *compact* per-(query, side) labels.

        Same meet-in-the-middle search as :meth:`_multi_pair_chunk` —
        round-complete candidate minimum, per-pair early exit, scalar
        tail cutover — with two changes that together close the dense
        kernel's gap on shallow expander workloads:

        * **Compact labels.**  The dense kernel keeps four ``C``-wide
          scratch tables (bool visit, int32 dist, int32 dedupe
          positions, bool per-query edge bans) and touches ~10 bytes of
          scattered table per scanned arc.  Here exactly *one* table
          survives: a flat per-(query, side) label table (``int16``
          where distances fit, key = ``(2q + side)·n + vertex``) whose
          sentinel ``-1`` means unvisited — one 2-byte gather answers
          both "seen before?" and, probed at the sibling ball\'s key
          (``±n``), "contacted at which depth?".  The table keeps its
          sentinel between chunks (only touched keys are cleared), so
          traffic scales with live labels, not the allocation.  The
          other tables dissolve: duplicate discoveries are removed by
          sorting the round\'s int32 key batch (sort + adjacent diff —
          any discoverer implies the same depth), and per-query
          restrictions become sorted ``q·m + eid`` / ``q·n + vertex``
          key arrays probed with cache-resident binary searches.
        * **Per-query smaller-side growth.**  The scalar kernel always
          expands the cheaper frontier; the dense kernel\'s strict side
          alternation cannot, because its per-round level is global.
          With per-query levels each query grows whichever of its two
          balls currently holds fewer frontier vertices, matching the
          scalar kernel\'s arc budget query by query.

        Exactness is untouched: the argument in
        :meth:`multi_pair_dists` only uses first-discovery finality and
        the completed-round minimum — neither depends on which side a
        query grows when, and a label still enters the table exactly
        once, at its discovery depth.
        """
        C = len(queries)
        n = self.n
        m = max(self.eid_cap, 1)  # per-query eid stride, not edge count
        nbr = self._nbr
        arc_eid = self._arc_eid
        indptr = self._indptr
        indptr1 = self._indptr1
        two_n = 2 * n
        need = two_n * C
        # Pooled unified label table: int16 halves the memory traffic
        # whenever hop distances fit (they are bounded by n).
        dtype = np.int16 if n < 32000 else np.int32
        if (
            self._mp_label is None
            or self._mp_label.size < need
            or self._mp_label.dtype != dtype
        ):
            self._mp_label = np.full(need, UNREACHED, dtype=dtype)
        label = self._mp_label
        written: List[np.ndarray] = []
        # Exception safety: a chunk that unwound mid-search (the kernel
        # is cached per snapshot, so a retry reuses this table) left
        # its labels behind — scrub them before trusting the sentinel.
        # Normal exits clean up below and reset the dirty list; stale
        # indices are always in-bounds even across a reallocation (the
        # table only grows, and a fresh allocation is already clean).
        if self._mp_dirty:
            for keys in self._mp_dirty:
                label[keys] = UNREACHED
        self._mp_dirty = written
        PENDING = -2
        res = np.full(C, PENDING, dtype=np.int64)
        seed_keys: List[int] = []
        seed_q: List[int] = []
        seed_v: List[int] = []
        seed_side: List[int] = []
        eban_keys: List[int] = []
        vban_keys: List[int] = []
        for q, (source, target, eids, verts) in enumerate(queries):
            base_e = q * m
            for e in eids:
                eban_keys.append(base_e + e)
            banned = False
            if verts:
                base_v = q * n
                for v in verts:
                    vban_keys.append(base_v + v)
                    banned = banned or v == source or v == target
            if banned:
                res[q] = UNREACHED
            elif source == target:
                res[q] = 0
            else:
                seed_keys.append(q * two_n + source)
                seed_keys.append(q * two_n + n + target)
                seed_q.extend((q, q))
                seed_v.extend((source, target))
                seed_side.extend((0, 1))
        eban_arr = (
            np.sort(np.array(eban_keys, dtype=np.int64)) if eban_keys else None
        )
        vban_arr = (
            np.sort(np.array(vban_keys, dtype=np.int64)) if vban_keys else None
        )
        seeds = np.array(seed_keys, dtype=np.int64)
        label[seeds] = 0
        written.append(seeds)
        # One frontier pool of (query, vertex, side) entries; per-query
        # levels per side.  Every pending query expands exactly one of
        # its sides per round — the smaller frontier, like the scalar
        # kernel — so levels are per (query, side), not global.
        q_all = np.array(seed_q, dtype=np.int32)
        v_all = np.array(seed_v, dtype=np.int32)
        s_all = np.array(seed_side, dtype=np.int32)
        lev = np.zeros(2 * C, dtype=np.int32)  # flat (2q + side)
        qidx2 = 2 * np.arange(C, dtype=np.int64)
        big = np.iinfo(np.int64).max
        cutover = max(24, C >> 5)
        while q_all.size:
            pending = res == PENDING
            npend = int(pending.sum())
            if npend == 0:
                break
            if npend <= cutover < C:
                res[pending] = _CUTOVER
                break
            # Per-query side choice: the smaller current frontier
            # (ties to the source side, matching the scalar kernel).
            sizes = np.bincount(2 * q_all + s_all, minlength=2 * C)
            choose = (sizes[1::2] < sizes[0::2]).astype(np.int32)
            sel = qidx2 + choose
            lev[sel] += 1  # harmless for non-pending (purged below)
            expand = s_all == choose.take(q_all)
            q_f = q_all.compress(expand)
            v_f = v_all.compress(expand)
            q_keep = q_all.compress(~expand)
            v_keep = v_all.compress(~expand)
            s_keep = s_all.compress(~expand)
            knew = None
            if q_f.size:
                starts = indptr.take(v_f)
                counts = indptr1.take(v_f)
                counts -= starts
                total = int(counts.sum())
            else:
                total = 0
            if total:
                cum = counts.cumsum()
                np.subtract(starts, cum, out=starts)
                starts += counts
                pos = starts.repeat(counts)
                pos += self._arange_n(total)
                targets = nbr.take(pos)
                q_arc = q_f.repeat(counts)
                side_arc = choose.take(q_arc)
                karc = q_arc * two_n  # int32: chunk cap keeps 2Cn < 2^31
                karc += side_arc * n
                karc += targets
                # The one table gather: unvisited == sentinel.
                keep = label.take(karc) < 0
                if eban_arr is not None:
                    ekeys = q_arc.astype(np.int64)
                    ekeys *= m
                    ekeys += arc_eid.take(pos)
                    loc = eban_arr.searchsorted(ekeys)
                    np.minimum(loc, eban_arr.size - 1, out=loc)
                    keep &= eban_arr.take(loc) != ekeys
                if vban_arr is not None:
                    vkeys = q_arc.astype(np.int64)
                    vkeys *= n
                    vkeys += targets
                    loc = vban_arr.searchsorted(vkeys)
                    np.minimum(loc, vban_arr.size - 1, out=loc)
                    keep &= vban_arr.take(loc) != vkeys
                kkeep = karc.compress(keep)
                if kkeep.size:
                    # Dedupe per (ball, vertex): sort + adjacent diff
                    # over the surviving int32 keys — any discoverer in
                    # a round implies the same depth, and no n-wide
                    # position table is needed.
                    knew = np.sort(kkeep)
                    if knew.size > 1:
                        first = np.empty(knew.size, dtype=bool)
                        first[0] = True
                        np.not_equal(knew[1:], knew[:-1], out=first[1:])
                        knew = knew.compress(first)
            if knew is not None and knew.size:
                q_new = knew // two_n
                side_new = choose.take(q_new)
                lev_new = lev.take(2 * q_new + side_new)
                # Cross-label contact: one gather at the sibling
                # ball\'s key answers contact and depth together.
                ksib = knew + n - 2 * n * side_new
                sd = label.take(ksib)
                label[knew] = lev_new.astype(dtype)
                written.append(knew)
                contact = sd >= 0
                if contact.any():
                    cand = sd.compress(contact).astype(np.int64)
                    cand += lev_new.compress(contact)
                    round_best = np.full(C, big, dtype=np.int64)
                    np.minimum.at(round_best, q_new.compress(contact), cand)
                    hit = round_best < big
                    res[hit] = round_best[hit]
                    np.logical_not(contact, out=contact)
                    knew = knew.compress(contact)
                    q_new = q_new.compress(contact)
                    side_new = side_new.compress(contact)
                v_new = knew - q_new * two_n
                v_new -= side_new * n
            else:
                q_new = q_all[:0]
                v_new = v_all[:0]
                side_new = s_all[:0]
            # Per-pair early exit: every pending query expanded, so one
            # with no surviving new labels just went extinct.
            pending = res == PENDING
            sizes = np.bincount(q_new, minlength=C)
            extinct = pending & (sizes == 0)
            if extinct.any():
                res[extinct] = UNREACHED
                pending &= ~extinct
            if q_new.size:
                alive = pending.take(q_new)
                q_new = q_new.compress(alive)
                v_new = v_new.compress(alive)
                side_new = side_new.compress(alive)
            if q_keep.size:
                alive = pending.take(q_keep)
                q_keep = q_keep.compress(alive)
                v_keep = v_keep.compress(alive)
                s_keep = s_keep.compress(alive)
            q_all = np.concatenate((q_keep, q_new))
            v_all = np.concatenate((v_keep, v_new))
            s_all = np.concatenate((s_keep, side_new))
        # Leave the pooled table clean for the next chunk (see above).
        for keys in written:
            label[keys] = UNREACHED
        self._mp_dirty = None
        res[res == PENDING] = UNREACHED
        return [int(r) for r in res]

    def _arange_n(self, k: int) -> np.ndarray:
        """The first ``k`` entries of the pooled arange (grown on demand)."""
        buf = self._arange
        if k > buf.size:
            self._arange = buf = np.arange(
                max(k, 2 * buf.size), dtype=np.int64
            )
        return buf[:k]

    # ------------------------------------------------------------------
    # reading out results
    # ------------------------------------------------------------------
    def collect(self) -> Tuple[List[int], List[int]]:
        """Copy the last search's reachable set into fresh dist/parent lists.

        Same contract as :meth:`repro.core.csr.CSRGraph.collect`
        (``-1`` for unreached in both vectors) but vectorized: one
        masked select per vector instead of a python loop over the
        reached set — on large graphs this alone repays the numpy
        dependency.
        """
        if not self.vectorized:
            return self.csr.collect()
        live = self._visit == self._gen
        dist_out = np.where(live, self._dist, UNREACHED).tolist()
        parent_out = np.where(live, self._parent, UNREACHED).tolist()
        return dist_out, parent_out

    def distances_list(self) -> List[int]:
        """The last search's full distance vector (``-1`` = unreached)."""
        if not self.vectorized:
            return self.csr.distances_list()
        live = self._visit == self._gen
        return np.where(live, self._dist, UNREACHED).tolist()

    def last_distance(self, v: int) -> int:
        """Distance of ``v`` in the last search (``-1`` if unreached)."""
        if not self.vectorized:
            return self.csr.last_distance(v)
        return int(self._dist[v]) if self._visit[v] == self._gen else UNREACHED

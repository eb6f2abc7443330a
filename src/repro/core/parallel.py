"""Deterministic process-pool sharding for full preprocessing runs.

The expensive preprocessing passes of this package — all-sources
FT-MBFS builds (:func:`repro.ftbfs.generic.build_ft_mbfs`), the
per-tree-edge sensitivity tabulation
(:class:`repro.ftbfs.sensitivity.SingleFaultDistanceOracle`) and the
per-fault-set stretch sweeps (:func:`repro.analysis.stretch
.stretch_profile`) — are unions of *independent* subproblems: each
source, tree edge or fault set is solved without reading any other's
result.  This module shards such item lists across a process pool and
reassembles the outputs deterministically:

* **Items, not state, cross the pool boundary.**  Workers receive the
  graph as ``(n, sorted edge list)`` and rebuild it locally — a
  :class:`~repro.core.graph.Graph` is never pickled (its CSR cache
  holds numpy views and a ``ctypes`` library handle), and the rebuild
  guarantees every worker owns a *private* process-wide snapshot cache
  and kernel scratch, so workers never contend or share memoization
  state.

* **Deterministic merge.**  Chunks are contiguous slices of the item
  list and results are reassembled by item index, never by completion
  order; callers then run the same merge code as the serial path
  (set unions, dict construction in item order, the original float
  accumulation loop), which is what makes parallel outputs
  *bit-identical* to ``jobs=1`` — the property tests in
  ``tests/test_parallel.py`` enforce this for every engine.

* **Counter aggregation.**  Each task returns its worker-side snapshot
  cache / kernel dispatch counters alongside its results; the merge
  step sums them into :func:`last_run_stats` so ``repro bench`` can
  report cache traffic and kernel-tier dispatch for a sharded build
  the same way it does for a serial one.

* **Graceful degradation.**  A worker exception, a pool that cannot
  start (sandboxes, missing ``fork``), or an unpicklable payload all
  degrade to running the task inline — serially, in the parent, with a
  :class:`RuntimeWarning` — so parallelism is strictly an optimization
  and never a correctness or availability risk.

The knob is one of ``jobs=`` arguments threaded through the callers,
the ``REPRO_JOBS`` environment variable, or ``repro bench --jobs``;
``auto`` (or ``0``) means one job per CPU.  Inside a pool worker
:func:`effective_jobs` always resolves to 1, so sharded entry points
cannot recursively spawn pools.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
import time
import warnings
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Chunks per worker: >1 so uneven per-item costs (e.g. a heavy source)
#: rebalance across the pool instead of serializing behind one chunk.
CHUNKS_PER_JOB = 2

#: Task signature: ``task(payload, items_chunk) -> (results, counters)``
#: where ``results`` aligns with ``items_chunk`` and ``counters`` is a
#: flat/nested dict of numeric counters (or ``None``).
Task = Callable[[Any, Sequence[Any]], Tuple[List[Any], Optional[dict]]]

#: Stats of the most recent :func:`run_sharded` call (see
#: :func:`last_run_stats`).
_last_stats: Dict[str, Any] = {}


def in_worker() -> bool:
    """True when running inside a pool worker process."""
    return multiprocessing.parent_process() is not None


class PrepickledPayload:
    """A payload fragment serialized once and reused across submissions.

    :func:`run_sharded` submits the payload with *every* chunk
    (``jobs * CHUNKS_PER_JOB`` pickles per call), and repeated sweeps
    on one topology — a sensitivity tabulation per source, a stretch
    profile per workload — re-send the same ``(n, edge list)`` each
    time.  Wrapping that fragment here pays the pickle walk once:
    ``__reduce__`` hands the executor the stored bytes, so every
    subsequent pickle is a memcpy and the *worker* unpickles straight
    to the original value (tasks never see the wrapper — the inline
    degrade path unwraps it too; see ``_unwrap_payload``).
    """

    __slots__ = ("value", "_data")

    def __init__(self, value: Any) -> None:
        self.value = value
        self._data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)

    def __reduce__(self):
        return (pickle.loads, (self._data,))


def graph_payload(graph) -> PrepickledPayload:
    """The pool payload for ``graph`` — ``(n, sorted edge list)`` — memoized.

    Weighted graphs ship ``(u, v, w)`` triples
    (:meth:`~repro.core.graph.Graph.weighted_edges`) so the worker-side
    ``Graph(n, edge_list)`` rebuild preserves weights; unweighted
    graphs keep the compact 2-tuple form.

    The pickled bytes are cached on the graph keyed by its mutation
    :attr:`~repro.core.graph.Graph.version`, so repeated sharded
    sweeps over one topology (and the many per-chunk submissions
    within one sweep) serialize the edge list exactly once; any
    mutation, including :meth:`~repro.core.graph.Graph.apply_delta`,
    invalidates the memo by bumping the version.
    """
    memo = getattr(graph, "_payload_memo", None)
    if memo is not None and memo[0] == graph.version:
        return memo[1]
    if getattr(graph, "weighted", False):
        edge_list = graph.weighted_edges()
    else:
        edge_list = sorted(graph.edges())
    wrapped = PrepickledPayload((graph.n, edge_list))
    try:
        graph._payload_memo = (graph.version, wrapped)
    except AttributeError:
        pass  # duck-typed graph without the slot: skip memoization
    return wrapped


def _unwrap_payload(payload: Any) -> Any:
    """Resolve wrappers for the inline path (workers get raw values)."""
    if isinstance(payload, PrepickledPayload):
        return payload.value
    if isinstance(payload, tuple):
        return tuple(
            p.value if isinstance(p, PrepickledPayload) else p for p in payload
        )
    return payload


def effective_jobs(jobs: Any = None, items: Optional[int] = None) -> int:
    """Resolve a jobs request to a concrete worker count (>= 1).

    Resolution order: the explicit ``jobs`` argument, then the
    ``REPRO_JOBS`` environment variable, then 1 (serial).  ``"auto"``
    or ``0`` mean one job per CPU (:func:`os.cpu_count`); values below
    1 and unparsable strings resolve to 1.  ``items``, when given,
    caps the answer (no point in more workers than items).  Inside a
    pool worker the answer is always 1, so sharded entry points called
    from a worker run serially instead of spawning nested pools.
    """
    if in_worker():
        return 1
    raw = jobs if jobs is not None else os.environ.get("REPRO_JOBS", "1")
    if isinstance(raw, str):
        raw = raw.strip().lower()
        if raw in ("auto", "0"):
            raw = os.cpu_count() or 1
        else:
            try:
                raw = int(raw)
            except ValueError:
                raw = 1
    n = int(raw)
    if n == 0:
        n = os.cpu_count() or 1
    n = max(1, n)
    if items is not None:
        n = min(n, max(1, items))
    return n


def last_run_stats() -> Dict[str, Any]:
    """Stats of the most recent :func:`run_sharded` call in this process.

    Keys: ``jobs`` (resolved request), ``effective_jobs`` (workers
    actually used; 1 when the run was serial or degraded), ``items``,
    ``chunks``, ``parallel`` (bool), ``degraded`` (``None`` or the
    degradation reason), ``pool_seconds`` (wall time inside the pool),
    ``merge_seconds`` (reassembly + caller-reported merge time; see
    :func:`add_merge_seconds`) and ``counters`` (summed worker-side
    counters).  ``repro bench`` prints these per arm.
    """
    return dict(_last_stats)


def add_merge_seconds(seconds: float) -> None:
    """Fold caller-side merge time into :func:`last_run_stats`.

    The executor only sees its own reassembly; callers that union
    edge sets or rebuild structures after :func:`run_sharded` report
    that time here so ``repro bench`` shows the full merge overhead.
    """
    if _last_stats:
        _last_stats["merge_seconds"] = (
            _last_stats.get("merge_seconds", 0.0) + seconds
        )


def _merge_counters(acc: dict, new: Optional[dict]) -> None:
    """Sum a task's numeric counters into the accumulator (recursive)."""
    for key, value in (new or {}).items():
        if isinstance(value, dict):
            _merge_counters(acc.setdefault(key, {}), value)
        elif isinstance(value, (int, float)):
            acc[key] = acc.get(key, 0) + value


def _pool_context():
    """The multiprocessing context for worker pools.

    ``fork`` where it is both available and safe (Linux): workers
    inherit the loaded modules and the compiled C kernel library for
    ~ms startup.  Elsewhere (Windows, macOS) the platform default
    applies; tasks and payloads are pickled either way, so the choice
    is a startup-cost detail, not a semantic one.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and not sys.platform.startswith("darwin"):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def worker_counters_begin() -> None:
    """Zero the worker-side counters a task will report (call first).

    Worker processes are reused across chunks, so per-chunk counter
    reports must be deltas: tasks call this on entry and
    :func:`worker_counters_end` on exit.  Resets the worker's private
    shared snapshot cache stats (the parent's counters are untouched —
    the cache is process-local).
    """
    from repro.core.snapshot_cache import shared_cache

    shared_cache().reset_stats()


def worker_counters_end(graph=None) -> Dict[str, dict]:
    """Collect the worker-side counters accumulated since ``begin``."""
    from repro.core.snapshot_cache import shared_cache

    out: Dict[str, dict] = {"snapshot_cache": shared_cache().stats()}
    if graph is not None:
        from repro.core.csr import kernel_dispatch_stats

        dispatch = kernel_dispatch_stats(graph, reset=True)
        if dispatch:
            out["kernel_dispatch"] = dispatch
    return out


def _chunk_bounds(nitems: int, nchunks: int) -> List[Tuple[int, int]]:
    """Contiguous, deterministic chunk boundaries covering ``nitems``."""
    nchunks = max(1, min(nchunks, nitems))
    base, rem = divmod(nitems, nchunks)
    bounds = []
    lo = 0
    for c in range(nchunks):
        hi = lo + base + (1 if c < rem else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def run_sharded(
    task: Task,
    items: Sequence[Any],
    *,
    payload: Any = None,
    jobs: Any = None,
    label: str = "",
) -> List[Any]:
    """Run ``task`` over chunks of ``items`` on a process pool.

    ``task`` must be a module-level callable (pools pickle it by
    reference) with signature ``task(payload, chunk) -> (results,
    counters)``; ``results`` must align element-for-element with
    ``chunk``.  Returns the concatenated results in *item order*
    regardless of completion order — the deterministic-merge half of
    the bit-identity contract; the caller supplies the other half by
    merging exactly like its serial path.

    With resolved ``jobs <= 1`` (see :func:`effective_jobs`) the task
    runs inline in one chunk — byte-for-byte the serial code path.  A
    worker exception or pool failure degrades to the same inline run
    with a :class:`RuntimeWarning` naming ``label``; parallelism never
    changes results or availability.
    """
    global _last_stats
    items = list(items)
    njobs = effective_jobs(jobs, items=len(items))
    stats: Dict[str, Any] = {
        "jobs": njobs,
        "effective_jobs": 1,
        "items": len(items),
        "chunks": 1,
        "parallel": False,
        "degraded": None,
        "pool_seconds": 0.0,
        "merge_seconds": 0.0,
        "counters": {},
    }
    _last_stats = stats

    def _serial() -> List[Any]:
        t0 = time.perf_counter()
        results, counters = task(_unwrap_payload(payload), items)
        stats["pool_seconds"] = time.perf_counter() - t0
        counter_acc: Dict[str, Any] = {}
        _merge_counters(counter_acc, counters)
        stats["counters"] = counter_acc
        return results

    if njobs <= 1 or len(items) <= 1:
        return _serial()

    bounds = _chunk_bounds(len(items), njobs * CHUNKS_PER_JOB)
    stats["chunks"] = len(bounds)
    t0 = time.perf_counter()
    try:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=njobs, mp_context=_pool_context()
        ) as pool:
            futures = [
                pool.submit(task, payload, items[lo:hi]) for lo, hi in bounds
            ]
            chunk_results = [f.result() for f in futures]
    except BaseException as err:  # noqa: BLE001 — any pool/worker failure degrades
        if isinstance(err, KeyboardInterrupt):
            raise
        warnings.warn(
            f"parallel run{f' ({label})' if label else ''} degraded to "
            f"serial: {type(err).__name__}: {err}",
            RuntimeWarning,
            stacklevel=2,
        )
        stats["degraded"] = f"{type(err).__name__}: {err}"
        return _serial()
    stats["pool_seconds"] = time.perf_counter() - t0
    stats["parallel"] = True
    stats["effective_jobs"] = njobs
    t1 = time.perf_counter()
    out: List[Any] = []
    counter_acc = {}
    for results, counters in chunk_results:
        out.extend(results)
        _merge_counters(counter_acc, counters)
    stats["counters"] = counter_acc
    stats["merge_seconds"] = time.perf_counter() - t1
    return out


def _selftest_task(payload: dict, chunk: Sequence[int]) -> Tuple[List[int], dict]:
    """Trivial task used by the executor's own tests (squares its items).

    When ``payload["fail_on"]`` names an item in ``chunk`` *and* the
    task is running inside a pool worker, it raises — the
    fault-injection hook for the degrade-to-serial tests.  The inline
    fallback run (in the parent) succeeds, which is exactly the
    behavior under test.
    """
    fail_on = (payload or {}).get("fail_on")
    if fail_on is not None and fail_on in chunk and in_worker():
        raise RuntimeError(f"injected worker failure on item {fail_on!r}")
    return [x * x for x in chunk], {"calls": 1}

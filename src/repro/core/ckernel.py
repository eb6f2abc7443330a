"""Loader + ctypes wrappers for the compiled C kernels (``_ckernel.c``).

The C tier of the kernel ladder (see ``docs/kernels.md``) serves two
kinds of calls over the same flat CSR arrays every other tier reads:

* the scalar searches of every CSR snapshot — ``CSRGraph.bfs``,
  ``bfs_dists``, ``bidir_distance`` and ``bidir_distances`` dispatch
  here through a :class:`ScalarBinding` bound once per snapshot, so a
  call passes only integers (no per-call marshalling);
* the two batch hot paths of the point-query pipeline —
  :meth:`CKernel.multi_pair_dists` and
  :meth:`CKernel.multi_target_dists` — which remove the per-round
  python/array dispatch of the numpy lock-step kernels.

Results are bit-identical to every other tier (same exactness
argument, same ban-stamp semantics, same ``-1`` conventions); the only
thing that changes is the wall clock.  Every id that crosses into C is
range-checked first: out-of-range vertices or edge ids raise
:class:`~repro.core.errors.GraphError` instead of reaching the C loops.

**Loading.**  ``_ckernel.c`` carries no CPython dependency, so one
source serves two build paths, tried in order by :func:`load_c_library`:

1. the extension module ``repro.core._ckernel`` built by ``setup.py``
   (its shared object is opened with :mod:`ctypes` — the module itself
   is an empty shell that exists so setuptools builds and ships it);
2. an on-demand build for source checkouts: the bundled C file is
   compiled once with the system compiler into a content-addressed
   cache (``~/.cache/repro-parter15`` or ``REPRO_C_KERNEL_CACHE``) and
   reused across processes.

Both paths failing is not an error: the load outcome is memoized and
the numpy/python kernels keep serving every query, so pure-python
installs and compiler-less hosts are unaffected (guaranteed by the
fallback tests in ``tests/test_query_batch.py`` and
``tests/test_scalar_tier.py``).  The library is loaded lazily, at the
first kernel call that can use it — never at ``import repro``.

Environment knobs (see ``docs/tuning.md``):

``REPRO_C_KERNEL``
    ``auto`` (default) uses the C kernel whenever it loads, silently
    degrading otherwise; ``on`` makes load failures raise instead of
    degrade (CI's tier guard); ``off`` never touches it.  Read once per
    CSR snapshot (scalar tier) and per batch call (batch tier).
``REPRO_C_KERNEL_CC``
    Compiler for the on-demand build (default: ``$CC``, then the
    interpreter's configured compiler, then ``cc``).
``REPRO_C_KERNEL_CACHE``
    Directory for on-demand build artifacts (default:
    ``~/.cache/repro-parter15``, falling back to the temp dir).
``REPRO_C_THREADS``
    Worker threads for one :meth:`CKernel.multi_pair_dists` batch
    (default ``1``; ``auto``/``0`` = one per CPU).  The C side deals
    queries round-robin across a pthread pool with disjoint
    per-thread scratch — results stay bit-identical to the serial
    entry point — and ctypes releases the GIL for the call, so the
    threads run truly in parallel.
``REPRO_C_MT_MIN``
    Minimum batch size (queries) before a multi-threaded dispatch is
    worth its thread-spawn cost (default ``2048``); smaller batches
    stay on the serial C entry point.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import os
import pathlib
import subprocess
import sys
import sysconfig
import tempfile
from array import array
from typing import List, Optional, Sequence, Tuple

from repro.core.errors import GraphError

import numpy as np

#: ABI tag the wrapper expects; must match the ABI macro in
#: ``_ckernel.c`` (a mismatched cached build is rejected and rebuilt).
ABI = 4

#: Default ``REPRO_C_MT_MIN``: below this many queries per batch the
#: serial C entry point wins (thread spawn ~tens of µs vs ~1 µs/pair).
DEFAULT_MT_MIN = 2048

#: Hard cap on threads per batch; must match MT_MAX_THREADS in the C
#: source (the C side clamps too — this keeps scratch allocation sane).
MAX_C_THREADS = 64

_P64 = ctypes.POINTER(ctypes.c_int64)
_P32 = ctypes.POINTER(ctypes.c_int32)

#: Memoized load outcome: ``None`` until the first attempt, then
#: ``(library or None, detail string)``.  Tests simulate a broken or
#: missing extension by monkeypatching this.
_load_state: Optional[Tuple[Optional[ctypes.CDLL], str]] = None


def c_kernel_mode() -> str:
    """The ``REPRO_C_KERNEL`` dispatch mode: ``auto`` / ``on`` / ``off``.

    Unknown values fall back to ``auto`` (the safe default: use the C
    kernel when it loads, degrade silently when it does not).
    """
    mode = os.environ.get("REPRO_C_KERNEL", "auto").strip().lower()
    return mode if mode in ("auto", "on", "off") else "auto"


def c_thread_count() -> int:
    """The ``REPRO_C_THREADS`` worker-thread count (>= 1).

    ``auto`` or ``0`` mean one thread per CPU; unparsable values and
    values below 1 resolve to 1 (serial).  Capped at
    :data:`MAX_C_THREADS` to match the C side's fixed job table.
    """
    raw = os.environ.get("REPRO_C_THREADS", "1").strip().lower()
    if raw in ("auto", "0"):
        t = os.cpu_count() or 1
    else:
        try:
            t = int(raw)
        except ValueError:
            t = 1
    return max(1, min(t, MAX_C_THREADS))


def mt_min_batch() -> int:
    """Minimum queries per batch for a threaded dispatch (``REPRO_C_MT_MIN``)."""
    try:
        return int(os.environ.get("REPRO_C_MT_MIN", str(DEFAULT_MT_MIN)))
    except ValueError:
        return DEFAULT_MT_MIN


def plan_c_threads(nq: int) -> int:
    """Threads a ``multi_pair_dists`` batch of ``nq`` queries should use.

    1 unless ``REPRO_C_THREADS`` asks for more *and* the batch clears
    the ``REPRO_C_MT_MIN`` break-even size; never more threads than
    queries.  Pure planning — reading it does not touch the library.
    """
    t = c_thread_count()
    if t <= 1 or nq < max(2, mt_min_batch()):
        return 1
    return min(t, nq)


def _source_path() -> pathlib.Path:
    return pathlib.Path(__file__).with_name("_ckernel.c")


def _compiler() -> str:
    cc = os.environ.get("REPRO_C_KERNEL_CC") or os.environ.get("CC")
    if cc:
        return cc
    cc = sysconfig.get_config_var("CC")
    if cc:
        return cc.split()[0]  # "gcc -pthread" → "gcc"
    return "cc"


def _cache_dir() -> pathlib.Path:
    override = os.environ.get("REPRO_C_KERNEL_CACHE")
    if override:
        return pathlib.Path(override)
    base = os.environ.get("XDG_CACHE_HOME")
    if not base:
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return pathlib.Path(base) / "repro-parter15"


def _configure(lib: ctypes.CDLL) -> Tuple[Optional[ctypes.CDLL], str]:
    """Check the ABI tag and declare argtypes; rejects stale builds."""
    try:
        lib.repro_ckernel_abi.restype = ctypes.c_int64
        abi = int(lib.repro_ckernel_abi())
    except AttributeError:
        return None, "library lacks the repro_ckernel_abi symbol"
    if abi != ABI:
        return None, f"library ABI {abi} != expected {ABI} (stale build)"
    if array("i").itemsize != 4 or array("q").itemsize != 8:
        return None, "array('i')/array('q') are not 32/64-bit on this platform"
    c64 = ctypes.c_int64
    c32 = ctypes.c_int32
    lib.repro_multi_pair_dists.restype = None
    lib.repro_multi_pair_dists.argtypes = [
        _P64, _P32, _P32,  # indptr, nbr, arc_eid
        c64, _P32, _P32,  # nq, q_src, q_tgt
        _P64, _P32, _P64, _P32,  # eb_off, eb_ids, vb_off, vb_ids
        c64,  # gen_base
        _P64, _P32, _P64, _P32,  # visit_s, dist_s, visit_t, dist_t
        _P64, _P64,  # eban, vban
        _P32, _P32, _P32, _P32,  # four frontier buffers
        _P32,  # out
    ]
    lib.repro_multi_pair_dists_mt.restype = None
    lib.repro_multi_pair_dists_mt.argtypes = [
        _P64, _P32, _P32,  # indptr, nbr, arc_eid
        c64, _P32, _P32,  # nq, q_src, q_tgt
        _P64, _P32, _P64, _P32,  # eb_off, eb_ids, vb_off, vb_ids
        c64, c64, c64, c64,  # gen_base, nthreads, n, m
        _P64, _P32, _P64, _P32,  # visit_s, dist_s, visit_t, dist_t (T×n)
        _P64, _P64,  # eban (T×m), vban (T×n)
        _P32,  # frontier block (T×4×n)
        _P32,  # out
    ]
    lib.repro_multi_target_dists.restype = None
    lib.repro_multi_target_dists.argtypes = [
        _P64, _P32, _P32,  # indptr, nbr, arc_eid
        c32, c64, _P32,  # source, ntargets, targets
        c64, _P32, c64, _P32,  # ne, eb_ids, nv, vb_ids
        c64,  # gen
        _P64, _P32,  # visit, dist
        _P64, _P64,  # eban, vban
        _P64, _P32,  # tmark, queue
        _P32,  # out
    ]
    ctx_args = [ctypes.c_void_p, c64, c64, c64, c64]
    for name in ("repro_csr_bfs", "repro_csr_bidir"):
        fn = getattr(lib, name)
        fn.restype = c64
        fn.argtypes = ctx_args  # ctx, source, target, ban gen, flags
    lib.repro_csr_collect.restype = None
    lib.repro_csr_collect.argtypes = [ctypes.c_void_p, c64]
    return lib, "ok"


def _open(path: os.PathLike) -> Tuple[Optional[ctypes.CDLL], str]:
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as err:
        return None, f"could not load {path}: {err}"
    return _configure(lib)


def _find_prebuilt() -> Optional[str]:
    """The shared object of the setup.py-built extension, if installed."""
    try:
        spec = importlib.util.find_spec("repro.core._ckernel")
    except (ImportError, ValueError):
        return None
    if spec is None or not spec.origin:
        return None
    if not spec.origin.endswith((".so", ".dylib", ".pyd", ".dll")):
        return None
    return spec.origin


#: Compile failures memoized per content tag: a process pool routinely
#: retries the load (workers, benchmark arms flipping REPRO_C_KERNEL),
#: and re-running a compiler that already failed on identical input
#: would pay the failure once per retry instead of once per process.
_build_failures: dict = {}


def _build_on_demand() -> Tuple[Optional[ctypes.CDLL], str]:
    """Compile the bundled C source into the cache dir and load it.

    Concurrency-safe by construction: each builder writes a private
    pid-tagged temp file and installs it with an atomic
    :func:`os.replace`, so two processes (routine under the
    :mod:`repro.core.parallel` pool) racing on the same
    content-addressed path both end up loading a complete build —
    never a partially written one.  Compile failures are memoized per
    content tag; install failures fall through to the next cache base.
    """
    src = _source_path()
    if not src.is_file():
        return None, "bundled C source _ckernel.c is missing"
    if sys.platform == "win32":
        return None, (
            "on-demand builds are not supported on Windows; install the "
            "package so setup.py builds the extension"
        )
    cc = _compiler()
    source = src.read_bytes()
    tag = hashlib.sha256(
        b"\x00".join((source, cc.encode(), sys.platform.encode()))
    ).hexdigest()[:16]
    last_detail = "no writable cache directory for the on-demand build"
    for base in (_cache_dir(), pathlib.Path(tempfile.gettempdir()) / "repro-parter15"):
        try:
            base.mkdir(parents=True, exist_ok=True)
        except OSError:
            continue
        cached = base / f"_ckernel-{tag}.so"
        if cached.is_file():
            lib, detail = _open(cached)
            if lib is not None:
                return lib, f"on-demand build {cached} (cached)"
            last_detail = detail
            continue
        if tag in _build_failures:
            return None, _build_failures[tag]
        tmp = base / f"_ckernel-{tag}.{os.getpid()}.tmp.so"
        cmd = [
            *cc.split(), "-O2", "-shared", "-fPIC", "-pthread",
            "-o", str(tmp), str(src),
        ]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=180
            )
        except (OSError, subprocess.TimeoutExpired) as err:
            detail = f"C kernel build failed ({cc!r}): {err}"
            _build_failures[tag] = detail
            return None, detail
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout or "").strip()
            detail = f"C kernel build failed ({' '.join(cmd)}): {detail[:400]}"
            _build_failures[tag] = detail
            tmp.unlink(missing_ok=True)
            return None, detail
        try:
            os.replace(tmp, cached)  # atomic vs concurrent builders
        except OSError as err:
            tmp.unlink(missing_ok=True)
            last_detail = f"could not install built kernel: {err}"
            continue
        lib, detail = _open(cached)
        if lib is not None:
            return lib, f"on-demand build {cached}"
        return lib, detail
    return None, last_detail


def _load_uncached() -> Tuple[Optional[ctypes.CDLL], str]:
    prebuilt = _find_prebuilt()
    if prebuilt is not None:
        lib, detail = _open(prebuilt)
        if lib is not None:
            return lib, f"prebuilt extension {prebuilt}"
        # fall through: a broken installed build should not poison
        # source checkouts that can compile on demand
    return _build_on_demand()


def load_c_library() -> Tuple[Optional[ctypes.CDLL], str]:
    """The loaded C kernel library (or ``None``) plus a detail string.

    The first call attempts the prebuilt extension, then the on-demand
    build; the outcome — success or the failure reason — is memoized
    for the life of the process, so compiler-less hosts pay the probe
    exactly once.
    """
    global _load_state
    if _load_state is None:
        _load_state = _load_uncached()
    return _load_state


def c_kernel_status() -> Tuple[bool, str]:
    """``(available, detail)`` — triggers the (memoized) load attempt."""
    lib, detail = load_c_library()
    return lib is not None, detail


def c_kernel_available() -> bool:
    """True iff the dispatch mode allows the C kernel and it loads."""
    if c_kernel_mode() == "off":
        return False
    return c_kernel_status()[0]


class CSRContext(ctypes.Structure):
    """The per-snapshot context of the scalar entry points
    (``repro_csr_ctx`` in ``_ckernel.c``; field order must match)."""

    _fields_ = [
        ("n", ctypes.c_int64),
        ("gen", ctypes.c_int64),
        ("count", ctypes.c_int64),
        ("indptr", _P64),
        ("nbr", _P32),
        ("arc_eid", _P32),
        ("vban", _P64),
        ("eban", _P64),
        ("visit", _P64),
        ("dist", _P32),
        ("parent", _P32),
        ("queue", _P32),
        ("visit2", _P64),
        ("dist2", _P32),
        ("out_dist", _P32),
        ("out_parent", _P32),
    ]


def _ptr(arr: array, kind):
    return ctypes.cast(arr.buffer_info()[0], kind)


class ScalarBinding:
    """One CSR snapshot bound to the scalar C entry points.

    Owns the C-readable copies of the snapshot's topology (``indptr``
    as ``array('q')``, ``nbr``/``arc_eid`` as ``array('i')``) and the
    stamped scratch, all as :mod:`array` buffers whose addresses are
    written into one :class:`CSRContext` at construction.  The
    snapshot adopts the ban and label buffers as its own scratch
    (``_vban``/``_eban``/``_visit``/``_dist``/...), so python-side ban
    stamping and read-outs work unchanged; each call then passes only
    the context address and four integers.

    The buffers are private copies, never views of the caller's
    arrays: an artifact's memory map (:mod:`repro.core.artifact`) gains
    no buffer export and closes as before.
    """

    __slots__ = (
        "ctx",
        "addr",
        "bfs",
        "bidir",
        "collect",
        "indptr",
        "nbr",
        "arc_eid",
        "vban",
        "eban",
        "visit",
        "dist",
        "parent",
        "queue",
        "visit2",
        "dist2",
        "out_dist",
        "out_parent",
        "_ints",
        "_od",
        "_op",
    )

    def __init__(
        self,
        lib: ctypes.CDLL,
        n: int,
        eid_cap: int,
        indptr,
        nbr,
        arc_eid,
        check: bool = False,
    ) -> None:
        self.indptr = typed_array(indptr, "q")
        self.nbr = typed_array(nbr, "i")
        self.arc_eid = typed_array(arc_eid, "i")
        if check:
            _check_topology(n, eid_cap, self.indptr, self.nbr, self.arc_eid)
        unreached = array("q", [-1])
        zeros = array("i", [0])
        self.vban = unreached * n
        self.eban = unreached * eid_cap
        self.visit = unreached * n
        self.visit2 = unreached * n
        self.dist = zeros * n
        self.parent = zeros * n
        self.queue = zeros * n
        self.dist2 = zeros * n
        self.out_dist = zeros * n
        self.out_parent = zeros * n
        ctx = CSRContext()
        ctx.n = n
        # Empty buffers (edgeless or vertexless snapshots) yield NULL
        # pointers, which C never dereferences: it reads only ids the
        # wrapper checked against n and arcs that exist.
        for name, kind in CSRContext._fields_[3:]:
            setattr(ctx, name, _ptr(getattr(self, name), kind))
        self.ctx = ctx
        self.addr = ctypes.addressof(ctx)
        self.bfs = lib.repro_csr_bfs
        self.bidir = lib.repro_csr_bidir
        self.collect = lib.repro_csr_collect
        self._ints = _int_table(n)
        self._od = np.frombuffer(self.out_dist, dtype=np.int32)
        self._op = np.frombuffer(self.out_parent, dtype=np.int32)

    def dist_list(self) -> List[int]:
        """``out_dist`` (after ``collect``) as a fresh list of ints."""
        return self._ints.take(self._od).tolist()

    def parent_list(self) -> List[int]:
        """``out_parent`` (after ``collect``) as a fresh list of ints."""
        return self._ints.take(self._op).tolist()


#: Shared int objects ``0 .. N-1`` followed by ``-1`` (so index ``-1``
#: reads ``-1``), as a numpy object array.  Read-outs map through it
#: instead of ``tolist()``: the lists they return are memoized by the
#: thousand (search results, distance vectors), and shared objects cost
#: 8 bytes an entry where fresh ints above the interpreter's small-int
#: cache cost 36 — the same sharing the python kernel's lists get for
#: free.
_INTS = np.array([-1], dtype=object)


def _int_table(n: int):
    """The shared int table, grown to cover ``0 .. n-1``."""
    global _INTS
    if len(_INTS) <= n:
        size = max(n, 2 * (len(_INTS) - 1))
        _INTS = np.array(list(range(size)) + [-1], dtype=object)
    return _INTS


def typed_array(values, typecode: str) -> array:
    """``values`` as an ``array(typecode)`` (``'q'`` or ``'i'``); an
    array of that type passes through, anything else is copied at
    memcpy speed through numpy."""
    if isinstance(values, array) and values.typecode == typecode:
        return values
    out = array(typecode)
    out.frombytes(
        np.asarray(values, dtype=np.int64 if typecode == "q" else np.int32).tobytes()
    )
    return out


def patch_flat(indptr, nbr, arc_eid, rows):
    """Flat C arrays of a snapshot that differs from ``(indptr, nbr,
    arc_eid)`` only in the rows ``rows`` — ``(u, ((w, eid), ...))``
    pairs in increasing ``u``.

    Untouched rows keep their arcs and only move, so the new ``nbr`` /
    ``arc_eid`` are the old slices between rewritten rows (array
    copies) around the few rewritten rows, and ``indptr`` is the old
    one with each stretch after a rewritten row shifted by the arc
    count gained so far.  Returns ``(indptr, nbr, arc_eid)`` typed as
    :class:`ScalarBinding` expects.
    """
    pip = typed_array(indptr, "q")
    pnbr = typed_array(nbr, "i")
    peid = typed_array(arc_eid, "i")
    out_ip = array("q", pip)
    ip_view = np.frombuffer(out_ip, dtype=np.int64)
    out_nbr = array("i")
    out_eid = array("i")
    prev = 0  # old arc position not yet copied
    for u, row in rows:
        lo = pip[u]
        out_nbr.extend(pnbr[prev:lo])
        out_eid.extend(peid[prev:lo])
        out_nbr.extend([w for w, _ in row])
        out_eid.extend([e for _, e in row])
        prev = pip[u + 1]
        gained = len(row) - (prev - lo)
        if gained:
            # rows after u move by the change (cumulative: each rewritten
            # row shifts the whole tail by its own gain)
            ip_view[u + 1 :] += gained
    out_nbr.extend(pnbr[prev:])
    out_eid.extend(peid[prev:])
    return out_ip, out_nbr, out_eid


def _check_topology(n: int, eid_cap: int, indptr, nbr, arc_eid) -> None:
    """Reject flat CSR arrays the C loops could index out of bounds.

    Used for topology the library did not build itself (an adopted
    artifact, whose checksum may be switched off): ``indptr`` must run
    from 0 to ``len(nbr)`` without decreasing, neighbors must lie in
    ``[0, n)`` and edge ids in ``[0, eid_cap)``.
    """
    m2 = len(nbr)
    if (
        len(indptr) != n + 1
        or len(arc_eid) != m2
        or indptr[0] != 0
        or indptr[n] != m2
        or list(indptr) != sorted(indptr)
        or (m2 and (min(nbr) < 0 or max(nbr) >= n))
        or (m2 and (min(arc_eid) < 0 or max(arc_eid) >= eid_cap))
    ):
        raise GraphError(
            f"CSR arrays do not describe a graph on {n} vertices with "
            f"edge ids below {eid_cap}"
        )


def _ids(values, bound: int, what: str):
    """``values`` as an int32 array after checking each lies in
    ``[0, bound)``; :class:`GraphError` otherwise (never a C crash)."""
    try:
        arr = np.asarray(values, dtype=np.int64)
    except (OverflowError, TypeError, ValueError) as err:
        raise GraphError(f"{what} must be integer ids: {err}") from None
    if arr.ndim != 1:
        raise GraphError(f"{what} must be a flat sequence of ids")
    if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= bound):
        raise GraphError(f"{what} out of range [0, {bound})")
    return arr.astype(np.int32)


def _p64(arr: np.ndarray):
    return arr.ctypes.data_as(_P64)


def _p32(arr: np.ndarray):
    return arr.ctypes.data_as(_P32)


class CKernel:
    """Per-snapshot scratch + entry points for the compiled C kernels.

    Owned by a :class:`~repro.core.bulk.BulkCSRKernel` (one per CSR
    snapshot, like every other pooled scratch set): the CSR topology
    views are shared with the numpy kernel, the stamped visit/ban
    tables are allocated once here and recycled with the same
    generation discipline as the python kernel — the C side never
    clears anything, it only compares stamps against the generation
    the wrapper hands it and the wrapper advances its counter past
    every generation consumed.
    """

    __slots__ = (
        "_lib",
        "n",
        "m",
        "_indptr",
        "_nbr",
        "_arc_eid",
        "_visit_s",
        "_dist_s",
        "_visit_t",
        "_dist_t",
        "_eban",
        "_vban",
        "_tmark",
        "_fr",
        "_queue",
        "_gen",
        "_mt_threads",
        "_mt_visit_s",
        "_mt_dist_s",
        "_mt_visit_t",
        "_mt_dist_t",
        "_mt_eban",
        "_mt_vban",
        "_mt_fr",
    )

    def __init__(
        self,
        lib: ctypes.CDLL,
        n: int,
        m: int,
        indptr: np.ndarray,
        nbr: np.ndarray,
        arc_eid: np.ndarray,
    ) -> None:
        self._lib = lib
        self.n = n
        self.m = max(m, 1)
        self._indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self._nbr = np.ascontiguousarray(nbr, dtype=np.int32)
        self._arc_eid = np.ascontiguousarray(arc_eid, dtype=np.int32)
        # Stamped scratch (python-kernel pooling invariants 1-3 apply):
        # generations start at 1, every table starts below any stamp.
        self._visit_s = np.full(n, -1, dtype=np.int64)
        self._dist_s = np.zeros(n, dtype=np.int32)
        self._visit_t = np.full(n, -1, dtype=np.int64)
        self._dist_t = np.zeros(n, dtype=np.int32)
        self._eban = np.full(self.m, -1, dtype=np.int64)
        self._vban = np.full(n, -1, dtype=np.int64)
        self._tmark = np.zeros(n, dtype=np.int64)
        self._fr = np.empty((4, max(n, 1)), dtype=np.int32)
        self._queue = np.empty(max(n, 1), dtype=np.int32)
        self._gen = 0
        # Threaded multi-pair scratch: T disjoint slabs, allocated
        # lazily at the first threaded dispatch and regrown when the
        # thread count rises.  Fresh slabs start at stamp -1, below
        # every generation (gens start at 1 and only grow), so growth
        # never resurrects stale entries.
        self._mt_threads = 0
        self._mt_visit_s = None
        self._mt_dist_s = None
        self._mt_visit_t = None
        self._mt_dist_t = None
        self._mt_eban = None
        self._mt_vban = None
        self._mt_fr = None

    def _mt_scratch(self, threads: int) -> None:
        """Ensure the per-thread scratch slabs cover ``threads`` slices."""
        if threads <= self._mt_threads:
            return
        n = max(self.n, 1)
        self._mt_visit_s = np.full((threads, n), -1, dtype=np.int64)
        self._mt_dist_s = np.zeros((threads, n), dtype=np.int32)
        self._mt_visit_t = np.full((threads, n), -1, dtype=np.int64)
        self._mt_dist_t = np.zeros((threads, n), dtype=np.int32)
        self._mt_eban = np.full((threads, self.m), -1, dtype=np.int64)
        self._mt_vban = np.full((threads, n), -1, dtype=np.int64)
        self._mt_fr = np.empty((threads, 4 * n), dtype=np.int32)
        self._mt_threads = threads

    def multi_pair_dists(
        self,
        queries: Sequence[Tuple[int, int, Sequence[int], Sequence[int]]],
        threads: int = 1,
    ) -> List[int]:
        """Exact hops for many independent restricted point queries.

        Same signature and conventions as
        :meth:`repro.core.bulk.BulkCSRKernel.multi_pair_dists` —
        ``(source, target, banned_edge_ids, banned_vertices)`` per
        query, ``-1`` where the restriction cuts the pair.  The whole
        batch is one C call; no chunking or scalar tail cutover is
        needed because the per-query fixed cost is a function call.

        With ``threads > 1`` the batch runs on the threaded C entry
        point (``repro_multi_pair_dists_mt``): interleaved (strided)
        query assignment — thread ``t`` serves queries ``t``,
        ``t + threads``, ... — on a pthread pool, each thread against
        its own scratch slab, with the GIL released for the duration
        of the call.  Scratch generations are keyed on the *global*
        query index, so results are bit-identical for every thread
        count (callers usually let :func:`plan_c_threads` pick).
        Sources, targets, banned edge ids and banned vertices are
        range-checked before the call (:class:`GraphError`).
        """
        nq = len(queries)
        if nq == 0:
            return []
        q_src: List[int] = []
        q_tgt: List[int] = []
        eb_off: List[int] = [0]
        vb_off: List[int] = [0]
        eb_ids: List[int] = []
        vb_ids: List[int] = []
        for source, target, eids, verts in queries:
            q_src.append(source)
            q_tgt.append(target)
            eb_ids.extend(eids)
            vb_ids.extend(verts)
            eb_off.append(len(eb_ids))
            vb_off.append(len(vb_ids))
        n = self.n
        q_src = _ids(q_src, n, "query sources")
        q_tgt = _ids(q_tgt, n, "query targets")
        eb_ids = _ids(eb_ids, self.m, "banned edge ids")
        vb_ids = _ids(vb_ids, n, "banned vertices")
        eb_off = np.asarray(eb_off, dtype=np.int64)
        vb_off = np.asarray(vb_off, dtype=np.int64)
        out = np.empty(nq, dtype=np.int32)
        gen_base = self._gen
        self._gen = gen_base + nq
        threads = max(1, min(int(threads), nq, MAX_C_THREADS))
        if threads > 1:
            self._mt_scratch(threads)
            self._lib.repro_multi_pair_dists_mt(
                _p64(self._indptr),
                _p32(self._nbr),
                _p32(self._arc_eid),
                nq,
                _p32(q_src),
                _p32(q_tgt),
                _p64(eb_off),
                _p32(eb_ids),
                _p64(vb_off),
                _p32(vb_ids),
                gen_base,
                threads,
                max(self.n, 1),
                self.m,
                _p64(self._mt_visit_s),
                _p32(self._mt_dist_s),
                _p64(self._mt_visit_t),
                _p32(self._mt_dist_t),
                _p64(self._mt_eban),
                _p64(self._mt_vban),
                _p32(self._mt_fr),
                _p32(out),
            )
            return out.tolist()
        fr = self._fr
        self._lib.repro_multi_pair_dists(
            _p64(self._indptr),
            _p32(self._nbr),
            _p32(self._arc_eid),
            nq,
            _p32(q_src),
            _p32(q_tgt),
            _p64(eb_off),
            _p32(eb_ids),
            _p64(vb_off),
            _p32(vb_ids),
            gen_base,
            _p64(self._visit_s),
            _p32(self._dist_s),
            _p64(self._visit_t),
            _p32(self._dist_t),
            _p64(self._eban),
            _p64(self._vban),
            _p32(fr[0]),
            _p32(fr[1]),
            _p32(fr[2]),
            _p32(fr[3]),
            _p32(out),
        )
        return out.tolist()

    def multi_target_dists(
        self,
        source: int,
        targets: Sequence[int],
        eids: Sequence[int],
        verts: Sequence[int],
    ) -> List[int]:
        """Exact hops from ``source`` to each target, one shared sweep.

        The C execution of
        :meth:`repro.core.bulk.BulkCSRKernel.multi_target_dists`: one
        FIFO BFS with per-target early exit under one restriction
        (``eids``/``verts`` resolved ids).  ``-1`` where cut.
        """
        nt = len(targets)
        if nt == 0:
            return []
        n = self.n
        if not 0 <= source < n:
            raise GraphError(f"sweep source {source} out of range [0, {n})")
        t_arr = _ids(targets, n, "sweep targets")
        e_arr = _ids(eids, self.m, "banned edge ids")
        v_arr = _ids(verts, n, "banned vertices")
        out = np.empty(nt, dtype=np.int32)
        gen = self._gen + 1
        self._gen = gen
        self._lib.repro_multi_target_dists(
            _p64(self._indptr),
            _p32(self._nbr),
            _p32(self._arc_eid),
            source,
            nt,
            _p32(t_arr),
            len(e_arr),
            _p32(e_arr),
            len(v_arr),
            _p32(v_arr),
            gen,
            _p64(self._visit_s),
            _p32(self._dist_s),
            _p64(self._eban),
            _p64(self._vban),
            _p64(self._tmark),
            _p32(self._queue),
            _p32(out),
        )
        return out.tolist()

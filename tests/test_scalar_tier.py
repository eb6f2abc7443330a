"""The scalar C tier behind ``CSRGraph`` is bit-identical to the python loops.

``CSRGraph.bfs`` / ``bfs_dists`` / ``bidir_distance`` /
``bidir_distances`` run in the compiled kernel whenever it loads
(``REPRO_C_KERNEL=auto|on``) and in the python loops otherwise.  These
tests run both tiers on snapshots of the same graph — fresh, patched by
``apply_delta`` and adopted from an artifact's memory map — and compare
every read-out; they also pin the fallback contract, the bounds checks
at the C boundary, the per-tier counters and the knobs-read-once rule.
"""

from __future__ import annotations

import os
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ckernel
from repro.core.artifact import load_artifact, save_artifact
from repro.core.ckernel import c_kernel_available
from repro.core.csr import CSRGraph, DeltaCSRGraph, csr_of, kernel_dispatch_stats
from repro.core.errors import GraphError
from repro.core.graph import Graph
from repro.core.snapshot_cache import shared_cache
from repro.ftbfs import build_cons2ftbfs
from repro.generators import erdos_renyi, path_graph, tree_plus_chords

from zoo import graph_zoo, random_restriction

needs_ckernel = pytest.mark.skipif(
    not c_kernel_available(), reason="compiled C kernel unavailable"
)


def resolve(snapshot: CSRGraph, mode: str) -> CSRGraph:
    """Resolve ``snapshot``'s scalar tier under ``REPRO_C_KERNEL=mode``."""
    prev = os.environ.get("REPRO_C_KERNEL")
    os.environ["REPRO_C_KERNEL"] = mode
    try:
        snapshot.stamp_edge_ids((), ())
    finally:
        if prev is None:
            os.environ.pop("REPRO_C_KERNEL", None)
        else:
            os.environ["REPRO_C_KERNEL"] = prev
    return snapshot


def tiers(graph: Graph):
    """A C-bound and a python-bound fresh snapshot of ``graph``."""
    c = resolve(CSRGraph(graph), "on")
    py = resolve(CSRGraph(graph), "off")
    assert c._ck and py._ck is False
    return c, py


def copy_graph(graph: Graph) -> Graph:
    return Graph(graph.n, sorted(graph.edges()))


def assert_same(c: CSRGraph, py: CSRGraph, graph: Graph, rng: random.Random, rounds=6):
    """Every scalar search and read-out agrees on the two snapshots."""
    n = graph.n
    for _ in range(rounds):
        be, bv = random_restriction(graph, rng, forbid=())
        if rng.random() < 0.3:
            bv = []  # edge-only
        elif rng.random() < 0.3:
            be = []  # vertex-only
        ban_c = c.stamp_bans(be, bv)
        ban_p = py.stamp_bans(be, bv)
        assert ban_c[1:] == ban_p[1:]
        # sources and targets include banned vertices on purpose
        for source in rng.sample(range(n), k=min(n, 3)):
            assert c.source_banned(source, ban_c) == py.source_banned(source, ban_p)
            assert c.bfs(source, ban_c) == py.bfs(source, ban_p)
            assert c.collect() == py.collect()
            assert [c.last_distance(v) for v in range(n)] == [
                py.last_distance(v) for v in range(n)
            ]
            target = rng.randrange(n)
            assert c.bfs(source, ban_c, target) == py.bfs(source, ban_p, target)
            assert c.collect() == py.collect()
            c.bfs_dists(source, ban_c)
            py.bfs_dists(source, ban_p)
            assert c.distances_list() == py.distances_list()
            assert [c.last_distance(v) for v in range(n)] == [
                py.last_distance(v) for v in range(n)
            ]
            for t in rng.sample(range(n), k=min(n, 4)):
                assert c.bidir_distance(source, t, ban_c) == py.bidir_distance(
                    source, t, ban_p
                )
            # a point query leaves nothing to read out on either tier
            assert c.collect() == py.collect()
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(8)]
        assert c.bidir_distances(pairs, ban_c) == py.bidir_distances(pairs, ban_p)


@needs_ckernel
@pytest.mark.parametrize("name", [name for name, _ in graph_zoo()])
def test_zoo_graphs_identical_across_tiers(name):
    graph = dict(graph_zoo())[name]
    c, py = tiers(graph)
    assert_same(c, py, graph, random.Random(name))
    assert c._calls_c > 0 and c._calls_py == 0
    assert py._calls_py > 0 and py._calls_c == 0


@needs_ckernel
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    p=st.floats(min_value=0.0, max_value=0.4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_random_graphs_identical_across_tiers(n, p, seed):
    graph = erdos_renyi(n, p, seed=seed)
    c, py = tiers(graph)
    assert_same(c, py, graph, random.Random(seed), rounds=3)


@needs_ckernel
@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=30),
    chords=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
    bind_middle=st.booleans(),
)
def test_delta_overlays_identical_across_tiers(n, chords, seed, bind_middle):
    """Patched snapshots bind C arrays derived from the parent's — also
    through an unbound middle snapshot — and answer like a fresh build."""
    rng = random.Random(seed)
    base = tree_plus_chords(n, chords, seed=seed)
    g_c, g_py = copy_graph(base), copy_graph(base)
    resolve(csr_of(g_c), "on")
    resolve(csr_of(g_py), "off")
    for step in range(2):
        edges = sorted(g_c.edges())
        removes = rng.sample(edges, k=min(2, len(edges)))
        missing = [
            (u, v) for u in range(n) for v in range(u + 1, n) if not g_c.has_edge(u, v)
        ]
        adds = rng.sample(missing, k=min(2, len(missing)))
        for g in (g_c, g_py):
            g.apply_delta(adds=adds, removes=removes)
        snap_c, snap_py = csr_of(g_c), csr_of(g_py)
        assert isinstance(snap_c, DeltaCSRGraph)
        if step == 0 and not bind_middle:
            continue  # leave the middle overlay unbound
        resolve(snap_c, "on")
        resolve(snap_py, "off")
    assert snap_c._ck and snap_py._ck is False
    fresh = CSRGraph(g_c)
    assert list(snap_c._ck.indptr) == list(fresh.indptr)
    assert list(snap_c._ck.nbr) == list(fresh.nbr)
    assert_same(snap_c, snap_py, g_c, rng, rounds=3)
    assert_same(snap_c, resolve(fresh, "off"), g_c, rng, rounds=2)


@needs_ckernel
def test_adopted_artifact_snapshot_identical_and_closes(tmp_path):
    """An artifact's mmap-backed snapshot binds private copies: answers
    match the python tier and the artifact still closes (no buffer of
    the mapping stays exported)."""
    structure = build_cons2ftbfs(erdos_renyi(30, 0.15, seed=8), 0)
    path = save_artifact(structure, tmp_path / "h.bin")
    art = load_artifact(path)
    sub = art.subgraph()
    adopted = csr_of(sub)
    assert isinstance(adopted.indptr, memoryview)
    resolve(adopted, "on")
    py = resolve(CSRGraph(sub), "off")
    assert_same(adopted, py, sub, random.Random(3))
    # a delta on the adopted snapshot patches from the bound copies
    removed = sorted(sub.edges())[:1]
    sub.apply_delta(removes=removed)
    child = resolve(csr_of(sub), "on")
    assert isinstance(child, DeltaCSRGraph) and child._ck
    assert_same(child, resolve(CSRGraph(sub), "off"), sub, random.Random(4))
    art.close()


def test_broken_library_auto_falls_back_on_raises(monkeypatch):
    graph = erdos_renyi(25, 0.2, seed=4)
    want = resolve(CSRGraph(graph), "off")
    monkeypatch.setattr(ckernel, "_load_state", (None, "simulated broken extension"))
    monkeypatch.setenv("REPRO_C_KERNEL", "auto")
    snap = CSRGraph(graph)
    ban = snap.stamp_bans([sorted(graph.edges())[0]], [])
    assert snap._ck is False  # silent fallback
    ban_want = want.stamp_bans([sorted(graph.edges())[0]], [])
    assert snap.bfs(0, ban) == want.bfs(0, ban_want)
    assert snap.collect() == want.collect()
    monkeypatch.setenv("REPRO_C_KERNEL", "on")
    with pytest.raises(RuntimeError, match="simulated broken extension"):
        CSRGraph(graph).stamp_bans()


def test_tier_resolved_once_per_snapshot(monkeypatch):
    """REPRO_C_KERNEL is read at the first stamp, not per call."""
    graph = path_graph(8)
    monkeypatch.setenv("REPRO_C_KERNEL", "off")
    snap = CSRGraph(graph)
    ban = snap.stamp_bans()
    monkeypatch.setenv("REPRO_C_KERNEL", "on")
    assert snap.bfs(0, ban) == -1 and snap._ck is False
    assert snap.distances_list() == list(range(8))


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
def test_dispatch_stats_after_default_build(monkeypatch):
    graph = tree_plus_chords(40, 12, seed=2)
    shared_cache().clear()
    build_cons2ftbfs(graph, 0)
    stats = kernel_dispatch_stats(graph)
    assert stats is not None
    assert stats["scalar_c"] + stats["scalar_python"] > 0
    if c_kernel_available():
        assert stats["scalar_python"] == 0
    else:
        assert stats["scalar_c"] == 0
    assert kernel_dispatch_stats(graph, reset=True) == stats
    assert kernel_dispatch_stats(graph)["scalar_c"] == 0
    monkeypatch.setenv("REPRO_C_KERNEL", "off")
    python_graph = copy_graph(graph)
    shared_cache().clear()
    build_cons2ftbfs(python_graph, 0)
    stats = kernel_dispatch_stats(python_graph)
    assert stats["scalar_c"] == 0 and stats["scalar_python"] > 0


def test_knobs_read_once_per_build(monkeypatch):
    """A build reads each planner/cache knob a bounded number of times,
    not once per query."""
    reads = {}
    environ_type = type(os.environ)
    real_get = environ_type.get

    def counting_get(self, key, default=None):
        reads[key] = reads.get(key, 0) + 1
        return real_get(self, key, default)

    graph = tree_plus_chords(60, 20, seed=9)
    shared_cache().clear()
    monkeypatch.setattr(environ_type, "get", counting_get)
    build_cons2ftbfs(graph, 0)
    monkeypatch.undo()
    for knob in (
        "REPRO_SEARCH_CACHE_INTS",
        "REPRO_VEC_CACHE_INTS",
        "REPRO_BATCH_SWEEP_MIN",
        "REPRO_BATCH_REPAIR_MAX",
        "REPRO_QUERY_BATCH",
        "REPRO_C_KERNEL",
    ):
        assert reads.get(knob, 0) <= 2, (knob, reads.get(knob))


# ----------------------------------------------------------------------
# bounds at the C boundary
# ----------------------------------------------------------------------
@needs_ckernel
def test_multi_pair_rejects_out_of_range_ids():
    """An edge id past the ban table used to crash the process."""
    from repro.core.bulk import bulk_of

    ck = bulk_of(path_graph(600))._ckernel()
    with pytest.raises(GraphError):
        ck.multi_pair_dists([(0, 599, [10**6], [])])
    with pytest.raises(GraphError):
        ck.multi_pair_dists([(0, 600, [], [])])
    with pytest.raises(GraphError):
        ck.multi_pair_dists([(-1, 5, [], [])])
    with pytest.raises(GraphError):
        ck.multi_pair_dists([(0, 5, [], [10**9])])
    with pytest.raises(GraphError):
        ck.multi_pair_dists([(0, 5, [2**40], [])])
    with pytest.raises(GraphError):
        ck.multi_target_dists(0, [600], [], [])
    with pytest.raises(GraphError):
        ck.multi_target_dists(700, [1], [], [])
    with pytest.raises(GraphError):
        ck.multi_target_dists(0, [1], [-3], [])
    assert ck.multi_pair_dists([(0, 599, [], [])]) == [599]


@needs_ckernel
def test_scalar_seam_rejects_out_of_range_endpoints():
    snap = resolve(CSRGraph(path_graph(10)), "on")
    ban = snap.stamp_bans()
    for call in (
        lambda: snap.bfs(10, ban),
        lambda: snap.bfs_dists(-1, ban),
        lambda: snap.bidir_distance(0, 10, ban),
        lambda: snap.bidir_distances([(0, 3), (11, 2)], ban),
    ):
        with pytest.raises(GraphError):
            call()
    assert snap.bfs(0, ban, 9) == 9


@needs_ckernel
def test_binding_validates_foreign_topology():
    lib, _ = ckernel.load_c_library()
    good = (array("q", [0, 1, 2, 2]), array("i", [1, 0]), array("i", [0, 0]))
    ckernel.ScalarBinding(lib, 3, 1, *good, check=True)
    bad_nbr = (good[0], array("i", [1, 7]), good[2])
    bad_eid = (good[0], good[1], array("i", [0, 4]))
    bad_ptr = (array("q", [0, 2, 1, 2]), good[1], good[2])
    for arrays in (bad_nbr, bad_eid, bad_ptr):
        with pytest.raises(GraphError):
            ckernel.ScalarBinding(lib, 3, 1, *arrays, check=True)

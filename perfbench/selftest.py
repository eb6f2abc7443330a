"""Self-test of the benchmark's own arithmetic on synthetic inputs.

Runs at the start of every benchmark run; also runnable on its own:
``python3 perfbench/selftest.py``.
"""

import random
import statistics
import sys

import hostref
import refcheck
import spans
from stats import REF_NOMINAL_S, Outcomes, normalized, quantile, summary, wire_ms


def _check(cond, what):
    if not cond:
        raise AssertionError(what)


def test_quantile_rank():
    _check(quantile([3.0], 0.25) == 3.0, "one sample")
    _check(quantile([4.0, 1.0, 3.0, 2.0], 0.0) == 1.0, "q=0 is the minimum")
    _check(quantile([4.0, 1.0, 3.0, 2.0], 1.0) == 4.0, "q=1 is the maximum")
    _check(quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.25) == 2.0, "exact rank")
    _check(abs(quantile([1.0, 2.0, 3.0, 4.0], 0.25) - 1.75) < 1e-12, "interpolated rank")
    rng = random.Random(1)
    xs = [rng.random() for _ in range(101)]
    ref = statistics.quantiles(xs, n=4, method="inclusive")
    _check(abs(quantile(xs, 0.25) - ref[0]) < 1e-12, "p25 matches statistics")
    _check(abs(quantile(xs, 0.5) - statistics.median(xs)) < 1e-12, "p50 is the median")
    s = summary(list(range(1, 101)))
    _check(s["n"] == 100 and abs(s["p99"] - 99.01) < 1e-9, "p99 of 1..100")
    try:
        quantile([], 0.5)
    except ValueError:
        pass
    else:
        raise AssertionError("quantile of no samples must raise")


def _synthetic_recorder():
    """root [0,100] > a [10,40] > a1 [15,25]; root > b [50,90] > gc [60,70];
    a second root r2 [200,230]."""
    rec = spans.Recorder()
    rows = [("root", 0, 100, -1), ("a", 10, 40, 0), ("a1", 15, 25, 1),
            ("b", 50, 90, 0), (spans.GC, 60, 70, 3), ("r2", 200, 230, -1)]
    for name, start, end, parent in rows:
        rec.name.append(rec.name_id(name))
        rec.start.append(start)
        rec.end.append(end)
        rec.parent.append(parent)
        rec.req.append(0)
    return rec


def test_self_time_nested():
    rec = _synthetic_recorder()
    selected, self_ns = spans.self_times(rec, {0})
    _check(selected == [0, 1, 2, 3, 4], "only the tree under root 0")
    _check([self_ns[i] for i in selected] == [30, 20, 10, 30, 10], "self times")
    _check(sum(self_ns.values()) == 100, "self times sum to the root duration")
    _, all_ns = spans.self_times(rec)
    _check(sum(all_ns.values()) == 130, "every root")
    totals = spans.layer_totals(rec, selected, self_ns)
    _check(totals[spans.GC] == [10, 1], "gc counted as its own layer")
    tree = spans.layer_tree(rec, selected, self_ns)
    _check(tree[("root", "b")] == [30, 40, 1], "tree node self/inclusive/calls")
    # A span named like its parent folds into the parent's node.
    rec.name[2] = rec.name_id("a")
    tree = spans.layer_tree(rec, *spans.self_times(rec, {0}))
    _check(tree[("root", "a")] == [30, 30, 1], "recursion folds into the parent")
    wall = 120
    _check(wall - sum(self_ns.values()) == 20, "unattributed = wall - self times")


def test_recorder_nesting():
    rec = spans.Recorder()
    outer = rec.begin(rec.name_id("outer"))
    inner = rec.begin(rec.name_id("inner"))
    rec.finish(inner)
    rec.finish(outer)
    _check(list(rec.parent) == [-1, 0], "parent links follow the call stack")
    _check(rec.start[0] <= rec.start[1] <= rec.end[1] <= rec.end[0], "nested intervals")


def test_error_rate_counting():
    o = Outcomes()
    _check(o.error_rate == 1.0, "nothing attempted counts as failing")
    for ok in (True, True, False, True):
        o.record(ok, "refused")
    o.fail("wrong answer found later")
    _check((o.attempted, o.failed) == (4, 2), "attempted and failed counts")
    _check(o.error_rate == 0.5, "error_rate = failed / attempted")
    _check(o.messages == ["refused", "wrong answer found later"], "messages kept")


def test_wire():
    _check(wire_ms(0.30, 0.07) == 0.30 - 0.07, "wire = client - handle")
    _check(wire_ms(1.0, 1.0) == 0.0, "no wire when equal")


def test_normalized():
    _check(normalized(0.5, REF_NOMINAL_S, REF_NOMINAL_S) == 0.5, "nominal host: unchanged")
    _check(abs(normalized(0.5, 2 * REF_NOMINAL_S, 2 * REF_NOMINAL_S) - 0.25) < 1e-15,
           "a host half as fast halves the time")
    _check(abs(normalized(0.3, 1e-3, 2e-3) - 0.3 * REF_NOMINAL_S / 1.5e-3) < 1e-15,
           "the mean of the two reference blocks")
    # A host slowing down uniformly leaves the normalized time unchanged.
    _check(abs(normalized(0.4 * 1.7, 1.7e-3, 1.7e-3) - normalized(0.4, 1e-3, 1e-3)) < 1e-15,
           "a uniform slowdown cancels")


def test_host_reference():
    rng = random.Random(3)
    n = 60
    es = sorted({refcheck.edge(rng.randrange(n), rng.randrange(n)) for _ in range(90)})
    es = [e for e in es if e[0] != e[1]]
    ref = hostref.Reference(n, es)
    adj = refcheck.adjacency(n, es)
    for source in (0, 7, 59):
        _check(ref.distances(source) == refcheck.bfs(adj, source), "reference BFS distances")
    _check(ref.seconds_per_bfs(3) > 0.0, "reference timing")


def test_reference_checker():
    # A 4-cycle 0-1-2-3-0 with a pendant 4 on 2.
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4)]
    adj = refcheck.adjacency(5, edges)
    _check(refcheck.bfs(adj, 0) == [0, 1, 2, 1, 3], "plain BFS")
    _check(refcheck.bfs(adj, 0, [(1, 2), (3, 2)]) == [0, 1, -1, 1, -1], "cut")
    for t in range(5):
        for banned in ([], [(0, 1)], [(0, 1), (2, 3)]):
            _check(refcheck.distance(adj, 0, t, banned) == refcheck.bfs(adj, 0, banned)[t],
                   "bidirectional distance equals BFS")
    rng = random.Random(2)
    for _ in range(20):
        n = 40
        es = {refcheck.edge(rng.randrange(n), rng.randrange(n)) for _ in range(70)}
        es = [e for e in es if e[0] != e[1]]
        radj = refcheck.adjacency(n, es)
        banned = rng.sample(es, 3)
        dist = refcheck.bfs(radj, 0, banned)
        _check(all(refcheck.distance(radj, 0, t, banned) == dist[t] for t in range(n)),
               "bidirectional distance equals BFS on random graphs")
    _check(refcheck.is_path(adj, [(0, 1)], 0, 4, [0, 3, 2, 4], 3), "valid path")
    _check(not refcheck.is_path(adj, [(2, 3)], 0, 4, [0, 3, 2, 4], 3), "banned edge")
    m = refcheck.step_metrics([0], {0: [0, 1, 2, 1, 3]}, {0: [0, 3, 2, 1, -1]})
    _check(m["affected_pairs"] == 2 and m["disconnected_pairs"] == 1, "affected pairs")
    _check(m["max_stretch"] == 3.0 and m["max_added_hops"] == 2, "stretch")
    _check(refcheck.edge_digest([(1, 0)]) == refcheck.edge_digest([(0, 1)]), "digest order")


TESTS = [test_quantile_rank, test_self_time_nested, test_recorder_nesting,
         test_error_rate_counting, test_wire, test_normalized,
         test_host_reference, test_reference_checker]


def run():
    """Run every self-test; raises AssertionError on the first failure."""
    for test in TESTS:
        test()


if __name__ == "__main__":
    try:
        run()
    except AssertionError as err:
        print(f"self-test failed: {err}")
        sys.exit(1)
    print(f"{len(TESTS)} self-tests passed")

"""Reference answers for the benchmark, sharing no code with ``repro``.

Everything here is a dict-of-sets breadth-first search over plain edge
lists: no CSR arrays, no caches, no batching, no import from the
package under test.  The benchmark checks every answer the program
gives against these functions, so a bug in a kernel, planner, cache or
delta migration cannot certify itself.
"""

from __future__ import annotations

import hashlib
from collections import deque


def edge(u, v):
    """An undirected edge as a sorted pair."""
    u, v = int(u), int(v)
    return (u, v) if u < v else (v, u)


def adjacency(n, edges):
    """Vertex -> set of neighbours."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def bfs(adj, source, banned=()):
    """Hop distances from ``source`` avoiding ``banned`` edges; -1 if cut."""
    banned = {edge(*e) for e in banned}
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for w in adj[u]:
            if dist[w] < 0 and (u if u < w else w, w if u < w else u) not in banned:
                dist[w] = du
                queue.append(w)
    return dist


def distance(adj, s, t, banned=()):
    """Hop distance from ``s`` to ``t`` by bidirectional search; -1 if cut."""
    if s == t:
        return 0
    banned = {edge(*e) for e in banned}
    seen = ({s: 0}, {t: 0})
    frontier = ([s], [t])
    while frontier[0] and frontier[1]:
        side = 0 if len(frontier[0]) <= len(frontier[1]) else 1
        mine, other = seen[side], seen[1 - side]
        best = -1
        nxt = []
        for u in frontier[side]:
            du = mine[u] + 1
            for w in adj[u]:
                if (u if u < w else w, w if u < w else u) in banned or w in mine:
                    continue
                if w in other:
                    total = du + other[w]
                    if best < 0 or total < best:
                        best = total
                mine[w] = du
                nxt.append(w)
        if best >= 0:
            return best
        frontier = (nxt, frontier[1]) if side == 0 else (frontier[0], nxt)
    return -1


def edge_digest(edges):
    """SHA-256 of the sorted edge list, one ``u v`` line per edge."""
    text = "".join(f"{u} {v}\n" for u, v in sorted(edge(*e) for e in edges))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def is_path(adj, banned, s, t, vertices, hops):
    """True iff ``vertices`` walks s -> t in ``hops`` edges avoiding ``banned``."""
    banned = {edge(*e) for e in banned}
    if len(vertices) != hops + 1 or vertices[0] != s or vertices[-1] != t:
        return False
    return all(
        b in adj[a] and edge(a, b) not in banned
        for a, b in zip(vertices, vertices[1:])
    )


def ft_sample_mismatches(n, g_edges, h_edges, source, rng, pairs):
    """Sampled fault-tolerance check of ``H`` against ``G`` from ``source``.

    Checks F = {}, then ``pairs`` fault sets of size 1 and 2 whose first
    edge lies on a BFS tree of H and whose second lies on a BFS tree of
    H minus the first, so every sampled fault cuts a shortest path.
    Returns one message per fault set where dist(H \\ F) != dist(G \\ F).
    """
    g_adj = adjacency(n, g_edges)
    h_adj = adjacency(n, h_edges)
    bad = []

    def compare(faults):
        if bfs(g_adj, source, faults) != bfs(h_adj, source, faults):
            bad.append(f"dist(H \\ F) != dist(G \\ F) for F={sorted(faults)}")

    def tree_edges(faults):
        dist = bfs(h_adj, source, faults)
        banned = {edge(*e) for e in faults}
        return sorted(
            edge(u, w)
            for u in range(n) if dist[u] > 0
            for w in h_adj[u]
            if dist[w] == dist[u] - 1 and edge(u, w) not in banned
        )

    compare(())
    first_choices = tree_edges(())
    for _ in range(pairs):
        e1 = rng.choice(first_choices)
        compare((e1,))
        second = tree_edges((e1,))
        if second:
            compare((e1, rng.choice(second)))
    return bad


def step_metrics(sources, base, now):
    """Recovery metrics of one failure step, as documented for sweeps.

    ``base`` and ``now`` map a source to its hop-distance list (-1 =
    unreachable) before the scenario and at this step.  A pair is
    affected when its distance changed, disconnected when it became
    unreachable; stretch is new/old distance over the affected pairs
    that stay connected.
    """
    affected = disconnected = max_added = 0
    stretches = []
    for s in sources:
        for b, d in zip(base[s], now[s]):
            if b == d:
                continue
            affected += 1
            if d < 0:
                disconnected += 1
                continue
            max_added = max(max_added, d - b)
            stretches.append(d / b)
    return {
        "affected_pairs": affected,
        "disconnected_pairs": disconnected,
        "max_added_hops": max_added,
        "max_stretch": max(stretches) if stretches else None,
        "mean_stretch": sum(stretches) / len(stretches) if stretches else None,
    }


def sweep_mismatches(report, n, edges, names):
    """Check every step of a sweep report against reference BFS.

    ``edges`` is the topology's edge list and ``names`` its vertex
    names (index = vertex id); edge names in the report are
    ``"a-b"`` joins of vertex names.  Returns mismatch messages.
    """
    index = {name: i for i, name in enumerate(names)}
    by_name = {}
    for u, v in edges:
        by_name[f"{names[u]}-{names[v]}"] = edge(u, v)
        by_name[f"{names[v]}-{names[u]}"] = edge(u, v)
    adj = adjacency(n, edges)
    sources = [index[s["name"]] for s in report["sources"]]
    base = {s: bfs(adj, s) for s in sources}
    bad = []
    for scenario in report["scenarios"]:
        removed = set()
        for i, step in enumerate(scenario["steps"]):
            removed.difference_update(by_name[x] for x in step["adds"])
            removed.update(by_name[x] for x in step["removes"])
            now = {s: bfs(adj, s, removed) for s in sources}
            want = step_metrics(sources, base, now)
            for key, value in want.items():
                got = step[key]
                same = (got is None and value is None) or (
                    got is not None and value is not None
                    and abs(got - value) <= 1e-9 * max(1.0, abs(value))
                )
                if not same:
                    bad.append(
                        f"{scenario['id']} step {i}: {key} {got!r} != {value!r}"
                    )
            if step["faults_active"] != len(removed):
                bad.append(f"{scenario['id']} step {i}: faults_active")
    return bad


def report_body(report):
    """A sweep report without its volatile ``run`` block."""
    return {k: v for k, v in report.items() if k != "run"}

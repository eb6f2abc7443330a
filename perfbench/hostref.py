"""The host-speed reference every timed operation is normalized by.

A breadth-first search of one fixed graph over flat Python lists: CSR
offsets and targets, a stamped visit array and an array queue.  That
is the same kind of list-index traffic as the program's python CSR
kernel, so the reference slows down with the host the way the program
does, yet it is written here and shares no code with ``repro``: no
change to the program can move it.  README.md, "Host-normalized
times", gives the measurements behind the choice.
"""

from __future__ import annotations

import gc
import time


class Reference:
    """A fixed graph and a pooled BFS over it."""

    def __init__(self, n, edges):
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        self.offsets = [0]
        for nbrs in adj:
            self.offsets.append(self.offsets[-1] + len(nbrs))
        self.targets = [w for nbrs in adj for w in sorted(nbrs)]
        self.visit = [0] * n
        self.dist = [0] * n
        self.queue = [0] * n
        self.gen = 0

    def bfs(self, source):
        """Search from ``source``; returns the number of vertices reached.

        ``self.dist[v]`` is valid for ``v`` in ``self.queue[:count]``.
        """
        self.gen += 1
        gen = self.gen
        offsets, targets = self.offsets, self.targets
        visit, dist, queue = self.visit, self.dist, self.queue
        visit[source] = gen
        dist[source] = 0
        queue[0] = source
        head, tail = 0, 1
        while head < tail:
            u = queue[head]
            head += 1
            du = dist[u] + 1
            for i in range(offsets[u], offsets[u + 1]):
                w = targets[i]
                if visit[w] != gen:
                    visit[w] = gen
                    dist[w] = du
                    queue[tail] = w
                    tail += 1
        return tail

    def distances(self, source):
        """Hop distances from ``source``; -1 where unreachable."""
        out = [-1] * len(self.visit)
        for v in self.queue[:self.bfs(source)]:
            out[v] = self.dist[v]
        return out

    def seconds_per_bfs(self, runs):
        """Time ``runs`` searches (sources 0, 1, ...) with the collector off,
        so that a collection owed by the workload does not land in them."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for source in range(runs):
                self.bfs(source)
            return (time.perf_counter() - t0) / runs
        finally:
            if enabled:
                gc.enable()

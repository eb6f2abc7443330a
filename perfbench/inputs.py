"""Seeded workload inputs, generated by the benchmark itself.

The program receives only the generated edge lists and blueprint
documents, never the seed.  Same seed, same inputs.

The build graphs and the served ER graph are fixed random graphs whose
vertex labels the seed permutes (vertex 0, the source, stays put).  How much work a
``cons2`` build does depends strongly on the shape of the graph: on
fresh random chords graphs the snapshot-cache lookups of one build
ranged 53k-88k over six seeds, while relabelings of one graph stay
within 2% of each other.  Relabeling still changes every vertex id the
program sees, so no answer can be memorized across seeds.
"""

from __future__ import annotations

import random

N = 1000
CHORDS = 300
ER_P = 0.008
#: The ``build`` graphs: the n = 1000 shapes (30% chords; average ER
#: degree 8) at half the size, so one build takes about 1.5 s and a
#: run holds enough builds for a steady median (README.md).
BUILD_N = 500
BUILD_CHORDS = 150
BUILD_ER_P = 0.016
TORUS = (32, 32)
SWEEP_SOURCES = (0, 300, 700)
#: Seed of the base graphs that ``--seed`` relabels.
BASE_SEED = 20


def _random_tree(n, rng):
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    return edges


def relabel(edges, seed, n=N):
    """``edges`` under a seeded permutation of the vertices that fixes 0."""
    rng = random.Random(f"relabel:{seed}")
    rest = list(range(1, n))
    rng.shuffle(rest)
    perm = [0] + rest
    return sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
    )


def build_chords_edges(seed):
    """The ``build`` chords graph (n = 500, 150 chords) relabeled by ``seed``."""
    return relabel(_chords(BASE_SEED, BUILD_N, BUILD_CHORDS), seed, BUILD_N)


def build_er_edges(seed):
    """The ``build`` ER graph (n = 500, p = 0.016) relabeled by ``seed``."""
    return relabel(_er(BASE_SEED, BUILD_N, BUILD_ER_P), seed, BUILD_N)


def er_edges(seed):
    """The served ER graph (n = 1000, p = 0.008) relabeled by ``seed``."""
    return relabel(_er(BASE_SEED), seed)


def reference_edges():
    """The fixed graph of the host-speed reference BFS: the base ER graph.

    It does not depend on ``--seed``, so the reference does the same
    work in every run.
    """
    return _er(BASE_SEED)


def _chords(seed, n=N, chords=CHORDS):
    """A random tree on ``n`` vertices plus ``chords`` distinct extra edges."""
    rng = random.Random(f"chords:{seed}")
    edges = _random_tree(n, rng)
    target = len(edges) + chords
    while len(edges) < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def _er(seed, n=N, p=ER_P):
    """G(n, p) plus a random spanning tree, so the graph is connected."""
    rng = random.Random(f"er:{seed}")
    edges = _random_tree(n, rng)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return sorted(edges)


def torus_blueprint(seed):
    """The sweep blueprint: 32x32 torus, 16 dual links, 8 SRLGs, 6 waves."""
    return {
        "format": "repro-scenario-blueprint",
        "version": 1,
        "name": "perfbench-torus",
        "seed": seed,
        "topology": f"torus:rows={TORUS[0]},cols={TORUS[1]}",
        "scenarios": [
            {"kind": "dual_link", "count": 16},
            {"kind": "srlg", "size": 3, "count": 8},
            {"kind": "maintenance", "waves": 6, "wave_size": 2},
        ],
        "sources": list(SWEEP_SOURCES),
    }


def torus_named_edges(rows=TORUS[0], cols=TORUS[1]):
    """The torus edge set by vertex name, as the topology docs define it."""
    def name(r, c):
        return f"t{r:0{len(str(rows - 1))}d}x{c:0{len(str(cols - 1))}d}"

    out = set()
    for r in range(rows):
        for c in range(cols):
            out.add(frozenset((name(r, c), name(r, (c + 1) % cols))))
            out.add(frozenset((name(r, c), name((r + 1) % rows, c))))
    return out

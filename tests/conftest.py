"""Seeded random-graph generators shared across the test modules."""

import numpy as np

from resistnet import build_graph

# one line per acceptance criterion, filled in by test_acceptance.py and
# printed after the run so the verdicts are visible even under capture
ACCEPTANCE_LINES = {}


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for key in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(ACCEPTANCE_LINES[key])


def random_connected_positive(rng, n_max=8, extra_prob=0.3, w_lo=0.2, w_hi=3.0):
    """Random tree on 2..n_max nodes plus extra edges, weights in [w_lo, w_hi]."""
    n = int(rng.integers(2, n_max + 1))
    pairs = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in pairs and rng.random() < extra_prob:
                pairs.add((u, v))
    edges = [(u, v, float(rng.uniform(w_lo, w_hi))) for u, v in sorted(pairs)]
    return build_graph(n, edges)


def random_signed(rng, n_max=8, neg_prob=0.35):
    """Connected skeleton with a random subset of weights flipped negative."""
    g = random_connected_positive(rng, n_max)
    edges = [(u, v, -w if rng.random() < neg_prob else w) for u, v, w in g.edges]
    return build_graph(g.node_count, edges)


def random_cactus(rng, n_cap=10, w_lo=0.2, w_hi=3.0):
    """Chain of blocks (bridges or cycles) joined at cut nodes.

    Returns (graph, blocks) where blocks is a list of edge-index tuples, one
    per block.  Every simple path between two nodes of a block stays inside
    that block, so edges of distinct blocks have disjoint path supports.
    """
    edges = []
    blocks = []
    attach = 0
    n = 1
    while True:
        remaining = n_cap - n
        if remaining < 1 or (len(blocks) >= 2 and rng.random() < 0.35):
            break
        if remaining < 2 or rng.random() < 0.4:
            edges.append((attach, n, float(rng.uniform(w_lo, w_hi))))
            blocks.append((len(edges) - 1,))
            attach = n
            n += 1
        else:
            k = int(rng.integers(3, min(5, remaining + 1) + 1))
            ring = [attach] + list(range(n, n + k - 1))
            block = []
            for i in range(k):
                u, v = ring[i], ring[(i + 1) % k]
                edges.append((min(u, v), max(u, v), float(rng.uniform(w_lo, w_hi))))
                block.append(len(edges) - 1)
            blocks.append(tuple(block))
            attach = ring[-1]
            n += k - 1
    return build_graph(n, edges), blocks


def triangle_chain(count):
    """Unit triangles (2i, 2i+1, 2i+2) joined at cut nodes: 3*count edges,
    one block per triangle."""
    edges = []
    for i in range(count):
        a, b, c = 2 * i, 2 * i + 1, 2 * i + 2
        edges += [(a, b, 1.0), (a, c, 1.0), (b, c, 1.0)]
    return build_graph(2 * count + 1, edges)


def random_cut_signed(rng, magnitude, n_max=8):
    """Two positive connected blobs joined only by negative edges.

    The negative edges disconnect the positive subgraph by construction.
    """
    na = int(rng.integers(2, max(3, n_max // 2) + 1))
    nb = int(rng.integers(2, n_max - na + 1))

    def blob(lo, size):
        pairs = {(lo + int(rng.integers(0, i)), lo + i) for i in range(1, size)}
        for u in range(lo, lo + size):
            for v in range(u + 1, lo + size):
                if (u, v) not in pairs and rng.random() < 0.3:
                    pairs.add((u, v))
        return pairs

    edges = [(u, v, float(rng.uniform(0.2, 3.0)))
             for u, v in sorted(blob(0, na) | blob(na, nb))]
    cross_count = int(rng.integers(1, 4))
    seen = set()
    for _ in range(cross_count):
        u = int(rng.integers(0, na))
        v = int(rng.integers(na, na + nb))
        if (u, v) not in seen:
            seen.add((u, v))
            edges.append((u, v, -float(magnitude)))
    return build_graph(na + nb, edges)

"""Seeded inputs: random geometric graphs and small signed graph families.

Everything is drawn from ``numpy.random.Generator`` objects built from the
benchmark seed, so the program under test only ever sees finished edge
lists.  The *shape* of every input (node count, edge count, block
structure, which edges carry negative weight) is fixed by its position in
the input set and never by the seed; the seed picks geometry, weights,
labels and edge order.  That keeps the work per run, and the per-layer
call counts, the same for every seed.
"""

from __future__ import annotations

import math

import numpy as np

from oracle import component_count, laplacian_pinv, pair_resistances

# weights r/d on a geometric graph are capped so that the largest Laplacian
# eigenvalue (at most twice the largest weighted degree) stays well inside
# the step guard of a fixed dt = 0.01 integrator
RGG_WEIGHT_CAP = 2.0
RGG_MAX_WEIGHTED_DEGREE = 75.0


def rgg_radius(n):
    """Nominal connection radius 1.9 * sqrt(ln n / (pi n))."""
    return 1.9 * math.sqrt(math.log(n) / (math.pi * n))


def rgg_edge_count(n):
    """Expected edge count of a unit-square geometric graph at the nominal radius."""
    r = rgg_radius(n)
    p = math.pi * r * r - 8.0 / 3.0 * r ** 3 + 0.5 * r ** 4
    return int(round(n * (n - 1) / 2 * p))


def rgg(rng, n):
    """Connected geometric graph on n uniform points with exactly ``rgg_edge_count(n)`` edges.

    The closest pairs are joined, so the effective radius is the distance
    of the last pair taken; it stays within a few percent of the nominal
    radius, while the edge count (which sets the cost of every dense
    kernel) does not vary with the seed.  Weights are r/d capped at
    ``RGG_WEIGHT_CAP``; edges are listed in lexicographic pair order.
    """
    m = rgg_edge_count(n)
    iu, ju = np.triu_indices(n, 1)
    while True:
        pts = rng.random((n, 2))
        d = np.hypot(pts[iu, 0] - pts[ju, 0], pts[iu, 1] - pts[ju, 1])
        take = np.sort(np.argpartition(d, m - 1)[:m])
        r = float(d[take].max())
        w = np.minimum(r / d[take], RGG_WEIGHT_CAP)
        edges = [(int(a), int(b), float(x)) for a, b, x in zip(iu[take], ju[take], w)]
        degree = np.zeros(n)
        np.add.at(degree, iu[take], w)
        np.add.at(degree, ju[take], w)
        if degree.max() < RGG_MAX_WEIGHTED_DEGREE and component_count(n, edges) == 1:
            return edges


# ----------------------------------------------------------- small signed
#
# Block tokens: "b" bridge, "cK" K-cycle, "hK" K-cycle with one chord.
# A chain of blocks hangs each block on a random node already placed, so
# blocks meet only at cut nodes and every simple path between two nodes of
# a block stays inside it.

def _block_chain(rng, tokens, start=0):
    """Positive chain of blocks; returns (node count, edges, blocks).

    ``blocks`` lists, per block, its edge positions and its ring of nodes
    (in cycle order) so callers can pick chords or cycle edges.
    """
    edges, blocks = [], []
    n = start + 1
    for token in tokens:
        attach = int(rng.integers(start, n))
        size = 2 if token == "b" else int(token[1:])
        ring = [attach] + list(range(n, n + size - 1))
        n += size - 1
        first = len(edges)
        if token == "b":
            edges.append((ring[0], ring[1]))
        else:
            edges.extend((ring[i], ring[(i + 1) % size]) for i in range(size))
            if token[0] == "h":
                edges.append((ring[0], ring[2]))
        blocks.append((list(range(first, len(edges))), ring))
    weighted = [(u, v, float(rng.uniform(0.5, 2.0))) for u, v in edges]
    return n - start, weighted, blocks


def _relabel(rng, n, edges, marks):
    """Random node labels and edge order; ``marks`` edge positions follow the shuffle."""
    perm = rng.permutation(n)
    order = rng.permutation(len(edges))
    where = {int(old): new for new, old in enumerate(order)}
    out = [(int(perm[edges[k][0]]), int(perm[edges[k][1]]), edges[k][2]) for k in order]
    return out, {name: [where[k] for k in ks] for name, ks in marks.items()}


def _resistance(n, edges, u, v):
    return float(pair_resistances(laplacian_pinv(n, edges), [(u, v)])[0])


# (family, tokens, extra): extra is a family parameter, see small_signed_graph
SMALL_TEMPLATES = (
    ("positive", ("c3", "c3", "c3"), "disjoint"),
    ("positive", ("h4", "b", "c3"), "overlap"),
    ("positive", ("h5", "c4", "b", "b"), "disjoint"),
    ("positive", ("h6", "h5", "c3"), "overlap"),
    ("positive", ("c4", "c4", "c4", "c3"), "disjoint"),
    ("positive", ("c6", "h5", "b", "b", "c3"), "overlap"),
    ("positive", ("b", "c3", "b", "c4", "b"), "disjoint"),
    ("positive", ("h6", "h6"), "disjoint"),
    ("one_negative", ("c5", "c3", "b"), 0.5),
    ("one_negative", ("c5", "c3", "b"), 2.0),
    ("one_negative", ("c6", "c4", "b", "b"), 0.5),
    ("one_negative", ("c6", "c4", "b", "b"), 2.0),
    ("negative_cut", (("c3", "c3"), ("c4", "b")), 1),
    ("negative_cut", (("h4", "b"), ("c3", "c3")), 2),
    ("cactus", ("c4", "c5", "c3", "c4"), "stable"),
    ("cactus", ("c4", "c5", "c3", "c4"), "unstable"),
    ("cactus", ("c3", "c4", "b", "c5"), "stable"),
    ("cactus", ("c5", "b", "c4", "c3"), "unstable"),
)


def small_signed_graph(rng, template):
    """One signed graph of a template; returns a dict describing it.

    Keys: ``family``, ``n``, ``edges`` (u, v, w), ``negative`` (edge
    indices carrying negative weight), ``blocks`` (edge-index lists of the
    biconnected blocks, known from the construction; empty for the unstable
    ``negative_cut`` family) and ``set_kind``.

    Families:
    - ``positive``: a chain of blocks, all weights positive;
    - ``one_negative``: a positive chain plus one negative chord inside the
      first cycle, of magnitude extra * 1/R across its endpoints;
    - ``negative_cut``: two positive chains joined only by ``extra``
      negative edges, so the negative edges contain a cut;
    - ``cactus``: a chain of cycles in which all but the last cycle carry
      one negative edge, each at a fraction of its threshold 1/R over the
      rest of its cycle; ``unstable`` puts the first one at 1.5x.
    """
    family, tokens, extra = template
    if family == "negative_cut":
        n1, e1, b1 = _block_chain(rng, tokens[0])
        n2, e2, b2 = _block_chain(rng, tokens[1], start=n1)
        n = n1 + n2
        cross = set()
        while len(cross) < extra:
            cross.add((int(rng.integers(0, n1)), int(rng.integers(n1, n))))
        negative = list(range(len(e1) + len(e2), len(e1) + len(e2) + extra))
        edges = e1 + e2 + [(u, v, -float(rng.uniform(0.5, 2.0))) for u, v in sorted(cross)]
        blocks, set_kind = [], None  # unstable: no margin questions, so no uncertain set
    else:
        n, edges, chain = _block_chain(rng, tokens)
        blocks = [b for b, _ in chain]
        negative = []
        set_kind = extra if family == "positive" else "disjoint"
        if family == "one_negative":
            ring = chain[0][1]
            i = int(rng.integers(0, len(ring)))
            u, v = ring[i], ring[(i + 2) % len(ring)]
            mag = extra / _resistance(n, edges, u, v)
            edges.append((u, v, -mag))
            negative = [len(edges) - 1]
            blocks[0].append(negative[0])
        elif family == "cactus":
            cycles = [(b, ring) for b, ring in chain if len(b) > 1][:-1]
            for j, (b, ring) in enumerate(cycles):
                k = b[int(rng.integers(0, len(b)))]
                u, v, w = edges[k]
                rest = sum(1.0 / edges[x][2] for x in b if x != k)
                frac = 1.5 if (extra == "unstable" and j == 0) else float(rng.uniform(0.3, 0.8))
                edges[k] = (u, v, -frac / rest)
                negative.append(k)
    edges, marks = _relabel(rng, n, edges, {"negative": negative,
                                            **{f"b{i}": b for i, b in enumerate(blocks)}})
    return {
        "family": family,
        "n": n,
        "edges": edges,
        "negative": sorted(marks["negative"]),
        "blocks": [sorted(marks[f"b{i}"]) for i in range(len(blocks))],
        "set_kind": set_kind,
    }


# Positive trees whose weights span ten or more decades.  They do not depend
# on the seed: each makes classify_stability report `marginal`, so every
# margin call on them raises NominalInstabilityError (a fault of the
# relative zero cut), and they are the only questions expected to fail.
def _ill_scaled():
    big, small = 1e6, 1e-4
    trees = [
        [(0, 1, 1e6), (1, 2, 1e-3)],
        [(i, i + 1, 1.0) for i in range(5)] + [(5, 6, big), (6, 7, small)],
        [(0, i, 1.0) for i in range(1, 7)] + [(0, 7, big), (0, 8, small)],
        [(i, i + 1, 1.0) for i in range(7)] + [(7, 8, small), (8, 9, big)],
        [(0, 1, big)] + [(1, i, 1.0) for i in range(2, 10)] + [(9, 10, small)],
        [(i, i + 1, 1.0) for i in range(9)] + [(0, 10, big), (5, 11, small)],
        [(0, 1, small), (1, 2, big)] + [(2, i, 2.0) for i in range(3, 12)],
        [(i, i + 1, 0.5) for i in range(11)] + [(3, 12, big), (8, 13, small)],
        [(i // 2, i, 1.0) for i in range(1, 12)] + [(11, 12, 1e7), (12, 13, 1e-4)],
        [(0, i, 3.0) for i in range(1, 5)] + [(4, 5, big), (5, 6, small), (6, 7, 1.0)],
    ]
    return tuple(
        {
            "family": "ill_scaled",
            "n": 1 + max(max(u, v) for u, v, _ in t),
            "edges": t,
            "negative": [],
            "blocks": [[k] for k in range(len(t))],
            "set_kind": "disjoint",
        }
        for t in trees
    )


ILL_SCALED = _ill_scaled()

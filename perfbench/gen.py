"""Seeded edge-list generators for the benchmark workloads.

These live beside the benchmark, not in ``repro.datasets``, so a change
to the library's own generators can never move the benchmark's inputs.
Each generator returns ``(num_vertices, src, dst, weight)`` as NumPy
arrays, sorted by source id (the usual order of an edge-list dump), and
depends only on its arguments: the same seed gives the same graph.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

#: social graphs: Pareto exponent of the out-degrees, and their cap
SKEW = 2.2
MAX_DEGREE = 1000
#: social graphs: share of edges to a vertex within WINDOW ids
LOCALITY = 0.85
WINDOW = 32
#: web graphs: share of links into the next and the previous site
FORWARD = 0.15
BACKWARD = 0.03
#: web graphs: equal id ranges that consecutive sites alternate between
HOSTS = 5


def social(n: int, avg_degree: float, seed: int):
    """Skewed social graph whose edges mostly link nearby vertex ids.

    Out-degrees follow a Pareto law (exponent ``SKEW``, capped at
    ``MAX_DEGREE``), so a few hubs hold many edges; the exponent is above
    2 so that the edge count, set by the sample mean, barely moves from
    seed to seed.  A share ``LOCALITY`` of the edges go to a vertex
    within ``WINDOW`` ids of the source; the rest go to a popular low id
    (density falls as ``x^(-2/3)``), which skews in-degrees too.
    """
    rng = np.random.default_rng(seed)
    raw = np.minimum(rng.pareto(SKEW, n) + 1.0, MAX_DEGREE)
    degree = np.clip(np.rint(raw * (avg_degree / raw.mean())), 1, MAX_DEGREE)
    degree = degree.astype(np.int64)
    src = np.repeat(np.arange(n, dtype=np.int64), degree)
    m = len(src)
    local = rng.random(m) < LOCALITY
    offset = rng.integers(1, WINDOW + 1, m) * np.where(rng.random(m) < 0.5, -1, 1)
    far = (n * rng.random(m) ** 3).astype(np.int64)
    dst = np.where(local, (src + offset) % n, far)
    weight = np.ones(m)
    return n, src, dst, weight


def web(chains: int, sites: int, site: int, avg_degree: float, seed: int):
    """Long-diameter web graph: ``chains`` independent chains of sites.

    Chain ``c`` is ``sites`` sites of ``site`` pages each.  Most links
    stay inside their site, a share ``FORWARD`` point into the next site
    of the chain and ``BACKWARD`` into the previous one, so the hop
    distance from the portal grows with ``sites``.  The portal, vertex 0,
    links to the first page of every chain.  Weights are whole numbers
    1..9, so path sums are exact in floating point.  With varying
    weights, late re-improvements cascade down a chain and one chain's
    message count swings widely from seed to seed; the chains are
    independent, so their sum holds steady.

    Ids put site ``k`` of chain ``c`` in the ``(c + k) % HOSTS``-th
    equal range of ids, so under range partitioning over ``HOSTS``
    workers consecutive sites of a chain sit on different workers: links
    between sites cross the network, links inside a site do not.
    ``sites`` must be a multiple of ``HOSTS``.
    """
    rng = np.random.default_rng(seed)
    chain = sites * site
    n = chains * chain
    degree = np.maximum(1, rng.poisson(avg_degree - 1, n) + 1)
    src = np.repeat(np.arange(n, dtype=np.int64), degree)
    m = len(src)
    first = (src // chain) * chain
    u = rng.random(m)
    step = np.where(u < FORWARD, site, np.where(u < FORWARD + BACKWARD, -site, 0))
    dst = (src // site) * site + step + rng.integers(0, site, m)
    dst = np.clip(dst, first, first + chain - 1)
    weight = rng.integers(1, 10, m).astype(np.float64)
    portal = np.arange(chains, dtype=np.int64) * chain
    src = np.concatenate([np.zeros(chains, np.int64), src])
    dst = np.concatenate([portal, dst])
    weight = np.concatenate([np.ones(chains), weight])
    # relabel: order pages by (host, chain, site, page)
    logical = np.arange(n)
    c, k = logical // chain, (logical % chain) // site
    order = np.lexsort((logical, (c + k) % HOSTS))
    new_id = np.empty(n, dtype=np.int64)
    new_id[order] = np.arange(n)
    src, dst = new_id[src], new_id[dst]
    by_src = np.argsort(src, kind="stable")
    return n, src[by_src], dst[by_src], weight[by_src]


def write_edge_list(path: Path, graph) -> None:
    """Write ``src dst [weight]`` lines; unit weights are left out."""
    n, src, dst, weight = graph
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"# {n} vertices {len(src)} edges\n")
        if np.all(weight == 1.0):
            lines = map("{} {}".format, src.tolist(), dst.tolist())
        else:
            lines = map("{} {} {}".format, src.tolist(), dst.tolist(),
                        weight.tolist())
        handle.write("\n".join(lines))
        handle.write("\n")

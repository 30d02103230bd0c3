"""Tree-packing oracles shared by the tests.

The Nash-Williams partition minimum by a scan over every set partition
(Bell(n) of them, so small n only), and a direct check of both
certificates that `packing_number` returns.
"""


def set_partitions(n):
    """Every partition of n items as a restricted-growth string: the block
    label of each item, with a[0] = 0 and each label at most one above the
    largest before it."""
    a = [0] * n

    def rec(i, mx):
        if i == n:
            yield tuple(a)
            return
        for v in range(mx + 2):
            a[i] = v
            yield from rec(i + 1, max(mx, v))

    return rec(1, 0) if n else iter(())


def partition_minimum(g):
    """min over partitions P of V(g) into k >= 2 blocks of floor(cross(P) / (k - 1)),
    which by Nash-Williams and Tutte is the packing number of g."""
    best = None
    for labels in set_partitions(g.n):
        k = max(labels) + 1
        if k > 1:
            cross = sum(1 for u, v in g.edges if labels[u - 1] != labels[v - 1])
            best = cross // (k - 1) if best is None else min(best, cross // (k - 1))
    return best


def check_packing_certificate(g, res):
    """Independent check of a packing result: the witness trees are pairwise
    edge-disjoint spanning trees of g, and the partition's cross-edge bound
    floor(cross / (k - 1)) equals their number, so neither can improve."""
    graph_edges = set(g.edges)
    used = set()
    for tr in res.witness:
        es = tr.edges
        assert len(es) == g.n - 1 and set(es) <= graph_edges
        assert not used & set(es)
        used |= set(es)
        reached = {1}
        for _ in range(g.n):
            reached |= {b for u, v in es for a, b in ((u, v), (v, u)) if a in reached}
        assert reached == set(range(1, g.n + 1))
    assert len(res.witness) == res.number
    label = {x: i for i, block in enumerate(res.partition) for x in block}
    assert sorted(label) == list(range(1, g.n + 1))
    cross = sum(1 for u, v in g.edges if label[u] != label[v])
    assert res.cross_edges == cross
    assert cross // (len(res.partition) - 1) == res.number

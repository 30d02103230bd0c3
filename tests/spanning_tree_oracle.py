"""Spanning-tree walk oracle shared by the tests.

The deletion-contraction walk that `gamma._spanning_tree_masks` runs,
yielding a Tree per spanning tree instead of an edge bitmask.  The include
branch (contract) comes first, then the exclude branch (delete), pruned when
the edge is a bridge of the contracted graph, so the trees come in the order
the mask stream must keep.
"""

from treefam.trees import _DSU, _tree


def spanning_trees(g):
    """Every spanning tree of the SimpleGraph g, as Trees, in walk order."""
    if not g.is_connected():
        return
    n = g.n
    dsu = _DSU(n)  # every rec call leaves it as it found it

    def rec(avail, chosen, nclasses):
        if nclasses == 1:
            yield _tree(n, chosen)
            return
        pick, rest = avail[0], avail[1:]
        r = dsu.union(*pick)
        inc_avail = [e for e in rest if dsu.find(e[0]) != dsu.find(e[1])]
        yield from rec(inc_avail, chosen + [pick], nclasses - 1)
        dsu.undo(r)
        if dsu.merges(rest) == nclasses - 1:
            yield from rec(rest, chosen, nclasses)

    yield from rec(list(g.edges), [], n)

"""Enumeration oracles shared by the tests: counts recomputed by scanning
all n^(n-2) spanning trees of K_n, n within the enumeration cap."""

from treefam.counting import _edges
from treefam.trees import _as_ints, edge_hits, enumerate_trees


def verify_by_enumeration(n, predicate):
    """Count the trees satisfying `predicate` by streaming the full
    enumeration of T_n."""
    return sum(1 for t in enumerate_trees(n) if predicate(t))


def enumeration_count_containing(n, edges):
    """Trees containing `edges` (a Forest or a checked edge iterable), by a
    bitmask sweep over the cached tree-mask universe: the answer of
    verify_by_enumeration(n, lambda t: edges <= t.edge_set()), vectorised."""
    (n,) = _as_ints("n", n, low=(2,))
    es = _edges(n, edges)
    return int((edge_hits(n, es) == len(es)).sum())

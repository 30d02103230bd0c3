"""Enumeration oracles shared by the tests: counts recomputed by scanning
all n^(n-2) spanning trees of K_n, n within the enumeration cap."""

from treefam.counting import _edges
from treefam.trees import _as_ints, _forest_on, edge_hits, edges_to_mask, enumerate_trees


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


def enumeration_count_avoiding(n, t0, f):
    """|T_n[T_0; F]| by the same sweep: the trees containing every edge of f
    and no edge of t0 outside f (each a Forest on n or an edge iterable)."""
    base = _forest_on(n, f).edges
    avoid = set(_forest_on(n, t0).edges) - set(base)
    return int(((edge_hits(n, base) == len(base)) & (edge_hits(n, avoid) == 0)).sum())


def star_masks(n):
    """Edge bitmasks of the n stars of K_n, in centre order 1..n."""
    return tuple(edges_to_mask(n, [(c, x) for x in range(1, n + 1) if x != c])
                 for c in range(1, n + 1))

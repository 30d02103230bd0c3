"""Brute-force labelled-forest oracle shared by the tests.

Every edge subset of K_n, size by size, kept when a fresh union-find makes
one union per edge.  Within one size the forests come in lexicographic
order of their edge lists.
"""

from itertools import combinations

from treefam.counting import count_trees_containing
from treefam.trees import _DSU, _as_ints, all_edges


def forests(n, max_edges=None, min_edges=0):
    """All forests on [n] with min_edges <= |E| <= max_edges, as edge tuples.

    The arguments are checked up front, so a bad bound fails loudly instead
    of leaving a test to loop over nothing."""
    n, min_edges = _as_ints("n and min_edges", n, min_edges, low=(1, 0))
    (top,) = _as_ints("max_edges", n - 1 if max_edges is None else max_edges, low=(0,))
    edges = all_edges(n)
    return [f for k in range(min_edges, min(top, n - 1) + 1)
            for f in combinations(edges, k) if _DSU(n).merges(f) == k]


def forests_with_count(n, max_edges=None, min_edges=0):
    """The forests of `forests`, in its order, each with |T_n[F]|."""
    return [(f, count_trees_containing(n, f)) for f in forests(n, max_edges, min_edges)]

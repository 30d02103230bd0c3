"""Exact counts of spanning trees of K_n under containment constraints.

Heart of the module: the product formula for the number of spanning trees
containing a fixed forest F with component sizes q_1..q_m,

    q_1 q_2 ... q_m * n^(n - 2 - sum(q_i - 1)),

plus one inclusion-exclusion engine, exact_k_distribution, for "contains a
forced forest and exactly k edges of a set S", and an enumeration oracle that
recounts any of it by streaming all n^(n-2) trees.  Every count is an exact
Python int; nothing here touches floats.
"""

from __future__ import annotations

from math import comb
from typing import Callable, List, Tuple

from .trees import (
    CapExceeded,
    DEFAULT_ENUM_CAP,
    Edge,
    Forest,
    Tree,
    _DSU,
    _normalize_edges,
    cayley_count,
    edge_hits,
    enumerate_trees,
)

DEFAULT_IE_CAP = 24


def _edges(n: int, f) -> Tuple[Edge, ...]:
    """The canonical edge tuple of a Forest or of a validated edge iterable;
    every count here reads its edges through this, so n >= 2 is checked once."""
    if n < 2:
        raise ValueError(f"n={n} must be >= 2")
    return f.edges if isinstance(f, Forest) else _normalize_edges(n, f)


def _merge(dsu: _DSU, edges) -> int:
    """Union the edges into a fresh dsu; the product of the component sizes
    they form, or 0 if they hold a cycle."""
    for u, v in edges:
        if not dsu.union(u, v):
            return 0
    prod = 1
    for r in {dsu.find(u) for u, _ in edges}:
        prod *= dsu.size[r]
    return prod


def count_trees_containing(n: int, f) -> int:
    """Exact number of spanning trees of K_n that contain the edge set f.

    f may be a Forest or any iterable of edges; an edge set with a cycle is
    contained in no tree, so it counts 0 (not an error).
    """
    edges = _edges(n, f)
    return count_from_component_product(n, _merge(_DSU(n), edges), len(edges))


def count_from_component_product(n: int, prod: int, k: int) -> int:
    """prod * n^(n-2-k): trees of K_n containing a k-edge forest whose
    component sizes multiply to prod.

    The count depends on the forest only through (prod, k), which is what
    lets the spread checks range over component-size profiles.
    """
    e = n - 2 - k
    # k = n-1 forces a single spanning component of size n, so prod // n = 1.
    return prod * n ** e if e >= 0 else prod // n


def count_matching_family(n: int, l: int) -> int:
    """2^l * n^(n-2-l): trees containing a fixed matching of l disjoint edges."""
    if n < 2:
        raise ValueError(f"n={n} must be >= 2")
    if not (0 <= l <= n // 2):
        raise ValueError(f"no matching with l={l} edges fits in K_{n}")
    return count_from_component_product(n, 2 ** l, l)


def containment_lower_bound(n: int, t: int) -> int:
    """n^(n-t-2), a lower bound on |T_n[F]| over all t-edge forests F.

    For t = n-1 the bound would be n^(-1) < 1; the integral answer is 0 and
    the bound is vacuous (see is_lower_bound_vacuous).
    """
    if n < 2:
        raise ValueError(f"n={n} must be >= 2")
    if not (0 <= t <= n - 1):
        raise ValueError(f"t={t} out of range 0..{n - 1}")
    if t > n - 2:
        return 0
    return n ** (n - t - 2)


def is_lower_bound_vacuous(n: int, t: int) -> bool:
    return t > n - 2


def exact_k_distribution(
    n: int, s, forced=(), ie_cap: int = DEFAULT_IE_CAP
) -> List[int]:
    """[N_0, ..., N_|s|]: N_k counts the trees of K_n that contain every edge
    of `forced` and exactly k edges of `s`.

    The one inclusion-exclusion engine: with S_j the number of trees holding
    `forced` plus some j-subset of `s` (cyclic unions contribute 0),
    N_k = sum_j (-1)^(j-k) C(j,k) S_j.  One depth-first walk visits the
    acyclic unions, at most 2^|s| of them; the IE cap still bounds |s|.
    s and forced may be Forests or edge iterables and must be disjoint.
    """
    edges, base = _edges(n, s), _edges(n, forced)
    if set(edges) & set(base):
        raise ValueError("s and forced must be disjoint edge sets")
    m = len(edges)
    if m > ie_cap:
        raise CapExceeded(
            f"|s|={m} exceeds the inclusion-exclusion cap {ie_cap}",
            "ie_cap",
            ie_cap,
        )
    dsu = _DSU(n)
    prod = _merge(dsu, base)
    if not prod:
        return [0] * (m + 1)
    # Find, union and undo are inlined on the DSU's own lists: the method
    # calls per visited subset make the walk ~1.6x slower.  prod is the
    # product of all component sizes, updated exactly per union.
    parent, size = dsu.parent, dsu.size
    # prods[j]: the component-size products of the acyclic j-subset unions
    # summed; count_from_component_product is linear in prod, so S_j is one
    # call on that sum.
    prods = [0] * (m + 1)

    def walk(i: int, j: int, prod: int) -> None:
        prods[j] += prod
        for e in range(i, m):
            ru, rv = edges[e]
            while parent[ru] != ru:
                ru = parent[ru]
            while parent[rv] != rv:
                rv = parent[rv]
            if ru == rv:
                continue  # every superset holds this cycle too
            a, b = size[ru], size[rv]
            if a < b:
                ru, rv = rv, ru
            parent[rv] = ru
            size[ru] = a + b
            walk(e + 1, j + 1, prod * (a + b) // (a * b))
            parent[rv] = rv
            size[ru] -= size[rv]

    walk(0, 0, prod)
    sums = [
        count_from_component_product(n, prods[j], len(base) + j)
        for j in range(m + 1)
    ]
    return [
        sum((-1) ** (j - k) * comb(j, k) * sums[j] for j in range(k, m + 1))
        for k in range(m + 1)
    ]


def count_exactly(n: int, s, k: int, ie_cap: int = DEFAULT_IE_CAP) -> int:
    """Trees containing exactly k edges of the edge set s (inclusion-exclusion)."""
    edges = _edges(n, s)
    if not (0 <= k <= len(edges)):
        return 0
    return exact_k_distribution(n, edges, ie_cap=ie_cap)[k]


def count_at_least(n: int, s, m: int, ie_cap: int = DEFAULT_IE_CAP) -> int:
    """Trees containing at least m edges of the edge set s."""
    edges = _edges(n, s)
    if m <= 0:
        return cayley_count(n)
    if m > len(edges):
        return 0
    return sum(exact_k_distribution(n, edges, ie_cap=ie_cap)[m:])


def verify_by_enumeration(
    n: int, predicate: Callable[[Tree], bool], cap: int = DEFAULT_ENUM_CAP
) -> int:
    """Independent oracle: count trees satisfying `predicate` by streaming
    the full enumeration of T_n."""
    return sum(1 for t in enumerate_trees(n, cap=cap) if predicate(t))


def enumeration_count_containing(n: int, edges, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Enumeration-oracle count of trees containing `edges` (bitmask sweep).

    Same answer as verify_by_enumeration(n, lambda t: edges <= t.edge_set())
    but vectorized over the cached tree-mask universe.
    """
    es = _edges(n, edges)
    return int((edge_hits(n, es, cap) == len(es)).sum())

"""Exact counts of spanning trees of K_n under containment constraints.

Heart of the module: the product formula for the number of spanning trees
containing a fixed forest F with component sizes q_1..q_m,

    q_1 q_2 ... q_m * n^(n - 2 - sum(q_i - 1)),

plus an inclusion-exclusion engine for "contains at least m edges of a set S"
and an enumeration oracle that recounts any of it by streaming all n^(n-2)
trees.  Every count is an exact Python int; nothing here touches floats.
"""

from __future__ import annotations

from math import comb
from typing import Callable, Optional, Tuple

from .trees import (
    CapExceeded,
    DEFAULT_ENUM_CAP,
    Forest,
    Tree,
    _DSU,
    _normalize_edges,
    cayley_count,
    edge_hits,
    enumerate_trees,
)

DEFAULT_IE_CAP = 24


def _component_product(n: int, edges) -> Optional[Tuple[int, int]]:
    """(product of component sizes, edge count) of an edge set, or None if cyclic."""
    dsu = _DSU(n)
    k = 0
    for u, v in edges:
        if not (1 <= u < v <= n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if not dsu.union(u, v):
            return None
        k += 1
    prod = 1
    seen = set()
    for u, v in edges:
        r = dsu.find(u)
        if r not in seen:
            seen.add(r)
            prod *= dsu.size[r]
    return prod, k


def count_trees_containing(n: int, f) -> int:
    """Exact number of spanning trees of K_n that contain the edge set f.

    f may be a Forest or any iterable of edges; an edge set with a cycle is
    contained in no tree, so it counts 0 (not an error).
    """
    if n < 2:
        raise ValueError(f"n={n} must be >= 2")
    edges = f.edges if isinstance(f, Forest) else _normalize_edges(n, f)
    pk = _component_product(n, edges)
    if pk is None:
        return 0
    return count_from_component_product(n, *pk)


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
    e = n - 2 - l
    return 2 ** l * n ** e if e >= 0 else 2 ** l // n ** (-e)


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


def _subset_sums(n: int, edges: tuple, ie_cap: int) -> list:
    """S_j = sum over j-subsets A of `edges` of |T_n[A]|, for j = 0..|edges|.

    Cyclic subsets contribute 0.  2^|edges| subsets, guarded by the IE cap.
    """
    from itertools import combinations

    m = len(edges)
    if m > ie_cap:
        raise CapExceeded(
            f"|s|={m} exceeds the inclusion-exclusion cap {ie_cap}",
            "ie_cap",
            ie_cap,
        )
    sums = [0] * (m + 1)
    sums[0] = cayley_count(n)
    for j in range(1, m + 1):
        acc = 0
        for sub in combinations(edges, j):
            pk = _component_product(n, sub)
            if pk is None:
                continue
            acc += count_from_component_product(n, *pk)
        sums[j] = acc
    return sums


def count_exactly(n: int, s, k: int, ie_cap: int = DEFAULT_IE_CAP) -> int:
    """Trees containing exactly k edges of the edge set s (inclusion-exclusion)."""
    edges = s.edges if isinstance(s, Forest) else _normalize_edges(n, s)
    if not (0 <= k <= len(edges)):
        return 0
    sums = _subset_sums(n, edges, ie_cap)
    return sum(
        (-1) ** (j - k) * comb(j, k) * sums[j] for j in range(k, len(edges) + 1)
    )


def count_at_least(n: int, s, m: int, ie_cap: int = DEFAULT_IE_CAP) -> int:
    """Trees containing at least m edges of the edge set s.

    Summed from the exactly-k inclusion-exclusion counts so the single
    containment formula is the only counting primitive.
    """
    edges = s.edges if isinstance(s, Forest) else _normalize_edges(n, s)
    if m <= 0:
        return cayley_count(n)
    if m > len(edges):
        return 0
    sums = _subset_sums(n, edges, ie_cap)
    total = 0
    L = len(edges)
    for k in range(m, L + 1):
        total += sum((-1) ** (j - k) * comb(j, k) * sums[j] for j in range(k, L + 1))
    return total


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
    es = edges.edges if isinstance(edges, Forest) else _normalize_edges(n, edges)
    return int((edge_hits(n, es, cap) == len(es)).sum())

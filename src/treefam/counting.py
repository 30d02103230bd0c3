"""Exact counts of spanning trees of K_n under containment constraints.

Heart of the module: the product formula for the number of spanning trees
containing a fixed forest F with component sizes q_1..q_m,

    q_1 q_2 ... q_m * n^(n - 2 - sum(q_i - 1)),

plus one matrix-tree kernel, exact_k_distribution, for "contains a forced
forest and exactly k edges of a set S" (no cap on |S|): a block of S that is
a tree takes the forest expansion of its determinant in one leaves-first
pass, any other exact Bareiss determinants, and the k = 0 term
_containing_avoiding reads from one determinant per block.  The tests
recount all of it by enumerating the n^(n-2) trees
(tests/enumeration_oracle.py).  Every count is an exact Python int;
nothing here touches floats.
"""

from __future__ import annotations

from itertools import zip_longest
from math import prod
from typing import List, Tuple

from .trees import (
    Edge,
    Forest,
    _DSU,
    _as_ints,
    _forest_on,
    _normalize_edges,
    cayley_count,
)

def _edges(n: int, f) -> Tuple[Edge, ...]:
    """The canonical edge tuple of a Forest on n vertices or of a validated
    edge iterable; every count here reads its edges through this."""
    return _forest_on(n, f).edges if isinstance(f, Forest) else _normalize_edges(n, f)


def count_trees_containing(n: int, f) -> int:
    """Exact number of spanning trees of K_n that contain the edge set f.

    f may be a Forest or any iterable of edges; an edge set with a cycle is
    contained in no tree, so it counts 0 (not an error).
    """
    (n,) = _as_ints("n", n, low=(2,))
    return _over_n2(n, _contract(n, (), _edges(n, f))[0])


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
    n, l = _as_ints("n and l", n, l, low=(2, 0))
    if l > n // 2:
        raise ValueError(f"no matching with l={l} edges fits in K_{n}")
    return count_from_component_product(n, 2 ** l, l)


def containment_lower_bound(n: int, t: int) -> int:
    """n^(n-t-2), a lower bound on |T_n[F]| over all t-edge forests F.

    For t = n-1 the bound would be n^(-1) < 1; the integral answer is 0 and
    the bound is vacuous (see is_lower_bound_vacuous).
    """
    n, t = _as_ints("n and t", n, t, low=(2, 0))
    if t > n - 1:
        raise ValueError(f"t={t} out of range 0..{n - 1}")
    if t > n - 2:
        return 0
    return n ** (n - t - 2)


def is_lower_bound_vacuous(n: int, t: int) -> bool:
    n, t = _as_ints("n and t", n, t)
    return t > n - 2


def exact_k_distribution(n: int, s, forced=()) -> List[int]:
    """[N_0, ..., N_|s|]: N_k counts the trees of K_n that contain every edge
    of `forced` and exactly k edges of `s` (Forests or edge iterables, which
    must be disjoint).

    The one matrix-tree kernel.  Contract `forced` into classes of sizes a (a
    cyclic `forced` counts 0); an edge of `s` inside a class drops out, and
    with weight x on the others, n^2 sum_k N_k x^k = det(n diag(a) +
    (x - 1) L), L their Laplacian between classes.  The determinant factors
    over the blocks of L, a block on k classes of degree < k.  A tree block
    (k - 1 edges) is a sum over its edge sets, O(k^2) coefficient products
    (_tree_poly); any other is evaluated at x = 1..k and interpolated.  All
    in exact integers.
    """
    (n,) = _as_ints("n", n, low=(2,))
    edges, base = _edges(n, s), _edges(n, forced)
    if set(edges) & set(base):
        raise ValueError("s and forced must be disjoint edge sets")
    free, blocks = _contract(n, edges, base)
    poly = [free]
    for diag, lap in blocks:
        poly = _times_block(poly, diag, lap)
    return [_over_n2(n, c) for c in poly] + [0] * (len(edges) + 1 - len(poly))


def _containing_avoiding(n: int, s, forced) -> int:
    """N_0 of exact_k_distribution(n, s, forced) for checked, disjoint edge
    tuples: one determinant per block, det(n diag(a) - L), at x = 0.

    That matrix is L' + a a^T, L' the Laplacian of the classes over the
    edges of K_n outside s: positive semidefinite, and singular when every
    tree meets s.  For an acyclic s only the last pivot can then be 0, as
    _det_spd needs: two classes with every outward edge in s would close a
    cycle.  With no `forced` and s the edges of K_n outside a connected g,
    it is L_g + J, positive definite (gamma._spanning_tree_count).
    """
    det, blocks = _contract(n, s, forced)
    for diag, lap in blocks:
        det *= _det_spd(_shifted(diag, lap, -1))
    return _over_n2(n, det)


def _contract(n: int, s, forced):
    """The factors of det(n diag(a) + (x - 1) L): the product of n a over the
    classes no edge of s reaches (0 if `forced` holds a cycle), and per block
    of L its diagonal n a and upper-triangle rows, a tree's leaves first."""
    classes = _DSU(n)
    if not all(classes.union(u, v) for u, v in forced):
        return 0, []
    find, size = classes.find, classes.size
    adjacent: dict = {}  # class -> the classes its edges of s reach, repeats kept
    for u, v in s:
        ru, rv = find(u), find(v)
        if ru != rv:
            adjacent.setdefault(ru, []).append(rv)
            adjacent.setdefault(rv, []).append(ru)
    roots = [r for r in range(1, n + 1) if classes.parent[r] == r]
    free = prod(n * size[r] for r in roots if r not in adjacent)
    blocks = []
    seen: set = set()
    for block in ([r] for r in adjacent if r not in seen):
        seen.add(block[0])
        for c in block:  # breadth first, growing as it goes
            for d in adjacent[c]:
                if d not in seen:
                    seen.add(d)
                    block.append(d)
        block.reverse()  # a tree's leaves first: elimination then fills nothing
        lap = [
            [len(adjacent[c])] + [-adjacent[c].count(d) for d in block[i + 1 :]]
            for i, c in enumerate(block)
        ]
        blocks.append(([n * size[c] for c in block], lap))
    return free, blocks


def _over_n2(n: int, det: int) -> int:
    q, r = divmod(det, n * n)
    if r:
        raise ArithmeticError(f"n^2 = {n * n} does not divide the determinant")
    return q


def _shifted(diag: List[int], lap: List[List[int]], y: int) -> List[List[int]]:
    """Upper-triangle rows of diag(diag) + y L."""
    return [[d + y * row[0]] + [y * e for e in row[1:]] for d, row in zip(diag, lap)]


def _times_block(poly: List[int], diag: List[int], lap: List[List[int]]) -> List[int]:
    """poly times det(diag(diag) + (x - 1) L), L given by its upper-triangle
    rows.  A tree block (k classes, k - 1 edges) takes its coefficients in
    x - 1 from _tree_poly; any other block is evaluated at x = 1..k and
    given Newton's divided differences.  Either form goes into poly by
    Horner's rule."""
    k = len(diag)
    if sum(row[0] for row in lap) == 2 * (k - 1):  # connected, k - 1 edges
        coef, nodes = _tree_poly(diag, lap), [1] * k
    else:
        coef = [prod(diag)] + [_det_spd(_shifted(diag, lap, y)) for y in range(1, k)]
        for j in range(1, k):
            for i in range(k - 1, j - 1, -1):
                coef[i], rem = divmod(coef[i] - coef[i - 1], j)
                if rem:
                    raise ArithmeticError("a divided difference of a block is not integral")
        nodes = range(1, k + 1)
    out = [coef[-1] * a for a in poly]
    for j in range(k - 2, -1, -1):  # out * (x - nodes[j]) + coef[j] * poly
        out = [a - nodes[j] * b for a, b in zip([0] + out, out + [0])]
        for i, a in enumerate(poly):
            out[i] += coef[j] * a
    return out


def _tree_poly(diag: List[int], lap: List[List[int]]) -> List[int]:
    """Coefficients in y of det(diag(diag) + y L) for a tree block: by the
    forest matrix-tree theorem, the sum over edge sets A of y^|A| times the
    product of the diag sums of A's components.  Leaves first, each class
    holds that sum over its subtree with its own component's diag sum left
    open (p0) and counted (p1), and is merged into its parent, the one
    nonzero entry past its diagonal."""
    p0, p1 = [[1] for _ in diag], [[d] for d in diag]
    for i, row in enumerate(lap[:-1]):
        q0, q1, up = p0[i], p1[i], i + row.index(-1, 1)
        g = _poly_add(q1, [0] + q0)  # the edge to the parent dropped or kept
        # kept, the joined component's diag sum is the parent's part plus the child's
        p1[up] = _poly_add(_poly_mul(p1[up], g), [0] + _poly_mul(p0[up], q1))
        p0[up] = _poly_mul(p0[up], g)
    return p1[-1]


def _poly_add(a: List[int], b: List[int]) -> List[int]:
    return [u + v for u, v in zip_longest(a, b, fillvalue=0)]


def _poly_mul(a: List[int], b: List[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _det_spd(rows: List[List[int]]) -> int:
    """Determinant of a symmetric integer matrix whose leading principal
    minors are positive, bar perhaps the last (positive definite, or
    semidefinite and singular only as a whole), given by its upper-triangle
    rows: Bareiss elimination, whose pivots are those minors, so it needs no
    pivoting.  A row with a zero below the pivot would only scale by pivot /
    prev, and those factors telescope: it is rescaled from the pivot it was
    last exact at when next read."""
    prev = 1
    exact_at = [1] * len(rows)
    for i in range(len(rows) - 1):
        top = rows[i]
        if exact_at[i] != prev:
            top = [a * prev // exact_at[i] for a in top]
        pivot = top[0]
        for r in range(i + 1, len(rows)):
            f = top[r - i]
            if f:
                row, e = rows[r], exact_at[r]
                if e != prev:
                    row = [a * prev // e for a in row]
                rows[r] = [(pivot * a - f * b) // prev for a, b in zip(row, top[r - i :])]
                exact_at[r] = pivot
        prev = pivot
    return rows[-1][0] * prev // exact_at[-1]


# Bareiss entries are minors, at most the Hadamard bound H, and a step subtracts
# two products of them: int64 holds 2 H^2 < 2^63 (2^61 allows for rounding).
_INT64_HADAMARD_SQ = 2.0 ** 61


def _det_spd_batch(mats):
    """Determinants of a (k, k, B) stack of B symmetric integer matrices
    under _det_spd's contract: one pivot-free int64 Bareiss elimination for
    all B, on a copy, B the last axis so that numpy loops run along it.  A
    batch past the Hadamard guard goes to _det_spd on Python ints (an
    object array).  A pivot <= 0 before the last step or an inexact
    division raises ArithmeticError."""
    import numpy as np

    m = np.array(mats, dtype=np.int64, order="C")  # eliminated in place
    k = len(m)
    # a row's norm is at most sqrt(k) max|a|: most batches pass without norms
    if (k * float(np.abs(m).max(initial=0)) ** 2) ** k > _INT64_HADAMARD_SQ:
        norms = np.maximum(1.0, np.square(m, dtype=float).sum(axis=1))
        if (norms.prod(axis=0) > _INT64_HADAMARD_SQ).any():
            upper = ([r[i:] for i, r in enumerate(a)] for a in np.moveaxis(m, -1, 0).tolist())
            return np.array([_det_spd(rows) for rows in upper], dtype=object)
    prev = 1
    for i in range(k - 1):
        pivot = m[i, i]
        if (pivot <= 0).any():
            raise ArithmeticError(f"leading minor {i + 1} is not positive")
        rest = m[i + 1 :, i + 1 :]
        step = pivot * rest - m[i + 1 :, i, None] * m[i, None, i + 1 :]
        if i:  # the first step divides by 1
            step, rem = np.divmod(step, prev)
            if rem.any():
                raise ArithmeticError("a Bareiss division left a remainder")
        rest[...] = step
        prev = pivot
    return m[-1, -1]


def count_exactly(n: int, s, k: int) -> int:
    """Trees containing exactly k edges of the edge set s."""
    n, k = _as_ints("n and k", n, k, low=(2,))
    edges = _edges(n, s)
    return exact_k_distribution(n, edges)[k] if 0 <= k <= len(edges) else 0


def count_at_least(n: int, s, m: int) -> int:
    """Trees containing at least m edges of the edge set s."""
    n, m = _as_ints("n and m", n, m, low=(2,))
    edges = _edges(n, s)
    if m <= 0:
        return cayley_count(n)
    if m > len(edges):
        return 0
    return sum(exact_k_distribution(n, edges)[m:])

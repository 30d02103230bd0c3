"""Independent answer checks for the benchmark, written without treefam code.

Counts come from Kirchhoff's matrix-tree theorem with fraction-free (Bareiss)
determinants, so they share no code path with treefam's product formula or
its 2^|S| inclusion-exclusion.  Families are checked pair by pair from their
edge sets.  Every check raises ``Mismatch`` explicitly, so nothing here
vanishes under ``python -O``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np


class Mismatch(Exception):
    """A job's answer disagrees with the independent path."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def equal(got, want, what: str) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


# -- exact determinants and the matrix-tree theorem ---------------------------


def bareiss_det(matrix) -> int:
    """Exact determinant of a square integer matrix (fraction-free elimination)."""
    m = [list(row) for row in matrix]
    size = len(m)
    if size == 0:
        return 1
    sign, prev = 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for i in range(k + 1, size):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, size):
            row_i = m[i]
            a = row_i[k]
            for j in range(k + 1, size):
                row_i[j] = (row_i[j] * pivot - a * row_k[j]) // prev
        prev = pivot
    return sign * m[-1][-1]


def spanning_tree_count(vertices: int, multiedges) -> int:
    """Spanning trees of a multigraph on 0..vertices-1; multiedges: (u, v, multiplicity)."""
    if vertices == 1:
        return 1
    lap = [[0] * vertices for _ in range(vertices)]
    for u, v, mult in multiedges:
        if u == v or mult == 0:
            continue
        lap[u][u] += mult
        lap[v][v] += mult
        lap[u][v] -= mult
        lap[v][u] -= mult
    return bareiss_det([row[1:] for row in lap[1:]])


def _components(n: int, edges) -> list:
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    groups = {}
    for x in range(1, n + 1):
        groups.setdefault(find(x), []).append(x)
    return list(groups.values())


def _interpolate(values) -> list:
    """Integer coefficients of the polynomial taking values[x] at x = 0..d."""
    d = len(values) - 1
    coeffs = [Fraction(0)] * (d + 1)
    for i, yi in enumerate(values):
        # Lagrange basis polynomial for node i, expanded in monomials
        basis = [Fraction(1)]
        denom = 1
        for j in range(d + 1):
            if j == i:
                continue
            basis = [Fraction(0)] + basis
            for k in range(len(basis) - 1):
                basis[k] -= j * basis[k + 1]
            denom *= i - j
        for k, b in enumerate(basis):
            coeffs[k] += b * yi / denom
    out = []
    for c in coeffs:
        expect(c.denominator == 1, "matrix-tree interpolation gave a non-integer")
        out.append(int(c))
    return out


def _poly_mul(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def overlap_polynomial(n: int, s_edges) -> list:
    """N[k] = number of spanning trees of K_n sharing exactly k edges with s_edges.

    With weight x on the edges of S, the reduced Laplacian of K_n has
    determinant det(n I + (x - 1) L_S) / n^2, and L_S is block diagonal over
    the components of S, so only small blocks are ever factorised.
    """
    s_edges = list(s_edges)
    poly = [1]
    isolated = 0
    for block in _components(n, s_edges):
        if len(block) == 1:
            isolated += 1
            continue
        index = {v: i for i, v in enumerate(block)}
        size = len(block)
        lap = [[0] * size for _ in range(size)]
        inner = 0
        for u, v in s_edges:
            if u in index:
                a, b = index[u], index[v]
                lap[a][a] += 1
                lap[b][b] += 1
                lap[a][b] -= 1
                lap[b][a] -= 1
                inner += 1
        degree = min(inner, size - 1)
        values = []
        for x in range(degree + 1):
            mat = [
                [(n if i == j else 0) + (x - 1) * lap[i][j] for j in range(size)]
                for i in range(size)
            ]
            values.append(bareiss_det(mat))
        poly = _poly_mul(poly, _interpolate(values))
    scale = n ** isolated
    out = []
    for c in poly:
        num = c * scale
        expect(num % (n * n) == 0, "matrix-tree polynomial not divisible by n^2")
        out.append(num // (n * n))
    return out + [0] * (len(s_edges) + 1 - len(out))


def trees_containing(n: int, f_edges) -> int:
    """Spanning trees of K_n that contain every edge of f_edges."""
    f_edges = list(f_edges)
    return overlap_polynomial(n, f_edges)[len(f_edges)]


def trees_at_least(n: int, s_edges, m: int) -> int:
    return sum(overlap_polynomial(n, s_edges)[max(m, 0):])


def trees_avoiding(n: int, t0_edges, f_edges) -> int:
    """Trees containing f_edges and no edge of t0_edges outside f (contract, delete)."""
    f_set = set(f_edges)
    avoid = set(t0_edges) - f_set
    blocks = _components(n, f_set)
    label = {}
    for b, block in enumerate(blocks):
        for v in block:
            label[v] = b
    mult = {}
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            a, b = label[u], label[v]
            if a != b and (u, v) not in avoid:
                key = (a, b) if a < b else (b, a)
                mult[key] = mult.get(key, 0) + 1
    return spanning_tree_count(len(blocks), [(a, b, c) for (a, b), c in mult.items()])


# -- enumeration over the tree-mask universe ------------------------------------


def edge_bit(n: int, u: int, v: int) -> int:
    return (u - 1) * (2 * n - u) // 2 + (v - u - 1)


def mask_of(n: int, edges) -> int:
    out = 0
    for u, v in edges:
        out |= 1 << edge_bit(n, u, v)
    return out


def enum_avoiding(arr, n: int, t0_edges, f_edges) -> int:
    fmask = np.uint64(mask_of(n, f_edges))
    amask = np.uint64(mask_of(n, set(t0_edges) - set(f_edges)))
    keep = ((arr & fmask) == fmask) & ((arr & amask) == np.uint64(0))
    return int(np.count_nonzero(keep))


def min_pairwise_overlap(masks) -> int | None:
    """Smallest number of shared edges over all pairs of a family (None below 2)."""
    if len(masks) < 2:
        return None
    if max(masks) < 1 << 64:
        arr = np.array(masks, dtype=np.uint64)
        best = None
        for start in range(0, len(arr) - 1, 256):
            rows = arr[start : start + 256]
            shared = np.bitwise_count(rows[:, None] & arr[None, :]).astype(np.int64)
            # mask the diagonal and the lower triangle of this band
            idx = np.arange(start, start + len(rows))[:, None]
            shared[np.arange(len(arr))[None, :] <= idx] = 1 << 30
            low = int(shared.min())
            best = low if best is None else min(best, low)
        return best
    return min((a & b).bit_count() for a, b in combinations(masks, 2))


def max_pairwise_overlap(masks) -> int | None:
    if len(masks) < 2:
        return None
    return max((a & b).bit_count() for a, b in combinations(masks, 2))


# -- structural checks -----------------------------------------------------------


def check_spanning_tree(n: int, edges, graph_edges=None) -> None:
    """Raise unless edges form a spanning tree of K_n (inside graph_edges if given)."""
    edges = [tuple(e) for e in edges]
    equal(len(edges), n - 1, "tree edge count")
    allowed = None if graph_edges is None else set(map(tuple, graph_edges))
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        expect(1 <= u < v <= n, f"edge {(u, v)} out of range for n={n}")
        expect(allowed is None or (u, v) in allowed, f"edge {(u, v)} not in graph")
        ru, rv = find(u), find(v)
        expect(ru != rv, f"edge {(u, v)} closes a cycle")
        parent[ru] = rv


def check_family(n: int, trees, t: int, independent: bool, graph_edges=None) -> list:
    """Validate a returned family; returns its members as masks.

    independent=True: every pair shares >= t edges (an independent set of
    Gamma_t); False: every pair shares < t edges (a clique of Gamma_t).
    """
    masks = []
    for tr in trees:
        check_spanning_tree(n, tr, graph_edges)
        masks.append(mask_of(n, [tuple(e) for e in tr]))
    equal(len(set(masks)), len(masks), "distinct family members")
    if independent:
        low = min_pairwise_overlap(masks)
        expect(low is None or low >= t, f"family not {t}-intersecting (min {low})")
    else:
        high = max_pairwise_overlap(masks)
        expect(high is None or high < t, f"family not a clique of Gamma_{t} (max {high})")
    return masks


def llll_reference(p, x, adjacency) -> tuple:
    """(condition holds, prod(1 - x_i)) for the lopsided local lemma."""
    ok = all(
        Fraction(p[i]) <= Fraction(x[i]) * _prod(1 - Fraction(x[j]) for j in adjacency[i])
        for i in range(len(p))
    )
    return ok, _prod(1 - Fraction(v) for v in x)


def _prod(values) -> Fraction:
    out = Fraction(1)
    for v in values:
        out *= v
    return out


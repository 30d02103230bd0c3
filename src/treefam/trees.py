"""Canonical labelled trees and forests on the vertex set {1, ..., n}.

Everything downstream (counting, spread checks, disjointness graphs) builds
on the representations here:

  * an edge is an ordered pair (u, v) with 1 <= u < v <= n;
  * a SimpleGraph stores a strictly sorted tuple of edges (the host of
    Gamma_t is one);
  * a Forest is a SimpleGraph validated acyclic, so equal forests have equal
    (hashable) representations;
  * a Tree is a Forest with exactly n - 1 edges (hence connected);
  * the Prufer bijection (smallest-labelled-leaf deletion convention) gives a
    total order on the n^(n-2) spanning trees of K_n: the "tree index" of a
    tree is the base-n integer spelled by its code.

Bit-packed edge sets: the C(n,2) possible edges are numbered lexicographically
and a tree/forest becomes an int bitmask, which is what the bulk sweeps and
the disjointness-graph code operate on.
"""

from __future__ import annotations

import heapq
import json
import operator
import random
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product
from typing import Iterable, Iterator, Optional, Sequence, Tuple

Edge = Tuple[int, int]

# Fixed limit, not a setting: the largest n whose n^(n-2) trees are enumerated.
DEFAULT_ENUM_CAP = 8


class CapExceeded(ValueError):
    """One of the two fixed limits on exhaustive work (enumeration or Gamma
    vertices) was hit; cap_name and cap_value name it."""

    def __init__(self, message: str, cap_name: str, cap_value: int):
        super().__init__(message)
        self.cap_name = cap_name
        self.cap_value = cap_value


def _check_cap(name: str, limit: int, size: int, what: str) -> None:
    """Refuse work of `size` (a count of `what`) past the fixed `limit` called
    `name`.  The one place a CapExceeded is built."""
    if size > limit:
        raise CapExceeded(f"{size} {what}, over the {name} of {limit}", name, limit)


def edge(u: int, v: int) -> Edge:
    """Normalize an unordered vertex pair to the canonical (min, max) form."""
    if u == v:
        raise ValueError(f"loop edge ({u},{v}) not allowed")
    return (u, v) if u < v else (v, u)


def _pair_edges(entries) -> Tuple[Edge, ...]:
    """Canonical edges of a list of [u, v] integer pairs, in the given order.

    Anything else (a non-list, a triple, a bare number, a float, bool or
    string label) is a ValueError, as is a loop.
    """
    index = operator.index
    pairs = []
    try:
        for u, v in entries:
            if type(u) is bool or type(v) is bool:
                raise TypeError
            pairs.append((index(u), index(v)))
    except (TypeError, ValueError):
        raise ValueError(
            f"expected a list of [u, v] integer pairs, got {entries!r}"
        ) from None
    return tuple(edge(u, v) for u, v in pairs)


def _normalize_edges(n: int, edges: Iterable) -> Tuple[Edge, ...]:
    out = sorted(_pair_edges(edges))
    for u, v in out:
        if not (1 <= u and v <= n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
    for a, b in zip(out, out[1:]):
        if a == b:
            raise ValueError(f"duplicate edge ({a[0]},{a[1]})")
    return tuple(out)


class _DSU:
    """Union-find over 1..n: union by size and no path compression, so the
    latest union can always be undone.  The one union-find of the package."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n + 1))
        self.size = [1] * (n + 1)

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            x = p[x]
        return x

    def union(self, a: int, b: int) -> int:
        """Merge the classes of a and b and return the absorbed root, or 0
        if they are one class already (the edge closes a cycle)."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return 0
        size = self.size
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        size[ra] += size[rb]
        return rb

    def undo(self, r: int) -> None:
        """Reverse the latest union still in place, whose absorbed root was r."""
        p = self.parent
        self.size[p[r]] -= self.size[r]
        p[r] = r

    def merges(self, edges) -> int:
        """How many unions the edges would make; the classes stay as found."""
        done = []
        for u, v in edges:
            r = self.union(u, v)
            if r:
                done.append(r)
                if self.size[self.parent[r]] == len(self.size) - 1:
                    break  # one class left: no later edge merges
        for r in reversed(done):
            self.undo(r)
        return len(done)


class SimpleGraph:
    """A simple graph on {1, ..., n}: a canonical sorted edge tuple, with no
    loops or repeated edges.  The one edge-set type: a Forest is a simple
    graph with no cycle, and a Tree a forest with n - 1 edges."""

    __slots__ = ("n", "edges")
    _least_n = 1

    def __init__(self, n: int, edges: Iterable = ()):
        (n,) = _as_ints("n", n, low=(self._least_n,))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", _normalize_edges(n, edges))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):  # pickle and deepcopy rebuild through __init__
        return (type(self), (self.n, self.edges))

    def __repr__(self):
        return f"SimpleGraph(n={self.n}, m={len(self.edges)})"

    @classmethod
    def complete(cls, n: int) -> "SimpleGraph":
        (n,) = _as_ints("n", n, low=(1,))
        return cls(n, all_edges(n))

    @classmethod
    def cycle(cls, n: int) -> "SimpleGraph":
        (n,) = _as_ints("n", n, low=(3,))
        return cls(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])

    @classmethod
    def path(cls, n: int) -> "SimpleGraph":
        (n,) = _as_ints("n", n, low=(1,))
        return cls(n, [(i, i + 1) for i in range(1, n)])

    def is_complete(self) -> bool:
        return len(self.edges) == self.n * (self.n - 1) // 2

    def is_connected(self) -> bool:
        return _DSU(self.n).merges(self.edges) == self.n - 1

    def classes(self) -> list:
        """The vertex classes (connected components), isolated vertices
        included, as sorted tuples in order of their smallest member."""
        dsu = _DSU(self.n)
        for u, v in self.edges:
            dsu.union(u, v)
        groups: dict = {}
        for x in range(1, self.n + 1):
            groups.setdefault(dsu.find(x), []).append(x)
        return [tuple(g) for g in groups.values()]

    def edge_set(self) -> frozenset:
        return frozenset(self.edges)

    def degrees(self) -> list:
        """Degree of every vertex, index 1..n (index 0 unused)."""
        deg = [0] * (self.n + 1)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    # -- serialization ------------------------------------------------------

    def to_edge_list_text(self) -> str:
        return "".join(f"{u} {v}\n" for u, v in self.edges)

    def to_json_array(self) -> str:
        return json.dumps([[u, v] for u, v in self.edges])

    @classmethod
    def from_edge_list_text(cls, text: str, n: Optional[int] = None):
        es = parse_edge_list(text)
        return cls(max((v for _, v in es), default=1) if n is None else n, es)

    @classmethod
    def from_json_array(cls, text: str, n: Optional[int] = None):
        es = _pair_edges(json.loads(text))
        return cls(max((v for _, v in es), default=1) if n is None else n, es)


class Forest(SimpleGraph):
    """An acyclic edge set on {1, ..., n}, stored in canonical sorted form."""

    __slots__ = ()

    def __init__(self, n: int, edges: Iterable = ()):
        super().__init__(n, edges)
        dsu = _DSU(self.n)
        for u, v in self.edges:
            if not dsu.union(u, v):
                raise ValueError(f"edge set contains a cycle through ({u},{v})")

    def __eq__(self, other):
        return isinstance(other, Forest) and (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    def __len__(self):
        return len(self.edges)

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, edges={list(self.edges)})"

    def components(self) -> list:
        """Non-trivial connected components as sorted vertex tuples, by
        smallest member; isolated_vertices() holds the rest of classes()."""
        return [c for c in self.classes() if len(c) > 1]

    def component_sizes(self) -> Tuple[int, ...]:
        """Sizes q_1, ..., q_m of the non-trivial components (each >= 2)."""
        return tuple(len(c) for c in self.components())

    def isolated_vertices(self) -> Tuple[int, ...]:
        return tuple(c[0] for c in self.classes() if len(c) == 1)


class Tree(Forest):
    """A spanning tree of K_n: an acyclic edge set with exactly n - 1 edges."""

    __slots__ = ()
    _least_n = 2

    def __init__(self, n: int, edges: Iterable):
        super().__init__(n, edges)
        if len(self.edges) != self.n - 1:
            raise ValueError(f"not a spanning tree: {len(self)} edges on {self.n} vertices")


def _forest_on(n: int, f) -> Forest:
    """f, a Forest on n or an edge iterable, as a Forest on n: a Forest on
    another n is a ValueError, and so is an edge iterable with a cycle."""
    if not isinstance(f, Forest):
        return Forest(n, f)
    if f.n != n:
        raise ValueError(f"the forest lives on n={f.n}, not n={n}")
    return f


def _tree(n: int, edges: Iterable[Edge]) -> Tree:
    """The Tree of canonical edges that span K_n by construction (a decoded
    Prufer code, a tree-universe mask, a finished spanning-tree walk):
    sorted, but not validated as Tree(...) is."""
    tree = object.__new__(Tree)
    object.__setattr__(tree, "n", n)
    object.__setattr__(tree, "edges", tuple(sorted(edges)))
    return tree


def parse_edge_list(text: str) -> list:
    """Parse the whitespace edge-list format: one "u v" per line.

    Blank lines and lines starting with '#' are ignored.
    """
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        out.append(edge(int(parts[0]), int(parts[1])))
    return out


# -- module-level operation aliases -----------------------------------------


def components(f: Forest) -> list:
    """Connected components (non-trivial) of a forest; see Forest.components."""
    return f.components()


def intersection_size(a: Forest, b: Forest) -> int:
    """Number of common edges of two forests/trees on the same vertex set."""
    if a.n != b.n:
        raise ValueError(f"vertex counts differ: {a.n} != {b.n}")
    return len(a.edge_set() & b.edge_set())


def is_star(t: Tree) -> bool:
    """True iff some vertex has degree n - 1 (the tree is a star)."""
    return max(t.degrees()) == t.n - 1


def is_d_star_like(f: Forest, d) -> bool:
    """True iff some edge of f meets at least (n-1)/d other edges of f.

    Equivalently: the line graph of f has max degree >= (n-1)/d.  The
    comparison is exact (d may be a Fraction); larger d weakens the
    requirement, so the predicate is monotone in d.
    """
    d = Fraction(d)
    if d <= 0:
        raise ValueError("d must be positive")
    if not f.edges:
        return False
    deg = f.degrees()
    line_max = max(deg[u] + deg[v] - 2 for u, v in f.edges)
    return line_max * d >= f.n - 1


# -- Prufer bijection --------------------------------------------------------


def prufer_encode(t: Tree) -> Tuple[int, ...]:
    """Prufer code of a spanning tree, length n - 2.

    Convention: repeatedly delete the leaf with the smallest label and append
    its unique neighbour.
    """
    n = t.n
    if len(t.edges) != n - 1:
        raise ValueError("prufer_encode requires a spanning tree")
    if n == 2:
        return ()
    adj = [set() for _ in range(n + 1)]
    for u, v in t.edges:
        adj[u].add(v)
        adj[v].add(u)
    leaves = [v for v in range(1, n + 1) if len(adj[v]) == 1]
    heapq.heapify(leaves)
    code = []
    for _ in range(n - 2):
        leaf = heapq.heappop(leaves)
        (nb,) = adj[leaf]
        code.append(nb)
        adj[nb].discard(leaf)
        adj[leaf].clear()
        if len(adj[nb]) == 1:
            heapq.heappush(leaves, nb)
    return tuple(code)


def _decode_edges(n: int, code: Sequence[int]) -> list:
    """O(n) Prufer decode to an edge list (inverse of smallest-leaf encode)."""
    degree = [1] * (n + 1)
    for c in code:
        degree[c] += 1
    ptr = 1
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    edges = []
    for c in code:
        edges.append((leaf, c) if leaf < c else (c, leaf))
        degree[c] -= 1
        if degree[c] == 1 and c < ptr:
            leaf = c
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n))
    return edges


def prufer_decode(n: int, code: Sequence[int]) -> Tree:
    """The unique spanning tree whose Prufer code is `code`."""
    (n,) = _as_ints("n", n, low=(2,))
    code = _as_ints("code", *code)
    if len(code) != n - 2:
        raise ValueError(f"code length {len(code)} != n-2 = {n - 2}")
    for c in code:
        if not (1 <= c <= n):
            raise ValueError(f"code entry {c} out of range 1..{n}")
    return _tree(n, _decode_edges(n, code))


def tree_index(t: Tree) -> int:
    """Base-n integer of the Prufer code; a bijection T_n <-> [0, n^(n-2))."""
    n = t.n
    idx = 0
    for c in prufer_encode(t):
        idx = idx * n + (c - 1)
    return idx


def index_to_code(n: int, idx: int) -> Tuple[int, ...]:
    """Inverse of the base-n digit packing (most significant digit first)."""
    n, idx = _as_ints("n and idx", n, idx, low=(2, 0))
    total = n ** (n - 2)
    if idx >= total:
        raise ValueError(f"tree index {idx} out of range [0, {total})")
    code = []
    for _ in range(n - 2):
        idx, digit = divmod(idx, n)
        code.append(digit + 1)
    return tuple(reversed(code))


def tree_from_index(n: int, idx: int) -> Tree:
    code = index_to_code(n, idx)
    n = len(code) + 2  # n as the checked Python int
    return _tree(n, _decode_edges(n, code))


def cayley_count(n: int) -> int:
    """n^(n-2), the number of labelled spanning trees of K_n."""
    (n,) = _as_ints("n", n, low=(2,))
    return n ** (n - 2)


def enumerate_trees(
    n: int, *, start: int = 0, stop: Optional[int] = None
) -> Iterator[Tree]:
    """All spanning trees of K_n in ascending tree-index order.

    `start`/`stop` select a tree-index interval, so iteration can be
    range-partitioned.  Refuses n above the enumeration cap (at the call,
    not at the first tree).
    """
    (n,) = _as_ints("n", n, low=(2,))
    _check_cap("enum_cap", DEFAULT_ENUM_CAP, n, "vertices to enumerate trees on")
    total = n ** (n - 2)
    start, stop = _as_ints("start and stop", start, total if stop is None else stop)
    if not (0 <= start <= stop <= total):
        raise ValueError(f"bad index range [{start}, {stop}) for n={n}")
    codes = islice(product(range(1, n + 1), repeat=n - 2), start, stop)
    return (_tree(n, _decode_edges(n, code)) for code in codes)


def sample_uniform_tree(n: int, seed: int) -> Tree:
    """A uniformly random spanning tree of K_n from a seeded generator.

    Identical seed gives an identical tree: the first of
    sample_uniform_trees(n, seed, count) for any count.
    """
    return sample_uniform_trees(n, seed, 1)[0]


def sample_uniform_trees(n: int, seed: int, count: int) -> list:
    """`count` independent uniform spanning trees from one seeded stream."""
    n, count = _as_ints("n and count", n, count, low=(2, 0))
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        code = [rng.randrange(1, n + 1) for _ in range(n - 2)]
        out.append(_tree(n, _decode_edges(n, code)))
    return out


# -- bit-packed edge sets ----------------------------------------------------


def edge_bit(n: int, u: int, v: int) -> int:
    """Lexicographic bit position of edge (u,v), u < v, in the C(n,2) order."""
    if u > v:
        u, v = v, u
    return (u - 1) * (2 * n - u) // 2 + (v - u - 1)


def all_edges(n: int) -> list:
    """All C(n,2) edges of K_n in lexicographic (= bit) order."""
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]


def edges_to_mask(n: int, edges: Iterable) -> int:
    """Bitmask of an edge set on [n]: edge (u,v) sets bit edge_bit(n, u, v).

    Every edge must be a pair of integers joining two distinct vertices of
    1..n and appear once.  An out-of-range edge would land on some other
    edge's bit and a duplicate would vanish, so _normalize_edges rejects both
    here, where every sweep builds masks.
    """
    return sum(1 << edge_bit(n, u, v) for u, v in _normalize_edges(n, edges))


def mask_to_edges(n: int, mask: int) -> list:
    """Inverse of edges_to_mask (edges come out in lexicographic order)."""
    out = []
    for b, e in enumerate(all_edges(n)):
        if mask >> b & 1:
            out.append(e)
    return out


# typed: an untyped cache serves 4.0 and True the entries of 4 and 1, unchecked
@lru_cache(maxsize=None, typed=True)
def tree_masks(n: int) -> tuple:
    """Edge bitmasks (Python ints) of every spanning tree of K_n, indexed by
    tree index; refuses n above the enumeration cap.  Cached."""
    return tuple(tree_mask_array(n).tolist())


@lru_cache(maxsize=None, typed=True)
def tree_mask_array(n: int):
    """tree_masks(n) as a numpy uint64 array, read-only since every caller
    shares it; refuses n above the enumeration cap before it allocates."""
    (n,) = _as_ints("n", n, low=(2,))
    _check_cap("enum_cap", DEFAULT_ENUM_CAP, n, "vertices to enumerate trees on")
    masks = _decode_all(n)
    masks.flags.writeable = False
    return masks


def _decode_all(n: int):
    """The edge masks of all n^(n-2) Prufer codes in tree-index order, decoded
    at once (_decode_edges is the per-code oracle).  Step k takes each code's
    lowest live vertex missing from c_k..c_{n-2}, a set fixed by the index's
    last n-2-k base-n digits: one row broadcast over an (n^k, ...) view."""
    import numpy as np

    low = np.zeros(1 << n, np.uint8)  # lowest vertex of a vertex set
    for v in range(n):
        low[1 << v :: 2 << v] = v
    vbits = np.uint16(1) << np.arange(n, dtype=np.uint16)
    eu, ev = np.array(all_edges(n)).T - 1
    bit = np.zeros((n, n), np.uint64)  # bit[u-1, v-1]: the mask of edge uv
    bit[eu, ev] = bit[ev, eu] = np.uint64(1) << np.arange(len(eu), dtype=np.uint64)
    suffixes = [np.zeros(1, np.uint16)]  # suffixes[j]: vertex sets of the last j digits
    for _ in range(n - 2):
        suffixes.append((vbits[:, None] | suffixes[-1]).ravel())
    live = np.full(n ** (n - 2), (1 << n) - 1, np.uint16)
    masks = np.zeros(n ** (n - 2), np.uint64)
    for k in range(n - 2):
        rest = n ** (n - 3 - k)
        alive, out = live.reshape(n**k, n * rest), masks.reshape(n**k, n * rest)
        leaf = low[alive & ~suffixes[n - 2 - k]]
        out |= bit[leaf, np.repeat(np.arange(n, dtype=np.uint8), rest)]
        alive ^= vbits[leaf]
    masks |= bit[low[live], n - 1]  # the last two live: a leaf and n
    return masks


# -- the mask kernel ------------------------------------------------------------
# Every sweep over tree masks reduces to "popcount of a & b": the universe
# sweeps count, per tree, how many edges of one mask it holds (edge_hits); the
# pairwise sweeps (family checks, Gamma_t rows) AND blocks of rows of one mask
# matrix against another (pair_blocks).  numpy is imported inside the
# functions so that importing the package is cheap.

# cells in the largest block a sweep holds: pair_blocks' uint64 ANDs (512 KiB), D_t's Laplacians
_BLOCK_CELLS = 1 << 16


def _as_ints(what: str, *values, low: Sequence = ()) -> Tuple[int, ...]:
    """The values as Python ints; numpy integers pass.  A bool, float, string
    or None is a ValueError naming `what` ("n", "n and t", "n, t and j_max"),
    and so is a value below its entry of `low`, a lower bound (or None) per
    leading value; bounds past the last value are not read.  Every integer
    argument of an entry point is checked here, by a raise that `python -O`
    keeps."""
    if not any(isinstance(v, bool) for v in values):
        try:
            ints = tuple(map(operator.index, values))
        except TypeError:
            pass
        else:
            for i, (v, least) in enumerate(zip(ints, low)):
                if least is not None and v < least:
                    name = what.replace(" and ", ", ").split(", ")[i]
                    raise ValueError(f"{name}={v} must be >= {least}")
            return ints
    kind = "an integer" if len(values) == 1 else "integers"
    raise ValueError(f"{what} must be {kind}, got {', '.join(map(repr, values))}")


def edge_hits(n: int, edges: Iterable):
    """How many of `edges` each spanning tree of K_n contains, in tree-index order.

    A uint8 array over the cached tree universe; refuses n above the
    enumeration cap.  Containment of a k-edge set is `== k`, avoidance
    `== 0`, "at least m of them" `>= m`.
    """
    import numpy as np

    (n,) = _as_ints("n", n, low=(2,))
    return np.bitwise_count(tree_mask_array(n) & np.uint64(edges_to_mask(n, edges)))


def mask_matrix(masks: Sequence[int]):
    """Python-int bitmasks of any width as a (V, W) little-endian uint64 array.

    W is the number of 64-bit words of the widest mask (at least 1); word w
    of row i holds bits 64w .. 64w+63 of masks[i].  A 1-D uint64 array (the
    realised families) is already its one-word matrix and is not copied.
    """
    import numpy as np

    if isinstance(masks, np.ndarray) and masks.dtype == np.uint64 and masks.ndim == 1:
        return np.ascontiguousarray(masks, dtype="<u8").reshape(len(masks), 1)
    width = max((m.bit_length() for m in masks), default=0)
    words = max(1, -(-width // 64))
    buf = b"".join(m.to_bytes(8 * words, "little") for m in masks)
    return np.frombuffer(buf, dtype="<u8").reshape(len(masks), words)


def pair_blocks(a, b=None):
    """AND blocks of rows of the (V, W) uint64 mask matrix `a` against `b`.

    Yields (lo, block) with block[i, j] = a[lo + i] & b[j] or, without b,
    a[lo + i] & a[lo + j] (only j > i is a new pair).  Every block has as
    many rows as keep it within _BLOCK_CELLS cells, at least one, so the
    temporaries stay near 512 KiB however many rows there are.
    """
    V, W = a.shape
    step = max(1, _BLOCK_CELLS // max(1, W * (V if b is None else len(b))))
    for lo in range(0, V, step):
        yield lo, a[lo : lo + step, None, :] & (a[None, lo:] if b is None else b[None])


def shared_bits(block):
    """Popcounts of a pair_blocks block summed over its words.  The words are
    added slice by slice: numpy sums a short last axis far more slowly."""
    import numpy as np

    counts = np.bitwise_count(block)
    if counts.shape[2] == 1:
        return counts[..., 0]
    return sum(counts[..., w].astype(np.int32) for w in range(counts.shape[2]))


def _overlap_floors(mat):
    """The rows of a mask matrix in a sweep order, and lower bounds on |a & b|.

    Every pair holds the bits set in all rows, and for any bit set S,
    |a & b| >= |a & S| + |b & S| - |S|.  S is the bits set in at least half
    of the rows.  Returns (order, floors): the row indices by |a & S|
    ascending, and floors[i], a bound for every pair among the rows
    order[i:], since each of them holds at least |order[i] & S| bits of S.
    floors[0] is the minimum itself on the trivial and threshold families
    of n = 5..8.
    """
    import numpy as np

    V = len(mat)
    # rows holding each bit: one bincount of (byte column, byte value) pairs,
    # times the bits of each byte value, rather than a sum over V x 64W
    # unpacked bits
    cells = mat.view(np.uint8)
    C = cells.shape[1]
    counts = np.bincount((cells + np.arange(0, 256 * C, 256)).ravel(), minlength=256 * C)
    byte_bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    # a float64 product is exact for these sums of at most V, and at 8 x 256
    # x 8 it takes 4 us against 11 us for numpy's integer matmul
    held = (counts.reshape(C, 256) @ byte_bits.astype(np.float64)).ravel().astype(np.int64)
    s = np.packbits(2 * held >= V, bitorder="little").view("<u8")
    hits = shared_bits((mat & s)[:, None])[:, 0]
    order = np.argsort(hits, kind="stable")  # radix-sorts one-word (uint8) counts
    low = 2 * hits[order].astype(np.int64) - int(np.bitwise_count(s).sum())
    return order, np.maximum(int((held == V).sum()), low)


def min_pairwise_intersection(masks: Sequence[int]) -> Optional[int]:
    """Smallest edge overlap over all pairs of bitmasks (None if fewer than 2).

    The masks are Python ints or a 1-D uint64 array.  A block of rows at a
    time against the rows from the block on, so memory stays O(V W) rather
    than V x V.  The rows are swept in _overlap_floors' order, and the sweep
    stops once a pair meets the floor of the rows not yet swept, a proven
    lower bound on every pair left, so the answer is exact; at floor 0 a
    disjoint pair ends it.
    """
    import numpy as np

    if len(masks) < 2:
        return None
    mat = mask_matrix(masks)
    order, floors = _overlap_floors(mat)
    mat = mat[order]
    best = 64 * mat.shape[1]
    for lo, block in pair_blocks(mat):
        shared = shared_bits(block)
        k = len(shared)
        # column j is row lo + j: j <= i is the diagonal or a pair seen already
        shared[:, :k][np.tri(k, dtype=bool)] = best
        best = min(best, int(shared.min()))
        if lo + k == len(mat) or best <= floors[lo + k]:
            break
    return best

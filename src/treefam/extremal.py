"""Extremal and conjectured families of t-intersecting spanning trees.

Constructions and their exact sizes:

  * the trivial family: all trees containing a fixed t-edge forest, maximized
    by matchings at 2^t n^(n-t-2);
  * all stars plus all trees through one fixed edge, of size 2n^(n-3) + n - 2;
  * balanced forests F_{n,l} (components as equal as possible) and the
    threshold families "contains >= t+j of the t+2j edges of F_{n,t+2j}";
  * the even-t window 3(t+2)/2 <= n < 2t where the threshold family with
    t/2 + 1 disjoint 3-vertex paths beats the all-paths trivial family.

Also here: the blocked count D_t (trees containing F while avoiding a
non-star tree outside F, minimized over both), checked exactly at small n,
and the lopsided-local-lemma machinery that lower-bounds avoidance counts.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from .counting import _containing_avoiding, _det_spd_batch, count_at_least, count_trees_containing
from .gamma import (
    DEFAULT_NODE_BUDGET,
    SearchResult,
    SimpleGraph,
    _edge_image_bits,
    build_gamma,
    max_independent_set,
)
from .trees import (
    _BLOCK_CELLS,
    DEFAULT_ENUM_CAP,
    Edge,
    Forest,
    Tree,
    _DSU,
    _as_ints,
    _check_cap,
    _forest_on,
    _pair_edges,
    _tree,
    all_edges,
    cayley_count,
    edge,
    edge_hits,
    edges_to_mask,
    is_d_star_like,
    mask_to_edges,
    min_pairwise_intersection,
    tree_mask_array,
)

COMPONENT_SHAPES = ("path", "star", "caterpillar")


# -- family constructions ------------------------------------------------------


def trivial_family_size(n: int, f: Forest) -> int:
    """|T_n[F]| for a t-edge forest F: the trivially t-intersecting family."""
    return count_trees_containing(n, _forest_on(n, f))  # a cycle raises


def stars_plus_edge_size(n: int) -> int:
    """2n^(n-3) + (n-2): all trees through one fixed edge plus all n stars.

    The two stars whose centre is an endpoint of the edge already contain it,
    hence the n - 2 (not n) star term.
    """
    (n,) = _as_ints("n", n, low=(3,))
    return 2 * n ** (n - 3) + (n - 2)


class FamilySpec:
    """A declarative family of spanning trees plus the intersection level it claims.

    kinds: "trivial" (all trees containing a forest), "stars_plus_edge",
    "threshold" (trees with >= m edges of an edge set), "explicit" (a literal
    member list).  realize() materializes the family as tree bitmasks at small
    n, in tree-index order (explicit members in their given order), so the
    claim can be checked pair by pair.
    """

    __slots__ = ("kind", "n", "t", "edges", "threshold", "members")
    # the optional fields each kind reads; giving any other is an error, so
    # a mistyped spec cannot verify some other family
    _READS = {"trivial": ("edges",), "stars_plus_edge": ("edges",),
              "threshold": ("edges", "threshold"), "explicit": ("members",)}

    def __init__(self, kind, n, t, edges=None, threshold=None, members=None):
        if not isinstance(kind, str) or kind not in self._READS:
            raise ValueError(f"unknown family kind {kind!r}")
        optional = {"edges": edges, "threshold": threshold, "members": members}
        unread = [f for f, v in optional.items() if v is not None and f not in self._READS[kind]]
        if unread:
            raise ValueError(f"{kind} families do not read {', '.join(unread)}")
        given = (n, t) if threshold is None else (n, t, threshold)
        self.n, self.t, *rest = _as_ints("n, t and threshold", *given, low=(None, 0, 0))
        self.threshold = rest[0] if rest else None
        if members is not None and not isinstance(members, (list, tuple)):
            raise ValueError(f"members must be a list of trees, got {members!r}")
        self.kind = kind
        self.edges = None if edges is None else _pair_edges(edges)
        self.members = None if members is None else tuple(map(_pair_edges, members))
        if kind == "trivial" and self.edges is None:
            raise ValueError("trivial families need edges")
        if kind == "threshold" and (self.edges is None or threshold is None):
            raise ValueError("threshold families need edges and a threshold")
        if kind == "stars_plus_edge" and self.edges is not None and len(self.edges) != 1:
            raise ValueError(f"a stars_plus_edge family has one edge, got {list(self.edges)}")
        if kind == "explicit" and self.members is None:
            raise ValueError("explicit families need members")
        if self.members is not None and len(set(map(frozenset, self.members))) < len(self.members):
            raise ValueError("explicit family repeats a member")

    def _masks(self):
        """The members as tree masks: a uint64 array, or ints for "explicit".
        The only code that selects a family's members from the tree universe."""
        if self.kind == "trivial":
            size = len(Forest(self.n, self.edges))  # raises on a cycle
            return tree_mask_array(self.n)[edge_hits(self.n, self.edges) == size]
        if self.kind == "threshold":
            return tree_mask_array(self.n)[edge_hits(self.n, self.edges) >= self.threshold]
        if self.kind == "stars_plus_edge":
            keep = edge_hits(self.n, self.edges or [(1, 2)]) >= 1
            # the star at c + 1 is the Prufer code (c + 1, ..., c + 1): tree index c (n^(n-2) - 1)/(n - 1)
            keep[[c * ((self.n ** (self.n - 2) - 1) // (self.n - 1)) for c in range(self.n)]] = True
            return tree_mask_array(self.n)[keep]
        out = []
        for tr in self.members:
            Tree(self.n, tr)  # each member must be a spanning tree
            out.append(edges_to_mask(self.n, tr))
        return out

    def realize(self) -> List[int]:
        masks = self._masks()
        return masks if isinstance(masks, list) else masks.tolist()

    def verify(self) -> Tuple[bool, Optional[int], int]:
        """(claim holds, min pairwise intersection, size) at small n."""
        masks = self._masks()
        mpi = min_pairwise_intersection(masks)
        return (mpi is None or mpi >= self.t), mpi, len(masks)

    def to_json(self) -> str:
        d = {"kind": self.kind, "n": self.n, "t": self.t}
        if self.edges is not None:
            d["edges"] = [list(e) for e in self.edges]
        if self.threshold is not None:
            d["threshold"] = self.threshold
        if self.members is not None:
            d["members"] = [[list(e) for e in tr] for tr in self.members]
        import json

        return json.dumps(d)

    @classmethod
    def from_json(cls, text: str) -> "FamilySpec":
        import json

        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError(f"a family spec is a JSON object, got {d!r}")
        unknown = [k for k in d if k not in cls.__slots__]  # to_json's keys
        if unknown:
            raise ValueError(f"unknown family spec key {', '.join(map(repr, unknown))}")
        return cls(
            d["kind"],
            d["n"],
            d["t"],
            edges=d.get("edges"),
            threshold=d.get("threshold"),
            members=d.get("members"),
        )


def _component_edges(block: Sequence[int], shape: str) -> List[Edge]:
    """Edges of one component on a consecutive label block, given its shape."""
    k = len(block)
    if k < 2:
        return []
    if shape == "path":
        return [edge(block[i], block[i + 1]) for i in range(k - 1)]
    if shape == "star":
        return [edge(block[0], x) for x in block[1:]]
    if shape == "caterpillar":
        # spine on the first ceil(k/2) labels, remaining labels attached to
        # spine vertices cyclically from the spine start
        h = (k + 1) // 2
        spine = block[:h]
        out = [edge(spine[i], spine[i + 1]) for i in range(h - 1)]
        for j, leaf in enumerate(block[h:]):
            out.append(edge(spine[j % h], leaf))
        return out
    raise ValueError(f"unknown component shape {shape!r}")


def balanced_forest(n: int, l: int, shape: str = "path") -> Forest:
    """The canonical forest on [n] with l edges and near-equal components.

    It has c = n - l components; n mod c of them have ceil(n/c) vertices and
    the rest floor(n/c).  Components live on consecutive label blocks, larger
    blocks first, each shaped per `shape` (paths by default).
    """
    n, l = _as_ints("n and l", n, l, low=(1, 0))
    if l > n - 1:
        raise ValueError(f"l={l} out of range 0..{n - 1}")
    c = n - l
    big = n % c
    size_hi, size_lo = -(-n // c), n // c
    edges: List[Edge] = []
    start = 1
    for i in range(c):
        k = size_hi if i < big else size_lo
        block = list(range(start, start + k))
        edges.extend(_component_edges(block, shape))
        start += k
    return Forest(n, edges)


def example_forest(n: int, t: int) -> Forest:
    """t/2 + 1 disjoint 3-vertex paths on consecutive labels (t even)."""
    n, t = _as_ints("n and t", n, t)
    if t % 2 != 0 or t < 2:
        raise ValueError(f"t={t} must be a positive even integer")
    paths = t // 2 + 1
    if 3 * paths > n:
        raise ValueError(f"n={n} cannot host {paths} disjoint 3-vertex paths")
    edges: List[Edge] = []
    for i in range(paths):
        a = 3 * i + 1
        edges.extend([(a, a + 1), (a + 1, a + 2)])
    return Forest(n, edges)


def family_F_ntj_size(n: int, t: int, j: int, shape: str = "path") -> int:
    """Size of the threshold family: trees with >= t+j of the t+2j edges of
    the balanced forest F_{n, t+2j}.  At j = 0 this is the trivial family."""
    n, t, j = _as_ints("n, t and j", n, t, j, low=(2, 1, 0))
    if t + 2 * j > n - 1:
        raise ValueError(f"t+2j = {t + 2 * j} exceeds n-1 = {n - 1}")
    f = balanced_forest(n, t + 2 * j, shape)
    if j == 0:
        return trivial_family_size(n, f)
    return count_at_least(n, f, t + j)


class ExampleReport:
    """Closed form vs baseline for the even-t window 3(t+2)/2 <= n < 2t."""

    __slots__ = (
        "n",
        "t",
        "threshold_size",
        "trivial_paths_size",
        "quadratic",
        "threshold_larger",
    )

    def __init__(self, n, t, threshold_size, trivial_paths_size, quadratic):
        self.n = n
        self.t = t
        self.threshold_size = threshold_size
        self.trivial_paths_size = trivial_paths_size
        self.quadratic = quadratic
        self.threshold_larger = quadratic < 0

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "threshold_size": str(self.threshold_size),
            "trivial_paths_size": str(self.trivial_paths_size),
            "quadratic": self.quadratic,
            "threshold_larger": self.threshold_larger,
        }


def example_closed_form(n: int, t: int) -> ExampleReport:
    """Closed-form size 3^(t/2) n^(n-t-4) (2nt + 4n - 3t - 3) of the family
    "trees with >= t+1 of the t+2 edges of t/2+1 disjoint 3-paths", against
    the all-paths trivial baseline 3^(t/2) n^(n-2-t).

    The threshold family wins exactly when n^2 - (4+2t)n + 3t + 3 < 0, which
    holds throughout the admissible window.
    """
    n, t = _as_ints("n and t", n, t)
    if t % 2 != 0 or t < 2:
        raise ValueError(f"t={t} must be a positive even integer")
    if not (3 * (t + 2) // 2 <= n < 2 * t):
        raise ValueError(
            f"(n,t)=({n},{t}) outside the window 3(t+2)/2 <= n < 2t"
        )
    threshold = 3 ** (t // 2) * n ** (n - t - 4) * (2 * n * t + 4 * n - 3 * t - 3)
    baseline = 3 ** (t // 2) * n ** (n - 2 - t)
    quad = n * n - (4 + 2 * t) * n + 3 * t + 3
    report = ExampleReport(n, t, threshold, baseline, quad)
    if report.threshold_larger != (threshold > baseline):
        raise RuntimeError(
            f"(n,t)=({n},{t}): quadratic sign disagrees with the closed-form sizes"
        )
    return report


class ScanRow:
    __slots__ = ("n", "t", "j", "size", "winner")

    def __init__(self, n, t, j, size, winner=False):
        self.n = n
        self.t = t
        self.j = j
        self.size = size
        self.winner = winner


class ScanReport:
    """Sizes of the threshold families F_{n,t,j} for j = 0..j_max."""

    __slots__ = ("n", "t", "shape", "rows", "best_j", "weak_consistent")

    def __init__(self, n, t, shape, rows, best_j, weak_consistent):
        self.n = n
        self.t = t
        self.shape = shape
        self.rows = rows
        self.best_j = best_j
        self.weak_consistent = weak_consistent

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "shape": self.shape,
            "rows": [
                {"j": r.j, "size": str(r.size), "winner": r.winner}
                for r in self.rows
            ],
            "best_j": self.best_j,
            "weak_consistent": self.weak_consistent,
        }


def conjecture_scan(n: int, t: int, j_max: int, shape: str = "path") -> ScanReport:
    """Tabulate |F_{n,t,j}| for j = 0..j_max and record the argmax.

    Ties resolve to the smallest j.  When t <= n/2, weak_consistent records
    whether j = 0 (the plain trivial family) wins, as expected for that range.
    """
    n, t, j_max = _as_ints("n, t and j_max", n, t, j_max, low=(2, 1, 0))
    if t + 2 * j_max > n - 1:
        raise ValueError(f"t + 2*j_max = {t + 2 * j_max} exceeds n-1 = {n - 1}")
    rows = [ScanRow(n, t, j, family_F_ntj_size(n, t, j, shape)) for j in range(j_max + 1)]
    best = max(range(len(rows)), key=lambda i: (rows[i].size, -i))
    rows[best].winner = True
    weak = rows[best].j == 0 if 2 * t <= n else None
    return ScanReport(n, t, shape, rows, rows[best].j, weak)


# -- avoidance counts and the blocked quantity D_t -----------------------------


def count_avoiding(n: int, t0: Forest, f: Forest, method: str = "ie") -> int:
    """|T_n[T_0; F]|: trees containing every edge of f and no edge of t0
    outside f.

    It reads N_0 of the matrix-tree kernel, one determinant per block, at
    any n.  "ie", the one method, is the kernel's historical name (it
    replaced an inclusion-exclusion walk); the tests recount by
    enumeration.
    """
    if method != "ie":
        raise ValueError(f"unknown method {method!r} (want 'ie')")
    (n,) = _as_ints("n", n, low=(2,))
    t0, f = _forest_on(n, t0), _forest_on(n, f)
    return _containing_avoiding(n, tuple(sorted(set(t0.edges) - set(f.edges))), f.edges)


class BlockedReport:
    """Exact D_t with argmin witnesses and the asymptotic-bound context.

    orbits counts the S_n-orbits of t-edge forests (unlabelled t-forests),
    and pairs_checked the admissible pairs scored: one tree of each
    unlabelled non-star type against each labelled t-edge forest.
    """

    __slots__ = (
        "n",
        "t",
        "value",
        "argmin_forest",
        "argmin_tree",
        "pairs_checked",
        "orbits",
        "prop_hypothesis_met",
        "prop_bound",
    )

    def __init__(self, n, t, value, argmin_forest, argmin_tree, pairs_checked, orbits):
        self.n = n
        self.t = t
        self.value = value
        self.argmin_forest = argmin_forest
        self.argmin_tree = argmin_tree
        self.pairs_checked = pairs_checked
        self.orbits = orbits
        # the proven bound n^(n-2t-17) needs n >= 2t + 110; report it for
        # context (it is < 1, hence vacuous, anywhere we can exhaust)
        self.prop_hypothesis_met = n >= 2 * t + 110
        e = n - 2 * t - 17
        self.prop_bound = Fraction(n) ** e

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "value": str(self.value),
            "argmin_forest": [list(e) for e in self.argmin_forest.edges],
            "argmin_tree": [list(e) for e in self.argmin_tree.edges],
            "pairs_checked": self.pairs_checked,
            "orbits": self.orbits,
            "prop_hypothesis_met": self.prop_hypothesis_met,
            "prop_bound": f"{self.prop_bound.numerator}/{self.prop_bound.denominator}",
        }


@lru_cache(maxsize=None)
def _forest_orbits(n: int, t: int) -> Tuple[Tuple[int, ...], ...]:
    """The lexicographically first t-edge forest of each S_n-orbit, as
    ascending edge-bit tuples, in lexicographic order.  Canonical
    augmentation: such a forest less its last edge is the first of its own
    orbit, so level t grows level t - 1 (memoised, so each level is walked
    once per process) by a later edge that joins two of its classes, and
    keeps the results first in their orbit (the OR of their _edge_image_bits
    rows, a block of candidates at a time), where G comes before F if the
    lowest bit of F ^ G is in G."""
    import numpy as np

    if t == 0:
        return ((),)
    images = _edge_image_bits(n)
    edges = all_edges(n)
    step = max(1, _BLOCK_CELLS // images.shape[1])
    grown = []
    for bits in _forest_orbits(n, t - 1):
        dsu = _DSU(n)
        for b in bits:
            dsu.union(*edges[b])
        lo = bits[-1] + 1 if bits else 0
        free = [b for b in range(lo, len(edges)) if dsu.find(edges[b][0]) != dsu.find(edges[b][1])]
        orbit = np.bitwise_or.reduce(images[list(bits)], axis=0)
        for i in range(0, len(free), step):
            rows = free[i : i + step]
            cand = images[rows] | orbit  # row j: the orbit of bits + (rows[j],)
            diff = cand ^ cand[:, :1]  # column 0 is the identity
            grown += [bits + (rows[j],) for j in np.flatnonzero(~(diff & (0 - diff) & cand).any(axis=1))]
    return tuple(grown)


@lru_cache(maxsize=None)
def _forest_level(n: int, t: int):
    """Every labelled t-edge forest on [n], orbit by orbit in the order of
    _forest_orbits(n, t), as read-only arrays: edge masks (N,), edge bits
    (t, N), class-pair masks (k, k, N) and the orbits' start indices.

    An orbit is the distinct images g(R) of its representative R under the
    columns g of _edge_image_bits(n), one column kept per image.  A
    relabelling maps classes to classes and cuts to cuts, so the masks of
    g(R) are g's images of R's: [i, j] is the AND of the cuts of classes i
    and j (the edges between them, or leaving class i when i = j), over
    every class of R but its first, k = n - t - 1 of them."""
    import numpy as np

    images = _edge_image_bits(n)
    edges = all_edges(n)
    masks, bits, cells, starts = [], [], [], [0]
    for rep in _forest_orbits(n, t):
        img = np.bitwise_or.reduce(images[list(rep)], axis=0)
        cols = np.argsort(img)  # then one relabelling per distinct image
        cols = cols[np.append(True, img[cols[1:]] != img[cols[:-1]])]
        classes = Forest(n, [edges[b] for b in rep]).classes()[1:]
        cut_bits = [[b for b, (u, v) in enumerate(edges) if (u in c) != (v in c)] for c in classes]
        cuts = np.array([np.bitwise_or.reduce(images[np.ix_(cut, cols)], axis=0) for cut in cut_bits])
        masks.append(img[cols])
        bits.append(np.bitwise_count(images[np.ix_(rep, cols)] - np.uint64(1)))
        cells.append(cuts[:, None] & cuts)
        starts.append(starts[-1] + len(cols))
    level = np.concatenate(masks), np.concatenate(bits, axis=1), np.concatenate(cells, axis=2), np.array(starts)
    for a in level:
        a.flags.writeable = False
    return level


def _scored(level, trees, t):
    """Every pair of the tree masks `trees` and the forests of a
    _forest_level, a block of at most _BLOCK_CELLS Laplacian cells at a
    time: whole rows of trees while they fit, else one tree against a slice
    of the forests.  Yields (first tree, first forest, admissible, counts)
    per block, the last two (trees, forests) arrays.  Every pair has a
    count, since K_n less a non-star tree stays connected when F is
    contracted, so no pair is filtered before its determinant."""
    import numpy as np

    fmasks, _, cells, _ = level
    k = len(cells)
    sign = 2 * np.eye(k, dtype=np.int64)[:, :, None, None] - 1
    step = max(1, _BLOCK_CELLS // (k * k))
    fstep = min(len(fmasks), step)
    tstep = max(1, step // fstep)
    for a in range(0, len(trees), tstep):
        tm = trees[a : a + tstep, None]
        for f in range(0, len(fmasks), fstep):
            lap = sign * np.bitwise_count(cells[:, :, None, f : f + fstep] & ~tm)
            counts = _det_spd_batch(lap.reshape(k, k, -1)).reshape(lap.shape[2:])
            yield a, f, np.bitwise_count(tm & fmasks[f : f + fstep]) < t, counts


def blocked_Dt(n: int, t: int) -> BlockedReport:
    """Exact D_t = min over t-edge forests F and non-star trees T_0 with
    |T_0 and F| < t of |T_n[T_0; F]|, by exhaustive double minimization.

    A relabelling of the vertices maps admissible pairs to admissible pairs
    and keeps every count, so one tree of each unlabelled non-star type
    (_forest_orbits(n, n - 1) less the star) against every labelled
    t-forest (_forest_level) meets every pair's orbit.  A count is the
    determinant of the reduced Laplacian of K_n - T_0 with F contracted
    (positive definite: a non-star tree's complement is connected), whose
    entries count the edges outside T_0 between classes or leaving one.

    The witnesses are those of a scan of every forest orbit's first forest,
    in lexicographic order, against the tree universe in tree-index order,
    first strict minimum kept: F* is the representative of the first orbit
    with a tying pair, and T* the least tree index among g(T) over the tying
    pairs (T, F) with F in that orbit and g a relabelling that maps F onto
    F*.  That lookup reads the tree universe, so n is capped.
    """
    import numpy as np

    n, t = _as_ints("n and t", n, t, low=(3, 1))
    _check_cap("enum_cap", DEFAULT_ENUM_CAP, n, "vertices for the D_t exhaustion")
    if t > n - 2:
        raise ValueError(f"t={t} out of range 1..{n - 2}")
    # the first tree type, bits 0..n-2, is the star at vertex 1
    types = np.array(_forest_orbits(n, n - 1)[1:], dtype=np.intp).reshape(-1, n - 1)
    trees = np.bitwise_or.reduce(np.uint64(1) << types.astype(np.uint64), axis=1)
    level = _forest_level(n, t)
    _, bits, _, starts = level
    best, ties, pairs = None, [], 0  # the least count and the pairs that reach it
    for a, f, ok, counts in _scored(level, trees, t):
        pairs += int(ok.sum())
        if not ok.any():
            continue
        low = counts[ok].min()
        if best is None or low < best:
            best, ties = low, []
        if low == best:
            ti, fi = np.nonzero(ok & (counts == low))
            ties.append((ti + a, fi + f))
    if best is None:
        raise ValueError(f"no admissible (F, T_0) pair at n={n}, t={t}")
    ti, fi = map(np.concatenate, zip(*ties))
    p = int(np.searchsorted(starts, fi.min(), "right")) - 1  # F*'s orbit
    rep = _forest_orbits(n, t)[p]
    ti, fi = ti[fi < starts[p + 1]], fi[fi < starts[p + 1]]
    images, target = _edge_image_bits(n), sum(1 << b for b in rep)
    found, step = [], max(1, _BLOCK_CELLS // (t * images.shape[1]))
    for i in range(0, len(fi), step):
        # j, g: a tying pair and a relabelling that maps its forest onto F*
        j, g = np.nonzero(np.bitwise_or.reduce(images[bits[:, fi[i : i + step]]], axis=0) == target)
        found.append(np.bitwise_or.reduce(images[types[ti[i + j]].T, g], axis=0))
    # T* is the first tree of the universe among them: a binary search in
    # the sorted masks, where position len(found) wraps to 0, a smaller mask
    found = np.sort(np.concatenate(found))
    arr = tree_mask_array(n)
    idx = int(np.argmax(found[np.searchsorted(found, arr) % len(found)] == arr))
    edges = all_edges(n)
    forest = Forest(n, [edges[b] for b in rep])
    tree = _tree(n, mask_to_edges(n, int(arr[idx])))
    return BlockedReport(n, t, int(best), forest, tree, pairs, len(_forest_orbits(n, t)))


# -- lopsided local lemma ------------------------------------------------------


class LLLLReport:
    """Verdict of the lopsided-local-lemma hypothesis check plus its bound."""

    __slots__ = ("ok", "bound", "failing_index")

    def __init__(self, ok: bool, bound: Fraction, failing_index: Optional[int]):
        self.ok = ok
        self.bound = bound
        self.failing_index = failing_index

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "bound": f"{self.bound.numerator}/{self.bound.denominator}",
            "failing_index": self.failing_index,
        }


def llll_condition_check(
    p: Sequence, x: Sequence, adjacency: Sequence[Sequence[int]]
) -> LLLLReport:
    """Check p_i <= x_i * prod over neighbours j of (1 - x_j), for every event i.

    `adjacency` is the negative dependency graph as neighbour lists over event
    indices 0..N-1, list i without repeats or i itself.  When the condition
    holds, all events fail simultaneously with probability at least
    prod(1 - x_i); that product is returned exactly (inputs are taken as
    rationals).
    """
    p, x = _rationals("p", p), _rationals("x", x)
    try:
        adjacency = [_as_ints(f"adjacency[{i}]", *row) for i, row in enumerate(adjacency)]
    except TypeError:  # not a list, or a row that is not a list
        raise ValueError(f"adjacency must be neighbour lists, got {adjacency!r}") from None
    if len(p) != len(x) or len(p) != len(adjacency):
        raise ValueError("p, x, adjacency must have equal length")
    for i, row in enumerate(adjacency):
        if len(set(row)) < len(row) or any(j == i or not 0 <= j < len(p) for j in row):
            raise ValueError(f"adjacency[{i}]={list(row)} must list distinct events "
                             f"of 0..{len(p) - 1} other than {i}")
    for i, xi in enumerate(x):
        if not (0 <= xi < 1):
            raise ValueError(f"x[{i}]={xi} outside [0, 1)")
    for i, pi in enumerate(p):
        if not (0 <= pi <= 1):
            raise ValueError(f"p[{i}]={pi} outside [0, 1]")
    failing = None
    for i in range(len(p)):
        rhs = x[i]
        for j in adjacency[i]:
            rhs *= 1 - x[j]
        if p[i] > rhs:
            failing = i
            break
    bound = Fraction(1)
    for xi in x:
        bound *= 1 - xi
    return LLLLReport(failing is None, bound, failing)


def _rationals(what: str, values) -> List[Fraction]:
    try:
        return [Fraction(v) for v in values]
    except (TypeError, ValueError, ArithmeticError):  # None, a list, "1/0", inf
        raise ValueError(f"{what} must be a list of rationals, got {values!r}") from None


def line_graph_adjacency(f: Forest) -> List[List[int]]:
    """Line graph of a forest as neighbour lists over edge indices (sorted order)."""
    es = f.edges
    adj: List[List[int]] = [[] for _ in es]
    for i in range(len(es)):
        a, b = es[i]
        for j in range(i + 1, len(es)):
            c, d = es[j]
            if a in (c, d) or b in (c, d):
                adj[i].append(j)
                adj[j].append(i)
    return adj


class NotstarReport:
    """Avoidance-count lower bounds for a non-6-star-like forest T_0.

    Two independent comparisons are made (neither implies the other at finite
    n, since (1-4/n)^(n-1) < e^-4 < (1-4/n)^0):

      * rational_ok:  avoid_count >= (1 - 4/n)^(n-1) * n^(n-2), checked on
        cross-multiplied integers;
      * e4_ok:        avoid_count >= e^-4 * n^(n-2), checked against a
        30-digit decimal evaluation of e^-4.

    llll_ok reports whether the local-lemma hypothesis (p = 2/n, x = 4/n on
    the line graph of T_0) holds, i.e. whether the probabilistic route to the
    bound applies, not just the bound itself.
    """

    __slots__ = (
        "n",
        "avoid_count",
        "rational_ok",
        "rational_bound",
        "e4_ok",
        "e4_bound",
        "llll_ok",
        "verdict",
    )

    def __init__(self, n, avoid_count, rational_ok, rational_bound, e4_ok, e4_bound, llll_ok):
        self.n = n
        self.avoid_count = avoid_count
        self.rational_ok = rational_ok
        self.rational_bound = rational_bound
        self.e4_ok = e4_ok
        self.e4_bound = e4_bound
        self.llll_ok = llll_ok
        self.verdict = rational_ok and e4_ok

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "avoid_count": str(self.avoid_count),
            "rational_ok": self.rational_ok,
            "rational_bound": f"{self.rational_bound.numerator}/{self.rational_bound.denominator}",
            "e4_ok": self.e4_ok,
            "e4_bound": str(self.e4_bound),
            "llll_ok": self.llll_ok,
            "verdict": self.verdict,
        }


def lemma_notstar_check(n: int, t0: Forest) -> NotstarReport:
    """Verify the avoidance lower bounds for a non-6-star-like forest T_0.

    6-star-like inputs are rejected with the witness edge in the message.
    The avoid count is exact: one matrix-tree determinant at any n.
    """
    (n,) = _as_ints("n", n, low=(5,))
    t0 = _forest_on(n, t0)
    if is_d_star_like(t0, 6):
        deg = t0.degrees()
        witness = max(t0.edges, key=lambda e: deg[e[0]] + deg[e[1]] - 2)
        raise ValueError(
            f"t0 is 6-star-like: edge {witness} meets "
            f"{deg[witness[0]] + deg[witness[1]] - 2} >= (n-1)/6 other edges"
        )
    count = count_avoiding(n, t0, Forest(n))
    rational_bound = Fraction((n - 4) ** (n - 1), n)  # (1-4/n)^(n-1) n^(n-2)
    rational_ok = count >= rational_bound
    with localcontext() as ctx:
        ctx.prec = 50
        e4 = (-Decimal(4)).exp()
        e4_bound = +(e4 * Decimal(cayley_count(n)))
        ctx.prec = 30
        e4_bound_30 = +e4_bound
        e4_ok = Decimal(count) >= e4_bound
    adj = line_graph_adjacency(t0)
    m = len(t0.edges)
    llll = llll_condition_check(
        [Fraction(2, n)] * m, [Fraction(4, n)] * m, adj
    )
    return NotstarReport(
        n, count, rational_ok, rational_bound, e4_ok, e4_bound_30, llll.ok
    )


# -- exact search over Gamma_t(K_n) -------------------------------------------


def brute_force_max_t_intersecting(
    n: int, t: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> Tuple[SearchResult, dict]:
    """Exact maximum t-intersecting family of spanning trees of K_n.

    Branch and bound for a maximum independent set of Gamma_t(K_n), so
    gamma_cap bounds n (K_7 passes, K_8 does not) and node_budget the search.
    Returns the result and a comparison with the best trivial family (all
    trees through the balanced t-edge forest) and, at t = 1 and n >= 3,
    stars-plus-edge.
    """
    n, t = _as_ints("n and t", n, t, low=(2, 1))
    gamma = build_gamma(SimpleGraph.complete(n), t)
    result = max_independent_set(gamma, budget=node_budget)
    comparison = {"found": result.size, "optimal": result.optimal,
                  "best_trivial": count_trees_containing(n, balanced_forest(n, t))}
    if t == 1 and n >= 3:
        comparison["stars_plus_edge"] = stars_plus_edge_size(n)
    return result, comparison

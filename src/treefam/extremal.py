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
from .gamma import DEFAULT_NODE_BUDGET, SearchResult, SimpleGraph, build_gamma, max_independent_set
from .trees import (
    _BLOCK_CELLS,
    Edge,
    Forest,
    Tree,
    _as_ints,
    _check_cap,
    _forest_on,
    _pair_edges,
    cayley_count,
    edge,
    edge_hits,
    edges_to_mask,
    is_d_star_like,
    min_pairwise_intersection,
    tree_from_index,
    tree_mask_array,
)

COMPONENT_SHAPES = ("path", "star", "caterpillar")
DEFAULT_DT_CAP = 10


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
    """Exact D_t with argmin witnesses and the asymptotic-bound context;
    pairs_checked counts the admissible (non-star tree type, vertex
    partition) pairs, and partitions the partitions into n - t blocks."""

    __slots__ = ("n", "t", "value", "argmin_forest", "argmin_tree", "pairs_checked", "partitions",
                 "prop_hypothesis_met", "prop_bound")

    def __init__(self, n, t, value, argmin_forest, argmin_tree, pairs_checked, partitions):
        self.n, self.t, self.value = n, t, value
        self.argmin_forest, self.argmin_tree = argmin_forest, argmin_tree
        self.pairs_checked, self.partitions = pairs_checked, partitions
        # the proven bound n^(n-2t-17) needs n >= 2t + 110: context, < 1 wherever we can exhaust
        self.prop_hypothesis_met = n >= 2 * t + 110
        self.prop_bound = Fraction(n) ** (n - 2 * t - 17)

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in self.__slots__}
        out.update(value=str(self.value), prop_bound="%d/%d" % self.prop_bound.as_integer_ratio())
        for name in ("argmin_forest", "argmin_tree"):
            out[name] = [list(e) for e in out[name].edges]
        return out


@lru_cache(maxsize=None)
def _free_trees(n: int):
    """One labelling of each unlabelled tree on n >= 2 vertices, by leaf
    augmentation: read-only 0-based edges (types, n - 1, 2) and closed
    neighbourhood bitmasks (types, n), one tree per centre-rooted AHU
    string (Aho, Hopcroft and Ullman, 1974) in string order, so the star,
    whose string is the greatest since "(" < ")", comes last."""
    import numpy as np

    def ahu(tree):  # (the least string over the centres, left by peeling leaves, (tree, masks))
        adj = [[] for _ in range(n)]
        for u, v in tree:
            adj[u].append(v)
            adj[v].append(u)
        rest = set(range(n))
        while len(rest) > 2:
            rest -= {v for v in rest if sum(w in rest for w in adj[v]) == 1}

        def code(v, up):
            return "(" + "".join(sorted(code(w, v) for w in adj[v] if w != up)) + ")"

        return min(code(c, -1) for c in rest), (tree, [sum(1 << w for w in adj[v]) | 1 << v for v in range(n)])

    grown = {}
    for tree in _free_trees(n - 1)[0].tolist() if n > 2 else [[]]:
        for v in range(n - 1):
            grown.setdefault(*ahu(tree + [[v, n - 1]]))
    level = tuple(np.array(a, np.int64) for a in zip(*(grown[key] for key in sorted(grown))))
    for a in level:
        a.flags.writeable = False
    return level


@lru_cache(maxsize=None)
def _partition_level(n: int, t: int):
    """The partitions of [n] into m = n - t blocks as restricted growth
    strings (Knuth, TAOCP 4A, 7.2.1.5), read-only: each vertex's block as a
    one-hot row less block 0, vertex first; the contracted reduced
    Laplacian of K_n; each vertex's block as a bitmask, and its star-block
    weight (2 in a block of 3 or more, 1 in a block of 2); whether the
    partition has the star K_(1,t)'s shape, t + 1 and singletons; a
    relabelling of its largest block onto 0..t and the rest onto t+1..n-1,
    each ascending; and that shape's stabiliser S_(t+1) x S_(n-t-1)."""
    import numpy as np

    def orderings(k):  # each ordering of range(j) with j put at each place
        rows = np.zeros((1, 0), np.int8)
        for j in range(k):
            rows = np.concatenate([np.insert(rows, i, j, axis=1) for i in range(j + 1)])
        return rows

    m = n - t
    labels, used, grow = np.zeros((1, 1), np.intp), np.ones(1, np.intp), np.arange(n - t)
    for i in range(1, n):  # grow each prefix while it can still reach m blocks
        r, c = np.nonzero((grow <= used[:, None]) & (np.maximum(used[:, None], grow + 1) + n - 1 - i >= m))
        labels, used = np.column_stack([labels[r], c]), np.maximum(used[r], c + 1)
    member = labels[:, None, :] == np.arange(m)[:, None]  # (P, m, n)
    sizes = member.sum(2)
    lap = sizes[:, 1:, None] * (n * np.eye(m - 1, dtype=np.intp) - sizes[:, None, 1:])  # s_i (n [i = j] - s_j)
    place = np.argsort(np.argsort(labels != sizes.argmax(1)[:, None], axis=1, kind="stable"), axis=1)
    a, b = orderings(t + 1), orderings(m - 1) + np.int8(t + 1)
    level = (np.eye(m, dtype=np.int8)[labels.T, 1:], lap,
             np.take_along_axis((member << np.arange(n)).sum(2), labels, 1),
             np.take_along_axis((sizes > 1).astype(np.int8) + (sizes > 2), labels, 1),
             (sizes == 1).sum(1) == m - 1, place,
             np.hstack([np.repeat(a, len(b), 0), np.tile(b, (len(a), 1))]))
    for a in level:
        a.flags.writeable = False
    return level


def _pair_scores(n: int, t: int, lo: int, hi: int):
    """Counts and star blocks, (types, partitions) arrays, of the non-star
    types against partitions lo..hi-1.  A count is det(L - D^T D), D the
    one-hot differences of T_0's edges.  A block of 3 or more has at most
    one vertex whose neighbourhood holds it, a block of 2 both or none."""
    import numpy as np

    onehot = _partition_level(n, t)[0][:, lo:hi]
    lap, bits, weight = (a[lo:hi] for a in _partition_level(n, t)[1:4])
    edges, reach = (a[:-1] for a in _free_trees(n))  # the last type is the star
    diff = (onehot[edges[..., 0]] - onehot[edges[..., 1]]).transpose(0, 2, 1, 3)  # (types, P, n - 1, m - 1)
    mats = lap - diff.swapaxes(2, 3) @ diff
    counts = _det_spd_batch(mats.transpose(2, 3, 0, 1).reshape(n - t - 1, n - t - 1, -1))
    stars = ((bits & ~reach[:, None]) == 0)[..., None, :] @ weight[..., None]
    return counts.reshape(stars.shape[:2]), stars[..., 0, 0] // 2


def _prufer_ranks(n: int, edges):
    """trees.tree_index of each tree of a (B, n - 1, 2) array of 0-based
    edges, by n - 2 leaf removals on all B at once: the least leaf has the
    least degree (n once removed), its neighbour the sum of those joined."""
    import numpy as np

    at = (np.arange(len(edges)) * n)[:, None, None] + edges
    degree = np.bincount(at.ravel(), minlength=len(edges) * n)
    joined = np.bincount(at.ravel(), edges[..., ::-1].ravel(), degree.size).astype(np.intp)
    rows, rank = np.arange(0, degree.size, n), np.zeros(len(edges), np.int64)
    for _ in range(n - 2):
        leaf = degree.reshape(-1, n).argmin(1)
        up = joined[rows + leaf]
        rank = rank * n + up
        degree[rows + leaf] = n
        degree[rows + up] -= 1
        joined[rows + up] -= leaf
    return rank


def blocked_Dt(n: int, t: int) -> BlockedReport:
    """Exact D_t = min over t-edge forests F and non-star trees T_0 with
    |T_0 and F| < t of |T_n[T_0; F]|: one tree per unlabelled type against
    F's vertex partition P.  A count reads F only through P, and some F of
    partition P meets T_0 in fewer than t edges exactly when fewer than t
    blocks B of P have a vertex T_0 joins to the rest (the complement of the
    forest T_0[B] is disconnected only then).

    The witnesses are those of a scan of each forest orbit's first forest
    against every tree, both in order, first strict minimum kept: F* is the
    star K_(1,t) at vertex 1 if a pair ties on it (else this raises), and
    T* the least tree index among the tying pairs placed on its partition
    and relabelled by the stabiliser, less those meeting F* in t edges.
    """
    import numpy as np

    n, t = _as_ints("n and t", n, t, low=(3, 1))
    _check_cap("dt_cap", DEFAULT_DT_CAP, n, "vertices for the D_t exhaustion")
    if t > n - 2:
        raise ValueError(f"t={t} out of range 1..{n - 2}")
    *_, starlike, place, group = _partition_level(n, t)
    types = _free_trees(n)[0][:-1]
    lows, pairs = [], 0  # per block: the least count and its pairs of the star's partition shape
    step = max(1, _BLOCK_CELLS // max(1, len(types) * (n - t) ** 2))
    for lo in range(0, len(place), step):
        counts, stars = _pair_scores(n, t, lo, lo + step)
        ok = stars < t
        pairs += np.count_nonzero(ok)
        if ok.any():
            low = counts[ok].min()
            lows.append((low, *np.nonzero(ok & (counts == low) & starlike[lo : lo + step]), lo))
    if not lows:
        raise ValueError(f"no admissible (F, T_0) pair at n={n}, t={t}")
    best = min(low for low, *_ in lows)
    a, p = (np.concatenate(c) for c in zip(*((a, p + lo) for low, a, p, lo in lows if low == best)))
    placed, found = place[p[:, None, None], types[a]], []
    step = max(1, _BLOCK_CELLS // (2 * n * max(1, len(p))))
    for lo in range(0, len(group), step):
        images = group[lo : lo + step, placed].reshape(-1, n - 1, 2)
        x, y = images[..., 0], images[..., 1]
        keep = ((np.minimum(x, y) == 0) & (np.maximum(x, y) <= t)).sum(1) < t  # F* = {0, 1..t}
        if keep.any():
            found.append(_prufer_ranks(n, images[keep]).min())
    if not found:
        raise RuntimeError(f"no pair ties on the star K_(1,{t}) at n={n}, so its witness is unknown")
    forest, tree = Forest(n, [(1, v) for v in range(2, t + 2)]), tree_from_index(n, int(min(found)))
    return BlockedReport(n, t, int(best), forest, tree, int(pairs), len(place))


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

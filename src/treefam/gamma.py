"""Spanning-tree t-disjointness graphs of small graphs, and exact search on them.

Gamma_t(G) has one vertex per spanning tree of G; two trees are adjacent when
they share fewer than t edges, so pairwise t-intersecting families are exactly
the independent sets.  This module builds Gamma_t with bit-packed adjacency
rows, computes the tree packing number by Edmonds' matroid partition (a
witness packing and a Tutte/Nash-Williams partition that meets it), and runs an exact
branch-and-bound (greedy colouring bound, degeneracy order, node budget,
S_n-orbit pruning when the host graph is complete) for maximum cliques and
maximum independent sets.
"""

from __future__ import annotations

import os
import struct
from functools import lru_cache
from itertools import permutations
from typing import Iterator, List, Optional, Sequence, Tuple

from .counting import _containing_avoiding
from .trees import (
    Edge,
    SimpleGraph,
    Tree,
    _BLOCK_CELLS,
    _as_ints,
    _check_cap,
    _tree,
    all_edges,
    edge_bit,
    mask_matrix,
    mask_to_edges,
    min_pairwise_intersection,
    pair_blocks,
    shared_bits,
    tree_masks,
)

# Fixed limit, not a setting: the most vertices (spanning trees) a Gamma_t has.
DEFAULT_GAMMA_CAP = 20000
DEFAULT_NODE_BUDGET = 10_000_000
_DUMP_MAGIC = b"GAMADJ01"
# _color_sort records what is left of its candidates after every _REC_STEP-th
# colour class, so a child colouring can start at a block boundary; each pass
# of its block loop writes out that many class scans
_REC_STEP = 4


def _spanning_tree_count(g: SimpleGraph) -> int:
    """The number of spanning trees of g: 0 if g is disconnected, else by the
    matrix-tree theorem N_0 over the edges of K_n outside g, det(L_g + J) / n^2."""
    if not g.is_connected():
        return 0
    return _containing_avoiding(g.n, tuple(sorted(set(all_edges(g.n)) - set(g.edges))), ())


def _check_gamma_cap(g: SimpleGraph) -> None:
    """Refuse a host with more than DEFAULT_GAMMA_CAP spanning trees, before any is built."""
    host = f"K_{g.n}" if g.is_complete() else repr(g)
    _check_cap("gamma_cap", DEFAULT_GAMMA_CAP, _spanning_tree_count(g),
               f"vertices in Gamma over {host}")


def _spanning_tree_masks(g: SimpleGraph) -> List[int]:
    """The edge bitmask of every spanning tree of g, each exactly once,
    deterministic order.

    Recursive deletion-contraction on the first edge joining two contraction
    classes: the include branch (contract) comes first, then the exclude
    branch (delete), which is pruned when the edge is a bridge of the
    contracted graph.  Each edge carries its bit, so a finished walk is the
    OR of its chosen edges.  A class is named by a label on each of its
    vertices, set when the edge is contracted and restored before the
    exclude branch, so both the filter of the include branch and the
    bridge check read it directly.  Each final contraction extends the one
    list of trees.  Disconnected g has none.  No cap is checked here: the
    callers check the trees' count first.
    """
    if not g.is_connected():
        return []
    n = g.n
    if n == 1:
        return [0]  # the one spanning tree of K_1 has no edges
    bit = {e: 1 << edge_bit(n, *e) for e in g.edges}
    label = list(range(n + 1))  # label[v]: a vertex of v's class
    out: List[int] = []

    def joined(edges, a, b):
        """Whether the edges join the classes labelled a and b."""
        nbr = [0] * (n + 1)
        for u, v in edges:
            x, y = label[u], label[v]
            nbr[x] |= 1 << y
            nbr[y] |= 1 << x
        reach = todo = 1 << a
        while todo:
            x = todo.bit_length() - 1
            todo ^= 1 << x
            new = nbr[x] & ~reach
            if new >> b & 1:
                return True
            reach |= new
            todo |= new
        return False

    def rec(avail, chosen, nclasses):
        # avail holds the edges between two classes and connects them all
        if nclasses == 2:
            # so each edge of avail joins the last two classes and finishes a
            # tree, in the order the include and exclude branches reach them
            out.extend([chosen | bit[e] for e in avail])
            return
        pick, rest = avail[0], avail[1:]
        a, b = label[pick[0]], label[pick[1]]
        # include (contract): b's class takes the label a
        moved = [v for v in range(1, n + 1) if label[v] == b]
        for v in moved:
            label[v] = a
        rec([e for e in rest if label[e[0]] != label[e[1]]], chosen | bit[pick], nclasses - 1)
        for v in moved:
            label[v] = b
        # exclude (delete) -- only if pick is no bridge, i.e. the remaining
        # edges still join its two classes
        if joined(rest, a, b):
            rec(rest, chosen, nclasses)

    rec(list(g.edges), 0, n)
    return out


def enumerate_spanning_trees(g: SimpleGraph) -> Iterator[Tree]:
    """All spanning trees of g as Trees, in the order of _spanning_tree_masks.
    Refuses more than DEFAULT_GAMMA_CAP of them at the call, before any tree."""
    _check_gamma_cap(g)
    return (_tree(g.n, mask_to_edges(g.n, m)) for m in _spanning_tree_masks(g))


# -- disjointness graph -------------------------------------------------------


def _rows(masks, t: int, independent: bool = False):
    """Gamma_t over the tree masks as a (V, ceil(V/8)) uint8 bit matrix, the
    dump's layout: bit j of row i (little-endian) is set iff i != j and trees
    i, j share < t edges (>= t with independent=True); no bit at or past V.

    pair_blocks ANDs a block of rows at a time against the whole mask
    matrix, so the temporaries stay near 512 KiB, never V x V.
    """
    import numpy as np

    mat = mask_matrix(masks)
    V = len(mat)
    out = np.empty((V, -(-V // 8)), np.uint8)
    for lo, block in pair_blocks(mat, mat):
        shared = shared_bits(block)
        bits = shared >= t if independent else shared < t
        np.fill_diagonal(bits[:, lo:], False)
        out[lo : lo + len(bits)] = np.packbits(bits, axis=1, bitorder="little")
    return out


class DisjointnessGraph:
    """Gamma_t(g): vertices are spanning trees (edge bitmasks), adjacency = share < t.

    The tree masks are its state; rows() builds the adjacency on first use.
    Vertex order is tree-index order when g is complete, otherwise the
    deletion-contraction enumeration order.
    """

    __slots__ = ("graph", "n", "t", "masks", "_adjacency")

    def __init__(self, graph: SimpleGraph, t: int, masks):
        self.graph = graph
        self.n = graph.n
        self.t = t
        self.masks = tuple(masks)
        self._adjacency = None

    @property
    def vertex_count(self) -> int:
        return len(self.masks)

    def rows(self):
        """The adjacency as _rows(masks, t), built once and kept."""
        if self._adjacency is None:
            self._adjacency = _rows(self.masks, self.t)
        return self._adjacency

    def edge_count(self) -> int:
        return self.summary()["edges"]

    def tree(self, i: int) -> Tree:
        return _tree(self.n, mask_to_edges(self.n, self.masks[i]))

    def summary(self) -> dict:
        import numpy as np

        degs = np.bitwise_count(self.rows()).sum(axis=1, dtype=np.int64).tolist()
        return {
            "n": self.n,
            "t": self.t,
            "vertices": self.vertex_count,
            "edges": sum(degs) // 2,
            "min_degree": min(degs, default=0),
            "max_degree": max(degs, default=0),
        }

    # -- binary adjacency dump -----------------------------------------------
    # Header: 8-byte magic "GAMADJ01", then n, t, vertex_count as little-endian
    # uint64; then rows() as it is: vertex_count rows of ceil(vertex_count/8)
    # bytes each, little-endian bit order (bit j of row i = adjacency i~j).

    def save_adjacency(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(_DUMP_MAGIC)
            fh.write(struct.pack("<QQQ", self.n, self.t, self.vertex_count))
            fh.write(self.rows().tobytes())

    @staticmethod
    def load_adjacency(path: str):
        """Read a dump back: returns (n, t, rows), rows in the layout of rows().
        A set bit on the diagonal or at or past V is a ValueError."""
        import numpy as np

        with open(path, "rb") as fh:
            magic = fh.read(8)
            if magic != _DUMP_MAGIC:
                raise ValueError(f"bad magic {magic!r} in {path}")
            header = fh.read(24)
            if len(header) != 24:
                raise ValueError(f"{path}: truncated header ({len(header)} of 24 bytes)")
            n, t, V = struct.unpack("<QQQ", header)
            row_bytes = (V + 7) // 8
            # check the size before reading, so an absurd V cannot ask for
            # an absurd row
            body, want = os.fstat(fh.fileno()).st_size - 32, V * row_bytes
            shape = f"({V} rows of {row_bytes})"
            if body < want:
                raise ValueError(
                    f"{path}: adjacency body is {body} bytes, expected {want} {shape}"
                )
            if body > want:
                raise ValueError(
                    f"{path}: adjacency body is longer than the expected "
                    f"{want} bytes {shape}"
                )
            rows = np.frombuffer(fh.read(), np.uint8).reshape(V, row_bytes)
        i = np.arange(V)
        loops = rows[i, i >> 3] >> (i & 7) & 1
        past = rows[:, -1] >> V % 8 if V % 8 else np.zeros_like(loops)
        for what, hit in (("a loop", loops), (f"a bit at or past V = {V}", past)):
            if hit.any():
                raise ValueError(f"{path}: row {np.flatnonzero(hit)[0]} has {what}")
        return n, t, rows


def build_gamma(g: SimpleGraph, t: int) -> DisjointnessGraph:
    """Gamma_t(g) from the tree masks of g, on at most DEFAULT_GAMMA_CAP
    vertices; no pairwise work until its rows are read."""
    (t,) = _as_ints("t", t, low=(1,))
    if t > g.n - 1:
        raise ValueError(f"t={t} out of range 1..{g.n - 1}")
    _check_gamma_cap(g)
    masks = tree_masks(g.n) if g.is_complete() else _spanning_tree_masks(g)
    return DisjointnessGraph(g, t, masks)


class TreeFamily:
    """A set of spanning trees inside a DisjointnessGraph universe (bitmask members)."""

    __slots__ = ("gamma", "member_mask")

    def __init__(self, gamma: DisjointnessGraph, member_mask: int):
        (member_mask,) = _as_ints("member mask", member_mask, low=(0,))
        if member_mask >> gamma.vertex_count:
            raise ValueError(
                f"member mask has bit {member_mask.bit_length() - 1}, but the "
                f"vertices are 0..{gamma.vertex_count - 1}"
            )
        self.gamma = gamma
        self.member_mask = member_mask

    @property
    def size(self) -> int:
        return self.member_mask.bit_count()

    def indices(self) -> List[int]:
        out = []
        m = self.member_mask
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return out

    def trees(self) -> List[Tree]:
        return [self.gamma.tree(i) for i in self.indices()]

    def _member_masks(self) -> List[int]:
        masks = self.gamma.masks
        return [masks[i] for i in self.indices()]

    def min_pairwise_intersection(self) -> Optional[int]:
        """Smallest number of shared edges over all member pairs (None if < 2 members)."""
        return min_pairwise_intersection(self._member_masks())

    def is_independent(self) -> bool:
        """No two members share < t edges (adjacent in the disjointness graph)."""
        return not _rows(self._member_masks(), self.gamma.t).any()

    def is_clique(self) -> bool:
        """No two members share >= t edges."""
        return not _rows(self._member_masks(), self.gamma.t, independent=True).any()


class SearchResult:
    """Outcome of an exact family search: the family, optimality, node count."""

    __slots__ = ("family", "optimal", "nodes")

    def __init__(self, family: TreeFamily, optimal: bool, nodes: int):
        self.family = family
        self.optimal = optimal
        self.nodes = nodes

    @property
    def size(self) -> int:
        return self.family.size

    def __repr__(self):
        tag = "optimal" if self.optimal else "budget-exhausted"
        return f"SearchResult(size={self.size}, {tag}, nodes={self.nodes})"


class _BudgetExhausted(Exception):
    pass


def _degeneracy_order(mat) -> List[int]:
    """Degeneracy order of the uint8 rows `mat` (minimum remaining degree, ties: lowest index).

    Once the minimum remaining degree is (vertices left) - 1, the vertices
    left form a clique.  Each removal then takes 1 off every other degree,
    so they stay tied and leave lowest index first: the order ends with
    them in ascending order, in one step."""
    import numpy as np

    V = len(mat)
    deg = np.bitwise_count(mat).sum(axis=1, dtype=np.int32)
    removed = np.iinfo(np.int32).max
    tail = int(deg.max(initial=0)) + 1  # the most vertices a clique tail can hold
    order = []
    for left in range(V, 0, -1):
        v = int(deg.argmin())  # first minimum, so ties go to the lowest index
        if left <= tail and deg[v] == left - 1:
            order += np.flatnonzero(deg < V).tolist()  # a removed vertex sits far above V
            break
        order.append(v)
        deg -= np.unpackbits(mat[v], count=V, bitorder="little")
        deg[v] = removed  # later decrements cannot bring it near a real degree
    return order


def _relabel(mat, order: List[int]):
    """The uint8 bit rows `mat` renamed so that vertex order[i] becomes i: bit j of
    row i of the result is bit order[j] of row order[i].  Returns the renamed
    rows as a (V, ceil(V/64)) little-endian uint64 array.  The rows are unpacked
    to V 0/1 bytes a block at a time; at least 64 rows a block keeps a block
    near max(_BLOCK_CELLS, 64 V) bytes."""
    import numpy as np

    V = len(mat)
    perm = np.asarray(order, dtype=np.intp)
    out = np.zeros((V, 8 * max(1, -(-V // 64))), np.uint8)
    step = max(64, _BLOCK_CELLS // max(1, V))
    for lo in range(0, V, step):
        rows = np.unpackbits(mat[perm[lo : lo + step]], axis=1, count=V, bitorder="little")
        packed = np.packbits(np.take(rows, perm, axis=1), axis=1, bitorder="little")
        out[lo : lo + len(packed), : packed.shape[1]] = packed
    return out.view("<u8")


def _greedy_clique(mat) -> int:
    """Greedy clique (seed lower bound) on the packed symmetric rows `mat`, as a bitmask.

    Ties go to the highest index: the start among the maximum degrees, then
    each step among the best scores, score[u] = |N(u) & cand| (below -V off
    cand).  A vertex leaving cand takes its row off every score, so a run
    unpacks each row at most once, a block of rows at a time as _relabel
    does.

    A candidate u is universal, adjacent to the rest of cand, exactly when
    score[u] = |cand| - 1, the highest score possible, so the greedy takes
    one whenever one exists.  That removes only itself from cand and takes
    1 off every other score, so the other universal candidates stay
    universal and are taken next, one after another.  The seed is a mask,
    so one step takes them all at once: it drops them from cand and takes
    their count off every score, with no row unpacked."""
    import numpy as np

    V = len(mat)
    if V == 0:
        return 0
    bits = mat.view(np.uint8)
    step = max(64, _BLOCK_CELLS // V)
    v = V - 1 - int(np.bitwise_count(mat).sum(axis=1, dtype=np.int64)[::-1].argmax())
    clique = 1 << v
    blocks = pair_blocks(mat, mat[v : v + 1])
    score = np.concatenate([shared_bits(b)[:, 0] for _, b in blocks], dtype=np.int32)
    keep = np.unpackbits(bits[v], count=V, bitorder="little").view(bool)
    score[~keep] = -V - 1
    ncand = int(np.count_nonzero(keep))  # |cand|, kept exact
    while True:
        v = V - 1 - int(score[::-1].argmax())
        if score[v] < 0:
            return clique
        if score[v] == ncand - 1:
            universal = (score == ncand - 1).nonzero()[0]
            for u in universal.tolist():
                clique |= 1 << u
            score -= len(universal)
            score[universal] = -V - 1
            ncand -= len(universal)
            continue
        clique |= 1 << v
        keep = np.unpackbits(bits[v], count=V, bitorder="little").view(bool)
        leaving = ((score >= 0) & ~keep).nonzero()[0]
        score[leaving] = -V - 1
        ncand -= len(leaving)
        for lo in range(0, len(leaving), step):
            rows = np.unpackbits(bits[leaving[lo : lo + step]], axis=1, count=V, bitorder="little")
            score -= rows.sum(axis=0, dtype=np.int32)


def _color_sort(
    P: int, nadj: List[int], kmin: int, bit: List[int], P0: int = 0, rec0: Sequence[int] = ()
) -> Tuple[List[int], List[int], List[int]]:
    """Greedy colouring of the candidate set P; vertices with colour bounds ascending.

    Each class takes vertices from the top bit down: v = q.bit_length() - 1
    costs no big-int work, and the remaining candidates shrink as the scan
    goes.  nadj[v] is the complement of adj[v] | 1 << v within the V bits
    (non-negative, so the AND needs no two's-complement copy), so one AND
    drops v and its neighbours from the class being built; bit[v] = 1 << v.
    Only classes above kmin are listed: the caller stops at the first colour
    that cannot beat the incumbent, so it never reaches the classes at or
    below kmin.

    Also returns its record rec, one entry per whole block of _REC_STEP
    classes at or below kmin: rec[k] & P is what the first
    _REC_STEP * (k + 1) classes leave of P.  Given the record rec0 of a
    superset P0 of P, the colouring starts where P's classes stop matching
    P0's.  If gone = P0 - P misses P0's first j classes, P's first j classes
    are the same sets: each scan of P is P0's scan with gone taken out, so
    it picks the same top bit every time.  So P shares rec0[:k] as it is
    when gone lies inside rec0[k - 1]; the records are nested, so a binary
    search finds the deepest such k, capped at P's own whole blocks since
    its listed classes must be scanned.

    A call that can list nothing stops early: every class takes a vertex,
    so no colour passes _REC_STEP * done + |work| after `done` blocks, and
    once that is at most kmin it returns ([], [], rec), a full scan's
    order and colours with the record cut short (a search pushes no frame
    for such a child, so nobody reads it).  The check runs at the start,
    where the block loop ends, and inside it right after a reused prefix
    or else at the first block past halfway, then at the first block the
    slack could reach at the drop per block since the last check; never
    at the last block but one, where four small classes cost about what
    the check does.  The greedy classes mostly shrink, so the cut seldom
    comes much later than a check at every block would make it.
    """
    slack = P.bit_count() - kmin
    if slack <= 0:
        return [], [], []
    order: List[int] = []
    colors: List[int] = []
    rec: List[int] = []
    work = P
    top = kmin // _REC_STEP  # the whole blocks at or below kmin
    if top > 0 and rec0:
        gone = P0 ^ P
        if gone & rec0[0] == gone:  # else gone meets P0's first block
            lo, hi = 1, min(top, len(rec0))
            while lo < hi:
                mid = (lo + hi) >> 1
                if gone & rec0[mid] == gone:
                    lo = mid + 1
                else:
                    hi = mid
            rec = rec0[:lo]
            work &= rec0[lo - 1]
    done = len(rec)
    # the block and slack of the last check, and the block the next one is due
    seen, was = 0, slack
    due = done or top // 2 + 1
    if due >= top - 1:
        due = top
    while True:
        # whole blocks up to the next check, with their class scans written
        # out: where the classes hold one to three vertices (Gamma_1(K_5),
        # C12+3), a loop over a block's classes costs 5-13% more
        while work and done < due:
            q = work
            while q:
                v = q.bit_length() - 1
                work ^= bit[v]
                q &= nadj[v]
            q = work
            while q:
                v = q.bit_length() - 1
                work ^= bit[v]
                q &= nadj[v]
            q = work
            while q:
                v = q.bit_length() - 1
                work ^= bit[v]
                q &= nadj[v]
            q = work
            while q:
                v = q.bit_length() - 1
                work ^= bit[v]
                q &= nadj[v]
            rec.append(work)
            done += 1
        if not work or done >= top:
            break
        slack = _REC_STEP * done + work.bit_count() - kmin
        if slack <= 0:
            return [], [], rec
        fell = was - slack
        due = done - (-slack * (done - seen) // fell) if fell > 0 else top
        if due >= top - 1:
            due = top
        seen, was = done, slack
    color = _REC_STEP * done
    if color + work.bit_count() <= kmin:
        return [], [], rec
    while work:
        color += 1
        q = work
        if color > kmin:
            while q:
                v = q.bit_length() - 1
                order.append(v)
                colors.append(color)
                work ^= bit[v]
                q &= nadj[v]
        else:
            while q:
                v = q.bit_length() - 1
                work ^= bit[v]
                q &= nadj[v]
    return order, colors, rec


@lru_cache(maxsize=None)
def _edge_image_bits(n: int):
    """The n! vertex relabellings of K_n (itertools.permutations order,
    identity first) as a read-only (C(n,2), n!) uint64 array of single-bit
    masks: [b, g] is the bit of edge b's image under relabelling g, so
    OR-ing a forest's rows gives its orbit, the forest in column 0.  A
    relabelling keeps every overlap |T & T'|, so each is an automorphism of
    Gamma_t(K_n) and its complement, for every t.  Its readers stop at
    n = 8 (40,320 columns)."""
    import numpy as np

    eu, ev = np.array(all_edges(n)).T - 1
    pos = np.zeros((n, n), np.uint8)  # pos[u-1, v-1]: the bit of edge uv
    pos[eu, ev] = pos[ev, eu] = np.arange(len(eu))
    perms = np.array(list(permutations(range(n))), np.uint8)
    bits = np.uint64(1) << pos[perms[:, eu], perms[:, ev]].T.astype(np.uint64)
    bits.flags.writeable = False
    return bits


def _orbit_and_stabiliser(images, H, vmask: int, sorted_masks, by_mask):
    """Orbit of a search vertex (tree mask vmask) under the relabellings H,
    an int array of columns of images = _edge_image_bits(n), as a vertex
    bitmask, and the columns of H that fix it (None once only the identity
    does).  by_mask[i] is the vertex whose tree mask is sorted_masks[i].
    """
    import numpy as np

    rows = [b for b in range(len(images)) if vmask >> b & 1]
    img = np.bitwise_or.reduce(images[np.ix_(rows, H)], axis=0)
    stab = H[img == vmask]
    hit = np.zeros(len(by_mask), bool)
    hit[by_mask[np.searchsorted(sorted_masks, img)]] = True
    orbit = int.from_bytes(np.packbits(hit, bitorder="little").tobytes(), "little")
    return orbit, stab if len(stab) > 1 else None


def _max_clique_bitset(
    mat, budget: int, masks: Sequence[int] = (), n: int = 0
) -> Tuple[int, bool, int]:
    """Exact maximum clique on `mat`, rows in the layout of _rows; returns (mask, optimal, nodes).

    Branch and bound in degeneracy order with a greedy-colouring upper bound;
    nodes are vertex expansions.  The vertices are relabelled in reversed
    degeneracy order, so the vertex the search reaches first sits at the
    top bit and every bit walk reads it with bit_length().  Deterministic:
    ties always resolve to the highest relabelled index, i.e. to the
    earliest vertex of the degeneracy order.  Exceeding the node budget
    returns the best clique found so far with optimal=False.

    With n > 0 the vertices are the spanning trees of K_n with tree masks
    `masks`, and the vertex relabellings of K_n (the columns of
    _edge_image_bits(n)) are automorphisms of mat.  The search then
    branches on one vertex per orbit (orbital branching): each frame keeps
    H, the relabellings fixing every vertex chosen so far, and its
    candidate set is H-invariant.  After branching on v it drops v's whole
    H-orbit, since any clique through g(v) is g of one through v; the child
    keeps the stabiliser of v.  With n = 0 every candidate is branched on.
    """
    import numpy as np

    V = len(mat)
    if V == 0:
        return 0, True, 0
    order = _degeneracy_order(mat)[::-1]
    mat = _relabel(mat, order)  # one packed matrix at a time, and none in the search
    radj = [int.from_bytes(r.tobytes(), "little") for r in mat]
    seed = _greedy_clique(mat)
    del mat
    bit = [1 << v for v in range(V)]
    full = (1 << V) - 1
    nadj = [full ^ (r | b) for r, b in zip(radj, bit)]
    group = None
    if n:
        images = _edge_image_bits(n)
        group = np.arange(images.shape[1])
        rmasks = [masks[o] for o in order]
        keys = np.array(rmasks, np.uint64)
        by_mask = np.argsort(keys)
        sorted_masks = keys[by_mask]
    best_mask = seed
    best_size = seed.bit_count()
    nodes = 0
    optimal = True

    # iterative branch and bound (depth equals clique size, so no recursion):
    # each frame is [size, rmask, local, order, colors, i, H, P0, rec] with i
    # scanning the coloured candidates from the highest bound downwards; P0
    # is the set it coloured, which local shrinks from, and rec that
    # colouring's record, where its children's colourings start.  A child
    # whose colouring lists nothing counts as a node but gets no frame
    first_order, first_colors, first_rec = _color_sort(full, nadj, best_size, bit)
    stack = [[0, 0, full, first_order, first_colors, len(first_order) - 1,
              group, full, first_rec]]
    try:
        while stack:
            frame = stack[-1]
            size, rmask = frame[0], frame[1]
            pushed = False
            i = frame[5]
            while i >= 0:
                if size + frame[4][i] <= best_size:
                    i = -1
                    break
                v = frame[3][i]
                vbit = bit[v]
                i -= 1
                if not frame[2] & vbit:
                    continue  # dropped with the orbit of an earlier branch
                nodes += 1
                if nodes > budget:
                    raise _BudgetExhausted
                # the child's candidates first: they keep v's orbit-mates
                p2 = frame[2] & radj[v]  # v is not its own neighbour
                orbit, stab = vbit, None
                if frame[6] is not None:
                    orbit, stab = _orbit_and_stabiliser(images, frame[6], rmasks[v],
                                                        sorted_masks, by_mask)
                frame[2] &= ~orbit
                if p2:
                    order2, colors2, rec2 = _color_sort(p2, nadj, best_size - size - 1, bit,
                                                        frame[7], frame[8])
                    if not order2:
                        # a dead end, and since a non-empty p2 lists nothing
                        # only at kmin >= 1, size + 1 cannot beat best_size
                        continue
                    frame[5] = i
                    stack.append([size + 1, rmask | vbit, p2, order2, colors2,
                                  len(order2) - 1, stab, p2, rec2])
                    pushed = True
                    break
                if size + 1 > best_size:
                    best_size = size + 1
                    best_mask = rmask | vbit
            if not pushed:
                frame[5] = i
                if i < 0:
                    stack.pop()
    except _BudgetExhausted:
        optimal = False
    # map back to original vertex labels
    out = 0
    m = best_mask
    while m:
        v = m.bit_length() - 1
        out |= 1 << order[v]
        m ^= bit[v]
    return out, optimal, nodes


def _search(gamma: DisjointnessGraph, budget: int, independent: bool) -> SearchResult:
    """Maximum clique of Gamma_t, or of its complement with independent=True,
    certified from the members' own masks.  On a complete host the search
    skips whole S_n-orbits of trees, so `nodes` counts the vertex expansions
    of that pruned tree; any other host searches without a group.  The
    budget must be an integer >= 0."""
    (budget,) = _as_ints("node budget", budget, low=(0,))
    # passed, not held, so the search's relabelling frees the share >= t rows
    mask, optimal, nodes = _max_clique_bitset(
        _rows(gamma.masks, gamma.t, True) if independent else gamma.rows(), budget,
        gamma.masks, gamma.n if gamma.graph.is_complete() else 0)
    fam = TreeFamily(gamma, mask)
    if not (fam.is_independent() if independent else fam.is_clique()):
        raise RuntimeError("independent-set search returned a dependent set" if independent
                           else "clique search returned a non-clique")
    return SearchResult(fam, optimal, nodes)


def max_clique(
    gamma: DisjointnessGraph, budget: int = DEFAULT_NODE_BUDGET
) -> SearchResult:
    """Maximum clique of Gamma_t (a family of pairwise <t-sharing trees)."""
    return _search(gamma, budget, False)


def max_independent_set(
    gamma: DisjointnessGraph, budget: int = DEFAULT_NODE_BUDGET
) -> SearchResult:
    """Maximum independent set of Gamma_t = largest pairwise t-intersecting family."""
    return _search(gamma, budget, True)


# -- tree packing (Edmonds' matroid partition) -------------------------------


class PackingResult:
    """Packing number with both certificates: the witness trees (lower bound)
    and the minimizing partition (upper bound)."""

    __slots__ = ("number", "witness", "partition", "cross_edges")

    def __init__(self, number, witness, partition, cross_edges):
        self.number = number
        self.witness = witness
        self.partition = partition
        self.cross_edges = cross_edges

    def to_dict(self) -> dict:
        return {
            "packing": self.number,
            "witness": [[list(e) for e in t.edges] for t in self.witness],
            "partition": [list(b) for b in self.partition],
            "cross_edges": self.cross_edges,
        }


def _forest_path(adj: list, u: int, v: int) -> Optional[List[Edge]]:
    """The edges of the u-v path in the forest whose neighbour sets are adj,
    or None when u and v lie in different trees, so that u-v fits."""
    parent = {u: 0}
    stack = [u]
    while stack and v not in parent:
        x = stack.pop()
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                stack.append(y)
    if v not in parent:
        return None
    path = []
    while v != u:
        p = parent[v]
        path.append((p, v) if p < v else (v, p))
        v = p
    return path


def _place(forests: list, home: dict, starts: Sequence[Edge]):
    """Matroid partition's exchange step: put one edge of `starts` into a
    forest along a shortest exchange path and return None, or return every
    edge reachable from `starts` when no path exists.

    A breadth-first search over edges: an edge x that closes a cycle in
    forest i (one that does not hold it) reaches every edge on that cycle,
    which could leave i for x.  At the first x that fits a forest the path
    is applied backwards, each edge entering the forest its successor left;
    a shortest path keeps every forest acyclic.  `home` maps each placed
    edge to the index of its forest and is updated with `forests`."""
    prev = {e: (None, None) for e in starts}
    queue = list(starts)
    for x in queue:
        for i, adj in enumerate(forests):
            if home.get(x) == i:
                continue
            cycle = _forest_path(adj, *x)
            if cycle is None:
                while x is not None:
                    (u, v), j = x, home.get(x)
                    if j is not None:
                        forests[j][u].discard(v)
                        forests[j][v].discard(u)
                    forests[i][u].add(v)
                    forests[i][v].add(u)
                    home[x] = i
                    x, i = prev[x]
                return None
            for y in cycle:
                if y not in prev:
                    prev[y] = (x, i)
                    queue.append(y)
    return prev.keys()


def packing_number(g: SimpleGraph) -> PackingResult:
    """Maximum number of pairwise edge-disjoint spanning trees of g.

    Edmonds' matroid partition: for k = 1, 2, ... it grows k edge-disjoint
    forests, inserting each edge of g in sorted order by `_place`, and
    stops at the first k whose forests hold fewer than k(n - 1) edges; the
    k - 1 spanning trees of the round before are the witness.  The edges S
    reachable from the edges that fit nowhere are closed (each forest holds
    a spanning forest of (V, S)) and every other edge is placed, so the
    partition P into the classes of (V, S) has cross(P) < k(|P| - 1) and
    bounds the packing by floor(cross / (|P| - 1)) = k - 1.
    """
    if g.n < 2:
        raise ValueError(f"packing needs n >= 2 vertices, got n={g.n}")
    if not g.is_connected():
        return PackingResult(0, [], g.classes(), 0)
    n = g.n
    forests: list = []
    home: dict = {}
    while True:
        forests.append([set() for _ in range(n + 1)])
        stuck = [e for e in g.edges if e not in home and _place(forests, home, [e]) is not None]
        if len(home) < len(forests) * (n - 1):
            break
        witness = [Tree(n, [e for e, j in home.items() if j == i]) for i in range(len(forests))]
    partition = SimpleGraph(n, _place(forests, home, stuck)).classes()
    label = {x: i for i, block in enumerate(partition) for x in block}
    cross = sum(1 for u, v in g.edges if label[u] != label[v])
    if cross // (len(partition) - 1) != len(witness):
        raise RuntimeError(f"partition bound {cross} / ({len(partition)} - 1) does not "
                           f"match the {len(witness)} witness trees")
    return PackingResult(len(witness), witness, partition, cross)

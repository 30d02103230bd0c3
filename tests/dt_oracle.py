"""D_t by the universe scan: the first forest of each S_n-orbit, in
lexicographic order, against every non-star tree of the universe, in
tree-index order, first strict minimum kept.  The orbits come from a walk
over the S_n table of gamma._edge_image_bits.  The tests hold blocked_Dt's
value and witnesses, which it reads off vertex partitions instead, to this
scan for n <= 8."""

from functools import lru_cache

import numpy as np
from enumeration_oracle import star_masks

from treefam.counting import _det_spd_batch
from treefam.gamma import _edge_image_bits
from treefam.trees import _BLOCK_CELLS, _DSU, Forest, all_edges, mask_to_edges, tree_mask_array


@lru_cache(maxsize=None)
def _forest_orbits(n, t):
    """The lexicographically first t-edge forest of each S_n-orbit, as
    ascending edge-bit tuples, in lexicographic order.  Canonical
    augmentation: such a forest less its last edge is the first of its own
    orbit, so level t grows level t - 1 (memoised, so each level is walked
    once per process) by a later edge that joins two of its classes, and
    keeps the results first in their orbit (the OR of their _edge_image_bits
    rows, a block of candidates at a time), where G comes before F if the
    lowest bit of F ^ G is in G."""
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


def universe_scan(n, t):
    """(value, argmin forest edges, argmin tree edges).

    A count is the determinant of the reduced Laplacian of K_n - T_0 with F
    contracted, whose entries are popcounts of T_0's complement against the
    AND of two classes' cuts, each cut the XOR of its vertices' stars."""
    arr = tree_mask_array(n)
    stars = np.array(star_masks(n), dtype=np.uint64)
    not_star = ~np.isin(arr, stars)
    edges = all_edges(n)
    best = None  # (count, forest, tree index)
    for bits in _forest_orbits(n, t):
        f = Forest(n, [edges[b] for b in bits])
        cuts = np.array([np.bitwise_xor.reduce(stars[np.array(c) - 1]) for c in f.classes()[1:]])
        masks, k = (cuts[:, None] & cuts)[:, :, None], len(cuts)
        sign = 2 * np.eye(k, dtype=np.int64)[:, :, None] - 1
        fmask = np.uint64(sum(1 << b for b in bits))
        step = _BLOCK_CELLS // (k * k)
        for lo in range(0, len(arr), step):
            block = arr[lo : lo + step]
            sel = np.flatnonzero(not_star[lo : lo + step] & (np.bitwise_count(block & fmask) < t))
            if len(sel) == 0:
                continue
            counts = _det_spd_batch(sign * np.bitwise_count(masks & ~block[sel]))
            j = int(np.argmin(counts))
            if best is None or counts[j] < best[0]:
                best = (int(counts[j]), f, lo + int(sel[j]))
    value, f, idx = best
    return value, f.edges, tuple(mask_to_edges(n, int(arr[idx])))

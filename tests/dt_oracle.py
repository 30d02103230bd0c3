"""D_t by the universe scan: the first forest of each S_n-orbit, in
lexicographic order, against every non-star tree of the universe, in
tree-index order, first strict minimum kept.  This was blocked_Dt's own
scan; the tests hold the library's value and witnesses to it for n <= 8."""

import numpy as np
from enumeration_oracle import star_masks

from treefam.counting import _det_spd_batch
from treefam.extremal import _forest_orbits
from treefam.trees import _BLOCK_CELLS, Forest, all_edges, mask_to_edges, tree_mask_array


def universe_scan(n, t):
    """(value, argmin forest edges, argmin tree edges, orbits).

    A count is the determinant of the reduced Laplacian of K_n - T_0 with F
    contracted, whose entries are popcounts of T_0's complement against the
    AND of two classes' cuts, each cut the XOR of its vertices' stars."""
    arr = tree_mask_array(n)
    stars = np.array(star_masks(n), dtype=np.uint64)
    not_star = ~np.isin(arr, stars)
    edges = all_edges(n)
    orbits = _forest_orbits(n, t)
    best = None  # (count, forest, tree index)
    for bits in orbits:
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
    return value, f.edges, tuple(mask_to_edges(n, int(arr[idx]))), len(orbits)

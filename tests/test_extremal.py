"""Extremal family constructions, avoidance counts, D_t, local-lemma checks."""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest
from dt_oracle import universe_scan
from enumeration_oracle import enumeration_count_avoiding, star_masks
from forest_oracle import forests

from treefam.counting import (
    count_at_least,
    count_matching_family,
    count_trees_containing,
    exact_k_distribution,
)
from treefam.extremal import (
    FamilySpec,
    balanced_forest,
    blocked_Dt,
    brute_force_max_t_intersecting,
    conjecture_scan,
    count_avoiding,
    example_closed_form,
    example_forest,
    family_F_ntj_size,
    lemma_notstar_check,
    line_graph_adjacency,
    llll_condition_check,
    min_pairwise_intersection,
    stars_plus_edge_size,
    trivial_family_size,
)
from treefam.trees import (
    Forest,
    Tree,
    _BLOCK_CELLS,
    cayley_count,
    edges_to_mask,
    enumerate_trees,
    intersection_size,
    is_d_star_like,
    is_star,
    mask_matrix,
    mask_to_edges,
    pair_blocks,
    sample_uniform_tree,
)


# -- construction sizes -------------------------------------------------------


def test_trivial_family_size():
    assert trivial_family_size(6, Forest(6, [(1, 2), (3, 4)])) == 144
    assert trivial_family_size(5, Forest(5, [(1, 2), (2, 3)])) == 15
    # matchings beat paths at the same edge count
    assert 144 >= trivial_family_size(6, Forest(6, [(1, 2), (2, 3)])) == 108
    with pytest.raises(ValueError):
        trivial_family_size(5, [(1, 2), (2, 3), (1, 3)])


def test_stars_plus_edge_size():
    assert stars_plus_edge_size(5) == 53
    assert stars_plus_edge_size(6) == 436
    with pytest.raises(ValueError):
        stars_plus_edge_size(2)


@pytest.mark.parametrize("n", [5, 6])
def test_stars_plus_edge_realization(n):
    masks = FamilySpec("stars_plus_edge", n, 1).realize()
    assert len(masks) == len(set(masks)) == stars_plus_edge_size(n)
    assert min_pairwise_intersection(masks) >= 1


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_stars_plus_edge_takes_the_stars_by_index(n):
    """The stars sit at fixed tree indices; the family equals the selection
    that searches the universe for the star masks."""
    from treefam.trees import edge_hits, tree_mask_array

    arr = tree_mask_array(n)
    for e in ([(1, 2)], [(2, 4)], [(n - 1, n)]):
        keep = (edge_hits(n, e) >= 1) | np.isin(arr, np.array(star_masks(n), dtype=np.uint64))
        assert FamilySpec("stars_plus_edge", n, 1, edges=e).realize() == arr[keep].tolist()


def test_trivial_family_realization_is_t_intersecting():
    for n, t in ((5, 1), (5, 2), (6, 2), (6, 3)):
        f = balanced_forest(n, t)
        masks = FamilySpec("trivial", n, t, edges=f.edges).realize()
        assert len(masks) == count_matching_family(n, t)
        assert min_pairwise_intersection(masks) >= t


def test_threshold_family_realization():
    """Any two members share >= 2(t+j) - (t+2j) = t edges of F, structurally."""
    n, t, j = 6, 2, 1
    f = balanced_forest(n, t + 2 * j)
    masks = FamilySpec("threshold", n, t, edges=f.edges, threshold=t + j).realize()
    assert len(masks) == family_F_ntj_size(n, t, j)
    assert min_pairwise_intersection(masks) >= t


def _oracle_cases(n):
    """(spec, predicate on a Tree) pairs: the family each spec realises, by hand."""
    path = [(1, 2), (2, 3), (3, 4)]
    cases = [(FamilySpec("trivial", n, 3, edges=path), lambda tr: set(path) <= tr.edge_set())]
    for t in (1, 2, 3):
        f = balanced_forest(n, t).edges
        cases.append((FamilySpec("trivial", n, t, edges=f), lambda tr, f=f: set(f) <= tr.edge_set()))
        for m in range(t + 2):
            cases.append((FamilySpec("threshold", n, 0, edges=f, threshold=m),
                          lambda tr, f=f, m=m: len(set(f) & tr.edge_set()) >= m))
    triangle = [(1, 2), (2, 3), (1, 3)]  # a threshold set need not be a forest
    cases.append((FamilySpec("threshold", n, 0, edges=triangle, threshold=2),
                  lambda tr: len(set(triangle) & tr.edge_set()) >= 2))
    for e in (None, (2, 4), (n - 1, n)):
        spec = FamilySpec("stars_plus_edge", n, 1, edges=None if e is None else [e])
        cases.append((spec, lambda tr, e=e or (1, 2): e in tr.edge_set() or is_star(tr)))
    return cases


@pytest.mark.parametrize("n", [4, 5, 6])
def test_realize_matches_a_scan_of_every_tree(n):
    trees = list(enumerate_trees(n))  # tree-index order
    for spec, holds in _oracle_cases(n):
        want = [list(tr.edges) for tr in trees if holds(tr)]
        assert [mask_to_edges(n, m) for m in spec.realize()] == want, spec.to_json()
    members = [list(tr.edges) for tr in trees[::7]]
    spec = FamilySpec("explicit", n, 0, members=members)
    assert [mask_to_edges(n, m) for m in spec.realize()] == members


def _pinned_specs(n):
    path = [(i, i + 1) for i in range(1, n)]
    star = [(1, i) for i in range(2, n + 1)]
    return {
        "trivial": FamilySpec("trivial", n, 2, edges=[(1, 2), (3, 4)]),
        "threshold": FamilySpec("threshold", n, 1, edges=[(1, 2), (3, 4), (5, 6)], threshold=2),
        "stars_plus_edge": FamilySpec("stars_plus_edge", n, 1),
        "explicit": FamilySpec("explicit", n, 1, members=[path, star]),
    }


# sha256 of each realize() as 8-byte little-endian masks, recorded while the
# families were still built by the helpers that FamilySpec._masks replaced
REALIZE_DIGESTS = [
    (7, "trivial", 1372, "a1016d45e888c01941a833cb013c09e613101f5fbcc011e76333c4d4d4db90ac"),
    (7, "threshold", 3332, "e363cbb25d00a1d09ce282f2c22a86e5746eb9b582c7a6e175c8687f05d6523b"),
    (7, "stars_plus_edge", 4807,
     "4ef24f60bfb5a0aa20df325e2e126837c2d705cddf6acfc375313e108ed5772f"),
    (7, "explicit", 2, "f58bf0e8e7f258f20a808347158d667a4a143c790f316ae43353c1c52fb51840"),
    (8, "trivial", 16384, "3653909d4d0383b8cb2a17d530adf844441372451266078bbd28f340ffaf339d"),
    (8, "threshold", 40960, "784f3f50bd13940be4f8bbfab9673d8cc331e381dda5cfb8d8fe21fb1a5d785b"),
    (8, "stars_plus_edge", 65542,
     "5e87b9c92ea3e6267c3ea792ddda519bb10f6f868f350a605f4a727255dd0823"),
    (8, "explicit", 2, "aabf849a9413784a10aee86c0df83ec447e873a306b3b7531e80fd4a9907a9b3"),
]


@pytest.mark.parametrize("n,kind,size,digest", REALIZE_DIGESTS,
                         ids=[f"{kind}-{n}" for n, kind, _, _ in REALIZE_DIGESTS])
def test_realize_bytes_are_pinned(n, kind, size, digest):
    masks = _pinned_specs(n)[kind].realize()
    assert len(masks) == size
    data = b"".join(m.to_bytes(8, "little") for m in masks)
    assert hashlib.sha256(data).hexdigest() == digest


def _min_overlap_loop(masks):
    best = None
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            c = (masks[i] & masks[j]).bit_count()
            if best is None or c < best:
                best = c
    return best


@pytest.mark.parametrize("n", [5, 6, 7])
def test_min_pairwise_intersection_matches_loop(n):
    families = [
        FamilySpec("trivial", n, 3, edges=balanced_forest(n, 3).edges),
        FamilySpec("threshold", n, 2, edges=balanced_forest(n, 4).edges, threshold=3),
        FamilySpec("threshold", n, 1, edges=[(1, 2), (2, 3), (4, 5)], threshold=2),
        FamilySpec("stars_plus_edge", n, 1, edges=[(2, 4)]),
    ]
    for spec in families:
        masks = spec.realize()
        assert min_pairwise_intersection(masks) == _min_overlap_loop(masks)
    # a family with two disjoint members, and wide (multi-word) masks
    assert min_pairwise_intersection([0b0111, 0b1000, 0b1100]) == 0
    wide = [(1 << 70) | 0b11, (1 << 70) | (1 << 65) | 0b10, (1 << 129) | (1 << 65) | 0b11]
    assert min_pairwise_intersection(wide) == _min_overlap_loop(wide) == 2
    assert min_pairwise_intersection([]) is None
    assert min_pairwise_intersection([0b111]) is None


def _triangle_step(V):
    """Rows per block of pair_blocks' triangle sweep over V one-word rows."""
    return max(1, _BLOCK_CELLS // V)


# the n = 7 threshold family: 3,332 trees, every pair shares at least one edge
_THRESHOLD7 = FamilySpec(
    "threshold", 7, 1, edges=balanced_forest(7, 3).edges, threshold=2
).realize()
# prefix lengths of it whose last block is full, and one row short
_EXACT_V = next(V for V in range(600, 3333) if V % _triangle_step(V) == 0)
_SHORT_V = next(
    V for V in range(600, 3333) if V % _triangle_step(V) == _triangle_step(V) - 1
)


@pytest.mark.parametrize("V", [_EXACT_V, _SHORT_V])
def test_min_pairwise_intersection_across_block_boundaries(V):
    step = _triangle_step(V)
    assert V >= 3 * step  # several blocks
    masks = list(_THRESHOLD7[:V])
    blocks = [(lo, len(block)) for lo, block in pair_blocks(mask_matrix(masks))]
    assert blocks[-1][0] + blocks[-1][1] == V
    assert blocks[-1][1] == (step if V == _EXACT_V else step - 1)
    assert min_pairwise_intersection(masks) == _min_overlap_loop(masks) == 1


def test_min_pairwise_intersection_two_word_masks():
    rng = random.Random(11)
    masks = [rng.getrandbits(100) | 1 << 99 for _ in range(300)]
    assert mask_matrix(masks).shape == (300, 2)
    assert len(list(pair_blocks(mask_matrix(masks)))) >= 3
    want = _min_overlap_loop(masks)
    assert want > 0
    assert min_pairwise_intersection(masks) == want


def test_min_pairwise_intersection_two_masks_and_early_exit():
    assert min_pairwise_intersection([0b1011, 0b0110]) == 1
    assert min_pairwise_intersection([0b1011, 0b0100]) == 0
    assert min_pairwise_intersection([1 << 90 | 1, 1 << 90 | 2]) == 1
    # F's three edges meet every member in two or more, the other 18 edges
    # of K_7 in three or more; the pair itself is disjoint, in the last block
    f = edges_to_mask(7, balanced_forest(7, 3).edges)
    masks = list(_THRESHOLD7[: _SHORT_V - 2]) + [f, (1 << 21) - 1 & ~f]
    assert min_pairwise_intersection(masks) == _min_overlap_loop(masks) == 0


def test_min_pairwise_intersection_reads_the_floor_of_the_rows_left():
    # majority bits S = 0..9; five groups of five bits at 70..94 (two words)
    S = (1 << 10) - 1
    groups = [sum(1 << (70 + 5 * k + i) for i in range(5)) for k in range(5)]
    # 109 rows holding 6 bits of S sort first and fill the first block at
    # V = 300; with every other row they share at least 10 bits
    low = [0b111111 | sum(groups)] * 109
    # 190 rows each hold S but one bit and one group: two of them share 8
    high = [S & ~(1 << (r % 10)) | groups[r % 5] for r in range(190)]
    masks = low + high + [S | sum(groups)]  # a last row holding all of S
    blocks = [len(block) for _, block in pair_blocks(mask_matrix(masks))]
    assert blocks[0] == 109 < 300
    # after the first block the best is 10: the floor of the last row, but
    # the rows left pair down to 8
    assert min_pairwise_intersection(masks) == _min_overlap_loop(masks) == 8


def _planted_masks(rng, V, width, core, keep):
    """V random width-bit masks; each holds each bit of `core` with chance `keep`."""
    out = []
    for _ in range(V):
        m = rng.getrandbits(width) & rng.getrandbits(width)  # a quarter of the bits
        out.append(m | sum(1 << b for b in core if rng.random() < keep))
    return out


def test_min_pairwise_intersection_matches_loop_above_and_on_the_floor():
    import numpy as np

    from treefam.trees import _overlap_floors

    rng = random.Random(2022)
    on = above = 0
    for width in (40, 100):  # one and two uint64 words
        for keep in (1.0, 0.9, 0.7, 0.0):  # a full core, majority cores, none
            for _ in range(6):
                core = rng.sample(range(width), rng.randrange(1, 12))
                masks = _planted_masks(rng, rng.randrange(2, 160), width, core, keep)
                want = _min_overlap_loop(masks)
                order, floors = _overlap_floors(mask_matrix(masks))
                assert sorted(order.tolist()) == list(range(len(masks)))
                floor = int(floors[0])
                assert floor <= want
                # floors[i] bounds every pair among the rows order[i:]
                for i in (len(masks) // 2, len(masks) - 2):
                    assert floors[i] <= _min_overlap_loop([masks[j] for j in order[i:]])
                on += 0 < floor == want
                above += floor < want
                assert min_pairwise_intersection(masks) == want
                if width <= 64:
                    arr = np.array(masks, dtype=np.uint64)
                    assert min_pairwise_intersection(arr) == want
    assert on >= 5 and above >= 5  # both kinds of family were checked


def _counted_blocks(monkeypatch):
    """Patch trees.pair_blocks to record the first row of every block it yields."""
    import treefam.trees as trees

    seen = []
    blocks = trees.pair_blocks

    def counted(*args):
        for item in blocks(*args):
            seen.append(item[0])
            yield item

    monkeypatch.setattr(trees, "pair_blocks", counted)
    return seen


def test_min_pairwise_intersection_stops_at_a_disjoint_pair(monkeypatch):
    seen = _counted_blocks(monkeypatch)
    masks = [0] + list(_THRESHOLD7[: _EXACT_V - 1])
    assert min_pairwise_intersection(masks) == 0
    assert seen == [0]


def test_threshold_sweep_stops_at_the_floor_after_one_block(monkeypatch):
    from treefam.extremal import FamilySpec

    # every member holds 2 of F's 3 edges, so each pair shares one of them;
    # the first block finds a pair sharing just that one
    seen = _counted_blocks(monkeypatch)
    assert min_pairwise_intersection(_THRESHOLD7) == 1
    assert seen == [0]
    seen.clear()
    spec = FamilySpec("threshold", 7, 1, edges=balanced_forest(7, 3).edges, threshold=2)
    assert spec.verify() == (True, 1, 3332)
    assert seen == [0]


def test_stars_plus_edge_sweep_ends_once_the_off_edge_stars_are_swept(monkeypatch):
    # the n - 2 stars off the edge hold none of the majority edges (only the
    # edge itself), so they sort first; every pair left then shares the edge
    seen = _counted_blocks(monkeypatch)
    assert FamilySpec("stars_plus_edge", 8, 1).verify() == (True, 1, 65542)
    assert 1 <= len(seen) <= 8 - 1


def test_n8_family_checks_are_pinned():
    from treefam.extremal import FamilySpec

    assert FamilySpec("trivial", 8, 1, edges=[(1, 2)]).verify() == (True, 1, 65536)
    matching = [(1, 2), (3, 4), (5, 6)]
    spec = FamilySpec("threshold", 8, 1, edges=matching, threshold=2)
    assert spec.verify() == (True, 1, 40960)


def test_realizations_reject_out_of_range_and_duplicate_edges():
    # (2,7) is not an edge of K_6; unchecked, its bit 9 is the edge (3,4)
    with pytest.raises(ValueError, match="out of range"):
        FamilySpec("threshold", 6, 1, edges=[(2, 7)], threshold=1).realize()
    with pytest.raises(ValueError, match="out of range"):
        FamilySpec("stars_plus_edge", 6, 1, edges=[(0, 1)]).realize()
    with pytest.raises(ValueError, match="duplicate"):
        FamilySpec("threshold", 6, 1, edges=[(1, 2), (2, 1)], threshold=1).realize()


def test_family_spec_roundtrip_and_verify():
    from treefam.extremal import FamilySpec

    fs = FamilySpec("threshold", 6, 2, edges=[(1, 2), (2, 3), (4, 5), (5, 6)],
                    threshold=3)
    fs2 = FamilySpec.from_json(fs.to_json())
    ok, mpi, size = fs2.verify()
    assert ok and size == 117 and mpi >= 2

    ok, mpi, size = FamilySpec("stars_plus_edge", 5, 1).verify()
    assert ok and size == 53

    # explicit members: the claim is actually checked, not trusted
    two_paths = [[(1, 2), (2, 3), (3, 4)], [(1, 3), (2, 3), (2, 4)]]
    assert FamilySpec("explicit", 4, 1, members=two_paths).verify()[0]
    assert not FamilySpec("explicit", 4, 2, members=two_paths).verify()[0]
    fs = FamilySpec("explicit", 4, 1, members=two_paths)
    back = FamilySpec.from_json(fs.to_json())
    assert back.to_json() == fs.to_json() and back.members == fs.members
    assert back.realize() == fs.realize() and back.verify() == (True, 1, 2)

    with pytest.raises(ValueError):
        FamilySpec("mystery", 5, 1)
    with pytest.raises(ValueError):
        FamilySpec("trivial", 5, 1)  # no edges
    with pytest.raises(ValueError, match="^threshold families need edges and a threshold$"):
        FamilySpec("threshold", 5, 1, edges=[(1, 2)])
    with pytest.raises(ValueError, match="^explicit families need members$"):
        FamilySpec("explicit", 5, 1)
    with pytest.raises(ValueError):
        FamilySpec("explicit", 4, 1, members=[[(1, 2)]]).realize()  # not spanning


def test_family_spec_rejects_repeated_members_and_extra_edges():
    from treefam.extremal import FamilySpec

    path = [(1, 2), (2, 3), (3, 4)]
    # one tree listed twice used to verify as (True, 3, 2)
    for again in (path, [(4, 3), (2, 1), (3, 2)]):
        with pytest.raises(ValueError, match="repeats a member"):
            FamilySpec("explicit", 4, 1, members=[path, again])
    # the second edge used to be dropped without a word
    with pytest.raises(ValueError, match="one edge"):
        FamilySpec("stars_plus_edge", 5, 1, edges=[(1, 2), (3, 4)])
    # an explicit empty list used to verify the family on edge (1, 2)
    with pytest.raises(ValueError, match=r"one edge, got \[\]$"):
        FamilySpec("stars_plus_edge", 5, 1, edges=[])
    assert FamilySpec("stars_plus_edge", 5, 1, edges=[(2, 4)]).verify() == (True, 1, 53)
    assert FamilySpec("stars_plus_edge", 5, 1).verify() == (True, 1, 53)
    # a field the kind does not read used to be dropped, so the spec
    # verified another family: the plain trivial one, here
    for kind, fields, unread in (
        ("trivial", dict(edges=[(1, 2)], threshold=3), "threshold"),
        ("trivial", dict(edges=[(1, 2)], members=[path]), "members"),
        ("stars_plus_edge", dict(threshold=1), "threshold"),
        ("threshold", dict(edges=[(1, 2)], threshold=1, members=[path]), "members"),
        ("explicit", dict(members=[path], edges=[(1, 2)]), "edges"),
        ("explicit", dict(members=[path], threshold=0), "threshold"),
    ):
        with pytest.raises(ValueError, match=f"{kind} families do not read {unread}$"):
            FamilySpec(kind, 4, 1, **fields)


@pytest.mark.parametrize("n, t, threshold", [
    (6, True, 3), (6, 2, True), (True, 1, 1), (6.0, 2, 3), (6, 2, 2.5),
])
def test_family_spec_rejects_non_integers(n, t, threshold):
    from treefam.extremal import FamilySpec

    with pytest.raises(ValueError, match="n, t and threshold must be integers"):
        FamilySpec("threshold", n, t, edges=[(1, 2), (2, 3)], threshold=threshold)


# -- balanced forests ---------------------------------------------------------


def test_balanced_forest_shapes_and_sizes():
    assert balanced_forest(5, 0).edges == ()
    assert balanced_forest(9, 6).edges == (
        (1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9),
    )
    f = balanced_forest(7, 3)
    assert f.component_sizes() == (2, 2, 2)
    assert f.isolated_vertices() == (7,)
    # larger components first, on consecutive blocks
    f = balanced_forest(7, 4)
    assert f.component_sizes() == (3, 2, 2)
    assert f.edges[0:2] == ((1, 2), (2, 3))
    with pytest.raises(ValueError):
        balanced_forest(5, 5)


def test_balanced_forest_component_shapes():
    path = balanced_forest(8, 6, "path")
    star = balanced_forest(8, 6, "star")
    cat = balanced_forest(8, 6, "caterpillar")
    for f in (path, star, cat):
        assert f.component_sizes() == (4, 4)
        assert len(f.edges) == 6
    assert star.edges[:3] == ((1, 2), (1, 3), (1, 4))
    assert path.edges[:3] == ((1, 2), (2, 3), (3, 4))
    assert cat != path and cat != star
    with pytest.raises(ValueError):
        balanced_forest(8, 6, "wheel")


def test_family_F_ntj_reduces_to_trivial_at_j0():
    for n, t in ((6, 2), (7, 3), (12, 3)):
        assert family_F_ntj_size(n, t, 0) == count_matching_family(n, t)
    with pytest.raises(ValueError):
        family_F_ntj_size(6, 2, 2)  # t + 2j > n - 1


def test_family_F_ntj_matches_enumeration():
    n, t, j = 6, 2, 1
    f = balanced_forest(n, t + 2 * j)
    from enumeration_oracle import verify_by_enumeration

    oracle = verify_by_enumeration(
        n, lambda tr: len(tr.edge_set() & f.edge_set()) >= t + j
    )
    assert family_F_ntj_size(n, t, j) == oracle


# -- the even-t window --------------------------------------------------------


def test_example_closed_form_15_8():
    rep = example_closed_form(15, 8)
    assert rep.threshold_size == 74_631_375
    assert rep.trivial_paths_size == 61_509_375
    assert rep.quadratic == -48
    assert rep.threshold_larger


def test_example_forest_and_ie_agree():
    for n, t in ((15, 8), (18, 10)):
        rep = example_closed_form(n, t)
        f = example_forest(n, t)
        assert f.component_sizes() == (3,) * (t // 2 + 1)
        assert count_at_least(n, f, t + 1) == rep.threshold_size
        assert count_trees_containing(n, _paths_only(n, t)) == rep.trivial_paths_size


def _paths_only(n, t):
    """t/2 disjoint 3-vertex paths (the baseline construction)."""
    edges = []
    for i in range(t // 2):
        a = 3 * i + 1
        edges += [(a, a + 1), (a + 1, a + 2)]
    return Forest(n, edges)


def test_example_window_validation():
    with pytest.raises(ValueError):
        example_closed_form(15, 7)  # odd t
    with pytest.raises(ValueError):
        example_closed_form(14, 8)  # below 3(t+2)/2
    with pytest.raises(ValueError):
        example_closed_form(16, 8)  # not < 2t


def test_quadratic_negative_throughout_window():
    for t in (8, 10, 12, 14):
        for n in range(3 * (t + 2) // 2, 2 * t):
            assert example_closed_form(n, t).threshold_larger


# -- conjecture scans ----------------------------------------------------------


def test_scan_small_t_prefers_j0():
    rep = conjecture_scan(12, 3, 4)
    assert rep.best_j == 0
    assert rep.weak_consistent is True
    sizes = [r.size for r in rep.rows]
    assert sizes[0] == count_matching_family(12, 3)
    assert sum(r.winner for r in rep.rows) == 1


def test_scan_15_8_balanced_forests():
    # at (15, 8) no 8-matching exists; the balanced 8-edge forest is (3, 2^6)
    # and its trivial family still beats the j=1 threshold family
    rep = conjecture_scan(15, 8, 1)
    assert [r.size for r in rep.rows] == [145_800_000, 74_631_375]
    assert rep.best_j == 0
    assert rep.weak_consistent is None  # t > n/2: the flag does not apply


@pytest.mark.parametrize("n, t, j_max", [
    (9, 2.0, 1), (9, True, 1), (9.0, 2, 1), ("9", 2, 1), (9, 2, True), (9, 2, 1.0),
])
def test_scan_rejects_non_integers(n, t, j_max):
    # (9, 2.0, 1) used to raise a bare TypeError, (9, True, 1) to report t: true
    with pytest.raises(ValueError, match="n, t and j_max must be integers"):
        conjecture_scan(n, t, j_max)


def test_scan_accepts_numpy_integers():
    import numpy as np

    rep = conjecture_scan(np.int64(9), np.int64(2), np.int64(1))
    assert rep.to_dict() == conjecture_scan(9, 2, 1).to_dict()
    assert type(rep.to_dict()["t"]) is int


def test_scan_9_4_table():
    rep = conjecture_scan(9, 4, 2)
    assert len(rep.rows) == 3
    assert all(r.size > 0 for r in rep.rows)
    d = rep.to_dict()
    assert [row["j"] for row in d["rows"]] == [0, 1, 2]
    assert all(isinstance(row["size"], str) for row in d["rows"])


def test_scan_rejects_negative_j_max():
    with pytest.raises(ValueError, match="j_max=-1"):
        conjecture_scan(5, 1, -1)


def test_scan_refuses_a_forest_past_n_minus_1_edges():
    with pytest.raises(ValueError, match=r"^t \+ 2\*j_max = 10 exceeds n-1 = 8$"):
        conjecture_scan(9, 4, 3)


@pytest.mark.parametrize("n, t, message", [
    (9, 3, "t=3 must be a positive even integer"),
    (5, 4, "n=5 cannot host 3 disjoint 3-vertex paths"),
])
def test_example_forest_refuses_what_it_cannot_build(n, t, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        example_forest(n, t)


# -- avoidance counts -----------------------------------------------------------


def test_count_avoiding_star_blocks_everything():
    star = Forest(6, [(1, x) for x in range(2, 7)])
    assert count_avoiding(6, star, Forest(6)) == 0


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
def test_count_avoiding_spanning_star_is_zero(n):
    # every tree meets a spanning star, so the matrix at x = 0 is singular
    star = Forest(n, [(1, x) for x in range(2, n + 1)])
    assert count_avoiding(n, star, Forest(n)) == 0
    assert exact_k_distribution(n, star)[0] == 0


def test_count_avoiding_agrees_with_the_kernel_on_every_forest_pair():
    # all 86,174 ordered (t0, f) pairs of forests at n = 3..5: the single
    # determinant at x = 0 against N_0 of the interpolated kernel
    pairs = zeros = 0
    for n in (3, 4, 5):
        universe = [Forest(n, es) for es in forests(n)]
        for t0 in universe:
            for f in universe:
                got = count_avoiding(n, t0, f)
                avoid = set(t0.edges) - set(f.edges)
                assert got == exact_k_distribution(n, avoid, f)[0], (t0, f)
                pairs += 1
                zeros += got == 0
    assert (pairs, zeros) == (86174, 224)


def test_count_avoiding_t0_equals_f():
    p = Forest(6, [(1, 2), (2, 3)])
    assert count_avoiding(6, p, p) == count_trees_containing(6, p)


def test_count_avoiding_dual_paths_on_path6():
    path6 = Forest(6, [(i, i + 1) for i in range(1, 6)])
    ie = count_avoiding(6, path6, Forest(6), method="ie")
    assert ie == enumeration_count_avoiding(6, path6, Forest(6)) == 130


def test_count_avoiding_randomized_dual_paths():
    rng = random.Random(7)
    n = 6
    for _ in range(40):
        t0_edges = [e for e in sample_uniform_tree(n, rng.randrange(2**30)).edges
                    if rng.random() < 0.7]
        f_edges = [e for e in sample_uniform_tree(n, rng.randrange(2**30)).edges
                   if rng.random() < 0.4]
        t0, f = Forest(n, t0_edges), Forest(n, f_edges)
        assert count_avoiding(n, t0, f, "ie") == enumeration_count_avoiding(n, t0, f)


def test_count_avoiding_validation():
    with pytest.raises(ValueError):
        count_avoiding(6, Forest(5, [(1, 2)]), Forest(6))
    for method in ("magic", "enum"):  # the kernel is the one method
        with pytest.raises(ValueError, match="unknown method"):
            count_avoiding(6, Forest(6), Forest(6), method=method)


def test_avoidance_counts_read_no_tree_universe(monkeypatch):
    # one determinant answers at every n: no library path decodes or scans
    # the 262,144 trees of K_8 to recount it
    import treefam.extremal as extremal_mod
    import treefam.trees as trees_mod

    def refuse(*args):
        raise AssertionError("the tree universe was read")

    m3, e = Forest(8, [(1, 2), (3, 4), (5, 6)]), Forest(8, [(1, 2)])
    want = enumeration_count_avoiding(8, m3, Forest(8)), enumeration_count_avoiding(8, m3, e)
    for mod, name in ((trees_mod, "tree_mask_array"), (extremal_mod, "tree_mask_array"),
                      (trees_mod, "edge_hits"), (extremal_mod, "edge_hits")):
        monkeypatch.setattr(mod, name, refuse)
    assert lemma_notstar_check(8, m3).avoid_count == want[0]
    assert (count_avoiding(8, m3, Forest(8)), count_avoiding(8, m3, e)) == want


# -- blocked count D_t ----------------------------------------------------------


def test_blocked_dt_n6():
    rep = blocked_Dt(6, 1)
    assert rep.value == 30
    assert rep.argmin_forest.edges == ((1, 2),)
    # witness recomputes to the reported value through the IE path
    assert count_avoiding(6, rep.argmin_tree, rep.argmin_forest) == 30
    # admissibility of the witness
    assert len(rep.argmin_forest) == 1
    from treefam.trees import intersection_size, is_star

    assert not is_star(rep.argmin_tree)
    assert intersection_size(rep.argmin_tree, rep.argmin_forest) < 1
    # context-only asymptotic bound: hypothesis unmet, bound < 1
    assert not rep.prop_hypothesis_met
    assert rep.prop_bound < 1


def test_blocked_dt_minimality_n5():
    """No admissible pair scores below the reported minimum (full recheck, n=5)."""
    rep = blocked_Dt(5, 1)
    from treefam.trees import enumerate_trees, intersection_size, is_star

    best = None
    for f_edges in forests(5, max_edges=1, min_edges=1):
        f = Forest(5, f_edges)
        for t0 in enumerate_trees(5):
            if is_star(t0) or intersection_size(t0, f) >= 1:
                continue
            v = count_avoiding(5, t0, f)
            best = v if best is None else min(best, v)
    assert rep.value == best


def test_blocked_dt_n6_t2():
    rep = blocked_Dt(6, 2)
    assert rep.value == 9
    assert count_avoiding(6, rep.argmin_tree, rep.argmin_forest) == 9


def test_blocked_dt_higher_t():
    """D_t shrinks as t grows; witnesses keep recomputing exactly."""
    values = {}
    for t in (1, 2, 3, 4):
        rep = blocked_Dt(6, t)
        assert count_avoiding(6, rep.argmin_tree, rep.argmin_forest) == rep.value
        values[t] = rep.value
    assert values == {1: 30, 2: 9, 3: 3, 4: 1}
    assert all(v >= 0 for v in values.values())


def test_blocked_dt_validation():
    with pytest.raises(ValueError):
        blocked_Dt(6, 5)  # t > n-2 rejected
    from treefam.trees import CapExceeded

    with pytest.raises(CapExceeded):
        blocked_Dt(11, 1)


@pytest.mark.parametrize(
    "n, t", [(5, 1.5), (6, 1.0), (6, True), (True, 1), (6.0, 1), ("6", 1), (6, None)]
)
def test_blocked_dt_rejects_non_integers(n, t):
    with pytest.raises(ValueError, match="must be integers"):
        blocked_Dt(n, t)


@pytest.mark.parametrize("n", [-1, 0, 1, 2])
def test_blocked_dt_names_small_n(n):
    with pytest.raises(ValueError, match=f"n={n} must be >= 3"):
        blocked_Dt(n, 1)


def _blocked_dt_scan(n, t):
    """Oracle: D_t by scoring every t-edge forest (in lexicographic order)
    against its admissible non-star trees (in tree-index order), first
    strict minimum kept.  Returns (value, argmin forest edges, argmin tree
    edges)."""
    import numpy as np

    from treefam.trees import edges_to_mask, mask_to_edges, tree_masks

    masks = tree_masks(n)
    arr = np.array(masks, dtype=np.uint64)
    non_star = ~np.isin(arr, np.array(star_masks(n), dtype=np.uint64))
    best = None
    for f_edges in forests(n, max_edges=t, min_edges=t):
        fmask = np.uint64(edges_to_mask(n, f_edges))
        pc = np.bitwise_count(arr & fmask)
        containing = arr[pc == t]
        avoids = arr & ~fmask
        idxs = np.flatnonzero(non_star & (pc < t))
        for s in range(0, len(idxs), 1024):
            sel = idxs[s : s + 1024]
            counts = np.count_nonzero(
                (containing[None, :] & avoids[sel][:, None]) == 0, axis=1
            )
            k = int(np.argmin(counts))
            if best is None or counts[k] < best[0]:
                best = (int(counts[k]), f_edges, int(sel[k]))
    value, f_edges, i = best
    return value, f_edges, tuple(mask_to_edges(n, masks[i]))


@pytest.mark.parametrize(
    "n, t", [(n, t) for n in (4, 5, 6) for t in range(1, n - 1)] + [(7, 1)]
)
def test_blocked_dt_matches_all_forest_scan(n, t):
    """One tree per type against every labelled forest gives the full
    scan's value and witnesses."""
    rep = blocked_Dt(n, t)
    value, f_edges, tree_edges = _blocked_dt_scan(n, t)
    assert rep.value == value
    assert rep.argmin_forest.edges == f_edges
    assert rep.argmin_tree.edges == tree_edges


@pytest.mark.parametrize("n, t", [(n, t) for n in range(4, 9) for t in range(1, n - 1)])
def test_blocked_dt_matches_the_universe_scan(n, t):
    """One tree per type against every vertex partition gives the value and
    witnesses of one forest per orbit against every tree."""
    rep = blocked_Dt(n, t)
    assert (rep.value, rep.argmin_forest.edges, rep.argmin_tree.edges) == universe_scan(n, t)


def test_blocked_dt_n7_values_and_witnesses():
    from treefam.trees import intersection_size, is_star

    values = {}
    for t in range(1, 6):
        rep = blocked_Dt(7, t)
        assert len(rep.argmin_forest) == t
        assert not is_star(rep.argmin_tree)
        assert intersection_size(rep.argmin_tree, rep.argmin_forest) < t
        assert count_avoiding(7, rep.argmin_tree, rep.argmin_forest) == rep.value
        values[t] = rep.value
    assert values == {1: 288, 2: 72, 3: 16, 4: 4, 5: 1}


def test_blocked_dt_scores_one_tree_per_type():
    """pairs_checked pins the reduction at n = 6: the 5 non-star tree types
    against every partition of [6] into 6 - t blocks, where every t-forest
    against every non-star tree would be 12,900 / 122,550 / 548,250 /
    1,386,750 pairs."""
    pairs = {t: blocked_Dt(6, t).pairs_checked for t in (1, 2, 3, 4)}
    assert pairs == {1: 50, 2: 302, 3: 448, 4: 155}


def _tree_types(n):
    """Brute force: the first tree of each S_n-orbit in tree-index order."""
    from itertools import permutations

    from treefam.trees import edge, enumerate_trees

    firsts, seen = [], set()
    for tr in enumerate_trees(n):
        if tr.edges not in seen:
            firsts.append(tr)
            seen.update(tuple(sorted(edge(p[u - 1], p[v - 1]) for u, v in tr.edges))
                        for p in permutations(range(1, n + 1)))
    return firsts


def _rooted_min_string(n, edges):
    """A canonical string of a tree built apart from the library's: the
    least over every root (not just the centres) of its sorted-children
    bracket string."""
    adj = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def code(v, parent):
        return "(" + "".join(sorted(code(w, v) for w in adj[v] if w != parent)) + ")"

    return min(code(r, 0) for r in adj)


def _least_overlaps(n, t, types):
    """Brute force: {(type index, partition): least |T_0 and F| over the
    t-edge forests F whose vertex partition is that partition}."""
    least = {}
    for f in forests(n, max_edges=t, min_edges=t):
        part = frozenset(map(frozenset, Forest(n, f).classes()))
        for a, tr in enumerate(types):
            key = (a, part)
            least[key] = min(least.get(key, t), len(tr.edge_set() & set(f)))
    return least


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_pairs_checked_counts_type_forest_pairs(n):
    """pairs_checked = the (type, partition) pairs, of a non-star tree type
    and a vertex partition into n - t blocks, with some t-edge forest of
    that partition meeting the type's tree in fewer than t edges, found by
    brute force over every labelled t-forest."""
    types = [tr for tr in _tree_types(n) if not is_star(tr)]
    assert len(types) == {3: 0, 4: 1, 5: 2, 6: 5}[n]
    for t in range(1, n - 1):
        want = sum(m < t for m in _least_overlaps(n, t, types).values())
        if want == 0:
            with pytest.raises(ValueError, match="no admissible"):
                blocked_Dt(n, t)
        else:
            assert blocked_Dt(n, t).pairs_checked == want


@pytest.mark.parametrize("n", [4, 5, 6])
def test_star_blocks_are_the_least_overlap(n):
    """The star-block rule, pair by pair: the star blocks of a partition,
    with two or more vertices of which one is joined in T_0 to all the
    others, number the least overlap of T_0 with a t-forest of that
    partition.  And every such forest gives the pair's count: a count reads
    F only through its partition."""
    from treefam.extremal import _free_trees, _pair_scores, _partition_level

    edges = _free_trees(n)[0][:-1] + 1
    types = [Tree(n, tr) for tr in edges.tolist()]
    for t in range(1, n - 1):
        counts, stars = _pair_scores(n, t, 0, None)
        bits = _partition_level(n, t)[2]
        parts = [frozenset(frozenset(v + 1 for v in range(n) if b >> v & 1) for b in row) for row in bits.tolist()]
        assert len(set(parts)) == len(parts) and all(len(p) == n - t for p in parts)
        least = _least_overlaps(n, t, types)
        assert {(a, p) for a, _ in enumerate(types) for p in parts} == set(least)
        for a, tr in enumerate(types):
            for i, p in enumerate(parts):
                assert stars[a, i] == least[a, p]
        for f in forests(n, max_edges=t, min_edges=t):
            i = parts.index(frozenset(map(frozenset, Forest(n, f).classes())))
            for a, tr in enumerate(types):
                assert count_avoiding(n, tr, Forest(n, f)) == counts[a, i]


@pytest.mark.parametrize("n, orbits, pairs", [
    (4, [1, 2], [3, 6]),
    (5, [1, 2, 3], [12, 45, 30]),
    (6, [1, 2, 4, 6], [50, 302, 448, 155]),
    (7, [1, 2, 4, 7, 11], [150, 1323, 3483, 3010, 630]),
])
def test_blocked_dt_counts_forest_orbits(n, orbits, pairs):
    """orbits = the unlabelled t-edge forests on n vertices, which the
    universe scan's orbit walk reaches once each; blocked_Dt scores the
    partitions instead, S(n, n - t) of them (Stirling numbers of the second
    kind), and pins pairs (type, partition) pairs."""
    from itertools import permutations

    from dt_oracle import _forest_orbits

    from treefam.trees import all_edges, edge

    reports = [blocked_Dt(n, t) for t in range(1, n - 1)]
    assert [len(_forest_orbits(n, t)) for t in range(1, n - 1)] == orbits
    assert [r.pairs_checked for r in reports] == pairs
    stirling = {(0, 0): 1}
    for i in range(1, n + 1):
        for k in range(1, i + 1):
            stirling[i, k] = k * stirling.get((i - 1, k), 0) + stirling.get((i - 1, k - 1), 0)
    assert [r.partitions for r in reports] == [stirling[n, n - t] for t in range(1, n - 1)]
    assert blocked_Dt(n, 1).to_dict()["partitions"] == n * (n - 1) // 2
    edges = all_edges(n)
    if n <= 6:  # the first forest of each orbit, walking every forest in order
        for t in range(1, n - 1):
            firsts, orbit_of = [], {}
            for f in forests(n, max_edges=t, min_edges=t):
                if f not in orbit_of:
                    firsts.append(f)
                    orbit_of.update((tuple(sorted(edge(p[u - 1], p[v - 1]) for u, v in f)), len(firsts) - 1)
                                    for p in permutations(range(1, n + 1)))
            assert [tuple(edges[b] for b in bits) for bits in _forest_orbits(n, t)] == firsts


@pytest.mark.parametrize("n, trees", [(6, 6), (7, 11), (8, 23)])
def test_forest_orbits_reach_the_unlabelled_trees_once(n, trees):
    """At t = n - 1 the universe scan's orbits are the unlabelled trees on n
    vertices, the same as blocked_Dt's tree types; a level is walked once
    per process and then read from the memo."""
    from dt_oracle import _forest_orbits

    from treefam.extremal import _free_trees
    from treefam.trees import all_edges

    assert len(_forest_orbits(n, n - 1)) == trees
    assert _forest_orbits(n, n - 1) is _forest_orbits(n, n - 1)
    # the first orbit is the star at vertex 1: no other is a star
    types = [Tree(n, [all_edges(n)[b] for b in bits]) for bits in _forest_orbits(n, n - 1)]
    assert [is_star(tr) for tr in types] == [True] + [False] * (trees - 1)
    assert (sorted(_rooted_min_string(n, tr.edges) for tr in types)
            == sorted(_rooted_min_string(n, e) for e in (_free_trees(n)[0] + 1).tolist()))


@pytest.mark.parametrize("n, count", list(zip(range(2, 12), [1, 1, 2, 3, 6, 11, 23, 47, 106, 235])))
def test_free_trees_are_the_unlabelled_trees(n, count):
    """Leaf augmentation keeps one tree per isomorphism class: the counts
    are OEIS A000055, no two types are isomorphic, exactly one is a star
    and it comes last, and for n <= 7 they are the brute-force types.  The
    neighbourhood masks match the edges."""
    from treefam.extremal import _free_trees

    edges, reach = _free_trees(n)
    trees = [Tree(n, tr) for tr in (edges + 1).tolist()]
    assert len(trees) == count
    strings = [_rooted_min_string(n, tr.edges) for tr in trees]
    assert len(set(strings)) == count
    assert [is_star(tr) for tr in trees] == [False] * (count - 1) + [True]
    if n <= 7:
        assert set(strings) == {_rooted_min_string(n, tr.edges) for tr in _tree_types(n)}
    for tr, masks in zip(edges.tolist(), reach.tolist()):
        want = [1 << v for v in range(n)]
        for u, v in tr:
            want[u] |= 1 << v
            want[v] |= 1 << u
        assert masks == want
    assert _free_trees(n) is _free_trees(n)


@pytest.fixture
def cold_dt_caches():
    from treefam import extremal

    def clear():
        for memo in (extremal._free_trees, extremal._partition_level):
            memo.cache_clear()

    clear()
    yield
    clear()


def test_dt_blocks_do_not_change_results(cold_dt_caches, monkeypatch):
    """The tree types, the partition levels and the D_t scan agree between
    the default blocks, where one block holds every partition at n <= 6,
    and blocks of 64 cells, where a block holds one partition against every
    type."""
    from treefam import extremal

    def run():
        return [([a.tolist() for a in extremal._free_trees(n)],
                 [([a.tolist() for a in extremal._partition_level(n, t)], blocked_Dt(n, t).to_dict())
                  for t in range(1, n - 1)])
                for n in (4, 5, 6)]

    default = run()
    for memo in (extremal._free_trees, extremal._partition_level):
        memo.cache_clear()
    monkeypatch.setattr(extremal, "_BLOCK_CELLS", 64)
    assert run() == default


@pytest.fixture(scope="module")
def dt8():
    return {t: blocked_Dt(8, t) for t in range(1, 7)}


def test_blocked_dt_n8_pins(dt8):
    from treefam.trees import intersection_size, is_star

    assert {t: r.value for t, r in dt8.items()} == {
        1: 3430, 2: 735, 3: 140, 4: 25, 5: 5, 6: 1}
    assert [r.pairs_checked for r in dt8.values()] == [
        462, 5595, 23000, 37417, 21252, 2794]
    assert [r.partitions for r in dt8.values()] == [28, 266, 1050, 1701, 966, 127]
    for t, rep in dt8.items():
        # the argmin forest is the star K_{1,t} at vertex 1
        assert rep.argmin_forest.edges == tuple((1, v) for v in range(2, t + 2))
        assert not is_star(rep.argmin_tree)
        assert intersection_size(rep.argmin_tree, rep.argmin_forest) < t
        assert count_avoiding(8, rep.argmin_tree, rep.argmin_forest) == rep.value


@pytest.fixture(scope="module")
def dt9():
    return {t: blocked_Dt(9, t) for t in range(1, 8)}


def test_blocked_dt_n9_pins(dt9):
    """Past the tree-universe cap: one type of each of the 46 non-star
    trees on 9 vertices against every partition, and a witness of each
    value that is admissible and recounts to it."""
    from treefam.trees import intersection_size, is_star, tree_index

    assert {t: r.value for t, r in dt9.items()} == {
        1: 49152, 2: 9216, 3: 1536, 4: 240, 5: 36, 6: 6, 7: 1}
    assert [r.pairs_checked for r in dt9.values()] == [
        1288, 20481, 121258, 319687, 357420, 139150, 11730]
    assert [r.partitions for r in dt9.values()] == [36, 462, 2646, 6951, 7770, 3025, 255]
    # the least tree indices that the stabiliser-image search of earlier
    # releases found; the closed-form witness keeps them
    assert [tree_index(r.argmin_tree) for r in dt9.values()] == [
        1195743, 1793614, 2391485, 2989356, 3587227, 4185090, 531440]
    for t, rep in dt9.items():
        assert rep.argmin_forest.edges == tuple((1, v) for v in range(2, t + 2))
        assert not is_star(rep.argmin_tree)
        assert intersection_size(rep.argmin_tree, rep.argmin_forest) < t
        assert count_avoiding(9, rep.argmin_tree, rep.argmin_forest) == rep.value


def conjectured_dt(n, t):
    if t == n - 2:
        return 1
    if t == n - 3:
        return n - 3
    return (t + 1) * (n - 3) * (n - 1) ** (n - 4 - t)


def test_blocked_dt_fits_the_conjectured_closed_form(dt8, dt9):
    """Conjecture, from every value computed at n = 4..10 (not a theorem;
    the CI sweep checks n = 10, too slow for this suite):
    D_t(n) = (t+1)(n-3)(n-1)^(n-4-t) for 1 <= t <= n-4, D_{n-3}(n) = n-3
    and D_{n-2}(n) = 1."""
    values = {(8, t): rep.value for t, rep in dt8.items()}
    values.update({(9, t): rep.value for t, rep in dt9.items()})
    for n in (4, 5, 6, 7):
        for t in range(1, n - 1):
            values[n, t] = blocked_Dt(n, t).value
    assert len(values) == 27
    assert values == {key: conjectured_dt(*key) for key in values}


def spider_star_pair(n, t):
    """The conjectured D_t witness: F = K_{1,t} at vertex 1, and T_0 a
    spider, a centre joined to all but one vertex plus one edge, the leg,
    to the vertex left out.
    For t <= n-4 the centre is t+2, joined to 1..t+1 and t+3..n-1, and the
    leg is (t+3, n); at t = n-3 the centre is n-1 and the leg (1, n); at
    t = n-2 the centre is n, joined to 1 and 3..n-1, and the leg (1, 2).
    T_0 is no star and meets F in fewer than t edges."""
    forest = Forest(n, [(1, v) for v in range(2, t + 2)])
    if t <= n - 4:
        centre, spokes, leg = t + 2, [*range(1, t + 2), *range(t + 3, n)], (t + 3, n)
    elif t == n - 3:
        centre, spokes, leg = n - 1, range(1, n - 1), (1, n)
    else:
        centre, spokes, leg = n, [1, *range(3, n)], (1, 2)
    tree = Tree(n, [(v, centre) for v in spokes] + [leg])
    assert not is_star(tree) and intersection_size(tree, forest) < t
    return tree, forest


def test_spider_star_pair_meets_the_closed_form_at_every_n():
    """The upper half of the conjecture: D_t(n) <= the conjectured form at
    every t, by the witness's own count, with no enumeration."""
    pairs = [(n, t) for n in range(6, 41) for t in range(1, n - 1)]
    assert len(pairs) == 735
    for n, t in pairs:
        tree, forest = spider_star_pair(n, t)
        assert count_avoiding(n, tree, forest) == conjectured_dt(n, t)


def test_spider_star_pair_is_the_argmin(dt8, dt9):
    reports = {(n, t): blocked_Dt(n, t) for n in (4, 5, 6, 7) for t in range(1, n - 1)}
    reports.update({(8, t): rep for t, rep in dt8.items()})
    reports.update({(9, t): rep for t, rep in dt9.items()})
    assert len(reports) == 27
    for (n, t), rep in reports.items():
        assert (rep.argmin_tree, rep.argmin_forest) == spider_star_pair(n, t)


@pytest.mark.parametrize("n, t", [(5, 1), (6, 2), (7, 4), (8, 6)])
def test_blocked_dt_refuses_a_witness_that_misses_the_minimum(monkeypatch, n, t):
    """The closed-form witness is checked, by a raise that python -O keeps:
    when one admissible count falls below the spider's, blocked_Dt raises
    rather than report a value its witness does not attain."""
    from treefam import extremal

    scores = extremal._pair_scores

    def lowered(*args):
        counts, stars = scores(*args)
        counts = counts.copy()
        counts[tuple(np.argwhere(stars < t)[:1].T)] = conjectured_dt(n, t) - 1
        return counts, stars

    monkeypatch.setattr(extremal, "_pair_scores", lowered)
    with pytest.raises(RuntimeError, match=f"does not attain D_{t}\\({n}\\) = {conjectured_dt(n, t) - 1}"):
        blocked_Dt(n, t)


# -- local lemma ------------------------------------------------------------------


def test_llll_empty_event_set():
    rep = llll_condition_check([], [], [])
    assert rep.ok and rep.bound == 1


def test_llll_accepts_matching_line_graph():
    # p = 2/n, x = 4/n on an edgeless dependency graph: 2/n <= 4/n
    for n in (5, 7, 12, 64):
        m = 3
        rep = llll_condition_check(
            [Fraction(2, n)] * m, [Fraction(4, n)] * m, [[] for _ in range(m)]
        )
        assert rep.ok
        assert rep.bound == Fraction(n - 4, n) ** m


def test_llll_rejects_violating_degree():
    rep = llll_condition_check(
        [Fraction(1, 2)] * 3, [Fraction(1, 2)] * 3, [[1, 2], [0, 2], [0, 1]]
    )
    assert not rep.ok and rep.failing_index == 0


def test_llll_low_degree_line_graphs_pass_up_to_64():
    """p=2/n, x=4/n passes whenever line-graph degrees stay below n/6."""
    for n in (25, 36, 49, 64):
        # near-balanced forest of tiny paths: line-graph degrees stay <= 2
        f = balanced_forest(n, 2 * (n // 3))
        adj = line_graph_adjacency(f)
        assert max(len(a) for a in adj) <= 2
        m = len(f.edges)
        rep = llll_condition_check(
            [Fraction(2, n)] * m, [Fraction(4, n)] * m, adj
        )
        assert rep.ok


def test_llll_degree_just_below_n_sixth_boundary():
    """The checker evaluates the exact condition, not the rule of thumb.

    With p = 2/n, x = 4/n, the condition at a degree-d event is
    2/n <= (4/n)(1-4/n)^d, i.e. (1-4/n)^d >= 1/2.  Degrees just below n/6
    genuinely violate it around n = 25 and genuinely satisfy it from n = 36
    up, and the checker must report each case as it is.
    """

    def check(n, d):
        # one event of degree d among d+1 events (a star in the event graph)
        adj = [list(range(1, d + 1))] + [[0] for _ in range(d)]
        m = d + 1
        return llll_condition_check(
            [Fraction(2, n)] * m, [Fraction(4, n)] * m, adj
        ).ok

    assert not check(25, 4)  # 4 < 25/6, yet (21/25)^4 < 1/2
    assert check(36, 5)
    assert check(49, 8)
    assert check(64, 10)


def test_llll_input_validation():
    with pytest.raises(ValueError):
        llll_condition_check([Fraction(1, 2)], [Fraction(1, 1)], [[]])
    with pytest.raises(ValueError):
        llll_condition_check([2], [Fraction(1, 2)], [[]])
    with pytest.raises(ValueError):
        llll_condition_check([Fraction(1, 2)], [Fraction(1, 2)], [[], []])
    # a neighbour outside 0..N-1 (-1 used to read event N-1, 5 an
    # IndexError), the event itself (a factor 1 - x_i), a repeat (its factor
    # twice) or a non-integer (a TypeError) is refused by name
    p, x = [Fraction(1, 4)] * 2, [Fraction(1, 2)] * 2
    for adj, why in (([[-1], []], "other than 0"), ([[5], []], "other than 0"),
                     ([[0], []], "other than 0"), ([[1, 1], [0]], "other than 0"),
                     ([[1], [0, 0]], "other than 1"), ([[1.0], []], "must be an integer"),
                     ([[True], []], "must be an integer"), ([["1"], []], "must be an integer")):
        with pytest.raises(ValueError, match=rf"^adjacency\[\d\].* {why}"):
            llll_condition_check(p, x, adj)
    with pytest.raises(ValueError, match="^adjacency must be neighbour lists"):
        llll_condition_check(p, x, [1, [0]])
    assert llll_condition_check(p, x, [[1], [0]]).ok


@pytest.mark.parametrize("args, what", [
    (([None], [Fraction(1, 2)], [[]]), "^p must be a list of rationals"),
    (([Fraction(1, 4)], [[1]], [[]]), "^x must be a list of rationals"),
    (([Fraction(1, 4)], [Fraction(1, 2)], None), "^adjacency must be neighbour lists"),
    ((["1/0"], [Fraction(1, 2)], [[]]), "^p must be a list of rationals"),
    (([Fraction(1, 4)], [float("inf")], [[]]), "^x must be a list of rationals"),
], ids=["p-none", "x-list", "adjacency-none", "p-zero-denominator", "x-inf"])
def test_llll_refuses_non_rationals_by_name(args, what):
    # each was a TypeError (or ZeroDivisionError, OverflowError) from Fraction
    # or len()
    with pytest.raises(ValueError, match=what):
        llll_condition_check(*args)


# -- notstar avoidance bound -------------------------------------------------------


def test_notstar_check_on_matchings_n7():
    m3 = Forest(7, [(1, 2), (3, 4), (5, 6)])
    rep = lemma_notstar_check(7, m3)
    assert rep.avoid_count == 6125 == enumeration_count_avoiding(7, m3, Forest(7))
    assert rep.rational_bound == Fraction(3 ** 6, 7)
    assert rep.rational_ok and rep.e4_ok and rep.llll_ok and rep.verdict


def test_notstar_empty_forest():
    rep = lemma_notstar_check(7, Forest(7))
    assert rep.avoid_count == cayley_count(7) == enumeration_count_avoiding(7, [], [])
    assert rep.verdict


def test_notstar_rejects_6_star_like():
    path7 = Forest(7, [(i, i + 1) for i in range(1, 7)])
    assert is_d_star_like(path7, 6)
    with pytest.raises(ValueError, match="6-star-like"):
        lemma_notstar_check(7, path7)


def test_notstar_rejects_a_forest_on_another_n():
    # judged on the forest's own n = 5, this path read as 6-star-like
    with pytest.raises(ValueError, match=r"^the forest lives on n=5, not n=10$"):
        lemma_notstar_check(10, Forest(5, [(1, 2), (2, 3)]))
    for call in (lambda: count_avoiding(10, Forest(5), Forest(10)),
                 lambda: count_avoiding(10, Forest(10), Forest(5)),
                 lambda: trivial_family_size(10, Forest(5, [(1, 2)]))):
        with pytest.raises(ValueError, match=r"^the forest lives on n=5, not n=10$"):
            call()


def test_notstar_n8_exhaustive_sweep():
    """Every non-6-star-like forest with <= 4 edges passes at n = 8."""
    n = 8
    checked = 0
    for f_edges in forests(n, 4):
        f = Forest(n, f_edges)
        if is_d_star_like(f, 6):
            continue
        rep = lemma_notstar_check(n, f)
        assert rep.verdict, f_edges
        assert rep.avoid_count == enumeration_count_avoiding(n, f, Forest(n)), f_edges
        checked += 1
    assert checked > 100


def test_notstar_beyond_enumeration_range():
    # the IE path is exact at any n; a 13-edge path is not 6-star-like at n=14
    path14 = Forest(14, [(i, i + 1) for i in range(1, 14)])
    rep = lemma_notstar_check(14, path14)
    assert rep.avoid_count == 7_025_473_163_526
    assert rep.verdict


# -- exact search --------------------------------------------------------------------


def test_brute_force_51():
    res, comp = brute_force_max_t_intersecting(5, 1)
    assert res.optimal and res.size == 53
    assert comp["stars_plus_edge"] == 53
    assert comp["best_trivial"] == 50
    assert res.family.min_pairwise_intersection() >= 1


def test_brute_force_21_has_no_stars_plus_edge():
    # K_2 has one tree; the search used to finish and then raise from
    # stars_plus_edge_size(2) while building its comparison
    res, comp = brute_force_max_t_intersecting(2, 1)
    assert res.optimal and res.size == 1
    assert comp == {"found": 1, "optimal": True, "best_trivial": 1}


def test_brute_force_52():
    res, comp = brute_force_max_t_intersecting(5, 2)
    assert res.optimal and res.size == 20
    assert comp["best_trivial"] == 20
    assert res.family.min_pairwise_intersection() >= 2


def test_brute_force_62_is_certified():
    # the S_6-orbit pruning finishes Gamma_2(K_6): the matching family of two
    # disjoint edges, 2^2 * 6^2 = 144 trees, is optimal.  (Gamma_1(K_6), with
    # 436 found, is still uncertified.)
    res, comp = brute_force_max_t_intersecting(6, 2)
    assert res.optimal and res.size == 144
    assert comp["best_trivial"] == count_matching_family(6, 2) == 144
    assert res.family.min_pairwise_intersection() >= 2
    assert res.family.is_independent()
    # the pruned search tree, pinned like the rows in test_gamma
    assert res.nodes == 32639


def test_brute_force_t_equals_nminus1():
    # t = n-1 forces identical trees, so the largest family is a single tree
    res, _ = brute_force_max_t_intersecting(4, 3)
    assert res.optimal and res.size == 1


def test_brute_force_cap(monkeypatch):
    # gamma_cap refuses K_8's 262,144 trees before their masks are built
    import treefam.gamma
    from treefam.trees import CapExceeded

    def unbuilt(n):
        raise AssertionError(f"tree_masks({n}) built past the cap")

    monkeypatch.setattr(treefam.gamma, "tree_masks", unbuilt)
    with pytest.raises(CapExceeded) as ei:
        brute_force_max_t_intersecting(8, 1)
    assert (ei.value.cap_name, ei.value.cap_value) == ("gamma_cap", 20000)
    assert "262144 vertices" in str(ei.value)

"""Disjointness graphs, tree packing, exact clique/independence search."""

import hashlib
import itertools
import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import treefam
from enumeration_oracle import star_masks
from packing_oracle import check_packing_certificate, partition_minimum, set_partitions
from spanning_tree_oracle import spanning_trees

from treefam.extremal import brute_force_max_t_intersecting
from treefam.gamma import (
    _BLOCK_CELLS,
    _REC_STEP,
    DEFAULT_NODE_BUDGET,
    DisjointnessGraph,
    SimpleGraph,
    TreeFamily,
    _color_sort,
    _degeneracy_order,
    _edge_image_bits,
    _greedy_clique,
    _max_clique_bitset,
    _orbit_and_stabiliser,
    _relabel,
    _rows,
    _spanning_tree_count,
    _spanning_tree_masks,
    build_gamma,
    enumerate_spanning_trees,
    max_clique,
    max_independent_set,
    packing_number,
)
from treefam.trees import (
    _DSU, CapExceeded, Tree, all_edges, cayley_count, edge_bit, edges_to_mask, intersection_size, is_star,
    tree_masks,
)


# -- SimpleGraph --------------------------------------------------------------


def test_simple_graph_validation():
    g = SimpleGraph(4, [(2, 1), (3, 4)])
    assert g.edges == ((1, 2), (3, 4))
    with pytest.raises(ValueError):
        SimpleGraph(4, [(1, 1)])
    with pytest.raises(ValueError):
        SimpleGraph(4, [(1, 2), (2, 1)])
    assert SimpleGraph.complete(5).is_complete()
    assert not SimpleGraph.cycle(5).is_complete()
    assert SimpleGraph.path(6).is_connected()
    assert not SimpleGraph(4, [(1, 2)]).is_connected()


# -- spanning tree enumeration -------------------------------------------------


def test_enumerate_spanning_trees_k4():
    ts = list(enumerate_spanning_trees(SimpleGraph.complete(4)))
    assert len(ts) == 16
    assert len({t.edges for t in ts}) == 16


def test_enumerate_spanning_trees_special_graphs():
    # a tree has exactly itself
    p = SimpleGraph.path(5)
    assert [t.edges for t in enumerate_spanning_trees(p)] == [p.edges]
    # a cycle loses any one edge
    ts = list(enumerate_spanning_trees(SimpleGraph.cycle(5)))
    assert len(ts) == 5
    # disconnected graphs stream nothing
    assert list(enumerate_spanning_trees(SimpleGraph(4, [(1, 2), (3, 4)]))) == []


def test_enumerate_spanning_trees_matches_cayley():
    for n in (3, 4, 5):
        ts = list(enumerate_spanning_trees(SimpleGraph.complete(n)))
        assert len(ts) == cayley_count(n)
        assert len({t.edges for t in ts}) == cayley_count(n)


def _random_connected(seed, n):
    """A seeded connected host on n vertices: a random tree plus a few chords."""
    rng = random.Random(seed)
    order = rng.sample(range(1, n + 1), n)
    edges = {tuple(sorted((v, rng.choice(order[:i])))) for i, v in enumerate(order) if i}
    edges |= set(rng.sample(all_edges(n), rng.randint(0, n)))
    return SimpleGraph(n, edges)


WALK_HOSTS = [
    *(SimpleGraph.complete(n) for n in (1, 2, 3, 4, 5, 6)),
    SimpleGraph(12, [(i, i + 1) for i in range(1, 12)] + [(1, 12), (1, 7), (4, 10), (3, 9)]),
    SimpleGraph(8, [(1, v) for v in range(2, 9)] + [(v, v + 1) for v in range(2, 8)] + [(2, 8)]),
    SimpleGraph.path(6),
    SimpleGraph.cycle(7),
    SimpleGraph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6)]),
    *(_random_connected(seed, n) for n in (5, 6, 7, 8) for seed in (1, 2, 3)),
]


@pytest.mark.parametrize("g", WALK_HOSTS, ids=lambda g: f"n{g.n}m{len(g.edges)}")
def test_spanning_tree_masks_follow_the_walk_oracle(g):
    # the mask stream is the Tree walk's masks in the Tree walk's order:
    # build_gamma's vertex order of a non-complete host rests on it
    want = [edges_to_mask(g.n, tr.edges) for tr in spanning_trees(g)]
    assert bool(want) == g.is_connected()
    assert list(_spanning_tree_masks(g)) == want
    assert [tr.edges for tr in enumerate_spanning_trees(g)] == [tr.edges for tr in spanning_trees(g)]
    if len(g.edges) <= 10:
        # and it is every acyclic (n-1)-edge subset, each once
        k = g.n - 1
        brute = {edges_to_mask(g.n, f) for f in itertools.combinations(g.edges, k)
                 if _DSU(g.n).merges(f) == k}
        assert len(want) == len(set(want)) and set(want) == brute


@pytest.mark.parametrize("g", WALK_HOSTS, ids=lambda g: f"n{g.n}m{len(g.edges)}")
def test_spanning_tree_count_matches_the_walk(g):
    assert _spanning_tree_count(g) == len(_spanning_tree_masks(g))


def test_spanning_tree_count_of_a_disconnected_host():
    assert _spanning_tree_count(SimpleGraph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6)])) == 0
    assert _spanning_tree_count(SimpleGraph(3)) == 0


# more than 20,000 trees each: K_8 less an edge has 196,608, and every other
# edge of K_12 (33 of them) 13,886,208
BIG_HOSTS = [SimpleGraph(8, all_edges(8)[1:]), SimpleGraph(12, all_edges(12)[::2])]


@pytest.mark.parametrize("g", BIG_HOSTS, ids=lambda g: f"n{g.n}m{len(g.edges)}")
def test_gamma_cap_refuses_before_the_walk(g, monkeypatch):
    import treefam.gamma

    def unwalked(host):
        raise AssertionError(f"the walk ran on {host!r} past the cap")

    count = _spanning_tree_count(g)
    assert count > 20000
    monkeypatch.setattr(treefam.gamma, "_spanning_tree_masks", unwalked)
    for call in (lambda: build_gamma(g, 1), lambda: enumerate_spanning_trees(g)):
        with pytest.raises(CapExceeded) as ei:
            call()
        assert (ei.value.cap_name, ei.value.cap_value) == ("gamma_cap", 20000)
        assert f"{count} vertices" in str(ei.value)


def test_enumerate_spanning_trees_cap():
    # K_8's 262,144 trees are refused at the call, before the first tree
    with pytest.raises(CapExceeded) as ei:
        enumerate_spanning_trees(SimpleGraph.complete(8))
    assert (ei.value.cap_name, ei.value.cap_value) == ("gamma_cap", 20000)
    assert "262144" in str(ei.value)
    with pytest.raises(TypeError):
        enumerate_spanning_trees(SimpleGraph.complete(4), cap=10)


# -- disjointness graph ---------------------------------------------------------


def packed(adj):
    """Python-int adjacency rows in the layout of gamma._rows."""
    import numpy as np

    width = (len(adj) + 7) // 8
    buf = b"".join(r.to_bytes(width, "little") for r in adj)
    return np.frombuffer(buf, np.uint8).reshape(len(adj), width)


def int_rows(mat):
    """The rows of a little-endian bit matrix as Python ints."""
    return [int.from_bytes(r.tobytes(), "little") for r in mat]


def test_gamma_k3_edgeless():
    # the 3 trees on 3 vertices pairwise share exactly one edge
    dg = build_gamma(SimpleGraph.complete(3), 1)
    assert dg.vertex_count == 3
    assert dg.edge_count() == 0


def test_gamma_t_nminus1_complete():
    dg = build_gamma(SimpleGraph.complete(4), 3)
    V = dg.vertex_count
    assert dg.edge_count() == V * (V - 1) // 2


def test_gamma_adjacency_symmetric_loopless():
    dg = build_gamma(SimpleGraph.complete(5), 2)
    adj = adjacency_matrix(dg)
    assert not adj.diagonal().any()
    assert (adj == adj.T).all()
    for i in range(dg.vertex_count):
        for j in range(i + 1, dg.vertex_count):
            assert adj[i, j] == ((dg.masks[i] & dg.masks[j]).bit_count() < 2)


def test_stars_are_universal_non_neighbors_at_t1():
    for n in (4, 5, 6):
        dg = build_gamma(SimpleGraph.complete(n), 1)
        for i in range(dg.vertex_count):
            if is_star(dg.tree(i)):
                assert not dg.rows()[i].any()


def test_gamma_respects_cap():
    with pytest.raises(CapExceeded) as ei:
        build_gamma(SimpleGraph.complete(8), 1)
    assert (ei.value.cap_name, ei.value.cap_value) == ("gamma_cap", 20000)
    assert "262144 vertices" in str(ei.value)
    with pytest.raises(TypeError):
        build_gamma(SimpleGraph.complete(4), 1, cap=1000)


def test_gamma_dump_roundtrip(tmp_path):
    import numpy as np

    dg = build_gamma(SimpleGraph.complete(4), 1)
    path = str(tmp_path / "gamma.bin")
    dg.save_adjacency(path)
    n, t, rows = DisjointnessGraph.load_adjacency(path)
    assert (n, t) == (4, 1)
    assert rows.dtype == np.uint8 and np.array_equal(rows, dg.rows())
    summary = dg.summary()
    assert summary["vertices"] == 16 and summary["n"] == 4


def test_truncated_dump_rejected(tmp_path):
    dg = build_gamma(SimpleGraph.complete(5), 1)
    path = tmp_path / "gamma.bin"
    dg.save_adjacency(str(path))
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    # 125 rows of 16 bytes
    with pytest.raises(ValueError, match="1997 bytes, expected 2000"):
        DisjointnessGraph.load_adjacency(str(path))
    path.write_bytes(data + b"\0")
    with pytest.raises(ValueError, match="longer than the expected 2000 bytes"):
        DisjointnessGraph.load_adjacency(str(path))
    path.write_bytes(data[:20])
    with pytest.raises(ValueError, match="truncated header"):
        DisjointnessGraph.load_adjacency(str(path))
    # a header claiming V = 2^40 is refused from the file size, before any
    # row (2^37 bytes each) is read
    path.write_bytes(data[:8] + struct.pack("<QQQ", 5, 1, 2**40))
    with pytest.raises(ValueError, match="body is 0 bytes, expected"):
        DisjointnessGraph.load_adjacency(str(path))
    # C_7 at t = 2: 7 rows of one byte, bit 7 lies past the last vertex
    build_gamma(SimpleGraph.cycle(7), 2).save_adjacency(str(path))
    data = path.read_bytes()
    assert DisjointnessGraph.load_adjacency(str(path))[2].shape == (7, 1)
    for row, bit, what in ((0, 7, "row 0 has a bit at or past V = 7"), (1, 1, "row 1 has a loop")):
        corrupt = bytearray(data)
        corrupt[32 + row] |= 1 << bit
        path.write_bytes(bytes(corrupt))
        with pytest.raises(ValueError, match=what):
            DisjointnessGraph.load_adjacency(str(path))


def run_optimized(code):
    """Run code under python -O, which strips assert statements."""
    src = str(Path(treefam.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_search_result_checks_survive_optimize_flag():
    # the certificate check on a search result must not be an assert
    code = (
        "import treefam.gamma as g\n"
        "g.TreeFamily.is_independent = lambda self: False\n"
        "try:\n"
        "    g.max_independent_set(g.build_gamma(g.SimpleGraph.complete(4), 1))\n"
        "except RuntimeError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(3)\n"
    )
    proc = run_optimized(code)
    assert proc.returncode == 0, proc.stderr


def test_argument_checks_survive_optimize_flag():
    # the budget, t and member-mask checks are explicit raises, not asserts
    code = (
        "import treefam.gamma as g\n"
        "k4 = g.SimpleGraph.complete(4)\n"
        "dg = g.build_gamma(k4, 1)\n"
        "calls = [lambda: g.max_independent_set(dg, budget=-1),\n"
        "         lambda: g.max_clique(dg, budget=1.5),\n"
        "         lambda: g.build_gamma(k4, 1.5),\n"
        "         lambda: g.TreeFamily(dg, 1 << 200),\n"
        "         lambda: g.TreeFamily(dg, -1)]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(3)\n"
    )
    proc = run_optimized(code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("budget", [-3, -1, 1.5, "7", None])
def test_search_rejects_bad_budget(budget):
    dg = build_gamma(SimpleGraph.complete(4), 1)
    for search in (max_clique, max_independent_set):
        with pytest.raises(ValueError, match="node budget"):
            search(dg, budget=budget)
    with pytest.raises(ValueError, match="node budget"):
        brute_force_max_t_intersecting(4, 1, node_budget=budget)


def test_search_accepts_integer_budgets():
    import numpy as np

    dg = build_gamma(SimpleGraph.complete(5), 1)
    assert max_independent_set(dg, budget=np.int64(5)).nodes == 6
    res = max_independent_set(dg, budget=0)
    assert (res.optimal, res.nodes) == (False, 1)
    assert res.family.is_independent()


def test_build_gamma_rejects_non_integer_t():
    k4 = SimpleGraph.complete(4)
    for t in (1.5, 2.0, "2", None):
        with pytest.raises(ValueError, match="t must be an integer"):
            build_gamma(k4, t)
    import numpy as np

    dg = build_gamma(k4, np.int64(2))
    assert type(dg.t) is int and dg.summary()["t"] == 2


def test_build_gamma_refuses_t_past_n_minus_1():
    with pytest.raises(ValueError, match=r"^t=4 out of range 1\.\.3$"):
        build_gamma(SimpleGraph.complete(4), 4)


@pytest.mark.parametrize("search", [max_clique, max_independent_set])
def test_search_on_a_host_with_no_spanning_tree(search):
    # two disjoint edges span no tree: Gamma_1 is empty, and so is its optimum
    dg = build_gamma(SimpleGraph(4, [(1, 2), (3, 4)]), 1)
    res = search(dg)
    assert (dg.vertex_count, res.size, res.optimal, res.family.trees()) == (0, 0, True, [])


def test_dump_with_a_wrong_magic_is_refused(tmp_path):
    path = tmp_path / "gamma.bin"
    build_gamma(SimpleGraph.complete(4), 1).save_adjacency(str(path))
    path.write_bytes(b"NOTGAMMA" + path.read_bytes()[8:])
    with pytest.raises(ValueError, match="^bad magic b'NOTGAMMA' in "):
        DisjointnessGraph.load_adjacency(str(path))


def test_bools_are_not_integers_for_gamma():
    # True used to build Gamma_1 through operator.index
    k4 = SimpleGraph.complete(4)
    with pytest.raises(ValueError, match="t must be an integer, got True"):
        build_gamma(k4, True)
    dg = build_gamma(k4, 1)
    with pytest.raises(ValueError, match="member mask must be an integer"):
        TreeFamily(dg, True)
    for search in (max_clique, max_independent_set):
        with pytest.raises(ValueError, match="node budget must be an integer"):
            search(dg, budget=False)


def test_tree_family_rejects_masks_outside_the_vertices():
    dg = build_gamma(SimpleGraph.complete(4), 1)
    for mask in (-1, 1 << 16, 1 << 200):
        with pytest.raises(ValueError, match="member mask"):
            TreeFamily(dg, mask)
    with pytest.raises(ValueError, match="member mask must be an integer"):
        TreeFamily(dg, 3.0)
    assert TreeFamily(dg, (1 << 16) - 1).size == 16
    assert TreeFamily(dg, 0).is_independent()


# -- packing ---------------------------------------------------------------------


def test_set_partition_count():
    # Bell numbers: the partition-scan oracle sees every partition
    assert sum(1 for _ in set_partitions(4)) == 15
    assert sum(1 for _ in set_partitions(6)) == 203


@pytest.mark.parametrize("n", range(2, 9))
def test_packing_complete_graphs(n):
    res = packing_number(SimpleGraph.complete(n))
    assert res.number == n // 2
    assert len(res.witness) == res.number
    for i, a in enumerate(res.witness):
        assert isinstance(a, Tree) and a.n == n
        for b in res.witness[i + 1 :]:
            assert intersection_size(a, b) == 0


def test_packing_special_graphs():
    tree = SimpleGraph.path(6)
    res = packing_number(tree)
    assert res.number == 1 and res.witness[0].edges == tree.edges
    assert packing_number(SimpleGraph.cycle(5)).number == 1
    res = packing_number(SimpleGraph(4, [(1, 2), (3, 4)]))
    assert res.number == 0 and res.witness == []


def test_packing_partition_certificate():
    res = packing_number(SimpleGraph.complete(5))
    # the partition is a genuine upper-bound certificate
    k = len(res.partition)
    assert k >= 2
    assert res.cross_edges // (k - 1) == res.number


@pytest.mark.parametrize("g", [SimpleGraph.complete(1), SimpleGraph.path(1)])
def test_packing_needs_two_vertices(g):
    # no partition of one vertex has two blocks to bound the packing by
    with pytest.raises(ValueError, match="n >= 2"):
        packing_number(g)


def test_packing_refuses_a_partition_that_misses_its_bound(monkeypatch):
    # the partition certifies the witness count; read as [1], [2..5] it
    # bounds K_5 by 4 / (2 - 1), not its 2 trees, and the check raises (not
    # an assert, so python -O keeps it)
    monkeypatch.setattr(treefam.gamma, "SimpleGraph",
                        lambda n, edges: SimpleGraph(n, [(u, u + 1) for u in range(2, n)]))
    with pytest.raises(RuntimeError, match=r"^partition bound 4 / \(2 - 1\) does not match the 2 witness"):
        packing_number(SimpleGraph.complete(5))


def test_packing_past_the_old_cap():
    # n = 10 was the largest host the partition scan took
    for n in range(11, 17):
        g = SimpleGraph.complete(n)
        res = packing_number(g)
        assert res.number == n // 2
        check_packing_certificate(g, res)


def test_packing_of_a_graph_once_refused():
    # undoing unions by hand on a path-compressed union-find left stale
    # pointers here, and the search raised "edge set contains a cycle"
    g = SimpleGraph(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4), (4, 5)])
    res = packing_number(g)
    assert res.number == 2
    assert res.partition == [(1,), (2,), (3,), (4,), (5,)] and res.cross_edges == 8
    check_packing_certificate(g, res)


def test_packing_of_random_graphs_is_certified():
    rng = random.Random(2026)
    for _ in range(1000):
        n = rng.randint(3, 7)
        density = rng.uniform(0.3, 0.95)
        g = SimpleGraph(n, [e for e in all_edges(n) if rng.random() < density])
        res = packing_number(g)
        check_packing_certificate(g, res)
        assert res.number == (partition_minimum(g) if g.is_connected() else 0)


# -- exact search ------------------------------------------------------------------


def test_mis_edgeless_gamma_takes_everything():
    dg = build_gamma(SimpleGraph.complete(3), 1)
    res = max_independent_set(dg)
    assert res.size == 3 and res.optimal
    assert res.family.is_independent()


def test_clique_equals_packing_on_k4():
    dg = build_gamma(SimpleGraph.complete(4), 1)
    res = max_clique(dg)
    assert res.size == 2 == packing_number(SimpleGraph.complete(4)).number
    assert res.family.is_clique()
    # members are genuinely edge-disjoint trees
    a, b = res.family.trees()
    assert intersection_size(a, b) == 0


def test_clique_at_t_nminus1_is_everything():
    dg = build_gamma(SimpleGraph.complete(4), 3)
    assert max_clique(dg).size == 16


def _connected_hosts(count, seed):
    """Seeded random connected hosts on 4..6 vertices."""
    rng = random.Random(seed)
    hosts = []
    while len(hosts) < count:
        n, density = rng.randint(4, 6), rng.uniform(0.4, 0.9)
        g = SimpleGraph(n, [e for e in all_edges(n) if rng.random() < density])
        if g.is_connected():
            hosts.append(pytest.param(g, id=f"random{len(hosts)}-n{n}-m{len(g.edges)}"))
    return hosts


@pytest.mark.parametrize("g", [pytest.param(SimpleGraph.complete(n), id=str(n))
                               for n in (4, 5, 6)] + _connected_hosts(12, 31))
def test_clique_number_matches_packing_number(g):
    """omega(Gamma_1(G)), a largest set of pairwise edge-disjoint spanning
    trees, and the matroid-partition packing number certify each other."""
    res = max_clique(build_gamma(g, 1))
    assert res.optimal
    assert res.size == packing_number(g).number


def test_mis_gamma1_k4():
    # 2n^(n-3) + (n-2) = 10 at n = 4
    res = max_independent_set(build_gamma(SimpleGraph.complete(4), 1))
    assert res.optimal and res.size == 10
    fam = res.family
    assert fam.is_independent()
    assert fam.min_pairwise_intersection() >= 1
    # optimal and maximal: no tree can be added
    universe = (1 << 16) - 1
    outside = universe & ~fam.member_mask
    rows = int_rows(fam.gamma.rows())
    while outside:
        low = outside & -outside
        v = low.bit_length() - 1
        outside ^= low
        assert rows[v] & fam.member_mask, "augmentable family"


def test_mis_respects_node_budget():
    dg = build_gamma(SimpleGraph.complete(5), 1)
    res = max_independent_set(dg, budget=1)
    assert not res.optimal
    assert res.family.is_independent()
    assert res.size >= 1


def test_search_deterministic():
    dg = build_gamma(SimpleGraph.complete(5), 2)
    a = max_independent_set(dg)
    b = max_independent_set(dg)
    assert a.size == b.size == 20
    assert a.family.member_mask == b.family.member_mask
    assert a.nodes == b.nodes


def test_gamma_on_non_complete_graph():
    # the 5 spanning trees of C_5 pairwise share 3 edges
    c5 = SimpleGraph.cycle(5)
    g1 = build_gamma(c5, 1)
    assert g1.vertex_count == 5 and g1.edge_count() == 0
    assert max_independent_set(g1).size == 5
    assert max_clique(g1).size == 1
    g4 = build_gamma(c5, 4)
    assert g4.edge_count() == 10  # complete on 5 vertices
    assert max_independent_set(g4).size == 1
    assert max_clique(g4).size == 5
    # family members really are spanning trees of c5
    for t in max_clique(g4).family.trees():
        assert set(t.edges) <= set(c5.edges)


# C_12 plus three chords: 528 spanning trees whose masks reach bit 65, so the
# mask matrix has two words per row
SPARSE12 = SimpleGraph(
    12, [(i, i + 1) for i in range(1, 12)] + [(1, 12), (1, 7), (4, 10), (3, 9)]
)


@pytest.mark.parametrize("g,t", [
    (SPARSE12, 8), (SPARSE12, 9), (SimpleGraph.complete(5), 1),
    (SimpleGraph.complete(5), 2), (SimpleGraph.complete(5), 3),
    (SimpleGraph(4, [(1, 2), (3, 4)]), 1),  # disconnected: no trees
    (SimpleGraph.complete(4), 2),  # 16 rows, fewer than one block
    (SimpleGraph.complete(6), 2),  # 1296 rows: many blocks, the last one short
])
def test_gamma_rows_match_pairwise_loop(g, t):
    dg = build_gamma(g, t)
    V = dg.vertex_count
    words = max(1, -(-max(dg.masks, default=0).bit_length() // 64))
    # rows per block in _rows: K_4 fits in one, K_6 ends on a short one
    step = _BLOCK_CELLS // max(1, V * words)
    if V == 16:
        assert V < step
    if V == 1296:
        assert V > 2 * step and V % step
    masks = dg.masks
    want = [0] * len(masks)
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if (masks[i] & masks[j]).bit_count() < t:
                want[i] |= 1 << j
                want[j] |= 1 << i
    assert int_rows(dg.rows()) == want
    if g is SPARSE12:
        assert dg.vertex_count == 528 and max(masks) >= 1 << 64


def complement_oracle(adj):
    """The complement of int adjacency rows, loops left out."""
    full = (1 << len(adj)) - 1
    return [(~r & full) & ~(1 << i) for i, r in enumerate(adj)]


@pytest.mark.parametrize("g", [
    SimpleGraph.complete(3), SimpleGraph.cycle(5), SimpleGraph.cycle(7),
    SimpleGraph.complete(5), SPARSE12,
    SimpleGraph(2, [(1, 2)]),  # one tree: V = 1
], ids=lambda g: repr(g))
def test_rows_both_polarities_match_pair_loop(g):
    import numpy as np

    masks = list(_spanning_tree_masks(g))
    V = len(masks)
    for t in range(1, g.n):
        share_lt = [sum(1 << j for j in range(V)
                        if j != i and (masks[i] & masks[j]).bit_count() < t)
                    for i in range(V)]
        share_ge = [sum(1 << j for j in range(V)
                        if j != i and (masks[i] & masks[j]).bit_count() >= t)
                    for i in range(V)]
        assert share_ge == complement_oracle(share_lt)
        for independent, want in ((False, share_lt), (True, share_ge)):
            mat = _rows(masks, t, independent)
            assert mat.dtype == np.uint8 and mat.shape == (V, (V + 7) // 8)
            assert int_rows(mat) == want
            bits = np.unpackbits(mat, axis=1, bitorder="little")
            assert not bits[:, V:].any() and not np.diagonal(bits).any()


# sha256 of save_adjacency output; the layout is the dump format itself
DUMP_DIGESTS = [
    (SimpleGraph.complete(5), 2,
     "25e5c8aaaf2048a4c818924cca144051fefee3fca27a4f391131ccbd477d68ed"),
    (SPARSE12, 8, "e7c6abba9c2011244eba8e92b8ab271f0ae49976941b27b8ba98ccc959c720ec"),
    (SimpleGraph.cycle(7), 2, "98961a4c85d63a54341fd23357481bf32887089e6b886513c5d1fa7dcda081c6"),
    (SimpleGraph.complete(6), 1,
     "e51ec8ae35356ce26d1d9ef8617f45a3b3ccc0c60dcea38ceb5b92fe6b57428c"),
]


@pytest.mark.parametrize("g,t,digest", DUMP_DIGESTS, ids=["K5-t2", "C12+3-t8", "C7-t2", "K6-t1"])
def test_dump_bytes_are_pinned(tmp_path, g, t, digest):
    path = tmp_path / "gamma.bin"
    build_gamma(g, t).save_adjacency(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# -- the search tree, pinned ----------------------------------------------------------

# (graph, t, search, budget) -> (size, optimal, nodes, member mask in hex) of
# the search without a symmetry group, recorded with the pure-Python set-up
# and colouring kept below as oracles.  Any change to the vertex order, the
# colouring bound or the branch order moves the node counts even where the
# family stays the same.  Non-complete hosts (C12+3) search this way through
# the public functions too.
K6_T3_MASK = (
    "2100000002100000000000000000000b28a08200aa8a08200000000000000000"
    "00000000000000000000000000000000000000000000000004000000c0400000"
    "0804000000800000000000000000006800800804000000a04000000804000000"
    "8000000000000000000068000208000000000000000000000000000000000200"
    "000008000000000000"
)
K6_T2_MASK = (
    "4200000004200000000000000000000000000000000000000000004200000004"
    "2000000042000000004000000100000000000000000042000000042000000042"
    "0000000040000001000000000000000000000000000000000000000000000000"
    "0000000061e78000061e78214261e78214261c70000061a68000061964000061"
    "d74000061d74104661d74104661c70000061a680000619640000"
)
K6_T1_MASK = (
    "80000100400000100400000100400000103f000001004e79e7f03d0000010040"
    "1000100400000100400000103f000001004e79e7f03d00000100400000100400"
    "020100400000103f000001004e79e7f03dfbefbff84fbefbff84fbefbff84fbe"
    "fbffbffbefbff84efbeffeff00000100400000100400000100400000103f0000"
    "0108400003f004082081ec6082081ec6082081ec6fbefbffbfefbec1effefbef"
    "feff"
)
W8_T2_MASK = (
    "1ffffffc73fc1ff9f30b80fc0001fd87ba8500191806021fa0000004003fd6bc"
    "cf453af9afba0b2df04c2dc0b4c0103f65ffa02ee000550200001fffc04126c6"
    "00016381020c105800435a0a4924071c000020000000400feace1ff10003e846"
    "0080068120280000000"
)
# the wheel on 8 vertices (hub 1, rim 2..8): 841 spanning trees, 14 words a row
WHEEL8 = SimpleGraph(8, [(1, v) for v in range(2, 9)] + [(v, v + 1) for v in range(2, 8)]
                     + [(2, 8)])
PINNED_SEARCHES = [
    ("K5", 1, "max_clique", None, 2, True, 48, "400000000000000000000000000080"),
    ("K5", 1, "max_independent_set", None, 53, True, 44729,
     "1000022020011000408bdef7ffdef7ff"),
    ("K5", 2, "max_clique", None, 5, True, 780, "10000000040000002000000000000180"),
    ("K5", 2, "max_independent_set", None, 20, True, 294, "318c6318c6318"),
    ("K5", 3, "max_clique", None, 22, True, 509815, "8810411050004082410880124100448"),
    ("K5", 3, "max_independent_set", None, 6, True, 24, "6318"),
    ("K5", 4, "max_clique", None, 125, True, 0, "1fffffffffffffffffffffffffffffff"),
    ("K5", 4, "max_independent_set", None, 1, True, 0, "1"),
    ("K6", 3, "max_independent_set", None, 48, True, 425, K6_T3_MASK),
    ("K6", 4, "max_independent_set", None, 9, True, 230,
     "104004000000000000104004000104004000"),
    ("K6", 2, "max_independent_set", 1000, 144, False, 1001, K6_T2_MASK),
    ("C12+3", 8, "max_clique", None, 3, True, 7959, (
        "2000000000000000000000000000000000000000000000000000000000000000"
        "000000000000000000000400000000000000000000000000000000000000100"
    )),
    ("C12+3", 8, "max_independent_set", None, 192, True, 1380, (
        "1fc0001fc000000003ffffff00000000000fe0000fe007f00000fffff0000000"
        "0fe007f003ffc000000000ffffffc000000001ffffff80000007fffffffc0000"
        "000"
    )),
    # budgeted like the random sparse hosts of the benchmark; recorded with
    # the lowest-bit colouring kept below as an oracle
    ("W8", 2, "max_independent_set", 200, 307, False, 201, W8_T2_MASK),
]
PIN_GRAPHS = {"K5": SimpleGraph.complete(5), "K6": SimpleGraph.complete(6), "C12+3": SPARSE12,
              "W8": WHEEL8}
SEARCHES = {"max_clique": max_clique, "max_independent_set": max_independent_set}


def search_rows(dg, search):
    return _rows(dg.masks, dg.t, search == "max_independent_set")


@pytest.mark.parametrize("graph,t,search,budget,size,optimal,nodes,mask", PINNED_SEARCHES)
def test_search_tree_is_pinned(graph, t, search, budget, size, optimal, nodes, mask):
    dg = build_gamma(PIN_GRAPHS[graph], t)
    got, got_optimal, got_nodes = _max_clique_bitset(
        search_rows(dg, search), DEFAULT_NODE_BUDGET if budget is None else budget
    )
    assert (got.bit_count(), got_optimal, got_nodes) == (size, optimal, nodes)
    assert got == int(mask, 16)
    if not PIN_GRAPHS[graph].is_complete():
        # no group for this host: the public search is node for node the same
        res = SEARCHES[search](dg) if budget is None else SEARCHES[search](dg, budget=budget)
        assert (res.size, res.optimal, res.nodes) == (size, optimal, nodes)
        assert res.family.member_mask == got


def test_a_child_whose_colouring_lists_nothing_is_closed(monkeypatch):
    """The search trusts its colouring bound: a child whose colouring lists
    nothing is a node, but gets no frame and is never taken as the best.

    A stand-in colouring lists every candidate at the bound |P| while kmin
    >= 0 and nothing below.  The greedy seed is a triangle through the hub,
    so in the K_5 beside it a frame of three vertices has two candidates:
    the first child is closed (kmin = -1), and the second, left with no
    candidate, is a leaf.  The search returns that leaf's 4-clique, not the
    closed child's {0, 1, 2, 3}."""
    import treefam.gamma as gamma

    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    hub = [(5, v) for v in range(6, 14)] + [(v, v + 1) for v in range(6, 14, 2)]
    adj = [0] * 14
    for u, v in k5 + hub:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    assert _max_clique_bitset(packed(adj), DEFAULT_NODE_BUDGET)[0] == 0b11111
    assert greedy_clique_oracle(adj) & 0b11111 == 0  # the seed misses the K_5

    def colouring(P, nadj, kmin, bit, P0=0, rec0=()):
        listed = [v for v in range(P.bit_length()) if P >> v & 1] if kmin >= 0 else []
        return listed, [P.bit_count()] * len(listed), []

    monkeypatch.setattr(gamma, "_color_sort", colouring)
    assert _max_clique_bitset(packed(adj), DEFAULT_NODE_BUDGET) == (0b10111, True, 23)


# The public searches on complete hosts, which skip S_n-orbits of trees.
# Gamma_2(K_6) searched to the end (144, optimal, 32,639 nodes) is pinned in
# test_extremal.test_brute_force_62_is_certified.
PINNED_SYMMETRIC_SEARCHES = [
    ("K5", 1, "max_clique", None, 2, True, 2, "400000000000000000000000000080"),
    ("K5", 1, "max_independent_set", None, 53, True, 8798,
     "1000022020011000408bdef7ffdef7ff"),
    ("K5", 2, "max_clique", None, 5, True, 17, "10000000040000002000000000000180"),
    ("K5", 2, "max_independent_set", None, 20, True, 22, "318c6318c6318"),
    ("K5", 3, "max_clique", None, 22, True, 57439, "8810411050004082410880124100448"),
    ("K5", 3, "max_independent_set", None, 6, True, 2, "6318"),
    ("K5", 4, "max_clique", None, 125, True, 0, "1fffffffffffffffffffffffffffffff"),
    ("K5", 4, "max_independent_set", None, 1, True, 0, "1"),
    ("K6", 3, "max_independent_set", None, 48, True, 8, K6_T3_MASK),
    ("K6", 4, "max_independent_set", None, 9, True, 5,
     "104004000000000000104004000104004000"),
    ("K6", 2, "max_independent_set", 1000, 144, False, 1001, K6_T2_MASK),
    # the benchmark's slowest alpha-search job, recorded before colourings
    # started from their parent's classes
    ("K6", 2, "max_independent_set", 4000, 144, False, 4001, K6_T2_MASK),
    # recorded with the lowest-bit colouring kept below as an oracle
    ("K6", 1, "max_independent_set", 1000, 436, False, 1001, K6_T1_MASK),
]


@pytest.mark.parametrize("graph,t,search,budget,size,optimal,nodes,mask",
                         PINNED_SYMMETRIC_SEARCHES)
def test_symmetric_search_tree_is_pinned(graph, t, search, budget, size, optimal, nodes,
                                         mask):
    dg = build_gamma(PIN_GRAPHS[graph], t)
    find = SEARCHES[search]
    res = find(dg) if budget is None else find(dg, budget=budget)
    assert (res.size, res.optimal, res.nodes) == (size, optimal, nodes)
    assert res.family.member_mask == int(mask, 16)


def test_gamma2_k7_search_is_pinned():
    # 16,807 trees: at budget 50 the search keeps the greedy seed, the
    # matching family of 1,372 trees through two disjoint edges
    res = max_independent_set(build_gamma(SimpleGraph.complete(7), 2), budget=50)
    assert (res.size, res.optimal, res.nodes) == (1372, False, 51)
    digest = hashlib.sha256(format(res.family.member_mask, "x").encode()).hexdigest()
    assert digest == "9466caba507295525050aca2cddae929be2606dae84d552dd344b4f04a60d9ae"


# -- the S_n symmetry of Gamma_t(K_n) ------------------------------------------------


def vertex_perm(n, g):
    """Where g sends each tree of K_n, as tree indices."""
    index = {m: i for i, m in enumerate(tree_masks(n))}
    out = []
    for m in tree_masks(n):
        img = 0
        for b in range(len(g)):
            if m >> b & 1:
                img |= 1 << g[b]
        out.append(index[img])  # KeyError: g sent a tree to a non-tree
    return out


def adjacency_matrix(dg):
    import numpy as np

    return np.unpackbits(dg.rows(), axis=1, count=dg.vertex_count, bitorder="little").astype(bool)


def _edge_perms_by_edge_bit(n):
    """The per-permutation construction: the edge_bit of each edge's image."""
    edges = all_edges(n)
    return tuple(
        tuple(edge_bit(n, p[u - 1], p[v - 1]) for u, v in edges)
        for p in itertools.permutations(range(1, n + 1))
    )


def edge_perms(n):
    """The columns of _edge_image_bits(n) as tuples of edge bits."""
    import numpy as np

    # a single-bit mask 1 << b less one has b bits set
    return [tuple(g) for g in np.bitwise_count(_edge_image_bits(n) - np.uint64(1)).T.tolist()]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_edge_tables_match_per_permutation_construction(n):
    import numpy as np

    oracle = _edge_perms_by_edge_bit(n)
    bits = _edge_image_bits(n)
    assert bits.dtype == np.uint64 and bits.flags.c_contiguous
    assert bits.shape == (n * (n - 1) // 2, math.factorial(n))
    assert (np.bitwise_count(bits) == 1).all()  # one image bit per edge and relabelling
    assert edge_perms(n) == list(oracle)
    assert np.array_equal(bits, np.uint64(1) << np.array(oracle, dtype=np.uint64).T)
    with pytest.raises(ValueError):
        bits[0, 0] = 0


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_edge_perms_are_automorphisms_of_gamma(n):
    import numpy as np

    perms = edge_perms(n)
    E = n * (n - 1) // 2
    assert len(perms) == len(set(perms)) == math.factorial(n)
    assert perms[0] == tuple(range(E))
    # each g is a permutation of the edge bits that keeps "shares a vertex",
    # i.e. an automorphism of the line graph of K_n (all of S_n for n >= 5)
    edges = [set(e) for e in all_edges(n)]
    touch = {(a, b) for a in range(E) for b in range(E) if edges[a] & edges[b]}
    for g in perms:
        assert sorted(g) == list(range(E))
        assert {(g[a], g[b]) for a, b in touch} == touch
    if n == 6:
        checked = random.Random(6).sample(perms, 12)
    else:
        checked = perms
    mats = {t: adjacency_matrix(build_gamma(SimpleGraph.complete(n), t))
            for t in range(1, n)}
    for g in checked:
        pi = np.array(vertex_perm(n, g))
        assert sorted(pi) == list(range(cayley_count(n)))
        for t, A in mats.items():
            # bit j of row i <=> bit g(j) of row g(i)
            assert np.array_equal(A[np.ix_(pi, pi)], A), (n, t)


def orbit_and_stabiliser_oracle(group, vmask, index):
    """The group-element loop: the orbit of tree mask vmask under group (each
    element a tuple of edge-bit images) as a vertex bitmask through index
    (tree mask -> vertex), and the elements fixing it ([] once only the
    identity does)."""
    bits = [b for b in range(vmask.bit_length()) if vmask >> b & 1]
    orbit, stab = 0, []
    for g in group:
        img = 0
        for b in bits:
            img |= 1 << g[b]
        orbit |= 1 << index[img]
        if img == vmask:
            stab.append(g)
    return orbit, stab if len(stab) > 1 else []


def check_orbits(n, rmasks, vertices, H):
    """_orbit_and_stabiliser under the columns H agrees with the loop over
    the same relabellings, for each of `vertices` (indices into rmasks)."""
    import numpy as np

    images = _edge_image_bits(n)
    perms = _edge_perms_by_edge_bit(n)
    keys = np.array(rmasks, np.uint64)
    by_mask = np.argsort(keys)
    index = {m: v for v, m in enumerate(rmasks)}
    group = [perms[c] for c in H.tolist()]
    trivial = 0
    for v in vertices:
        orbit, stab = _orbit_and_stabiliser(images, H, rmasks[v], keys[by_mask], by_mask)
        want_orbit, want_stab = orbit_and_stabiliser_oracle(group, rmasks[v], index)
        assert orbit == want_orbit and orbit >> v & 1, (n, v)
        assert ([] if stab is None else [perms[c] for c in stab.tolist()]) == want_stab
        trivial += stab is None
    return trivial


def search_masks(n, t):
    """The tree masks of K_n in the vertex order of the independent-set search."""
    dg = build_gamma(SimpleGraph.complete(n), t)
    return [dg.masks[o] for o in _degeneracy_order(_rows(dg.masks, t, True))[::-1]]


def stabiliser(n, mask):
    """The relabellings (columns of _edge_image_bits(n)) that fix the edge set `mask`."""
    import numpy as np

    bits = [b for b in range(mask.bit_length()) if mask >> b & 1]
    perms = _edge_perms_by_edge_bit(n)
    return np.array([c for c, g in enumerate(perms) if sum(1 << g[b] for b in bits) == mask])


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_orbits_match_the_group_loop_on_k5(t):
    import numpy as np

    rmasks = search_masks(5, t)
    everyone = range(len(rmasks))
    star = stabiliser(5, star_masks(5)[0])
    path = stabiliser(5, edges_to_mask(5, [(1, 2), (2, 3), (3, 4), (4, 5)]))
    assert (len(star), len(path)) == (24, 2)  # S_4 on the leaves; the reversal
    assert check_orbits(5, rmasks, everyone, np.arange(math.factorial(5))) < len(rmasks)
    assert 0 < check_orbits(5, rmasks, everyone, star) < len(rmasks)
    assert 0 < check_orbits(5, rmasks, everyone, path) < len(rmasks)


def test_orbits_match_the_group_loop_on_a_k6_sample():
    import numpy as np

    rmasks = search_masks(6, 2)
    sample = random.Random(21).sample(range(len(rmasks)), 40)
    check_orbits(6, rmasks, sample, np.arange(math.factorial(6)))
    check_orbits(6, rmasks, sample, stabiliser(6, star_masks(6)[2]))
    check_orbits(6, rmasks, sample,
                 stabiliser(6, edges_to_mask(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])))


SYMMETRY_CASES = [
    (n, t, search) for n in (3, 4, 5) for t in range(1, n) for search in SEARCHES
] + [(6, 3, "max_independent_set"), (6, 4, "max_independent_set")]


@pytest.mark.parametrize("n,t,search", SYMMETRY_CASES)
def test_symmetric_search_agrees_with_no_group_path(n, t, search):
    dg = build_gamma(SimpleGraph.complete(n), t)
    pinned = [row for row in PINNED_SEARCHES if row[:4] == (f"K{n}", t, search, None)]
    if pinned:  # test_search_tree_is_pinned checks these on the no-group path
        want = pinned[0][4:6]
    else:
        mask, optimal, _ = _max_clique_bitset(search_rows(dg, search), DEFAULT_NODE_BUDGET)
        want = (mask.bit_count(), optimal)
    res = SEARCHES[search](dg)
    assert (res.size, res.optimal) == want
    assert res.optimal
    if search == "max_clique":
        assert res.family.is_clique()
    else:
        assert res.family.is_independent()
        assert res.size == 1 or res.family.min_pairwise_intersection() >= t


# -- oracles for the search set-up ------------------------------------------------------


def degeneracy_order_oracle(adj):
    """Minimum remaining degree first, ties to the lowest index, bit by bit."""
    V = len(adj)
    remaining = (1 << V) - 1
    deg = [r.bit_count() for r in adj]
    order = []
    for _ in range(V):
        best = -1
        bd = V + 1
        m = remaining
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            if deg[v] < bd:
                bd = deg[v]
                best = v
        order.append(best)
        remaining &= ~(1 << best)
        nb = adj[best] & remaining
        while nb:
            low = nb & -nb
            w = low.bit_length() - 1
            nb ^= low
            deg[w] -= 1
    return order


def relabel_oracle(adj, order):
    """Row pos[v] of the result has bit pos[w] for every neighbour w of v."""
    V = len(adj)
    pos = [0] * V
    for newi, oldv in enumerate(order):
        pos[oldv] = newi
    radj = [0] * V
    for oldv in range(V):
        m = adj[oldv]
        rel = 0
        while m:
            low = m & -m
            rel |= 1 << pos[low.bit_length() - 1]
            m ^= low
        radj[pos[oldv]] = rel
    return radj


def color_sort_oracle(P, adj):
    """Greedy colouring of P: every class in full, colours ascending."""
    order, colors = [], []
    color = 0
    work = P
    while work:
        color += 1
        q = work
        cmask = 0
        while q:
            low = q & -q
            v = low.bit_length() - 1
            order.append(v)
            colors.append(color)
            cmask |= low
            q &= ~low
            q &= ~adj[v]
        work &= ~cmask
    return order, colors


def random_rows(seed, V, p):
    rng = random.Random(seed)
    adj = [0] * V
    for a in range(V):
        for b in range(a + 1, V):
            if rng.random() < p:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return adj


def clique_among_sparse(seed, V, k, p):
    """A k-clique joined to every other vertex, the other V - k sparse at
    density p, its vertices at random labels among them."""
    rng = random.Random(seed)
    labels = list(range(V))
    rng.shuffle(labels)
    core = sum(1 << v for v in labels[:k])
    adj = [0] * V
    for i, a in enumerate(labels):
        adj[a] = ((1 << V) - 1) ^ (1 << a) if i < k else core
    for i, a in enumerate(labels[k:]):
        for b in labels[k + i + 1 :]:
            if rng.random() < p:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return adj


# the inputs where the set-up takes tied vertices in one step: a clique tail
# of the degeneracy order, universal candidates of the greedy seed
BATCH_CASES = {
    "complete-70": [((1 << 70) - 1) ^ (1 << v) for v in range(70)],
    "dense-200": random_rows(5, 200, 0.97),
    "dense-300": random_rows(6, 300, 0.99),
    "clique40-sparse": clique_among_sparse(7, 100, 40, 0.1),
}
SETUP_CASES = [
    [],
    [0],
    [0] * 100,  # edgeless with V > 64
    int_rows(_rows(build_gamma(SimpleGraph.complete(5), 1).masks, 1, True)),
    random_rows(1, 7, 0.5),
    random_rows(2, 70, 0.1),
    random_rows(3, 130, 0.5),
    random_rows(4, 300, 0.9),  # more rows than one relabel chunk
    *BATCH_CASES.values(),
]
SETUP_IDS = [f"V={len(adj)}" for adj in SETUP_CASES[:-len(BATCH_CASES)]] + list(BATCH_CASES)


@pytest.mark.parametrize("adj", SETUP_CASES, ids=SETUP_IDS)
def test_search_setup_matches_oracles(adj):
    import numpy as np

    mat = packed(adj)
    order = _degeneracy_order(mat)
    assert order == degeneracy_order_oracle(adj)
    # also under an order that is not the degeneracy order
    for o in (order, order[::-1]):
        rmat = _relabel(mat, o)
        # the oracle sets no bit at or past V, so equal ints mean zero padding
        assert int_rows(rmat) == relabel_oracle(adj, o)
        assert rmat.dtype == np.dtype("<u8")
        assert rmat.shape == (len(adj), max(1, -(-len(adj) // 64)))


def greedy_clique_oracle(adj, universal=None):
    """The greedy seed bit by bit: start at the highest index among the
    maximum degrees, then each step take the first best score |adj[v] & cand|
    scanning down from the top bit.  A list `universal` gets one entry a
    step: whether the vertex taken was adjacent to the rest of cand."""
    V = len(adj)
    if V == 0:
        return 0
    start = max(range(V), key=lambda v: (adj[v].bit_count(), v))
    clique = 1 << start
    cand = adj[start]
    while cand:
        best_v, best_sc = -1, -1
        m = cand
        while m:
            v = m.bit_length() - 1
            m ^= 1 << v
            sc = (adj[v] & cand).bit_count()
            if sc > best_sc:
                best_sc, best_v = sc, v
        if universal is not None:
            universal.append(best_sc == cand.bit_count() - 1)
        clique |= 1 << best_v
        cand &= adj[best_v]
    return clique


def check_greedy_clique(adj):
    """The numpy seed on the rows as given and relabelled as the search does
    (the set-up itself is checked against its oracles above)."""
    mat = packed(adj)
    assert _greedy_clique(mat) == greedy_clique_oracle(adj)
    rmat = _relabel(mat, _degeneracy_order(mat)[::-1])
    assert _greedy_clique(rmat) == greedy_clique_oracle(int_rows(rmat))


@pytest.mark.parametrize("adj", SETUP_CASES, ids=SETUP_IDS)
def test_greedy_clique_matches_oracle(adj):
    check_greedy_clique(adj)


def clique_tail_oracle(adj, order):
    """The length of the longest suffix of `order` that is a clique."""
    tail = 0
    for v in reversed(order):
        if any(not adj[v] >> w & 1 for w in order[len(order) - tail :]):
            break
        tail += 1
    return tail


@pytest.mark.parametrize("adj", SETUP_CASES, ids=SETUP_IDS)
def test_search_setup_takes_tied_vertices_in_one_step(adj, monkeypatch):
    """The work the set-up leaves out, counted in rows unpacked.  The
    degeneracy order unpacks one row per vertex before its clique tail and
    none after.  The seed unpacks one row per step that takes a single
    vertex, plus the rows of the candidates that leave in such a step, and
    none in a step that takes every universal candidate."""
    import numpy as np

    V = len(adj)
    mat = packed(adj)
    order = _degeneracy_order(mat)
    rmat = _relabel(mat, order[::-1])
    radj = int_rows(rmat)
    universal = []
    greedy_clique_oracle(radj, universal)
    tail = clique_tail_oracle(adj, order)
    if any(adj is rows for rows in BATCH_CASES.values()):
        assert tail > 1 and sum(universal) > 1  # both batches fire here

    unpacked = []  # rows per np.unpackbits call, None for a single row
    unpackbits = np.unpackbits

    def counting(a, *args, **kw):
        unpacked.append(len(a) if a.ndim == 2 else None)
        return unpackbits(a, *args, **kw)

    monkeypatch.setattr(np, "unpackbits", counting)
    _degeneracy_order(mat)
    assert unpacked == [None] * (V - tail)
    unpacked.clear()
    _greedy_clique(rmat)
    # the first cand, the start's row, is unpacked once; every candidate
    # leaves cand once, in a universal batch or as an unpacked row
    singles = unpacked.count(None)
    assert singles == (1 + universal.count(False) if V else 0)
    first_cand = max((r.bit_count() for r in radj), default=0)
    assert sum(k for k in unpacked if k) == first_cand - sum(universal)


@pytest.mark.parametrize("graph,t", [("K5", 1), ("K5", 2), ("K5", 3), ("K5", 4), ("K6", 2),
                                     ("K6", 3), ("K6", 4), ("W8", 2), ("C12+3", 8)])
def test_greedy_clique_matches_oracle_on_gamma(graph, t):
    dg = build_gamma(PIN_GRAPHS[graph], t)
    check_greedy_clique(int_rows(dg.rows()))
    check_greedy_clique(int_rows(search_rows(dg, "max_independent_set")))


def lowest_bit_color_sort(P, nadj, kmin):
    """Reference colouring on unreversed labels: each class takes vertices
    from the lowest bit up (q & -q), with nadj[v] = ~(adj[v] | 1 << v)."""
    order, colors = [], []
    color = 0
    work = P
    while work:
        color += 1
        q = work
        if color > kmin:
            while q:
                low = q & -q
                v = low.bit_length() - 1
                order.append(v)
                colors.append(color)
                work ^= low
                q &= nadj[v]
        else:
            while q:
                low = q & -q
                work ^= low
                q &= nadj[low.bit_length() - 1]
    return order, colors


def reverse_bits(x, V):
    return int(f"{x:0{V}b}"[::-1], 2)


def record_oracle(P, adj, kmin):
    """What the first 4, 8, ... classes of the colouring of P leave of it, on
    unreversed labels: one entry per whole block of _REC_STEP classes at or
    below kmin, up to the first block that starts with nothing left."""
    order, colors = color_sort_oracle(P, adj)
    left = [P]
    for c in range(1, max(colors, default=0) + 1):
        left.append(left[-1] & ~sum(1 << v for v, k in zip(order, colors) if k == c))
    rec = []
    for k in range(kmin // _REC_STEP):
        if not left[min(k * _REC_STEP, len(left) - 1)]:
            break
        rec.append(left[min((k + 1) * _REC_STEP, len(left) - 1)])
    return rec


def cut_block_oracle(P, adj, kmin):
    """Where a from-scratch colouring of P stops at kmin, from the oracle's
    class counts: (whole blocks recorded, vertices coloured), or None when
    it lists a class.

    The slack after k blocks is _REC_STEP * k + |left| - kmin.  It is checked
    at block 0, at the first block past halfway, then at the first block it
    could reach at the drop per block since the last check, never at the
    last block but one, and once more where the block loop ends; the cut is
    the first check that finds it <= 0.  Past the block loop with slack
    left, the tail is coloured."""
    order, colors = color_sort_oracle(P, adj)
    if max(colors, default=0) > kmin:
        return None
    left = [P.bit_count()]  # left[c]: vertices after the first c classes
    for c in range(1, max(colors, default=0) + 1):
        left.append(left[-1] - colors.count(c))
    top = kmin // _REC_STEP

    def left_after(k):  # vertices left after k whole blocks
        return left[min(_REC_STEP * k, len(left) - 1)]

    def slack(k):
        return _REC_STEP * k + left_after(k) - kmin

    if slack(0) <= 0:
        return 0, 0
    seen, due, k = 0, top // 2 + 1, 0
    while True:
        if due >= top - 1:
            due = top
        while k < due and left_after(k):
            k += 1
        if not left_after(k) or k >= top or slack(k) <= 0:
            return k, left[0] - (left_after(k) if slack(k) <= 0 else 0)
        fell = slack(seen) - slack(k)
        due = k - (-slack(k) * (k - seen) // fell) if fell > 0 else top
        seen = k


def color_sort_setup(adj):
    """(nadj, rnadj, bit) for the search's colouring of adj relabelled in
    reversed order, checked against the bit reversal v -> V-1-v."""
    V = len(adj)
    nadj = [~(r | 1 << v) for v, r in enumerate(adj)]
    radj = relabel_oracle(adj, list(range(V))[::-1])
    assert radj == [reverse_bits(r, V) for r in adj[::-1]]
    bit = [1 << v for v in range(V)]
    full = (1 << V) - 1
    return nadj, [full ^ (r | b) for r, b in zip(radj, bit)], bit


def check_record(rec, order, want):
    """The whole record when the colouring lists a class; when it lists
    none the colouring stopped early, and its record is a prefix of the
    whole one, each entry exact."""
    assert rec == want if order else rec == want[:len(rec)]


@pytest.mark.parametrize("adj", SETUP_CASES[3:], ids=SETUP_IDS[3:])
def test_color_sort_lists_the_classes_above_kmin(adj):
    # the search colours rows relabelled in reversed order from the top bit
    # down; under the bit reversal v -> V-1-v that is exactly the lowest-bit
    # colouring of the original rows
    V = len(adj)
    nadj, rnadj, bit = color_sort_setup(adj)
    rng = random.Random(V)
    for _ in range(20):
        P = rng.getrandbits(V)
        want_order, want_colors = color_sort_oracle(P, adj)
        for kmin in (-1, 0, 1, 3, 4, 9, max(want_colors, default=0)):
            keep = [i for i, c in enumerate(want_colors) if c > kmin]
            want = ([want_order[i] for i in keep], [want_colors[i] for i in keep])
            assert lowest_bit_color_sort(P, nadj, kmin) == want
            order, colors, rec = _color_sort(reverse_bits(P, V), rnadj, kmin, bit)
            assert ([V - 1 - v for v in order], colors) == want
            check_record([reverse_bits(r, V) for r in rec], order, record_oracle(P, adj, kmin))


@pytest.mark.parametrize("adj", SETUP_CASES[3:], ids=SETUP_IDS[3:])
def test_color_sort_stops_at_the_block_the_class_counts_give(adj):
    # a colouring that can list nothing stops once the slack over kmin is
    # gone, at every kmin from the number of colours up, and colours no
    # vertex past that block: each vertex coloured reads its row once
    class Counted(list):
        def __getitem__(self, v):
            self.reads += 1
            return list.__getitem__(self, v)

    V = len(adj)
    _, rnadj, bit = color_sort_setup(adj)
    rows = Counted(rnadj)
    rng = random.Random(2000 + V)
    fired = set()
    for _ in range(20):
        P = rng.getrandbits(V)
        ncolors = max(color_sort_oracle(P, adj)[1], default=0)
        for kmin in sorted({-1, 0, 4, ncolors - 1, ncolors, ncolors + 3, 4 * ncolors,
                            P.bit_count(), P.bit_count() + 1}):
            rows.reads = 0
            order, _, rec = _color_sort(reverse_bits(P, V), rows, kmin, bit)
            cut = cut_block_oracle(P, adj, kmin)
            assert (order == []) == (cut is not None)
            if cut is None:
                assert rows.reads == P.bit_count()
                continue
            blocks, coloured = cut
            assert [reverse_bits(r, V) for r in rec] == record_oracle(P, adj, kmin)[:blocks]
            assert rows.reads == coloured
            fired.add("start" if not coloured else "tail" if coloured == P.bit_count() else
                      "mid" if blocks < kmin // _REC_STEP else "end")
    # on a complete graph every class is one vertex, so the slack never
    # falls and only the start cuts; under 2 * _REC_STEP vertices there is
    # at most one whole block; elsewhere the loop's end cuts, and on the
    # Gamma_1(K_5) rows and the dense cases a check inside the loop does
    if all(r.bit_count() == V - 1 for r in adj):
        assert fired == {"start"}
    elif V >= 2 * _REC_STEP:
        assert "end" in fired
    if adj is SETUP_CASES[3] or adj is BATCH_CASES["dense-200"] or adj is BATCH_CASES["dense-300"]:
        assert "mid" in fired


def test_color_sort_at_most_kmin_candidates_scans_nothing():
    # |P| <= kmin leaves no class above kmin: no row is read, no record kept
    class Unread(list):
        def __getitem__(self, i):
            raise AssertionError("a row was read")

    P = 0b1011011
    for kmin in (P.bit_count(), P.bit_count() + 5):
        for P0, rec0 in ((0, ()), (P | 1 << 9, [P, P, P])):
            assert _color_sort(P, Unread(), kmin, Unread(), P0, rec0) == ([], [], [])


@pytest.mark.parametrize("adj", SETUP_CASES[3:], ids=SETUP_IDS[3:])
def test_color_sort_from_a_parent_record_is_the_colouring_from_scratch(adj):
    # P inside P0 coloured from P0's whole record gives the from-scratch
    # order, colours and record (each record entry is exact once ANDed with
    # P); a search reads only the record of a colouring that lists a class,
    # which is whole
    V = len(adj)
    nadj, rnadj, bit = color_sort_setup(adj)
    rng = random.Random(1000 + V)
    shared = 0
    for _ in range(12):
        P0 = rng.getrandbits(V)
        order0, colors0 = color_sort_oracle(P0, adj)
        ncolors = max(colors0, default=0)
        classes = [0] * (ncolors + 1)
        for v, c in zip(order0, colors0):
            classes[c] |= 1 << V - 1 - v  # P0's classes on the search's labels
        rP0 = reverse_bits(P0, V)
        for kmin in (-1, 0, 1, 3, 4, 9, ncolors):
            first = classes[1] & -classes[1] if ncolors else 0
            cut = rng.randint(1, max(1, ncolors))
            cases = [
                0,  # gone empty
                first | rng.getrandbits(V) & rP0,  # gone meets class 1
                sum(classes[kmin + 1 :]) & rng.getrandbits(V),  # only in listed classes
                sum(classes[cut:]) & rng.getrandbits(V),  # only past a random class
                rng.getrandbits(V) & rP0,
            ]
            for kmin0 in (kmin, ncolors):
                rec0 = [reverse_bits(r, V) for r in record_oracle(P0, adj, kmin0)]
                for gone in cases:
                    P = rP0 & ~gone
                    want = _color_sort(P, rnadj, kmin, bit)
                    order, colors, rec = _color_sort(P, rnadj, kmin, bit, rP0, rec0)
                    assert (order, colors) == want[:2]
                    whole = record_oracle(reverse_bits(P, V), adj, kmin)
                    check_record([reverse_bits(r & P, V) for r in rec], order, whole)
                    oracle = lowest_bit_color_sort(reverse_bits(P, V), nadj, kmin)
                    assert ([V - 1 - v for v in order], colors) == oracle
                    shared += bool(rec0) and bool(rec) and rec[0] is rec0[0]
    assert shared  # some colourings did start past P0's first block

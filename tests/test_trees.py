"""Tree/forest representations, the Prufer bijection, enumeration, predicates."""

import inspect
import random
from fractions import Fraction
from itertools import product

import pytest
from forest_oracle import forests

import treefam
import treefam.cli
from treefam import trees
from treefam.extremal import FamilySpec, blocked_Dt, brute_force_max_t_intersecting
from treefam.gamma import SimpleGraph, build_gamma, enumerate_spanning_trees
from treefam.trees import (
    CapExceeded,
    Forest,
    Tree,
    _BLOCK_CELLS,
    _DSU,
    _as_ints,
    all_edges,
    cayley_count,
    components,
    edge_bit,
    edge_hits,
    edges_to_mask,
    enumerate_trees,
    index_to_code,
    intersection_size,
    is_d_star_like,
    is_star,
    mask_to_edges,
    pair_blocks,
    parse_edge_list,
    prufer_decode,
    prufer_encode,
    sample_uniform_tree,
    sample_uniform_trees,
    tree_from_index,
    tree_index,
    tree_mask_array,
    tree_masks,
)


# -- canonical forms ---------------------------------------------------------


def test_forest_canonicalizes_edge_order():
    f = Forest(5, [(3, 1), (2, 4)])
    assert f.edges == ((1, 3), (2, 4))
    assert f == Forest(5, [(2, 4), (1, 3)])
    assert hash(f) == hash(Forest(5, [(2, 4), (1, 3)]))


def test_forest_rejects_cycles_loops_duplicates():
    with pytest.raises(ValueError):
        Forest(4, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(ValueError):
        Forest(4, [(2, 2)])
    with pytest.raises(ValueError):
        Forest(4, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        Forest(4, [(1, 5)])


@pytest.mark.parametrize("bad", [
    [(1.5, 2)], [(1.0, 2)], [("1", "2")], [(1, 2, 3)], [1, 2], 5, [[True, 2]],
])
def test_edges_must_be_integer_pairs(bad):
    # int() used to truncate 1.5 to 1 and accept "1"
    with pytest.raises(ValueError, match="integer pairs"):
        Forest(4, bad)


def test_forest_is_immutable():
    f = Forest(4, [(1, 2)])
    with pytest.raises(AttributeError):
        f.n = 5


@pytest.mark.parametrize("g", [
    SimpleGraph(4, [(1, 2), (2, 3), (1, 3)]),
    Forest(4, [(1, 2), (3, 4)]),
    Tree(4, [(1, 2), (2, 3), (3, 4)]),
], ids=["SimpleGraph", "Forest", "Tree"])
@pytest.mark.parametrize("how", ["pickle", "deepcopy"])
def test_edge_sets_survive_pickle_and_deepcopy(g, how):
    import copy
    import pickle

    other = pickle.loads(pickle.dumps(g)) if how == "pickle" else copy.deepcopy(g)
    assert type(other) is type(g) and other is not g
    assert (other.n, other.edges) == (g.n, g.edges)
    assert not isinstance(g, Forest) or other == g
    with pytest.raises(AttributeError, match="is immutable"):
        other.n = 5


def test_tree_has_no_instance_dict():
    assert not hasattr(Tree(3, [(1, 2), (2, 3)]), "__dict__")
    assert not hasattr(Forest(3, [(1, 2)]), "__dict__")


def test_tree_requires_spanning():
    Tree(4, [(1, 2), (2, 3), (3, 4)])
    with pytest.raises(ValueError):
        Tree(4, [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        Tree(1, [])


def test_components_examples():
    assert Forest(5).components() == []
    assert Forest(5).isolated_vertices() == (1, 2, 3, 4, 5)

    f = Forest(5, [(1, 2), (3, 4)])
    assert f.component_sizes() == (2, 2)

    f = Forest(6, [(1, 2), (2, 3), (4, 5)])
    assert components(f) == [(1, 2, 3), (4, 5)]
    assert f.component_sizes() == (3, 2)
    assert f.isolated_vertices() == (6,)


def test_one_edge_set_type():
    # the Gamma host, the forests and the trees share one class
    assert SimpleGraph is trees.SimpleGraph is treefam.SimpleGraph
    assert issubclass(Forest, SimpleGraph) and issubclass(Tree, Forest)
    assert repr(SimpleGraph(4, [(1, 2)])) == "SimpleGraph(n=4, m=1)"
    assert repr(Forest(4, [(1, 2)])) == "Forest(n=4, edges=[(1, 2)])"
    with pytest.raises(AttributeError, match="SimpleGraph is immutable"):
        SimpleGraph(3).n = 4


def _flood_classes(g):
    """The vertex classes of g by a flood from each unseen vertex."""
    nbr = {v: set() for v in range(1, g.n + 1)}
    for u, v in g.edges:
        nbr[u].add(v)
        nbr[v].add(u)
    seen, out = set(), []
    for s in range(1, g.n + 1):
        if s in seen:
            continue
        todo, cls = [s], {s}
        while todo:
            for w in nbr[todo.pop()] - cls:
                cls.add(w)
                todo.append(w)
        seen |= cls
        out.append(tuple(sorted(cls)))
    return out


@pytest.mark.parametrize("n", range(1, 10))
def test_classes_match_a_flood(n):
    rng = random.Random(n)
    for _ in range(20):
        # sparse hosts keep isolated vertices and several classes
        g = SimpleGraph(n, [e for e in all_edges(n) if rng.random() < 1.5 / n])
        want = _flood_classes(g)
        assert g.classes() == want
        # a spanning forest of g has g's classes, split by size
        dsu = _DSU(n)
        f = Forest(n, [e for e in g.edges if dsu.union(*e)])
        assert f.classes() == want
        assert f.components() == [c for c in want if len(c) > 1]
        assert f.isolated_vertices() == tuple(c[0] for c in want if len(c) == 1)
    if n >= 2:
        assert sample_uniform_tree(n, n).classes() == [tuple(range(1, n + 1))]


# -- Prufer bijection --------------------------------------------------------


def test_prufer_encode_examples():
    assert prufer_encode(Tree(2, [(1, 2)])) == ()
    assert prufer_encode(Tree(4, [(1, 2), (1, 3), (1, 4)])) == (1, 1)
    # smallest-leaf deletion on the path 1-2-3-4-5, worked by hand
    assert prufer_encode(Tree(5, [(1, 2), (2, 3), (3, 4), (4, 5)])) == (2, 3, 4)


def test_prufer_decode_examples():
    assert prufer_decode(2, ()).edges == ((1, 2),)
    assert prufer_decode(4, (1, 1)).edges == ((1, 2), (1, 3), (1, 4))


@pytest.mark.parametrize("n", range(2, 8))
def test_prufer_roundtrip_exhaustive(n):
    """encode(decode(c)) == c for every code, and all decodes are distinct."""
    seen = set()
    for code in product(range(1, n + 1), repeat=max(n - 2, 0)):
        t = prufer_decode(n, code)
        assert prufer_encode(t) == code
        seen.add(t.edges)
    assert len(seen) == cayley_count(n)


def test_prufer_rejects_bad_input():
    with pytest.raises(ValueError):
        prufer_decode(5, (1, 2))  # wrong length
    with pytest.raises(ValueError):
        prufer_decode(5, (1, 2, 6))  # label out of range
    with pytest.raises(ValueError):
        prufer_encode(Forest(4, [(1, 2), (3, 4)]))  # not spanning


def test_tree_index_bijection():
    n = 5
    for i in range(cayley_count(n)):
        assert tree_index(tree_from_index(n, i)) == i
    with pytest.raises(ValueError):
        tree_from_index(5, 125)


# -- enumeration -------------------------------------------------------------


@pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 16), (5, 125), (6, 1296)])
def test_enumerate_trees_counts(n, count):
    ts = list(enumerate_trees(n))
    assert len(ts) == count
    assert len({t.edges for t in ts}) == count


def test_enumerate_trees_in_index_order_and_ranges():
    full = [t.edges for t in enumerate_trees(5)]
    assert [t.edges for t in enumerate_trees(5, start=30, stop=40)] == full[30:40]
    assert [tree_index(Tree(5, e)) for e in full] == list(range(125))


def _same_as_validated(t):
    # a decoded tree is built without re-validation; it must be the Tree a
    # caller would get from the same edges
    ref = Tree(t.n, t.edges)
    return (t == ref and t.edges == ref.edges and hash(t) == hash(ref)
            and repr(t) == repr(ref) and type(t) is Tree)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_decoded_trees_equal_validated_trees(n):
    assert all(_same_as_validated(t) for t in enumerate_trees(n))
    total = cayley_count(n)
    others = [tree_from_index(n, total - 1), *sample_uniform_trees(n, 7, 20),
              prufer_decode(n, [n] * (n - 2)), *enumerate_spanning_trees(SimpleGraph.complete(n))]
    dg = build_gamma(SimpleGraph.complete(n), 1)
    others += [dg.tree(i) for i in range(0, total, 7)]
    assert all(_same_as_validated(t) for t in others)


def test_enumerate_trees_n8_distinct():
    """The full default-cap universe: 8^6 pairwise-distinct valid trees."""
    seen = set()
    for t in enumerate_trees(8):
        seen.add(t.edges)
    assert len(seen) == cayley_count(8) == 262144


def test_enumerate_trees_cap():
    with pytest.raises(CapExceeded) as ei:
        next(enumerate_trees(9))
    assert (ei.value.cap_name, ei.value.cap_value) == ("enum_cap", 8)
    # the cap is a fixed limit, and start/stop are keyword-only, so an old
    # positional cap cannot turn into a start index
    with pytest.raises(TypeError):
        enumerate_trees(3, cap=3)
    with pytest.raises(TypeError):
        enumerate_trees(5, 8)


K8 = SimpleGraph.complete(8)


@pytest.mark.parametrize("over, under, name, value", [
    (lambda: next(enumerate_trees(9)), lambda: next(enumerate_trees(8)), "enum_cap", 8),
    (lambda: edge_hits(9, [(1, 2)]), lambda: edge_hits(8, [(1, 2)]), "enum_cap", 8),
    (lambda: tree_mask_array(9), lambda: tree_mask_array(8), "enum_cap", 8),
    (lambda: blocked_Dt(11, 1), lambda: blocked_Dt(10, 8), "dt_cap", 10),
    (lambda: build_gamma(K8, 1), None, "gamma_cap", 20000),
    (lambda: list(enumerate_spanning_trees(K8)), None, "gamma_cap", 20000),
    (lambda: brute_force_max_t_intersecting(8, 1), None, "gamma_cap", 20000),
], ids=["enumerate_trees", "edge_hits", "tree_mask_array", "blocked_Dt", "build_gamma",
        "spanning_tree_stream", "search"])
def test_each_limit_fires_past_its_boundary(over, under, name, value):
    if under is not None:
        under()
    with pytest.raises(CapExceeded) as ei:
        over()
    assert (ei.value.cap_name, ei.value.cap_value) == (name, value)


def test_no_function_takes_a_cap():
    # every limit is a module constant: no library signature can move one
    funcs = []
    for name in ("cli", "counting", "extremal", "gamma", "spread", "trees"):
        mod = getattr(treefam, name)
        for obj in vars(mod).values():
            members = vars(obj).values() if isinstance(obj, type) else [obj]
            funcs += [f for f in members if inspect.isfunction(f) and f.__module__ == mod.__name__]
    assert len(funcs) > 100
    for f in funcs:
        assert not {"cap", "enum_cap"} & set(inspect.signature(f).parameters), f.__qualname__


# -- predicates --------------------------------------------------------------


def test_intersection_size():
    t = Tree(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    assert intersection_size(t, t) == 4
    s1 = Tree(5, [(1, x) for x in range(2, 6)])
    s2 = Tree(5, [(2, x) for x in (1, 3, 4, 5)])
    assert intersection_size(s1, s2) == 1  # exactly the edge {1,2}
    p = Tree(4, [(1, 2), (2, 3), (3, 4)])
    s = Tree(4, [(1, 2), (1, 3), (1, 4)])
    assert intersection_size(p, s) == 1
    with pytest.raises(ValueError):
        intersection_size(Tree(4, [(1, 2), (1, 3), (1, 4)]), s1)


def test_intersection_symmetric_and_bounded():
    ts = list(enumerate_trees(5))
    for a in ts[::7]:
        for b in ts[::11]:
            x = intersection_size(a, b)
            assert x == intersection_size(b, a)
            assert 0 <= x <= 4


def test_is_star():
    assert is_star(Tree(6, [(3, x) for x in (1, 2, 4, 5, 6)]))
    assert not is_star(Tree(4, [(1, 2), (2, 3), (3, 4)]))
    # every tree on 3 vertices is a star
    for t in enumerate_trees(3):
        assert is_star(t)


def test_stars_intersect_everything():
    """A star shares an edge with every tree (exhaustive at n <= 6)."""
    for n in (4, 5, 6):
        stars = [Tree(n, [(c, x) for x in range(1, n + 1) if x != c]) for c in range(1, n + 1)]
        for t in enumerate_trees(n):
            for s in stars:
                assert intersection_size(s, t) >= 1


def test_is_d_star_like():
    star13 = Forest(13, [(1, x) for x in range(2, 14)])
    assert is_d_star_like(star13, 6)
    matching = Forest(10, [(1, 2), (3, 4), (5, 6)])
    assert not is_d_star_like(matching, 6)
    assert not is_d_star_like(matching, 100)
    # path on 13 vertices: line-graph max degree 2 == (13-1)/6, true at equality
    path13 = Forest(13, [(i, i + 1) for i in range(1, 13)])
    assert is_d_star_like(path13, 6)
    path14 = Forest(14, [(i, i + 1) for i in range(1, 14)])
    assert not is_d_star_like(path14, 6)  # 2 < 13/6
    assert not is_d_star_like(Forest(5), 6)


def test_is_d_star_like_monotone_in_d():
    forests = [
        Forest(9, [(1, 2), (2, 3), (3, 4)]),
        Forest(9, [(1, 2), (1, 3), (1, 4), (5, 6)]),
        Forest(9, [(1, 2)]),
        Forest(9, [(i, i + 1) for i in range(1, 9)]),
    ]
    ds = [Fraction(1), 2, 3, 6, 12, 100]
    for f in forests:
        values = [is_d_star_like(f, d) for d in ds]
        # once true, stays true as d grows
        assert values == sorted(values)


# -- sampling ----------------------------------------------------------------


def test_sampling_deterministic():
    assert sample_uniform_tree(2, 99).edges == ((1, 2),)
    a = sample_uniform_tree(6, 42)
    b = sample_uniform_tree(6, 42)
    assert a == b
    assert sample_uniform_tree(6, 43) != a or True  # different seed may differ


def test_sample_count_must_be_nonnegative():
    assert sample_uniform_trees(5, 1, 0) == []
    with pytest.raises(ValueError, match="count=-1"):
        sample_uniform_trees(5, 1, -1)


def test_sampling_edge_probability():
    """Pr[a fixed edge is in a uniform tree] = 2/n, checked empirically."""
    ts = sample_uniform_trees(10, 20260810, 100_000)
    p = sum(1 for t in ts if (1, 2) in t.edge_set()) / len(ts)
    assert abs(p - 0.2) <= 0.01


# -- serialization -----------------------------------------------------------


def test_edge_list_roundtrip():
    f = Forest(6, [(1, 2), (3, 5)])
    text = f.to_edge_list_text()
    assert text == "1 2\n3 5\n"
    assert Forest.from_edge_list_text(text, n=6) == f
    parsed = parse_edge_list("# comment\n\n 2 1 \n3 5\n")
    assert parsed == [(1, 2), (3, 5)]
    with pytest.raises(ValueError):
        parse_edge_list("1 2 3\n")


def test_json_array_roundtrip():
    f = Forest(6, [(1, 2), (3, 5)])
    assert f.to_json_array() == "[[1, 2], [3, 5]]"
    assert Forest.from_json_array(f.to_json_array(), n=6) == f
    assert Forest.from_json_array("[[5, 3], [2, 1]]") == Forest(5, f.edges)
    with pytest.raises(ValueError, match="integer pairs"):
        Forest.from_json_array("[[1, 2.5]]")


# -- bitmasks ----------------------------------------------------------------


def test_edge_bits_are_lexicographic():
    n = 6
    for b, (u, v) in enumerate(all_edges(n)):
        assert edge_bit(n, u, v) == b
        assert edge_bit(n, v, u) == b
    es = [(1, 2), (2, 4), (5, 6)]
    assert mask_to_edges(n, edges_to_mask(n, es)) == sorted(es)


def test_edges_to_mask_rejects_out_of_range_loops_and_duplicates():
    assert edges_to_mask(6, [(2, 1), (5, 6)]) == edges_to_mask(6, [(1, 2), (5, 6)])
    for bad in ([(2, 7)], [(0, 3)], [(3, 3)], [(1, 2), (1, 2)], [(1, 2), (2, 1)],
                [(1.5, 2)], [(1, 2, 3)]):
        with pytest.raises(ValueError):
            edges_to_mask(6, bad)


def test_tree_masks_match_enumeration():
    # the vectorised decode against the per-code decode behind enumerate_trees
    for n in range(2, 8):
        masks = tree_masks(n)
        assert all(type(m) is int for m in masks)
        assert masks == tuple(edges_to_mask(n, t.edges) for t in enumerate_trees(n))
        assert tree_mask_array(n).tolist() == list(masks)


def test_tree_masks_n8_match_tree_from_index():
    n = 8
    masks, arr = tree_masks(n), tree_mask_array(n)
    assert len(masks) == len(arr) == cayley_count(n)
    assert all(type(m) is int for m in masks)
    for i in [*range(0, cayley_count(n), 1009), cayley_count(n) - 1]:
        assert masks[i] == int(arr[i]) == edges_to_mask(n, tree_from_index(n, i).edges)


def test_tree_mask_array_is_read_only():
    import numpy as np

    arr = tree_mask_array(5)
    first = tree_masks(5)[0]
    with pytest.raises(ValueError):
        arr[0] = 0
    with pytest.raises(ValueError):
        arr |= np.uint64(1)
    assert int(tree_mask_array(5)[0]) == first


def test_tree_mask_array_refuses_before_it_decodes(monkeypatch):
    def unbuilt(n):
        raise AssertionError(f"decoded {n}^{n - 2} codes past the cap")

    monkeypatch.setattr(treefam.trees, "_decode_all", unbuilt)
    for n in (9, 10, 12):
        with pytest.raises(CapExceeded):
            tree_mask_array(n)
        with pytest.raises(CapExceeded):
            tree_masks(n)


@pytest.mark.parametrize("rows,cols,words", [
    (1296, None, 1),  # triangle of Gamma_t(K_6)'s matrix
    (1296, 1296, 1),  # Gamma_t(K_6) rows against the whole matrix
    (528, 528, 2),  # two-word masks
    (300, None, 2),
    (5, 3, 1),  # fewer rows than one block
    (2, None, 1),
    (4, 70_000, 1),  # one row against more columns than a block holds
    (3, None, 40_000),  # a single row wider than a block
    (0, 7, 1),
])
def test_pair_blocks_stay_within_the_cell_budget(rows, cols, words):
    import numpy as np

    rng = np.random.default_rng(rows)
    a = rng.integers(0, 1 << 63, size=(rows, words), dtype=np.uint64)
    b = None
    if cols is not None:
        b = rng.integers(0, 1 << 63, size=(cols, words), dtype=np.uint64)
    next_lo = 0
    for lo, block in pair_blocks(a, b):
        k, c, w = block.shape
        assert k * c * w <= _BLOCK_CELLS or k == 1
        assert lo == next_lo and w == words
        other = a[lo:] if b is None else b
        assert c == len(other)
        assert np.array_equal(block, a[lo : lo + k, None, :] & other[None, :, :])
        next_lo = lo + k
    assert next_lo == rows


@pytest.mark.parametrize("value", [True, False, 2.0, 1.5, "3", None, [3]])
def test_as_ints_rejects_non_integers(value):
    with pytest.raises(ValueError, match=r"^x must be an integer, got "):
        _as_ints("x", value)
    with pytest.raises(ValueError, match=r"^x and y must be integers, got 4, "):
        _as_ints("x and y", 4, value)


def test_as_ints_accepts_python_and_numpy_integers():
    import numpy as np

    out = _as_ints("n, t and budget", 7, np.int64(3), np.uint8(5))
    assert out == (7, 3, 5)
    assert all(type(v) is int for v in out)
    assert _as_ints("nothing") == ()


@pytest.mark.parametrize("call, message", [
    (lambda: _as_ints("n, t and j_max", 5, 2, -1, low=(2, 1, 0)), "j_max=-1 must be >= 0"),
    (lambda: _as_ints("member mask", -3, low=(0,)), "member mask=-3 must be >= 0"),
    (lambda: forests(4, -1), "max_edges=-1 must be >= 0"),
    (lambda: index_to_code(4, -1), "idx=-1 must be >= 0"),
    (lambda: Forest(0), "n=0 must be >= 1"),
    (lambda: Tree(1, []), "n=1 must be >= 2"),
    (lambda: SimpleGraph.cycle(2), "n=2 must be >= 3"),
    (lambda: brute_force_max_t_intersecting(5, 0), "t=0 must be >= 1"),
    (lambda: FamilySpec("threshold", 5, -3, edges=[(1, 2)], threshold=1), "t=-3 must be >= 0"),
    (lambda: FamilySpec("threshold", 5, 0, edges=[(1, 2)], threshold=-1),
     "threshold=-1 must be >= 0"),
    (lambda: FamilySpec("trivial", 5, -1, edges=[(1, 2)]), "t=-1 must be >= 0"),
], ids=["names", "spaced-name", "max-edges", "index", "forest", "tree", "cycle", "search-t",
        "family-t", "family-threshold", "family-t-no-threshold"])
def test_as_ints_names_the_argument_below_its_bound(call, message):
    # a negative max_edges must fail, not walk all 38 forests of K_4
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
    assert _as_ints("n and t", 5, -1, low=(2,)) == (5, -1)  # no bound for t


# -- union-find ----------------------------------------------------------------


def test_dsu_undo_restores_the_lists_exactly():
    rng = random.Random(7)
    for n in (2, 5, 9, 16):
        dsu = _DSU(n)
        for _ in range(20):
            snapshots, roots = [], []
            for _ in range(rng.randint(0, 2 * n)):
                u, v = rng.sample(range(1, n + 1), 2)
                before = (dsu.parent[:], dsu.size[:])
                r = dsu.union(u, v)
                assert (r == 0) == (before[0] == dsu.parent)
                if r:
                    snapshots.append(before)
                    roots.append(r)
            for r, (parent, size) in zip(reversed(roots), reversed(snapshots)):
                dsu.undo(r)
                assert (dsu.parent, dsu.size) == (parent, size)
            assert (dsu.parent, dsu.size) == (list(range(n + 1)), [1] * (n + 1))


def test_dsu_merges_counts_unions_and_leaves_the_classes():
    rng = random.Random(8)
    for n in (3, 6, 10):
        dsu = _DSU(n)
        for u, v in rng.sample(all_edges(n), n // 2):
            dsu.union(u, v)
        before = (dsu.parent[:], dsu.size[:])
        classes = len({dsu.find(x) for x in range(1, n + 1)})
        for _ in range(20):
            es = rng.sample(all_edges(n), rng.randint(0, len(all_edges(n))))
            probe = _DSU(n)
            probe.parent, probe.size = dsu.parent[:], dsu.size[:]
            expected = sum(1 for u, v in es if probe.union(u, v))
            assert dsu.merges(es) == expected
            assert (dsu.parent, dsu.size) == before
        assert dsu.merges(all_edges(n)) == classes - 1


# -- the forest oracle of the tests -------------------------------------------


@pytest.mark.parametrize("n,total", [(2, 2), (3, 7), (4, 38), (5, 291), (6, 2932)])
def test_iter_forests_totals(n, total):
    """All labelled forests on [n]; totals are the known forest numbers."""
    found = forests(n)
    assert len(found) == total
    assert len(set(found)) == total
    for f in found:
        Forest(n, f)  # validates acyclicity


def test_iter_forests_edge_filters():
    assert forests(4, max_edges=0) == [()]
    three = forests(4, max_edges=3, min_edges=3)
    assert len(three) == 16  # spanning trees of K_4
    for f in forests(5, max_edges=2):
        assert len(f) <= 2

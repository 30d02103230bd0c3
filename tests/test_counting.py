"""Closed-form counts against the enumeration oracle."""

import random
from itertools import combinations
from math import comb

import numpy as np
import pytest
from enumeration_oracle import enumeration_count_containing, verify_by_enumeration
from forest_oracle import forests

from treefam.counting import (
    containment_lower_bound,
    count_at_least,
    count_exactly,
    count_matching_family,
    count_trees_containing,
    exact_k_distribution,
    is_lower_bound_vacuous,
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
    stars_plus_edge_size,
)
from treefam.gamma import SimpleGraph, TreeFamily, build_gamma
from treefam.spread import verify_r_spread, verify_rt_spread
from treefam.trees import (
    CapExceeded,
    Forest,
    Tree,
    all_edges,
    cayley_count,
    edge_hits,
    enumerate_trees,
    index_to_code,
    prufer_decode,
    sample_uniform_trees,
    tree_from_index,
    tree_mask_array,
    tree_masks,
)


def test_count_trees_containing_examples():
    assert count_trees_containing(5, [(1, 2)]) == 50
    assert count_trees_containing(5, [(1, 2), (2, 3)]) == 15
    assert count_trees_containing(6, Forest(6, [(1, 2), (3, 4)])) == 144


def test_count_trees_containing_edge_cases():
    # a cyclic edge set is contained in no tree: count 0, not an error
    assert count_trees_containing(5, [(1, 2), (2, 3), (1, 3)]) == 0
    assert count_trees_containing(5, []) == 125
    # a spanning tree contains itself only
    assert count_trees_containing(4, [(1, 2), (2, 3), (3, 4)]) == 1
    with pytest.raises(ValueError):
        count_trees_containing(4, [(1, 5)])
    with pytest.raises(ValueError):
        count_trees_containing(4, [(1, 2), (1, 2)])


def test_formula_equals_oracle_small():
    """Product formula vs streaming enumeration, n=6, every forest <= 3 edges."""
    for f in forests(6, 3):
        assert count_trees_containing(6, f) == enumeration_count_containing(6, f)


def test_enumeration_oracle_consistency():
    forest = Forest(5, [(2, 4)])
    slow = verify_by_enumeration(5, lambda t: (2, 4) in t.edge_set())
    assert slow == enumeration_count_containing(5, forest) == 50


def test_verify_by_enumeration_examples():
    assert verify_by_enumeration(5, lambda t: True) == 125
    from treefam.trees import is_star

    assert verify_by_enumeration(6, is_star) == 6
    with pytest.raises(CapExceeded):
        verify_by_enumeration(9, lambda t: True)


def test_count_matching_family():
    for n in (4, 5, 6, 7):
        assert count_matching_family(n, 0) == cayley_count(n)
    assert count_matching_family(5, 1) == 50
    assert count_matching_family(6, 3) == 48
    assert count_matching_family(2, 1) == 1  # the single tree on 2 vertices
    with pytest.raises(ValueError):
        count_matching_family(5, 3)  # no 3-matching fits in K_5


_S = [(1, 2), (3, 4)]

# One integer argument of each checked entry point, as (id, the call with that
# argument replaced by v, a valid value of it, the names the check reports).
# The forests-* rows check the forest oracle of the tests, which must not
# run vacuous on a bad bound.
_GATED = [
    ("forest-n", lambda v: Forest(v, []), 1, "n"),
    ("tree-n", lambda v: Tree(v, [(1, 2)]), 2, "n"),
    ("prufer-n", lambda v: prufer_decode(v, [1, 2]), 4, "n"),
    ("prufer-code", lambda v: prufer_decode(4, [v, 2]), 1, "code"),
    ("index-to-code-n", lambda v: index_to_code(v, 3), 4, "n and idx"),
    ("tree-from-index-idx", lambda v: tree_from_index(4, v), 3, "n and idx"),
    ("cayley-n", lambda v: cayley_count(v), 5, "n"),
    ("enumerate-n", lambda v: enumerate_trees(v), 5, "n"),
    ("enumerate-start", lambda v: enumerate_trees(5, start=v), 2, "start and stop"),
    ("enumerate-stop", lambda v: enumerate_trees(5, stop=v), 2, "start and stop"),
    ("sample-n", lambda v: sample_uniform_trees(v, 1, 1), 5, "n and count"),
    ("sample-count", lambda v: sample_uniform_trees(5, 1, v), 1, "n and count"),
    ("tree-masks-n", lambda v: tree_masks(v), 4, "n"),
    ("mask-array-n", lambda v: tree_mask_array(v), 4, "n"),
    ("edge-hits-n", lambda v: edge_hits(v, [(1, 2)]), 5, "n"),
    ("forests-n", lambda v: forests(v), 4, "n and min_edges"),
    ("forests-max", lambda v: forests(4, v), 1, "max_edges"),
    ("forests-min", lambda v: forests(4, 2, v), 1, "n and min_edges"),
    ("containing-n", lambda v: count_trees_containing(v, [(1, 2)]), 6, "n"),
    ("distribution-n", lambda v: exact_k_distribution(v, _S), 6, "n"),
    ("exactly-n", lambda v: count_exactly(v, _S, 1), 6, "n and k"),
    ("exactly-k", lambda v: count_exactly(6, _S, v), 1, "n and k"),
    ("at-least-n", lambda v: count_at_least(v, _S, 1), 6, "n and m"),
    ("at-least-m", lambda v: count_at_least(6, _S, v), 1, "n and m"),
    ("matching-l", lambda v: count_matching_family(6, v), 2, "n and l"),
    ("lower-bound-t", lambda v: containment_lower_bound(6, v), 2, "n and t"),
    ("vacuous-n", lambda v: is_lower_bound_vacuous(v, 2), 6, "n and t"),
    ("enum-count-n", lambda v: enumeration_count_containing(v, _S), 6, "n"),
    ("r-spread-n", lambda v: verify_r_spread(v, 3), 6, "n and t"),
    ("r-spread-budget", lambda v: verify_r_spread(6, 3, v), 2, "edge_budget"),
    ("rt-spread-t", lambda v: verify_rt_spread(6, 3, v), 1, "n and t"),
    ("stars-plus-edge-n", lambda v: stars_plus_edge_size(v), 6, "n"),
    ("threshold-m", lambda v: FamilySpec("threshold", 5, 1, edges=_S, threshold=v), 1,
     "n, t and threshold"),
    ("balanced-l", lambda v: balanced_forest(6, v), 2, "n and l"),
    ("example-forest-t", lambda v: example_forest(7, v), 2, "n and t"),
    ("ntj-t", lambda v: family_F_ntj_size(12, v, 1), 2, "n, t and j"),
    ("ntj-j", lambda v: family_F_ntj_size(12, 2, v), 1, "n, t and j"),
    ("example-t", lambda v: example_closed_form(15, v), 8, "n and t"),
    ("scan-n", lambda v: conjecture_scan(v, 2, 1), 9, "n, t and j_max"),
    ("avoiding-n", lambda v: count_avoiding(v, [(1, 2)], []), 6, "n"),
    ("dt-n", lambda v: blocked_Dt(v, 1), 5, "n and t"),
    ("dt-t", lambda v: blocked_Dt(5, v), 1, "n and t"),
    ("notstar-n", lambda v: lemma_notstar_check(v, []), 7, "n"),
    ("search-n", lambda v: brute_force_max_t_intersecting(v, 2), 5, "n and t"),
    ("search-t", lambda v: brute_force_max_t_intersecting(5, v), 2, "n and t"),
    ("graph-n", lambda v: SimpleGraph(v, []), 4, "n"),
    ("complete-n", lambda v: SimpleGraph.complete(v), 4, "n"),
    ("cycle-n", lambda v: SimpleGraph.cycle(v), 4, "n"),
    ("path-n", lambda v: SimpleGraph.path(v), 4, "n"),
    ("gamma-t", lambda v: build_gamma(SimpleGraph.complete(4), v), 1, "t"),
    ("family-mask", lambda v: TreeFamily(build_gamma(SimpleGraph.complete(4), 1), v),
     1, "member mask"),
]


def _gate_cases():
    cases = [
        pytest.param(lambda: count_matching_family(6.0, 2), "n and l", id="matching"),
        pytest.param(lambda: count_matching_family(6, True), "n and l", id="matching-bool"),
        pytest.param(lambda: stars_plus_edge_size(6.0), "n", id="stars-plus-edge"),
        pytest.param(lambda: example_closed_form(15.0, 8), "n and t", id="example"),
        pytest.param(lambda: containment_lower_bound(6.5, 2), "n and t", id="lower-bound"),
        pytest.param(lambda: cayley_count(5.5), "n", id="cayley"),
    ]
    for name, call, good, what in _GATED:
        for kind, bad in (("float", good + 0.5), ("bool", True), ("str", str(good))):
            cases.append(pytest.param(lambda c=call, b=bad: c(b), what, id=f"{name}-{kind}"))
    return cases


@pytest.mark.parametrize("call, what", _gate_cases())
def test_closed_forms_take_only_integers(call, what):
    # every integer argument goes through trees._as_ints: a float, bool or
    # string used to be truncated (tree_from_index(4, 3.5) gave tree 3), taken
    # as 1 (count_at_least(6, s, True)), or a bare TypeError
    with pytest.raises(ValueError, match=f"^{what} must be"):
        call()


@pytest.mark.parametrize("call", [
    lambda: count_trees_containing(6, Forest(10, [(7, 8)])),
    lambda: count_trees_containing(6, Forest(10, [(1, 2)])),
    lambda: exact_k_distribution(6, Forest(8, [(5, 6), (6, 7)])),
    lambda: exact_k_distribution(6, [], Forest(7)),
    lambda: count_exactly(6, Forest(5, [(1, 2)]), 1),
], ids=["beyond-n", "inside-n", "distribution", "forced", "exactly"])
def test_counts_reject_a_forest_on_another_n(call):
    # these raised a bare IndexError, or counted (1,2) on K_6 as 432
    with pytest.raises(ValueError, match=r"^the forest lives on n=\d+, not n=6$"):
        call()


def test_matching_maximality():
    """Among l-edge forests, only matchings attain the maximal count (n=6, l=2,3)."""
    n = 6
    for l in (2, 3):
        best = count_matching_family(n, l)
        for f in forests(n, max_edges=l, min_edges=l):
            c = count_trees_containing(n, f)
            assert c <= best
            is_matching = Forest(n, f).component_sizes() == (2,) * l
            assert (c == best) == is_matching


def test_containment_lower_bound():
    assert containment_lower_bound(7, 0) == 7 ** 5
    assert containment_lower_bound(7, 3) == 49
    # t = n-1 degenerates below 1: integral result 0, flagged vacuous
    assert containment_lower_bound(6, 5) == 0
    assert is_lower_bound_vacuous(6, 5)
    assert not is_lower_bound_vacuous(6, 4)
    with pytest.raises(ValueError):
        containment_lower_bound(6, 6)


def test_lower_bound_holds_for_all_forests():
    n = 6
    for f in forests(n, 4, min_edges=1):
        assert count_trees_containing(n, f) >= containment_lower_bound(n, len(f))


def test_count_at_least_boundaries():
    s = [(1, 2), (2, 3), (4, 5), (5, 6)]
    assert count_at_least(6, s, 0) == 1296
    # m = |s| on a forest reduces to plain containment
    assert count_at_least(6, s, 4) == count_trees_containing(6, s)
    assert count_at_least(6, s, 5) == 0


def test_count_at_least_frozen_oracle_value():
    """n=6, two disjoint 3-vertex paths, threshold 3: oracle-computed 117."""
    s = [(1, 2), (2, 3), (4, 5), (5, 6)]
    assert count_at_least(6, s, 3) == 117
    oracle = verify_by_enumeration(
        6, lambda t: len(t.edge_set() & set(s)) >= 3
    )
    assert oracle == 117


def test_count_at_least_with_cyclic_subsets():
    # edge sets may contain cycles; cyclic subsets contribute nothing
    s = [(1, 2), (2, 3), (1, 3)]
    got = count_at_least(5, s, 2)
    oracle = verify_by_enumeration(5, lambda t: len(t.edge_set() & set(s)) >= 2)
    assert got == oracle


def test_exactly_k_nonnegative_and_telescoping():
    s = [(1, 2), (2, 3), (3, 4), (5, 6)]
    n = 6
    exact = [count_exactly(n, s, k) for k in range(len(s) + 1)]
    assert all(v >= 0 for v in exact)
    assert sum(exact) == cayley_count(n)
    at_least = [count_at_least(n, s, m) for m in range(len(s) + 2)]
    # antitone, and each equals the telescoped tail sum
    for m in range(len(s) + 1):
        assert at_least[m] >= at_least[m + 1]
        assert at_least[m] == sum(exact[m:])


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_exact_k_distribution_matches_enumeration(n):
    # S may hold cycles and F may be cyclic (then every N_k is 0)
    rng = random.Random(100 + n)
    for _ in range(12):
        pool = all_edges(n)
        rng.shuffle(pool)
        s = pool[: rng.randint(0, min(8, len(pool)))]
        forced = pool[len(s) : len(s) + rng.randint(0, 3)]
        dist = exact_k_distribution(n, s, forced)
        holds = edge_hits(n, forced) == len(forced)
        hist = np.bincount(edge_hits(n, s)[holds], minlength=len(s) + 1)
        assert dist == hist.tolist()
        assert sum(dist) == count_trees_containing(n, forced)


def _subset_walk(n, s, forced=()):
    """Test-side oracle: the former engine body, every subset of s by size,
    one product-formula count per subset."""
    s, forced = tuple(s), tuple(forced)
    m = len(s)
    sums = [
        sum(count_trees_containing(n, forced + sub) for sub in combinations(s, j))
        for j in range(m + 1)
    ]
    return [
        sum((-1) ** (j - k) * comb(j, k) * sums[j] for j in range(k, m + 1))
        for k in range(m + 1)
    ]


def _random_tree_edges(n, rng):
    """Edges of a random spanning tree of K_n (each vertex joins an earlier one)."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return [tuple(sorted((v, rng.choice(order[:i])))) for i, v in enumerate(order) if i]


def _walk_cases(n, rng):
    pool = all_edges(n)
    rng.shuffle(pool)
    tree = _random_tree_edges(n, rng)
    rng.shuffle(tree)
    k = rng.randint(0, min(12, n - 1))
    rest = [e for e in pool if e not in tree]
    yield tree[:k], tree[k : k + rng.randint(0, 4)]  # S a forest
    yield pool[:12], pool[12 : 12 + rng.randint(0, 3)]  # S with cycles
    a, b, c = rng.sample(range(1, n + 1), 3)
    tri = [tuple(sorted(e)) for e in ((a, b), (b, c), (a, c))]
    yield [e for e in pool if e not in tri][:8], tri  # cyclic forced
    yield [], tree[:5]
    yield tree[:10], []
    if n <= 15:
        # forced and S together span K_n, plus a chord: the k = n - 1 branch
        yield tree[: n - 5] + rest[:1], tree[n - 5 :]


@pytest.mark.parametrize("n", [8, 9, 11, 15, 22, 40, 64])
def test_exact_k_distribution_matches_subset_walk(n):
    rng = random.Random(800 + n)
    for s, forced in _walk_cases(n, rng):
        dist = exact_k_distribution(n, s, forced)
        assert dist == _subset_walk(n, s, forced), (s, forced)
        assert sum(dist) == count_trees_containing(n, forced)


def test_exact_k_distribution_matches_subset_walk_at_14_edges():
    rng = random.Random(914)
    for n in (8, 15, 30):
        pool = all_edges(n)
        rng.shuffle(pool)
        tree = _random_tree_edges(n, rng)
        for s, forced in ((pool[:14], pool[14:16]), (tree[:14], tree[14:])):
            assert exact_k_distribution(n, s, forced) == _subset_walk(n, s, forced)


def test_exact_k_distribution_pinned_at_18_edges():
    # 2^18 subsets of a forest with 12 components; the sum is every tree
    dist = exact_k_distribution(30, balanced_forest(30, 18))
    assert sum(dist) == 30 ** 28
    assert dist == [
        65573944322925344366219025162240000000000,
        85386104840853527228919026196480000000000,
        51925841126366947228678791813120000000000,
        19588574258312062614751209000960000000000,
        5135072477321409378920205350400000000000,
        993020862613227790603714951680000000000,
        146756262930700459715417784960000000000,
        16942317955810252837776023040000000000,
        1548370522351976402870219520000000000,
        112824976440699284785459200000000000,
        6568580930779974671809920000000000,
        304743564607522834160640000000000,
        11180646120657336514560000000000,
        319940182807952878080000000000,
        6982895407883990400000000000,
        112160166946076160000000000,
        1248506433457920000000000,
        8595569249280000000000,
        27549901440000000000,
    ]


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_exact_k_distribution_past_the_old_cap_matches_enumeration():
    # |S| >= 25 meant over 2^25 subset visits for inclusion-exclusion
    n = 8
    tri = [(1, 2), (2, 3), (1, 3)]
    rest = [e for e in all_edges(n) if e not in tri]
    pool = all_edges(n)
    random.Random(2608).shuffle(pool)
    cases = [
        (all_edges(n), []),
        (rest, []),
        (rest, tri[:2]),  # an acyclic forced path
        (rest, tri),  # a cyclic forced triangle: every N_k is 0
        (pool[:26], pool[26:]),
    ]
    for s, forced in cases:
        dist = exact_k_distribution(n, s, forced)
        holds = edge_hits(n, forced) == len(forced)
        hist = np.bincount(edge_hits(n, s)[holds], minlength=len(s) + 1)
        assert dist == hist.tolist(), (s, forced)
    assert exact_k_distribution(n, all_edges(n))[n - 1] == cayley_count(n)
    assert exact_k_distribution(n, rest, tri) == [0] * 26


def test_exact_k_distribution_pinned_at_40_edges():
    # 16 paths on 3 vertices and 8 single edges.  For a forest S the subset
    # sums factor over its components, and sum_k N_k x^k is
    # 64^22 (62 + 2x)^8 ((63 + x)(61 + 3x))^16.
    want = [64 ** 22]
    for factor, power in (([62, 2], 8), ([63, 1], 16), ([61, 3], 16)):
        for _ in range(power):
            want = _times(want, factor)
    dist = exact_k_distribution(64, balanced_forest(64, 40))
    assert dist == want
    assert sum(dist) == 64 ** 62
    assert dist[40] == 64 ** 22 * 2 ** 8 * 3 ** 16


def test_kernel_exactness_checks_raise(monkeypatch):
    # a wrong determinant or tree polynomial must fail loudly, under python -O
    # too.  A triangle with a pendant edge is a block with a cycle, so it is
    # interpolated from _det_spd; a path is a tree block, read from _tree_poly
    import treefam.counting as counting

    cyclic = [(1, 2), (1, 3), (2, 3), (3, 4)]
    det_spd, tree_poly = counting._det_spd, counting._tree_poly
    monkeypatch.setattr(counting, "_det_spd", lambda rows: 1)
    with pytest.raises(ArithmeticError, match="not integral"):
        exact_k_distribution(4, cyclic)
    # off by 3! = 6 at x = 2, 3, 4, the divided differences stay integral and
    # only the n^2 check sees it
    monkeypatch.setattr(counting, "_det_spd", lambda rows: det_spd(rows) + 6)
    with pytest.raises(ArithmeticError, match="does not divide"):
        exact_k_distribution(4, cyclic)
    monkeypatch.setattr(counting, "_det_spd", det_spd)
    monkeypatch.setattr(counting, "_tree_poly", lambda diag, lap: [
        c + (i == 0) for i, c in enumerate(tree_poly(diag, lap))])
    with pytest.raises(ArithmeticError, match="does not divide"):
        exact_k_distribution(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])


def _random_tree_block(k, rng):
    """(n, s, forced): a random forced forest contracts K_n to k classes,
    n = 2k + 1 so that their sizes are not all equal, and s is a random tree
    on those classes, each edge between random members of its two classes."""
    n = 2 * k + 1
    classes = [[v] for v in range(1, n + 1)]
    forced = []
    while len(classes) > k:
        a, b = sorted(rng.sample(range(len(classes)), 2))
        forced.append(tuple(sorted((rng.choice(classes[a]), rng.choice(classes[b])))))
        classes[a] += classes.pop(b)
    s = [tuple(sorted((rng.choice(classes[i - 1]), rng.choice(classes[j - 1]))))
         for i, j in _random_tree_edges(k, rng)]
    return n, s, forced


def _block_values(diag, lap, xs):
    """det(diag(diag) + (x - 1) L) at each x of xs, by Bareiss."""
    from treefam.counting import _det_spd, _shifted

    return [_det_spd(_shifted(diag, lap, x - 1)) for x in xs]


@pytest.mark.parametrize("k", [2, 3, 5, 9, 17, 28, 40])
def test_tree_blocks_match_the_interpolation_path(k):
    # the forest expansion gives the polynomial that Bareiss at x = 1..k and
    # interpolation would, on tree blocks with unequal class weights
    from treefam.counting import _contract, _times_block

    rng = random.Random(3500 + k)
    for _ in range(4):
        n, s, forced = _random_tree_block(k, rng)
        free, blocks = _contract(n, s, forced)
        ((diag, lap),) = blocks
        assert free == 1 and len(diag) == k and len(set(diag)) > 1
        assert sum(row[0] for row in lap) == 2 * (k - 1)  # the tree branch
        poly = _times_block([1], diag, lap)
        assert len(poly) == k
        xs = range(1, k + 2)
        assert [sum(c * x ** i for i, c in enumerate(poly)) for x in xs] == \
            _block_values(diag, lap, xs)


@pytest.mark.parametrize("n", [5, 8, 20, 301])
def test_hamiltonian_path_closed_forms(n):
    # the counts sum to every tree of K_n; only the path holds all n - 1 of
    # its edges, and a tree holds n - 2 when one edge (i, i + 1) is swapped
    # for another of the i (n - i) edges across its cut
    dist = exact_k_distribution(n, [(i, i + 1) for i in range(1, n)])
    assert len(dist) == n and sum(dist) == n ** (n - 2)
    assert dist[n - 1] == 1
    assert dist[n - 2] == sum(i * (n - i) - 1 for i in range(1, n))


def test_acyclic_counts_take_no_determinant(monkeypatch):
    # with S and forced together a forest every block is a tree, so the
    # counts never reach a Bareiss determinant
    import treefam.counting as counting

    def refuse(rows):
        raise AssertionError("a determinant was taken")

    rng = random.Random(35)
    cases = []
    for n in (5, 6, 7, 7):
        tree = _random_tree_edges(n, rng)
        k = rng.randint(1, n - 1)
        cases += [(n, tree[:k], tree[k:][: rng.randint(1, n - 1)]), (n, tree[:k], [])]
    want = []
    for n, s, forced in cases:
        holds = edge_hits(n, forced) == len(forced)
        want.append(np.bincount(edge_hits(n, s)[holds], minlength=len(s) + 1).tolist())
    monkeypatch.setattr(counting, "_det_spd", refuse)
    for (n, s, forced), hist in zip(cases, want):
        assert exact_k_distribution(n, s, forced) == hist
        if not forced:
            assert [count_exactly(n, s, k) for k in range(len(s) + 1)] == hist
            assert [count_at_least(n, s, m) for m in range(len(s) + 1)] == [
                sum(hist[m:]) for m in range(len(s) + 1)]
    assert exact_k_distribution(301, [(i, i + 1) for i in range(1, 301)])[-1] == 1


def _random_reduced_laplacian(rng, k, lone_last=False):
    """Reduced Laplacian (last class dropped) of a random multigraph on k + 1
    classes with a spanning path, so positive definite; with lone_last the
    dropped class has no edges, so the matrix is singular as a whole only.
    Weights below 4 keep every k <= 7 under the int64 Hadamard guard."""
    w = [[0] * (k + 1) for _ in range(k + 1)]
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            w[i][j] = w[j][i] = rng.randrange(2) + (j == i + 1) * rng.randrange(1, 3)
    if lone_last:
        for i in range(k + 1):
            w[i][k] = w[k][i] = 0
    return [[sum(w[i]) if i == j else -w[i][j] for j in range(k)] for i in range(k)]


def _upper(rows):
    return [list(r[i:]) for i, r in enumerate(rows)]


@pytest.mark.parametrize("k", range(1, 8))
def test_batched_determinant_matches_det_spd(k):
    from treefam.counting import _det_spd, _det_spd_batch

    rng = random.Random(1000 + k)
    mats = [_random_reduced_laplacian(rng, k, lone_last=i % 5 == 4) for i in range(60)]
    kkb = np.ascontiguousarray(np.array(mats).transpose(1, 2, 0))  # (k, k, B)
    before = kkb.copy()
    got = _det_spd_batch(kkb)
    assert got.dtype == np.int64
    want = [_det_spd(_upper(m)) for m in mats]
    assert got.tolist() == want
    assert 0 in want  # the lone_last ones: singular as a whole, last pivot 0
    assert (kkb == before).all()  # eliminated on a copy


def test_batched_determinant_falls_back_past_the_hadamard_guard():
    from treefam.counting import _INT64_HADAMARD_SQ, _det_spd, _det_spd_batch

    rng = random.Random(7)
    small = [_random_reduced_laplacian(rng, 4) for _ in range(5)]
    # scaled by 2^24 each entry still fits int64, but Bareiss products and the
    # determinant (2^96 times the small one) do not
    big = [[[a << 24 for a in row] for row in m] for m in small[:2]]
    mats = np.array([small[0], big[0], small[1], big[1], small[2]], dtype=np.int64)
    rows = np.square(mats.astype(float)).sum(axis=2).prod(axis=1)
    assert [r > _INT64_HADAMARD_SQ for r in rows] == [False, True, False, True, False]
    got = _det_spd_batch(mats.transpose(1, 2, 0))
    assert got.dtype == object
    want = [_det_spd(_upper(m)) for m in mats.tolist()]
    assert got.tolist() == want
    assert want[1] == want[0] << 96 and want[1] > 2 ** 63
    assert all(type(v) is int for v in got)


@pytest.mark.parametrize("mats", [
    [[[0, 1], [1, 1]]],  # first pivot 0
    [[[2, 0], [0, 3]], [[-1, 0], [0, 3]]],  # one matrix of the batch
    [[[1, 2, 0], [2, 1, 0], [0, 0, 1]]],  # second pivot 1 - 4 = -3
], ids=["zero-pivot", "negative-in-batch", "negative-second-pivot"])
def test_batched_determinant_raises_on_a_non_positive_early_pivot(mats):
    from treefam.counting import _det_spd_batch

    with pytest.raises(ArithmeticError, match="not positive"):
        _det_spd_batch(np.array(mats).transpose(1, 2, 0))


@pytest.mark.parametrize("count", [
    lambda: exact_k_distribution(-3, []),
    lambda: exact_k_distribution(0, []),
    lambda: count_exactly(0, [], 0),
    lambda: count_exactly(1, [], 0),
    lambda: count_exactly(1, [], 5),  # k above |S|
    lambda: count_at_least(1, [], 5),  # m above |S|
], ids=["dist-n-3", "dist-n0", "exactly-n0", "exactly-n1", "exactly-k5", "at-least-m5"])
def test_counts_reject_n_below_2(count):
    with pytest.raises(ValueError, match=r"n=-?\d+ must be >= 2"):
        count()


def test_exact_k_distribution_reads_forests_and_defaults():
    s = Forest(6, [(1, 2), (2, 3), (4, 5)])
    assert exact_k_distribution(6, s) == [
        count_exactly(6, s, k) for k in range(4)
    ]
    assert exact_k_distribution(6, [], Forest(6, [(1, 2)])) == [
        count_trees_containing(6, [(1, 2)])
    ]
    with pytest.raises(ValueError, match="disjoint"):
        exact_k_distribution(6, [(1, 2), (2, 3)], [(3, 2)])


def test_big_counts_stay_exact():
    # far beyond 64-bit territory; spot-check the closed forms agree
    n = 64
    assert count_trees_containing(n, [(1, 2)]) == 2 * n ** (n - 3)
    assert count_matching_family(n, 5) == 2 ** 5 * n ** (n - 7)
    got = count_trees_containing(n, [(1, 2), (2, 3), (4, 5)])
    assert got == 3 * 2 * n ** (n - 2 - 3)


def test_enumeration_count_rejects_out_of_range_and_duplicate_edges():
    # (2,7) is not an edge of K_6; unchecked, its bit 9 is the edge (3,4)
    with pytest.raises(ValueError, match="out of range"):
        enumeration_count_containing(6, [(2, 7)])
    with pytest.raises(ValueError, match="duplicate"):
        enumeration_count_containing(6, [(1, 2), (1, 2)])


@pytest.mark.parametrize("count", [
    lambda s: count_at_least(6, s, 5),  # m above |S|
    lambda s: count_at_least(6, s, 0),
    lambda s: count_exactly(6, s, 3),  # k above |S|
    lambda s: count_exactly(6, s, -1),
    lambda s: count_exactly(6, s, 1),
    lambda s: count_trees_containing(6, s),
])
def test_counts_reject_out_of_range_edges(count):
    # the edge list is checked before the k or m shortcuts can answer 0
    with pytest.raises(ValueError, match=r"edge \(2,7\) out of range for n=6"):
        count([(2, 7)])
    with pytest.raises(ValueError, match="duplicate"):
        count([(1, 2), (2, 1)])


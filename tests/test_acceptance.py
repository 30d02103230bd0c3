"""Acceptance suite: one test per exit criterion, exact tolerances, timed.

Each test prints one line

    [acceptance NN] PASS|FAIL in <elapsed>s (limit <budget>s): <summary>

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
come; the whole suite is a few minutes.
"""

import hashlib
import random
import time
from fractions import Fraction

from enumeration_oracle import enumeration_count_avoiding, enumeration_count_containing
from forest_oracle import forests, forests_with_count

from treefam.counting import (
    containment_lower_bound,
    count_at_least,
    count_matching_family,
    count_trees_containing,
)
from treefam.extremal import (
    FamilySpec,
    blocked_Dt,
    brute_force_max_t_intersecting,
    count_avoiding,
    example_closed_form,
    example_forest,
    lemma_notstar_check,
    min_pairwise_intersection,
    stars_plus_edge_size,
)
from treefam.extremal import balanced_forest
from treefam.gamma import SimpleGraph, packing_number
from treefam.spread import verify_r_spread, verify_rt_spread
from treefam.trees import (
    Forest,
    cayley_count,
    enumerate_trees,
    intersection_size,
    is_d_star_like,
    is_star,
    sample_uniform_tree,
)


class _Criterion:
    """Context manager: times the block and prints the one-line verdict."""

    def __init__(self, num: int, limit_s: float, summary: str):
        self.num = num
        self.limit_s = limit_s
        self.summary = summary

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed < self.limit_s
        status = "PASS" if ok else "FAIL"
        print(
            f"[acceptance {self.num:02d}] {status} in {elapsed:.1f}s "
            f"(limit {self.limit_s:.0f}s): {self.summary}"
        )
        if exc_type is None:
            assert elapsed < self.limit_s, (
                f"criterion {self.num} exceeded its time budget: "
                f"{elapsed:.1f}s >= {self.limit_s}s"
            )
        return False


def test_criterion_01_cayley_enumeration():
    with _Criterion(1, 10, "enumerate_trees(n) = n^(n-2) distinct trees, n=3..7"):
        expected = {3: 3, 4: 16, 5: 125, 6: 1296, 7: 16807}
        for n, want in expected.items():
            seen = set()
            for t in enumerate_trees(n):
                seen.add(t.edges)
            assert len(seen) == want == cayley_count(n)


# -- criterion 2 helpers: forest isomorphism classes via AHU codes -------------


def _rooted_code(adj, v, parent):
    subs = sorted(_rooted_code(adj, w, v) for w in adj[v] if w != parent)
    return "(" + "".join(subs) + ")"


def _component_code(adj, vertices):
    # minimum rooted code over all roots; components here have <= 5 vertices
    return min(_rooted_code(adj, v, 0) for v in vertices)


def _forest_class(n, edges):
    """Isomorphism invariant: sorted multiset of component AHU codes."""
    adj = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = set()
    codes = []
    for u, v in edges:
        for x in (u, v):
            if x in seen:
                continue
            comp = []
            stack = [x]
            seen.add(x)
            while stack:
                y = stack.pop()
                comp.append(y)
                for z in adj[y]:
                    if z not in seen:
                        seen.add(z)
                        stack.append(z)
            codes.append(_component_code(adj, comp))
    return tuple(sorted(codes))


def test_criterion_02_containment_formula_vs_enumeration():
    summary = "containment formula = enumeration count (n=5,6 all forests; n=7 per class)"
    with _Criterion(2, 300, summary):
        for n in (5, 6):
            checked = 0
            for f in forests(n, 4):
                assert count_trees_containing(n, f) == enumeration_count_containing(n, f)
                checked += 1
            assert checked > {5: 290, 6: 1600}[n]
        # n = 7: one representative per isomorphism class of <= 4-edge forests
        reps = {}
        for f in forests(7, 4):
            key = _forest_class(7, f)
            if key not in reps:
                reps[key] = f
        assert len(reps) >= 15
        for f in reps.values():
            assert count_trees_containing(7, f) == enumeration_count_containing(7, f)


def test_criterion_03_matching_maximality():
    summary = "max over l-edge forests is 2^l n^(n-2-l), attained only by matchings"
    with _Criterion(3, 120, summary):
        for n in (6, 7):
            for l in (2, 3):
                best = count_matching_family(n, l)
                seen_max = 0
                for f, c in forests_with_count(n, max_edges=l, min_edges=l):
                    assert c <= best
                    is_matching = Forest(n, f).component_sizes() == (2,) * l
                    assert (c == best) == is_matching
                    seen_max = max(seen_max, c)
                assert seen_max == best


def test_criterion_04_containment_lower_bound():
    with _Criterion(4, 120, "every t-edge forest at n=7 contains >= 7^(5-t) trees"):
        n = 7
        for f, c in forests_with_count(n, max_edges=4, min_edges=1):
            assert c >= containment_lower_bound(n, len(f))


def test_criterion_05_spread():
    summary = "T_n is (n/2, n-1)-spread for n=4..7; r = n/2 + 1/1000 already fails"
    with _Criterion(5, 300, summary):
        for n in (4, 5, 6, 7):
            rep = verify_rt_spread(n, Fraction(n, 2), n - 1, n - 1)
            assert rep.verified
            tight = verify_r_spread(n, Fraction(n, 2) + Fraction(1, 1000), 1)
            assert not tight.verified
            assert len(tight.witness["X"]) == 1  # single-edge witness


def test_criterion_06_nash_williams_packing():
    summary = "packing_number(K_n) = floor(n/2) with a verified witness, n=4..16"
    with _Criterion(6, 60, summary):
        for n in range(4, 17):
            res = packing_number(SimpleGraph.complete(n))
            assert res.number == n // 2
            assert len(res.witness) == res.number
            for i, a in enumerate(res.witness):
                assert len(a.edges) == n - 1  # spanning trees of K_n
                for b in res.witness[i + 1 :]:
                    assert intersection_size(a, b) == 0


def test_criterion_07_notstar_avoidance_bounds():
    summary = "non-6-star-like forests at n=7: avoid count >= (3/7)^6 7^5 and > e^-4 7^5"
    with _Criterion(7, 600, summary):
        n = 7
        rational_bound = Fraction(3 ** 6, 7)  # (1 - 4/7)^6 * 7^5
        checked = 0
        for f_edges in forests(n, 4):
            f = Forest(n, f_edges)
            if is_d_star_like(f, 6):
                continue
            rep = lemma_notstar_check(n, f)
            assert rep.avoid_count == enumeration_count_avoiding(n, f, Forest(n))
            assert rep.rational_ok and rep.avoid_count >= rational_bound
            assert rep.e4_ok  # exceeds e^-4 * 7^5 ~ 307.83
            assert rep.verdict
            checked += 1
        # empty forest + all matchings with <= 3 edges
        assert checked == 1 + 21 + 105 + 105


def test_criterion_08_example_identity():
    summary = "count_at_least = 3^(t/2) n^(n-t-4)(2nt+4n-3t-3) at (15,8),(18,10),(21,12)"
    with _Criterion(8, 60, summary):
        for n, t in ((15, 8), (18, 10), (21, 12)):
            rep = example_closed_form(n, t)
            f = example_forest(n, t)
            got = count_at_least(n, f, t + 1)
            assert got == rep.threshold_size
            assert got > 3 ** (t // 2) * n ** (n - 2 - t)


def test_criterion_09_extremal_family_realization():
    summary = "realized families: stars+edge = 2n^(n-3)+(n-2); trivial = 2^t n^(n-t-2)"
    with _Criterion(9, 60, summary):
        for n, want in ((5, 53), (6, 436)):
            masks = FamilySpec("stars_plus_edge", n, 1).realize()
            assert len(masks) == len(set(masks)) == want == stars_plus_edge_size(n)
            assert min_pairwise_intersection(masks) >= 1
        for n, t in ((5, 1), (5, 2), (6, 1), (6, 2), (6, 3)):
            f = balanced_forest(n, t)  # a t-matching for t <= n/2
            assert f.component_sizes() == (2,) * t
            masks = FamilySpec("trivial", n, t, edges=f.edges).realize()
            assert len(masks) == count_matching_family(n, t)
            assert min_pairwise_intersection(masks) >= t


def test_criterion_10_exact_search_records():
    summary = "exact searches at (5,1)/(5,2): optimal, verified, >= construction sizes"
    with _Criterion(10, 1800, summary):
        res1, comp1 = brute_force_max_t_intersecting(5, 1)
        assert res1.optimal
        assert res1.family.min_pairwise_intersection() >= 1
        assert res1.size >= 53 == comp1["stars_plus_edge"]
        res2, comp2 = brute_force_max_t_intersecting(5, 2)
        assert res2.optimal
        assert res2.family.min_pairwise_intersection() >= 2
        assert res2.size >= 20 == comp2["best_trivial"]
        print(
            f"  (recorded: alpha(Gamma_1(K5)) = {res1.size}, "
            f"alpha(Gamma_2(K5)) = {res2.size})"
        )


def test_criterion_11_blocked_dt_consistency():
    summary = "blocked_Dt(6,1), (7,1): witnesses recompute, exhaustive minimum"
    with _Criterion(11, 1200, summary):
        for n in (6, 7):
            rep = blocked_Dt(n, 1)
            # the witness pair reproduces the reported value via the IE path
            assert count_avoiding(n, rep.argmin_tree, rep.argmin_forest) == rep.value
            # witness admissibility
            assert not is_star(rep.argmin_tree)
            assert intersection_size(rep.argmin_tree, rep.argmin_forest) < 1
            # independent exhaustive recheck through the IE path: no admissible
            # pair scores lower
            best = None
            for f_edges in forests(n, max_edges=1, min_edges=1):
                f = Forest(n, f_edges)
                for t0 in enumerate_trees(n):
                    if is_star(t0) or intersection_size(t0, f) >= 1:
                        continue
                    v = count_avoiding(n, t0, f)
                    assert v >= rep.value
                    best = v if best is None else min(best, v)
            assert best == rep.value


def test_criterion_12_dual_path_agreement():
    summary = "count_avoiding IE = enumeration on 200 seeded random (t0, f) pairs, n=6"
    with _Criterion(12, 120, summary):
        n = 6
        rng = random.Random(20260810)
        pairs = 0
        while pairs < 200:
            t0_edges = [
                e
                for e in sample_uniform_tree(n, rng.randrange(2 ** 31)).edges
                if rng.random() < 0.75
            ]
            f_edges = [
                e
                for e in sample_uniform_tree(n, rng.randrange(2 ** 31)).edges
                if rng.random() < 0.4
            ]
            t0, f = Forest(n, t0_edges), Forest(n, f_edges)
            ie = count_avoiding(n, t0, f, method="ie")
            assert ie == enumeration_count_avoiding(n, t0, f)
            pairs += 1


# alpha(Gamma_t(K_7)): size, search nodes and sha256 of the member mask in hex.
# t = 6 is left out: two trees sharing 6 edges are one tree, so alpha = 1.
K7_EKR_TABLE = {
    3: (392, 9479, "01d62f203f5e413bb5ae6e8a46138c62ea0878ffddbaa7e21ce97a40947b2cc2"),
    4: (84, 22, "424f4f41877e86987fd44f0e4f08728b93c47e5aa296d1fe1459acecc2067981"),
    5: (12, 9, "80107a658de3445dae4da50c58d4cce8a3d4fd84d7964123e6b7de0436b2795f"),
}


def test_criterion_13_exact_ekr_table_at_n7():
    summary = "exact searches at (7,3)/(7,4)/(7,5): 392/84/12, optimal, = best trivial family"
    with _Criterion(13, 600, summary):
        for t, (size, nodes, digest) in K7_EKR_TABLE.items():
            res, comp = brute_force_max_t_intersecting(7, t)
            assert (res.size, res.optimal, res.nodes) == (size, True, nodes)
            mask_hex = format(res.family.member_mask, "x")
            assert hashlib.sha256(mask_hex.encode()).hexdigest() == digest
            assert res.family.min_pairwise_intersection() >= t
            assert comp["best_trivial"] == size

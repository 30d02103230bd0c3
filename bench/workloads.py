"""The benchmark's workloads: seeded job lists, each job with an exact check.

A workload turns a random.Random into one job list (a "round").  Jobs call
treefam through the Library handed to them; checks compare against the
independent paths in oracles.py, against values pinned at the commit that
introduced the benchmark, or against a different treefam entry point where
the check is a recomputation of a witness.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import numpy as np

import oracles as O
from harness import Job

# Values pinned when the benchmark was written; each was also reached by an
# exhaustive or proven-optimal computation at that commit.
PINNED_DT = {(6, 1): 30, (6, 2): 9, (6, 3): 3, (6, 4): 1, (7, 1): 288, (7, 2): 72}
PINNED_ALPHA = {
    (4, 1): 10, (4, 2): 4, (4, 3): 1,
    (5, 1): 53, (5, 2): 20, (5, 3): 6, (5, 4): 1,
    (6, 3): 48, (6, 4): 9,
}
PINNED_OMEGA = {(4, 1): 2, (4, 2): 4, (4, 3): 16, (5, 1): 2, (5, 2): 5, (5, 4): 125}
# C_12 plus three chords: 528 spanning trees; the chord-free edge (11, 12) has
# bit 65, so build_gamma takes its pure-Python popcount branch.
SPARSE12_EDGES = [(i, i + 1) for i in range(1, 12)] + [(1, 12), (1, 7), (4, 10), (3, 9)]
SPARSE12_T = 8
PINNED_SPARSE12_ALPHA = 192

# Two budgets on one Gamma(K_6) separate the node rate from the fixed
# per-search cost; random graphs run at one fixed budget.
RATE_BUDGETS = (1000, 4000)
RANDOM_GRAPH_BUDGET = 200
RANDOM_GRAPH_TREES = (600, 800)


class Context:
    """What checks need besides the answer: the library and warm mask arrays."""

    def __init__(self, lib):
        self.lib = lib  # an untraced Library

    def array(self, n: int):
        return self.lib("trees.tree_mask_array", n)


# -- input generation ----------------------------------------------------------


def random_forest(rng, n: int, k: int) -> list:
    """k distinct edges of K_n forming a forest (random edges, cycles rejected)."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"no forest with {k} edges on {n} vertices")
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    edges = set()
    while len(edges) < k:
        u, v = sorted(rng.sample(range(1, n + 1), 2))
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            edges.add((u, v))
    return sorted(edges)


def balanced_paths(n: int, l: int) -> list:
    """F_{n,l}: n - l path components of near-equal size on consecutive blocks."""
    c = n - l
    big = n % c
    edges, start = [], 1
    for i in range(c):
        k = -(-n // c) if i < big else n // c
        edges += [(v, v + 1) for v in range(start, start + k - 1)]
        start += k
    return edges


def relabel(edges, perm) -> list:
    return sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def permutation(rng, n: int) -> dict:
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return dict(zip(range(1, n + 1), labels))


def edge_arg(edges) -> str:
    return ",".join(f"{u}-{v}" for u, v in edges)


def random_graph(rng, n: int, low: int, high: int) -> list:
    """A random graph on n vertices with low..high spanning trees.

    A random spanning tree plus random extra edges, added until the
    matrix-tree count reaches low; a graph that jumps past high is redrawn.
    """
    while True:
        edges = set(random_forest(rng, n, n - 1))
        rest = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u, v) not in edges]
        rng.shuffle(rest)
        for e in rest:
            edges.add(e)
            count = O.spanning_tree_count(n, [(u - 1, v - 1, 1) for u, v in edges])
            if count >= low:
                break
        if count <= high:
            return sorted(edges)


# -- ie-count --------------------------------------------------------------------


def ie_count_jobs(rng, ctx: Context) -> list:
    """Every round has the same job classes in the same slots; only inputs differ.

    A slot's class fixes its cost (the IE cost depends on |S|, not on n or the
    forest), so every round asks for the same amount of work.
    """
    jobs = []
    for third in range(3):
        for size in list(range(8, 16)) + [16 + third]:
            n = rng.randint(max(12, size + 1), 64)
            if size % 2:
                s = relabel(balanced_paths(n, size), permutation(rng, n))
                jobs.append(_at_least_job(n, s, rng.randint(1, size)))
            else:
                s = random_forest(rng, n, size)
                jobs.append(_exactly_job(n, s, rng.randint(0, size)))
        for k in range(4):
            n = 7 + (4 * third + k) // 2
            t0 = random_forest(rng, n, n - 1)
            # F is two edges of T_0, so |T_0 \ F| = n - 3 and the IE cost is fixed
            jobs.append(_avoid_job(n, t0, rng.sample(t0, 2), ctx))
            jobs.append(_contain_job(64, random_forest(rng, 64, rng.randint(1, 40))))
    return jobs


def _at_least_job(n, s, m):
    return Job(
        f"count_at_least[|S|={len(s)}]",
        lambda lib: lib("counting.count_at_least", n, s, m),
        lambda got: O.equal(got, O.trees_at_least(n, s, m), f"count_at_least n={n} m={m}"),
        key=("at_least", n, tuple(s), m),
    )


def _exactly_job(n, s, k):
    return Job(
        f"count_exactly[|S|={len(s)}]",
        lambda lib: lib("counting.count_exactly", n, s, k),
        lambda got: O.equal(got, O.overlap_polynomial(n, s)[k], f"count_exactly n={n} k={k}"),
        key=("exactly", n, tuple(s), k),
    )


def _avoid_job(n, t0, f, ctx):
    def check(got):
        if n <= 7:
            want = O.enum_avoiding(ctx.array(n), n, t0, f)
        else:
            want = O.trees_avoiding(n, t0, f)
        O.equal(got, want, f"count_avoiding n={n}")

    return Job(
        f"count_avoiding[n={n}]",
        lambda lib: lib("extremal.count_avoiding", n, t0, f, method="ie"),
        check,
        key=("avoid", n, tuple(t0), tuple(f)),
    )


def _contain_job(n, f):
    return Job(
        "count_trees_containing[n=64]",
        lambda lib: lib("counting.count_trees_containing", n, f),
        lambda got: O.equal(got, O.trees_containing(n, f), f"count_trees_containing n={n}"),
        key=("contain", n, tuple(f)),
    )


# -- exhaust -----------------------------------------------------------------------


def exhaust_jobs(rng, ctx: Context) -> list:
    # D_t at n = 7 takes 4.5 s (t = 1) and 10 s (t = 2); it runs in the traced
    # fixed inputs, so that rounds stay short enough to repeat within a run
    jobs = [dt_job(6, t, ctx) for t in (1, 2, 3, 4)]
    jobs.append(spread_job(7, Fraction(7, 2), 6))
    jobs.append(spread_job(8, Fraction(4), None))
    n = rng.randint(6, 9)
    r = Fraction(n, 2) + Fraction(1, rng.randint(2, 50))
    jobs.append(violated_spread_job(n, r, ctx))
    matching = [(1, 2), (3, 4), (5, 6)]
    jobs.append(family_job(7, relabel(matching, permutation(rng, 7)), 2, ctx))
    return jobs


def check_dt(n, t, value, forest, tree, ctx):
    """Pinned D_t, and the witness pair rechecked through count_avoiding."""
    O.equal(value, PINNED_DT[(n, t)], f"D_{t}({n})")
    O.equal(len(forest), t, "argmin forest size")
    O.check_spanning_tree(n, tree)
    degrees = [0] * (n + 1)
    for u, v in tree:
        degrees[u] += 1
        degrees[v] += 1
    O.expect(max(degrees) < n - 1, "argmin tree is a star")
    O.expect(len(set(tree) & set(forest)) < t, "argmin tree shares >= t edges with F")
    again = ctx.lib("extremal.count_avoiding", n, tree, forest, method="ie")
    O.equal(again, value, f"D_{t}({n}) witness through count_avoiding")


def dt_job(n, t, ctx):
    def check(rep):
        check_dt(n, t, rep.value, rep.argmin_forest.edges, rep.argmin_tree.edges, ctx)
        O.expect(rep.pairs_checked > 0, "no pairs checked")

    return Job(f"blocked_Dt[{n},{t}]", lambda lib: lib("extremal.blocked_Dt", n, t), check)


def spread_job(n, r, t):
    def run(lib):
        if t is None:
            return lib("spread.verify_r_spread", n, r)
        return lib("spread.verify_rt_spread", n, r, t)

    def check(rep):
        O.expect(rep.verified and rep.witness is None, f"T_{n} not {r}-spread: {rep.witness}")
        O.expect(rep.checked > 0, "no pairs checked")

    name = f"verify_r_spread[{n},{r}]" if t is None else f"verify_rt_spread[{n},{r},{t}]"
    return Job(name, run, check)


def check_spread_witness(n, r, count_x, x_edges, lhs, rhs, ctx):
    """A single-edge violation of r-spread, recomputed from scratch."""
    O.equal(len(x_edges), 1, "witness size")
    O.equal(count_x, ctx.lib("counting.count_trees_containing", n, x_edges), "witness count")
    O.equal(count_x, O.trees_containing(n, x_edges), "witness count (matrix-tree)")
    O.equal(lhs, count_x * r.numerator, "witness lhs")
    O.equal(rhs, n ** (n - 2) * r.denominator, "witness rhs")
    O.expect(lhs > rhs, "witness does not violate")


def violated_spread_job(n, r, ctx):
    def check(rep):
        O.expect(not rep.verified and rep.witness is not None, f"r={r} > n/2 not violated")
        w = rep.witness
        x = [tuple(e) for e in w["X"]]
        check_spread_witness(n, r, w["count_X"], x, w["lhs"], w["rhs"], ctx)

    return Job(
        f"verify_r_spread[{n},violated]",
        lambda lib: lib("spread.verify_r_spread", n, r, 1),
        check,
        key=("violated", n, r),
    )


def check_threshold_family(n, s, m, claimed, size, mpi, verified, ctx):
    arr = ctx.array(n)
    hits = np.bitwise_count(arr & np.uint64(O.mask_of(n, s)))
    members = [int(x) for x in arr[hits >= m]]
    O.equal(size, len(members), "threshold family size")
    want = O.min_pairwise_overlap(members)
    O.equal(mpi, want, "min pairwise intersection")
    O.equal(verified, want is None or want >= claimed, "verified flag")


def family_job(n, s, m, ctx):
    t = max(2 * m - len(s), 0)

    def run(lib):
        spec = lib.get("extremal.FamilySpec")("threshold", n, t, edges=s, threshold=m)
        return lib("extremal.FamilySpec.verify", spec)

    def check(answer):
        ok, mpi, size = answer
        check_threshold_family(n, s, m, t, size, mpi, ok, ctx)

    return Job(f"FamilySpec.verify[n={n}]", run, check, key=("family", n, tuple(s), m))


# -- alpha-search ----------------------------------------------------------------------


def alpha_search_jobs(rng, ctx: Context) -> list:
    jobs = [
        search_job(f"K{n}", n, None, t, None, PINNED_ALPHA[(n, t)])
        for n, t in ((5, 1), (5, 2), (6, 3), (6, 4))
    ]
    for budget in RATE_BUDGETS:
        jobs.append(search_job("K6", 6, None, 2, budget, None, group="rate:K6t2"))
    for n in (7, 8):
        edges = random_graph(rng, n, *RANDOM_GRAPH_TREES)
        jobs.append(search_job(f"G{n}", n, edges, 2, RANDOM_GRAPH_BUDGET, None))
    jobs.append(search_job("C12+3", 12, SPARSE12_EDGES, SPARSE12_T, None, PINNED_SPARSE12_ALPHA))
    return jobs


def search_job(label, n, edges, t, budget, pinned, group=None):
    """build_gamma then max_independent_set; the family is re-verified edge by edge."""
    graph_edges = edges if edges is not None else [
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
    ]

    def run(lib):
        graph = lib.get("gamma.SimpleGraph")(n, graph_edges)
        gamma = lib("gamma.build_gamma", graph, t)
        if budget is None:
            return gamma, lib("gamma.max_independent_set", gamma)
        return gamma, lib("gamma.max_independent_set", gamma, budget=budget)

    def check(answer):
        gamma, res = answer
        trees_of_graph = O.spanning_tree_count(n, [(u - 1, v - 1, 1) for u, v in graph_edges])
        O.equal(gamma.vertex_count, trees_of_graph, f"Gamma_{t}({label}) vertex count")
        trees = [tr.edges for tr in res.family.trees()]
        O.equal(res.size, len(trees), "family size")
        O.check_family(n, trees, t, True, graph_edges)
        if pinned is not None:
            O.expect(res.optimal, f"alpha(Gamma_{t}({label})) not proven")
            O.equal(res.size, pinned, f"alpha(Gamma_{t}({label}))")
        if budget is not None and not res.optimal:
            O.equal(res.nodes, budget + 1, "nodes at budget exhaustion")

    name = f"alpha[{label},t={t}" + (f",b={budget}]" if budget else "]")
    key = ("alpha", n, tuple(graph_edges), t, budget)
    return Job(name, run, check, key=key, group=group, solved=lambda a: a[1].optimal)


# -- cli-cold ------------------------------------------------------------------------


def cli_job(kind, args, check, key=None):
    argv = ["-m", "treefam.cli", *args, "--reproducible"]

    def run(lib):
        return lib("cli." + kind.replace(" ", "_"), argv)

    def checked(answer):
        code, out = answer
        O.equal(code, 0, f"exit code of {' '.join(args)}")
        check(json.loads(out))

    return Job(f"cli[{kind}]", run, checked, key=key or tuple(args))


def cli_cold_jobs(rng, ctx: Context) -> list:
    jobs = []

    n = rng.randint(4, 30)
    l = rng.randint(0, n // 2)
    matching = [(2 * i + 1, 2 * i + 2) for i in range(l)]
    jobs.append(cli_job(
        "count matching", ["count", "matching", "--n", str(n), "--l", str(l)],
        lambda p, n=n, m=matching: O.equal(int(p["count"]), O.trees_containing(n, m), "matching count"),
    ))

    n = rng.randint(5, 40)
    f = random_forest(rng, n, rng.randint(1, min(6, n - 1)))
    jobs.append(cli_job(
        "count contain", ["count", "contain", "--n", str(n), "--edges", edge_arg(f)],
        lambda p, n=n, f=f: O.equal(int(p["count"]), O.trees_containing(n, f), "contain count"),
    ))

    n = rng.randint(10, 30)
    s = random_forest(rng, n, rng.randint(4, min(10, n - 1)))
    m = rng.randint(1, len(s))
    jobs.append(cli_job(
        "count at-least", ["count", "at-least", "--n", str(n), "--edges", edge_arg(s), "--m", str(m)],
        lambda p, n=n, s=s, m=m: O.equal(int(p["count"]), O.trees_at_least(n, s, m), "at-least count"),
    ))

    n = rng.choice((5, 6))
    t = rng.randint(1, n - 1)
    jobs.append(cli_job(
        "spread check", ["spread", "check", "--n", str(n), "--r", f"{n}/2", "--t", str(t)],
        _check_spread_verified,
    ))

    n = rng.randint(5, 9)
    r = Fraction(n, 2) + Fraction(1, rng.randint(2, 50))
    jobs.append(cli_job(
        "spread check",
        ["spread", "check", "--n", str(n), "--r", f"{r.numerator}/{r.denominator}",
         "--edge-budget", "1", "--witness"],
        lambda p, n=n, r=r: _check_spread_violated(p, n, r, ctx),
    ))

    n, t = rng.choice(((4, 1), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)))
    jobs.append(cli_job(
        "gamma alpha", ["gamma", "alpha", "--graph", f"K{n}", "--t", str(t)],
        lambda p, n=n, t=t: _check_search(p, n, t, PINNED_ALPHA[(n, t)], True),
    ))

    n, t = rng.choice(((4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 4)))
    jobs.append(cli_job(
        "gamma omega", ["gamma", "omega", "--graph", f"K{n}", "--t", str(t)],
        lambda p, n=n, t=t: _check_search(p, n, t, PINNED_OMEGA[(n, t)], False),
    ))

    n = rng.choice((4, 5))
    jobs.append(cli_job(
        "gamma packing", ["gamma", "packing", "--graph", f"K{n}"],
        lambda p, n=n: _check_packing(p, n),
    ))

    jobs.append(_family_size_job(rng, ctx))
    jobs.append(_family_verify_job(rng, ctx))

    n = rng.randint(10, 16)
    t = rng.randint(1, 3)
    j_max = rng.randint(1, min(3, (n - 1 - t) // 2))
    jobs.append(cli_job(
        "family scan",
        ["family", "scan", "--n", str(n), "--t", str(t), "--j-max", str(j_max)],
        lambda p, n=n, t=t, j_max=j_max: _check_scan(p, n, t, j_max),
    ))

    t = rng.choice((1, 2))
    jobs.append(cli_job(
        "dt", ["dt", "--n", "6", "--t", str(t)],
        lambda p, t=t: _check_dt_payload(p, 6, t, ctx),
    ))

    jobs.append(_llll_job(rng))

    n = rng.randint(5, 30)
    seed = rng.randrange(10 ** 9)
    count = rng.randint(1, 5)
    jobs.append(cli_job(
        "sample", ["sample", "--n", str(n), "--seed", str(seed), "--count", str(count)],
        lambda p, n=n, seed=seed, count=count: _check_sample(p, n, seed, count, ctx),
    ))
    return jobs


def _check_spread_verified(p):
    O.expect(p["verified"] is True and "witness" not in p, "T_n not (n/2, t)-spread")
    O.expect(p["pairs_checked"] > 0, "no pairs checked")


def _check_spread_violated(p, n, r, ctx):
    O.expect(p["verified"] is False, f"r={r} > n/2 not violated")
    w = p["witness"]
    x = [tuple(e) for e in w["X"]]
    check_spread_witness(n, r, int(w["count_X"]), x, int(w["lhs"]), int(w["rhs"]), ctx)


def _check_search(p, n, t, pinned, independent):
    O.expect(p["optimal"] is True, "search not proven optimal")
    O.equal(p["size"], pinned, f"{'alpha' if independent else 'omega'}(Gamma_{t}(K{n}))")
    O.equal(len(p["trees"]), pinned, "family listed")
    O.check_family(n, p["trees"], t, independent)


def _check_packing(p, n):
    O.equal(p["packing"], n // 2, f"packing number of K{n}")
    used = set()
    for tr in p["witness"]:
        O.check_spanning_tree(n, tr)
        edges = {tuple(e) for e in tr}
        O.expect(not (edges & used), "witness trees share an edge")
        used |= edges
    O.equal(len(p["witness"]), n // 2, "witness trees")
    label = {v: i for i, block in enumerate(p["partition"]) for v in block}
    O.equal(sorted(label), list(range(1, n + 1)), "partition covers the vertices")
    cross = sum(1 for u in range(1, n + 1) for v in range(u + 1, n + 1) if label[u] != label[v])
    O.equal(p["cross_edges"], cross, "cross edges")
    O.equal(cross // (len(p["partition"]) - 1), n // 2, "partition bound")


def _family_size_job(rng, ctx):
    kind = rng.choice(("stars-plus-edge", "ntj", "trivial"))
    if kind == "stars-plus-edge":
        n = rng.randint(5, 7)

        def check(p, n=n):
            arr = ctx.array(n)
            stars = [O.mask_of(n, [tuple(sorted((c, x))) for x in range(1, n + 1) if x != c]) for c in range(1, n + 1)]
            e = np.uint64(O.mask_of(n, [(1, 2)]))
            keep = ((arr & e) == e) | np.isin(arr, np.array(stars, dtype=np.uint64))
            O.equal(int(p["size"]), int(np.count_nonzero(keep)), "stars-plus-edge size")

        return cli_job("family size", ["family", "size", "--kind", kind, "--n", str(n)], check)
    if kind == "ntj":
        n = rng.randint(10, 20)
        t = rng.randint(1, 3)
        j = rng.randint(0, 2)
        f = balanced_paths(n, t + 2 * j)
        want = O.trees_at_least(n, f, t + j)
        return cli_job(
            "family size",
            ["family", "size", "--kind", kind, "--n", str(n), "--t", str(t), "--j", str(j)],
            lambda p, want=want: O.equal(int(p["size"]), want, "F_ntj size"),
        )
    n = rng.randint(6, 30)
    f = random_forest(rng, n, rng.randint(1, 5))
    return cli_job(
        "family size",
        ["family", "size", "--kind", "trivial", "--n", str(n), "--edges", edge_arg(f)],
        lambda p, n=n, f=f: O.equal(int(p["size"]), O.trees_containing(n, f), "trivial size"),
    )


def _family_verify_job(rng, ctx):
    n = rng.choice((5, 6, 7))
    s = random_forest(rng, n, 4)
    m = rng.choice((3, 4))
    claimed = 2 * m - len(s)

    def check(p):
        O.equal(p["claimed_t"], claimed, "claimed t")
        check_threshold_family(
            n, s, m, claimed, int(p["size"]), p["min_pairwise_intersection"], p["verified"], ctx
        )

    return cli_job(
        "family verify",
        ["family", "verify", "--kind", "threshold", "--n", str(n), "--edges", edge_arg(s), "--m", str(m)],
        check,
    )


def _check_scan(p, n, t, j_max):
    sizes = [O.trees_at_least(n, balanced_paths(n, t + 2 * j), t + j) for j in range(j_max + 1)]
    O.equal([int(r["size"]) for r in p["rows"]], sizes, "scan sizes")
    best = max(range(len(sizes)), key=lambda j: (sizes[j], -j))
    O.equal(p["best_j"], best, "scan argmax")
    O.equal(p["weak_consistent"], (best == 0) if 2 * t <= n else None, "weak consistency")


def _check_dt_payload(p, n, t, ctx):
    forest = [tuple(e) for e in p["argmin_forest"]]
    tree = [tuple(e) for e in p["argmin_tree"]]
    check_dt(n, t, int(p["value"]), forest, tree, ctx)


def _llll_job(rng):
    events = rng.randint(2, 5)
    p = [Fraction(rng.randint(1, 4), rng.randint(8, 20)) for _ in range(events)]
    x = [Fraction(rng.randint(1, 5), rng.randint(8, 12)) for _ in range(events)]
    pairs = [(i, j) for i in range(events) for j in range(i + 1, events) if rng.random() < 0.4]
    adjacency = [[] for _ in range(events)]
    for i, j in pairs:
        adjacency[i].append(j)
        adjacency[j].append(i)
    ok, bound = O.llll_reference(p, x, adjacency)

    def check(payload):
        O.equal(payload["ok"], ok, "LLLL condition")
        O.equal(payload["bound"], f"{bound.numerator}/{bound.denominator}", "LLLL bound")

    args = [
        "llll", "check",
        "--p", ",".join(str(v) for v in p),
        "--x", ",".join(str(v) for v in x),
        "--graph-edges", ",".join(f"{i}-{j}" for i, j in pairs),
    ]
    return cli_job("llll check", args, check)


def _check_sample(p, n, seed, count, ctx):
    O.equal(int(p["count"]), count, "sample count")
    for tr in p["trees"]:
        O.check_spanning_tree(n, tr)
    again = ctx.lib("trees.sample_uniform_trees", n, seed, count)
    O.equal(p["trees"], [[list(e) for e in t.edges] for t in again], "same trees in-process")


# -- the fixed per-layer inputs of the traced run ----------------------------------------


def baseline_jobs(ctx: Context) -> list:
    """The fixed per-layer inputs every traced run ends with.

    They touch every layer whatever the workload, so every per-layer metric
    has a value, and they reproduce the inputs the ROADMAP baseline quotes.
    """
    jobs = [_cold_masks_job()]
    f64 = balanced_paths(64, 40)
    jobs.append(_named(_contain_job(64, f64), "baseline:count_trees_containing(64)"))
    for size in (12, 16, 18):
        s = balanced_paths(30, size)
        jobs.append(_named(_at_least_job(30, s, size // 2), f"baseline:count_at_least(30,|S|={size})"))
    jobs.append(_named(spread_job(7, Fraction(7, 2), 6), "baseline:verify_rt_spread(7,7/2,6)"))
    jobs.append(Job(
        "baseline:build_gamma(K6,2)",
        lambda lib: lib("gamma.build_gamma", lib.get("gamma.SimpleGraph").complete(6), 2),
        lambda g: O.equal(g.vertex_count, 6 ** 4, "Gamma_2(K6) vertices"),
    ))
    for t in (2, 1):
        for budget in RATE_BUDGETS:
            job = search_job("K6", 6, None, t, budget, None, group=f"rate:baseline-t{t}")
            jobs.append(_named(job, f"baseline:Gamma_{t}(K6) b={budget}"))
    jobs.append(_named(search_job("K5", 5, None, 2, None, PINNED_ALPHA[(5, 2)]), "baseline:alpha(Gamma_2(K5))"))
    jobs.append(_named(dt_job(7, 1, ctx), "baseline:blocked_Dt(7,1)"))
    jobs.append(_named(dt_job(7, 2, ctx), "baseline:blocked_Dt(7,2)"))
    t0 = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 11), (11, 12)]
    jobs.append(_named(_avoid_job(12, t0, [(1, 3), (5, 9)], ctx), "baseline:count_avoiding(12)"))
    jobs.append(_named(family_job(6, [(1, 2), (3, 4), (5, 6)], 2, ctx), "baseline:FamilySpec.verify(6)"))
    for _ in range(3):
        jobs.append(Job("baseline:spawn", lambda lib: lib("cli.spawn", ["-c", "pass"]),
                        lambda a: O.equal(a[0], 0, "python -c pass")))
    for _ in range(3):
        jobs.append(Job("baseline:import", lambda lib: lib("cli.import", ["-c", "import treefam.cli"]),
                        lambda a: O.equal(a[0], 0, "import treefam.cli")))
    dt_cli = cli_job("dt", ["dt", "--n", "7", "--t", "1"], lambda p: _check_dt_payload(p, 7, 1, ctx))
    jobs.append(_named(dt_cli, "baseline:treefam dt --n 7 --t 1"))
    return jobs


def _named(job, name):
    job.name = name
    return job


def _cold_masks_job():
    def run(lib):
        trees = sys.modules["treefam.trees"]
        trees.tree_masks.cache_clear()
        trees.tree_mask_array.cache_clear()
        return [(n, lib("trees.tree_masks", n), lib("trees.tree_mask_array", n)) for n in (7, 8)]

    def check(built):
        for n, masks, arr in built:
            O.equal(len(masks), n ** (n - 2), f"tree_masks({n}) size")
            O.equal(len(np.unique(arr)), len(masks), f"tree_masks({n}) distinct")
            O.expect(bool((np.bitwise_count(arr) == n - 1).all()), f"tree_masks({n}) edge counts")

    return Job("baseline:tree_masks(7,8) cold", run, check)


class Workload:
    """A job-list generator; its name and why are declared in BENCHMARK.json."""

    __slots__ = ("name", "make_jobs", "warm", "children")

    def __init__(self, name, make_jobs, warm=(), children=False):
        self.name = name
        self.make_jobs = make_jobs
        self.warm = warm  # tree-mask universes the jobs read
        self.children = children  # jobs run as child processes


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ie-count", ie_count_jobs),
        Workload("exhaust", exhaust_jobs, warm=(6, 7)),
        Workload("alpha-search", alpha_search_jobs, warm=(5, 6)),
        Workload("cli-cold", cli_cold_jobs, children=True),
    )
}

"""Exact r-spread and (r,t)-spread verification."""

import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import pytest
from forest_oracle import forests_with_count

from treefam.counting import count_from_component_product, count_trees_containing
from treefam.spread import (
    _least_product,
    _profiles,
    _realise,
    verify_r_spread,
    verify_rt_spread,
)
from treefam.trees import Forest, cayley_count


def test_single_edge_sits_on_the_boundary():
    # |T_6[{e}]| = 432 = (1/3) * 1296 exactly
    rep = verify_r_spread(6, 3, 1)
    assert rep.verified and rep.witness is None


def test_r_above_half_n_fails_with_single_edge_witness():
    rep = verify_r_spread(6, Fraction(3001, 1000), 1)
    assert not rep.verified
    assert rep.witness["X"] == [[1, 2]]
    # violation re-checkable from the reported integers
    assert rep.witness["lhs"] > rep.witness["rhs"]
    assert rep.witness["count_X"] == count_trees_containing(6, [(1, 2)])
    # same witness shows up first even with the full budget
    rep = verify_r_spread(6, Fraction(3001, 1000))
    assert rep.witness["X"] == [[1, 2]]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_half_n_spread_exhaustive(n):
    rep = verify_rt_spread(n, Fraction(n, 2), n - 1, n - 1)
    assert rep.verified


def test_rt_spread_instances():
    assert verify_rt_spread(6, 3, 5, 5).verified
    # T = U pairs are equalities and never violate; t=0 budget=full is r-spread
    assert verify_rt_spread(5, Fraction(5, 2), 0, 4).verified


def test_monotone_in_r():
    for r in (Fraction(3, 2), 2, Fraction(5, 2), 3):
        assert verify_r_spread(6, r).verified
    for eps_num in (1, 7, 500):
        assert not verify_r_spread(6, 3 + Fraction(eps_num, 1000), 1).verified


def test_rt_witness_recheckable():
    rep = verify_rt_spread(5, Fraction(26, 10), 4, 4)
    assert not rep.verified
    w = rep.witness
    gap = len(w["U"]) - len(w["T"])
    r = Fraction(26, 10)
    assert w["count_U"] * r.numerator ** gap > w["count_T"] * r.denominator ** gap
    assert w["count_T"] == count_trees_containing(5, [tuple(e) for e in w["T"]])
    assert w["count_U"] == count_trees_containing(5, [tuple(e) for e in w["U"]])


def test_report_serializes_counts_as_strings():
    rep = verify_r_spread(6, Fraction(3001, 1000), 1)
    data = json.loads(rep.to_json())
    assert data["r"] == "3001/1000"
    assert isinstance(data["witness"]["lhs"], str)


def test_empty_x_trivially_fine():
    # budget 0 checks only X = empty, which is equality
    rep = verify_r_spread(7, Fraction(7, 2), 0)
    assert rep.verified and rep.checked == 1


def test_rejects_r_at_most_one():
    with pytest.raises(ValueError):
        verify_r_spread(6, 1)
    with pytest.raises(ValueError):
        verify_rt_spread(6, Fraction(1, 2), 2, 3)


@pytest.mark.parametrize("r", [None, [1], float("inf"), float("nan"), "1/0", "two"])
def test_non_rational_r_is_refused_by_name(r):
    """A value of r that is no rational is a ValueError naming r, not a
    TypeError or OverflowError from deep inside the check."""
    with pytest.raises(ValueError, match="^r must be a rational, got "):
        verify_rt_spread(6, r, 1)
    with pytest.raises(ValueError, match="^r must be a rational, got "):
        verify_r_spread(6, r)


def test_rational_r_spellings_agree():
    """r may be an int, a Fraction, a float or a string that Fraction reads."""
    reports = [verify_rt_spread(6, r, 2).to_dict() for r in (Fraction(5, 2), 2.5, "5/2", "2.5")]
    assert all(rep == reports[0] for rep in reports)
    assert verify_r_spread(6, 3).to_dict() == verify_r_spread(6, "3").to_dict()


def test_negative_budget_rejected():
    with pytest.raises(ValueError):
        verify_r_spread(5, 3, -1)
    with pytest.raises(ValueError):
        verify_rt_spread(5, 3, 2, -1)


def test_budget_above_n_minus_1_is_clamped():
    rep = verify_r_spread(5, Fraction(5, 2), 99)
    assert rep.verified and rep.edge_budget == 4
    assert rep.checked == verify_r_spread(5, Fraction(5, 2)).checked
    rep = verify_rt_spread(5, Fraction(5, 2), 2, 99)
    assert rep.edge_budget == 4 and rep.to_dict()["edge_budget"] == 4


def test_checked_counts_profiles():
    # 22 edge-count profiles fit on 8 vertices; (profile, |T|) pairs at n = 7
    assert verify_r_spread(8, 4).checked == 22
    assert verify_rt_spread(7, Fraction(7, 2), 6).checked == 66
    assert verify_rt_spread(7, Fraction(7, 2), 6, 0).checked == 1


# -- differential test against the forest sweep ----------------------------------


@lru_cache(maxsize=None)
def _forests(n):
    return tuple(forests_with_count(n))


def _sweep_violations(n, r):
    """Forest-sweep oracle: the size pairs (|U|, |T|) of violating T <= U.

    Every forest U and every subset T of U is compared as
    |T_n[U]| p^(|U|-|T|) > |T_n[T]| q^(|U|-|T|); once a size pair is known to
    violate, further pairs of that size are skipped.  T = {} gives r-spread.
    """
    p, q = r.numerator, r.denominator
    forests = _forests(n)
    count_of = dict(forests)
    bad = set()
    for u, count_u in forests:
        ku = len(u)
        for kt in range(ku + 1):
            if (ku, kt) in bad:
                continue
            gap = ku - kt
            lhs = count_u * p ** gap
            rq = q ** gap
            if any(lhs > count_of[sub] * rq for sub in combinations(u, kt)):
                bad.add((ku, kt))
    return bad


def _check_rt_witness(n, r, t, budget, w):
    t_edges = [tuple(e) for e in w["T"]]
    u_edges = [tuple(e) for e in w["U"]]
    assert set(t_edges) <= set(u_edges)
    assert len(t_edges) <= t and len(u_edges) <= budget
    assert w["count_T"] == count_trees_containing(n, t_edges)
    assert w["count_U"] == count_trees_containing(n, u_edges) > 0
    gap = len(u_edges) - len(t_edges)
    assert w["lhs"] == w["count_U"] * r.numerator ** gap
    assert w["rhs"] == w["count_T"] * r.denominator ** gap
    assert w["lhs"] > w["rhs"]


def _check_r_witness(n, r, budget, w):
    x = [tuple(e) for e in w["X"]]
    k = len(x)
    assert k <= budget
    assert w["count_X"] == count_trees_containing(n, x) > 0
    assert w["lhs"] == w["count_X"] * r.numerator ** k
    assert w["rhs"] == cayley_count(n) * r.denominator ** k
    assert w["lhs"] > w["rhs"]


def _radii(n):
    half = Fraction(n, 2)
    small = Fraction(1, 1000)
    rs = {half, half - small, half + small, Fraction(3, 2), Fraction(26, 10),
          Fraction(n + 1, 2)}
    return sorted(r for r in rs if r > 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_profiles_agree_with_forest_sweep(n):
    for r in _radii(n):
        bad = _sweep_violations(n, r)
        for budget in range(n + 1):
            rep = verify_r_spread(n, r, budget)
            want = not any(kt == 0 and ku <= budget for ku, kt in bad)
            assert rep.verified == want, (n, r, budget)
            if not rep.verified:
                _check_r_witness(n, r, budget, rep.witness)
            for t in range(n + 1):
                rep = verify_rt_spread(n, r, t, budget)
                want = not any(kt <= t and ku <= budget for ku, kt in bad)
                assert rep.verified == want, (n, r, t, budget)
                if not rep.verified:
                    _check_rt_witness(n, r, t, budget, rep.witness)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_worst_sub_forest_matches_sweep(n):
    # T_n's verdicts are all decided by the single edge, so the closed form for
    # the worst T <= U (fill the largest components first) is checked on its
    # own: for each U profile and |T|, the least |T_n[T]| over all subsets T
    # of all forests U with that profile.
    forests = _forests(n)
    count_of = dict(forests)
    least = {}
    for u, _ in forests:
        sizes = Forest(n, u).component_sizes()
        profile = tuple(sorted((s - 1 for s in sizes if s > 1), reverse=True))
        for kt in range(len(u) + 1):
            m = min(count_of[sub] for sub in combinations(u, kt))
            key = (profile, kt)
            least[key] = min(least.get(key, m), m)
    got = {}
    for k in range(n):
        for profile, prod in _profiles(n, k):
            u_edges = _realise(profile)
            assert count_from_component_product(n, prod, k) == count_of[
                tuple(tuple(e) for e in u_edges)
            ]
            for kt in range(k + 1):
                got[profile, kt] = count_from_component_product(
                    n, _least_product(profile, kt), kt
                )
                t_edges = u_edges[:kt]
                assert len(t_edges) == kt
                assert count_trees_containing(n, t_edges) == got[profile, kt]
    assert got == least


@pytest.mark.parametrize("n", range(2, 13))
def test_least_product_is_the_least_allocation(n):
    # beyond the forest sweep: every allocation of j edges to the components
    # (0 <= f_i <= e_i, sum f_i = j), and the witness T = the first j edges
    for k in range(n):
        for profile, prod in _profiles(n, k):
            least = {}
            for f in product(*(range(e + 1) for e in profile)):
                m = 1
                for fi in f:
                    m *= fi + 1
                j = sum(f)
                least[j] = min(least.get(j, m), m)
            assert least[k] == prod
            u_edges = _realise(profile)
            for j in range(k + 1):
                assert _least_product(profile, j) == least[j], (profile, j)
                want = count_from_component_product(n, _least_product(profile, j), j)
                assert count_trees_containing(n, u_edges[:j]) == want


def test_half_n_spread_at_n_40():
    # far beyond forest enumeration: exact because only profiles are visited
    assert verify_r_spread(40, 20).verified
    rep = verify_r_spread(40, 20 + Fraction(1, 1000), 1)
    assert not rep.verified
    assert rep.witness["X"] == [[1, 2]]
    _check_r_witness(40, 20 + Fraction(1, 1000), 1, rep.witness)

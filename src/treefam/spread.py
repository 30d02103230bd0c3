"""Exact spread verification for the ambient family of all spanning trees.

A family F is r-spread when |F(X)| <= r^(-|X|) |F| for every edge set X, and
(r,t)-spread when additionally |F(U)| <= r^(|T|-|U|) |F(T)| for every pair
T <= U with |T| <= t.  For F = T_n both sides are closed-form counts, and
|T_n[X]| = prod(component sizes of X) * n^(n-2-|X|) depends on a forest X
only through its *profile*: the non-increasing tuple e_1 >= ... >= e_c >= 1
of edge counts of its non-trivial components (sum(e_i + 1) <= n).  The
checks therefore range over profiles, not forests, which makes them exact at
any n.  Every comparison is done on cross-multiplied integers (r is a
rational p/q) -- the single-edge case sits exactly on the boundary at
r = n/2, so floats would be wrong.

Witnesses are realised on consecutive vertex blocks: a profile becomes the
paths 1-2-..-(e_1+1), (e_1+2)-..., and so on, so a single-edge violation is
always X = [[1, 2]].
"""

from __future__ import annotations

import json
from typing import Optional

from .counting import count_from_component_product, count_trees_containing
from .trees import _as_ints, _rationals


class SpreadReport:
    """Outcome of a spread verification, with a re-checkable witness on failure.

    witness is None when verified; otherwise a dict holding the violating
    forest (pair) and both sides of the cross-multiplied inequality.
    checked counts the profiles visited (r-spread) or the (profile, |T|)
    pairs compared ((r,t)-spread); it is 1 at edge budget 0.
    """

    __slots__ = ("n", "r", "t", "edge_budget", "verified", "witness", "checked")

    def __init__(self, n, r, t, edge_budget, verified, witness, checked):
        self.n = n
        self.r = r
        self.t = t
        self.edge_budget = edge_budget
        self.verified = verified
        self.witness = witness
        self.checked = checked

    def __repr__(self):
        status = "verified" if self.verified else f"violated by {self.witness}"
        return (
            f"SpreadReport(n={self.n}, r={self.r}, t={self.t}, "
            f"budget={self.edge_budget}, {status})"
        )

    def to_dict(self) -> dict:
        d = {
            "n": self.n,
            "r": f"{self.r.numerator}/{self.r.denominator}",
            "t": self.t,
            "edge_budget": self.edge_budget,
            "verified": self.verified,
            "pairs_checked": self.checked,
        }
        if self.witness is not None:
            d["witness"] = {
                k: (str(v) if isinstance(v, int) else v)
                for k, v in self.witness.items()
            }
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _profiles(n: int, k: int):
    """Every profile with k edges that fits on n vertices, larger parts first.

    Yields (profile, prod) with prod = prod(e_i + 1).
    """
    slots = n - k  # sum(e_i + 1) <= n allows at most n - k components
    parts = []

    def rec(rest, cap, prod):
        if rest == 0:
            yield tuple(parts), prod
            return
        free = slots - len(parts)
        # the parts after e are each <= e, so rest - e must fit in free - 1 of them
        for e in range(min(rest, cap), 0, -1):
            if rest - e > e * (free - 1):
                break
            parts.append(e)
            yield from rec(rest - e, e, prod * (e + 1))
            parts.pop()

    yield from rec(k, k, 1)


def _least_product(profile, j: int) -> int:
    """Least component-size product of a j-edge sub-forest of the profile.

    Inside one tree component, f edges in pieces of sizes s_i give
    prod s_i >= 1 + sum(s_i - 1) = f + 1, attained by a connected subtree, so
    this is the least prod(f_i + 1) over 0 <= f_i <= e_i with sum f_i = j.
    That product is Schur-concave in f, so its minimum is at the allocation
    that majorizes every other (Marshall and Olkin, *Inequalities: Theory of
    Majorization and Its Applications*): fill the largest components first.
    On a non-increasing profile that is the first j edges of _realise(profile).
    """
    prod = 1
    for e in profile:
        if j == 0:
            break
        f = min(e, j)
        prod *= f + 1
        j -= f
    return prod


def _realise(profile):
    """Edges of the profile as paths on consecutive vertex blocks."""
    out = []
    start = 1
    for e in profile:
        out.extend([start + a, start + a + 1] for a in range(e))
        start += e + 1
    return out


def verify_r_spread(n: int, r, edge_budget: Optional[int] = None) -> SpreadReport:
    """Check |T_n(X)| <= r^(-|X|) |T_n| for every forest X with |X| <= budget.

    Non-forest X have |T_n(X)| = 0 and cannot violate, and a forest's count
    depends only on its profile, so profiles are visited in order of
    increasing edge count.  The inequality is compared as

        |T_n[X]| * p^|X|  <=  n^(n-2) * q^|X|      (r = p/q).

    A budget above n - 1 is clamped (and reported clamped); a negative one is
    a ValueError.  The work is the number of profiles, so any n is in reach.
    This is the t = 0 case of verify_rt_spread: at T = {} the chain reads
    |T_n[X]| * p^|X| <= |T_n| * q^|X|.
    """
    rep = verify_rt_spread(n, r, 0, edge_budget)
    w = rep.witness
    if w is not None:
        rep.witness = {
            "X": w["U"],
            "count_X": w["count_U"],
            "lhs": w["lhs"],
            "rhs": w["rhs"],
        }
    return rep


def verify_rt_spread(
    n: int, r, t: int, edge_budget: Optional[int] = None
) -> SpreadReport:
    """Check the (r,t)-spread chain on T_n exactly within the budget.

    For every forest U with |U| <= budget and every subset T of U with
    |T| <= t, compares

        |T_n[U]| * p^(|U|-|T|)  <=  |T_n[T]| * q^(|U|-|T|)      (r = p/q).

    For a U profile and a size |T| = k, the worst T is the k-edge sub-forest
    with the least component-size product, which fills the largest
    components first (_least_product); so the pairs compared are
    (U profile, k).  The witness realises U as paths on consecutive vertex
    blocks and T as the first k of those edges.
    Budget handling is as in verify_r_spread.
    """
    n, t = _as_ints("n and t", n, t, low=(2, 0))
    budget = n - 1 if edge_budget is None else edge_budget
    edge_budget = min(_as_ints("edge_budget", budget, low=(0,))[0], n - 1)
    (r,) = _rationals("r", r, one=True)
    if r <= 1:
        raise ValueError(f"r={r} must exceed 1")
    p, q = r.numerator, r.denominator
    checked = 0
    for ku in range(edge_budget + 1):
        for profile, prod_u in _profiles(n, ku):
            count_u = count_from_component_product(n, prod_u, ku)
            for kt in range(min(t, ku) + 1):
                checked += 1
                gap = ku - kt
                count_t = count_from_component_product(
                    n, _least_product(profile, kt), kt
                )
                if count_u * p ** gap > count_t * q ** gap:
                    u_edges = _realise(profile)
                    count_u = count_trees_containing(n, u_edges)
                    count_t = count_trees_containing(n, u_edges[:kt])
                    witness = {
                        "T": u_edges[:kt],
                        "U": u_edges,
                        "count_T": count_t,
                        "count_U": count_u,
                        "lhs": count_u * p ** gap,
                        "rhs": count_t * q ** gap,
                    }
                    return SpreadReport(n, r, t, edge_budget, False, witness, checked)
    return SpreadReport(n, r, t, edge_budget, True, None, checked)

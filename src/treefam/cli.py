"""Command-line front end: every workbench operation behind one binary.

Subcommands (run `treefam <command> [<sub>] --help` for the flags of each;
see README for the output schemas):

    enumerate                   stream spanning trees of K_n by tree index
    count contain|matching|at-least
    spread check                r-spread / (r,t)-spread verification
    gamma build|alpha|omega|packing
    family size|verify|scan
    dt                          blocked count D_t with witnesses
    llll check|notstar
    search max                  exact max t-intersecting family (n <= 7)
    sample                      seeded uniform random trees

Conventions: exit 0 on success, 2 on validation/cap errors (with a
machine-readable JSON error object on stdout naming any violated cap), 64 on
an unknown subcommand.  Big counts are always decimal strings, never JSON
numbers.  Output is byte-identical for identical inputs; the generated_at
field is omitted under --reproducible.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction
from typing import List, Optional, Tuple

from . import counting, extremal, gamma, spread, trees

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNKNOWN_COMMAND = 64


class CLIError(Exception):
    """Validation failure; rendered as the JSON error object, exit 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit; surface as validation
        raise CLIError(message)


# Argparse keywords of every flag.  A command's table entry names the flags it
# reads; "!" marks one required, "=a|b" restricts it to those choices.
_FLAGS = {
    "format": dict(choices=("json", "csv", "text"), default="json"),
    "reproducible": dict(action="store_true"),
    "seed": dict(type=int, default=0),
    "budget": dict(type=int, default=gamma.DEFAULT_NODE_BUDGET, help="search node budget"),
    "n": dict(type=int),
    "t": dict(type=int),
    "l": dict(type=int),
    "m": dict(type=int),
    "j": dict(type=int),
    "j-max": dict(type=int),
    "kind": dict(),
    "shape": dict(choices=extremal.COMPONENT_SHAPES),
    "edges": dict(),
    "edges-file": dict(),
    "start": dict(type=int, default=0),
    "stop": dict(type=int),
    "count": dict(type=int, default=1),
    "r": dict(help="rational, e.g. 3 or 7/2"),
    "edge-budget": dict(type=int),
    "witness": dict(action="store_true"),
    "graph": dict(help="K<n>/C<n>/P<n> or file"),
    "graph-n": dict(type=int),
    "out": dict(help="binary adjacency dump path"),
    "spec": dict(help="FamilySpec JSON file"),
    "p": dict(help="comma list of rationals"),
    "x": dict(help="comma list of rationals"),
    "graph-edges": dict(
        default="", help="dependency edges over event indices, e.g. 0-1,1-2"
    ),
}


def _parser(path: Tuple[str, ...], flags: str) -> _Parser:
    p = _Parser(prog="treefam " + " ".join(path))
    for token in ("format", *flags.split(), "reproducible"):
        token, _, choices = token.partition("=")
        name = token.rstrip("!")
        kw = dict(_FLAGS[name])
        if token.endswith("!"):
            kw["required"] = True
        if choices:
            kw["choices"] = tuple(choices.split("|"))
        p.add_argument("--" + name, **kw)
    return p


# -- argument helpers ----------------------------------------------------------


def _parse_edges_arg(spec: Optional[str], path: Optional[str]) -> List[trees.Edge]:
    """Edges from --edges "1-2,3-4" or --edges-file (edge-list text format)."""
    if spec is not None and path is not None:
        raise CLIError("give either --edges or --edges-file, not both")
    if path is not None:
        try:
            with open(path) as fh:
                return trees.parse_edge_list(fh.read())
        except OSError as e:
            raise CLIError(f"cannot read {path}: {e}")
    if spec is None or spec == "":
        return []
    out = []
    for part in spec.split(","):
        bits = part.strip().split("-")
        if len(bits) != 2:
            raise CLIError(f"bad edge {part!r}, expected 'u-v'")
        out.append(trees.edge(int(bits[0]), int(bits[1])))
    return out


def _forest(n: int, edges) -> trees.Forest:
    try:
        return trees.Forest(n, edges)
    except ValueError as e:
        raise CLIError(f"not a forest: {e}")


def _parse_graph_arg(spec: str, n_override: Optional[int]) -> gamma.SimpleGraph:
    """K<n>, C<n>, P<n> aliases, or a path to an edge-list file."""
    if len(spec) >= 2 and spec[0] in "KCP" and spec[1:].isdigit():
        G = gamma.SimpleGraph
        return {"K": G.complete, "C": G.cycle, "P": G.path}[spec[0]](int(spec[1:]))
    try:
        with open(spec) as fh:
            return gamma.SimpleGraph.from_edge_list_text(fh.read(), n_override)
    except OSError as e:
        raise CLIError(f"{spec!r} is not a K<n>/C<n>/P<n> alias or readable file: {e}")


def _parse_rational(spec: str) -> Fraction:
    try:
        return Fraction(spec)
    except (ValueError, ZeroDivisionError):
        raise CLIError(f"bad rational {spec!r}, expected forms like 3 or 7/2")


def _parse_rational_list(spec: str) -> List[Fraction]:
    if spec.strip() == "":
        return []
    return [_parse_rational(part.strip()) for part in spec.split(",")]


def _edges_json(edges) -> list:
    return [list(e) for e in edges]


def _trees_json(ts) -> list:
    return [_edges_json(t.edges) for t in ts]


# -- subcommand handlers ---------------------------------------------------
# Each takes the parsed namespace and returns (payload dict, csv (header,
# rows) or None).


def _cmd_enumerate(args):
    out = _trees_json(trees.enumerate_trees(args.n, start=args.start, stop=args.stop))
    payload = {
        "n": args.n,
        "start": args.start,
        "count": str(len(out)),
        "trees": out,
    }
    rows = [(args.n, i + args.start, json.dumps(t)) for i, t in enumerate(out)]
    return payload, (("n", "tree_index", "edges"), rows)


def _cmd_count_contain(args):
    edges = _parse_edges_arg(args.edges, args.edges_file)
    count = counting.count_trees_containing(args.n, edges)
    return {"n": args.n, "edges": _edges_json(edges), "count": str(count)}, None


def _cmd_count_matching(args):
    count = counting.count_matching_family(args.n, args.l)
    return {"n": args.n, "l": args.l, "count": str(count)}, None


def _cmd_count_at_least(args):
    edges = _parse_edges_arg(args.edges, args.edges_file)
    count = counting.count_at_least(args.n, edges, args.m)
    return {
        "n": args.n,
        "edges": _edges_json(edges),
        "m": args.m,
        "count": str(count),
    }, None


def _cmd_spread_check(args):
    r = _parse_rational(args.r)
    if args.t is None:
        report = spread.verify_r_spread(args.n, r, args.edge_budget)
    else:
        report = spread.verify_rt_spread(args.n, r, args.t, args.edge_budget)
    payload = report.to_dict()
    if args.witness and report.witness is not None:
        lines = []
        for key in ("X", "T", "U"):
            if key in report.witness:
                lines.append(f"# {key}")
                lines.extend(f"{u} {v}" for u, v in report.witness[key])
        payload["witness_edge_list"] = "\n".join(lines) + "\n"
    return payload, None


def _cmd_gamma_build(args):
    g = _parse_graph_arg(args.graph, args.graph_n)
    dg = gamma.build_gamma(g, args.t)
    payload = dg.summary()
    if args.out:
        try:
            dg.save_adjacency(args.out)
        except OSError as e:
            raise CLIError(f"cannot write {args.out}: {e}")
        payload["dump"] = args.out
    return payload, None


def _search_payload(head: dict, res, **tail) -> dict:
    """A search result: `head`, then size, optimal and nodes, `tail`, trees."""
    return {
        **head,
        "size": res.size,
        "optimal": res.optimal,
        "nodes": res.nodes,
        **tail,
        "trees": _trees_json(res.family.trees()),
    }


def _cmd_gamma_search(args, independent: bool):
    g = _parse_graph_arg(args.graph, args.graph_n)
    dg = gamma.build_gamma(g, args.t)
    search = gamma.max_independent_set if independent else gamma.max_clique
    kind = "independent_set" if independent else "clique"
    res = search(dg, budget=args.budget)
    return _search_payload({"n": g.n, "t": args.t, "kind": kind}, res), None


def _cmd_gamma_packing(args):
    g = _parse_graph_arg(args.graph, args.graph_n)
    return gamma.packing_number(g).to_dict(), None


# The flags that only some kinds of `family size` and `family verify` read:
# (subcommand, kind) -> the ones that kind reads, "!" marking one it requires.
_KIND_FLAGS = {
    ("size", "trivial"): "edges edges-file",
    ("size", "stars-plus-edge"): "",
    ("size", "ntj"): "t! j shape",
    ("size", "example"): "t!",
    ("verify", "trivial"): "t edges edges-file",
    ("verify", "stars-plus-edge"): "t",
    ("verify", "threshold"): "t m! edges edges-file",
}


def _check_kind_flags(args, sub: str) -> None:
    """Reject the kind flags --kind does not read; require those it must have."""
    flags = _KIND_FLAGS[sub, args.kind].split()
    every = " ".join(fs for (s, _), fs in _KIND_FLAGS.items() if s == sub)
    given = [
        f
        for f in dict.fromkeys(every.replace("!", "").split())
        if getattr(args, f.replace("-", "_")) is not None
    ]
    unread = [f"--{f}" for f in given if f not in flags and f + "!" not in flags]
    if unread:
        raise CLIError(f"--kind {args.kind} does not read {', '.join(unread)}")
    for f in flags:
        if f.endswith("!") and f[:-1] not in given:
            raise CLIError(f"--{f[:-1]} is required with --kind {args.kind}")


def _cmd_family_size(args):
    _check_kind_flags(args, "size")
    kind, n = args.kind, args.n
    if kind == "trivial":
        edges = _parse_edges_arg(args.edges, args.edges_file)
        size = extremal.trivial_family_size(n, _forest(n, edges))
        return {"kind": kind, "n": n, "t": len(edges), "size": str(size)}, None
    if kind == "stars-plus-edge":
        size = extremal.stars_plus_edge_size(n)
        return {"kind": kind, "n": n, "t": 1, "size": str(size)}, None
    if kind == "ntj":
        j, shape = args.j or 0, args.shape or "path"
        size = str(extremal.family_F_ntj_size(n, args.t, j, shape=shape))
        return dict(kind=kind, n=n, t=args.t, j=j, shape=shape, size=size), None
    rep = extremal.example_closed_form(n, args.t)
    return {"kind": kind, **rep.to_dict()}, None


def _cmd_family_verify(args):
    if args.spec is not None:
        flags = ("kind", "n", "t", "m", "edges", "edges-file")
        given = [f"--{f}" for f in flags if getattr(args, f.replace("-", "_")) is not None]
        if given:
            raise CLIError(f"--spec does not read {', '.join(given)}")
        try:
            with open(args.spec) as fh:
                fs = extremal.FamilySpec.from_json(fh.read())
        except OSError as e:
            raise CLIError(f"cannot read {args.spec}: {e}")
        except (KeyError, ValueError) as e:
            raise CLIError(f"bad family spec: {e}")
        kind = fs.kind
    else:
        kind = args.kind
        fs = _family_spec_from_flags(args)
    ok, mpi, size = fs.verify()
    return {
        "kind": kind,
        "n": fs.n,
        "claimed_t": fs.t,
        "size": str(size),
        "min_pairwise_intersection": mpi,
        "verified": ok,
    }, None


def _family_spec_from_flags(args) -> extremal.FamilySpec:
    """The FamilySpec that `family verify --kind ...` describes, with its claimed t."""
    if args.kind is None:
        raise CLIError("give --kind or --spec")
    if args.n is None:
        raise CLIError("--n is required with --kind")
    _check_kind_flags(args, "verify")
    edges = None
    if args.kind != "stars-plus-edge":
        edges = _parse_edges_arg(args.edges, args.edges_file)
    if args.kind == "trivial":
        claimed = len(_forest(args.n, edges).edges)
    elif args.kind == "stars-plus-edge":
        claimed = 1
    else:  # two members share >= 2m - |s| edges of s
        claimed = max(2 * args.m - len(edges), 0)
    if args.t is not None:
        claimed = args.t
    kind = args.kind.replace("-", "_")
    return extremal.FamilySpec(kind, args.n, claimed, edges=edges, threshold=args.m)


def _cmd_family_scan(args):
    rep = extremal.conjecture_scan(args.n, args.t, args.j_max, shape=args.shape or "path")
    rows = [(r.n, r.t, r.j, str(r.size), int(r.winner)) for r in rep.rows]
    return rep.to_dict(), (("n", "t", "j", "size", "winner"), rows)


def _cmd_dt(args):
    return extremal.blocked_Dt(args.n, args.t).to_dict(), None


def _cmd_llll_check(args):
    p = _parse_rational_list(args.p)
    x = _parse_rational_list(args.x)
    adjacency: List[List[int]] = [[] for _ in p]
    pairs = _parse_edges_arg(args.graph_edges, None)  # no loops, i < j
    for i, j in pairs:
        if j >= len(p):
            raise CLIError(f"event edge {i}-{j} out of range 0..{len(p) - 1}")
        adjacency[i].append(j)
        adjacency[j].append(i)
    return extremal.llll_condition_check(p, x, adjacency).to_dict(), None


def _cmd_llll_notstar(args):
    t0 = trees.Forest(args.n, _parse_edges_arg(args.edges, args.edges_file))
    rep = extremal.lemma_notstar_check(args.n, t0)
    return rep.to_dict(), None


def _cmd_search_max(args):
    res, comparison = extremal.brute_force_max_t_intersecting(
        args.n, args.t, node_budget=args.budget
    )
    comparison = {
        k: (str(v) if isinstance(v, int) and not isinstance(v, bool) else v)
        for k, v in comparison.items()
    }
    return _search_payload({"n": args.n, "t": args.t}, res, comparison=comparison), None


def _cmd_sample(args):
    ts = trees.sample_uniform_trees(args.n, args.seed, args.count)
    payload = {
        "n": args.n,
        "seed": args.seed,
        "count": str(len(ts)),
        "trees": _trees_json(ts),
    }
    return payload, None


# -- command table -------------------------------------------------------------
# (command, subcommand) -> (handler, the flags it reads besides --format and
# --reproducible).  Routing, parsing and the subcommand errors all read this.

COMMANDS = {
    ("enumerate",): (_cmd_enumerate, "n! start stop"),
    ("count", "contain"): (_cmd_count_contain, "n! edges edges-file"),
    ("count", "matching"): (_cmd_count_matching, "n! l!"),
    ("count", "at-least"): (_cmd_count_at_least, "n! edges edges-file m!"),
    ("spread", "check"): (_cmd_spread_check, "n! r! t edge-budget witness"),
    ("gamma", "build"): (_cmd_gamma_build, "graph! graph-n t! out"),
    ("gamma", "alpha"): (
        lambda args: _cmd_gamma_search(args, independent=True),
        "graph! graph-n t! budget",
    ),
    ("gamma", "omega"): (
        lambda args: _cmd_gamma_search(args, independent=False),
        "graph! graph-n t! budget",
    ),
    ("gamma", "packing"): (_cmd_gamma_packing, "graph! graph-n"),
    ("family", "size"): (
        _cmd_family_size,
        "kind!=trivial|stars-plus-edge|ntj|example n! t j edges edges-file shape",
    ),
    ("family", "verify"): (
        _cmd_family_verify,
        "kind=trivial|stars-plus-edge|threshold spec n t m edges edges-file",
    ),
    ("family", "scan"): (_cmd_family_scan, "n! t! j-max! shape"),
    ("dt",): (_cmd_dt, "n! t!"),
    ("llll", "check"): (_cmd_llll_check, "p! x! graph-edges"),
    ("llll", "notstar"): (_cmd_llll_notstar, "n! edges edges-file"),
    ("search", "max"): (_cmd_search_max, "n! t! budget"),
    ("sample",): (_cmd_sample, "n! count seed"),
}


# -- rendering ---------------------------------------------------------------


def _render(payload: dict, csv_spec, args) -> str:
    stamp = None if args.reproducible else datetime.now(timezone.utc).isoformat()
    if args.format == "json":
        body = payload if stamp is None else {**payload, "generated_at": stamp}
        return json.dumps(body, indent=2) + "\n"
    flat = [
        (k, json.dumps(v) if isinstance(v, (dict, list)) else v)
        for k, v in payload.items()
    ]
    if args.format == "csv":
        header, rows = (("key", "value"), flat) if csv_spec is None else csv_spec
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
        return buf.getvalue()
    if stamp is not None:
        flat.append(("generated_at", stamp))
    return "".join(f"{k}: {v}\n" for k, v in flat)


def _fail(
    message: str, code: int = EXIT_VALIDATION, cap_name: Optional[str] = None
) -> int:
    """Write the JSON error object and return the exit code."""
    err = {"message": message}
    if cap_name is not None:
        err["cap"] = cap_name
    sys.stdout.write(json.dumps({"error": err}) + "\n")
    return code


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # exact counts outgrow CPython's 4300-digit int/str limit; lift it for
    # this call only
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _run(argv: List[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return EXIT_OK if argv else EXIT_VALIDATION
    path = tuple(argv[:1])
    if path not in COMMANDS:
        top = argv[0]
        subs = [p[1] for p in COMMANDS if p[0] == top]
        if not subs:
            return _fail(f"unknown subcommand {top!r}", EXIT_UNKNOWN_COMMAND)
        if len(argv) < 2 or argv[1].startswith("-"):
            return _fail(f"{top} needs a subcommand: {', '.join(subs)}")
        path = tuple(argv[:2])
        if path not in COMMANDS:
            return _fail(f"unknown subcommand {top} {argv[1]!r}", EXIT_UNKNOWN_COMMAND)
    handler, flags = COMMANDS[path]
    try:
        args = _parser(path, flags).parse_args(argv[len(path):])
        if getattr(args, "budget", 1) <= 0:
            raise CLIError(f"--budget must be positive, got {args.budget}")
        payload, csv_spec = handler(args)
    except CLIError as e:
        return _fail(str(e))
    except trees.CapExceeded as e:
        return _fail(str(e), cap_name=e.cap_name)
    except ValueError as e:
        return _fail(str(e))
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    sys.stdout.write(_render(payload, csv_spec, args))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
